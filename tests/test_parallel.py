"""Pure terminal evaluation.

Covers the purity contract (``evaluate_assignment`` is a history-free
function of the assignment), the cross-run terminal cache, the
transposition-keyed network-evaluation cache, and the vectorized
pairwise-overlap check.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent.network import NetworkConfig, PolicyValueNet
from repro.agent.reward import NormalizedReward
from repro.agent.state import StateBuilder
from repro.coarsen import coarsen_design
from repro.env.placement_env import MacroGroupPlacementEnv
from repro.gp.mixed_size import MixedSizePlacer
from repro.grid.plan import GridPlan
from repro.legalize.pipeline import any_pairwise_overlap
from repro.mcts.node import Node as TreeNode
from repro.mcts.search import MCTSConfig, MCTSPlacer, _state_key
from repro.netlist.generator import GeneratorSpec, generate_design
from repro.netlist.model import Node
from repro.parallel import TerminalCache, environment_fingerprint

REWARD = NormalizedReward(w_max=2000.0, w_min=500.0, w_avg=1200.0, alpha=0.75)


@pytest.fixture(scope="session")
def _coarse_other_base():
    """A second, structurally different problem for the purity property."""
    spec = GeneratorSpec(
        name="parallel-other",
        n_movable_macros=6,
        n_pads=6,
        n_cells=40,
        n_nets=55,
        hierarchy_depth=2,
        hierarchy_branching=2,
        seed=11,
    )
    design = generate_design(spec)
    MixedSizePlacer(n_iterations=2).place(design)
    return coarsen_design(design, GridPlan(design.region, zeta=4))


@pytest.fixture
def coarse_other(_coarse_other_base):
    return copy.deepcopy(_coarse_other_base)


def make_env(coarse) -> MacroGroupPlacementEnv:
    return MacroGroupPlacementEnv(
        copy.deepcopy(coarse), cell_place_iters=1
    )


def random_assignments(env, n: int, seed: int = 0) -> list[list[int]]:
    rng = np.random.default_rng(seed)
    return [
        [int(a) for a in rng.integers(0, env.n_actions, env.n_steps)]
        for _ in range(n)
    ]


# -- tentpole: purity of terminal evaluation ----------------------------------
class TestPurity:
    @pytest.mark.parametrize("which", ["small", "other"])
    def test_history_independent(self, which, coarse_small, coarse_other):
        """evaluate_assignment(a) is bitwise-identical regardless of what
        the environment evaluated before — the property the cross-run
        cache is built on."""
        coarse = {"small": coarse_small, "other": coarse_other}[which]
        env = make_env(coarse)
        assignments = random_assignments(env, 3, seed=1)

        fresh = [make_env(coarse).evaluate_assignment(a) for a in assignments]

        reused = make_env(coarse)
        reused.play_random_episode(5)  # dirty the coarse netlist
        dirty = [reused.evaluate_assignment(a) for a in reversed(assignments)]
        assert dirty[::-1] == fresh

        # and again, interleaved, on the same reused env
        again = [reused.evaluate_assignment(a) for a in assignments]
        assert again == fresh

# -- the cross-run terminal cache ---------------------------------------------
class TestTerminalCache:
    def test_counters_and_lookup(self):
        cache = TerminalCache("fp")
        assert cache.get([1, 2]) is None
        cache.put([1, 2], 42.5)
        assert cache.get((1, 2)) == 42.5
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_put_keeps_first_value(self):
        cache = TerminalCache("fp")
        cache.put([1], 1.0)
        cache.put([1], 2.0)
        assert cache.get([1]) == 1.0

    def test_persistence_roundtrip(self, tmp_path):
        path = str(tmp_path / "terminal_cache.jsonl")
        cache = TerminalCache("fp", path=path)
        cache.put([3, 1, 4], 159.0)
        cache.put([2, 7, 1], 828.0)
        reloaded = TerminalCache("fp", path=path)
        assert reloaded.get([3, 1, 4]) == 159.0
        assert reloaded.get([2, 7, 1]) == 828.0
        assert len(reloaded) == 2

    def test_fingerprint_mismatch_ignored(self, tmp_path):
        path = str(tmp_path / "terminal_cache.jsonl")
        TerminalCache("fp-a", path=path).put([1, 2], 10.0)
        other = TerminalCache("fp-b", path=path)
        assert len(other) == 0
        assert other.get([1, 2]) is None

    def test_torn_tail_and_junk_tolerated(self, tmp_path):
        path = str(tmp_path / "terminal_cache.jsonl")
        TerminalCache("fp", path=path).put([5], 50.0)
        with open(path, "a") as f:
            f.write("not json\n")
            f.write(json.dumps({"fingerprint": "fp"}) + "\n")  # no payload
            f.write('{"fingerprint": "fp", "assignment": [9], "wi')  # torn
        reloaded = TerminalCache("fp", path=path)
        assert reloaded.get([5]) == 50.0
        assert len(reloaded) == 1

    def test_sha_mismatch_drops_only_the_damaged_record(self, tmp_path):
        path = str(tmp_path / "terminal_cache.jsonl")
        cache = TerminalCache("fp", path=path)
        cache.put([1, 2], 100.0)
        cache.put([3, 4], 200.0)
        lines = open(path).read().splitlines()
        # flip the recorded wirelength of the first entry without
        # updating its sha — simulated bit rot
        damaged = json.loads(lines[0])
        damaged["wirelength"] = 999.0
        with open(path, "w") as f:
            f.write(json.dumps(damaged) + "\n")
            f.write(lines[1] + "\n")
        reloaded = TerminalCache("fp", path=path)
        assert reloaded.corrupt_entries == 1
        assert reloaded.get([1, 2]) is None  # poisoned value never served
        assert reloaded.get([3, 4]) == 200.0

    def test_flipped_high_bit_drops_only_that_record(self, tmp_path):
        path = str(tmp_path / "terminal_cache.jsonl")
        cache = TerminalCache("fp", path=path)
        cache.put([1, 2], 100.0)
        cache.put([3, 4], 200.0)
        with open(path, "rb") as f:
            data = bytearray(f.read())
        data[5] ^= 0x80  # inside the first record: no longer UTF-8
        with open(path, "wb") as f:
            f.write(data)
        reloaded = TerminalCache("fp", path=path)
        assert reloaded.get([1, 2]) is None
        assert reloaded.get([3, 4]) == 200.0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_single_bit_flip_never_serves_a_wrong_value(self, data):
        """Construction never raises on a one-bit-damaged file, and every
        entry it loads is the value written for that key: the per-record
        sha drops whatever the flip changed."""
        written = {(1, 2): 100.0, (3, 4): 200.25, (5,): 1234.5678}
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "terminal_cache.jsonl")
            cache = TerminalCache("fp", path=path)
            for key, wirelength in written.items():
                cache.put(key, wirelength)
            with open(path, "rb") as f:
                damaged = bytearray(f.read())
            bit = data.draw(st.integers(0, len(damaged) * 8 - 1), label="bit")
            damaged[bit // 8] ^= 1 << (bit % 8)
            with open(path, "wb") as f:
                f.write(damaged)
            loaded = TerminalCache("fp", path=path).as_dict()
        for key, wirelength in loaded.items():
            assert written[key] == wirelength

    def test_legacy_records_without_sha_still_load(self, tmp_path):
        path = str(tmp_path / "terminal_cache.jsonl")
        with open(path, "w") as f:
            f.write(json.dumps({
                "fingerprint": "fp", "assignment": [7], "wirelength": 70.0,
            }) + "\n")
        cache = TerminalCache("fp", path=path)
        assert cache.get([7]) == 70.0
        assert cache.corrupt_entries == 0

    def test_duplicate_keys_last_writer_wins(self, tmp_path):
        # two attempt workers appending the same (pure) evaluation: either
        # record may land last; the replayed value is the shared one
        path = str(tmp_path / "terminal_cache.jsonl")
        TerminalCache("fp", path=path).put([1], 10.0)
        TerminalCache("fp", path=path).put([1], 10.0)
        reloaded = TerminalCache("fp", path=path)
        assert len(reloaded) == 1
        assert reloaded.get([1]) == 10.0

    def test_two_processes_append_concurrently(self, tmp_path):
        """Two OS processes (a daemon's attempt workers) hammer one cache
        file: every record lands whole, none is lost, and the key both
        append replays to the shared value."""
        path = str(tmp_path / "terminal_cache.jsonl")
        n = 60
        script = (
            "import sys\n"
            "from repro.parallel import TerminalCache\n"
            "who, path, n = sys.argv[1], sys.argv[2], int(sys.argv[3])\n"
            "cache = TerminalCache('fp', path=path)\n"
            "for i in range(n):\n"
            "    cache.put([ord(who), i], float(i))\n"
            "    cache.put([0, i], float(i))  # shared key, same value\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, who, path, str(n)], env=env,
            )
            for who in ("a", "b")
        ]
        assert [p.wait() for p in procs] == [0, 0]
        # every record line parses whole: single-syscall appends never
        # interleave.  An append that found another worker's record in
        # flight (an unterminated tail) starts with a newline of its own,
        # which can leave a blank line; readers skip those.
        for line in open(path):
            if line.strip():
                json.loads(line)
        cache = TerminalCache("fp", path=path)
        assert cache.corrupt_entries == 0
        assert len(cache) == 3 * n  # a-keys + b-keys + shared keys
        for i in range(n):
            assert cache.get([0, i]) == float(i)

    def test_compact_drops_damage_and_resets_corrupt_count(self, tmp_path):
        path = str(tmp_path / "terminal_cache.jsonl")
        cache = TerminalCache("fp", path=path)
        cache.put([1, 2], 100.0)
        cache.put([3, 4], 200.0)
        # a foreign fingerprint that must survive even though this
        # instance ignores it
        TerminalCache("fp-other", path=path).put([9], 90.0)
        lines = open(path).read().splitlines()
        damaged = json.loads(lines[0])
        damaged["wirelength"] = 999.0  # sha no longer matches
        with open(path, "w") as f:
            f.write(json.dumps(damaged) + "\n")
            for line in lines[1:]:
                f.write(line + "\n")
            f.write(lines[1] + "\n")  # peer re-append: superseded dup
            f.write('{"fingerprint": "fp", "assignment": [8], "wi')  # torn

        reloaded = TerminalCache("fp", path=path)
        assert reloaded.corrupt_entries == 1
        summary = reloaded.compact()
        assert summary["kept"] == 2  # [3,4] and foreign [9]; [1,2] gone
        assert summary["dropped_corrupt"] == 1  # bit rot (torn never parses)
        assert summary["dropped_superseded"] == 1
        assert summary["after_bytes"] < summary["before_bytes"]
        assert reloaded.corrupt_entries == 0

        clean = TerminalCache("fp", path=path)
        assert clean.corrupt_entries == 0
        assert clean.get([1, 2]) is None  # poisoned value stays gone
        assert clean.get([3, 4]) == 200.0
        assert TerminalCache("fp-other", path=path).get([9]) == 90.0

    def test_fingerprint_tracks_environment(self, coarse_small):
        env_a = make_env(coarse_small)
        env_b = make_env(coarse_small)
        assert environment_fingerprint(env_a) == environment_fingerprint(env_b)
        env_c = MacroGroupPlacementEnv(
            copy.deepcopy(coarse_small), cell_place_iters=2
        )
        assert environment_fingerprint(env_a) != environment_fingerprint(env_c)

    def test_fingerprint_value_pinned(self, coarse_small):
        """Every shared ``terminal_cache.jsonl`` is keyed by this value: a
        change orphans them all, so it must be deliberate."""
        env = MacroGroupPlacementEnv(copy.deepcopy(coarse_small), cell_place_iters=1)
        assert environment_fingerprint(env) == "051bb5ee3abfdbaa"


# -- MCTS integration ---------------------------------------------------------
class TestMCTSIntegration:
    def _search(self, coarse, cache=None):
        env = make_env(coarse)
        net = PolicyValueNet(
            NetworkConfig(zeta=4, channels=4, res_blocks=1, seed=0)
        )
        placer = MCTSPlacer(
            env, net, REWARD, MCTSConfig(explorations=8, seed=0),
            terminal_cache=cache,
        )
        return placer.run(), placer

    def test_persisted_cache_skips_all_terminal_evaluations(
        self, coarse_small, tmp_path
    ):
        path = str(tmp_path / "terminal_cache.jsonl")
        env = make_env(coarse_small)
        fp = environment_fingerprint(env)
        first, _ = self._search(
            coarse_small, cache=TerminalCache(fp, path=path)
        )
        assert first.n_terminal_evaluations > 0
        second, _ = self._search(
            coarse_small, cache=TerminalCache(fp, path=path)
        )
        # the deterministic re-run revisits exactly the same assignments —
        # every terminal evaluation is served from the persisted file
        assert second.n_terminal_evaluations == 0
        assert second.n_terminal_cache_hits > 0
        assert second.assignment == first.assignment
        assert second.wirelength == first.wirelength


# -- satellite: the transposition-keyed evaluation cache ----------------------
class TestEvalCacheTranspositions:
    def test_same_state_different_prefix_shares_entry(self, coarse_small):
        """A cache keyed on the action prefix never shares an entry between
        two tree positions holding the same state.  Keyed on the canonical
        state content, the second expansion is a hit."""
        env = make_env(coarse_small)
        net = PolicyValueNet(
            NetworkConfig(zeta=4, channels=4, res_blocks=1, seed=0)
        )
        placer = MCTSPlacer(env, net, REWARD, MCTSConfig(explorations=2))
        builder = StateBuilder(env.coarse)
        value_a = placer._expand(TreeNode(depth=0), builder, [])
        assert placer.n_eval_cache_hits == 0
        value_b = placer._expand(TreeNode(depth=0), builder, [7])
        assert placer.n_eval_cache_hits == 1
        assert value_a == value_b

    def test_state_key_is_content_not_identity(self, coarse_small):
        env = make_env(coarse_small)
        builder = StateBuilder(env.coarse)
        a, b = builder.observe(), builder.clone().observe()
        assert a is not b
        assert _state_key(a) == _state_key(b)

# -- satellite: vectorized pairwise overlap -----------------------------------
class TestAnyPairwiseOverlap:
    @staticmethod
    def _loop_reference(nodes) -> bool:
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                if a.overlaps(b):
                    return True
        return False

    @staticmethod
    def _random_nodes(rng, n, span) -> list[Node]:
        return [
            Node(
                name=f"r{i}",
                width=float(rng.uniform(1, 6)),
                height=float(rng.uniform(1, 6)),
                x=float(rng.uniform(0, span)),
                y=float(rng.uniform(0, span)),
            )
            for i in range(n)
        ]

    @pytest.mark.parametrize("span", [15.0, 200.0])
    def test_matches_loop_reference(self, span):
        rng = np.random.default_rng(9)
        for _ in range(25):
            nodes = self._random_nodes(rng, 10, span)
            assert any_pairwise_overlap(nodes) == self._loop_reference(nodes)

    def test_edge_touching_is_not_overlap(self):
        a = Node(name="a", width=2.0, height=2.0, x=0.0, y=0.0)
        b = Node(name="b", width=2.0, height=2.0, x=2.0, y=0.0)  # abuts in x
        c = Node(name="c", width=2.0, height=2.0, x=0.0, y=2.0)  # abuts in y
        assert not a.overlaps(b) and not a.overlaps(c)
        assert not any_pairwise_overlap([a, b, c])

    def test_true_overlap_detected(self):
        a = Node(name="a", width=3.0, height=3.0, x=0.0, y=0.0)
        b = Node(name="b", width=3.0, height=3.0, x=2.0, y=2.0)
        assert any_pairwise_overlap([a, b])

    def test_degenerate_inputs(self):
        assert not any_pairwise_overlap([])
        assert not any_pairwise_overlap(
            [Node(name="a", width=1.0, height=1.0)]
        )

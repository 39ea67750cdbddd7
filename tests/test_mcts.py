"""MCTS tests: node/edge statistics (Eq. 10–12), the full search, and
the single placement of the committed assignment."""

import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.agent.network import NetworkConfig, PolicyValueNet
from repro.agent.reward import NormalizedReward
from repro.core import MCTSGuidedPlacer, PlacerConfig
from repro.core.config import apply_overrides
from repro.env.placement_env import MacroGroupPlacementEnv
from repro.eval.metrics import macro_overlap_area
from repro.mcts.node import Node
from repro.mcts.search import MCTSConfig, MCTSPlacer
from repro.netlist.suites import make_iccad04_circuit
from repro.runtime.errors import FaultInjected
from repro.runtime.faults import Fault, FaultPlan


def make_node(priors, visits=None, values=None) -> Node:
    n = len(priors)
    node = Node(depth=0)
    node.actions = np.arange(n, dtype=np.int64)
    node.prior = np.asarray(priors, dtype=float)
    node.visit = np.zeros(n) if visits is None else np.asarray(visits, dtype=float)
    node.total_value = (
        np.zeros(n) if values is None else np.asarray(values, dtype=float)
    )
    node.expanded = True
    return node


class TestNodeStatistics:
    def test_q_values_zero_when_unvisited(self):
        node = make_node([0.5, 0.5])
        np.testing.assert_allclose(node.q_values(), [0.0, 0.0])

    def test_q_is_mean_value(self):
        node = make_node([0.5, 0.5], visits=[2, 4], values=[1.0, 1.0])
        np.testing.assert_allclose(node.q_values(), [0.5, 0.25])

    def test_puct_prefers_prior_when_unvisited(self):
        node = make_node([0.9, 0.1], visits=[1, 1], values=[0.0, 0.0])
        scores = node.puct_scores(c=1.05)
        assert scores[0] > scores[1]

    def test_puct_u_term_decays_with_visits(self):
        """Eq. 11: heavily-visited edges lose exploration bonus."""
        node = make_node([0.5, 0.5], visits=[10, 1], values=[0.0, 0.0])
        scores = node.puct_scores(c=1.05)
        assert scores[1] > scores[0]

    def test_puct_q_dominates_when_c_small(self):
        node = make_node([0.1, 0.9], visits=[5, 5], values=[5.0, 0.0])
        assert node.select(c=1e-6)[0] == 0

    def test_record_implements_eq12(self):
        node = make_node([1.0])
        node.record(0, 0.8)
        node.record(0, 0.4)
        assert node.visit[0] == 2
        assert node.total_value[0] == pytest.approx(1.2)
        assert node.q_values()[0] == pytest.approx(0.6)

    def test_selection_statistics_not_pickled(self):
        """Search snapshots pickle the tree: the PUCT terms selection keeps
        on a node must not change its bytes."""
        import pickle

        def fresh():
            return make_node([0.2, 0.5, 0.3], visits=[1, 0, 2], values=[0.5, 0.0, 0.1])

        node, plain = fresh(), fresh()
        index, _, _ = node.select(1.05)
        plain.child_for(index)  # the child select creates, without its terms
        before = pickle.dumps(plain, protocol=pickle.HIGHEST_PROTOCOL)
        assert pickle.dumps(node, protocol=pickle.HIGHEST_PROTOCOL) == before
        node.record(1, 0.4)
        restored = pickle.loads(pickle.dumps(node))
        assert restored.puct_scores(1.05).tobytes() == node.puct_scores(1.05).tobytes()

    def test_child_for_creates_lazily(self):
        node = make_node([0.5, 0.5])
        child = node.child_for(1)
        assert child.depth == 1
        assert node.child_for(1) is child

    def test_most_visited_index(self):
        node = make_node([0.3, 0.3, 0.4], visits=[1, 5, 2])
        assert node.most_visited_index() == 1

    def test_most_visited_tie_broken_by_q(self):
        node = make_node([0.5, 0.5], visits=[3, 3], values=[0.3, 0.9])
        assert node.most_visited_index() == 1


class TestMCTSSearch:
    @pytest.fixture
    def setup(self, coarse_small):
        env = MacroGroupPlacementEnv(coarse_small, cell_place_iters=1)
        net = PolicyValueNet(NetworkConfig(zeta=4, channels=4, res_blocks=1, seed=0))
        reward_fn = NormalizedReward(
            w_max=2000.0, w_min=500.0, w_avg=1200.0, alpha=0.75
        )
        return env, net, reward_fn

    def test_search_produces_full_assignment(self, setup):
        env, net, reward_fn = setup
        placer = MCTSPlacer(env, net, reward_fn, MCTSConfig(explorations=4))
        result = placer.run()
        assert len(result.assignment) == env.n_steps
        assert all(0 <= a < env.n_actions for a in result.assignment)

    def test_search_result_is_legal(self, setup):
        env, net, reward_fn = setup
        result = MCTSPlacer(env, net, reward_fn, MCTSConfig(explorations=4)).run()
        # run() need not leave the design at the committed coordinates
        env.evaluate_assignment(result.assignment)
        assert macro_overlap_area(env.coarse.design) < 1e-9

    def test_reward_consistent_with_wirelength(self, setup):
        env, net, reward_fn = setup
        result = MCTSPlacer(env, net, reward_fn, MCTSConfig(explorations=4)).run()
        assert result.reward == pytest.approx(reward_fn(result.wirelength))

    def test_deterministic_given_seed(self, setup):
        import copy

        env, net, reward_fn = setup
        r1 = MCTSPlacer(env, net, reward_fn, MCTSConfig(explorations=4, seed=3)).run()
        env2 = MacroGroupPlacementEnv(
            copy.deepcopy(env.coarse), cell_place_iters=1
        )
        r2 = MCTSPlacer(env2, net, reward_fn, MCTSConfig(explorations=4, seed=3)).run()
        assert r1.assignment == r2.assignment

    def test_terminal_cache_hit(self, setup):
        env, net, reward_fn = setup
        placer = MCTSPlacer(env, net, reward_fn, MCTSConfig(explorations=4))
        v1 = placer._terminal_value([0] * env.n_steps)
        count = placer.n_terminal_evaluations
        v2 = placer._terminal_value([0] * env.n_steps)
        assert v1 == v2
        assert placer.n_terminal_evaluations == count

    def test_network_evaluations_counted(self, setup):
        env, net, reward_fn = setup
        result = MCTSPlacer(env, net, reward_fn, MCTSConfig(explorations=4)).run()
        assert result.n_network_evaluations > 0

    def test_more_explorations_not_worse_on_average(self, setup):
        """With a bigger γ budget the committed result should not degrade
        (statistical: compared via best-terminal tracking)."""
        import copy

        env, net, reward_fn = setup
        small = MCTSPlacer(env, net, reward_fn, MCTSConfig(explorations=2, seed=0)).run()
        env2 = MacroGroupPlacementEnv(copy.deepcopy(env.coarse), cell_place_iters=1)
        big = MCTSPlacer(env2, net, reward_fn, MCTSConfig(explorations=16, seed=0)).run()
        assert (
            min(big.wirelength, big.best_terminal_wirelength)
            <= min(small.wirelength, small.best_terminal_wirelength) * 1.2
        )

    def test_best_terminal_tracked(self, setup):
        env, net, reward_fn = setup
        result = MCTSPlacer(env, net, reward_fn, MCTSConfig(explorations=8)).run()
        assert result.best_terminal_assignment is not None
        assert result.best_terminal_wirelength <= result.wirelength + 1e-9

    def test_root_noise_changes_priors(self, setup):
        env, net, reward_fn = setup
        cfg = MCTSConfig(explorations=2, root_noise_frac=0.5, seed=1)
        placer = MCTSPlacer(env, net, reward_fn, cfg)
        result = placer.run()
        assert len(result.assignment) == env.n_steps

    def test_zero_steps_design(self):
        """A design with no movable macros yields an empty search."""
        from repro.coarsen import coarsen_design
        from repro.grid.plan import GridPlan
        from repro.netlist.model import (
            Cell,
            Design,
            IOPad,
            Net,
            Netlist,
            Pin,
            PlacementRegion,
        )

        nl = Netlist("nomacro")
        nl.add_node(Cell("c0", 2, 1, x=5, y=5))
        nl.add_node(Cell("c1", 2, 1, x=15, y=15))
        nl.add_node(IOPad("p0", 1, 1, x=-1, y=0))
        nl.add_net(Net("n0", pins=[Pin("c0"), Pin("c1")]))
        nl.add_net(Net("n1", pins=[Pin("c1"), Pin("p0")]))
        design = Design(netlist=nl, region=PlacementRegion(0, 0, 40, 40))
        coarse = coarsen_design(design, GridPlan(design.region, zeta=4))
        assert coarse.n_macro_groups == 0
        env = MacroGroupPlacementEnv(coarse, cell_place_iters=1)
        net = PolicyValueNet(NetworkConfig(zeta=4, channels=4, res_blocks=1))
        reward_fn = NormalizedReward(w_max=2.0, w_min=1.0, w_avg=1.5)
        result = MCTSPlacer(env, net, reward_fn, MCTSConfig(explorations=2)).run()
        assert result.assignment == []


@pytest.fixture
def evaluations(monkeypatch):
    """Every ``evaluate_assignment`` call as (calling function, assignment):
    ``_evaluate_exact`` is the search's own evaluation of a leaf, ``run``
    the search's evaluation of a committed leaf it holds no result for,
    and ``_run`` the flow's ``final`` stage."""
    calls = []
    original = MacroGroupPlacementEnv.evaluate_assignment

    def recorded(env, assignment):
        caller = sys._getframe(1).f_code.co_name
        calls.append((caller, tuple(int(a) for a in assignment)))
        return original(env, assignment)

    monkeypatch.setattr(MacroGroupPlacementEnv, "evaluate_assignment", recorded)
    return calls


def _callers(calls, assignment) -> list[str]:
    key = tuple(assignment)
    return [caller for caller, evaluated in calls if evaluated == key]


def _ibm01(scale: float = 0.004, macro_scale: float = 0.04):
    return make_iccad04_circuit("ibm01", scale=scale, macro_scale=macro_scale).design


def _degradations(run_dir) -> list[dict]:
    """The run dir's logged ``degradation`` records, without timestamps."""
    with open(f"{run_dir}/events.jsonl") as f:
        records = [json.loads(line) for line in f if line.strip()]
    return [
        {k: v for k, v in r.items() if k != "ts"}
        for r in records if r.get("event") == "degradation"
    ]


class TestCommittedAssignmentPlacedOnce:
    """The search takes the committed wirelength from the exact result it
    already holds, and the ``final`` stage is the one placement of the
    committed assignment."""

    def test_a_flow_places_it_in_final_only(self, tmp_path, evaluations):
        cfg = PlacerConfig.fast(seed=3)
        result = MCTSGuidedPlacer(cfg).place(_ibm01(), run_dir=str(tmp_path / "run"))
        assert result.search.n_exact_evaluations >= 1
        assert _callers(evaluations, result.assignment) == ["_evaluate_exact", "_run"]
        assert result.search.wirelength.hex() == result.hpwl.hex()

    def test_without_exact_results_the_search_evaluates_it_once(self, evaluations):
        cfg = replace(PlacerConfig.fast(seed=3), exact_topk=0)
        result = MCTSGuidedPlacer(cfg).place(_ibm01())
        assert result.search.n_exact_evaluations == 0
        assert _callers(evaluations, result.assignment) == ["run", "_run"]
        assert result.search.wirelength.hex() == result.hpwl.hex()

    def test_a_resume_after_mcts_places_it_once(self, tmp_path, monkeypatch):
        d = str(tmp_path / "run")
        cfg = PlacerConfig.fast(seed=3)
        want = MCTSGuidedPlacer(cfg).place(_ibm01(), run_dir=str(tmp_path / "ref"))

        calls = []
        original = MacroGroupPlacementEnv.evaluate_assignment

        def dies_in_final(env, assignment):
            if sys._getframe(1).f_code.co_name == "_run":
                raise FaultInjected("killed in final", stage="final")
            return original(env, assignment)

        monkeypatch.setattr(MacroGroupPlacementEnv, "evaluate_assignment", dies_in_final)
        with pytest.raises(FaultInjected):
            MCTSGuidedPlacer(cfg).place(_ibm01(), run_dir=d)

        def recorded(env, assignment):
            calls.append((sys._getframe(1).f_code.co_name, tuple(assignment)))
            return original(env, assignment)

        monkeypatch.setattr(MacroGroupPlacementEnv, "evaluate_assignment", recorded)
        got = MCTSGuidedPlacer(cfg).place(_ibm01(), run_dir=d, resume=True)
        assert "mcts" in {e.stage for e in got.events.of("stage_skipped")}
        assert _callers(calls, got.assignment) == ["_run"]
        assert len(calls) == 1
        assert got.assignment == want.assignment
        assert got.hpwl.hex() == want.hpwl.hex() == got.search.wirelength.hex()

    def test_a_resume_mid_mcts_logs_what_an_uninterrupted_run_logs(
        self, tmp_path, evaluations
    ):
        """On this search the committed leaf is valued at step 1 and the
        kill comes at the start of step 3: the resumed search finds the
        leaf's result in its snapshot instead of placing it again."""
        cfg = apply_overrides(PlacerConfig.benchmark(seed=3), {
            "episodes": 20, "calibration_episodes": 8, "mcts.explorations": 60,
            "mcts.root_noise_frac": 0.25, "mcts.seed": 104,
        })
        design = lambda: _ibm01(0.01, 0.08)  # noqa: E731 -- LP fallbacks
        ref = str(tmp_path / "ref")
        want = MCTSGuidedPlacer(cfg).place(design(), run_dir=ref)
        assert _callers(evaluations, want.assignment) == ["_evaluate_exact", "_run"]
        assert _degradations(ref)

        d = str(tmp_path / "run")
        with pytest.raises(FaultInjected):
            MCTSGuidedPlacer(cfg).place(
                design(), run_dir=d, faults=FaultPlan(Fault("mcts.kill", at=4))
            )
        evaluations.clear()
        got = MCTSGuidedPlacer(cfg).place(design(), run_dir=d, resume=True)
        assert got.events.of("resume")[0].data["step"] == 2
        assert _callers(evaluations, got.assignment) == ["_run"]
        assert got.hpwl.hex() == want.hpwl.hex()
        assert _degradations(d) == _degradations(ref)


class TestSearchClocks:
    def test_the_clocks_cover_the_stage(self, tmp_path):
        """The search's five clocks account for its stage: the input states
        and new edges count as evaluation, the per-commit snapshots as
        checkpoint.  search.json still holds no wall-clock field."""
        cfg = apply_overrides(PlacerConfig.fast(seed=3), {"mcts.explorations": 24})
        run = tmp_path / "run"
        result = MCTSGuidedPlacer(cfg).place(_ibm01(0.01, 0.08), run_dir=str(run))
        search = result.search
        clocks = (
            search.seconds_selection + search.seconds_evaluation
            + search.seconds_terminal + search.seconds_surrogate
            + search.seconds_checkpoint
        )
        assert search.seconds_checkpoint > 0.0
        assert clocks >= 0.9 * result.stage_seconds["mcts"]
        stats = result.events.of("search_stats")[-1].data
        assert stats["seconds_checkpoint"] == round(search.seconds_checkpoint, 6)
        with open(run / "search.json") as f:
            assert not [key for key in json.load(f) if "seconds" in key]

    def test_input_states_count_as_evaluation(self, monkeypatch):
        """Each expansion's ``builder.observe()`` runs on the evaluation
        clock, whether the network or its cache answers."""
        import time

        from repro.agent.state import StateBuilder

        observe = StateBuilder.observe

        def slow_observe(builder):
            time.sleep(0.002)
            return observe(builder)

        monkeypatch.setattr(StateBuilder, "observe", slow_observe)
        search = MCTSGuidedPlacer(PlacerConfig.fast(seed=3)).place(_ibm01()).search
        expansions = search.n_network_evaluations + search.n_eval_cache_hits
        assert expansions > 0
        assert search.seconds_evaluation >= 0.002 * expansions

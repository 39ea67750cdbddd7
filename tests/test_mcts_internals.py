"""White-box MCTS tests: backpropagation to root, tree reuse, priors."""

import pickle

import numpy as np
import pytest

from repro.agent.network import NetworkConfig, PolicyValueNet
from repro.agent.reward import NormalizedReward
from repro.env.placement_env import MacroGroupPlacementEnv
from repro.mcts.node import Node
from repro.mcts.search import MCTSConfig, MCTSPlacer
from repro.parallel import TerminalCache
from repro.runtime.errors import FaultInjected
from repro.runtime.faults import Fault, FaultPlan, inject


@pytest.fixture
def placer(coarse_small):
    env = MacroGroupPlacementEnv(coarse_small, cell_place_iters=1)
    net = PolicyValueNet(NetworkConfig(zeta=4, channels=4, res_blocks=1, seed=0))
    reward_fn = NormalizedReward(w_max=2000.0, w_min=500.0, w_avg=1200.0)
    return MCTSPlacer(env, net, reward_fn, MCTSConfig(explorations=6, seed=0))


class TestBackpropagationToRoot:
    def test_root_visits_grow_across_committed_steps(self, placer):
        """The paper's Fig. 3 shows values propagating to s_0 even when the
        target node is deep — root edge visits must keep increasing."""
        from repro.agent.state import StateBuilder

        env = placer.env
        root = Node(depth=0)
        builder = StateBuilder(env.coarse)
        placer._expand(root, builder, [])

        committed = []
        committed_path = []
        current = root

        # Step 0 explorations: root visits accumulate.
        for _ in range(4):
            placer._explore(root, committed, committed_path, current)
        visits_after_step0 = root.visit.sum()
        assert visits_after_step0 == 4

        idx = current.most_visited_index()
        committed_path.append((current, idx))
        committed.append(int(current.actions[idx]))
        current = current.child_for(idx)

        # Step 1 explorations from the committed child: each one must also
        # bump the root's committed edge (backprop to s_0).
        b = StateBuilder(env.coarse)
        for a in committed:
            b.apply(a)
        placer._expand(current, b, list(committed))
        for _ in range(3):
            placer._explore(root, committed, committed_path, current)
        assert root.visit.sum() == visits_after_step0 + 3

    def test_explored_values_accumulate_on_path(self, placer):
        from repro.agent.state import StateBuilder

        env = placer.env
        root = Node(depth=0)
        builder = StateBuilder(env.coarse)
        placer._expand(root, builder, [])
        for _ in range(5):
            placer._explore(root, [], [], root)
        assert root.visit.sum() == 5
        # W on visited edges is a sum of leaf values → Q is their mean.
        visited = root.visit > 0
        q = root.q_values()
        assert np.isfinite(q[visited]).all()


class TestPriors:
    def test_expansion_priors_normalized(self, placer):
        from repro.agent.state import StateBuilder

        root = Node(depth=0)
        builder = StateBuilder(placer.env.coarse)
        placer._expand(root, builder, [])
        assert root.prior.sum() == pytest.approx(1.0)
        assert (root.prior >= 0).all()
        assert len(root.actions) == len(root.prior)

    def test_actions_are_valid_anchors(self, placer):
        from repro.agent.state import StateBuilder

        root = Node(depth=0)
        builder = StateBuilder(placer.env.coarse)
        state = builder.observe()
        placer._expand(root, builder, [])
        mask = state.action_mask
        for a in root.actions:
            assert mask[a] > 0


class TestEvalDeterminism:
    def test_network_eval_is_batch_independent(self):
        """Eval-mode BN uses running stats: the same state must score the
        same whether evaluated alone or within any batch."""
        net = PolicyValueNet(NetworkConfig(zeta=4, channels=4, res_blocks=1, seed=0))
        rng = np.random.default_rng(0)
        # Populate BN running stats.
        net.train(True)
        net.forward(rng.random((8, 3, 4, 4)))
        net.eval()
        x1 = rng.random((1, 3, 4, 4))
        x2 = np.concatenate([x1, rng.random((3, 3, 4, 4))])
        logits_alone, v_alone = net.forward(x1)
        logits_batch, v_batch = net.forward(x2)
        np.testing.assert_allclose(logits_alone[0], logits_batch[0], rtol=1e-12)
        np.testing.assert_allclose(v_alone[0], v_batch[0], rtol=1e-12)

    def test_repeated_evaluate_identical(self):
        net = PolicyValueNet(NetworkConfig(zeta=4, channels=4, res_blocks=1, seed=0))
        s_p = np.random.default_rng(1).random((4, 4))
        s_a = np.ones((4, 4))
        p1, v1 = net.evaluate(s_p, s_a, 1, 5)
        p2, v2 = net.evaluate(s_p, s_a, 1, 5)
        np.testing.assert_allclose(p1, p2)
        assert v1 == v2


class TestPrincipalVariation:
    def test_pv_matches_committed_assignment(self, placer):
        from repro.mcts.search import principal_variation

        result = placer.run()
        pv = principal_variation(placer.last_root)
        assert pv == result.assignment

    def test_pv_of_unexpanded_root_is_empty(self):
        from repro.mcts.node import Node
        from repro.mcts.search import principal_variation

        assert principal_variation(Node(depth=0)) == []

    def test_pv_respects_max_depth(self, placer):
        from repro.mcts.search import principal_variation

        placer.run()
        pv = principal_variation(placer.last_root, max_depth=2)
        assert len(pv) <= 2


def _reference_explore(placer, root, committed, path_to_target, target,
                       prefix_builder=None):
    """The descent that replays the builder before it knows the leaf and
    scores every level from the edge arrays with Eq. 10–11."""
    from repro.agent.state import StateBuilder

    if prefix_builder is not None:
        builder = prefix_builder.clone()
    else:
        builder = StateBuilder(placer.env.coarse)
        for a in committed:
            builder.apply(a)
    c = placer.config.c_puct
    path = list(path_to_target)
    node = target
    actions_taken = list(committed)
    while node.expanded and not node.terminal:
        n = node.visit
        with np.errstate(invalid="ignore", divide="ignore"):
            q = np.where(n > 0, node.total_value / np.maximum(n, 1), 0.0)
        scores = q + c * node.prior * np.sqrt(max(n.sum(), 1e-12)) / (1.0 + n)
        idx = int(np.argmax(scores))
        path.append((node, idx))
        actions_taken.append(int(node.actions[idx]))
        builder.apply(int(node.actions[idx]))
        node = node.child_for(idx)
    if builder.done():
        node.terminal = True
        if node.terminal_value is None:
            node.terminal_value = placer._terminal_value(actions_taken)
        value = node.terminal_value
    else:
        value = placer._expand(node, builder, actions_taken)
    for parent, idx in path:
        parent.record(idx, value)


def _tree_bytes(node):
    """Every node's edge statistics and terminal value, depth first."""
    out = [node.visit.tobytes(), node.total_value.tobytes(), node.prior.tobytes(),
           repr(node.terminal_value)]
    for action in sorted(node.children):
        out.extend(_tree_bytes(node.children[action]))
    return out


class TestValuedTerminalDescent:
    """A descent that ends at a terminal node with a value reads the value
    off the node: no builder is cloned or replayed for it."""

    def test_descent_to_valued_terminal_clones_no_builder(self, placer, monkeypatch):
        from repro.agent.state import StateBuilder

        env = placer.env
        root = Node(depth=0)
        prefix = StateBuilder(env.coarse)
        placer._expand(root, prefix, [])
        committed, committed_path, current = [], [], root
        for _ in range(env.n_steps - 1):  # commit down to the last group
            idx = int(np.argmax(current.prior))
            committed_path.append((current, idx))
            committed.append(int(current.actions[idx]))
            prefix.apply(committed[-1])
            current = current.child_for(idx)
            placer._expand(current, prefix.clone(), list(committed))

        clones = []
        clone = StateBuilder.clone
        monkeypatch.setattr(
            StateBuilder, "clone", lambda self: clones.append(1) or clone(self)
        )
        first = len(current.actions) + 3
        for _ in range(first):
            placer._explore(root, committed, committed_path, current, prefix)
        # one clone per terminal child, on the visit that values it
        assert len(clones) == len(current.children) < first
        assert all(child.terminal_value is not None
                   for child in current.children.values())
        clones.clear()
        visits = current.visit.sum()
        for _ in range(5):
            placer._explore(root, committed, committed_path, current, prefix)
        assert clones == []
        assert current.visit.sum() == visits + 5

    def test_search_matches_replaying_descent(self, coarse_small, monkeypatch):
        """Trees, committed paths, wirelength bits and every count equal the
        descent that always replays and rescores each level from the edge
        arrays: plain, with root noise, and with the tier-1 gate.  The
        reward puts this design's terminals below the 0 of an unvisited
        edge, so the descents branch and reach many leaves."""

        def run(knobs, explore=None):
            env = MacroGroupPlacementEnv(coarse_small, cell_place_iters=1)
            net = PolicyValueNet(NetworkConfig(zeta=4, channels=4, res_blocks=1, seed=0))
            reward_fn = NormalizedReward(w_max=450.0, w_min=350.0, w_avg=400.0)
            config = MCTSConfig(explorations=24, seed=0, **knobs)
            placer = MCTSPlacer(env, net, reward_fn, config)
            if explore is not None:
                monkeypatch.setattr(
                    placer, "_explore",
                    lambda *args, **kwargs: explore(placer, *args, **kwargs),
                )
            result = placer.run()
            return _outcome(placer, result) + (
                result.n_surrogate_evaluations, result.surrogate_spearman,
            )

        for knobs in ({}, {"root_noise_frac": 0.25}, {"exact_topk": 4}):
            got = run(knobs)
            want = run(knobs, _reference_explore)
            assert got == want, knobs
            n_exact, n_scored = got[9], got[-2]
            assert n_exact >= 8, knobs
            if "exact_topk" in knobs:  # the gate pruned some leaves
                assert n_exact < n_scored


def _search(coarse, **kwargs):
    env = MacroGroupPlacementEnv(coarse, cell_place_iters=1)
    net = PolicyValueNet(NetworkConfig(zeta=4, channels=4, res_blocks=1, seed=0))
    reward_fn = NormalizedReward(w_max=2000.0, w_min=500.0, w_avg=1200.0)
    config = MCTSConfig(explorations=12, seed=0, root_noise_frac=0.25)
    return MCTSPlacer(env, net, reward_fn, config, **kwargs)


def _outcome(placer, result):
    """Everything a search decides and counts, and its final tree."""
    return (
        result.assignment, result.path, float(result.wirelength).hex(),
        result.best_terminal_assignment, result.best_terminal_wirelength,
        result.n_terminal_evaluations, result.n_network_evaluations,
        result.n_eval_cache_hits, result.n_terminal_cache_hits,
        result.n_exact_evaluations, _tree_bytes(placer.last_root),
    )


class TestCommitsDropUnreachableState:
    """A commit keeps only the committed child of its decision node and
    the eval-cache entries at least as deep as that child."""

    def _killed_at(self, coarse, k, monkeypatch=None):
        """Snapshots of a search killed at the start of step *k*."""
        snaps = []
        placer = _search(coarse, on_commit=lambda s: snaps.append(pickle.dumps(s)))
        if monkeypatch is not None:  # the snapshot format before the pruning
            monkeypatch.setattr(placer, "_drop_unreachable", lambda *args: None)
        with inject(FaultPlan(Fault("mcts.kill", at=k + 1))):
            with pytest.raises(FaultInjected):
                placer.run()
        assert len(snaps) == k
        return pickle.loads(snaps[-1])

    def test_a_snapshot_holds_one_child_per_decision_node(self, coarse_small):
        snaps = []
        placer = _search(
            coarse_small, on_commit=lambda s: snaps.append(pickle.dumps(s))
        )
        result = placer.run()
        assert len(snaps) == len(result.assignment) >= 3
        for k, blob in enumerate(snaps):
            state = pickle.loads(blob)
            node = state["root"]
            for action in state["committed"]:
                assert list(node.children) == [action]
                node = node.children[action]
            assert node.depth == k + 1
            assert all(t >= k + 1 for t, _ in state["eval_cache"])
        assert any(pickle.loads(b)["eval_cache"] for b in snaps[1:])

    @pytest.mark.parametrize("k", [1, 2])
    def test_kill_then_resume_equals_the_uninterrupted_search(
        self, coarse_small, k
    ):
        ref = _search(coarse_small)
        want = _outcome(ref, ref.run())
        resumed = _search(coarse_small)
        got = resumed.run(resume_state=self._killed_at(coarse_small, k))
        assert _outcome(resumed, got) == want

    def test_an_unpruned_snapshot_resumes_to_the_same_result(
        self, coarse_small, monkeypatch
    ):
        ref = _search(coarse_small)
        want = _outcome(ref, ref.run())
        state = self._killed_at(coarse_small, 2, monkeypatch)
        # siblings of the committed moves and entries above the current node
        assert len(state["root"].children) > 1
        assert min(t for t, _ in state["eval_cache"]) < 2
        resumed = _search(coarse_small)
        got = resumed.run(resume_state=state)
        # the same result; the resumed tree keeps the old siblings
        assert _outcome(resumed, got)[:-1] == want[:-1]


def _preloaded(n: int = 500) -> TerminalCache:
    """A shared terminal cache holding *n* results of other searches, under
    keys no search of this design reaches."""
    cache = TerminalCache("shared")
    for i in range(n):
        cache.put((-1, i), 1000.0 + i)
    return cache


class TestSnapshotsCarryTheSearchsOwnResults:
    """A search handed a shared terminal cache snapshots only the terminal
    results it evaluated itself, not every entry the cache holds."""

    def test_a_snapshot_holds_no_foreign_entry(self, coarse_small):
        snaps = []
        cache = _preloaded()
        placer = _search(
            coarse_small, terminal_cache=cache,
            on_commit=lambda s: snaps.append(pickle.dumps(s)),
        )
        result = placer.run()
        seen: dict = {}
        for blob in snaps:
            own = pickle.loads(blob)["terminal_wirelengths"]
            assert not [key for key in own if key[0] == -1]
            assert own.items() >= seen.items()  # grows, never forgets
            seen = own
        assert len(seen) == result.n_exact_evaluations >= 1
        assert all(cache.get(key) == wl for key, wl in seen.items())

    @pytest.mark.parametrize("k", [1, 2])
    def test_kill_then_resume_equals_the_uninterrupted_search(
        self, coarse_small, k
    ):
        ref = _search(coarse_small, terminal_cache=_preloaded())
        want = _outcome(ref, ref.run())
        snaps = []
        killed = _search(
            coarse_small, terminal_cache=_preloaded(),
            on_commit=lambda s: snaps.append(pickle.dumps(s)),
        )
        with inject(FaultPlan(Fault("mcts.kill", at=k + 1))):
            with pytest.raises(FaultInjected):
                killed.run()
        assert len(snaps) == k
        resumed = _search(coarse_small, terminal_cache=_preloaded())
        got = resumed.run(resume_state=pickle.loads(snaps[-1]))
        assert _outcome(resumed, got) == want


def _node(prior_dtype) -> Node:
    node = Node(depth=2, expanded=True)
    node.actions = np.array([3, 7, 11], dtype=np.int64)
    node.prior = np.array([0.5, 0.3, 0.2], dtype=prior_dtype)
    node.visit = np.array([2.0, 0.0, 1.0])
    node.total_value = np.array([0.75, 0.0, -0.5])
    node.children = {7: Node(depth=3, terminal=True, terminal_value=0.5)}
    return node


def _same_node(got: Node, want: Node) -> None:
    for name in ("actions", "prior", "visit", "total_value"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert (got.depth, got.expanded, got.terminal, got.terminal_value) == (
        want.depth, want.expanded, want.terminal, want.terminal_value
    )
    assert sorted(got.children) == sorted(want.children)
    for action, child in want.children.items():
        _same_node(got.children[action], child)


class TestNodePickling:
    """A node pickles its edge arrays as ``(dtype.str, bytes)`` pairs."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_keeps_every_dtype_and_bit(self, dtype):
        node = _node(dtype)
        node.select(1.05)  # derived terms: never pickled
        back = pickle.loads(pickle.dumps(node, protocol=pickle.HIGHEST_PROTOCOL))
        _same_node(back, node)
        assert back._stats is None
        assert back.select(1.05)[:2] == node.select(1.05)[:2]
        back.record(1, 0.25)  # the restored edge arrays are writable
        assert back.visit[1] == 1.0 and back.total_value[1] == 0.25

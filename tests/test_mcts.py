"""MCTS tests: node/edge statistics (Eq. 10–12) and the full search."""

import numpy as np
import pytest

from repro.agent.network import NetworkConfig, PolicyValueNet
from repro.agent.reward import NormalizedReward
from repro.env.placement_env import MacroGroupPlacementEnv
from repro.eval.metrics import macro_overlap_area
from repro.mcts.node import Node
from repro.mcts.search import MCTSConfig, MCTSPlacer


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
        assert node.select_child_index(c=1e-6) == 0

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

        node = make_node([0.2, 0.5, 0.3], visits=[1, 0, 2], values=[0.5, 0.0, 0.1])
        before = pickle.dumps(node, protocol=pickle.HIGHEST_PROTOCOL)
        node.select_child_index(1.05)
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
        MCTSPlacer(env, net, reward_fn, MCTSConfig(explorations=4)).run()
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

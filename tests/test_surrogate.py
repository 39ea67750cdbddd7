"""Two-tier terminal evaluation tests.

Three contracts are locked in here:

- the surrogate's scores are pinned to recorded floats, and it ranks
  exact HPWL well enough to prune on (Spearman >= 0.9 on a cell-heavy
  design);
- ``exact_topk=None`` (and measure-only mode, surrogate attached but no
  pruning) reproduces the single-tier search bit-for-bit;
- whatever K prunes, the *reported* results stay exact: the committed
  wirelength and ``best_terminal_wirelength`` always re-derive from the
  real legalize-and-place pipeline.

Plus the legalizer's equivalence gate: one reused over many calls, with
its compiled state and region memo, must give a fresh one's positions
and event records bitwise.
"""

import copy
import math

import numpy as np
import pytest

from repro.agent.network import NetworkConfig, PolicyValueNet
from repro.agent.reward import NormalizedReward
from repro.coarsen import coarsen_design
from repro.coarsen.coarse import CoarseNet
from repro.env.placement_env import MacroGroupPlacementEnv
from repro.gp.mixed_size import MixedSizePlacer
from repro.grid.plan import GridPlan
from repro.legalize.pipeline import MacroLegalizer, span_rect
from repro.mcts.search import MCTSConfig, MCTSPlacer
from repro.netlist.generator import GeneratorSpec, generate_design
from repro.surrogate import GroupCentroidSurrogate, SurrogateCalibration, spearman
from tests.legalize_oracles import event_records


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == pytest.approx(1.0)

    def test_perfect_inversion(self):
        assert spearman([1.0, 2.0, 3.0], [5.0, 4.0, 3.0]) == pytest.approx(-1.0)

    def test_monotone_nonlinear_is_still_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, [v**3 for v in x]) == pytest.approx(1.0)

    def test_ties_use_average_ranks(self):
        # [1, 2, 2, 3] vs [1, 2, 2, 3]: ties on both sides, still rho=1.
        assert spearman([1, 2, 2, 3], [10, 20, 20, 30]) == pytest.approx(1.0)

    def test_degenerate_inputs_are_nan(self):
        assert math.isnan(spearman([1.0], [2.0]))
        assert math.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
        assert math.isnan(spearman([1.0, 2.0], [1.0, 2.0, 3.0]))


class TestSurrogateCalibration:
    def test_empty_is_identity(self):
        assert SurrogateCalibration().predict(123.5) == 123.5

    def test_single_pair_uses_ratio(self):
        cal = SurrogateCalibration()
        cal.observe(10.0, 30.0)
        assert cal.predict(20.0) == pytest.approx(60.0)

    def test_least_squares_recovers_linear_map(self):
        cal = SurrogateCalibration()
        for s in [1.0, 2.0, 5.0, 9.0]:
            cal.observe(s, 3.0 * s + 7.0)
        assert cal.predict(4.0) == pytest.approx(19.0)

    def test_zero_variance_falls_back_to_ratio(self):
        cal = SurrogateCalibration()
        cal.observe(10.0, 20.0)
        cal.observe(10.0, 40.0)
        assert cal.predict(10.0) == pytest.approx(30.0)

    def test_pair_replay_is_bit_identical(self):
        cal = SurrogateCalibration()
        rng = np.random.default_rng(3)
        for s, e in rng.random((17, 2)):
            cal.observe(float(s * 100), float(e * 100 + 50))
        clone = SurrogateCalibration.from_pairs(cal.export_pairs())
        for probe in [0.0, 13.7, 91.2]:
            assert clone.predict(probe) == cal.predict(probe)
        assert clone.fidelity() == cal.fidelity()


class TestGroupCentroidSurrogate:
    #: (assignment, score) on ``coarse_small``, recorded from the
    #: prefix-stack scorer's from-scratch reference before it was deleted
    PINNED_SCORES = [
        ([3, 10, 1, 3], 385.31716146862044),
        ([5, 4, 14, 12], 461.80057164816725),
        ([14, 15, 1, 2], 490.89225199580824),
        ([13, 1, 2, 2], 382.0246674381817),
        ([14, 5, 4, 2], 369.950845037661),
        ([7, 9, 12, 9], 335.6701644795163),
        ([15, 1, 7, 9], 446.16007106071834),
        ([11, 0, 3, 7], 497.19963838994613),
        ([1, 15, 10, 12], 518.5083819521642),
        ([8, 9, 5, 5], 291.29524028158033),
        ([2, 3, 12, 7], 447.83072990619405),
        ([13, 4, 11, 13], 459.69794394273623),
        ([13, 3, 5, 4], 490.11433394797086),
        ([12, 12, 7, 4], 495.6160745754748),
        ([1, 4, 2, 1], 371.57050157466307),
        ([12, 7, 15, 4], 499.0680000065267),
        ([6, 14, 9, 4], 448.13556293646445),
        ([5, 12, 5, 7], 498.69204202713),
        ([7, 7, 7, 15], 344.97433857924875),
        ([3, 14, 3, 1], 466.1778080102998),
    ]

    def test_scores_are_pinned(self, coarse_small):
        """Exact float equality with the recorded scores, in any order."""
        sur = GroupCentroidSurrogate(coarse_small)
        pinned = self.PINNED_SCORES
        for assignment, expected in pinned + pinned[::-1]:
            assert sur.score(assignment) == expected, assignment

    def test_fidelity_floor(self):
        """The surrogate must rank exact HPWL (Spearman >= 0.9) on a
        cell-heavy design, where the exact pipeline dominates the cost."""
        design = generate_design(
            GeneratorSpec(
                name="fidelity",
                n_movable_macros=12,
                n_pads=12,
                n_cells=160,
                n_nets=220,
                hierarchy_depth=2,
                hierarchy_branching=2,
                seed=7,
            )
        )
        MixedSizePlacer(n_iterations=2).place(design)
        coarse = coarsen_design(design, GridPlan(design.region, zeta=8))
        env = MacroGroupPlacementEnv(coarse, cell_place_iters=1)
        sur = GroupCentroidSurrogate(env.coarse)
        rng = np.random.default_rng(11)
        assignments = [
            [int(a) for a in rng.integers(0, env.n_actions, env.n_steps)]
            for _ in range(40)
        ]
        surrogate = [sur.score(a) for a in assignments]
        exact = [env.evaluate_assignment(a) for a in assignments]
        assert spearman(surrogate, exact) >= 0.9

    def test_scoring_does_not_disturb_the_design(self, coarse_small):
        """Tier 1 must never leak coordinates into what tier 2 sees."""
        before = {
            node.name: (node.x, node.y) for node in coarse_small.design.netlist
        }
        sur = GroupCentroidSurrogate(coarse_small)
        rng = np.random.default_rng(1)
        for _ in range(5):
            sur.score(
                rng.integers(0, coarse_small.plan.n_grids, size=sur.n_macro_groups)
            )
        after = {
            node.name: (node.x, node.y) for node in coarse_small.design.netlist
        }
        assert after == before

    def test_rejects_incomplete_assignment(self, coarse_small):
        sur = GroupCentroidSurrogate(coarse_small)
        with pytest.raises(ValueError):
            sur.score([0] * (sur.n_macro_groups + 1))


def _flow_coarse(circuit: str, scale: float, macro_scale: float):
    """A suite circuit's coarse netlist as the benchmark preset builds it."""
    from repro.core.config import PlacerConfig
    from repro.service.jobs import resolve_design

    cfg = PlacerConfig.benchmark()
    _, design = resolve_design(
        circuit=circuit, aux=None, scale=scale, macro_scale=macro_scale
    )
    MixedSizePlacer(n_iterations=cfg.prototype_iterations).place(design)
    plan = GridPlan(design.region, zeta=cfg.zeta)
    return coarsen_design(design, plan, gamma=cfg.gamma_params, phi=cfg.phi_params)


def _reference_tables(coarse) -> tuple[np.ndarray, np.ndarray]:
    """The anchor tables through span_rect, one call per (group, anchor)."""
    n_mg, n_grids = coarse.n_macro_groups, coarse.plan.n_grids
    cx, cy = np.empty((n_mg, n_grids)), np.empty((n_mg, n_grids))
    for i in range(n_mg):
        for a in range(n_grids):
            rect = span_rect(coarse, i, a)
            cx[i, a], cy[i, a] = rect.cx, rect.cy
    return cx, cy


def _reference_score(sur, tables, assignment) -> float:
    """The per-net loop: each coarse net's weighted HPWL in net order, then
    one sum over them.  The compiled cell response is the surrogate's."""
    coarse = sur.coarse
    canonical = getattr(coarse, "_canonical", None)
    if canonical is not None:
        centers = [(cx, cy) for (cx, cy, _bbox) in canonical[1]]
    else:
        centers = [(g.cx, g.cy) for g in coarse.all_groups]
    gx = np.array([c[0] for c in centers], dtype=float)
    gy = np.array([c[1] for c in centers], dtype=float)
    for i, anchor in enumerate(assignment):
        gx[i], gy[i] = tables[0][i, anchor], tables[1][i, anchor]
    if sur.cell_response:
        gx[sur._cell_idx] = sur._M @ gx[sur._bound_idx] + sur._b0x
        gy[sur._cell_idx] = sur._M @ gy[sur._bound_idx] + sur._b0y
    out = np.empty(len(coarse.coarse_nets))
    for j, net in enumerate(coarse.coarse_nets):
        idx = np.asarray(net.groups, dtype=np.int64)
        xs, ys = gx[idx], gy[idx]
        weight = np.float64(net.weight)
        out[j] = float(weight * ((xs.max() - xs.min()) + (ys.max() - ys.min())))
    return float(out.sum())


class TestArrayScoring:
    """The array-built anchor tables and the segment-reduced score equal
    span_rect's tables and the per-net loop, byte for byte."""

    @pytest.fixture(params=["coarse_small", "ibm01-service", "cir1-place"])
    def coarse(self, request, coarse_small):
        if request.param == "coarse_small":
            return coarse_small
        if request.param == "ibm01-service":  # the service workload's design
            return _flow_coarse("ibm01", 0.01, 0.08)
        return _flow_coarse("Cir1", 0.002, 0.5)  # the place-cir1 design

    def test_tables_and_scores_equal_the_loops(self, coarse):
        sur = GroupCentroidSurrogate(coarse)
        tables = _reference_tables(coarse)
        assert sur._anchor_cx.tobytes() == tables[0].tobytes()
        assert sur._anchor_cy.tobytes() == tables[1].tobytes()
        rng = np.random.default_rng(5)
        n_grids = coarse.plan.n_grids
        for _ in range(300):
            assignment = [int(a) for a in rng.integers(0, n_grids, sur.n_macro_groups)]
            want = _reference_score(sur, tables, assignment)
            assert sur.score(assignment).hex() == want.hex(), assignment

    @pytest.mark.parametrize("where", [0, 3, -1])
    def test_a_net_with_no_group_raises(self, coarse_small, where):
        nets = coarse_small.coarse_nets
        nets.insert(where if where >= 0 else len(nets), CoarseNet(groups=(), weight=1.0))
        sur = GroupCentroidSurrogate(coarse_small)
        with pytest.raises(ValueError):
            sur.score([0] * sur.n_macro_groups)


def _complete_assignments(coarse, n: int, seed: int) -> list[list[int]]:
    """*n* random legal assignments of every macro group."""
    from repro.agent.state import StateBuilder

    rng = np.random.default_rng(seed)
    leaves = []
    for _ in range(n):
        builder = StateBuilder(coarse)
        actions = []
        while not builder.done():
            legal = np.flatnonzero(builder.observe().action_mask > 0)
            actions.append(int(rng.choice(legal)))
            builder.apply(actions[-1])
        leaves.append(actions)
    return leaves


class TestTwoTierSearch:
    @pytest.fixture
    def setup(self, coarse_small):
        env = MacroGroupPlacementEnv(coarse_small, cell_place_iters=1)
        net = PolicyValueNet(NetworkConfig(zeta=4, channels=4, res_blocks=1, seed=0))
        reward_fn = NormalizedReward(
            w_max=2000.0, w_min=500.0, w_avg=1200.0, alpha=0.75
        )
        return env, net, reward_fn

    def _fresh_env(self, env):
        return MacroGroupPlacementEnv(copy.deepcopy(env.coarse), cell_place_iters=1)

    def test_measure_only_mode_is_bitwise_identical(self, setup):
        """Surrogate attached with exact_topk=None: fidelity is measured
        but nothing is pruned — the search result must not move a bit."""
        env, net, reward_fn = setup
        cfg = MCTSConfig(explorations=6, seed=2)
        base = MCTSPlacer(env, net, reward_fn, cfg).run()
        env2 = self._fresh_env(env)
        placer = MCTSPlacer(
            env2, net, reward_fn, cfg,
            surrogate=GroupCentroidSurrogate(env2.coarse),
        )
        measured = placer.run()
        assert measured.assignment == base.assignment
        assert measured.wirelength == base.wirelength
        assert measured.best_terminal_wirelength == base.best_terminal_wirelength
        assert measured.n_exact_evaluations == base.n_exact_evaluations
        assert measured.n_surrogate_evaluations > 0

    def test_huge_k_is_bitwise_identical(self, setup):
        """A K larger than the number of terminals admits everything —
        bit-for-bit the single-tier search."""
        env, net, reward_fn = setup
        base = MCTSPlacer(
            env, net, reward_fn, MCTSConfig(explorations=6, seed=2)
        ).run()
        topk = MCTSPlacer(
            self._fresh_env(env), net, reward_fn,
            MCTSConfig(explorations=6, seed=2, exact_topk=10**6),
        ).run()
        assert topk.assignment == base.assignment
        assert topk.wirelength == base.wirelength
        assert topk.best_terminal_wirelength == base.best_terminal_wirelength
        assert topk.n_exact_evaluations == base.n_exact_evaluations

    def test_small_k_prunes_but_reports_exact(self, setup):
        env, net, reward_fn = setup
        base = MCTSPlacer(
            env, net, reward_fn, MCTSConfig(explorations=8, seed=1)
        ).run()
        env2 = self._fresh_env(env)
        pruned = MCTSPlacer(
            env2, net, reward_fn,
            MCTSConfig(explorations=8, seed=1, exact_topk=2),
        ).run()
        assert pruned.n_exact_evaluations <= base.n_exact_evaluations
        assert pruned.n_surrogate_evaluations > 0
        # The committed wirelength is always a real pipeline measurement.
        check_env = self._fresh_env(env)
        assert pruned.wirelength == check_env.evaluate_assignment(
            pruned.assignment
        )
        # ... and so is the anytime best-terminal.
        if pruned.best_terminal_assignment is not None:
            assert pruned.best_terminal_wirelength == check_env.evaluate_assignment(
                pruned.best_terminal_assignment
            )

    def test_k_zero_prunes_every_search_time_exact_call(self, setup):
        env, net, reward_fn = setup
        result = MCTSPlacer(
            self._fresh_env(env), net, reward_fn,
            MCTSConfig(explorations=4, seed=0, exact_topk=0),
        ).run()
        assert result.n_exact_evaluations == 0
        assert result.n_surrogate_evaluations > 0
        assert len(result.assignment) == env.n_steps
        assert math.isfinite(result.wirelength)

    def test_checkpoint_resume_is_bitwise_with_pruning(self, setup):
        """Heap + calibration pairs round-trip through a snapshot: a
        resumed pruned search finishes exactly like an uninterrupted one."""
        env, net, reward_fn = setup
        cfg = MCTSConfig(explorations=6, seed=5, exact_topk=2)
        snapshots = []
        full = MCTSPlacer(
            self._fresh_env(env), net, reward_fn, cfg,
            # The harness pickles each snapshot to disk, freezing it; the
            # in-memory dict holds live tree references, so freeze by copy.
            on_commit=lambda state: snapshots.append(copy.deepcopy(state)),
        ).run()
        if len(snapshots) < 2:
            pytest.skip("search too short to interrupt")
        resumed = MCTSPlacer(
            self._fresh_env(env), net, reward_fn, cfg
        ).run(resume_state=snapshots[len(snapshots) // 2 - 1])
        assert resumed.assignment == full.assignment
        assert resumed.wirelength == full.wirelength
        assert resumed.best_terminal_wirelength == full.best_terminal_wirelength

    def test_a_cached_leaf_is_gated_like_a_fresh_one(self, setup):
        """A shared terminal cache may already hold a leaf (another job
        evaluated it).  The search still scores it, admits it and pairs
        it for calibration, so what it decides does not depend on what
        the cache held: the cache replaces only the exact pipeline."""
        env, net, reward_fn = setup
        leaves = _complete_assignments(env.coarse, n=16, seed=3)
        cfg = MCTSConfig(exact_topk=2)
        fresh = MCTSPlacer(self._fresh_env(env), net, reward_fn, cfg)
        want = [fresh._terminal_value(leaf) for leaf in leaves]
        assert 0 < fresh.n_exact_evaluations < len(leaves)  # some pruned
        shared = fresh._terminal_cache  # holds every admitted leaf now
        again = MCTSPlacer(
            self._fresh_env(env), net, reward_fn, cfg, terminal_cache=shared
        )
        assert [again._terminal_value(leaf) for leaf in leaves] == want
        assert again._topk_heap == fresh._topk_heap
        assert again._calibration.export_pairs() == (
            fresh._calibration.export_pairs()
        )
        assert again.n_surrogate_evaluations == fresh.n_surrogate_evaluations
        assert again.n_exact_evaluations == 0
        assert again.n_terminal_cache_hits == fresh.n_exact_evaluations
        assert again.best_terminal_assignment == fresh.best_terminal_assignment

    def test_fidelity_reported_when_surrogate_active(self, setup):
        env, net, reward_fn = setup
        result = MCTSPlacer(
            self._fresh_env(env), net, reward_fn,
            MCTSConfig(explorations=8, seed=1, exact_topk=4),
        ).run()
        if result.surrogate_spearman is not None:
            assert -1.0 <= result.surrogate_spearman <= 1.0
        base = MCTSPlacer(
            self._fresh_env(env), net, reward_fn, MCTSConfig(explorations=4)
        ).run()
        assert base.surrogate_spearman is None
        assert base.n_surrogate_evaluations == 0


class TestIncrementalLegalizer:
    """A legalizer reused over many calls against a fresh one per call."""

    def _positions(self, coarse):
        return {node.name: (node.x, node.y) for node in coarse.design.netlist}

    def test_bitwise_equivalent_to_from_scratch(self, coarse_small):
        """Every reuse (compiled QP steps, step-1 netlist, compiled nets,
        region memo) must reproduce a fresh legalizer's positions and event
        records exactly — including on repeated assignments."""
        reused_coarse = copy.deepcopy(coarse_small)
        reused = MacroLegalizer()
        n, grids = coarse_small.n_macro_groups, coarse_small.plan.n_grids
        rng = np.random.default_rng(7)
        assignments = [
            [int(a) for a in rng.integers(0, grids, size=n)] for _ in range(4)
        ]
        assignments.append(list(assignments[0]))  # repeat → memo hits
        for assignment in assignments:
            fresh = MacroLegalizer()
            fresh.legalize(coarse_small, assignment)
            start = len(reused.events.events)
            reused.legalize(reused_coarse, assignment)
            assert self._positions(reused_coarse) == self._positions(coarse_small)
            assert event_records(reused.events, start) == event_records(fresh.events)
        stats = reused.cache_stats()
        assert stats["legalize_calls"] == len(assignments)
        # one plan and one LU factorization per QP step, compiled by the
        # first call and reused by every later one
        assert stats["qp_plans"] == 2
        assert stats["qp_factorizations"] == 2
        assert stats["region_memo_hits"] > 0

    def test_new_coarse_drops_caches(self, coarse_small):
        legalizer = MacroLegalizer()
        n = coarse_small.n_macro_groups
        legalizer.legalize(coarse_small, [0] * n)
        other = copy.deepcopy(coarse_small)
        legalizer.legalize(other, [0] * n)
        # Second coarse rebuilt everything: misses again, no stale reuse.
        stats = legalizer.cache_stats()
        assert stats["legalize_calls"] == 2
        assert stats["region_memo_hits"] == 0
        assert self._positions(other) == self._positions(coarse_small)

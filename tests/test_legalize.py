"""Legalization tests: sequence pair, LP overlap removal, full pipeline."""

import contextlib
import copy
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize as sopt
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.metrics import macro_overlap_area, out_of_region_area
from repro.legalize import lp_spread
from repro.legalize.lp_spread import (
    AxisNet,
    lp_legalize_axis,
    lp_solve_axis,
    pack_longest_path,
)
from repro.legalize.pipeline import MacroLegalizer, anchor_for_span, span_rect
from repro.legalize.sequence_pair import SequencePair, extract_sequence_pair
from repro.runtime import faults
from repro.runtime.errors import SolverInfeasibleError
from repro.runtime.faults import Fault, FaultPlan
from repro.utils import events as events_module
from repro.utils.events import EventLog, read_jsonl
from tests.legalize_oracles import array_bytes, lp_arrays, solved_lps

_PROPERTY_COARSE = None


def _coarse_for_property():
    """Session-cached coarse instance for hypothesis property tests."""
    global _PROPERTY_COARSE
    if _PROPERTY_COARSE is None:
        from repro.coarsen import coarsen_design
        from repro.gp.mixed_size import MixedSizePlacer
        from repro.grid.plan import GridPlan
        from repro.netlist.generator import GeneratorSpec, generate_design

        design = generate_design(
            GeneratorSpec(
                name="prop", n_movable_macros=6, n_preplaced_macros=1,
                n_pads=4, n_cells=30, n_nets=40, seed=11,
            )
        )
        MixedSizePlacer(n_iterations=2).place(design)
        _PROPERTY_COARSE = coarsen_design(design, GridPlan(design.region, zeta=4))
    return _PROPERTY_COARSE


class TestSequencePair:
    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            SequencePair(s_plus=(0, 1), s_minus=(0, 0))

    def test_left_of_relation(self):
        # a at x=0, b at x=10, same y: a left of b.
        sp = extract_sequence_pair(
            np.array([0.0, 10.0]), np.array([0.0, 0.0]),
            np.array([2.0, 2.0]), np.array([2.0, 2.0]),
        )
        horizontal, vertical = sp.relations()
        assert (0, 1) in horizontal
        assert not vertical

    def test_above_relation(self):
        # a above b: vertical edge (b, a) meaning b below a.
        sp = extract_sequence_pair(
            np.array([0.0, 0.0]), np.array([10.0, 0.0]),
            np.array([2.0, 2.0]), np.array([2.0, 2.0]),
        )
        horizontal, vertical = sp.relations()
        assert (1, 0) in vertical
        assert not horizontal

    def test_every_pair_has_exactly_one_relation(self):
        rng = np.random.default_rng(0)
        n = 8
        xs, ys = rng.uniform(0, 100, n), rng.uniform(0, 100, n)
        ws, hs = rng.uniform(1, 5, n), rng.uniform(1, 5, n)
        sp = extract_sequence_pair(xs, ys, ws, hs)
        horizontal, vertical = sp.relations()
        seen = set()
        for a, b in horizontal:
            seen.add(frozenset((a, b)))
        for a, b in vertical:
            seen.add(frozenset((a, b)))
        assert len(seen) == n * (n - 1) // 2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 1000))
    def test_extraction_always_valid_permutations(self, n, seed):
        rng = np.random.default_rng(seed)
        sp = extract_sequence_pair(
            rng.uniform(0, 50, n), rng.uniform(0, 50, n),
            rng.uniform(1, 5, n), rng.uniform(1, 5, n),
        )
        assert sorted(sp.s_plus) == list(range(n))
        assert sorted(sp.s_minus) == list(range(n))


class TestPackLongestPath:
    def test_simple_chain(self):
        sizes = np.array([3.0, 4.0, 5.0])
        pos = pack_longest_path(sizes, [(0, 1), (1, 2)], lo=10.0)
        np.testing.assert_allclose(pos, [10.0, 13.0, 17.0])

    def test_diamond(self):
        sizes = np.array([2.0, 5.0, 3.0, 1.0])
        edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
        pos = pack_longest_path(sizes, edges, lo=0.0)
        assert pos[3] == pytest.approx(7.0)  # max(2+5, 2+3)

    def test_no_edges(self):
        pos = pack_longest_path(np.array([1.0, 2.0]), [], lo=5.0)
        np.testing.assert_allclose(pos, [5.0, 5.0])


class TestLPLegalizeAxis:
    def test_constraints_satisfied(self):
        sizes = np.array([3.0, 4.0])
        pos = lp_legalize_axis(sizes, [(0, 1)], 0.0, 20.0, [])
        assert pos[0] + 3.0 <= pos[1] + 1e-6
        assert pos[0] >= -1e-6 and pos[1] + 4.0 <= 20.0 + 1e-6

    def test_net_pull_toward_fixed_pin(self):
        sizes = np.array([2.0])
        nets = [AxisNet(weight=1.0, pins=[(0, 1.0)], fixed_positions=[15.0])]
        pos = lp_legalize_axis(sizes, [], 0.0, 20.0, nets)
        # Pin at pos+1 should reach 15 → pos = 14.
        assert pos[0] == pytest.approx(14.0, abs=1e-6)

    def test_two_rect_net_compacts(self):
        sizes = np.array([2.0, 2.0])
        nets = [AxisNet(weight=1.0, pins=[(0, 1.0), (1, 1.0)])]
        pos = lp_legalize_axis(sizes, [(0, 1)], 0.0, 100.0, nets)
        # Minimum span subject to no-overlap: rect1 exactly after rect0.
        assert pos[1] - pos[0] == pytest.approx(2.0, abs=1e-6)

    def test_weights_break_ties(self):
        sizes = np.array([2.0])
        nets = [
            AxisNet(weight=5.0, pins=[(0, 1.0)], fixed_positions=[0.0]),
            AxisNet(weight=1.0, pins=[(0, 1.0)], fixed_positions=[50.0]),
        ]
        pos = lp_legalize_axis(sizes, [], 0.0, 60.0, nets)
        assert pos[0] == pytest.approx(0.0, abs=1e-6)  # heavy net wins

    def test_infeasible_falls_back_to_packing(self):
        # Three width-5 rects chained in a width-8 window: impossible.
        sizes = np.array([5.0, 5.0, 5.0])
        pos = lp_legalize_axis(sizes, [(0, 1), (1, 2)], 0.0, 8.0, [])
        assert len(pos) == 3
        assert (np.diff(np.sort(pos)) >= 0).all()

    def test_empty_input(self):
        assert lp_legalize_axis(np.zeros(0), [], 0.0, 1.0, []).shape == (0,)


def _reference_lp_solve_axis(sizes, edges, lo, hi, nets):
    """The Eq. 3 LP assembled row by row and solved by ``linprog``.

    The oracle :func:`lp_solve_axis` must match bit for bit: the same
    solution, the same raise or no-raise, the same retry class.
    """
    sizes = np.asarray(sizes, dtype=float)
    n = len(sizes)
    n_nets = len(nets)
    n_vars = n + 2 * n_nets
    c = np.zeros(n_vars)
    for k, net in enumerate(nets):
        c[n + 2 * k] = net.weight
        c[n + 2 * k + 1] = -net.weight
    rows, cols, vals, rhs = [], [], [], []

    def add_row(terms, ub):
        for col, v in terms:
            rows.append(len(rhs))
            cols.append(col)
            vals.append(v)
        rhs.append(ub)

    for a, b in edges:
        add_row([(a, 1.0), (b, -1.0)], -float(sizes[a]))
    for k, net in enumerate(nets):
        u, l = n + 2 * k, n + 2 * k + 1
        for i, off in net.pins:
            add_row([(i, 1.0), (u, -1.0)], -off)
            add_row([(l, 1.0), (i, -1.0)], off)
        for q in net.fixed_positions:
            add_row([(u, -1.0)], -q)
            add_row([(l, 1.0)], q)
    span = max(hi - lo, 1.0)
    bounds = []
    for i in range(n):
        upper = hi - float(sizes[i])
        if upper < lo:
            upper = lo
        bounds.append((lo, upper))
    for _ in range(n_nets):
        bounds.append((lo - 10 * span, hi + 10 * span))
        bounds.append((lo - 10 * span, hi + 10 * span))
    A = sp.coo_matrix(
        (np.asarray(vals), (np.asarray(rows), np.asarray(cols))),
        shape=(len(rhs), n_vars),
    ).tocsr()
    try:
        res = sopt.linprog(
            c, A_ub=A, b_ub=np.asarray(rhs), bounds=bounds, method="highs"
        )
    except ValueError as exc:
        raise SolverInfeasibleError(
            f"LP solver raised: {exc}", solver="linprog", status="error"
        ) from exc
    if not res.success:
        raise SolverInfeasibleError(
            f"LP did not converge: {res.message}",
            solver="linprog",
            status=int(res.status),
        )
    return np.asarray(res.x[:n], dtype=float)


def _lp_outcome(solve, args):
    """(``ok``, solution bytes) or (``raise``, status) of one solve; the
    status ``"error"`` is the retried class."""
    try:
        return "ok", solve(*args).tobytes()
    except SolverInfeasibleError as exc:
        return "raise", exc.details["status"]


def _random_lp(seed):
    """A small Eq. 3 LP in the shape the legalizer builds, from *seed*."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    sizes = rng.uniform(0.5, 12.0, n)
    order = rng.permutation(n)
    edges = [
        (int(order[a]), int(order[b]))
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < 0.4
    ]
    lo = float(rng.uniform(-20.0, 20.0))
    hi = lo + float(rng.uniform(0.5, 40.0))
    nets = [
        AxisNet(
            weight=float(rng.choice([1.0, 2.0, rng.uniform(0.1, 5.0)])),
            pins=[
                (int(rng.integers(n)), float(rng.uniform(0.0, 6.0)))
                for _ in range(int(rng.integers(0, 4)))
            ],
            fixed_positions=[
                float(rng.uniform(lo - 30.0, hi + 30.0))
                for _ in range(int(rng.integers(0, 5)))
            ],
        )
        for _ in range(int(rng.integers(0, 7)))
    ]
    return sizes, edges, lo, hi, nets


_FIXTURE_LPS = None


def _fixture_lps():
    """Every LP the legalizer solves over a few placements of the property
    design, built once per test run, with the nets as :class:`AxisNet`
    lists.  Each LP's compiled arrays are checked against the test-side
    net projection and array layout on the way."""
    global _FIXTURE_LPS
    if _FIXTURE_LPS is None:
        lps = []
        with solved_lps() as seen:
            for seed in range(6):
                coarse = copy.deepcopy(_coarse_for_property())
                rng = np.random.default_rng(seed)
                assignment = list(
                    rng.integers(0, coarse.plan.n_grids, size=coarse.n_macro_groups)
                )
                MacroLegalizer().legalize(coarse, assignment)
        for sizes, edges, lo, hi, bound, nets in seen:
            assert array_bytes(
                bound.nets.lp_arrays(sizes, edges, lo, hi, bound.fixed)
            ) == array_bytes(lp_arrays(sizes, edges, lo, hi, nets))
            lps.append((sizes, edges, lo, hi, nets))
        _FIXTURE_LPS = lps
    return _FIXTURE_LPS


class TestLPOracle:
    """``lp_solve_axis`` against the row-by-row ``linprog`` reference, through
    the HiGHS binding and through the ``linprog`` fallback."""

    HAND_BUILT = {
        "infeasible chain": (
            np.array([5.0, 5.0, 5.0]), [(0, 1), (1, 2)], 0.0, 8.0, []
        ),
        "infeasible with nets": (
            np.array([10.0, 10.0]),
            [(0, 1)],
            0.0,
            5.0,
            [AxisNet(1.0, [(0, 1.0), (1, 2.0)], [3.0])],
        ),
        "rect wider than span": (
            np.array([12.0]),
            [],
            0.0,
            10.0,
            [AxisNet(2.0, [(0, 6.0)], [50.0, -4.0])],
        ),
        "rect wider than span, chained": (
            np.array([3.0, 12.0]),
            [(0, 1)],
            0.0,
            10.0,
            [AxisNet(1.0, [(0, 1.5), (1, 6.0)])],
        ),
        "net without movable pins": (
            np.array([2.0]), [], 0.0, 20.0, [AxisNet(1.0, [], [4.0, 9.0])]
        ),
        "integer weight and bounds": (
            np.array([2.0, 3.0]), [(1, 0)], 0, 30, [AxisNet(3, [(0, 1), (1, 0)])]
        ),
        "NaN fixed position": (
            np.array([2.0]), [], 0.0, 20.0, [AxisNet(1.0, [(0, 1.0)], [np.nan])]
        ),
        "infinite weight": (
            np.array([2.0]), [], 0.0, 20.0, [AxisNet(np.inf, [(0, 1.0)], [5.0])]
        ),
        "NaN size off the edges": (
            np.array([np.nan, 2.0]), [], 0.0, 20.0, [AxisNet(1.0, [(1, 1.0)], [5.0])]
        ),
    }

    @staticmethod
    def _assert_all_agree(args):
        """Binding and forced fallback both reproduce the reference."""
        reference = _lp_outcome(_reference_lp_solve_axis, args)
        assert _lp_outcome(lp_solve_axis, args) == reference
        with pytest.MonkeyPatch.context() as m:
            m.setattr(lp_spread, "_highs", None)
            assert _lp_outcome(lp_solve_axis, args) == reference
        return reference

    def test_binding_in_use_where_importable(self):
        try:
            from scipy.optimize._highspy import _core
        except ImportError:
            pytest.skip("this scipy bundles no HiGHS binding")
        assert lp_spread._highs is _core

    def test_every_fixture_lp_matches(self):
        lps = _fixture_lps()
        kinds = {self._assert_all_agree(args)[0] for args in lps}
        assert len(lps) >= 20 and kinds == {"ok", "raise"}

    @pytest.mark.parametrize("case", sorted(HAND_BUILT))
    def test_hand_built_case_matches(self, case):
        self._assert_all_agree(self.HAND_BUILT[case])

    def test_hand_built_cases_cover_every_outcome(self):
        classes = {
            "ok" if kind == "ok" else f"raise, retried={detail == 'error'}"
            for kind, detail in (
                _lp_outcome(_reference_lp_solve_axis, args)
                for args in self.HAND_BUILT.values()
            )
        }
        assert classes == {"ok", "raise, retried=False", "raise, retried=True"}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_lps_match(self, seed):
        self._assert_all_agree(_random_lp(seed))

    @pytest.mark.parametrize("binding", [True, False])
    def test_retry_classes(self, binding, monkeypatch):
        """A rejected input is retried once; an infeasible LP is not."""
        if not binding:
            monkeypatch.setattr(lp_spread, "_highs", None)
        calls = []
        solve = lp_spread.lp_solve_axis

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(lp_spread, "lp_solve_axis", counted)
        for case, attempts in (("NaN fixed position", 2), ("infeasible chain", 1)):
            calls.clear()
            seen = []
            lp_legalize_axis(*self.HAND_BUILT[case], on_degrade=seen.append)
            assert len(calls) == attempts and len(seen) == 1


def _solver_outcome(solve, arrays):
    """(``ok``, solution bytes) or (``raise``, status, message) of one solve."""
    try:
        return "ok", solve(*arrays).tobytes()
    except SolverInfeasibleError as exc:
        return "raise", exc.details["status"], str(exc)


class TestReusedSolver:
    """An :class:`LPSolver` runs LP after LP on one HiGHS instance; each
    outcome is the fresh instance's (:func:`_solve_highs`), byte for byte."""

    @pytest.fixture(autouse=True)
    def _binding(self):
        if lp_spread._highs is None:
            pytest.skip("this scipy bundles no HiGHS binding")

    def test_shuffled_sequence_matches_fresh_instances(self):
        lps = (
            list(_fixture_lps())
            + list(TestLPOracle.HAND_BUILT.values())
            + [_random_lp(seed) for seed in range(1000)]
        )
        arrays = [
            lp_arrays(np.asarray(args[0], dtype=float), *args[1:])
            for args in lps
        ]
        order = np.random.default_rng(0).permutation(len(arrays))
        solver = lp_spread.LPSolver()
        kinds = set()
        for i in order:
            want = _solver_outcome(lp_spread._solve_highs, arrays[i])
            assert _solver_outcome(solver, arrays[i]) == want
            kinds.add(want[:2] if want[0] == "raise" else want[0])
        # optimal, infeasible (HiGHS's verdict) and rejected inputs all ran
        assert {"ok", ("raise", 2), ("raise", "error")} <= kinds

    def test_one_instance_per_solver(self, monkeypatch):
        made = []
        new = lp_spread._new_highs
        monkeypatch.setattr(
            lp_spread, "_new_highs", lambda: made.append(1) or new()
        )
        solver = lp_spread.LPSolver()
        for seed in range(20):
            sizes, edges, lo, hi, nets = _random_lp(seed)
            lp_legalize_axis(sizes, edges, lo, hi, nets, solver=solver)
        assert len(made) == 1
        lp_legalize_axis(np.array([5.0, 5.0]), [(0, 1)], 0.0, 12.0, [])
        assert len(made) == 2  # no solver: a fresh instance

    def test_copies_start_without_an_instance(self):
        import pickle

        solver = lp_spread.LPSolver()
        args = (np.array([5.0, 5.0]), [(0, 1)], 0.0, 12.0, [])
        want = lp_legalize_axis(*args, solver=solver)
        assert solver._highs is not None
        for twin in (copy.deepcopy(solver), pickle.loads(pickle.dumps(solver))):
            assert twin._highs is None
            assert lp_legalize_axis(*args, solver=twin).tobytes() == want.tobytes()


def _flags(args):
    """Does the longest-path screen flag the LP *args*?"""
    sizes, edges, lo, hi, _nets = args
    return lp_spread._overflows(np.asarray(sizes, dtype=float), edges, lo, hi)


def _highs_status(args):
    """HiGHS's verdict on the LP *args*: ``"ok"`` or the raised status."""
    sizes, edges, lo, hi, nets = args
    arrays = lp_arrays(np.asarray(sizes, dtype=float), edges, lo, hi, nets)
    try:
        lp_spread._solve_highs(*arrays)
    except SolverInfeasibleError as exc:
        return exc.details["status"]
    return "ok"


class TestLongestPathScreen:
    """An LP whose constraint edges overflow the span is reported infeasible
    before HiGHS runs, with the error HiGHS raises for it."""

    @pytest.fixture(autouse=True)
    def _binding(self):
        if lp_spread._highs is None:
            pytest.skip("this scipy bundles no HiGHS binding")

    def test_every_flagged_lp_is_infeasible_for_highs(self):
        lps = (
            list(_fixture_lps())
            + list(TestLPOracle.HAND_BUILT.values())
            + [_random_lp(seed) for seed in range(400)]
        )
        flagged = [args for args in lps if _flags(args)]
        assert len(flagged) >= 20
        for args in flagged:
            assert _highs_status(args) == 2
            with pytest.raises(SolverInfeasibleError) as screened:
                lp_solve_axis(*args)
            with pytest.raises(SolverInfeasibleError) as solved:
                lp_spread._solve_highs(
                    *lp_arrays(np.asarray(args[0], dtype=float), *args[1:])
                )
            assert str(screened.value) == str(solved.value)

    def test_flagged_lp_skips_highs(self, monkeypatch):
        calls = []
        solve = lp_spread._solve_highs
        monkeypatch.setattr(
            lp_spread, "_solve_highs", lambda *a: calls.append(1) or solve(*a)
        )
        seen = []
        lp_legalize_axis(
            *TestLPOracle.HAND_BUILT["infeasible chain"], on_degrade=seen.append
        )
        assert calls == [] and len(seen) == 1
        assert seen[0].details == {"solver": "highs", "status": 2}
        lp_legalize_axis(np.array([5.0, 5.0]), [(0, 1)], 0.0, 12.0, [])
        assert calls == [1]

    @pytest.mark.parametrize(
        "sizes, edges, lo, hi",
        [
            ([5.0, 5.0], [(0, 1), (1, 0)], 0.0, 8.0),  # a cycle
            ([5.0, 5.0], [(0, 0), (0, 1)], 0.0, 8.0),  # a self-loop
            ([np.nan, 5.0, 5.0], [(1, 2)], 0.0, 8.0),
            ([5.0, 5.0], [(0, 1)], 0.0, np.inf),
            ([5.0, 5.0], [(0, 1)], 0.0, 10.0 + 5e-7),  # exact fit
            ([5.0, 5.0], [(0, 1)], 0.0, 10.0 - 5e-7),  # inside HiGHS's tolerance
        ],
    )
    def test_not_flagged(self, sizes, edges, lo, hi):
        assert not lp_spread._overflows(np.array(sizes), edges, lo, hi)

    def test_edges_need_not_be_transitively_closed(self):
        """A chain 0 -> 1 -> 2 overflows without the edge 0 -> 2."""
        sizes = np.array([4.0, 4.0, 4.0])
        assert lp_spread._overflows(sizes, [(1, 2), (0, 1)], 0.0, 11.0)
        assert not lp_spread._overflows(sizes, [(1, 2), (0, 1)], 0.0, 12.0)


@st.composite
def _span_lps(draw):
    """Random rectangles, the sequence pair of their positions, one axis of
    it, a span every rectangle fits in alone, and random nets."""
    n = draw(st.integers(1, 7))
    coord = st.floats(0.0, 60.0)
    size = st.floats(0.5, 15.0)
    xs, ys = (np.array(draw(st.lists(coord, min_size=n, max_size=n))) for _ in "xy")
    ws, hs = (np.array(draw(st.lists(size, min_size=n, max_size=n))) for _ in "wh")
    h_edges, v_edges = extract_sequence_pair(xs, ys, ws, hs).relations()
    sizes, edges = draw(st.sampled_from([(ws, h_edges), (hs, v_edges)]))
    lo = draw(st.floats(-20.0, 20.0))
    slack = draw(st.floats(0.0, 1.2))
    hi = lo + sizes.max() + slack * (sizes.sum() - sizes.max() + 1.0)
    nets = [
        AxisNet(
            weight=draw(st.floats(0.1, 5.0)),
            pins=draw(
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.floats(0.0, 6.0)), max_size=3
                )
            ),
            fixed_positions=draw(st.lists(st.floats(lo - 30.0, hi + 30.0), max_size=3)),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    return sizes, edges, lo, hi, nets


class TestLPKeepsSpan:
    """A feasible Eq. 3 LP keeps every macro inside its span; an infeasible
    one is reported, never left silently out of span."""

    @settings(max_examples=150, deadline=None)
    @given(_span_lps())
    def test_inside_span_or_reported(self, lp):
        sizes, edges, lo, hi, nets = lp
        tol = lp_spread._CHECK_TOL
        reported = []
        pos = lp_legalize_axis(sizes, edges, lo, hi, nets, on_degrade=reported.append)
        if reported:
            assert len(reported) == 1
            assert (pos >= lo).all() and (pos <= np.maximum(hi - sizes, lo)).all()
        else:
            assert (pos >= lo - tol).all() and (pos <= hi - sizes + tol).all()
            for a, b in edges:
                assert pos[a] + sizes[a] <= pos[b] + tol
        if _flags(lp):
            assert reported
            if lp_spread._highs is not None:
                assert _highs_status(lp) == 2


class TestSpanHelpers:
    def test_anchor_clamped(self, coarse_small):
        plan = coarse_small.plan
        rows, cols = 2, 2
        r, c = anchor_for_span(plan, plan.n_grids - 1, rows, cols)
        assert r + rows <= plan.zeta
        assert c + cols <= plan.zeta

    def test_span_rect_inside_region(self, coarse_small):
        for flat in [0, coarse_small.plan.n_grids // 2, coarse_small.plan.n_grids - 1]:
            rect = span_rect(coarse_small, 0, flat)
            region = coarse_small.design.region
            assert rect.x >= region.x - 1e-9
            assert rect.y >= region.y - 1e-9
            assert rect.x + rect.width <= region.x_max + 1e-9
            assert rect.y + rect.height <= region.y_max + 1e-9


class TestMacroLegalizerPipeline:
    def _legalize(self, coarse, seed=0):
        rng = np.random.default_rng(seed)
        assignment = list(
            rng.integers(0, coarse.plan.n_grids, size=coarse.n_macro_groups)
        )
        MacroLegalizer().legalize(coarse, assignment)
        return assignment

    def test_wrong_assignment_length_rejected(self, coarse_small):
        with pytest.raises(ValueError, match="assignment"):
            MacroLegalizer().legalize(coarse_small, [0])

    def test_no_overlap_after_legalization(self, coarse_small):
        self._legalize(coarse_small)
        assert macro_overlap_area(coarse_small.design) < 1e-9

    def test_macros_inside_region(self, coarse_small):
        self._legalize(coarse_small)
        assert out_of_region_area(coarse_small.design) < 1e-6

    def test_preplaced_macros_untouched(self, coarse_small):
        before = {
            m.name: (m.x, m.y)
            for m in coarse_small.design.netlist.preplaced_macros
        }
        self._legalize(coarse_small)
        for name, pos in before.items():
            node = coarse_small.design.netlist[name]
            assert (node.x, node.y) == pos

    def test_different_assignments_give_different_layouts(self, coarse_small):
        import copy

        c2 = copy.deepcopy(coarse_small)
        MacroLegalizer().legalize(
            coarse_small, [0] * coarse_small.n_macro_groups
        )
        far = coarse_small.plan.n_grids - 1
        MacroLegalizer().legalize(c2, [far] * c2.n_macro_groups)
        a = [(m.x, m.y) for m in coarse_small.design.netlist.movable_macros]
        b = [(m.x, m.y) for m in c2.design.netlist.movable_macros]
        assert a != b

    def test_repeated_legalization_consistent(self, coarse_small):
        """Re-legalizing the same assignment on one legalizer gives the
        same coordinates, byte for byte, episode to episode."""
        assignment = [1] * coarse_small.n_macro_groups
        legalizer = MacroLegalizer()
        placements = []
        for _ in range(3):
            legalizer.legalize(coarse_small, assignment)
            placements.append(
                np.array(
                    [(m.x, m.y) for m in coarse_small.design.netlist.movable_macros]
                ).tobytes()
            )
        assert placements == [placements[0]] * 3

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_legality_invariant_random_assignments(self, seed):
        """Property: any assignment legalizes to zero overlap, in region.

        Builds its own coarse instance (hypothesis forbids function-scoped
        fixtures inside @given).
        """
        import copy


        coarse = copy.deepcopy(_coarse_for_property())
        self._legalize(coarse, seed=seed)
        assert macro_overlap_area(coarse.design) < 1e-9
        assert out_of_region_area(coarse.design) < 1e-6


class TestBatchedLegalizationEvents:
    """A legalization's events reach a file-backed log in one fsynced
    append, with the records one append per event would write."""

    @pytest.mark.parametrize("forced", [True, False])
    def test_one_append_with_the_unbatched_records(
        self, forced, tmp_path, monkeypatch
    ):
        calls = []
        append = events_module.append_jsonl

        def counted(path, record, fsync=False):
            calls.append((len(record) if isinstance(record, list) else 1, fsync))
            return append(path, record, fsync)

        monkeypatch.setattr(events_module, "append_jsonl", counted)
        coarse = _coarse_for_property()
        rng = np.random.default_rng(0)
        assignment = list(rng.integers(0, coarse.plan.n_grids, size=coarse.n_macro_groups))
        def legalize(name):
            log = EventLog(str(tmp_path / name))
            # forced: every LP fails, one fallback per axis of every region
            with (
                faults.inject(FaultPlan(Fault("lp.solve", at=1, count=None)))
                if forced else contextlib.nullcontext()
            ):
                MacroLegalizer(events=log).legalize(copy.deepcopy(coarse), assignment)
            return [
                {k: v for k, v in record.items() if k != "ts"}
                for record in read_jsonl(log.path)
            ]

        with monkeypatch.context() as m:
            m.setattr(EventLog, "batch", lambda self: contextlib.nullcontext())
            unbatched = legalize("unbatched.jsonl")
        assert calls == [(1, True)] * len(unbatched)
        calls.clear()
        batched = legalize("batched.jsonl")
        assert calls == [(len(batched), True)]
        assert batched == unbatched
        assert len(batched) >= (2 if forced else 1)


def _fresh_python(code: str) -> str:
    """Run *code* in a fresh interpreter with ``src`` importable; its stdout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestScipyImportGraph:
    """A placing process imports neither ``scipy.spatial`` nor
    ``scipy.optimize``: the HiGHS binding is loaded from its extension
    file, and coarsening keeps its own neighbour index."""

    def test_placer_modules_and_a_placement_import_neither(self):
        out = _fresh_python(
            "import sys\n"
            "import repro.cli, repro.core.flow, repro.service.service\n"
            "unwanted = ('scipy.spatial', 'scipy.optimize')\n"
            "print(sorted(m for m in unwanted if m in sys.modules))\n"
            "from repro.core import MCTSGuidedPlacer, PlacerConfig\n"
            "from repro.netlist.suites import make_iccad04_circuit\n"
            "design = make_iccad04_circuit('ibm01', scale=0.004, macro_scale=0.04).design\n"
            "MCTSGuidedPlacer(PlacerConfig.fast(seed=3)).place(design)\n"
            "from repro.legalize import lp_spread\n"
            "print(sorted(m for m in unwanted if m in sys.modules), lp_spread._highs is not None)\n"
        )
        assert out.splitlines() == ["[]", "[] True"]

    def test_scipy_optimize_reuses_the_loaded_binding(self):
        out = _fresh_python(
            "import importlib, sys\n"
            "import numpy as np\n"
            "from repro.legalize import lp_spread\n"
            "print('scipy.optimize' in sys.modules)\n"
            "import scipy.optimize\n"
            "from scipy.optimize._highspy import _core\n"
            "core = importlib.import_module('scipy.optimize._highspy._core')\n"
            "print(core is lp_spread._highs, _core is lp_spread._highs)\n"
            "res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-3.0],\n"
            "                             bounds=[(0, None)] * 2, method='highs')\n"
            "print(res.status, res.x.tolist())\n"
        )
        assert out.splitlines() == ["False", "True True", "0 [3.0, 0.0]"]

    def test_without_the_extension_file_the_binding_is_imported(self):
        out = _fresh_python(
            "import importlib.machinery\n"
            "importlib.machinery.EXTENSION_SUFFIXES[:] = ['.no-such-suffix']\n"
            "from repro.legalize import lp_spread\n"
            "from scipy.optimize._highspy import _core\n"
            "print(lp_spread._highs is _core)\n"
        )
        assert out.splitlines() == ["True"]

"""Analytical global-placement substrate tests (net models, QP, spreading,
mixed-size placer)."""

import copy
import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gp.mixed_size import (
    MixedSizePlacer,
    _total_overlap,
    legalize_macros_greedy,
    place_cells_with_fixed_macros,
)
from repro.gp.netmodel import QuadraticSystem, build_quadratic_system
from repro.gp.quadratic import solve_quadratic_placement
from repro.gp.spreading import blocked_area_grid, spread_step
from repro.eval.metrics import macro_overlap_area
from repro.netlist.hpwl import FlatNetlist, hpwl
from repro.netlist.model import (
    Cell,
    Design,
    Macro,
    Net,
    Netlist,
    Pin,
    PlacementRegion,
)
from repro.netlist.suites import make_iccad04_circuit, make_industrial_circuit


def two_fixed_one_free() -> Netlist:
    """free cell connected to fixed anchors at x=0 and x=10."""
    nl = Netlist()
    nl.add_node(Cell("a", 0, 0, x=0.0, y=0.0, fixed=True))
    nl.add_node(Cell("b", 0, 0, x=10.0, y=4.0, fixed=True))
    nl.add_node(Cell("free", 0, 0, x=99.0, y=99.0))
    nl.add_net(Net("n0", pins=[Pin("a"), Pin("free")]))
    nl.add_net(Net("n1", pins=[Pin("b"), Pin("free")]))
    return nl


class TestQuadraticSystem:
    def test_free_node_lands_at_weighted_mean(self):
        nl = two_fixed_one_free()
        flat = FlatNetlist(nl)
        movable = ~flat.fixed
        solve_quadratic_placement(flat, movable, (5.0, 5.0))
        assert flat.cx[2] == pytest.approx(5.0, abs=1e-4)
        assert flat.cy[2] == pytest.approx(2.0, abs=1e-4)

    def test_weights_shift_solution(self):
        nl = two_fixed_one_free()
        nl.nets[0].weight = 3.0  # pull 3x harder toward a at x=0
        flat = FlatNetlist(nl)
        solve_quadratic_placement(flat, ~flat.fixed, (5.0, 5.0))
        assert flat.cx[2] == pytest.approx(10.0 / 4.0, abs=1e-6)

    def test_disconnected_node_anchored_to_center(self):
        nl = Netlist()
        nl.add_node(Cell("island", 0, 0, x=77.0, y=77.0))
        flat = FlatNetlist(nl)
        solve_quadratic_placement(flat, ~flat.fixed, (5.0, 6.0))
        assert flat.cx[0] == pytest.approx(5.0, abs=1e-3)
        assert flat.cy[0] == pytest.approx(6.0, abs=1e-3)

    def test_mask_shape_validated(self):
        nl = two_fixed_one_free()
        flat = FlatNetlist(nl)
        with pytest.raises(ValueError):
            build_quadratic_system(flat, np.ones(99, dtype=bool))

    def test_star_and_clique_models_agree_for_symmetric_net(self):
        """A star-decomposed high-degree net keeps the centroid solution."""

        def make(threshold):
            nl = Netlist()
            for i, x in enumerate([0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0]):
                nl.add_node(Cell(f"f{i}", 0, 0, x=x, y=float(i), fixed=True))
            nl.add_node(Cell("m", 0, 0))
            nl.add_net(
                Net("n", pins=[Pin(f"f{i}") for i in range(7)] + [Pin("m")])
            )
            flat = FlatNetlist(nl)
            solve_quadratic_placement(
                flat, ~flat.fixed, (12.0, 3.0), clique_threshold=threshold
            )
            return float(flat.cx[-1])

        clique_x = make(threshold=20)
        star_x = make(threshold=2)
        assert clique_x == pytest.approx(star_x, abs=1e-4)

    def test_anchor_pseudo_nets_pull(self):
        nl = two_fixed_one_free()
        flat = FlatNetlist(nl)
        solve_quadratic_placement(
            flat,
            ~flat.fixed,
            (5.0, 5.0),
            anchor_weight=np.array([1e6]),
            anchor_x=np.array([8.0]),
            anchor_y=np.array([1.0]),
        )
        assert flat.cx[2] == pytest.approx(8.0, abs=1e-3)
        assert flat.cy[2] == pytest.approx(1.0, abs=1e-3)

    def test_solve_reduces_hpwl(self, small_design):
        flat = FlatNetlist(small_design.netlist)
        before = flat.total_hpwl()
        solve_quadratic_placement(
            flat,
            ~flat.fixed,
            (small_design.region.width / 2, small_design.region.height / 2),
        )
        assert flat.total_hpwl() < before


def _reference_build_quadratic_system(
    flat, movable_mask, clique_threshold=6, min_weight=1e-9
):
    """The clique/star expansion one net and one pin pair at a time.

    The oracle :func:`build_quadratic_system` must match byte for byte.
    """
    movable = np.flatnonzero(movable_mask)
    n_mov = len(movable)
    unknown_of_node = -np.ones(flat.n_nodes, dtype=np.int64)
    unknown_of_node[movable] = np.arange(n_mov)
    rows, cols, vals = [], [], []
    n_star = 0
    fx, fy = flat.cx, flat.cy
    bx_fixed, by_fixed = {}, {}

    def add_pair(u, v, w, xu, yu, xv, yv):
        if u >= 0 and v >= 0:
            rows.extend((u, v, u, v))
            cols.extend((u, v, v, u))
            vals.extend((w, w, -w, -w))
        elif u >= 0:
            rows.append(u)
            cols.append(u)
            vals.append(w)
            bx_fixed[u] = bx_fixed.get(u, 0.0) + w * xv
            by_fixed[u] = by_fixed.get(u, 0.0) + w * yv
        elif v >= 0:
            rows.append(v)
            cols.append(v)
            vals.append(w)
            bx_fixed[v] = bx_fixed.get(v, 0.0) + w * xu
            by_fixed[v] = by_fixed.get(v, 0.0) + w * yu

    for net_idx in range(flat.n_nets):
        lo = int(flat.net_ptr[net_idx])
        hi = int(flat.net_ptr[net_idx + 1])
        nodes = flat.pin_node[lo:hi]
        k = hi - lo
        w_net = float(flat.net_weight[net_idx])
        if w_net <= min_weight or k < 2:
            continue
        unknowns = unknown_of_node[nodes]
        if np.all(unknowns < 0):
            continue
        if k <= clique_threshold:
            w = w_net / (k - 1)
            for a in range(k):
                for b in range(a + 1, k):
                    na, nb = int(nodes[a]), int(nodes[b])
                    add_pair(
                        int(unknowns[a]), int(unknowns[b]), w,
                        fx[na], fy[na], fx[nb], fy[nb],
                    )
        else:
            w = w_net * k / (k - 1)
            star_id = n_mov + n_star
            n_star += 1
            fixed_x = fixed_y = fixed_w = 0.0
            for a in range(k):
                ua = int(unknowns[a])
                na = int(nodes[a])
                rows.append(star_id)
                cols.append(star_id)
                vals.append(w)
                if ua >= 0:
                    rows.extend((ua, ua, star_id))
                    cols.extend((ua, star_id, ua))
                    vals.extend((w, -w, -w))
                else:
                    fixed_x += w * fx[na]
                    fixed_y += w * fy[na]
                    fixed_w += w
            if fixed_w > 0:
                bx_fixed[star_id] = bx_fixed.get(star_id, 0.0) + fixed_x
                by_fixed[star_id] = by_fixed.get(star_id, 0.0) + fixed_y

    n = n_mov + n_star
    A = sp.coo_matrix(
        (np.asarray(vals), (np.asarray(rows), np.asarray(cols))), shape=(n, n)
    ).tocsr()
    bx = np.zeros(n)
    by = np.zeros(n)
    for i, v in bx_fixed.items():
        bx[i] = v
    for i, v in by_fixed.items():
        by[i] = v
    return QuadraticSystem(A=A, bx=bx, by=by, movable=movable, n_star=n_star)


def _system_bytes(system):
    return (
        system.A.shape,
        system.n_star,
        *(
            (arr.dtype.str, arr.tobytes())
            for arr in (
                system.A.indptr, system.A.indices, system.A.data,
                system.bx, system.by, system.movable,
            )
        ),
    )


@dataclass
class _RawFlat:
    """The arrays of a :class:`FlatNetlist`, with nets it would drop kept."""

    cx: np.ndarray
    cy: np.ndarray
    net_ptr: np.ndarray
    pin_node: np.ndarray
    net_weight: np.ndarray

    @property
    def n_nodes(self):
        return len(self.cx)

    @property
    def n_nets(self):
        return len(self.net_ptr) - 1


@st.composite
def _raw_netlists(draw):
    """Nets of degree 0..12 (single-pin, clique- and star-sized), zero,
    sub-threshold and negative weights, repeated pins, any movable mask,
    and ``min_weight`` thresholds that keep or drop them."""
    n_nodes = draw(st.integers(1, 10))
    degrees = draw(st.lists(st.integers(0, 12), max_size=10))
    n_pins = sum(degrees)
    node = st.integers(0, n_nodes - 1)
    coord = st.floats(-100.0, 100.0)
    weight = st.sampled_from([0.0, 1e-12, 1.0, 2.0, -1.5]) | st.floats(0.01, 10.0)
    flat = _RawFlat(
        cx=np.array(draw(st.lists(coord, min_size=n_nodes, max_size=n_nodes))),
        cy=np.array(draw(st.lists(coord, min_size=n_nodes, max_size=n_nodes))),
        net_ptr=np.concatenate([[0], np.cumsum(degrees, dtype=np.int64)]),
        pin_node=np.array(
            draw(st.lists(node, min_size=n_pins, max_size=n_pins)), dtype=np.int64
        ),
        net_weight=np.array(
            draw(st.lists(weight, min_size=len(degrees), max_size=len(degrees))),
            dtype=float,
        ),
    )
    mask = np.array(
        draw(st.lists(st.booleans(), min_size=n_nodes, max_size=n_nodes))
    )
    threshold = draw(st.sampled_from([2, 3, 6, 10]))
    return flat, mask, threshold, draw(st.sampled_from([1e-9, 0.0, -2.0]))


_SUITE_FLATS = {}


def _suite_flat(name):
    """Flat netlist of a benchmark-scale suite design, built once per test run."""
    if name not in _SUITE_FLATS:
        entry = (
            make_iccad04_circuit(name)
            if name.startswith("ibm")
            else make_industrial_circuit(name)
        )
        _SUITE_FLATS[name] = FlatNetlist(entry.design.netlist)
    return _SUITE_FLATS[name]


class TestQuadraticSystemOracle:
    """``build_quadratic_system`` against the net-at-a-time reference."""

    @pytest.mark.parametrize("threshold", [2, 3, 6, 10])
    @pytest.mark.parametrize("mask", ["natural", "all", "none", "random"])
    @pytest.mark.parametrize("name", ["ibm01", "Cir1"])
    def test_suite_designs_match(self, name, mask, threshold):
        flat = _suite_flat(name)
        movable = {
            "natural": ~flat.fixed,
            "all": np.ones(flat.n_nodes, dtype=bool),
            "none": np.zeros(flat.n_nodes, dtype=bool),
            "random": np.random.default_rng(threshold).random(flat.n_nodes) < 0.5,
        }[mask]
        got = build_quadratic_system(flat, movable, clique_threshold=threshold)
        want = _reference_build_quadratic_system(
            flat, movable, clique_threshold=threshold
        )
        assert _system_bytes(got) == _system_bytes(want)
        if mask == "all" and threshold == 2:
            assert got.n_star > 0 and got.A.nnz > 0

    def test_star_without_positive_fixed_weight_matches(self):
        """A star whose fixed pins weigh nothing positive pulls nothing."""
        flat = _RawFlat(
            cx=np.array([1.0, 2.0, 3.0, 4.0]),
            cy=np.array([0.5, 1.0, 2.0, 3.0]),
            net_ptr=np.array([0, 4]),
            pin_node=np.array([0, 1, 2, 3]),
            net_weight=np.array([-1.5]),
        )
        movable = np.array([True, False, False, False])
        got = build_quadratic_system(flat, movable, 2, -2.0)
        want = _reference_build_quadratic_system(flat, movable, 2, -2.0)
        assert _system_bytes(got) == _system_bytes(want)
        assert got.n_star == 1 and not got.bx.any()

    @settings(max_examples=150, deadline=None)
    @given(_raw_netlists())
    def test_random_netlists_match(self, case):
        flat, movable, threshold, min_weight = case
        got = build_quadratic_system(flat, movable, threshold, min_weight)
        want = _reference_build_quadratic_system(
            flat, movable, threshold, min_weight
        )
        assert _system_bytes(got) == _system_bytes(want)


class TestSpreading:
    def test_blocked_area_grid_accounts_blocker(self):
        region = PlacementRegion(0, 0, 100, 100)
        blocked = blocked_area_grid(region, [Macro("m", 50, 50, x=0, y=0)], 4, 4)
        assert blocked[0, 0] == pytest.approx(625.0)
        assert blocked.sum() == pytest.approx(2500.0)

    def test_spread_pushes_cells_apart(self):
        region = PlacementRegion(0, 0, 100, 100)
        n = 50
        cx = np.full(n, 50.0) + np.linspace(-0.5, 0.5, n)
        cy = np.full(n, 50.0) + np.linspace(-0.5, 0.5, n)
        areas = np.full(n, 4.0)
        blocked = np.zeros((4, 4))
        sx, sy = spread_step(cx, cy, areas, region, blocked, eta=1.0)
        assert sx.std() > cx.std()

    def test_spread_avoids_blocked_bins(self):
        region = PlacementRegion(0, 0, 100, 100)
        n = 40
        rng = np.random.default_rng(0)
        cx = rng.uniform(0, 100, n)
        cy = np.full(n, 50.0)
        areas = np.full(n, 2.0)
        blocked = np.zeros((4, 4))
        blocked[:, 0] = 625.0  # left quarter fully blocked
        sx, _sy = spread_step(cx, cy, areas, region, blocked, eta=1.0)
        assert (sx > 20.0).mean() > 0.9

    def test_damping_limits_motion(self):
        region = PlacementRegion(0, 0, 100, 100)
        cx = np.array([50.0, 50.1])
        cy = np.array([50.0, 50.0])
        areas = np.array([1.0, 1.0])
        blocked = np.zeros((2, 2))
        sx0, _ = spread_step(cx, cy, areas, region, blocked, eta=0.0)
        np.testing.assert_allclose(sx0, cx)


class TestMixedSizePlacer:
    def test_reduces_hpwl(self, small_design):
        before = hpwl(small_design.netlist)
        result = MixedSizePlacer(n_iterations=2).place(small_design)
        assert result.hpwl < before

    def test_macros_legal_after_place(self, small_design):
        result = MixedSizePlacer(n_iterations=2).place(small_design)
        assert result.macro_overlap == 0.0
        assert macro_overlap_area(small_design) < 1e-9

    def test_everything_inside_region(self, small_design):
        MixedSizePlacer(n_iterations=2).place(small_design)
        for node in small_design.netlist:
            if not node.fixed:
                assert small_design.region.contains(node, tol=1e-6)

    def test_cells_only_mode_keeps_macros(self, placed_design):
        macro_pos = {
            m.name: (m.x, m.y) for m in placed_design.netlist.macros
        }
        MixedSizePlacer(n_iterations=2).place(placed_design, move_macros=False)
        for name, (x, y) in macro_pos.items():
            node = placed_design.netlist[name]
            assert (node.x, node.y) == (x, y)

    def test_cells_only_mode_keeps_macro_bits(self, placed_design):
        """Only the cells are written back: a macro whose lower-left does
        not survive the trip through its center, ``(x + w/2) - w/2``,
        keeps its exact bits too."""
        rng = np.random.default_rng(3)
        region = placed_design.region
        macros = placed_design.netlist.movable_macros
        for _ in range(5):
            for m in macros:
                m.x = float(rng.uniform(region.x, region.x_max - m.width))
                m.y = float(rng.uniform(region.y, region.y_max - m.height))
            before = [(m.x, m.y) for m in placed_design.netlist.macros]
            place_cells_with_fixed_macros(placed_design, n_iterations=2)
            assert [(m.x, m.y) for m in placed_design.netlist.macros] == before

    def test_place_cells_with_fixed_macros_returns_hpwl(self, placed_design):
        wl = place_cells_with_fixed_macros(placed_design, n_iterations=2)
        assert wl == pytest.approx(hpwl(placed_design.netlist), rel=1e-9)
        assert wl > 0

    def test_deterministic(self, small_design):
        import copy

        d2 = copy.deepcopy(small_design)
        r1 = MixedSizePlacer(n_iterations=2).place(small_design)
        r2 = MixedSizePlacer(n_iterations=2).place(d2)
        assert r1.hpwl == pytest.approx(r2.hpwl)


class TestGreedyLegalizer:
    def test_clears_overlap(self):
        nl = Netlist()
        for i in range(4):
            nl.add_node(Macro(f"m{i}", 10, 10, x=5.0, y=5.0))
        design = Design(netlist=nl, region=PlacementRegion(0, 0, 100, 100))
        residual = legalize_macros_greedy(design)
        assert residual == 0.0
        assert macro_overlap_area(design) < 1e-9

    def test_respects_preplaced(self):
        nl = Netlist()
        nl.add_node(Macro("pp", 20, 20, x=40.0, y=40.0, fixed=True))
        nl.add_node(Macro("mv", 10, 10, x=45.0, y=45.0))
        design = Design(netlist=nl, region=PlacementRegion(0, 0, 100, 100))
        legalize_macros_greedy(design)
        assert not nl["pp"].overlaps(nl["mv"])
        assert (nl["pp"].x, nl["pp"].y) == (40.0, 40.0)

    def test_no_macros_is_noop(self):
        nl = Netlist()
        nl.add_node(Cell("c", 1, 1))
        design = Design(netlist=nl, region=PlacementRegion(0, 0, 10, 10))
        assert legalize_macros_greedy(design) == 0.0

    def test_stays_in_region(self):
        nl = Netlist()
        for i in range(6):
            nl.add_node(Macro(f"m{i}", 30, 30, x=90.0, y=90.0))
        design = Design(netlist=nl, region=PlacementRegion(0, 0, 100, 100))
        legalize_macros_greedy(design)
        for m in nl.macros:
            assert design.region.contains(m, tol=1e-6)


def _reference_legalize_macros_greedy(design, max_radius_steps=24):
    """The spiral scan one candidate and one placed rectangle at a time.

    The oracle :func:`legalize_macros_greedy` must match bit for bit.
    """
    region = design.region
    placed = [(m.x, m.y, m.width, m.height) for m in design.netlist.preplaced_macros]
    movable = sorted(design.netlist.movable_macros, key=lambda m: -m.area)
    if not movable:
        return 0.0
    step = max(
        min(region.width, region.height) / (2.0 * max_radius_steps),
        min(min(m.width, m.height) for m in movable) / 2.0,
    )

    def collides(x, y, w, h):
        return any(
            x < px + pw and px < x + w and y < py + ph and py < y + h
            for px, py, pw, ph in placed
        )

    residual = []
    for macro in movable:
        tx, ty = macro.x, macro.y
        best = None
        for ring in range(max_radius_steps + 1):
            if ring == 0:
                candidates = [(tx, ty)]
            else:
                r = ring * step
                n_angles = max(8, ring * 8)
                candidates = []
                for a in range(n_angles):
                    theta = 2.0 * math.pi * a / n_angles
                    candidates.append(
                        (tx + r * math.cos(theta), ty + r * math.sin(theta))
                    )
            found = None
            for cx_, cy_ in candidates:
                x = min(max(cx_, region.x), region.x_max - macro.width)
                y = min(max(cy_, region.y), region.y_max - macro.height)
                if not collides(x, y, macro.width, macro.height):
                    d = (x - tx) ** 2 + (y - ty) ** 2
                    if found is None or d < found[0]:
                        found = (d, x, y)
            if found is not None:
                best = (found[1], found[2])
                break
        if best is None:
            best = (
                min(max(tx, region.x), max(region.x, region.x_max - macro.width)),
                min(max(ty, region.y), max(region.y, region.y_max - macro.height)),
            )
            residual.append(best)
        macro.x, macro.y = best
        placed.append((macro.x, macro.y, macro.width, macro.height))
    if not residual:
        return 0.0
    return _total_overlap(
        [(m.x, m.y, m.width, m.height) for m in movable]
        + [(m.x, m.y, m.width, m.height) for m in design.netlist.preplaced_macros]
    )


def _macro_bits(design):
    return [(m.name, float(m.x).hex(), float(m.y).hex()) for m in design.netlist.macros]


def _crowded_design():
    """More macro area than the region holds: some macro finds no slot."""
    nl = Netlist()
    nl.add_node(Macro("pp", 30, 30, x=35.0, y=35.0, fixed=True))
    for i in range(5):
        nl.add_node(Macro(f"m{i}", 45, 40 + i, x=20.0 + 7 * i, y=30.0))
    return Design(netlist=nl, region=PlacementRegion(0, 0, 100, 100))


class TestGreedyLegalizerOracle:
    """``legalize_macros_greedy`` against the candidate-at-a-time reference."""

    @staticmethod
    def _assert_matches(design, **kwargs):
        mine, reference = copy.deepcopy(design), copy.deepcopy(design)
        got = legalize_macros_greedy(mine, **kwargs)
        want = _reference_legalize_macros_greedy(reference, **kwargs)
        assert float(got).hex() == float(want).hex()
        assert _macro_bits(mine) == _macro_bits(reference)
        return got

    def test_design_with_preplaced_macros(self):
        design = make_industrial_circuit("Cir1").design
        assert design.netlist.preplaced_macros
        for m in design.netlist.movable_macros:  # pile them up mid-region
            m.x = design.region.x + 0.4 * design.region.width
            m.y = design.region.y + 0.4 * design.region.height
        assert self._assert_matches(design) == 0.0

    def test_scattered_small_design(self, small_design):
        rng = np.random.default_rng(3)
        region = small_design.region
        for m in small_design.netlist.movable_macros:
            m.x = float(rng.uniform(region.x, region.x_max))
            m.y = float(rng.uniform(region.y, region.y_max))
        self._assert_matches(small_design)
        self._assert_matches(small_design, max_radius_steps=3)

    def test_abutting_macros_stay(self):
        """Rectangles that only share an edge do not collide."""
        nl = Netlist()
        nl.add_node(Macro("pp", 10, 10, x=0.0, y=0.0, fixed=True))
        nl.add_node(Macro("right", 10, 10, x=10.0, y=0.0))
        nl.add_node(Macro("above", 10, 8, x=0.0, y=10.0))
        design = Design(netlist=nl, region=PlacementRegion(0, 0, 50, 50))
        assert self._assert_matches(design) == 0.0
        legalize_macros_greedy(design)
        assert (nl["right"].x, nl["above"].y) == (10.0, 10.0)

    @pytest.mark.parametrize("steps", [1, 4, 24])
    def test_no_free_slot_leaves_residual(self, steps):
        assert self._assert_matches(_crowded_design(), max_radius_steps=steps) > 0


def _coordinate(lo, hi):
    """Floats in [lo, hi], half of them on the integer lattice, where
    touching rectangles and equal candidate distances are common."""
    return st.one_of(
        st.integers(math.ceil(lo), math.floor(hi)).map(float),
        st.floats(lo, hi, allow_nan=False),
    )


@st.composite
def _greedy_inputs(draw):
    """A region, macros in and around it (preplaced ones among them, some
    wider or taller than the region), and a spiral length."""
    rx, ry = draw(_coordinate(-50, 50)), draw(_coordinate(-50, 50))
    rw, rh = draw(_coordinate(10, 150)), draw(_coordinate(10, 150))
    macros = [
        (
            draw(_coordinate(1, 1.2 * rw)),
            draw(_coordinate(1, 1.2 * rh)),
            draw(_coordinate(rx - 0.2 * rw, rx + 1.1 * rw)),
            draw(_coordinate(ry - 0.2 * rh, ry + 1.1 * rh)),
            draw(st.booleans()),
        )
        for _ in range(draw(st.integers(1, 12)))
    ]
    return (rx, ry, rw, rh), macros, draw(st.sampled_from([1, 2, 5, 9, 24]))


def _greedy_design(region, macros):
    nl = Netlist()
    for i, (w, h, x, y, fixed) in enumerate(macros):
        nl.add_node(Macro(f"m{i}", w, h, x=x, y=y, fixed=fixed))
    return Design(netlist=nl, region=PlacementRegion(*region))


class TestGreedyLegalizerProperty:
    """Random rectangles: the chunked spiral scan equals the
    candidate-at-a-time reference, residual and every coordinate."""

    @settings(max_examples=150, deadline=None)
    @given(_greedy_inputs())
    @example(  # a macro wider than the region, a preplaced blocker
        ((0.0, 0.0, 50.0, 50.0), [(60.0, 10.0, 5.0, 5.0, False),
                                  (10.0, 10.0, 20.0, 20.0, True),
                                  (10.0, 10.0, 20.0, 20.0, False)], 24)
    )
    @example(  # more macro area than the region holds: no free slot
        ((0.0, 0.0, 100.0, 100.0),
         [(30.0, 30.0, 35.0, 35.0, True)]
         + [(45.0, 40.0 + i, 20.0 + 7 * i, 30.0, False) for i in range(5)], 24)
    )
    @example(  # ring 1's one free slot (d = 5) beats a closer one in ring 2
        ((0.0, 0.0, 100.0, 100.0),
         [(20.0, 53.7, 80.0, 0.0, True), (10.0, 10.0, 89.9, 50.0, False)], 24)
    )
    @example(  # the clamp's ties keep the candidate's signed zero
        ((0.0, 0.0, 10.0, 10.0), [(10.0, 10.0, -0.0, -0.0, False)], 24)
    )
    def test_matches_reference(self, case):
        region, macros, steps = case
        design = _greedy_design(region, macros)
        TestGreedyLegalizerOracle._assert_matches(design, max_radius_steps=steps)


class TestUnconvergedConjugateGradients:
    """A conjugate-gradient QP solve that stops unconverged keeps its
    positions and is reported: to ``on_unconverged``, and in a flow as a
    ``degradation`` event (``solver="cg"``)."""

    @pytest.fixture
    def cg_everywhere(self, monkeypatch):
        """Every QP solved by ``spla.cg``; returns a setter of the flag its
        stand-in reports (the real solve's positions either way)."""
        import scipy.sparse.linalg as spla

        from repro.gp import quadratic

        real = spla.cg
        flag = {"info": 0}

        def cg(A, b, **kwargs):
            x, _ = real(A, b, **kwargs)
            return x, flag["info"]

        monkeypatch.setattr(quadratic, "LU_MAX_UNKNOWNS", 0)
        monkeypatch.setattr(spla, "cg", cg)
        return flag

    def test_solve_reports_each_axis_and_keeps_positions(self, cg_everywhere):
        nl = two_fixed_one_free()
        flat = FlatNetlist(nl)
        movable = ~flat.fixed
        want = solve_quadratic_placement(flat, movable, (5.0, 5.0), apply=False)
        cg_everywhere["info"] = 1
        reports = []
        got = solve_quadratic_placement(
            flat, movable, (5.0, 5.0), apply=False,
            on_unconverged=lambda axis, info: reports.append((axis, info)),
        )
        assert reports == [("x", 1), ("y", 1)]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_a_flow_logs_them_with_unchanged_results(self, cg_everywhere):
        from repro.core import MCTSGuidedPlacer, PlacerConfig

        def run():
            design = make_iccad04_circuit("ibm01", scale=0.004, macro_scale=0.04).design
            return MCTSGuidedPlacer(PlacerConfig.fast(seed=3)).place(design)

        want = run()
        cg_everywhere["info"] = 1
        got = run()
        assert got.hpwl.hex() == want.hpwl.hex()
        assert not [e for e in want.events.of("degradation") if e.data["solver"] == "cg"]
        cg = [e for e in got.events.of("degradation") if e.data["solver"] == "cg"]
        assert {e.data["info"] for e in cg} == {1}
        assert {e.data["axis"] for e in cg} == {"x", "y"}
        assert "prototype" in {e.stage for e in cg}
        assert {e.data.get("step") for e in cg} >= {"cell_groups", "macro_refine", "cell_place"}

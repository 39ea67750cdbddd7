"""HPWL engine tests: object-model evaluation, flat view, and equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.hpwl import FlatNetlist, hpwl, net_hpwl
from repro.netlist.model import (
    Cell,
    Design,
    IOPad,
    Macro,
    Net,
    Netlist,
    Pin,
    PlacementRegion,
)
from repro.verify import verify_placement


def chain_netlist(positions: list[tuple[float, float]]) -> Netlist:
    """Cells at given centers connected pairwise in a chain."""
    nl = Netlist()
    for i, (x, y) in enumerate(positions):
        c = Cell(f"c{i}", 0.0, 0.0)
        c.move_center_to(x, y)
        nl.add_node(c)
    for i in range(len(positions) - 1):
        nl.add_net(Net(f"n{i}", pins=[Pin(f"c{i}"), Pin(f"c{i+1}")]))
    return nl


class TestObjectModelHPWL:
    def test_two_pin_net(self):
        nl = chain_netlist([(0, 0), (3, 4)])
        assert net_hpwl(nl, nl.nets[0]) == pytest.approx(7.0)

    def test_single_pin_net_is_zero(self):
        nl = Netlist()
        nl.add_node(Cell("c", 1, 1))
        net = Net("n", pins=[Pin("c")])
        nl.add_net(net)
        assert net_hpwl(nl, net) == 0.0

    def test_pin_offsets_respected(self):
        nl = Netlist()
        nl.add_node(Cell("a", 4.0, 2.0, x=0.0, y=0.0))
        nl.add_node(Cell("b", 4.0, 2.0, x=10.0, y=0.0))
        net = Net("n", pins=[Pin("a", dx=1.0), Pin("b", dx=-1.0)])
        nl.add_net(net)
        # centers at x=2 and x=12; pins at 3 and 11.
        assert net_hpwl(nl, net) == pytest.approx(8.0)

    def test_total_weighted(self):
        nl = chain_netlist([(0, 0), (1, 0), (2, 0)])
        nl.nets[0].weight = 3.0
        assert hpwl(nl) == pytest.approx(2.0)
        assert hpwl(nl, weighted=True) == pytest.approx(3.0 + 1.0)

    def test_multi_pin_bbox(self):
        nl = Netlist()
        for i, (x, y) in enumerate([(0, 0), (10, 2), (4, 8)]):
            c = Cell(f"c{i}", 0, 0)
            c.move_center_to(x, y)
            nl.add_node(c)
        nl.add_net(Net("n", pins=[Pin("c0"), Pin("c1"), Pin("c2")]))
        assert hpwl(nl) == pytest.approx(10.0 + 8.0)


class TestFlatNetlist:
    def test_matches_object_model(self, placed_design):
        flat = FlatNetlist(placed_design.netlist)
        assert flat.total_hpwl() == pytest.approx(hpwl(placed_design.netlist))

    def test_weighted_matches_object_model(self, placed_design):
        for i, net in enumerate(placed_design.netlist.nets):
            net.weight = 1.0 + (i % 3)
        flat = FlatNetlist(placed_design.netlist)
        assert flat.total_hpwl(weighted=True) == pytest.approx(
            hpwl(placed_design.netlist, weighted=True)
        )

    def test_degenerate_nets_dropped(self):
        nl = Netlist()
        nl.add_node(Cell("c", 1, 1))
        nl.add_net(Net("single", pins=[Pin("c")]))
        nl.add_net(Net("empty", pins=[]))
        flat = FlatNetlist(nl)
        assert flat.n_nets == 0
        assert flat.total_hpwl() == 0.0

    def test_set_centers_moves_hpwl(self):
        nl = chain_netlist([(0, 0), (10, 0)])
        flat = FlatNetlist(nl)
        before = flat.total_hpwl()
        flat.set_centers(np.array([1]), np.array([20.0]), np.array([0.0]))
        assert flat.total_hpwl() == pytest.approx(20.0)
        assert before == pytest.approx(10.0)

    def test_writeback_roundtrip(self):
        nl = chain_netlist([(0, 0), (10, 0)])
        flat = FlatNetlist(nl)
        flat.cx[0] = 5.0
        flat.writeback()
        assert nl["c0"].cx == pytest.approx(5.0)

    def test_refresh_from_model(self):
        nl = chain_netlist([(0, 0), (10, 0)])
        flat = FlatNetlist(nl)
        nl["c0"].move_center_to(3.0, 4.0)
        flat.reload()
        assert flat.cx[0] == pytest.approx(3.0)
        assert flat.cy[0] == pytest.approx(4.0)

    def test_per_net_hpwl_shape(self, placed_design):
        flat = FlatNetlist(placed_design.netlist)
        per_net = flat.per_net_hpwl()
        assert per_net.shape == (flat.n_nets,)
        assert (per_net >= 0).all()

    def test_nets_of_node(self):
        nl = chain_netlist([(0, 0), (1, 0), (2, 0)])
        flat = FlatNetlist(nl)
        incidence = flat.nets_of_node()
        assert incidence[0] == [0]
        assert incidence[1] == [0, 1]
        assert incidence[2] == [1]

    def test_empty_netlist(self):
        flat = FlatNetlist(Netlist())
        assert flat.total_hpwl() == 0.0
        assert flat.n_nodes == 0


class TestHPWLProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e3, 1e3, allow_nan=False),
                st.floats(-1e3, 1e3, allow_nan=False),
            ),
            min_size=2,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_translation_invariance(self, points):
        """HPWL is invariant under a rigid translation of everything."""
        nl = chain_netlist(points)
        flat = FlatNetlist(nl)
        base = flat.total_hpwl()
        flat.cx += 123.0
        flat.cy -= 45.0
        assert flat.total_hpwl() == pytest.approx(base, rel=1e-9, abs=1e-9)

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e3, 1e3, allow_nan=False),
                st.floats(-1e3, 1e3, allow_nan=False),
            ),
            min_size=2,
            max_size=8,
        ),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_scaling_homogeneity(self, points, k):
        """Scaling all coordinates by k scales HPWL by k."""
        nl = chain_netlist(points)
        flat = FlatNetlist(nl)
        base = flat.total_hpwl()
        flat.cx *= k
        flat.cy *= k
        assert flat.total_hpwl() == pytest.approx(k * base, rel=1e-9, abs=1e-6)

    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False),
                st.floats(-100, 100, allow_nan=False),
            ),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_flat_matches_object(self, points):
        nl = chain_netlist(points)
        flat = FlatNetlist(nl)
        total = flat.total_hpwl()
        assert total >= 0.0
        assert total == pytest.approx(hpwl(nl), rel=1e-9, abs=1e-9)


@st.composite
def _random_netlists(draw):
    """Macros, cells and pads at random positions, fixed and movable, joined
    by weighted nets of one to six pins with random pin offsets."""
    coord = st.floats(-1e4, 1e4, allow_nan=False)
    size = st.floats(0.0, 200.0, allow_nan=False)
    nl = Netlist()
    kinds = (Macro, Cell, IOPad)
    n_nodes = draw(st.integers(1, 12))
    for i in range(n_nodes):
        kind = draw(st.sampled_from(kinds))
        nl.add_node(kind(f"n{i}", draw(size), draw(size), x=draw(coord),
                         y=draw(coord), fixed=draw(st.booleans())))
    offset = st.floats(-100.0, 100.0, allow_nan=False)
    for k in range(draw(st.integers(0, 40))):
        pins = [
            Pin(f"n{draw(st.integers(0, n_nodes - 1))}", draw(offset), draw(offset))
            for _ in range(draw(st.integers(1, 6)))
        ]
        nl.add_net(Net(f"e{k}", pins=pins, weight=draw(st.floats(0.1, 10.0))))
    return nl


class TestVerifierHPWLProperty:
    """The verifier's HPWL (:func:`hpwl`, a Python loop over the object
    model) equals the placer's (:meth:`FlatNetlist.total_hpwl`, vectorized):
    both take every pin at ``node.c + offset`` and each net's span
    exactly, and sum the nets in different orders.  Summing n nonnegative
    terms either way errs by at most ``(n - 1) * eps / 2`` of the total,
    so they differ by at most ``n * eps`` of it."""

    @settings(max_examples=200, deadline=None)
    @given(_random_netlists(), st.booleans())
    def test_verifier_and_placer_agree(self, nl, weighted):
        placer = FlatNetlist(nl).total_hpwl(weighted=weighted)
        verifier = hpwl(nl, weighted=weighted)
        tol = len(nl.nets) * np.finfo(float).eps * max(placer, verifier)
        assert abs(verifier - placer) <= tol
        report = verify_placement(
            Design(netlist=nl, region=PlacementRegion(-1e4, -1e4, 2e4, 2e4)),
            reported_hpwl=FlatNetlist(nl).total_hpwl(),
        )
        (check,) = [c for c in report.checks if c.name == "hpwl_recompute"]
        assert check.ok, check.detail

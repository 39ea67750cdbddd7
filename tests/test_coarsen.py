"""Coarsening tests: scores Γ/φ, greedy clustering, coarse netlist."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.coarsen.cluster import (
    cluster_cells,
    cluster_macros,
    greedy_cluster,
    singleton_groups,
)
from repro.coarsen.coarse import coarsen_design
from repro.coarsen.groups import Group, GroupKind
from repro.coarsen.knn import CentroidIndex
from repro.coarsen.scores import (
    GammaParams,
    PhiParams,
    gamma_score,
    phi_score,
)
from repro.grid.plan import GridPlan
from repro.netlist.model import Macro, Net, Pin
from repro.netlist.suites import ICCAD04_STATS, INDUSTRIAL_STATS
from tests.coarsen_oracles import coarsen_both, placed_suite_design


def make_group(gid, cx, cy, area=10.0, hierarchy="", kind=GroupKind.MACRO):
    return Group(
        gid=gid, kind=kind, members=[f"n{gid}"], area=area, cx=cx, cy=cy,
        hierarchy=hierarchy, bbox=(cx - 1, cy - 1, cx + 1, cy + 1),
    )


class TestGammaScore:
    def test_distance_dominates(self):
        near = gamma_score(make_group(0, 0, 0), make_group(1, 1, 0), 0.0)
        far = gamma_score(make_group(0, 0, 0), make_group(1, 100, 0), 0.0)
        assert near > far

    def test_hierarchy_term(self):
        p = GammaParams(delta=10.0)
        a = make_group(0, 0, 0, hierarchy="top/cpu/alu")
        b_same = make_group(1, 10, 0, hierarchy="top/cpu/fpu")
        b_other = make_group(2, 10, 0, hierarchy="io/uart")
        assert gamma_score(a, b_same, 0.0, p) > gamma_score(a, b_other, 0.0, p)

    def test_connectivity_term(self):
        a, b = make_group(0, 0, 0), make_group(1, 10, 0)
        assert gamma_score(a, b, 100.0) > gamma_score(a, b, 0.0)

    def test_area_similarity_term(self):
        a = make_group(0, 0, 0, area=10.0)
        b_same = make_group(1, 10, 0, area=10.0)
        b_diff = make_group(2, 10, 0, area=100.0)
        assert gamma_score(a, b_same, 0.0) > gamma_score(a, b_diff, 0.0)

    def test_zero_distance_guarded(self):
        a, b = make_group(0, 5, 5), make_group(1, 5, 5)
        assert np.isfinite(gamma_score(a, b, 0.0))

    def test_symmetry(self):
        a = make_group(0, 0, 0, area=5.0, hierarchy="t/x")
        b = make_group(1, 7, 3, area=9.0, hierarchy="t/y")
        assert gamma_score(a, b, 2.0) == pytest.approx(gamma_score(b, a, 2.0))


class TestPhiScore:
    def test_distance_dominates(self):
        near = phi_score(make_group(0, 0, 0), make_group(1, 1, 0), 0.0)
        far = phi_score(make_group(0, 0, 0), make_group(1, 50, 0), 0.0)
        assert near > far

    def test_connectivity_normalized_by_area(self):
        small = phi_score(
            make_group(0, 0, 0, area=1.0), make_group(1, 10, 0, area=1.0), 4.0
        )
        big = phi_score(
            make_group(0, 0, 0, area=100.0), make_group(1, 10, 0, area=100.0), 4.0
        )
        assert small > big

    def test_symmetry(self):
        a = make_group(0, 0, 0, area=2.0)
        b = make_group(1, 3, 4, area=8.0)
        assert phi_score(a, b, 1.0) == pytest.approx(phi_score(b, a, 1.0))


class TestGroupMerging:
    def test_merged_centroid_is_area_weighted(self):
        a = make_group(0, 0.0, 0.0, area=10.0)
        b = make_group(1, 10.0, 0.0, area=30.0)
        m = a.merged_with(b, gid=2)
        assert m.cx == pytest.approx(7.5)
        assert m.area == 40.0

    def test_merged_members_concatenate(self):
        m = make_group(0, 0, 0).merged_with(make_group(1, 1, 1), gid=2)
        assert m.members == ["n0", "n1"]

    def test_merged_hierarchy_is_common_prefix(self):
        a = make_group(0, 0, 0, hierarchy="top/cpu/alu")
        b = make_group(1, 1, 1, hierarchy="top/cpu/fpu")
        assert a.merged_with(b, 2).hierarchy == "top/cpu"

    def test_merged_bbox_unions(self):
        a = make_group(0, 0, 0)
        b = make_group(1, 10, 10)
        m = a.merged_with(b, 2)
        assert m.bbox == (-1, -1, 11, 11)

    def test_shape_preserves_area(self):
        g = make_group(0, 0, 0, area=36.0)
        w, h = g.shape()
        assert w * h == pytest.approx(36.0)

    def test_shape_clamps_aspect(self):
        g = make_group(0, 0, 0, area=16.0)
        g.bbox = (0.0, 0.0, 100.0, 1.0)  # extreme aspect
        w, h = g.shape(max_aspect=2.0)
        assert w / h == pytest.approx(2.0)

    def test_of_node_captures_attributes(self):
        m = Macro("m", 4.0, 2.0, x=10.0, y=20.0, hierarchy="a/b")
        g = Group.of_node(5, m, GroupKind.MACRO)
        assert g.area == 8.0
        assert (g.cx, g.cy) == (12.0, 21.0)
        assert g.hierarchy == "a/b"


class TestGreedyCluster:
    def _seeds(self, positions, area=4.0):
        return [
            make_group(i, x, y, area=area) for i, (x, y) in enumerate(positions)
        ]

    def test_close_pair_merges(self):
        seeds = self._seeds([(0, 0), (0.5, 0), (100, 100)])
        out = greedy_cluster(seeds, [], lambda a, b, w: gamma_score(a, b, w),
                             max_area=100.0, threshold=0.5)
        sizes = sorted(len(g.members) for g in out)
        assert sizes == [1, 2]

    def test_max_area_respected(self):
        seeds = self._seeds([(0, 0), (0.1, 0), (0.2, 0)], area=60.0)
        out = greedy_cluster(seeds, [], lambda a, b, w: gamma_score(a, b, w),
                             max_area=100.0, threshold=0.0)
        assert all(g.area <= 120.0 for g in out)
        # No group can absorb a third member (2*60 > 100 already blocks pairs)
        assert all(len(g.members) == 1 for g in out)

    def test_threshold_stops_merging(self):
        seeds = self._seeds([(0, 0), (1000, 1000)])
        out = greedy_cluster(seeds, [], lambda a, b, w: gamma_score(a, b, w),
                             max_area=1e9, threshold=10.0)
        assert len(out) == 2

    def test_connectivity_drives_merges(self):
        seeds = self._seeds([(0, 0), (50, 0), (50.1, 100)])
        nets = [Net("n", pins=[Pin("n0"), Pin("n1")], weight=1.0)] * 5
        score = lambda a, b, w: 1e-6 + w  # connectivity-only score
        out = greedy_cluster(seeds, nets, score, max_area=1e9, threshold=0.5)
        merged = [g for g in out if len(g.members) == 2]
        assert merged and set(merged[0].members) == {"n0", "n1"}

    def test_members_conserved(self, placed_design):
        plan_area = 400.0
        groups = cluster_macros(placed_design.netlist, plan_area)
        members = sorted(m for g in groups for m in g.members)
        expected = sorted(m.name for m in placed_design.netlist.movable_macros)
        assert members == expected

    def test_cell_grouping_reduces_count(self, placed_design):
        groups = cluster_cells(placed_design.netlist, max_area=1e9)
        assert 0 < len(groups) < len(placed_design.netlist.cells)

    def test_singleton_groups(self, placed_design):
        pads = placed_design.netlist.pads
        groups = singleton_groups(pads, GroupKind.FIXED, start_gid=100)
        assert len(groups) == len(pads)
        assert groups[0].gid == 100
        assert all(len(g.members) == 1 for g in groups)


class TestCoarsenDesign:
    def test_macro_groups_sorted_by_area(self, coarse_small):
        areas = [g.area for g in coarse_small.macro_groups]
        assert areas == sorted(areas, reverse=True)

    def test_all_movable_macros_covered(self, coarse_small):
        members = sorted(
            m for g in coarse_small.macro_groups for m in g.members
        )
        expected = sorted(
            m.name for m in coarse_small.design.netlist.movable_macros
        )
        assert members == expected

    def test_fixed_groups_cover_pads_and_preplaced(self, coarse_small):
        nl = coarse_small.design.netlist
        assert len(coarse_small.fixed_groups) == len(nl.pads) + len(
            nl.preplaced_macros
        )

    def test_coarse_nets_span_multiple_groups(self, coarse_small):
        for cnet in coarse_small.coarse_nets:
            assert len(cnet.groups) >= 2
            assert len(set(cnet.groups)) == len(cnet.groups)

    def test_coarse_net_weights_accumulate(self, coarse_small):
        total_weight = sum(c.weight for c in coarse_small.coarse_nets)
        assert total_weight > 0
        # Merged projection can never exceed the original net count (all
        # original weights are 1.0 here).
        assert total_weight <= len(coarse_small.design.netlist.nets)

    def test_as_netlist_structure(self, coarse_small):
        nl = coarse_small.as_netlist()
        n_groups = len(coarse_small.all_groups)
        assert len(nl) == n_groups
        assert len(nl.nets) == len(coarse_small.coarse_nets)

    def test_as_netlist_fixed_flags(self, coarse_small):
        nl = coarse_small.as_netlist()
        n_mg = coarse_small.n_macro_groups
        n_cg = len(coarse_small.cell_groups)
        for i in range(len(coarse_small.all_groups)):
            node = nl[coarse_small.group_node_name(i)]
            if i < n_mg + n_cg:
                assert not node.fixed
            else:
                assert node.fixed

    def test_group_span_positive(self, coarse_small):
        for i in range(coarse_small.n_macro_groups):
            rows, cols = coarse_small.group_span(i)
            assert rows >= 1 and cols >= 1

    def test_scatter_macro_group_rigid(self, coarse_small):
        g = coarse_small.macro_groups[0]
        nl = coarse_small.design.netlist
        before = [(nl[m].cx - g.cx, nl[m].cy - g.cy) for m in g.members]
        coarse_small.scatter_macro_group(0, 12.3, 4.5)
        after = [(nl[m].cx - 12.3, nl[m].cy - 4.5) for m in g.members]
        for (bx, by), (ax, ay) in zip(before, after):
            assert ax == pytest.approx(bx)
            assert ay == pytest.approx(by)
        assert (g.cx, g.cy) == (12.3, 4.5)


class TestCentroidIndex:
    """The neighbour index against scipy's ``cKDTree`` (imported by the
    tests only): the same k nearest, ties at the k-th distance going to
    the lowest keys."""

    @staticmethod
    def _points(rng, n):
        """Random reals, or lattice points: duplicates and equal distances."""
        if rng.random() < 0.5:
            return [tuple(p) for p in rng.random((n, 2)) * 100.0]
        return [tuple(p) for p in rng.integers(0, 6, size=(n, 2)).astype(float)]

    @staticmethod
    def _check(index, points, alive, key, k):
        got = index.nearest(key, k)
        x, y = points[key]

        def d2(other):
            dx, dy = x - points[other][0], y - points[other][1]
            return dx * dx + dy * dy

        others = [o for o in alive if o != key]
        if not others:
            assert got == []
            return
        _, idx = cKDTree([points[o] for o in others]).query(
            [x, y], k=min(k, len(others))
        )
        oracle = [others[int(i)] for i in np.atleast_1d(idx)]
        assert got == sorted(got, key=lambda o: (d2(o), o))
        assert sorted(map(d2, got)) == sorted(map(d2, oracle))
        kth = max(map(d2, oracle))
        nearer = [o for o in got if d2(o) < kth]
        assert set(nearer) == {o for o in oracle if d2(o) < kth}
        # the rest are tied at the k-th distance: the lowest keys of all tied
        tied = sorted(o for o in others if d2(o) == kth)
        assert got[len(nearer):] == tied[: len(got) - len(nearer)]

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_the_kdtree_through_merges(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        points = self._points(rng, n)
        index = CentroidIndex((i, x, y) for i, (x, y) in enumerate(points))
        alive = list(range(n))
        while len(alive) > 1:
            for key in rng.permutation(alive)[:10].tolist():
                self._check(index, points, alive, key, int(rng.integers(1, 9)))
            # a merge: two points out, their midpoint or a lattice point in
            a = alive.pop(int(rng.integers(len(alive))))
            b = alive.pop(int(rng.integers(len(alive))))
            index.remove(a)
            index.remove(b)
            if rng.random() < 0.5:
                p = ((points[a][0] + points[b][0]) / 2, (points[a][1] + points[b][1]) / 2)
            else:
                p = tuple(float(v) for v in rng.integers(0, 6, size=2))
            points.append(p)
            index.insert(len(points) - 1, *p)
            alive.append(len(points) - 1)

    def test_ties_go_to_the_lowest_keys(self):
        # four points at distance 1 from the origin, two on top of it
        points = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0),
                  (0.0, 0.0), (0.0, 0.0)]
        index = CentroidIndex((i, x, y) for i, (x, y) in enumerate(points))
        assert index.nearest(0, 1) == [5]
        assert index.nearest(0, 2) == [5, 6]
        assert index.nearest(0, 4) == [5, 6, 1, 2]
        assert index.nearest(1, 3) == [0, 5, 6]
        index.remove(5)
        assert index.nearest(0, 3) == [6, 1, 2]


def _suite_scales():
    """Every suite circuit at the perfbench scales (ibm01 0.01/0.08;
    Cir1's 0.002/0.5 as the CLI passes it on) and at the bench smoke
    budget's; these include the default and full ICCAD04 scale."""
    return [
        (c, s, m) for c in ICCAD04_STATS for s, m in ((0.005, 0.04), (0.01, 0.08))
    ] + [
        (c, s, m) for c in INDUSTRIAL_STATS for s, m in ((0.0004, 2.5), (0.0008, 0.3))
    ]


class TestCoarseningOracle:
    """Coarsening with the index gives what the cKDTree loop gave: the
    same gids, members, centroid bits and coarse nets."""

    @pytest.mark.parametrize(("circuit", "scale", "macro_scale"), _suite_scales())
    def test_suite_circuit_matches(self, circuit, scale, macro_scale):
        ours, oracle = coarsen_both(placed_suite_design(circuit, scale, macro_scale))
        assert ours == oracle

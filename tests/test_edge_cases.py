"""Edge-case and failure-injection tests across modules."""

import numpy as np
import pytest

from repro.coarsen.cluster import CONNECTIVITY_DEGREE_CAP, greedy_cluster
from repro.coarsen.groups import Group, GroupKind
from repro.coarsen.scores import gamma_score
from repro.gp.netmodel import build_quadratic_system
from repro.netlist.hpwl import FlatNetlist
from repro.netlist.model import (
    Cell,
    Design,
    Macro,
    Net,
    Netlist,
    Pin,
    PlacementRegion,
)


def grp(gid, x, y, area=4.0):
    return Group(gid=gid, kind=GroupKind.MACRO, members=[f"n{gid}"],
                 area=area, cx=x, cy=y)


class TestClusteringEdgeCases:
    def test_empty_seed_list(self):
        out = greedy_cluster([], [], lambda a, b, w: 1.0, max_area=10.0,
                             threshold=0.0)
        assert out == []

    def test_single_seed(self):
        out = greedy_cluster([grp(0, 0, 0)], [], lambda a, b, w: 1.0,
                             max_area=10.0, threshold=0.0)
        assert len(out) == 1

    def test_no_spatial_candidates(self):
        """k_spatial=0 with no nets: nothing can merge."""
        seeds = [grp(i, i * 0.01, 0) for i in range(4)]
        out = greedy_cluster(seeds, [], lambda a, b, w: 100.0, max_area=1e9,
                             threshold=0.0, k_spatial=0)
        assert len(out) == 4

    def test_giant_net_ignored_for_connectivity(self):
        """Nets above the degree cap contribute no clustering signal."""
        n = CONNECTIVITY_DEGREE_CAP + 2
        seeds = [grp(i, 1000.0 * i, 0) for i in range(n)]
        giant = Net("g", pins=[Pin(f"n{i}") for i in range(n)], weight=100.0)
        score = lambda a, b, w: w  # connectivity-only  # noqa: E731
        out = greedy_cluster(seeds, [giant], score, max_area=1e9,
                             threshold=0.5, k_spatial=0)
        assert len(out) == n  # nothing merged

    def test_merge_chain_terminates(self):
        """Aggressive scores still terminate (merge count bounded)."""
        seeds = [grp(i, float(i), 0.0, area=1.0) for i in range(12)]
        out = greedy_cluster(seeds, [], lambda a, b, w: 1e9, max_area=1e9,
                             threshold=1.0, k_spatial=3)
        assert len(out) >= 1
        members = sorted(m for g in out for m in g.members)
        assert members == sorted(f"n{i}" for i in range(12))

    def test_gamma_with_empty_hierarchy(self):
        a, b = grp(0, 0, 0), grp(1, 5, 0)
        assert np.isfinite(gamma_score(a, b, 0.0))


class TestNetModelEdgeCases:
    def test_all_fixed_net_contributes_nothing(self):
        nl = Netlist()
        nl.add_node(Cell("a", 0, 0, fixed=True))
        nl.add_node(Cell("b", 0, 0, x=5, fixed=True))
        nl.add_node(Cell("free", 0, 0))
        nl.add_net(Net("n", pins=[Pin("a"), Pin("b")]))
        flat = FlatNetlist(nl)
        system = build_quadratic_system(flat, ~flat.fixed)
        assert system.A.nnz == 0

    def test_zero_weight_net_skipped(self):
        nl = Netlist()
        nl.add_node(Cell("a", 0, 0, fixed=True))
        nl.add_node(Cell("free", 0, 0))
        nl.add_net(Net("n", pins=[Pin("a"), Pin("free")], weight=0.0))
        flat = FlatNetlist(nl)
        system = build_quadratic_system(flat, ~flat.fixed)
        assert system.A.nnz == 0

    def test_star_node_count(self):
        nl = Netlist()
        for i in range(8):
            nl.add_node(Cell(f"c{i}", 0, 0, x=float(i)))
        nl.add_net(Net("big", pins=[Pin(f"c{i}") for i in range(8)]))
        flat = FlatNetlist(nl)
        system = build_quadratic_system(flat, ~flat.fixed, clique_threshold=4)
        assert system.n_star == 1
        assert system.A.shape == (9, 9)


class TestDegenerateDesigns:
    def test_flow_on_single_macro(self):
        from repro.core import MCTSGuidedPlacer, PlacerConfig

        nl = Netlist("one")
        nl.add_node(Macro("m", 4.0, 4.0, x=1.0, y=1.0))
        for i in range(6):
            nl.add_node(Cell(f"c{i}", 1.0, 1.0, x=float(i), y=float(i)))
        nl.add_net(Net("n0", pins=[Pin("m"), Pin("c0"), Pin("c1")]))
        nl.add_net(Net("n1", pins=[Pin("c2"), Pin("c3")]))
        design = Design(netlist=nl, region=PlacementRegion(0, 0, 20, 20))
        result = MCTSGuidedPlacer(PlacerConfig.fast(seed=0)).place(design)
        assert result.hpwl > 0
        assert len(result.assignment) >= 1

    @staticmethod
    def _unplaceable(small_design, preplaced: bool) -> Design:
        """*small_design* with every macro preplaced, or with none at all."""
        import copy

        from repro.netlist.model import NodeKind

        if preplaced:
            design = copy.deepcopy(small_design)
            for node in design.netlist:
                if node.kind is NodeKind.MACRO:
                    node.fixed = True
            return design
        nl = Netlist("cells_only")
        for node in small_design.netlist:
            if node.kind is not NodeKind.MACRO:
                nl.add_node(copy.deepcopy(node))
        for net in small_design.netlist.nets:
            pins = [p for p in net.pins if p.node in nl]
            if len(pins) >= 2:
                nl.add_net(Net(net.name, pins=pins))
        return Design(netlist=nl, region=small_design.region)

    @pytest.mark.parametrize("preplaced", [False, True])
    def test_nothing_to_place_fails_fast(self, small_design, preplaced):
        """No movable macro group: a permanent UsageError right after
        coarsening, not an IndexError from calibration."""
        from repro.core import MCTSGuidedPlacer, PlacerConfig
        from repro.runtime.errors import UsageError

        design = self._unplaceable(small_design, preplaced)
        with pytest.raises(UsageError, match="every macro is preplaced"
                           if preplaced else "has no macros") as info:
            MCTSGuidedPlacer(PlacerConfig.fast()).place(design)
        assert info.value.stage == "preprocess"
        assert info.value.details["design"] == design.netlist.name

    @pytest.mark.parametrize("preplaced", [False, True])
    def test_nothing_to_place_exits_64(self, small_design, preplaced, tmp_path, capsys):
        from repro.cli import main
        from repro.netlist.bookshelf import write_design

        aux = write_design(self._unplaceable(small_design, preplaced), str(tmp_path))
        assert main(["place", "--aux", aux, "--preset", "fast"]) == 64
        assert "nothing to place" in capsys.readouterr().err

    def test_macro_larger_than_grid_cell(self):
        """A macro spanning many grid cells still places legally."""
        from repro.coarsen import coarsen_design
        from repro.env import MacroGroupPlacementEnv
        from repro.eval.metrics import macro_overlap_area
        from repro.gp.mixed_size import MixedSizePlacer
        from repro.grid.plan import GridPlan

        nl = Netlist("big")
        nl.add_node(Macro("huge", 30.0, 30.0, x=0.0, y=0.0))
        nl.add_node(Macro("small", 5.0, 5.0, x=40.0, y=40.0))
        for i in range(10):
            nl.add_node(Cell(f"c{i}", 1.0, 1.0, x=float(i * 3), y=float(i * 3)))
        nl.add_net(Net("n", pins=[Pin("huge"), Pin("small"), Pin("c0")]))
        design = Design(netlist=nl, region=PlacementRegion(0, 0, 64, 64))
        MixedSizePlacer(n_iterations=2).place(design)
        coarse = coarsen_design(design, GridPlan(design.region, zeta=8))
        env = MacroGroupPlacementEnv(coarse, cell_place_iters=1)
        env.evaluate_assignment([0] * env.n_steps)
        assert macro_overlap_area(design) < 1e-9
        assert design.region.contains(nl["huge"], tol=1e-6)

    def test_design_with_no_nets(self):
        from repro.gp.mixed_size import MixedSizePlacer

        nl = Netlist("disconnected")
        nl.add_node(Macro("m", 3.0, 3.0))
        for i in range(4):
            nl.add_node(Cell(f"c{i}", 1.0, 1.0))
        design = Design(netlist=nl, region=PlacementRegion(0, 0, 10, 10))
        result = MixedSizePlacer(n_iterations=2).place(design)
        assert result.hpwl == 0.0
        assert design.region.contains(nl["m"], tol=1e-6)

    def test_environment_saturated_die(self):
        """When availability vanishes everywhere the fallback mask keeps
        episodes completable."""
        from repro.coarsen import coarsen_design
        from repro.env import MacroGroupPlacementEnv
        from repro.gp.mixed_size import MixedSizePlacer
        from repro.grid.plan import GridPlan

        nl = Netlist("tight")
        # Macros covering most of the die: availability goes to ~0 fast.
        for i in range(4):
            nl.add_node(Macro(f"m{i}", 9.0, 9.0, x=float(i), y=float(i)))
        for i in range(8):
            nl.add_node(Cell(f"c{i}", 1.0, 1.0, x=float(i), y=float(i)))
        nl.add_net(Net("n", pins=[Pin("m0"), Pin("m1"), Pin("c0")]))
        design = Design(netlist=nl, region=PlacementRegion(0, 0, 20, 20))
        MixedSizePlacer(n_iterations=2).place(design)
        coarse = coarsen_design(design, GridPlan(design.region, zeta=4))
        env = MacroGroupPlacementEnv(coarse, cell_place_iters=1)
        record = env.play_random_episode(rng=0)
        assert len(record.actions) == env.n_steps
        assert np.isfinite(record.wirelength)

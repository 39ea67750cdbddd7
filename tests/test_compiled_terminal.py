"""Compiled terminal evaluation against the from-scratch builders, bit for bit.

Terminal evaluation keeps each netlist's pin table and QP plans, with
their LU factors, between calls (:class:`repro.gp.quadratic.CompiledQP`,
owned by :class:`IncrementalMacroLegalizer` and by the environment's cell
placement).  These tests hold every compiled array, every solution and
every terminal evaluation on the suite designs to the from-scratch path
(:class:`FlatNetlist`, :func:`build_quadratic_system`,
:class:`MacroLegalizer`, :func:`place_cells_with_fixed_macros` without
compiled state) byte for byte.
"""

import copy

import numpy as np
import pytest

from repro.core.config import PlacerConfig
from repro.core.flow import MCTSGuidedPlacer
from repro.gp.mixed_size import place_cells_with_fixed_macros
from repro.gp.netmodel import build_quadratic_system
from repro.gp.quadratic import CompiledQP, solve_quadratic_placement
from repro.legalize import lp_spread
from repro.legalize.pipeline import IncrementalMacroLegalizer, MacroLegalizer
from repro.netlist.hpwl import FlatNetlist
from repro.netlist.model import Cell, Net, Netlist, NodeKind, Pin
from repro.netlist.suites import make_iccad04_circuit, make_industrial_circuit
from repro.runtime import faults
from repro.runtime.faults import Fault, FaultPlan
from repro.utils.timer import Stopwatch

DESIGNS = ["ibm01", "Cir1"]
_CONFIG = PlacerConfig.benchmark(seed=0)
_COARSE = {}


def _coarse(name):
    """Suite design *name* after the flow's prototype placement and
    coarsening, built once per test run; callers get a private copy."""
    if name not in _COARSE:
        entry = (
            make_iccad04_circuit(name)
            if name.startswith("ibm")
            else make_industrial_circuit(name)
        )
        _COARSE[name] = MCTSGuidedPlacer(_CONFIG).preprocess(
            entry.design, Stopwatch()
        )
    return copy.deepcopy(_COARSE[name])


def _assignments(coarse, n, seed):
    rng = np.random.default_rng(seed)
    return [
        [int(a) for a in rng.integers(0, coarse.plan.n_grids, coarse.n_macro_groups)]
        for _ in range(n)
    ]


def _positions(netlist) -> bytes:
    return np.array([(node.x, node.y) for node in netlist]).tobytes()


def _flat_bytes(flat):
    arrays = (
        flat.pin_node, flat.pin_dx, flat.pin_dy, flat.net_ptr, flat.net_weight,
        flat.width, flat.height, flat.cx, flat.cy, flat.fixed,
    )
    return (
        tuple(a.dtype.str + ":" + a.tobytes().hex() for a in arrays),
        [id(net) for net in flat.kept_nets],
    )


def _system_bytes(system):
    return tuple(
        a.tobytes()
        for a in (
            system.A.indptr, system.A.indices, system.A.data,
            system.bx, system.by, system.movable,
        )
    )


def _jitter(netlist, rng):
    """Move every movable node, as a new assignment would."""
    for node in netlist:
        if not node.fixed:
            node.x += float(rng.uniform(-3.0, 3.0))
            node.y += float(rng.uniform(-3.0, 3.0))


def _step1_netlist(coarse):
    """The coarse netlist legalizer step 1 solves over, macro groups fixed."""
    netlist = coarse.as_netlist()
    for i in range(coarse.n_macro_groups):
        netlist[coarse.group_node_name(i)].fixed = True
    return netlist


#: every movable mask the flow solves: prototype phase 1, the cells-only
#: placements, legalizer step 2 (design) and step 1 (coarse netlist)
MASKS = {
    "natural": lambda nl, flat: ~flat.fixed,
    "cells": lambda nl, flat: np.array(
        [not n.fixed and n.kind is not NodeKind.MACRO for n in nl], dtype=bool
    ),
    "macros": lambda nl, flat: np.array(
        [not n.fixed and n.kind is NodeKind.MACRO for n in nl], dtype=bool
    ),
    "step1": lambda nl, flat: ~flat.fixed,
}


def _netlist_for(coarse, which):
    return _step1_netlist(coarse) if which == "step1" else coarse.design.netlist


class TestCompiledArrays:
    @pytest.mark.parametrize("which", ["design", "step1"])
    @pytest.mark.parametrize("name", DESIGNS)
    def test_pin_table_reloads_to_a_fresh_build(self, name, which):
        netlist = _netlist_for(_coarse(name), which)
        compiled = CompiledQP()
        flat = compiled.flat(netlist)
        rng = np.random.default_rng(1)
        for _ in range(3):
            _jitter(netlist, rng)
            flat.fixed[:] = True  # a per-call edit must not outlive the call
            assert compiled.flat(netlist) is flat
            assert _flat_bytes(flat) == _flat_bytes(FlatNetlist(netlist))

    @pytest.mark.parametrize("mask", sorted(MASKS))
    @pytest.mark.parametrize("name", DESIGNS)
    def test_plan_matches_scratch_assembly_and_solves(self, name, mask):
        coarse = _coarse(name)
        netlist = _netlist_for(coarse, mask)
        region = coarse.design.region
        center = (region.x + region.width / 2.0, region.y + region.height / 2.0)
        compiled = CompiledQP()
        movable = MASKS[mask](netlist, compiled.flat(netlist))
        plan = compiled.plan(movable, 6)
        n_mov = int(movable.sum())
        rng = np.random.default_rng(2)
        for _ in range(3):
            _jitter(netlist, rng)
            flat = compiled.flat(netlist)
            scratch = FlatNetlist(netlist)
            assert _system_bytes(plan.system(flat)) == _system_bytes(
                build_quadratic_system(scratch, movable, 6)
            )
            # the cell placer's schedule: an unanchored solve, then anchors
            # of growing weight toward spread targets
            targets = (rng.uniform(0, 50, n_mov), rng.uniform(0, 50, n_mov))
            for weight in (0.0, 0.01, 0.02):
                anchors = {}
                if weight:
                    anchors = dict(
                        anchor_weight=np.full(n_mov, weight),
                        anchor_x=targets[0],
                        anchor_y=targets[1],
                    )
                got = solve_quadratic_placement(
                    flat, movable, center, apply=False, plan=plan, **anchors
                )
                want = solve_quadratic_placement(
                    scratch, movable, center, apply=False, **anchors
                )
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert compiled.plan(movable, 6) is plan
        assert len(plan.factors) == (3 if n_mov else 0)

    def test_conjugate_gradient_path_reuses_its_matrix(self):
        """Above 2000 unknowns the solve is CG; a plan keeps the regularized
        matrix and gives the scratch solve's bytes."""
        netlist = Netlist()
        n = 2101
        for i in range(n):
            netlist.add_node(Cell(f"c{i}", 1.0, 1.0, x=float(i % 37), y=float(i % 11),
                                  fixed=i in (0, n - 1)))
        for i in range(n - 1):
            netlist.add_net(Net(f"n{i}", pins=[Pin(f"c{i}"), Pin(f"c{i + 1}")]))
        compiled = CompiledQP()
        flat = compiled.flat(netlist)
        movable = ~flat.fixed
        plan = compiled.plan(movable, 6)
        for _ in range(2):
            got = solve_quadratic_placement(
                compiled.flat(netlist), movable, (20.0, 5.0), apply=False, plan=plan
            )
            want = solve_quadratic_placement(
                FlatNetlist(netlist), movable, (20.0, 5.0), apply=False
            )
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert len(plan.factors) == 1

    def test_a_different_netlist_drops_the_plans(self):
        first = _coarse("ibm01").design.netlist
        second = _coarse("ibm01").design.netlist
        compiled = CompiledQP()
        flat = compiled.flat(first)
        plan = compiled.plan(~flat.fixed, 6)
        assert compiled.flat(second) is not flat
        assert compiled.stats() == {"plans": 0, "factorizations": 0}
        assert compiled.plan(~flat.fixed, 6) is not plan


def _scratch_terminal(coarse, assignment):
    """Terminal evaluation with no compiled state anywhere."""
    MacroLegalizer().legalize(coarse, assignment)
    return place_cells_with_fixed_macros(
        coarse.design, n_iterations=_CONFIG.cell_place_iterations
    )


class TestCompiledTerminalEvaluation:
    @pytest.mark.parametrize("name", DESIGNS)
    def test_matches_scratch_on_repeated_and_interleaved_assignments(self, name):
        env = MCTSGuidedPlacer(_CONFIG).build_environment(_coarse(name))
        assert isinstance(env.legalizer, IncrementalMacroLegalizer)
        scratch = _coarse(name)
        assignments = _assignments(scratch, 20, seed=3)
        order = assignments + [assignments[i] for i in (3, 0, 7, 3, 19, 0)]
        for assignment in order:
            got = env.evaluate_assignment(assignment)
            want = _scratch_terminal(scratch, assignment)
            assert got.hex() == want.hex()
            assert _positions(env.coarse.design.netlist) == _positions(
                scratch.design.netlist
            )

    def test_owners_handed_another_design_match_scratch(self):
        """One legalizer and one cell-placement state, alternated between
        the two designs, still match a from-scratch evaluation."""
        legalizer, cells = IncrementalMacroLegalizer(), CompiledQP()
        coarse = {name: _coarse(name) for name in DESIGNS}
        scratch = {name: _coarse(name) for name in DESIGNS}
        assignments = {name: _assignments(coarse[name], 4, seed=4) for name in DESIGNS}
        for k in range(4):
            for name in DESIGNS:
                legalizer.legalize(coarse[name], assignments[name][k])
                got = place_cells_with_fixed_macros(
                    coarse[name].design,
                    n_iterations=_CONFIG.cell_place_iterations,
                    compiled=cells,
                )
                want = _scratch_terminal(scratch[name], assignments[name][k])
                assert got.hex() == want.hex()
                assert _positions(coarse[name].design.netlist) == _positions(
                    scratch[name].design.netlist
                )


def _array_bytes(arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


class TestCompiledLPs:
    """The incremental legalizer's Eq. 3 LPs, compiled once per (group, axis),
    against :func:`_lp_arrays` on the nets the from-scratch legalizer builds."""

    @staticmethod
    def _record_lps(monkeypatch):
        seen = {"compiled": [], "scratch": []}
        solve = lp_spread.lp_solve_axis

        def record(sizes, edges, lo, hi, nets, solver=None):
            kind = "compiled" if isinstance(nets, lp_spread.BoundNets) else "scratch"
            seen[kind].append((sizes.copy(), list(edges), lo, hi, nets))
            return solve(sizes, edges, lo, hi, nets, solver)

        monkeypatch.setattr(lp_spread, "lp_solve_axis", record)
        return seen

    @pytest.mark.parametrize("name", DESIGNS)
    def test_arrays_equal_lp_arrays_for_every_region(self, name, monkeypatch):
        seen = self._record_lps(monkeypatch)
        for assignment in _assignments(_coarse(name), 3, seed=5):
            IncrementalMacroLegalizer().legalize(_coarse(name), assignment)
            MacroLegalizer().legalize(_coarse(name), assignment)
        compiled, scratch = seen["compiled"], seen["scratch"]
        assert len(compiled) == len(scratch) >= 20
        for (sizes, edges, lo, hi, bound), (s, e, lo_, hi_, nets) in zip(
            compiled, scratch
        ):
            assert (sizes.tobytes(), edges, lo, hi) == (s.tobytes(), e, lo_, hi_)
            got = bound.nets.lp_arrays(sizes, edges, lo, hi, bound.fixed)
            want = lp_spread._lp_arrays(sizes, edges, lo, hi, nets)
            assert _array_bytes(got) == _array_bytes(want)

    def test_fault_plan_bypasses_the_compiled_lps(self, monkeypatch):
        seen = self._record_lps(monkeypatch)
        coarse = _coarse("ibm01")
        (assignment,) = _assignments(coarse, 1, seed=6)
        with faults.inject(FaultPlan(Fault("lp.solve", at=10**9))):
            IncrementalMacroLegalizer().legalize(coarse, assignment)
        assert seen["scratch"] and not seen["compiled"]

    def test_used_legalizer_copies(self):
        """The HiGHS instance stays out of copies: a copy starts without
        one and legalizes to the same bytes."""
        coarse = _coarse("ibm01")
        first, second = _assignments(coarse, 2, seed=7)
        legalizer = IncrementalMacroLegalizer()
        legalizer.legalize(coarse, first)
        assert legalizer._lp_solver._highs is not None
        want = _coarse("ibm01")
        MacroLegalizer().legalize(want, second)
        twin = copy.deepcopy(legalizer)
        assert twin._lp_solver._highs is None
        again = _coarse("ibm01")
        twin.legalize(again, second)
        assert _positions(again.design.netlist) == _positions(want.design.netlist)

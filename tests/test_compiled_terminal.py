"""Compiled terminal evaluation against the from-scratch builders, bit for bit.

Terminal evaluation keeps each netlist's pin table and QP plans, with
their LU factors, between calls (:class:`repro.gp.quadratic.CompiledQP`,
owned by :class:`MacroLegalizer` and by the environment's cell
placement); the legalizer also keeps its step-1 netlist, its compiled
Eq. 3 nets, a region memo and a HiGHS instance.  These tests hold every
compiled array and every solution on the suite designs to the
from-scratch builders (:class:`FlatNetlist`, :func:`build_quadratic_system`,
the test-side net projection and LP layout) byte for byte, and every
terminal evaluation of a legalizer reused over many calls to a fresh
legalizer's and an uncompiled cell placement's: coordinates, HPWL and
event records.
"""

import contextlib
import copy

import numpy as np
import pytest

from repro.core.config import PlacerConfig
from repro.core.flow import MCTSGuidedPlacer
from repro.gp.mixed_size import place_cells_with_fixed_macros
from repro.gp.netmodel import build_quadratic_system
from repro.gp.quadratic import CompiledQP, solve_quadratic_placement
from repro.legalize.pipeline import MacroLegalizer
from repro.netlist.hpwl import FlatNetlist
from repro.netlist.model import Cell, Net, Netlist, NodeKind, Pin
from repro.netlist.suites import make_iccad04_circuit, make_industrial_circuit
from repro.runtime import faults
from repro.runtime.faults import Fault, FaultPlan
from repro.utils.timer import Stopwatch
from tests.legalize_oracles import array_bytes, event_records, lp_arrays, solved_lps

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


def _fresh_terminal(coarse, assignment):
    """Terminal evaluation by a fresh legalizer and a cell placement with
    no compiled state: the HPWL and the legalizer's event records."""
    legalizer = MacroLegalizer()
    legalizer.legalize(coarse, assignment)
    hpwl = place_cells_with_fixed_macros(
        coarse.design, n_iterations=_CONFIG.cell_place_iterations
    )
    return hpwl, event_records(legalizer.events)


class TestCompiledTerminalEvaluation:
    """A legalizer reused over many calls gives a fresh one's results."""

    @pytest.mark.parametrize("name", DESIGNS)
    def test_matches_scratch_on_repeated_and_interleaved_assignments(self, name):
        env = MCTSGuidedPlacer(_CONFIG).build_environment(_coarse(name))
        legalizer = env.legalizer
        fresh = _coarse(name)
        assignments = _assignments(fresh, 20, seed=3)
        repeats = [assignments[i] for i in (3, 0, 7, 3, 19, 0)]
        replayed = 0
        for k, assignment in enumerate(assignments + repeats):
            start = len(legalizer.events.events)
            got = env.evaluate_assignment(assignment)
            want, records = _fresh_terminal(fresh, assignment)
            assert got.hex() == want.hex()
            assert _positions(env.coarse.design.netlist) == _positions(
                fresh.design.netlist
            )
            assert event_records(legalizer.events, start) == records
            if k >= len(assignments):
                replayed += len(records)
        # the repeats are served from the region memo, fallbacks included
        assert replayed > 0
        stats = legalizer.cache_stats()
        assert stats["legalize_calls"] == len(assignments) + len(repeats)
        assert stats["region_memo_hits"] > 0
        # one plan and one LU factorization per QP step, compiled by the
        # first call and reused by every later one
        assert stats["qp_plans"] == 2
        assert stats["qp_factorizations"] == 2

    def test_owners_handed_another_design_match_scratch(self):
        """One legalizer and one cell-placement state, alternated between
        the two designs, still match a fresh evaluation."""
        legalizer, cells = MacroLegalizer(), CompiledQP()
        coarse = {name: _coarse(name) for name in DESIGNS}
        fresh = {name: _coarse(name) for name in DESIGNS}
        assignments = {name: _assignments(coarse[name], 4, seed=4) for name in DESIGNS}
        for k in range(4):
            for name in DESIGNS:
                start = len(legalizer.events.events)
                legalizer.legalize(coarse[name], assignments[name][k])
                got = place_cells_with_fixed_macros(
                    coarse[name].design,
                    n_iterations=_CONFIG.cell_place_iterations,
                    compiled=cells,
                )
                want, records = _fresh_terminal(fresh[name], assignments[name][k])
                assert got.hex() == want.hex()
                assert _positions(coarse[name].design.netlist) == _positions(
                    fresh[name].design.netlist
                )
                assert event_records(legalizer.events, start) == records
        assert legalizer.cache_stats()["legalize_calls"] == 8


class TestCompiledLPs:
    """The Eq. 3 LPs the legalizer solves, from nets compiled once per
    (group, axis), against the test-side net projection and array layout."""

    @pytest.mark.parametrize("name", DESIGNS)
    def test_arrays_equal_lp_arrays_for_every_region(self, name):
        legalizer, coarse = MacroLegalizer(), _coarse(name)
        with solved_lps() as seen:
            for assignment in _assignments(coarse, 3, seed=5):
                legalizer.legalize(coarse, assignment)
        assert len(seen) >= 20
        for sizes, edges, lo, hi, bound, nets in seen:
            got = bound.nets.lp_arrays(sizes, edges, lo, hi, bound.fixed)
            assert array_bytes(got) == array_bytes(
                lp_arrays(sizes, edges, lo, hi, nets)
            )

    def test_a_plan_that_never_fires_changes_nothing(self):
        """A legalizer under a plan that never fires gives the plan-less
        coordinates, HPWL and event records, and polls ``lp.solve`` once per
        LP it solves: a region served from the memo polls nothing."""
        runs = []
        for plan in (None, FaultPlan(Fault("lp.solve", at=10**9))):
            env = MCTSGuidedPlacer(_CONFIG).build_environment(_coarse("Cir1"))
            assignments = _assignments(env.coarse, 4, seed=6)
            with solved_lps() as seen, (
                faults.inject(plan) if plan else contextlib.nullcontext()
            ):
                run = [
                    (
                        env.evaluate_assignment(assignment).hex(),
                        _positions(env.coarse.design.netlist),
                    )
                    for assignment in assignments + assignments[:2]
                ]
            runs.append((run, event_records(env.legalizer.events), len(seen)))
            assert env.legalizer.cache_stats()["region_memo_hits"] > 0
        assert runs[0][1], "no LP fallback to compare"
        assert runs[1] == runs[0]
        assert plan.faults[0].arrivals == len(seen) and plan.total_fired() == 0

    def test_used_legalizer_copies(self):
        """The HiGHS instance stays out of copies: a copy starts without
        one and, with the compiled state it copied, legalizes to a fresh
        legalizer's bytes."""
        coarse = _coarse("ibm01")
        first, second = _assignments(coarse, 2, seed=7)
        legalizer = MacroLegalizer()
        legalizer.legalize(coarse, first)
        assert legalizer._lp_solver._highs is not None
        want = _coarse("ibm01")
        MacroLegalizer().legalize(want, second)
        twin, again = copy.deepcopy((legalizer, coarse))
        assert twin._lp_solver._highs is None
        twin.legalize(again, second)
        assert _positions(again.design.netlist) == _positions(want.design.netlist)

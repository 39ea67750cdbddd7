"""The three-step macro legalization pipeline (Sec. II-B).

Input: a :class:`~repro.coarsen.coarse.CoarseNetlist` and an *assignment*
mapping each macro group to its anchor grid (the lower-left grid of the
group's span).  Output: exact, overlap-free macro coordinates written into
the underlying design.

Step 1 — cell groups by QP, macro groups fixed at their span centers.
Step 2 — groups decomposed; member macros refined by QP with cell groups
         fixed, then each macro clamped into its group's span rectangle.
Step 3 — per-group overlap removal: sequence pair extraction + the Eq. 3
         LP along x then y, inside the span rectangle.

Groups that were allocated to overlapping spans (the availability mask
discourages but cannot always prevent this) may still collide *across*
groups; a final greedy displacement-minimal repair pass
(:func:`repro.gp.mixed_size.legalize_macros_greedy`) clears residual
overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coarsen.coarse import CoarseNetlist
from repro.gp.mixed_size import legalize_macros_greedy
from repro.gp.quadratic import CompiledQP, solve_quadratic_placement
from repro.legalize.lp_spread import (
    AxisNet,
    BoundNets,
    CompiledNets,
    LPSolver,
    lp_legalize_axis,
)
from repro.legalize.sequence_pair import extract_sequence_pair
from repro.netlist.model import NodeKind
from repro.runtime import faults
from repro.runtime.errors import PlacementError, SolverInfeasibleError
from repro.utils.events import EventLog

#: the heaviest nets a region's Eq. 3 LP keeps per axis
LP_NET_LIMIT = 200
#: the fixed pins an Eq. 3 LP keeps per net, the first ones in pin order
LP_FIXED_PINS = 4
#: the largest net degree the QP steps model as a clique (larger: a star)
QP_CLIQUE_THRESHOLD = 6
#: how many region results the memo keeps (the oldest goes first)
REGION_MEMO_LIMIT = 4096


@dataclass(frozen=True)
class SpanRect:
    """A macro group's assigned rectangle in die coordinates."""

    x: float
    y: float
    width: float
    height: float

    @property
    def cx(self) -> float:
        return self.x + self.width / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.height / 2.0


def anchor_for_span(
    plan, flat_grid: int, rows: int, cols: int
) -> tuple[int, int]:
    """Clamp an anchor grid so a rows×cols span stays inside the plan."""
    r, c = plan.row_col(flat_grid)
    r = min(r, plan.zeta - rows)
    c = min(c, plan.zeta - cols)
    return max(r, 0), max(c, 0)


def span_rect(coarse: CoarseNetlist, group_index: int, flat_grid: int) -> SpanRect:
    """Die-coordinate rectangle covered by *group_index* anchored at *flat_grid*."""
    plan = coarse.plan
    rows, cols = coarse.group_span(group_index)
    r, c = anchor_for_span(plan, flat_grid, rows, cols)
    ox, oy = plan.origin(r, c)
    return SpanRect(
        x=ox, y=oy, width=cols * plan.cell_width, height=rows * plan.cell_height
    )


def _clamp_into(node, rect: SpanRect) -> None:
    """Move *node* into *rect*, or flush to its lower-left side if wider."""
    node.x = min(max(node.x, rect.x), max(rect.x, rect.x + rect.width - node.width))
    node.y = min(max(node.y, rect.y), max(rect.y, rect.y + rect.height - node.height))


class MacroLegalizer:
    """Runs the Sec. II-B pipeline against a coarse netlist.

    Consecutive legalizations (every RL episode, every MCTS terminal node)
    re-solve near-identical problems, so a legalizer keeps what does not
    depend on the assignment:

    - **Compiled QP steps** — each of the two QP steps keeps a
      :class:`~repro.gp.quadratic.CompiledQP`: the pin table of the netlist
      it solves over (the step-1 coarse netlist, the design), and for its
      movable mask the assembled Laplacian, the right-hand-side gather
      arrays and the LU factorization.  A call only reloads positions,
      gathers two right-hand sides and runs two triangular solves.
    - **One step-1 netlist** — ``coarse.as_netlist()`` is built once and
      its node positions rewound to that build's before each solve.
    - **Compiled Eq. 3 nets** — which nets and fixed pins a region's LP
      keeps is static, so the scan over all design nets runs once per
      (group, axis) and its net part is compiled into the LP's arrays
      (:class:`~repro.legalize.lp_spread.CompiledNets`); a call reads the
      fixed pins' positions and fills in only those, the sequence-pair
      rows and the span bounds.
    - **Region memo** — one group's sequence-pair + LP result is memoized
      against a digest of *all* its inputs (member positions, span
      rectangle, fixed pin positions), together with its LP fallback
      events, which are emitted on every use, hit or miss.  The QP steps
      couple every group, so a one-anchor change perturbs all member
      positions in their last bits: hits come from genuinely repeated
      sub-problems.
    - **One HiGHS instance** — every LP runs on the legalizer's own
      :class:`~repro.legalize.lp_spread.LPSolver`.  A copy or an unpickled
      legalizer starts without one.

    All of it belongs to the coarse netlist last legalized and is dropped
    when a different one arrives.  A reused legalizer gives a fresh one's
    coordinates and event records byte for byte.  Under a fault plan,
    ``lp.solve`` is polled once per LP actually solved, so a region served
    from the memo polls nothing.
    """

    def __init__(self, events: EventLog | None = None) -> None:
        #: degradation events (solver fallbacks) are recorded here
        self.events = events if events is not None else EventLog()
        self._lp_solver = LPSolver()
        self._src: CoarseNetlist | None = None
        self._drop_caches()
        self.n_region_memo_hits = 0
        self.n_region_memo_misses = 0
        self.n_legalize_calls = 0

    def cache_stats(self) -> dict:
        compiled = [c.stats() for c in self._compiled.values()]
        return {
            "qp_plans": sum(c["plans"] for c in compiled),
            "qp_factorizations": sum(c["factorizations"] for c in compiled),
            "region_memo_hits": self.n_region_memo_hits,
            "region_memo_misses": self.n_region_memo_misses,
            "axis_topologies": len(self._axis_topology),
            "legalize_calls": self.n_legalize_calls,
        }

    def _drop_caches(self) -> None:
        self._compiled = {"cell_groups": CompiledQP(), "macro_refine": CompiledQP()}
        self._step1_nl = None
        self._step1_positions: dict[str, tuple[float, float]] = {}
        #: (member-name tuple, axis) → (CompiledNets, fixed-pin refs)
        self._axis_topology: dict = {}
        #: full-input digest → (new_x, new_y, fallback events) of one region
        self._region_memo: dict = {}

    # -- solver guards ---------------------------------------------------------
    def _guarded_qp(self, step: str, flat, movable, center) -> None:
        """QP solve that degrades to a no-op on solver failure.

        The placement positions feeding the QP are always valid (prototype /
        scatter coordinates), so skipping the refinement is a sound — if
        lower-quality — fallback; the LP/greedy overlap removal that follows
        still produces a legal placement.  Fault site: ``qp.solve``.
        """
        try:
            if faults.should_fire("qp.solve"):
                raise SolverInfeasibleError(
                    "injected QP solver failure", solver="qp", status="injected"
                )
            solve_quadratic_placement(
                flat, movable, center,
                clique_threshold=QP_CLIQUE_THRESHOLD,
                plan=self._compiled[step].plan(movable, QP_CLIQUE_THRESHOLD),
            )
        except (PlacementError, np.linalg.LinAlgError, ValueError) as exc:
            self.events.emit(
                "degradation", stage=None, solver="qp", step=step, error=str(exc)
            )
            return
        flat.writeback()

    # -- step 1 ---------------------------------------------------------------
    def _step1_netlist(self, coarse: CoarseNetlist):
        """The coarse netlist step 1 solves over, as ``as_netlist()`` builds it.

        The first call builds it; later calls rewind its nodes to that
        build's positions, so it cannot be told from a fresh build — also on
        the QP-degradation path, where pre-solve positions leak through.
        """
        if self._step1_nl is None:
            self._step1_nl = coarse.as_netlist()
            self._step1_positions = {
                node.name: (node.x, node.y) for node in self._step1_nl
            }
        else:
            for name, (x, y) in self._step1_positions.items():
                node = self._step1_nl[name]
                node.x = x
                node.y = y
        return self._step1_nl

    def _place_cell_groups(
        self, coarse: CoarseNetlist, rects: list[SpanRect]
    ) -> None:
        """QP the coarse netlist with macro groups pinned to their spans."""
        coarse_nl = self._step1_netlist(coarse)
        for i, rect in enumerate(rects):
            node = coarse_nl[coarse.group_node_name(i)]
            node.move_center_to(rect.cx, rect.cy)
            node.fixed = True
        flat = self._compiled["cell_groups"].flat(coarse_nl)
        movable = ~flat.fixed
        region = coarse.design.region
        center = (region.x + region.width / 2.0, region.y + region.height / 2.0)
        self._guarded_qp("cell_groups", flat, movable, center)
        # Record solved centroids back onto the cell groups.
        n_mg = coarse.n_macro_groups
        for j, g in enumerate(coarse.cell_groups):
            node = coarse_nl[coarse.group_node_name(n_mg + j)]
            g.cx, g.cy = node.cx, node.cy

    # -- step 2 ---------------------------------------------------------------
    def _refine_macros(self, coarse: CoarseNetlist, rects: list[SpanRect]) -> None:
        """Scatter groups, pin cells to their group centroids, QP the macros."""
        design = coarse.design
        for i, rect in enumerate(rects):
            coarse.scatter_macro_group(i, rect.cx, rect.cy)
        for g in coarse.cell_groups:
            for name in g.members:
                design.netlist[name].move_center_to(g.cx, g.cy)

        flat = self._compiled["macro_refine"].flat(design.netlist)
        movable = np.array(
            [node.kind is NodeKind.MACRO and not node.fixed for node in design.netlist],
            dtype=bool,
        )
        region = design.region
        center = (region.x + region.width / 2.0, region.y + region.height / 2.0)
        self._guarded_qp("macro_refine", flat, movable, center)

        # Confine each macro to its group's span rectangle.
        rect_of_macro: dict[str, SpanRect] = {}
        for i, g in enumerate(coarse.macro_groups):
            for name in g.members:
                rect_of_macro[name] = rects[i]
        for name, rect in rect_of_macro.items():
            _clamp_into(design.netlist[name], rect)

    # -- step 3 ---------------------------------------------------------------
    def _compile_nets(self, coarse, member_index, axis):
        """The region's Eq. 3 nets along *axis*, compiled, with the
        ``(node, pin offset)`` of each fixed position in net order.

        Every design net with a pin on a region macro is projected onto
        the axis: its region pins become (member, offset from the lower
        left) pairs, its first :data:`LP_FIXED_PINS` other pins fixed
        positions.  The :data:`LP_NET_LIMIT` heaviest nets are kept (a
        stable sort, so ties keep design order).
        """
        design = coarse.design
        entries: list[tuple[AxisNet, list]] = []
        for net in design.netlist.nets:
            movable_pins: list[tuple[int, float]] = []
            fixed_refs: list[tuple[object, float]] = []
            for pin in net.pins:
                node = design.netlist[pin.node]
                if pin.node in member_index:
                    if axis == "x":
                        off = node.width / 2.0 + pin.dx
                    else:
                        off = node.height / 2.0 + pin.dy
                    movable_pins.append((member_index[pin.node], off))
                else:
                    fixed_refs.append(
                        (node, pin.dx if axis == "x" else pin.dy)
                    )
            if movable_pins:
                refs = fixed_refs[:LP_FIXED_PINS]
                entries.append(
                    (AxisNet(net.weight, movable_pins, [0.0] * len(refs)), refs)
                )
        entries.sort(key=lambda e: -e[0].weight)
        entries = entries[:LP_NET_LIMIT]
        nets = CompiledNets(len(member_index), [net for net, _ in entries])
        return nets, [ref for _, refs in entries for ref in refs]

    def _bound_nets(self, coarse, member_index, axis) -> BoundNets:
        """The (group, axis) nets, compiled once, with this call's fixed
        positions (the fixed pins' centers plus offsets)."""
        key = (tuple(member_index), axis)
        compiled = self._axis_topology.get(key)
        if compiled is None:
            compiled = self._compile_nets(coarse, member_index, axis)
            self._axis_topology[key] = compiled
        nets, refs = compiled
        if axis == "x":
            fixed = np.array([n.cx + d for n, d in refs], dtype=float)
        else:
            fixed = np.array([n.cy + d for n, d in refs], dtype=float)
        return BoundNets(nets, fixed)

    def _legalize_region(
        self, coarse: CoarseNetlist, group_index: int, rect: SpanRect
    ) -> None:
        """Sequence pair of the group's macros, then the Eq. 3 LP along x
        and y inside *rect*; a lone macro is only clamped into it."""
        design = coarse.design
        members = [
            design.netlist[name]
            for name in coarse.macro_groups[group_index].members
        ]
        if len(members) < 2:
            for m in members:
                _clamp_into(m, rect)
            return
        member_index = {m.name: k for k, m in enumerate(members)}
        # the y nets' fixed pins belong to other nodes, which the x LP
        # does not move, so both axes' nets can be read up front
        x_nets = self._bound_nets(coarse, member_index, "x")
        y_nets = self._bound_nets(coarse, member_index, "y")
        key = (
            group_index,
            np.array([m.x for m in members]).tobytes(),
            np.array([m.y for m in members]).tobytes(),
            (rect.x, rect.y, rect.width, rect.height),
            x_nets.fixed.tobytes(),
            y_nets.fixed.tobytes(),
        )
        solved = self._region_memo.get(key)
        if solved is None:
            solved = self._solve_region(group_index, rect, members, x_nets, y_nets)
            self.n_region_memo_misses += 1
            if len(self._region_memo) >= REGION_MEMO_LIMIT:
                self._region_memo.pop(next(iter(self._region_memo)))
            self._region_memo[key] = solved
        else:
            self.n_region_memo_hits += 1
        new_x, new_y, fallbacks = solved
        for k, m in enumerate(members):
            m.x = new_x[k]
            m.y = new_y[k]
        for fields in fallbacks:
            self.events.emit("degradation", **fields)

    def _solve_region(self, group_index, rect, members, x_nets, y_nets):
        """Sequence pair of *members*, then the Eq. 3 LP along x and y: the
        new x and y coordinates and the fields of each LP fallback event."""
        xs = np.array([m.x for m in members])
        ys = np.array([m.y for m in members])
        ws = np.array([m.width for m in members])
        hs = np.array([m.height for m in members])
        sp_pair = extract_sequence_pair(xs, ys, ws, hs)
        h_edges, v_edges = sp_pair.relations()
        fallbacks: list[dict] = []

        def degrade(axis):
            return lambda exc: fallbacks.append(
                dict(
                    solver="lp",
                    fallback="pack_longest_path",
                    axis=axis,
                    group=group_index,
                    error=str(exc),
                )
            )

        # the y LP reads neither the members' x nor anything the x LP moves
        new_x = lp_legalize_axis(
            ws, h_edges, rect.x, rect.x + rect.width, x_nets,
            on_degrade=degrade("x"), solver=self._lp_solver,
        )
        new_y = lp_legalize_axis(
            hs, v_edges, rect.y, rect.y + rect.height, y_nets,
            on_degrade=degrade("y"), solver=self._lp_solver,
        )
        return new_x.tolist(), new_y.tolist(), fallbacks

    # -- entry point ------------------------------------------------------------
    def legalize(self, coarse: CoarseNetlist, assignment: list[int]) -> None:
        """Run all three steps for *assignment* (anchor grid per macro group).

        Mutates macro positions in ``coarse.design``.  Cell positions are
        also touched (pinned at their group centroids) — the flow's final
        cell-placement step re-places them properly afterwards.

        Every call first rewinds the coarse netlist to its canonical start
        (:meth:`CoarseNetlist.restore_canonical`), so the result is a pure
        function of *assignment*: bitwise-identical no matter what was
        legalized before.

        The events a call emits (solver fallbacks) reach a file-backed log
        in one append when the call returns or raises
        (:meth:`EventLog.batch`).
        """
        if len(assignment) != coarse.n_macro_groups:
            raise ValueError(
                f"assignment covers {len(assignment)} groups, "
                f"expected {coarse.n_macro_groups}"
            )
        if self._src is not coarse:
            self._drop_caches()
            self._src = coarse
        self.n_legalize_calls += 1
        with self.events.batch():
            coarse.restore_canonical()
            rects = [
                span_rect(coarse, i, int(flat_grid))
                for i, flat_grid in enumerate(assignment)
            ]
            self._place_cell_groups(coarse, rects)
            self._refine_macros(coarse, rects)
            for i, rect in enumerate(rects):
                self._legalize_region(coarse, i, rect)
            design = coarse.design
            blockers = design.netlist.movable_macros + design.netlist.preplaced_macros
            if any_pairwise_overlap(blockers):
                legalize_macros_greedy(design)


#: ``perfbench/spans.py`` binds ``IncrementalMacroLegalizer.legalize`` by
#: name, so the old name stays until that benchmark file changes.
IncrementalMacroLegalizer = MacroLegalizer


def any_pairwise_overlap(nodes) -> bool:
    """True when any two of *nodes* share positive interior area.

    Vectorized replacement for the quadratic pure-Python
    ``Node.overlaps`` double loop: one broadcast comparison per axis with
    the same strict-inequality semantics (edge-touching rectangles do not
    overlap).
    """
    n = len(nodes)
    if n < 2:
        return False
    x = np.array([m.x for m in nodes])
    y = np.array([m.y for m in nodes])
    x2 = x + np.array([m.width for m in nodes])
    y2 = y + np.array([m.height for m in nodes])
    over = (
        (x[:, None] < x2[None, :])
        & (x[None, :] < x2[:, None])
        & (y[:, None] < y2[None, :])
        & (y[None, :] < y2[:, None])
    )
    np.fill_diagonal(over, False)
    return bool(over.any())

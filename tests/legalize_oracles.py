"""Test-side oracles for the macro legalizer.

The legalizer compiles each region's nets once (:class:`CompiledNets`) and
later only fills in the fixed pins' positions.  These are the from-scratch
builders that compiled state must keep equal to, byte for byte:

- :func:`axis_nets` projects the design nets touching a region onto one
  axis, reading every position at the time of the call;
- :func:`lp_arrays` lays an :class:`AxisNet` list out as the LP's arrays;
- :func:`solved_lps` records every LP legalizers solve, with the
  :class:`BoundNets` they handed the solver and :func:`axis_nets`'s
  projection of the same region and axis, read at the same moment.

:func:`event_records` reads an event log as the records it writes, for
comparing a reused legalizer's events with a fresh one's.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import chain

import numpy as np

from repro.legalize import lp_spread
from repro.legalize.lp_spread import AxisNet
from repro.legalize.pipeline import LP_FIXED_PINS, LP_NET_LIMIT, MacroLegalizer


def axis_nets(coarse, member_index: dict[str, int], axis: str) -> list[AxisNet]:
    """Project original nets touching the region's macros onto one axis."""
    design = coarse.design
    nets: list[AxisNet] = []
    for net in design.netlist.nets:
        movable_pins: list[tuple[int, float]] = []
        fixed_positions: list[float] = []
        for pin in net.pins:
            node = design.netlist[pin.node]
            if pin.node in member_index:
                if axis == "x":
                    off = node.width / 2.0 + pin.dx
                else:
                    off = node.height / 2.0 + pin.dy
                movable_pins.append((member_index[pin.node], off))
            else:
                if axis == "x":
                    fixed_positions.append(node.cx + pin.dx)
                else:
                    fixed_positions.append(node.cy + pin.dy)
        if movable_pins:
            nets.append(
                AxisNet(
                    weight=net.weight,
                    pins=movable_pins,
                    fixed_positions=fixed_positions[:LP_FIXED_PINS],
                )
            )
    nets.sort(key=lambda n: -n.weight)
    return nets[:LP_NET_LIMIT]


def lp_arrays(
    sizes: np.ndarray,
    edges: list[tuple[int, int]],
    lo: float,
    hi: float,
    nets: list[AxisNet],
) -> tuple[np.ndarray, ...]:
    """The Eq. 3 LP of one axis as arrays: ``(c, start, index, value, rhs, lb, ub)``.

    Variables are ``p_0..p_{n-1}``, then ``(u, l)`` per net.  Rows are all
    ``≤`` rows: one per constraint edge, then per net, for each movable pin
    and then each fixed position ("item" t), row ``E + 2t`` bounds the item
    by ``u`` and row ``E + 2t + 1`` by ``l``.  The constraint matrix comes
    out in CSC form (``start``, ``index``, ``value``) with ascending rows
    per column.  Unbounded (NaN) column bounds become infinite, as in
    ``linprog``.
    """
    n = len(sizes)
    n_nets = len(nets)
    n_vars = n + 2 * n_nets
    weight = np.array([net.weight for net in nets], dtype=float)
    c = np.zeros(n_vars)
    c[n::2] = weight  # +u
    c[n + 1 :: 2] = -weight  # -l

    edge = np.array(edges, dtype=np.intp).reshape(-1, 2)
    n_edges = len(edge)
    items = np.array(
        [
            (k, i, v)
            for k, net in enumerate(nets)
            for i, v in chain(net.pins, ((-1, q) for q in net.fixed_positions))
        ],
        dtype=float,
    ).reshape(-1, 3)
    u = n + 2 * items[:, 0].astype(np.intp)
    rect = items[:, 1].astype(np.intp)
    value = items[:, 2]
    row = n_edges + 2 * np.arange(len(items))

    rhs = np.empty(n_edges + 2 * len(items))
    rhs[:n_edges] = -sizes[edge[:, 0]]  # p_a - p_b <= -size_a
    rhs[n_edges::2] = -value  # p_i + off <= u  /  u >= q
    rhs[n_edges + 1 :: 2] = value  # l <= p_i + off  /  l <= q

    # Entries in row order: (p_a, +1), (p_b, -1) per edge; per item
    # (p_i, +1), (u, -1) | (l, +1), (p_i, -1), without p_i for fixed items.
    slot_rows = np.stack([row, row, row + 1, row + 1], axis=1)
    slot_cols = np.stack([rect, u, u + 1, rect], axis=1)
    keep = slot_cols >= 0
    rows = np.concatenate([np.repeat(np.arange(n_edges), 2), slot_rows[keep]])
    cols = np.concatenate([edge.ravel(), slot_cols[keep]])
    vals = np.concatenate(
        [
            np.tile([1.0, -1.0], n_edges),
            np.broadcast_to(np.array([1.0, -1.0, 1.0, -1.0]), keep.shape)[keep],
        ]
    )
    order = np.argsort(cols, kind="stable")
    start = np.zeros(n_vars + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n_vars), out=start[1:])
    index = rows[order].astype(np.int32)

    span = max(hi - lo, 1.0)
    lb = np.full(n_vars, lo - 10 * span, dtype=float)
    ub = np.full(n_vars, hi + 10 * span, dtype=float)
    lb[:n] = lo
    upper = hi - sizes
    ub[:n] = np.where(upper < lo, lo, upper)  # degenerate: wider than region
    lb[np.isnan(lb)] = -np.inf
    ub[np.isnan(ub)] = np.inf
    return c, start, index, vals[order], rhs, lb, ub


def event_records(events, start: int = 0) -> list[dict]:
    """The records of an :class:`EventLog`'s events from *start* on,
    without their time stamps."""
    return [
        {k: v for k, v in event.to_json().items() if k != "ts"}
        for event in events.events[start:]
    ]


def array_bytes(arrays) -> list:
    """dtype, shape and bytes of each array, for byte-for-byte comparison."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@contextmanager
def solved_lps():
    """Record every Eq. 3 LP that legalizers solve inside the block.

    Yields a list that gains ``(sizes, edges, lo, hi, bound, nets)`` per
    solve: the :class:`BoundNets` the legalizer handed the solver and
    :func:`axis_nets` of the same region and axis.
    """
    seen = []
    oracle = {}
    bound_nets = MacroLegalizer._bound_nets
    solve = lp_spread.lp_solve_axis

    def bind(self, coarse, member_index, axis):
        bound = bound_nets(self, coarse, member_index, axis)
        oracle[id(bound)] = (bound, axis_nets(coarse, member_index, axis))
        return bound

    def record(sizes, edges, lo, hi, nets, solver=None):
        seen.append((sizes.copy(), list(edges), lo, hi, nets, oracle[id(nets)][1]))
        return solve(sizes, edges, lo, hi, nets, solver)

    MacroLegalizer._bound_nets = bind
    lp_spread.lp_solve_axis = record
    try:
        yield seen
    finally:
        MacroLegalizer._bound_nets = bound_nets
        lp_spread.lp_solve_axis = solve

"""Sparse solves for quadratic placement.

Solves the Laplacian systems assembled by
:func:`repro.gp.netmodel.build_quadratic_system`.  The Laplacian is only
positive *semi*-definite (connected components with no fixed pin float
freely), so a small diagonal regularization anchored at the region center
makes the solve unconditionally well-posed; anchor pseudo-nets (used by the
spreading loop) enter the same way with per-node weights and targets.

A caller that solves the same netlist's QPs over and over (terminal
evaluation: the legalizer's two QP steps and the cell placement) keeps a
:class:`CompiledQP`.  It holds the netlist's pin table and, per movable
mask, a :class:`~repro.gp.netmodel.QuadraticPlan`: the assembled matrix,
the right-hand-side gather arrays, and one LU factorization per
anchor-weight vector.  A repeated solve then only reads positions,
accumulates two right-hand sides and runs two triangular solves.  Every
array it touches holds the bytes a from-scratch solve would build, so the
results are bitwise identical.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.gp.netmodel import (
    QuadraticPlan,
    QuadraticSystem,
    build_quadratic_system,
    compile_quadratic_system,
)
from repro.netlist.hpwl import FlatNetlist
from repro.netlist.model import Netlist


class CompiledQP:
    """One netlist's pin table and QP plans, kept by the caller that repeats
    the solves.

    :meth:`flat` compiles the :class:`FlatNetlist` on first sight of a
    netlist and afterwards only reloads its node geometry, centers and
    fixed flags.  Handed a different netlist object, it drops everything
    compiled for the old one.  :meth:`plan` keeps one plan per (movable
    mask, clique threshold) of the current netlist.
    """

    def __init__(self) -> None:
        self._netlist: Netlist | None = None
        self._flat: FlatNetlist | None = None
        self._plans: dict[tuple[bytes, int], QuadraticPlan] = {}

    def flat(self, netlist: Netlist) -> FlatNetlist:
        """The pin table of *netlist*, reloaded from its object model."""
        if netlist is self._netlist:
            self._flat.reload()
        else:
            self._netlist, self._flat, self._plans = netlist, FlatNetlist(netlist), {}
        return self._flat

    def plan(self, movable_mask: np.ndarray, clique_threshold: int) -> QuadraticPlan:
        """The plan of *movable_mask* over the netlist :meth:`flat` last saw."""
        key = (movable_mask.tobytes(), clique_threshold)
        plan = self._plans.get(key)
        if plan is None:
            plan = compile_quadratic_system(self._flat, movable_mask, clique_threshold)
            self._plans[key] = plan
        return plan

    def stats(self) -> dict:
        """How many plans and factorizations are held."""
        return {
            "plans": len(self._plans),
            "factorizations": sum(len(p.factors) for p in self._plans.values()),
        }


#: the most unknowns a QP is solved for by LU factorization
LU_MAX_UNKNOWNS = 2000


def _solver(system: QuadraticSystem, w: np.ndarray):
    """``b -> (x, info)`` solving ``(A + diag(w)) x = b``, kept per *w* in
    ``system.factors``.

    Up to :data:`LU_MAX_UNKNOWNS` unknowns the solver is an LU
    factorization (``info`` 0); above, conjugate gradients on the
    regularized matrix, with ``info`` the flag ``spla.cg`` returns: not 0
    when it stopped unconverged, *x* then being its last iterate.
    """
    key = w.tobytes()
    solve = system.factors.get(key)
    if solve is None:
        A = system.A + sp.diags(w)
        if A.shape[0] <= LU_MAX_UNKNOWNS:
            def solve(b: np.ndarray, lu=spla.factorized(A.tocsc())):
                return lu(b), 0
        else:
            def solve(b: np.ndarray, A=A):
                return spla.cg(A, b, rtol=1e-8, maxiter=2000)
        system.factors[key] = solve
    return solve


def report_unconverged(events, **fields):
    """An ``on_unconverged`` callback that logs each unconverged axis to
    *events* as a ``degradation`` event (``solver="cg"``, with ``axis``,
    ``info`` and *fields*)."""

    def report(axis: str, info: int) -> None:
        events.emit("degradation", solver="cg", axis=axis, info=info, **fields)

    return report


def solve_system(
    system: QuadraticSystem,
    center: tuple[float, float],
    anchor_weight: np.ndarray | float = 0.0,
    anchor_x: np.ndarray | None = None,
    anchor_y: np.ndarray | None = None,
    regularization: float = 1e-6,
    on_unconverged=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve for unknown x/y positions.

    Args:
        system: assembled quadratic system.
        center: fallback target for the regularization anchor (die center).
        anchor_weight: scalar or per-unknown pseudo-net weights pulling each
            unknown toward (anchor_x, anchor_y) — the spreading loop's handle.
        anchor_x/anchor_y: pseudo-net targets (default: die center).
        regularization: tiny diagonal term guaranteeing positive definiteness.
        on_unconverged: called as ``on_unconverged(axis, info)`` for each
            axis whose conjugate-gradient solve did not converge; its
            positions are kept.

    Returns:
        (x, y) arrays over all unknowns (movables first, then star nodes).
    """
    n = system.A.shape[0]
    cx, cy = center
    ax = np.full(n, cx) if anchor_x is None else np.asarray(anchor_x, dtype=float)
    ay = np.full(n, cy) if anchor_y is None else np.asarray(anchor_y, dtype=float)
    w = np.broadcast_to(np.asarray(anchor_weight, dtype=float), (n,)).copy()
    w += regularization

    bx = system.bx + w * ax
    by = system.by + w * ay

    if n == 0:
        return np.zeros(0), np.zeros(0)
    solve = _solver(system, w)
    (x, info_x), (y, info_y) = solve(bx), solve(by)
    if on_unconverged is not None:
        for axis, info in (("x", info_x), ("y", info_y)):
            if info != 0:
                on_unconverged(axis, int(info))
    return x, y


def solve_quadratic_placement(
    flat: FlatNetlist,
    movable_mask: np.ndarray,
    region_center: tuple[float, float],
    clique_threshold: int = 6,
    anchor_weight: np.ndarray | float = 0.0,
    anchor_x: np.ndarray | None = None,
    anchor_y: np.ndarray | None = None,
    apply: bool = True,
    plan: QuadraticPlan | None = None,
    on_unconverged=None,
) -> tuple[np.ndarray, np.ndarray]:
    """One-shot quadratic placement of the masked nodes of *flat*.

    Builds the system against the *current* positions of fixed nodes and
    solves it.  When *apply* is True the new centers are written back into
    ``flat.cx/cy`` (the object model is untouched until
    :meth:`FlatNetlist.writeback`).  *plan*, compiled from *flat*'s pin
    table for this *movable_mask* and *clique_threshold*
    (:meth:`CompiledQP.plan`), replaces the assembly and keeps the
    factorizations for the next call.  *on_unconverged* is passed to
    :func:`solve_system`.

    Returns the (x, y) centers of the movable nodes, in ``movable_mask``
    order (star-node positions are internal and discarded).
    """
    if plan is None:
        system = build_quadratic_system(flat, movable_mask, clique_threshold)
    else:
        system = plan.system(flat)
    n_mov = len(system.movable)
    n = system.A.shape[0]

    def expand(arr: np.ndarray | None) -> np.ndarray | None:
        """Lift per-movable anchor arrays onto the full unknown vector."""
        if arr is None:
            return None
        arr = np.asarray(arr, dtype=float)
        if arr.shape == (n,):
            return arr
        if arr.shape == (n_mov,):
            out = np.full(n, np.nan)
            out[:n_mov] = arr
            out[n_mov:] = region_center[0]  # placeholder, fixed below per-axis
            return out
        raise ValueError("anchor arrays must cover movables or all unknowns")

    ax = expand(anchor_x)
    ay = expand(anchor_y)
    if ay is not None and len(ay) == n:
        ay[n_mov:] = region_center[1]
    w = anchor_weight
    if isinstance(w, np.ndarray):
        if w.shape == (n_mov,):
            full_w = np.zeros(n)
            full_w[:n_mov] = w
            w = full_w
        elif w.shape != (n,):
            raise ValueError("anchor_weight array must cover movables or unknowns")

    x, y = solve_system(
        system,
        center=region_center,
        anchor_weight=w,
        anchor_x=ax,
        anchor_y=ay,
        on_unconverged=on_unconverged,
    )
    mx, my = x[:n_mov], y[:n_mov]
    if apply:
        flat.cx[system.movable] = mx
        flat.cy[system.movable] = my
    return mx, my

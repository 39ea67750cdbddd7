"""LP-based overlap removal minimizing weighted wirelength (Eq. 3) [34].

Given sequence-pair constraint edges for one axis, solve

    min Σ_n λ_n · (u_n − l_n)
    s.t. p_a + size_a ≤ p_b            for every constraint edge (a, b)
         l_n ≤ p_i + c_{i,n} ≤ u_n     for every movable pin of net n
         l_n ≤ q ≤ u_n                 for every fixed-pin constant q of n
         lo ≤ p_i ≤ hi − size_i

where p_i are lower-left coordinates along the axis and u_n/l_n capture the
net's span (so u_n − l_n is hW(n) or vW(n)).  The x and y problems are
independent, exactly as the paper notes.

If the LP is infeasible (the rectangles simply cannot fit in [lo, hi] under
the sequence-pair order) or the solver fails, :func:`pack_longest_path`
compacts the rectangles toward ``lo`` instead and the result is clamped.
Most infeasible LPs are found before any solver runs: when the longest
path of the constraint edges already overflows the span, the LP is
reported infeasible without calling HiGHS (:func:`_overflows`).

The LP goes straight to the HiGHS binding that scipy bundles, with the
options ``linprog(method="highs")`` sets; ``linprog``'s own per-call input
checks cost several times HiGHS's solve on these small LPs.  The binding
is loaded from its extension file (:func:`_load_highs`), so a placing
process never imports ``scipy.optimize`` (nor ``scipy.spatial``, which
that package imports).  Where the binding cannot be loaded, ``linprog``
solves the same arrays.  The
nets go into the LP's arrays through :class:`CompiledNets`: a caller that
meets the same nets again keeps theirs and fills in only what changes
between calls; an :class:`AxisNet` list is compiled for the one call.  A
caller that solves many LPs keeps an :class:`LPSolver`, which runs them
all on one HiGHS instance and gives a fresh instance's solutions byte for
byte.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np
import scipy

from repro.runtime import faults
from repro.runtime.errors import SolverInfeasibleError

#: the binding's module name inside scipy
_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's bundled HiGHS binding, or None where scipy has none.

    The extension file is loaded under its real module name and registered
    in ``sys.modules`` without running ``scipy/optimize/__init__.py``; a
    later ``import scipy.optimize`` finds it there and uses the same
    module object.  Where the file is not found, or does not load, the
    binding is imported the usual way.
    """
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    for directory in scipy.__path__:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "optimize", "_highspy", "_core" + suffix)
            if not os.path.isfile(path):
                continue
            loader = importlib.machinery.ExtensionFileLoader(_HIGHS_MODULE, path)
            spec = importlib.util.spec_from_file_location(
                _HIGHS_MODULE, path, loader=loader
            )
            try:
                module = importlib.util.module_from_spec(spec)
                sys.modules[_HIGHS_MODULE] = module
                loader.exec_module(module)
            except ImportError:
                sys.modules.pop(_HIGHS_MODULE, None)
                break
            return module
    try:
        from scipy.optimize._highspy import _core
    except ImportError:  # a scipy build without the bundled binding
        return None
    return _core


_highs = _load_highs()

#: ``linprog``'s acceptance tolerance for an optimal solution
_CHECK_TOL = np.sqrt(1e-9) * 10
#: the smallest overflow :func:`_overflows` reports; HiGHS accepts an
#: overflow up to its primal feasibility tolerance (1e-7) as feasible
_OVERFLOW_FLOOR = 1e-6

if _highs is not None:
    #: the non-default options ``linprog(method="highs")`` passes
    _OPTIONS = _highs.HighsOptions()
    _OPTIONS.presolve = "on"
    _OPTIONS.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    _OPTIONS.log_to_console = False
    _OPTIONS.output_flag = False
    _OPTIONS.simplex_strategy = (
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    )
    _MODEL = _highs.HighsModelStatus
    #: ``linprog``'s status code per failed HiGHS model status (others: 4)
    _LINPROG_STATUS = {
        _MODEL.kTimeLimit: 1,
        _MODEL.kIterationLimit: 1,
        _MODEL.kInfeasible: 2,
        _MODEL.kModelError: 2,
        _MODEL.kUnbounded: 3,
    }


@dataclass
class AxisNet:
    """One net's footprint along a single axis.

    ``pins`` holds (rect_index, offset) pairs: the pin sits at
    ``p[rect_index] + offset``.  ``fixed_positions`` are absolute pin
    coordinates of nodes outside the legalization set.
    """

    weight: float = 1.0
    pins: list[tuple[int, float]] = field(default_factory=list)
    fixed_positions: list[float] = field(default_factory=list)


def pack_longest_path(
    sizes: np.ndarray, edges: list[tuple[int, int]], lo: float
) -> np.ndarray:
    """Compact rectangles toward *lo* honoring the constraint edges.

    The constraint graph from a sequence pair is acyclic, so iterative
    relaxation converges in at most n rounds; rectangle *b* ends at
    ``max(lo, max_{(a,b)} p_a + size_a)``.
    """
    n = len(sizes)
    pos = np.full(n, lo, dtype=float)
    for _ in range(max(n, 1)):
        changed = False
        for a, b in edges:
            need = pos[a] + sizes[a]
            if pos[b] < need - 1e-12:
                pos[b] = need
                changed = True
        if not changed:
            break
    return pos


def _overflows(
    sizes: np.ndarray, edges: list[tuple[int, int]], lo: float, hi: float
) -> bool:
    """Does the longest path of *edges* overflow the LP's upper bounds?

    Each rectangle starts at its lower bound ``lo``, and in topological
    order each edge ``(a, b)`` pushes ``b`` to at least ``p_a + size_a``.
    These are the smallest positions the edges allow, so when one ends
    past its upper bound (``hi - size``, or ``lo`` for a rectangle wider
    than the span) the LP has no solution.  Only an overflow larger than
    ``1e-9 * max(hi - lo, 1)`` and than HiGHS's feasibility tolerance
    counts.  Edges with a cycle and non-finite input are left to the
    solver.
    """
    n = len(sizes)
    if not (math.isfinite(lo) and math.isfinite(hi) and np.isfinite(sizes).all()):
        return False
    size = sizes.tolist()
    succ: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for a, b in edges:
        succ[a].append(b)
        indegree[b] += 1
    start = [lo] * n
    ready = [i for i in range(n) if indegree[i] == 0]
    done = 0
    while ready:
        a = ready.pop()
        done += 1
        end = start[a] + size[a]
        for b in succ[a]:
            if end > start[b]:
                start[b] = end
            indegree[b] -= 1
            if indegree[b] == 0:
                ready.append(b)
    if done < n:
        return False  # a cycle: no topological order
    upper = hi - sizes
    upper = np.where(upper < lo, lo, upper)
    overflow = float(np.max(np.asarray(start) - upper))
    return overflow > max(1e-9 * max(hi - lo, 1.0), _OVERFLOW_FLOOR)


class CompiledNets:
    """The net part of one axis's Eq. 3 LP, compiled into the LP's arrays once.

    *nets* fixes the objective, the movable-pin entries with their offsets,
    and how many fixed positions each net has; the positions' values are
    ignored.  :meth:`lp_arrays` then takes the values of one call, in net
    order, and fills in only the sequence-pair edge rows, the span bounds
    and those values.
    """

    def __init__(self, n_rects: int, nets: list[AxisNet]) -> None:
        n = self.n_rects = n_rects
        self.n_vars = n + 2 * len(nets)
        weight = np.array([net.weight for net in nets], dtype=float)
        self.c = np.zeros(self.n_vars)
        self.c[n::2] = weight  # +u
        self.c[n + 1 :: 2] = -weight  # -l
        items = [
            (k, i, v)
            for k, net in enumerate(nets)
            for i, v in chain(net.pins, ((-1, 0.0) for _ in net.fixed_positions))
        ]
        net_of = np.array([k for k, _, _ in items], dtype=np.intp)
        rect = np.array([i for _, i, _ in items], dtype=np.intp)
        #: per item: the pin offset, or a fixed position's slot
        self.value = np.array([v for _, _, v in items], dtype=float)
        self.fixed_slots = np.flatnonzero(rect < 0)
        u = n + 2 * net_of
        # each item's entries as lp_arrays lays them out, rows counted
        # from the first item row
        row = 2 * np.arange(len(items))
        slot_rows = np.stack([row, row, row + 1, row + 1], axis=1)
        slot_cols = np.stack([rect, u, u + 1, rect], axis=1)
        keep = slot_cols >= 0
        self.item_rows = slot_rows[keep]
        self.item_cols = slot_cols[keep]
        self.item_vals = np.broadcast_to(
            np.array([1.0, -1.0, 1.0, -1.0]), keep.shape
        )[keep]

    def lp_arrays(
        self,
        sizes: np.ndarray,
        edges: list[tuple[int, int]],
        lo: float,
        hi: float,
        fixed: np.ndarray,
    ) -> tuple[np.ndarray, ...]:
        """The LP with these nets as arrays: ``(c, start, index, value, rhs,
        lb, ub)``, the nets' fixed positions taken from *fixed*.

        Variables are ``p_0..p_{n-1}``, then ``(u, l)`` per net.  Rows are
        all ``≤`` rows: one per constraint edge, then per net, for each
        movable pin and then each fixed position ("item" t), row ``E + 2t``
        bounds the item by ``u`` and row ``E + 2t + 1`` by ``l``.  The
        constraint matrix comes out in CSC form (``start``, ``index``,
        ``value``) with ascending rows per column, the layout ``linprog``
        hands HiGHS for the same rows, as long as every edge joins two
        distinct rectangles (a sequence pair's always do).  Unbounded (NaN)
        column bounds become infinite, as in ``linprog``.
        """
        n, n_vars = self.n_rects, self.n_vars
        edge = np.array(edges, dtype=np.intp).reshape(-1, 2)
        n_edges = len(edge)
        value = self.value.copy()
        value[self.fixed_slots] = fixed

        rhs = np.empty(n_edges + 2 * len(value))
        rhs[:n_edges] = -sizes[edge[:, 0]]
        rhs[n_edges::2] = -value
        rhs[n_edges + 1 :: 2] = value

        rows = np.concatenate([np.repeat(np.arange(n_edges), 2), self.item_rows + n_edges])
        cols = np.concatenate([edge.ravel(), self.item_cols])
        vals = np.concatenate([np.tile([1.0, -1.0], n_edges), self.item_vals])
        order = np.argsort(cols, kind="stable")
        start = np.zeros(n_vars + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n_vars), out=start[1:])
        index = rows[order].astype(np.int32)

        span = max(hi - lo, 1.0)
        lb = np.full(n_vars, lo - 10 * span, dtype=float)
        ub = np.full(n_vars, hi + 10 * span, dtype=float)
        lb[:n] = lo
        upper = hi - sizes
        ub[:n] = np.where(upper < lo, lo, upper)
        lb[np.isnan(lb)] = -np.inf
        ub[np.isnan(ub)] = np.inf
        return self.c.copy(), start, index, vals[order], rhs, lb, ub


class BoundNets(NamedTuple):
    """:class:`CompiledNets` with the fixed positions of one call, handed
    to :func:`lp_solve_axis` in place of the :class:`AxisNet` list."""

    nets: CompiledNets
    fixed: np.ndarray


def _new_highs():
    """A HiGHS instance holding the options ``linprog(method="highs")`` sets."""
    highs = _highs._Highs()
    highs.passOptions(_OPTIONS)
    return highs


def _solve_highs(c, start, index, value, rhs, lb, ub) -> np.ndarray:
    """Solve ``min c·x, A x <= rhs, lb <= x <= ub`` on a fresh HiGHS instance.

    Mirrors what ``linprog(method="highs")`` does with the same arrays,
    minus its per-call input checks: the same options, the same model, the
    same acceptance test of an optimal solution, and its status codes.
    """
    return _run_highs(_new_highs(), c, start, index, value, rhs, lb, ub)


class LPSolver:
    """Solves LPs one after another on one HiGHS instance.

    The instance is created on first use; before each LP its model is
    cleared (``clearModel``) and the new one passed.  Solutions, statuses
    and errors are those of :func:`_solve_highs`'s fresh instance per LP,
    byte for byte.  The instance can be neither pickled nor copied, so a
    copy or an unpickled solver starts without one.
    """

    def __init__(self) -> None:
        self._highs = None

    def __getstate__(self) -> dict:
        return {"_highs": None}

    def __call__(self, c, start, index, value, rhs, lb, ub) -> np.ndarray:
        if self._highs is None:
            self._highs = _new_highs()
        else:
            self._highs.clearModel()
        return _run_highs(self._highs, c, start, index, value, rhs, lb, ub)


def _run_highs(highs, c, start, index, value, rhs, lb, ub) -> np.ndarray:
    """:func:`_solve_highs` on *highs*, an instance with no model loaded."""
    if not (np.isfinite(c).all() and np.isfinite(rhs).all()):
        # linprog rejects these inputs before solving, as a retryable error
        raise SolverInfeasibleError(
            "LP solver raised: non-finite objective or right-hand side",
            solver="highs",
            status="error",
        )
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(c)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(rhs)
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.col_cost_ = c
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    lp.row_lower_ = np.full(len(rhs), -np.inf)
    lp.row_upper_ = rhs
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = value
    loaded = highs.passModel(lp) != _highs.HighsStatus.kError
    solved = loaded and highs.run() != _highs.HighsStatus.kError
    model_status = highs.getModelStatus() if loaded else _MODEL.kModelError
    if solved and model_status == _MODEL.kOptimal:
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        slack = rhs - np.array(solution.row_value)
        # linprog's acceptance test (a NaN fails every comparison)
        if (
            ((x >= lb - _CHECK_TOL) & (x <= ub + _CHECK_TOL)).all()
            and (slack >= -_CHECK_TOL).all()
            and not math.isnan(highs.getObjectiveValue())
        ):
            return x
        reason, status = "solution outside linprog's tolerance", 4
    else:
        reason = highs.modelStatusToString(model_status)
        status = _LINPROG_STATUS.get(model_status, 4)
    raise SolverInfeasibleError(
        f"LP did not converge: {reason}", solver="highs", status=status
    )


def _solve_linprog(c, start, index, value, rhs, lb, ub) -> np.ndarray:
    """The same solve through ``scipy.optimize.linprog``."""
    import scipy.optimize as sopt
    import scipy.sparse as sp

    A = sp.csc_matrix((value, index, start), shape=(len(rhs), len(c)))
    try:
        res = sopt.linprog(
            c, A_ub=A, b_ub=rhs, bounds=np.stack([lb, ub], axis=1), method="highs"
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
    return np.asarray(res.x, dtype=float)


def lp_solve_axis(
    sizes: np.ndarray,
    edges: list[tuple[int, int]],
    lo: float,
    hi: float,
    nets: list[AxisNet] | BoundNets,
    solver: LPSolver | None = None,
) -> np.ndarray:
    """Solve the Eq. 3 LP for one axis; returns lower-left coordinates.

    Raises :class:`SolverInfeasibleError` when the LP is infeasible or the
    solver errors — use :func:`lp_legalize_axis` for the degrading wrapper
    that falls back to greedy packing instead.  The fault-injection site
    ``lp.solve`` simulates solver failure here.  An LP whose constraint
    edges overflow the span (:func:`_overflows`) raises the error HiGHS
    raises for an infeasible model, without calling it.  *nets* may come
    compiled (:class:`BoundNets`); an :class:`AxisNet` list is compiled on
    the spot.  *solver* runs the LP on its HiGHS instance instead of a
    fresh one.
    """
    sizes = np.asarray(sizes, dtype=float)
    n = len(sizes)
    if n == 0:
        return np.zeros(0)

    name = "highs" if _highs is not None else "linprog"
    if faults.should_fire("lp.solve"):
        raise SolverInfeasibleError(
            "injected LP solver failure", solver=name, status="injected"
        )
    if _overflows(sizes, edges, lo, hi):
        raise SolverInfeasibleError(
            "LP did not converge: Infeasible", solver=name, status=2
        )

    if not isinstance(nets, BoundNets):
        fixed = [q for net in nets for q in net.fixed_positions]
        nets = BoundNets(CompiledNets(n, nets), np.array(fixed, dtype=float))
    arrays = nets.nets.lp_arrays(sizes, edges, lo, hi, nets.fixed)
    if _highs is None:
        solve = _solve_linprog
    else:
        solve = _solve_highs if solver is None else solver
    return solve(*arrays)[:n]


def lp_legalize_axis(
    sizes: np.ndarray,
    edges: list[tuple[int, int]],
    lo: float,
    hi: float,
    nets: list[AxisNet] | BoundNets,
    on_degrade=None,
    solver: LPSolver | None = None,
) -> np.ndarray:
    """Retry-with-fallback wrapper around :func:`lp_solve_axis`.

    A solver error is retried once (it is occasionally transient); an
    infeasible LP is not.  When the LP fails the axis degrades to
    :func:`pack_longest_path` — compaction toward ``lo`` honoring the
    sequence-pair order — clamped so no rectangle starts past
    ``max(hi - size, lo)`` (overlap may then remain — the caller decides
    how to handle residual overflow), and *on_degrade* (if given) is
    called with the terminal :class:`SolverInfeasibleError` so callers can
    record a degradation event instead of crashing.  *nets* and *solver*
    are passed on to :func:`lp_solve_axis`.
    """
    sizes = np.asarray(sizes, dtype=float)
    if len(sizes) == 0:
        return np.zeros(0)
    error: SolverInfeasibleError | None = None
    for _attempt in range(2):
        try:
            return lp_solve_axis(sizes, edges, lo, hi, nets, solver)
        except SolverInfeasibleError as exc:
            error = exc
            if exc.details.get("status") != "error":
                break  # deterministic infeasibility: retrying cannot help
    if on_degrade is not None:
        on_degrade(error)
    packed = pack_longest_path(sizes, edges, lo)
    return np.minimum(packed, np.maximum(hi - sizes, lo))

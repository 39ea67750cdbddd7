"""Mixed-size analytical placer — the DREAMPlace [25] stand-in.

Two entry points:

- :class:`MixedSizePlacer` — full mixed-size placement: macros and cells
  placed together by iterated quadratic solves + blockage-aware spreading,
  then movable macros legalized by greedy displacement-minimal snapping.
  This is the "[25]" baseline column of Table II and the initial-prototype
  placement "[23]" feeding the clustering step.
- :func:`place_cells_with_fixed_macros` — the flow's cell-placement step
  (Sec. II-C): macros are fixed, cells are placed around them, and the
  measured HPWL is returned.  This is what turns a macro-group allocation
  into the wirelength the RL reward (Eq. 9) and the MCTS terminal
  evaluation consume.  A caller that places the same design again passes
  a :class:`~repro.gp.quadratic.CompiledQP` it keeps, so the design's pin
  table, QP matrices and LU factors are built once (bitwise the same
  result).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.gp.quadratic import CompiledQP, solve_quadratic_placement
from repro.gp.spreading import blocked_area_grid, spread_step
from repro.netlist.hpwl import FlatNetlist
from repro.netlist.model import Design, NodeKind, PlacementRegion


@dataclass
class PlacementResult:
    """Outcome of an analytical placement run."""

    hpwl: float
    iterations: int
    macro_overlap: float


def _clamp_centers(
    flat: FlatNetlist, idx: np.ndarray, region: PlacementRegion
) -> None:
    """Clamp node centers so rectangles stay inside *region*."""
    half_w = flat.width[idx] / 2.0
    half_h = flat.height[idx] / 2.0
    flat.cx[idx] = np.clip(
        flat.cx[idx],
        region.x + half_w,
        np.maximum(region.x + half_w, region.x_max - half_w),
    )
    flat.cy[idx] = np.clip(
        flat.cy[idx],
        region.y + half_h,
        np.maximum(region.y + half_h, region.y_max - half_h),
    )


def _total_overlap(rects: list[tuple[float, float, float, float]]) -> float:
    """Sum of pairwise intersection areas of (x, y, w, h) rectangles."""
    total = 0.0
    for i in range(len(rects)):
        xi, yi, wi, hi = rects[i]
        for j in range(i + 1, len(rects)):
            xj, yj, wj, hj = rects[j]
            w = min(xi + wi, xj + wj) - max(xi, xj)
            h = min(yi + hi, yj + hj) - max(yi, yj)
            if w > 0 and h > 0:
                total += w * h
    return total


@functools.lru_cache(maxsize=64)
def _unit_circle(n_angles: int) -> np.ndarray:
    """Rows ``cos``/``sin`` of ``2π·a / n_angles`` per ``a``, via :mod:`math`
    (shared between calls, so read-only)."""
    theta = [2.0 * math.pi * a / n_angles for a in range(n_angles)]
    circle = np.array([[math.cos(t) for t in theta], [math.sin(t) for t in theta]])
    circle.flags.writeable = False
    return circle


#: first ring of each group of spiral rings tested in one broadcast: two
#: rings at a time up to ring 8, then four, then the rest (the last group
#: runs to ``max_radius_steps``).  Most macros settle in the first rings,
#: and a group costs a test of all its rings, so the early groups are small.
_RING_CHUNK_STARTS = (1, 3, 5, 7, 9, 13, 17)


class _RingChunk:
    """The candidate offsets of consecutive spiral rings, ring by ring:
    ``(ring * step) * circle``, one flat array per axis, and the end of
    each ring's run of candidates."""

    def __init__(self, step: float, first: int, last: int) -> None:
        offsets = [
            (ring * step) * _unit_circle(max(8, ring * 8))
            for ring in range(first, last + 1)
        ]
        self.dx = np.concatenate([o[0] for o in offsets])
        self.dy = np.concatenate([o[1] for o in offsets])
        self.ends = np.cumsum([o.shape[1] for o in offsets])


def legalize_macros_greedy(design: Design, max_radius_steps: int = 24) -> float:
    """Snap movable macros to overlap-free positions near their GP targets.

    Processes macros in non-increasing area order (the big ones anchor the
    floorplan); each macro scans a spiral of candidate positions around its
    analytical position and takes the closest candidate with no overlap
    against preplaced or previously-legalized macros.  Returns the residual
    pairwise macro overlap (0.0 when legalization fully succeeded).

    Ring 0 (the target itself) is one scalar test against the placed
    rectangles, kept as one flat array per bound.  The later rings are
    tested a few at a time (:data:`_RING_CHUNK_STARTS`), every candidate
    against every rectangle placed so far, in one broadcast; the first
    ring with a free candidate wins, and in it the first candidate at the
    minimum distance.  That is the ring-by-ring scan, clamp, tie rules
    and all.
    """
    region = design.region
    preplaced = design.netlist.preplaced_macros
    movable = sorted(design.netlist.movable_macros, key=lambda m: -m.area)
    if not movable:
        return 0.0
    step = max(
        min(region.width, region.height) / (2.0 * max_radius_steps),
        min(min(m.width, m.height) for m in movable) / 2.0,
    )

    # Placed rectangles [x0, x1) × [y0, y1), preplaced first.
    n_rects = len(preplaced) + len(movable)
    x0, y0, x1, y1 = (np.empty(n_rects) for _ in range(4))
    for k, m in enumerate(preplaced):
        x0[k], y0[k], x1[k], y1[k] = m.x, m.y, m.x + m.width, m.y + m.height
    n_placed = len(preplaced)
    starts = [ring for ring in _RING_CHUNK_STARTS if ring <= max_radius_steps]
    bounds = list(zip(starts, [ring - 1 for ring in starts[1:]] + [max_radius_steps]))
    chunks: list[_RingChunk] = []  # built on first use

    residual = False
    lo_x, lo_y = float(region.x), float(region.y)
    for macro in movable:
        w, h = macro.width, macro.height
        tx, ty = float(macro.x), float(macro.y)
        hi_x, hi_y = float(region.x_max - w), float(region.y_max - h)
        px0, py0, px1, py1 = x0[:n_placed], y0[:n_placed], x1[:n_placed], y1[:n_placed]
        # ring 0; min(max(v, lo), hi) with Python's tie rules throughout
        x = lo_x if lo_x > tx else tx
        x = hi_x if hi_x < x else x
        y = lo_y if lo_y > ty else ty
        y = hi_y if hi_y < y else y
        best = None
        if not ((x < px1) & (px0 < x + w) & (y < py1) & (py0 < y + h)).any():
            best = (x, y)
        else:
            for k, rings in enumerate(bounds):
                if len(chunks) == k:
                    chunks.append(_RingChunk(step, *rings))
                chunk = chunks[k]
                cx = tx + chunk.dx
                cx = np.where(lo_x > cx, lo_x, cx)
                cx = np.where(hi_x < cx, hi_x, cx)
                cy = ty + chunk.dy
                cy = np.where(lo_y > cy, lo_y, cy)
                cy = np.where(hi_y < cy, hi_y, cy)
                hit = (
                    (cx[:, None] < px1)
                    & (px0 < (cx + w)[:, None])
                    & (cy[:, None] < py1)
                    & (py0 < (cy + h)[:, None])
                ).any(axis=1)
                free = np.flatnonzero(~hit)
                if len(free):
                    # the free candidates of the first ring that has one
                    ring_end = chunk.ends[
                        np.searchsorted(chunk.ends, free[0], side="right")
                    ]
                    free = free[free < ring_end]
                    dx = cx[free] - tx
                    dy = cy[free] - ty
                    pick = free[np.argmin(dx**2 + dy**2)]
                    best = (float(cx[pick]), float(cy[pick]))
                    break
        if best is None:
            # No free slot found: keep the clamped analytical position.
            macro.x = min(max(macro.x, region.x), max(region.x, region.x_max - w))
            macro.y = min(max(macro.y, region.y), max(region.y, region.y_max - h))
            residual = True
        else:
            macro.x, macro.y = best
        x0[n_placed], y0[n_placed] = macro.x, macro.y
        x1[n_placed], y1[n_placed] = macro.x + w, macro.y + h
        n_placed += 1

    if not residual:
        return 0.0
    all_rects = [(m.x, m.y, m.width, m.height) for m in movable] + [
        (m.x, m.y, m.width, m.height) for m in preplaced
    ]
    return _total_overlap(all_rects)


class MixedSizePlacer:
    """Quadratic + spreading mixed-size placer (DREAMPlace stand-in).

    Args:
        n_iterations: spreading/anchored-solve rounds after the initial
            unconstrained solve.
        n_bins: spreading grid resolution per axis (default: derived from
            node count).
        anchor_base/anchor_growth: anchor pseudo-net weight schedule; larger
            weights freeze cells onto their spread targets in later rounds.
        clique_threshold: max net degree handled by the clique net model.
    """

    def __init__(
        self,
        n_iterations: int = 5,
        n_bins: int | None = None,
        anchor_base: float = 0.01,
        anchor_growth: float = 2.0,
        clique_threshold: int = 6,
        eta: float = 0.8,
        spreader: str = "shift",
    ) -> None:
        if spreader not in ("shift", "electrostatic"):
            raise ValueError(
                f"spreader must be 'shift' or 'electrostatic', got {spreader!r}"
            )
        self.n_iterations = n_iterations
        self.n_bins = n_bins
        self.anchor_base = anchor_base
        self.anchor_growth = anchor_growth
        self.clique_threshold = clique_threshold
        self.eta = eta
        self.spreader = spreader

    def _bins_for(self, n_movable: int) -> int:
        if self.n_bins is not None:
            return self.n_bins
        return int(np.clip(round(math.sqrt(max(n_movable, 1)) / 2), 4, 64))

    def _run(
        self,
        design: Design,
        movable_mask: np.ndarray,
        flat: FlatNetlist,
        blockers: list | None = None,
        compiled: CompiledQP | None = None,
        on_unconverged=None,
    ) -> int:
        region = design.region
        center = (region.x + region.width / 2.0, region.y + region.height / 2.0)
        idx = np.flatnonzero(movable_mask)
        if len(idx) == 0:
            return 0
        areas = flat.width[idx] * flat.height[idx]
        nb = self._bins_for(len(idx))
        if blockers is None:
            blockers = [
                n for n in design.netlist if n.fixed and n.kind is not NodeKind.PAD
            ]
        blocked = blocked_area_grid(region, blockers, nb, nb)
        plan = (
            None if compiled is None
            else compiled.plan(movable_mask, self.clique_threshold)
        )

        # Initial pure-connectivity solve.
        solve_quadratic_placement(
            flat, movable_mask, center, clique_threshold=self.clique_threshold,
            plan=plan, on_unconverged=on_unconverged,
        )
        _clamp_centers(flat, idx, region)

        electro = None
        if self.spreader == "electrostatic":
            from repro.gp.density import ElectrostaticSpreader

            electro = ElectrostaticSpreader(bins=nb, blocked=blocked)

        weight = self.anchor_base
        iterations = 0
        for _ in range(self.n_iterations):
            if electro is not None:
                sx, sy = flat.cx[idx].copy(), flat.cy[idx].copy()
                for _sub in range(4):  # a few field steps per anchored solve
                    sx, sy = electro.step(sx, sy, areas, region)
            else:
                sx, sy = spread_step(
                    flat.cx[idx], flat.cy[idx], areas, region, blocked, eta=self.eta
                )
            solve_quadratic_placement(
                flat,
                movable_mask,
                center,
                clique_threshold=self.clique_threshold,
                anchor_weight=np.full(len(idx), weight),
                anchor_x=sx,
                anchor_y=sy,
                plan=plan,
                on_unconverged=on_unconverged,
            )
            _clamp_centers(flat, idx, region)
            weight *= self.anchor_growth
            iterations += 1
        return iterations

    def place(
        self,
        design: Design,
        move_macros: bool = True,
        compiled: CompiledQP | None = None,
        on_unconverged=None,
    ) -> PlacementResult:
        """Place *design* in-place and return the measured result.

        With ``move_macros=False`` only standard cells move (macros must
        already be fixed/placed), and only the cells are written back to
        the design; this is the configuration used as the flow's final
        cell-placement step.  *compiled* reuses the design's pin table and
        QP plans from an earlier call with the same *compiled*.  Every QP
        solve reports an unconverged conjugate-gradient axis to
        *on_unconverged* (see :func:`~repro.gp.quadratic.solve_system`).
        """
        if compiled is None:
            flat = FlatNetlist(design.netlist)
        else:
            flat = compiled.flat(design.netlist)
        movable_mask = ~flat.fixed
        blockers = None
        if not move_macros:
            for i, node in enumerate(design.netlist):
                if node.kind is NodeKind.MACRO:
                    movable_mask[i] = False
                    flat.fixed[i] = True
            blockers = list(design.netlist.macros)
        iterations = self._run(
            design, movable_mask, flat, blockers=blockers, compiled=compiled,
            on_unconverged=on_unconverged,
        )
        flat.writeback(None if move_macros else np.flatnonzero(movable_mask))

        overlap = 0.0
        if move_macros:
            overlap = legalize_macros_greedy(design)
            flat.reload()
            # Re-place cells around the now-legal macros.
            cell_mask = movable_mask.copy()
            for i, node in enumerate(design.netlist):
                if node.kind is NodeKind.MACRO:
                    cell_mask[i] = False
                    flat.fixed[i] = True
            all_macros = list(design.netlist.macros)
            iterations += self._run(
                design, cell_mask, flat, blockers=all_macros, compiled=compiled,
                on_unconverged=on_unconverged,
            )
            flat.writeback()

        return PlacementResult(
            hpwl=flat.total_hpwl(), iterations=iterations, macro_overlap=overlap
        )


def place_cells_with_fixed_macros(
    design: Design,
    n_iterations: int = 4,
    compiled: CompiledQP | None = None,
    on_unconverged=None,
) -> float:
    """Place standard cells around the current (fixed) macros; return HPWL.

    This is the flow's Sec. II-C step: "After all the macros have been
    placed, we leverage [a] mixed-size placer to generate [the] full
    placement result, which also returns a measured wirelength value."
    A caller that places cells of the same design again keeps a
    *compiled* state and passes it every time (see
    :meth:`MixedSizePlacer.place`, which also takes *on_unconverged*).
    """
    placer = MixedSizePlacer(n_iterations=n_iterations)
    return placer.place(
        design, move_macros=False, compiled=compiled, on_unconverged=on_unconverged
    ).hpwl

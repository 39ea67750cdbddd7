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


def _unit_circle(n_angles: int) -> np.ndarray:
    """Rows ``cos``/``sin`` of ``2π·a / n_angles`` per ``a``, via :mod:`math`."""
    theta = [2.0 * math.pi * a / n_angles for a in range(n_angles)]
    return np.array([[math.cos(t) for t in theta], [math.sin(t) for t in theta]])


def legalize_macros_greedy(design: Design, max_radius_steps: int = 24) -> float:
    """Snap movable macros to overlap-free positions near their GP targets.

    Processes macros in non-increasing area order (the big ones anchor the
    floorplan); each macro scans a spiral of candidate positions around its
    analytical position and takes the closest candidate with no overlap
    against preplaced or previously-legalized macros.  Returns the residual
    pairwise macro overlap (0.0 when legalization fully succeeded).

    Each spiral ring is tested in one broadcast, every candidate against
    every rectangle placed so far; the first candidate at the minimum
    distance wins.
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

    # Placed rectangles as rows (x, y, x + w, y + h), preplaced first.
    placed = np.empty((len(preplaced) + len(movable), 4))
    for k, m in enumerate(preplaced):
        placed[k] = (m.x, m.y, m.x + m.width, m.y + m.height)
    n_placed = len(preplaced)
    region_lo = np.array([[region.x], [region.y]])
    circles: list[np.ndarray] = []  # unit circle per ring, built on first use

    residual = False
    for macro in movable:
        w, h = macro.width, macro.height
        target = np.array([[macro.x], [macro.y]])
        size = np.array([[w], [h]])
        region_hi = np.array([[region.x_max - w], [region.y_max - h]])
        placed_lo = placed[:n_placed, :2].T[:, None, :]
        placed_hi = placed[:n_placed, 2:].T[:, None, :]
        best = None
        for ring in range(max_radius_steps + 1):
            if ring == 0:
                xy = target
            else:
                if len(circles) < ring:
                    circles.append(_unit_circle(max(8, ring * 8)))
                xy = target + (ring * step) * circles[ring - 1]
            # min(max(xy, lo), hi) with Python's tie rules
            xy = np.where(region_lo > xy, region_lo, xy)
            xy = np.where(region_hi < xy, region_hi, xy)
            hit = (
                (xy[:, :, None] < placed_hi) & (placed_lo < (xy + size)[:, :, None])
            ).all(axis=0).any(axis=1)
            free = np.flatnonzero(~hit)
            if len(free):
                dx, dy = xy[:, free] - target
                best = xy[:, free[np.argmin(dx**2 + dy**2)]]
                break
        if best is None:
            # No free slot found: keep the clamped analytical position.
            macro.x = min(max(macro.x, region.x), max(region.x, region.x_max - w))
            macro.y = min(max(macro.y, region.y), max(region.y, region.y_max - h))
            residual = True
        else:
            macro.x, macro.y = float(best[0]), float(best[1])
        placed[n_placed] = (macro.x, macro.y, macro.x + w, macro.y + h)
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
            plan=plan,
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
    ) -> PlacementResult:
        """Place *design* in-place and return the measured result.

        With ``move_macros=False`` only standard cells move (macros must
        already be fixed/placed), and only the cells are written back to
        the design; this is the configuration used as the flow's final
        cell-placement step.  *compiled* reuses the design's pin table and
        QP plans from an earlier call with the same *compiled*.
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
            design, movable_mask, flat, blockers=blockers, compiled=compiled
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
                design, cell_mask, flat, blockers=all_macros, compiled=compiled
            )
            flat.writeback()

        return PlacementResult(
            hpwl=flat.total_hpwl(), iterations=iterations, macro_overlap=overlap
        )


def place_cells_with_fixed_macros(
    design: Design, n_iterations: int = 4, compiled: CompiledQP | None = None
) -> float:
    """Place standard cells around the current (fixed) macros; return HPWL.

    This is the flow's Sec. II-C step: "After all the macros have been
    placed, we leverage [a] mixed-size placer to generate [the] full
    placement result, which also returns a measured wirelength value."
    A caller that places cells of the same design again keeps a
    *compiled* state and passes it every time (see
    :meth:`MixedSizePlacer.place`).
    """
    placer = MixedSizePlacer(n_iterations=n_iterations)
    return placer.place(design, move_macros=False, compiled=compiled).hpwl

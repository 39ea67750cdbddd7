"""Test-side oracle for greedy clustering's spatial candidates.

:func:`greedy_cluster_kdtree` is the clustering loop as it ran before
:class:`~repro.coarsen.knn.CentroidIndex`: the heap is seeded from one
``cKDTree`` query of every centroid (k + 1 neighbours, the centroid itself
among them), and after every merge a ``cKDTree`` is rebuilt over every
live group to find the merged group's k nearest.  It is quadratic in the
number of groups; only the tests and CI's oracle step run it.

:func:`coarsen_both` coarsens one placed design with the index and with
this oracle; :func:`coarse_digest` reduces a coarse netlist to what must
come out identical: every group's id, kind, members, area and centroid
bits, and the coarse nets.

Run as a script it coarsens one suite circuit both ways and fails unless
the two agree::

    PYTHONPATH=src python -m tests.coarsen_oracles ibm01 0.3 0.08
"""

from __future__ import annotations

import heapq
import sys
from unittest import mock

import numpy as np
from scipy.spatial import cKDTree

from repro.coarsen import cluster
from repro.coarsen.coarse import coarsen_design
from repro.coarsen.groups import Group
from repro.grid.plan import GridPlan


def greedy_cluster_kdtree(
    seeds, nets, score_fn, max_area, threshold, k_spatial=6
) -> list[Group]:
    """:func:`repro.coarsen.cluster.greedy_cluster` with a ``cKDTree``
    rebuilt for every spatial query."""
    groups: dict[int, Group] = {g.gid: g for g in seeds}
    next_gid = max(groups, default=-1) + 1
    group_of_node = {name: g.gid for g in seeds for name in g.members}
    conn = cluster._Connectivity()
    if nets:
        conn = cluster._build_connectivity(nets, group_of_node)

    heap: list[tuple[float, int, int]] = []

    def push_pair(a: int, b: int) -> None:
        ga, gb = groups.get(a), groups.get(b)
        if ga is None or gb is None:
            return
        if ga.area + gb.area > max_area:
            return
        s = score_fn(ga, gb, conn.weight(a, b))
        if s >= threshold:
            heapq.heappush(heap, (-s, a, b))

    def spatial_neighbors(gid: int, k: int) -> list[int]:
        active = [g for g in groups.values() if g.gid != gid]
        if not active:
            return []
        tree = cKDTree(np.array([[g.cx, g.cy] for g in active]))
        g = groups[gid]
        _, idx = tree.query([g.cx, g.cy], k=min(k, len(active)))
        return [active[int(i)].gid for i in np.atleast_1d(idx)]

    for gid in list(groups):
        for nb in conn.neighbors(gid):
            if gid < nb:
                push_pair(gid, nb)
    if k_spatial > 0 and len(groups) > 1:
        pts = np.array([[g.cx, g.cy] for g in groups.values()])
        gids = list(groups)
        _, nbrs = cKDTree(pts).query(pts, k=min(k_spatial + 1, len(gids)))
        for i, row in enumerate(np.atleast_2d(nbrs)):
            for j in np.atleast_1d(row):
                a, b = gids[i], gids[int(j)]
                if a < b:
                    push_pair(a, b)

    while heap:
        neg_s, a, b = heapq.heappop(heap)
        ga, gb = groups.get(a), groups.get(b)
        if ga is None or gb is None:
            continue
        s = score_fn(ga, gb, conn.weight(a, b))
        if s < threshold or ga.area + gb.area > max_area:
            continue
        if s < -neg_s - 1e-12:
            heapq.heappush(heap, (-s, a, b))
            continue
        merged = ga.merged_with(gb, next_gid)
        next_gid += 1
        del groups[a], groups[b]
        groups[merged.gid] = merged
        conn.merge(a, b, merged.gid)
        for nb in conn.neighbors(merged.gid):
            push_pair(min(merged.gid, nb), max(merged.gid, nb))
        if k_spatial > 0:
            for nb in spatial_neighbors(merged.gid, k_spatial):
                push_pair(min(merged.gid, nb), max(merged.gid, nb))

    return sorted(groups.values(), key=lambda g: g.gid)


def coarse_digest(coarse) -> tuple[list, list]:
    """Every group's id, kind, members, area and centroid bits, in the
    canonical order, and every coarse net's groups and weight bits."""
    groups = [
        (g.gid, g.kind.value, tuple(g.members), g.area.hex(), g.cx.hex(), g.cy.hex())
        for g in coarse.all_groups
    ]
    return groups, [(net.groups, net.weight.hex()) for net in coarse.coarse_nets]


def coarsen_both(design, zeta: int = 8):
    """(index digest, oracle digest) of *design*, coarsened over a
    ζ×ζ grid as the flow does."""
    plan = GridPlan(design.region, zeta=zeta)
    ours = coarse_digest(coarsen_design(design, plan))
    with mock.patch.object(cluster, "greedy_cluster", greedy_cluster_kdtree):
        oracle = coarse_digest(coarsen_design(design, plan))
    return ours, oracle


def placed_suite_design(circuit: str, scale: float, macro_scale: float):
    """A suite circuit with the flow's prototype placement (the positions
    coarsening measures)."""
    from repro.gp.mixed_size import MixedSizePlacer
    from repro.netlist.suites import (
        INDUSTRIAL_STATS,
        make_iccad04_circuit,
        make_industrial_circuit,
    )

    make = make_industrial_circuit if circuit in INDUSTRIAL_STATS else make_iccad04_circuit
    design = make(circuit, scale=scale, macro_scale=macro_scale).design
    MixedSizePlacer(n_iterations=3).place(design)
    return design


def main(argv: list[str]) -> int:
    circuit, scale, macro_scale = argv[0], float(argv[1]), float(argv[2])
    design = placed_suite_design(circuit, scale, macro_scale)
    ours, oracle = coarsen_both(design)
    if ours != oracle:
        print(f"{circuit} {scale}: coarsening differs from the cKDTree oracle")
        return 1
    print(f"{circuit} {scale}: {len(design.netlist.cells)} cells, "
          f"{len(ours[0])} groups identical to the cKDTree oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

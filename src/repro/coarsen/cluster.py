"""Greedy highest-score-pair clustering (Sec. II-A).

Both macro and cell grouping follow the same loop: repeatedly merge the pair
of groups with the highest score, subject to

- the merged group's area must not exceed one grid cell (``max_area``), and
- the best available score must stay above the threshold ν.

The engine uses a lazy max-heap over candidate pairs.  Scoring *every* pair
is O(n²) and prohibitive for cell grouping at full scale, so candidates are
restricted to (a) net-connected pairs and (b) each group's spatial
k-nearest neighbours in the prototype placement — the two terms through
which Eq. 1/Eq. 2 can actually produce large scores (connectivity w and
inverse distance 1/ΔD).  The same restriction is used by practical
clustering implementations; it is exact for the top-score pair whenever
that pair is connected or spatially adjacent.  The neighbours come from one
:class:`~repro.coarsen.knn.CentroidIndex` over the live group centroids,
updated at each merge.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.coarsen.groups import Group, GroupKind
from repro.coarsen.knn import CentroidIndex
from repro.coarsen.scores import (
    GammaParams,
    PhiParams,
    gamma_score,
    phi_score,
)
from repro.netlist.model import Net, Netlist, Node

#: Nets above this degree contribute no clustering connectivity (standard
#: practice: giant nets carry no locality signal and cost O(d²) pairs).
CONNECTIVITY_DEGREE_CAP = 64


class _Connectivity:
    """Pairwise net-weight between groups, maintained across merges."""

    def __init__(self) -> None:
        self._adj: dict[int, dict[int, float]] = {}

    def add(self, a: int, b: int, w: float) -> None:
        if a == b:
            return
        self._adj.setdefault(a, {})[b] = self._adj.setdefault(a, {}).get(b, 0.0) + w
        self._adj.setdefault(b, {})[a] = self._adj.setdefault(b, {}).get(a, 0.0) + w

    def weight(self, a: int, b: int) -> float:
        return self._adj.get(a, {}).get(b, 0.0)

    def neighbors(self, a: int) -> dict[int, float]:
        return self._adj.get(a, {})

    def merge(self, a: int, b: int, c: int) -> None:
        """Fold groups *a* and *b* into the new group id *c*."""
        combined: dict[int, float] = {}
        for src in (a, b):
            for n, w in self._adj.pop(src, {}).items():
                if n in (a, b):
                    continue
                combined[n] = combined.get(n, 0.0) + w
        for n, w in combined.items():
            adj_n = self._adj.get(n)
            if adj_n is not None:
                adj_n.pop(a, None)
                adj_n.pop(b, None)
                adj_n[c] = w
        self._adj[c] = combined


def _build_connectivity(
    nets: list[Net], group_of_node: dict[str, int]
) -> _Connectivity:
    conn = _Connectivity()
    for net in nets:
        gids = sorted(
            {group_of_node[p.node] for p in net.pins if p.node in group_of_node}
        )
        if len(gids) < 2 or len(gids) > CONNECTIVITY_DEGREE_CAP:
            continue
        for a, b in itertools.combinations(gids, 2):
            conn.add(a, b, net.weight)
    return conn


def greedy_cluster(
    seeds: list[Group],
    nets: list[Net],
    score_fn: Callable[[Group, Group, float], float],
    max_area: float,
    threshold: float,
    k_spatial: int = 6,
) -> list[Group]:
    """Run the greedy merge loop and return the surviving groups.

    *seeds* are single-node groups; *score_fn(gi, gj, w)* evaluates the
    clustering score given the current connectivity weight *w*.  A group's
    spatial candidates are its *k_spatial* nearest live groups by centroid,
    ties at the k-th distance going to the lower group ids.
    """
    groups: dict[int, Group] = {g.gid: g for g in seeds}
    next_gid = max(groups, default=-1) + 1
    group_of_node = {name: g.gid for g in seeds for name in g.members}
    conn = _Connectivity()
    if nets:
        conn = _build_connectivity(nets, group_of_node)

    heap: list[tuple[float, int, int]] = []  # (-score, gid_a, gid_b)

    def push_pair(a: int, b: int) -> None:
        ga, gb = groups.get(a), groups.get(b)
        if ga is None or gb is None:
            return
        if ga.area + gb.area > max_area:
            return
        s = score_fn(ga, gb, conn.weight(a, b))
        if s >= threshold:
            heapq.heappush(heap, (-s, a, b))

    index = CentroidIndex((g.gid, g.cx, g.cy) for g in groups.values())

    # Seed the heap: connected pairs + k-nearest spatial pairs.
    for gid in list(groups):
        for nb in conn.neighbors(gid):
            if gid < nb:
                push_pair(gid, nb)
    if k_spatial > 0:
        for gid in list(groups):
            for nb in index.nearest(gid, k_spatial):
                if gid < nb:
                    push_pair(gid, nb)

    while heap:
        neg_s, a, b = heapq.heappop(heap)
        ga, gb = groups.get(a), groups.get(b)
        if ga is None or gb is None:
            continue  # stale entry
        # Re-validate the score (connectivity may have changed since push).
        s = score_fn(ga, gb, conn.weight(a, b))
        if s < threshold or ga.area + gb.area > max_area:
            continue
        if s < -neg_s - 1e-12:
            # Score decayed; re-push with the fresh value.
            heapq.heappush(heap, (-s, a, b))
            continue

        merged = ga.merged_with(gb, next_gid)
        next_gid += 1
        del groups[a], groups[b]
        groups[merged.gid] = merged
        conn.merge(a, b, merged.gid)
        index.remove(a)
        index.remove(b)
        index.insert(merged.gid, merged.cx, merged.cy)

        for nb in conn.neighbors(merged.gid):
            lo, hi = min(merged.gid, nb), max(merged.gid, nb)
            push_pair(lo, hi)
        if k_spatial > 0:
            for nb in index.nearest(merged.gid, k_spatial):
                lo, hi = min(merged.gid, nb), max(merged.gid, nb)
                push_pair(lo, hi)

    return sorted(groups.values(), key=lambda g: g.gid)


def cluster_macros(
    netlist: Netlist,
    max_area: float,
    params: GammaParams = GammaParams(),
    k_spatial: int = 6,
) -> list[Group]:
    """Group movable macros with the Γ score (Eq. 1).

    Each macro starts as its own group; preplaced macros are excluded (they
    are not allocation decisions).  ``max_area`` is one grid cell's area.
    """
    seeds = [
        Group.of_node(i, m, GroupKind.MACRO)
        for i, m in enumerate(netlist.movable_macros)
    ]
    score = lambda gi, gj, w: gamma_score(gi, gj, w, params)  # noqa: E731
    return greedy_cluster(
        seeds, netlist.nets, score, max_area, params.threshold, k_spatial
    )


def cluster_cells(
    netlist: Netlist,
    max_area: float,
    params: PhiParams = PhiParams(),
    k_spatial: int = 6,
) -> list[Group]:
    """Group standard cells with the φ score (Eq. 2)."""
    seeds = [
        Group.of_node(i, c, GroupKind.CELL) for i, c in enumerate(netlist.cells)
    ]
    score = lambda gi, gj, w: phi_score(gi, gj, w, params)  # noqa: E731
    return greedy_cluster(
        seeds, netlist.nets, score, max_area, params.threshold, k_spatial
    )


def singleton_groups(nodes: list[Node], kind: GroupKind, start_gid: int = 0) -> list[Group]:
    """One group per node (used for pads and preplaced macros)."""
    return [Group.of_node(start_gid + i, n, kind) for i, n in enumerate(nodes)]

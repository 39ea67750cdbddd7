"""Exact k-nearest-neighbour queries over the live group centroids.

Greedy clustering (:func:`repro.coarsen.cluster.greedy_cluster`) asks, after
every merge, for the k groups nearest to the merged one.  Building a k-d
tree over every live group for each of those queries makes coarsening
quadratic in the cell count.  :class:`CentroidIndex` keeps one k-d tree
across the merges instead: a merge removes two keys from their leaves and
inserts one, a leaf that grows past :data:`LEAF_SPLIT` keys splits in
place, and the tree is rebuilt whenever the point count has halved since
it was last built.  A query descends to the query's leaf and backtracks
only into subtrees whose splitting planes lie no farther than the k-th
candidate, so it costs O(k + log n) on a balanced tree.  Prototype
placements crowd most cells into a small patch of the die, which is why
the splits follow the points (medians) rather than a uniform grid.

Tie rule: neighbours are ordered by squared distance, computed as
``dx * dx + dy * dy`` in float64 (the arithmetic of scipy's k-d tree), and
then by key; a query returns the first k.  So among points at exactly the
k-th distance the lowest keys are kept.  Without such ties the result is
exactly the neighbour set scipy's ``cKDTree`` returns.
"""

from __future__ import annotations

import heapq
from typing import Iterable

#: keys a leaf holds when the tree is built
LEAF_SIZE = 8
#: keys at which a leaf that insertions filled splits in two
LEAF_SPLIT = 2 * LEAF_SIZE


class CentroidIndex:
    """Points under integer keys, queried for the k nearest other points
    of a stored one (ties as the module docstring states).

    Node ``i`` of the tree is a leaf when ``_keys[i]`` is a list of keys;
    otherwise a point goes to ``_left[i]`` when its coordinate on axis
    ``_axis[i]`` is below ``_split[i]`` and to ``_right[i]`` when not.
    """

    def __init__(self, points: Iterable[tuple[int, float, float]]) -> None:
        self._xy: dict[int, tuple[float, float]] = {
            key: (float(x), float(y)) for key, x, y in points
        }
        self._build()

    def _build(self) -> None:
        """Build a balanced tree over the points held now."""
        self._sized_for = len(self._xy)
        self._axis: list[int] = []
        self._split: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._keys: list[list[int] | None] = []
        #: the leaf holding each key
        self._leaf: dict[int, int] = {}
        self._grow(list(self._xy))

    def _grow(self, keys: list[int], node: int | None = None) -> int:
        """Make *node* (a new node if None) the root of a subtree over
        *keys*, split at medians, and return it."""
        if node is None:
            node = len(self._keys)
            self._axis.append(0)
            self._split.append(0.0)
            self._left.append(-1)
            self._right.append(-1)
            self._keys.append(None)
        if len(keys) > LEAF_SIZE:
            xy = self._xy
            xs = [xy[key][0] for key in keys]
            ys = [xy[key][1] for key in keys]
            # the axis of larger spread first; either axis whose median
            # leaves both sides non-empty will do
            axes = (0, 1) if max(xs) - min(xs) >= max(ys) - min(ys) else (1, 0)
            for axis in axes:
                coords = sorted(xs if axis == 0 else ys)
                split = coords[len(coords) // 2]
                if coords[0] < split:
                    low = [key for key in keys if xy[key][axis] < split]
                    high = [key for key in keys if not xy[key][axis] < split]
                    self._keys[node] = None
                    self._axis[node], self._split[node] = axis, split
                    self._left[node] = self._grow(low)
                    self._right[node] = self._grow(high)
                    return node
        # few keys, or all at one point: a leaf
        self._keys[node] = keys
        for key in keys:
            self._leaf[key] = node
        return node

    def insert(self, key: int, x: float, y: float) -> None:
        """Store the point (x, y) under *key*, a key not held."""
        point = self._xy[key] = (float(x), float(y))
        node = 0
        while self._keys[node] is None:
            if point[self._axis[node]] < self._split[node]:
                node = self._left[node]
            else:
                node = self._right[node]
        keys = self._keys[node]
        keys.append(key)
        self._leaf[key] = node
        if len(keys) > LEAF_SPLIT:
            self._grow(keys, node)

    def remove(self, key: int) -> None:
        """Drop the point stored under *key*."""
        del self._xy[key]
        self._keys[self._leaf.pop(key)].remove(key)
        if 2 * len(self._xy) < self._sized_for:
            self._build()

    def nearest(self, key: int, k: int) -> list[int]:
        """The keys of the (at most) *k* points nearest to *key*'s point,
        *key* excluded, nearest first."""
        k = min(k, len(self._xy) - 1)
        if k <= 0:
            return []
        xy = self._xy
        q = x, y = xy[key]
        axis_of, split_of = self._axis, self._split
        left, right, leaf_keys = self._left, self._right, self._keys
        # the k best so far as (-d2, -key): the root is the worst of them
        best: list[tuple[float, int]] = []
        worst = float("inf")
        # (node, a lower bound on the squared distance of its points)
        stack = [(0, 0.0)]
        while stack:
            node, bound = stack.pop()
            if bound > worst:
                continue
            keys = leaf_keys[node]
            if keys is None:
                gap = q[axis_of[node]] - split_of[node]
                far_bound = max(bound, gap * gap)
                if gap < 0.0:
                    stack.append((right[node], far_bound))
                    stack.append((left[node], bound))
                else:
                    stack.append((left[node], far_bound))
                    stack.append((right[node], bound))
                continue
            for other in keys:
                if other == key:
                    continue
                ox, oy = xy[other]
                dx, dy = x - ox, y - oy
                item = (-(dx * dx + dy * dy), -other)
                if len(best) < k:
                    heapq.heappush(best, item)
                    if len(best) == k:
                        worst = -best[0][0]
                elif item > best[0]:
                    heapq.heapreplace(best, item)
                    worst = -best[0][0]
        best.sort(reverse=True)
        return [-other for _, other in best]

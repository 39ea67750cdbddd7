"""Search-tree nodes and edge statistics (Sec. IV-A).

Each node corresponds to a partial placement (depth t ⇔ t macro groups
placed).  Edge statistics live on the parent, vectorized over its valid
actions:

- ``N(s_p, s_q)`` — traversal count,
- ``P(s_p, s_q)`` — prior from π_θ,
- ``W(s_p, s_q)`` — accumulated value,
- ``Q(s_p, s_q)`` — mean value W/N (Eq. 12).

Selection reads the PUCT terms from :class:`_EdgeStats`, which every
:meth:`Node.record` updates in place instead of re-deriving them from the
arrays at every descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


#: the per-edge arrays of a node, all of one length
_EDGE_ARRAYS = ("actions", "prior", "visit", "total_value")


@dataclass
class Node:
    """One partial-placement state in the search tree."""

    depth: int
    #: flat anchor indices that are legal from this state
    actions: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    #: prior probabilities over :attr:`actions` (π_θ)
    prior: np.ndarray = field(default_factory=lambda: np.zeros(0))
    visit: np.ndarray = field(default_factory=lambda: np.zeros(0))
    total_value: np.ndarray = field(default_factory=lambda: np.zeros(0))
    children: dict[int, "Node"] = field(default_factory=dict)
    expanded: bool = False
    terminal: bool = False
    #: cached true evaluation for terminal nodes
    terminal_value: float | None = None

    #: derived PUCT terms (:class:`_EdgeStats`); rebuilt when the edge
    #: arrays are replaced, and never pickled
    _stats = None

    def __getstate__(self) -> dict:
        """The node's fields, each edge array as a ``(dtype.str, bytes)``
        pair: a snapshot pickles a whole tree, and raw bytes pickle at
        about half the cost of arrays.  The dtype travels with the bytes
        because ``prior`` may be float32 or float64."""
        state = self.__dict__.copy()
        state.pop("_stats", None)
        for name in _EDGE_ARRAYS:
            array = state[name]
            state[name] = (array.dtype.str, array.tobytes())
        return state

    def __setstate__(self, state: dict) -> None:
        for name in _EDGE_ARRAYS:
            dtype, data = state[name]
            state[name] = np.frombuffer(data, dtype=dtype).copy()
        self.__dict__.update(state)

    def _edge_stats(self) -> "_EdgeStats":
        stats = self._stats
        if stats is None or not stats.derived_from(self):
            stats = self._stats = _EdgeStats(self)
        return stats

    def q_values(self) -> np.ndarray:
        """Mean edge values; unvisited edges read as 0 (paper's init)."""
        return self._edge_stats().q.copy()

    def puct_scores(self, c: float) -> np.ndarray:
        """Q + U with U per Eq. 11 (PUCT)."""
        return self._edge_stats().scores(c)

    def select(self, c: float) -> tuple[int, int, "Node"]:
        """One level of a descent: argmax over Q+U (Eq. 10, first-max
        tie-break), as ``(edge index, action, child)`` with the child
        created lazily."""
        stats = self._edge_stats()
        index = int(stats.scores(c, out=stats.buffer).argmax())
        action = int(self.actions[index])
        return index, action, self._child(action)

    def child_for(self, action_index: int) -> "Node":
        """Child node reached by :attr:`actions`[action_index] (created lazily)."""
        return self._child(int(self.actions[action_index]))

    def _child(self, action: int) -> "Node":
        child = self.children.get(action)
        if child is None:
            child = self.children[action] = Node(depth=self.depth + 1)
        return child

    def record(self, action_index: int, value: float) -> None:
        """Eq. 12 update for one traversed edge, and its PUCT terms.

        The float64 arithmetic runs on Python floats (``value`` converted
        exactly), which gives the bits of the array expressions
        ``visit[i] += 1``, ``total_value[i] += value`` and
        ``Q[i] = W[i] / max(N[i], 1)`` at a fraction of their cost.
        """
        n = self.visit.item(action_index) + 1.0
        self.visit[action_index] = n
        w = self.total_value.item(action_index) + float(value)
        self.total_value[action_index] = w
        stats = self._stats
        if stats is not None:
            stats.q[action_index] = w / n
            stats.visits_plus_one[action_index] = 1.0 + n
            stats.visit_sum += 1.0

    def most_visited_index(self) -> int:
        """Commit rule after γ explorations: the most-traversed edge
        (Q breaks ties)."""
        n = self.visit
        best = np.flatnonzero(n == n.max())
        if len(best) == 1:
            return int(best[0])
        q = self.q_values()
        return int(best[np.argmax(q[best])])


class _EdgeStats:
    """The PUCT terms of a node's edges: Q, 1 + N, ΣN and c·P.

    Built from the node's (prior, visit, total_value) with the from-scratch
    formulas, and rebuilt when one of those arrays is replaced.
    :meth:`Node.record` updates the entries of the edge it visits with the
    same IEEE operations the formulas apply elementwise, so every score is
    byte-identical to recomputing it.  ΣN is a sum of small integers,
    hence exact in any order: the running count equals ``visit.sum()``.
    """

    __slots__ = ("arrays", "q", "visits_plus_one", "visit_sum", "c", "c_prior", "buffer")

    def __init__(self, node: Node) -> None:
        prior, visit, total_value = self.arrays = (node.prior, node.visit, node.total_value)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.q = np.where(visit > 0, total_value / np.maximum(visit, 1), 0.0)
        self.visits_plus_one = 1.0 + visit
        self.visit_sum = float(visit.sum())
        self.c = self.c_prior = None
        self.buffer = np.empty(len(prior))

    def derived_from(self, node: Node) -> bool:
        prior, visit, total_value = self.arrays
        return (
            prior is node.prior and visit is node.visit and total_value is node.total_value
        )

    def scores(self, c: float, out: np.ndarray | None = None) -> np.ndarray:
        """Q + c·P·sqrt(ΣN) / (1 + N), evaluated in that order."""
        if c != self.c:
            self.c, self.c_prior = c, c * self.arrays[0]
        sqrt_total = math.sqrt(max(self.visit_sum, 1e-12))
        u = np.multiply(self.c_prior, sqrt_total, out=out)
        np.divide(u, self.visits_plus_one, out=u)
        return np.add(self.q, u, out=u)

"""Search-tree nodes and edge statistics (Sec. IV-A).

Each node corresponds to a partial placement (depth t ⇔ t macro groups
placed).  Edge statistics live on the parent, vectorized over its valid
actions:

- ``N(s_p, s_q)`` — traversal count,
- ``P(s_p, s_q)`` — prior from π_θ,
- ``W(s_p, s_q)`` — accumulated value,
- ``Q(s_p, s_q)`` — mean value W/N (Eq. 12).

Selection reads the PUCT terms from :class:`_EdgeStats`, which
:meth:`Node.record` keeps in step with N and W instead of re-deriving them
from the arrays at every descent.
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
        elif stats.pending:
            stats.catch_up()
        return stats

    def q_values(self) -> np.ndarray:
        """Mean edge values; unvisited edges read as 0 (paper's init)."""
        return self._edge_stats().q.copy()

    def puct_scores(self, c: float) -> np.ndarray:
        """Q + U with U per Eq. 11 (PUCT)."""
        return self._edge_stats().scores(c)

    def select_child_index(self, c: float) -> int:
        """argmax over Q+U (Eq. 10); deterministic first-max tie-break."""
        stats = self._edge_stats()
        return int(stats.scores(c, out=stats.buffer).argmax())

    def child_for(self, action_index: int) -> "Node":
        """Child node reached by :attr:`actions`[action_index] (created lazily)."""
        action = int(self.actions[action_index])
        child = self.children.get(action)
        if child is None:
            child = Node(depth=self.depth + 1)
            self.children[action] = child
        return child

    def record(self, action_index: int, value: float) -> None:
        """Eq. 12 update for one traversed edge."""
        self.visit[action_index] += 1.0
        self.total_value[action_index] += value
        stats = self._stats
        if stats is not None:
            stats.pending.append(action_index)
            if len(stats.pending) > len(self.visit):
                # no longer selected from (a committed ancestor): rebuilding
                # on demand is cheaper than catching up
                self._stats = None

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
    formulas.  :meth:`Node.record` only notes which edge it updated; the
    next selection refreshes those entries with the same IEEE operations
    the formulas apply elementwise, so every score is byte-identical to
    recomputing it.  ΣN is a sum of small integers, hence exact in any
    order: the running count equals ``visit.sum()``.
    """

    __slots__ = (
        "arrays", "q", "visits_plus_one", "visit_sum", "pending", "c", "c_prior", "buffer"
    )

    def __init__(self, node: Node) -> None:
        prior, visit, total_value = self.arrays = (node.prior, node.visit, node.total_value)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.q = np.where(visit > 0, total_value / np.maximum(visit, 1), 0.0)
        self.visits_plus_one = 1.0 + visit
        self.visit_sum = visit.sum()
        #: edges recorded since the terms were last brought up to date
        self.pending: list[int] = []
        self.c = self.c_prior = None
        self.buffer = np.empty(len(prior))

    def derived_from(self, node: Node) -> bool:
        prior, visit, total_value = self.arrays
        return (
            prior is node.prior and visit is node.visit and total_value is node.total_value
        )

    def catch_up(self) -> None:
        _, visit, total_value = self.arrays
        for index in self.pending:
            n = visit[index]
            self.q[index] = total_value[index] / max(n, 1) if n > 0 else 0.0
            self.visits_plus_one[index] = 1.0 + n
        self.visit_sum += len(self.pending)
        self.pending.clear()

    def scores(self, c: float, out: np.ndarray | None = None) -> np.ndarray:
        """Q + c·P·sqrt(ΣN) / (1 + N), evaluated in that order."""
        if c != self.c:
            self.c, self.c_prior = c, c * self.arrays[0]
        sqrt_total = math.sqrt(max(self.visit_sum, 1e-12))
        u = np.multiply(self.c_prior, sqrt_total, out=out)
        np.divide(u, self.visits_plus_one, out=u)
        return np.add(self.q, u, out=u)

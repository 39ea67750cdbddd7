"""Search-tree nodes and edge statistics (Sec. IV-A).

Each node corresponds to a partial placement (depth t ⇔ t macro groups
placed).  Edge statistics live on the parent, vectorized over its valid
actions:

- ``N(s_p, s_q)`` — traversal count,
- ``P(s_p, s_q)`` — prior from π_θ,
- ``W(s_p, s_q)`` — accumulated value,
- ``Q(s_p, s_q)`` — mean value W/N (Eq. 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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

    def q_values(self) -> np.ndarray:
        """Mean edge values; unvisited edges read as 0 (paper's init)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            q = np.where(self.visit > 0, self.total_value / np.maximum(self.visit, 1), 0.0)
        return q

    def puct_scores(self, c: float) -> np.ndarray:
        """Q + U with U per Eq. 11 (PUCT)."""
        sqrt_total = np.sqrt(max(self.visit.sum(), 1e-12))
        u = c * self.prior * sqrt_total / (1.0 + self.visit)
        return self.q_values() + u

    def select_child_index(self, c: float) -> int:
        """argmax over Q+U (Eq. 10); deterministic first-max tie-break."""
        return int(np.argmax(self.puct_scores(c)))

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

    def most_visited_index(self) -> int:
        """Commit rule after γ explorations: the most-traversed edge
        (Q breaks ties)."""
        n = self.visit
        best = np.flatnonzero(n == n.max())
        if len(best) == 1:
            return int(best[0])
        q = self.q_values()
        return int(best[np.argmax(q[best])])

"""Quadratic net models (clique / star).

Quadratic placement minimizes Σ w_ij ((x_i - x_j)² + (y_i - y_j)²).  Each
multi-pin net must first be decomposed into two-point connections:

- **clique** — every pin pair, each with weight ``w / (k - 1)`` (the
  standard normalization so total net weight is independent of degree);
  used for small nets.
- **star** — one auxiliary movable "star" node connected to every pin with
  weight ``w·k / (k - 1)``; used for high-degree nets where a clique would
  densify the system quadratically.

The result is the (Laplacian) normal-equation system ``A x = b_x`` /
``A y = b_y`` over movable nodes (plus star nodes), with fixed-node terms
folded into the right-hand side.  Only those right-hand sides depend on
node positions: :func:`compile_quadratic_system` assembles everything
else once, as a :class:`QuadraticPlan`, and :meth:`QuadraticPlan.system`
gathers the right-hand sides from the current centers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.netlist.hpwl import FlatNetlist


@dataclass
class QuadraticSystem:
    """The assembled quadratic placement system.

    ``A`` is symmetric positive semi-definite over the ``n_mov + n_star``
    unknowns; ``bx``/``by`` carry fixed-pin contributions.  ``movable`` maps
    unknown index -> node index in the originating :class:`FlatNetlist`
    (star nodes have no mapping and occupy the tail of the unknown vector).
    """

    A: sp.csr_matrix
    bx: np.ndarray
    by: np.ndarray
    movable: np.ndarray  # node indices of the first n_mov unknowns
    n_star: int
    #: the solvers of ``A`` plus an anchor diagonal, shared with the plan
    #: the system came from (see :func:`repro.gp.quadratic.solve_system`)
    factors: dict = field(default_factory=dict)


@dataclass
class QuadraticPlan:
    """The part of a :class:`QuadraticSystem` that positions do not change.

    Compiled once per (pin table, movable mask, clique threshold) by
    :func:`compile_quadratic_system`.  A fixed-pin pull adds
    ``w_pull[k] * center[source[k]]`` to the right-hand side of unknown
    ``target[k]``; :meth:`system` sums them in that order, the order the
    from-scratch assembly sums them in.  ``factors`` keeps one solver per
    anchor-weight vector, filled by the solves of every system built
    from this plan; the callers that keep plans solve a fixed anchor
    schedule, so it holds a handful.
    """

    A: sp.csr_matrix
    movable: np.ndarray
    n_star: int
    target: np.ndarray
    source: np.ndarray
    w_pull: np.ndarray
    factors: dict = field(default_factory=dict)

    def system(self, flat: FlatNetlist) -> QuadraticSystem:
        """The system under the current centers of *flat*'s nodes."""
        n = self.A.shape[0]
        bx = np.zeros(n)
        by = np.zeros(n)
        np.add.at(bx, self.target, self.w_pull * flat.cx[self.source])
        np.add.at(by, self.target, self.w_pull * flat.cy[self.source])
        return QuadraticSystem(
            A=self.A, bx=bx, by=by, movable=self.movable, n_star=self.n_star,
            factors=self.factors,
        )


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + n)`` for each start *s* and length *n*."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - (ends - lengths), lengths)


def build_quadratic_system(
    flat: FlatNetlist,
    movable_mask: np.ndarray,
    clique_threshold: int = 6,
    min_weight: float = 1e-9,
) -> QuadraticSystem:
    """Assemble ``A x = b`` from *flat* for the nodes selected by *movable_mask*.

    A one-shot :func:`compile_quadratic_system` followed by
    :meth:`QuadraticPlan.system`.
    """
    plan = compile_quadratic_system(flat, movable_mask, clique_threshold, min_weight)
    return plan.system(flat)


def compile_quadratic_system(
    flat: FlatNetlist,
    movable_mask: np.ndarray,
    clique_threshold: int = 6,
    min_weight: float = 1e-9,
) -> QuadraticPlan:
    """Compile the position-independent part of the system of *movable_mask*.

    Nodes where ``movable_mask`` is False are fixed; a system built from
    the plan pulls toward their centers at that time.  Nets whose pins
    are all fixed contribute nothing.
    Nets of degree <= *clique_threshold* use the clique model, larger nets
    the star model.

    Each kept net expands into "slots": one per pin pair ``a < b`` of a
    clique net, one per pin of a star net.  A slot joins ends ``p`` and
    ``q`` (unknown indices, -1 for a fixed node; ``p`` is the star node in
    a star slot) and yields up to four matrix entries and at most one
    fixed-pin pull on the right-hand side.  Slots are laid out net by net,
    pin by pin, so repeated entries and right-hand-side terms are summed
    in that order.
    """
    if movable_mask.shape != (flat.n_nodes,):
        raise ValueError("movable_mask must have one entry per node")
    movable = np.flatnonzero(movable_mask)
    n_mov = len(movable)
    unknown_of_node = -np.ones(flat.n_nodes, dtype=np.int64)
    unknown_of_node[movable] = np.arange(n_mov)

    ptr = flat.net_ptr
    degree = np.diff(ptr)
    w_net = flat.net_weight.astype(float)
    pin_node = flat.pin_node
    pin_unknown = unknown_of_node[pin_node]
    moving = np.concatenate([[0], np.cumsum(pin_unknown >= 0)])
    kept = ~(w_net <= min_weight) & (degree >= 2) & (moving[ptr[1:]] > moving[ptr[:-1]])
    clique = kept & (degree <= clique_threshold)
    star = kept & ~clique
    n_star = int(star.sum())

    # Slots of clique nets: every pin a pairs with the pins b after it.
    n_pairs = degree * (degree - 1) // 2
    n_slots = np.where(clique, n_pairs, np.where(star, degree, 0))
    first = np.cumsum(n_slots) - n_slots
    nets = np.flatnonzero(clique)
    k = degree[nets]
    pin_a = _ranges(ptr[nets], k)
    run = np.repeat(ptr[nets] + k, k) - pin_a - 1  # pins after pin a
    slot_c = _ranges(first[nets], n_pairs[nets])
    pin_b = _ranges(pin_a + 1, run)
    pin_a = np.repeat(pin_a, run)
    w_c = np.repeat(w_net[nets] / (k - 1), n_pairs[nets])
    # Slots of star nets: auxiliary unknown n_mov + star_id, one per pin.
    nets = np.flatnonzero(star)
    k = degree[nets]
    slot_s = _ranges(first[nets], k)
    pin_s = _ranges(ptr[nets], k)

    total = int(n_slots.sum())
    p = np.empty(total, dtype=np.int64)
    q = np.empty(total, dtype=np.int64)
    node_p = np.zeros(total, dtype=np.int64)
    node_q = np.empty(total, dtype=np.int64)
    w = np.empty(total)
    is_star = np.zeros(total, dtype=bool)
    p[slot_c], q[slot_c] = pin_unknown[pin_a], pin_unknown[pin_b]
    node_p[slot_c], node_q[slot_c] = pin_node[pin_a], pin_node[pin_b]
    w[slot_c] = w_c
    p[slot_s] = n_mov + np.repeat(np.arange(n_star), k)
    q[slot_s] = pin_unknown[pin_s]
    node_q[slot_s] = pin_node[pin_s]
    w[slot_s] = np.repeat(w_net[nets] * k / (k - 1), k)
    is_star[slot_s] = True

    # Entries (p,p,w), (q,q,w), (p,q,-w), (q,p,-w); a star slot emits its
    # (pin, star) entry first.  A fixed end drops the entries it is part of.
    both = (p >= 0) & (q >= 0)
    r2 = np.where(is_star, q, p)
    c2 = np.where(is_star, p, q)
    rows = np.stack([p, q, r2, c2], axis=1)
    cols = np.stack([p, q, c2, r2], axis=1)
    vals = np.stack([w, w, -w, -w], axis=1)
    valid = np.stack([p >= 0, q >= 0, both, both], axis=1)
    n = n_mov + n_star
    A = sp.coo_matrix(
        (vals[valid], (rows[valid], cols[valid])), shape=(n, n)
    ).tocsr()

    # A slot with one fixed end pulls its movable end toward it; a star
    # pulls only when its fixed pins carry positive weight.
    to_p = (p >= 0) & (q < 0) & (~is_star | (w > 0))
    to_q = (p < 0) & (q >= 0)
    pull = to_p | to_q
    target = np.where(to_p, p, q)[pull]
    source = np.where(to_p, node_q, node_p)[pull]
    return QuadraticPlan(
        A=A, movable=movable, n_star=n_star, target=target, source=source,
        w_pull=w[pull],
    )

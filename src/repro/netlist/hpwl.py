"""Half-perimeter wirelength (HPWL) evaluation.

The paper's wirelength W (Eq. 9) is "estimated in the half perimeter
wirelength model".  HPWL of a net is ``(max_x - min_x) + (max_y - min_y)``
over its pin positions; the design HPWL is the (optionally net-weighted) sum.

Two interfaces are provided:

- :func:`hpwl` / :func:`net_hpwl` — convenience functions over the object
  model; fine for tests and small designs.
- :class:`FlatNetlist` — a compiled structure-of-arrays view with
  ``reduceat``-vectorized evaluation.  All inner loops of the placers (RL
  episodes, SE/SA moves, MCTS terminal evaluations) go through this view.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.model import Net, Netlist


def net_hpwl(netlist: Netlist, net: Net) -> float:
    """HPWL of a single *net* under the current placement (unweighted)."""
    if net.degree < 2:
        return 0.0
    xs = []
    ys = []
    for pin in net.pins:
        node = netlist[pin.node]
        xs.append(node.cx + pin.dx)
        ys.append(node.cy + pin.dy)
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def hpwl(netlist: Netlist, weighted: bool = False) -> float:
    """Total design HPWL; multiply per-net HPWL by ``net.weight`` if *weighted*."""
    total = 0.0
    for net in netlist.nets:
        w = net.weight if weighted else 1.0
        total += w * net_hpwl(netlist, net)
    return total


class FlatNetlist:
    """Structure-of-arrays netlist view for vectorized wirelength queries.

    The pin list is stored CSR-style: ``pin_node[k]`` is the node index of
    the k-th pin, nets occupy the contiguous ranges ``net_ptr[i]:net_ptr[i+1]``.
    Nets with fewer than two pins are dropped at compile time (their HPWL is
    identically zero).

    Node *centers* are kept in ``cx``/``cy``; callers move nodes by editing
    those arrays (or via :meth:`set_centers`) and call :meth:`total_hpwl`.
    :meth:`writeback` pushes center coordinates back into the object model.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.names = netlist.node_names
        pin_node: list[int] = []
        pin_dx: list[float] = []
        pin_dy: list[float] = []
        net_ptr: list[int] = [0]
        net_weight: list[float] = []
        self.kept_nets: list[Net] = []
        for net in netlist.nets:
            if net.degree < 2:
                continue
            for pin in net.pins:
                pin_node.append(netlist.index_of(pin.node))
                pin_dx.append(pin.dx)
                pin_dy.append(pin.dy)
            net_ptr.append(len(pin_node))
            net_weight.append(net.weight)
            self.kept_nets.append(net)
        self.pin_node = np.asarray(pin_node, dtype=np.int64)
        self.pin_dx = np.asarray(pin_dx)
        self.pin_dy = np.asarray(pin_dy)
        self.net_ptr = np.asarray(net_ptr, dtype=np.int64)
        self.net_weight = np.asarray(net_weight)
        # reduceat segment starts (net_ptr without the trailing sentinel)
        self._starts = self.net_ptr[:-1]
        self.reload()

    def reload(self) -> None:
        """Re-read every node's size, center and ``fixed`` flag from the model.

        The pin table (``pin_node``, ``pin_dx``, ``pin_dy``, ``net_ptr``,
        ``net_weight``, ``kept_nets``) is compiled once, by the constructor.
        A caller that places the same netlist again keeps this view and
        reloads it instead of building a new one; reloading also undoes
        any per-call edit of the node arrays, such as nodes marked fixed
        for one placement.  The netlist's nets must not change meanwhile.
        """
        nodes = list(self.netlist)
        self.width = np.array([node.width for node in nodes], dtype=float)
        self.height = np.array([node.height for node in nodes], dtype=float)
        self.cx = np.array([node.cx for node in nodes], dtype=float)
        self.cy = np.array([node.cy for node in nodes], dtype=float)
        self.fixed = np.array([node.fixed for node in nodes], dtype=bool)

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    @property
    def n_nets(self) -> int:
        return len(self._starts)

    # -- placement plumbing --------------------------------------------------
    def writeback(self, indices: np.ndarray | None = None) -> None:
        """Push center coordinates back to the object model (as lower-left).

        Fixed nodes are skipped: nothing may move them, and re-deriving
        their lower-left from the center would perturb the last floating-
        point bit.  For the same reason a caller that moved only some
        nodes passes their *indices*, and only those are written.
        """
        nodes = list(self.netlist)
        cx, cy = self.cx.tolist(), self.cy.tolist()
        for i in range(len(nodes)) if indices is None else indices.tolist():
            node = nodes[i]
            if not node.fixed:
                node.move_center_to(cx[i], cy[i])

    def set_centers(self, indices: np.ndarray, cx: np.ndarray, cy: np.ndarray) -> None:
        """Move the nodes at *indices* so their centers are (cx, cy)."""
        self.cx[indices] = cx
        self.cy[indices] = cy

    # -- wirelength ----------------------------------------------------------
    def pin_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Absolute (x, y) of every pin under the current centers."""
        px = self.cx[self.pin_node] + self.pin_dx
        py = self.cy[self.pin_node] + self.pin_dy
        return px, py

    def per_net_hpwl(self) -> np.ndarray:
        """Unweighted HPWL of every kept net (length :attr:`n_nets`)."""
        if self.n_nets == 0:
            return np.zeros(0)
        px, py = self.pin_positions()
        dx = np.maximum.reduceat(px, self._starts) - np.minimum.reduceat(
            px, self._starts
        )
        dy = np.maximum.reduceat(py, self._starts) - np.minimum.reduceat(
            py, self._starts
        )
        return dx + dy

    def total_hpwl(self, weighted: bool = False) -> float:
        """Total HPWL; multiplied by per-net weights when *weighted*."""
        per_net = self.per_net_hpwl()
        if weighted:
            per_net = per_net * self.net_weight
        return float(per_net.sum())

    # -- incidence helpers (used by clustering and net models) ---------------
    def nets_of_node(self) -> list[list[int]]:
        """For each node index, the list of kept-net indices touching it."""
        out: list[list[int]] = [[] for _ in range(self.n_nodes)]
        net_of_pin = np.repeat(
            np.arange(self.n_nets), np.diff(self.net_ptr)
        )
        for pin_idx, node_idx in enumerate(self.pin_node):
            out[node_idx].append(int(net_of_pin[pin_idx]))
        return out

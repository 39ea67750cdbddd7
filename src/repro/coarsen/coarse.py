"""Coarsened netlist construction (Sec. II-A).

After clustering, the design is represented by:

- **macro groups** — the RL/MCTS allocation units, sorted in non-increasing
  area order (the paper's list M: "macro groups with larger areas ... are
  given higher priority");
- **cell groups** — movable mass used by the quadratic legalization steps;
- **fixed groups** — preplaced macros and I/O pads, one group each (they are
  connectivity anchors, never allocation decisions);
- **coarse nets** — original nets projected onto groups, with nets that
  collapse onto the same group set merged into one weighted net.

The coarse netlist is itself exposed as a :class:`repro.netlist.model.Netlist`
(:meth:`CoarseNetlist.as_netlist`) so the quadratic engine and HPWL code run
on it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coarsen.cluster import cluster_cells, cluster_macros, singleton_groups
from repro.coarsen.groups import Group, GroupKind
from repro.coarsen.scores import GammaParams, PhiParams
from repro.grid.plan import GridPlan
from repro.netlist.model import (
    Cell,
    Design,
    Macro,
    Net,
    Netlist,
    Pin,
)


@dataclass(frozen=True)
class CoarseNet:
    """A net over group indices.

    ``groups`` holds indices into :attr:`CoarseNetlist.all_groups`; ``weight``
    accumulates the weights of every original net that projected onto this
    exact group set.
    """

    groups: tuple[int, ...]
    weight: float


@dataclass
class CoarseNetlist:
    """The paper's coarsened problem instance."""

    design: Design
    plan: GridPlan
    macro_groups: list[Group] = field(default_factory=list)
    cell_groups: list[Group] = field(default_factory=list)
    fixed_groups: list[Group] = field(default_factory=list)
    coarse_nets: list[CoarseNet] = field(default_factory=list)

    @property
    def all_groups(self) -> list[Group]:
        """Canonical group ordering: macro groups, cell groups, fixed groups."""
        return self.macro_groups + self.cell_groups + self.fixed_groups

    @property
    def n_macro_groups(self) -> int:
        return len(self.macro_groups)

    def group_span(self, index: int) -> tuple[int, int]:
        """(rows, cols) grid footprint of macro group *index* — dim(s_m)."""
        w, h = self.macro_groups[index].shape()
        return self.plan.span(w, h)

    # -- coarse netlist as a Netlist -----------------------------------------
    def group_node_name(self, index: int) -> str:
        n_mg = len(self.macro_groups)
        n_cg = len(self.cell_groups)
        if index < n_mg:
            return f"mg{index}"
        if index < n_mg + n_cg:
            return f"cg{index - n_mg}"
        return f"fx{index - n_mg - n_cg}"

    def as_netlist(self) -> Netlist:
        """Materialize groups and coarse nets as a plain :class:`Netlist`.

        Macro groups become movable :class:`Macro` nodes with their
        representative rectangle; cell groups become :class:`Cell` nodes
        (square of equivalent area); fixed groups become fixed macros at
        their original centroid.  Pins sit at node centers (offsets are a
        sub-group detail the coarse model drops).
        """
        nl = Netlist(name=f"{self.design.name}::coarse")
        for i, g in enumerate(self.all_groups):
            name = self.group_node_name(i)
            if g.kind is GroupKind.MACRO:
                w, h = g.shape()
                node = Macro(name, w, h, hierarchy=g.hierarchy)
            elif g.kind is GroupKind.CELL:
                side = g.area**0.5
                node = Cell(name, side, side, hierarchy=g.hierarchy)
            else:
                side = max(g.area, 1e-9) ** 0.5
                node = Macro(name, side, side, fixed=True, hierarchy=g.hierarchy)
            node.move_center_to(g.cx, g.cy)
            nl.add_node(node)
        for j, cnet in enumerate(self.coarse_nets):
            net = Net(
                name=f"cn{j}",
                pins=[Pin(node=self.group_node_name(gi)) for gi in cnet.groups],
                weight=cnet.weight,
            )
            nl.add_net(net)
        return nl

    # -- canonical start state -------------------------------------------------
    def capture_canonical(self) -> None:
        """Snapshot the current node positions and group geometry.

        The snapshot is the *canonical start* of every terminal evaluation:
        :meth:`restore_canonical` rewinds to it before each legalization, so
        ``evaluate_assignment`` is a pure function of the assignment —
        bitwise-identical HPWL regardless of what was evaluated before
        (which is what makes results cacheable).
        """
        self._canonical = (
            {node.name: (node.x, node.y) for node in self.design.netlist},
            [(g.cx, g.cy, g.bbox) for g in self.all_groups],
        )

    def restore_canonical(self) -> None:
        """Rewind node positions and group geometry to the canonical start.

        Captures the snapshot lazily on the first call, so a coarse netlist
        built without :func:`coarsen_design` still gets purity from its
        first legalization onward.
        """
        canonical = getattr(self, "_canonical", None)
        if canonical is None:
            self.capture_canonical()
            return
        positions, groups = canonical
        nl = self.design.netlist
        for name, (x, y) in positions.items():
            node = nl[name]
            node.x = x
            node.y = y
        for g, (cx, cy, bbox) in zip(self.all_groups, groups):
            g.cx = cx
            g.cy = cy
            g.bbox = bbox

    # -- decomposition ---------------------------------------------------------
    def scatter_macro_group(
        self, index: int, cx: float, cy: float
    ) -> None:
        """Move macro group *index*'s member macros rigidly to center (cx, cy).

        Members keep their relative offsets from the group centroid in the
        prototype placement; exact legalization happens later
        (:mod:`repro.legalize`).
        """
        g = self.macro_groups[index]
        for name in g.members:
            node = self.design.netlist[name]
            node.move_center_to(cx + (node.cx - g.cx), cy + (node.cy - g.cy))
        shift_x = cx - g.cx
        shift_y = cy - g.cy
        g.cx, g.cy = cx, cy
        if g.bbox is not None:
            g.bbox = (
                g.bbox[0] + shift_x,
                g.bbox[1] + shift_y,
                g.bbox[2] + shift_x,
                g.bbox[3] + shift_y,
            )


def _project_nets(
    nets: list[Net], group_index_of_node: dict[str, int]
) -> list[CoarseNet]:
    merged: dict[tuple[int, ...], float] = {}
    for net in nets:
        gids = tuple(
            sorted(
                {
                    group_index_of_node[p.node]
                    for p in net.pins
                    if p.node in group_index_of_node
                }
            )
        )
        if len(gids) < 2:
            continue
        merged[gids] = merged.get(gids, 0.0) + net.weight
    return [CoarseNet(groups=g, weight=w) for g, w in sorted(merged.items())]


def coarsen_design(
    design: Design,
    plan: GridPlan,
    gamma: GammaParams = GammaParams(),
    phi: PhiParams = PhiParams(),
    k_spatial: int = 6,
) -> CoarseNetlist:
    """Cluster *design* into a :class:`CoarseNetlist` over *plan*.

    The design is expected to carry an initial prototype placement (the ΔD
    terms measure distances in it) — run
    :class:`repro.gp.MixedSizePlacer` first, as the paper runs [23].
    Macro groups are returned sorted by non-increasing area (Algorithm 1's
    ordering of M).
    """
    nl = design.netlist
    max_area = plan.cell_area

    macro_groups = cluster_macros(nl, max_area, gamma, k_spatial)
    cell_groups = cluster_cells(nl, max_area, phi, k_spatial)
    fixed_groups = singleton_groups(
        list(nl.preplaced_macros) + list(nl.pads), GroupKind.FIXED
    )

    macro_groups.sort(key=lambda g: -g.area)

    coarse = CoarseNetlist(
        design=design,
        plan=plan,
        macro_groups=macro_groups,
        cell_groups=cell_groups,
        fixed_groups=fixed_groups,
    )
    group_index_of_node: dict[str, int] = {}
    for i, g in enumerate(coarse.all_groups):
        for name in g.members:
            group_index_of_node[name] = i
    coarse.coarse_nets = _project_nets(nl.nets, group_index_of_node)
    coarse.capture_canonical()
    return coarse

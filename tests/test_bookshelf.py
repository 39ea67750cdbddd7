"""Bookshelf reader/writer tests, including a full round-trip."""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netlist.bookshelf import BookshelfError, read_aux, write_design
from repro.netlist.hpwl import hpwl
from repro.netlist.model import NodeKind
from repro.runtime.errors import PlacementError


class TestRoundTrip:
    def test_write_then_read_preserves_structure(self, placed_design, tmp_path):
        aux = write_design(placed_design, str(tmp_path))
        loaded = read_aux(aux)
        assert len(loaded.netlist) == len(placed_design.netlist)
        assert len(loaded.netlist.nets) == len(placed_design.netlist.nets)

    def test_roundtrip_preserves_positions(self, placed_design, tmp_path):
        aux = write_design(placed_design, str(tmp_path))
        loaded = read_aux(aux)
        for node in placed_design.netlist:
            other = loaded.netlist[node.name]
            assert other.x == pytest.approx(node.x, abs=1e-4)
            assert other.y == pytest.approx(node.y, abs=1e-4)

    def test_roundtrip_preserves_hpwl(self, placed_design, tmp_path):
        aux = write_design(placed_design, str(tmp_path))
        loaded = read_aux(aux)
        assert hpwl(loaded.netlist) == pytest.approx(
            hpwl(placed_design.netlist), rel=1e-6
        )

    def test_roundtrip_preserves_fixedness(self, placed_design, tmp_path):
        aux = write_design(placed_design, str(tmp_path))
        loaded = read_aux(aux)
        for node in placed_design.netlist:
            assert loaded.netlist[node.name].fixed == node.fixed

    def test_macro_cell_classification_survives(self, placed_design, tmp_path):
        aux = write_design(placed_design, str(tmp_path))
        loaded = read_aux(aux)
        orig = placed_design.netlist.stats()
        got = loaded.netlist.stats()
        assert got["cells"] == orig["cells"]
        assert got["movable_macros"] == orig["movable_macros"]

    def test_files_created(self, placed_design, tmp_path):
        write_design(placed_design, str(tmp_path))
        base = placed_design.name
        for ext in (".aux", ".nodes", ".nets", ".pl", ".scl"):
            assert os.path.exists(tmp_path / f"{base}{ext}")


class TestMalformedInput:
    def test_missing_files_in_aux(self, tmp_path):
        aux = tmp_path / "x.aux"
        aux.write_text("RowBasedPlacement : x.nodes\n")
        with pytest.raises(BookshelfError, match="missing"):
            read_aux(str(aux))

    def test_empty_aux(self, tmp_path):
        aux = tmp_path / "x.aux"
        aux.write_text("RowBasedPlacement :\n")
        with pytest.raises(BookshelfError, match="empty"):
            read_aux(str(aux))

    def test_pin_outside_net_rejected(self, tmp_path, placed_design):
        write_design(placed_design, str(tmp_path))
        nets = tmp_path / f"{placed_design.name}.nets"
        nets.write_text("UCLA nets 1.0\n  o_c0 B : 0 0\n")
        with pytest.raises(BookshelfError, match="outside"):
            read_aux(str(tmp_path / f"{placed_design.name}.aux"))

    def test_scl_without_rows_rejected(self, tmp_path, placed_design):
        write_design(placed_design, str(tmp_path))
        scl = tmp_path / f"{placed_design.name}.scl"
        scl.write_text("UCLA scl 1.0\nNumRows : 0\n")
        with pytest.raises(BookshelfError, match="CoreRow"):
            read_aux(str(tmp_path / f"{placed_design.name}.aux"))


    def _bundle(self, tmp_path, design, ext):
        aux = write_design(design, str(tmp_path))
        return aux, tmp_path / f"{design.name}{ext}"

    def _raises_at(self, aux, path, line, match):
        with pytest.raises(BookshelfError, match=match) as info:
            read_aux(aux)
        assert info.value.details["file"] == str(path)
        assert info.value.details["line"] == line

    def test_non_utf8_byte_names_its_line(self, tmp_path, placed_design):
        aux, nodes = self._bundle(tmp_path, placed_design, ".nodes")
        lines = nodes.read_bytes().split(b"\n")
        lines[4] = lines[4][:2] + b"\xff" + lines[4][3:]
        nodes.write_bytes(b"\n".join(lines))
        self._raises_at(aux, nodes, 5, "UTF-8")

    def test_duplicate_node_names_its_line(self, tmp_path, placed_design):
        aux, nodes = self._bundle(tmp_path, placed_design, ".nodes")
        lines = nodes.read_text().splitlines()
        first = next(i for i, l in enumerate(lines) if l.startswith("  "))
        lines.insert(first + 3, lines[first])
        nodes.write_text("\n".join(lines) + "\n")
        self._raises_at(aux, nodes, first + 4, "duplicate node")

    def test_pin_of_unknown_node_names_its_line(self, tmp_path, placed_design):
        aux, nets = self._bundle(tmp_path, placed_design, ".nets")
        lines = nets.read_text().splitlines()
        pin = next(i for i, l in enumerate(lines) if ":" in l and not l.startswith(("Net", "Num")))
        lines[pin] = "  no_such_node B : 0 0"
        nets.write_text("\n".join(lines) + "\n")
        self._raises_at(aux, nets, pin + 1, "unknown node")

    def test_subrow_origin_without_value(self, tmp_path, placed_design):
        aux, scl = self._bundle(tmp_path, placed_design, ".scl")
        lines = scl.read_text().splitlines()
        row = next(i for i, l in enumerate(lines) if "SubrowOrigin" in l)
        lines[row] = "  SubrowOrigin : 0 NumSites :"
        scl.write_text("\n".join(lines) + "\n")
        self._raises_at(aux, scl, row + 1, "no value")

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        ext=st.sampled_from([".aux", ".nodes", ".nets", ".pl", ".scl"]),
        op=st.sampled_from(["byte", "truncate", "delete", "duplicate"]),
        where=st.floats(0.0, 1.0, exclude_max=True),
        byte=st.integers(0, 255),
    )
    def test_mutated_bundle_parses_or_fails_structured(
        self, tmp_path_factory, placed_design, ext, op, where, byte
    ):
        """Any single mutation of a bundle -- a byte replaced, the file
        truncated, a line deleted or duplicated -- either still parses or
        raises a PlacementError naming the file (never a raw exception,
        which the service would retry as transient)."""
        aux, path = self._bundle(tmp_path_factory.mktemp("b"), placed_design, ext)
        data = path.read_bytes()
        if op in ("byte", "truncate"):
            at = int(where * len(data))
            data = data[:at] + bytes([byte]) + data[at + 1 :] if op == "byte" else data[:at]
        else:
            lines = data.split(b"\n")
            at = int(where * len(lines))
            lines[at:at + 1] = [] if op == "delete" else [lines[at]] * 2
            data = b"\n".join(lines)
        path.write_bytes(data)
        try:
            read_aux(aux)
        except PlacementError as exc:
            assert exc.details.get("file")


class TestClassificationRules:
    def test_small_terminal_becomes_pad(self, tmp_path):
        (tmp_path / "d.aux").write_text(
            "RowBasedPlacement : d.nodes d.nets d.pl d.scl\n"
        )
        (tmp_path / "d.nodes").write_text(
            "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 1\n"
            "  pad1 1 1 terminal\n  cell1 2 1\n"
        )
        (tmp_path / "d.nets").write_text(
            "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
            "NetDegree : 2 n0\n  pad1 B : 0 0\n  cell1 B : 0 0\n"
        )
        (tmp_path / "d.pl").write_text("UCLA pl 1.0\npad1 -2 5 : N /FIXED\ncell1 3 3 : N\n")
        (tmp_path / "d.scl").write_text(
            "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n"
            "  Coordinate : 0\n  Height : 1\n  Sitewidth : 1\n"
            "  SubrowOrigin : 0 NumSites : 20\nEnd\n"
        )
        design = read_aux(str(tmp_path / "d.aux"))
        assert design.netlist["pad1"].kind is NodeKind.PAD
        assert design.netlist["cell1"].kind is NodeKind.CELL

    def test_tall_movable_node_becomes_macro(self, tmp_path):
        (tmp_path / "d.aux").write_text(
            "RowBasedPlacement : d.nodes d.nets d.pl d.scl\n"
        )
        (tmp_path / "d.nodes").write_text(
            "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n"
            "  big 8 6\n  small 2 1\n"
        )
        (tmp_path / "d.nets").write_text(
            "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
            "NetDegree : 2 n0\n  big B : 0 0\n  small B : 0 0\n"
        )
        (tmp_path / "d.pl").write_text("UCLA pl 1.0\nbig 0 0 : N\nsmall 9 9 : N\n")
        (tmp_path / "d.scl").write_text(
            "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n"
            "  Coordinate : 0\n  Height : 1\n  Sitewidth : 1\n"
            "  SubrowOrigin : 0 NumSites : 20\nEnd\n"
        )
        design = read_aux(str(tmp_path / "d.aux"))
        assert design.netlist["big"].kind is NodeKind.MACRO
        assert not design.netlist["big"].fixed
        assert design.netlist["small"].kind is NodeKind.CELL

    def test_region_derived_from_scl(self, tmp_path, placed_design):
        aux = write_design(placed_design, str(tmp_path))
        loaded = read_aux(aux)
        assert loaded.region.width == pytest.approx(
            placed_design.region.width, rel=0.05
        )

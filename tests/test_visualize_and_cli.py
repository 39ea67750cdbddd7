"""Tests for the SVG/ASCII visualizer and the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.eval.visualize import placement_ascii, placement_svg, save_placement_svg
from repro.grid.plan import GridPlan


class TestSvg:
    def test_valid_svg_document(self, placed_design):
        svg = placement_svg(placed_design)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")

    def test_macros_rendered(self, placed_design):
        svg = placement_svg(placed_design)
        n_rects = svg.count("<rect")
        # die + macros (+pads); at least one rect per macro.
        assert n_rects >= len(placed_design.netlist.macros) + 1

    def test_cells_toggle(self, placed_design):
        with_cells = placement_svg(placed_design, show_cells=True)
        without = placement_svg(placed_design, show_cells=False)
        assert with_cells.count("<circle") > without.count("<circle")

    def test_grid_overlay(self, placed_design):
        plan = GridPlan(placed_design.region, zeta=4)
        with_grid = placement_svg(placed_design, plan=plan)
        without = placement_svg(placed_design)
        assert with_grid.count("<line") > without.count("<line")

    def test_save_roundtrip(self, placed_design, tmp_path):
        path = str(tmp_path / "out.svg")
        assert save_placement_svg(placed_design, path) == path
        content = open(path).read()
        assert "<svg" in content

    def test_preplaced_macros_distinct_color(self, placed_design):
        if not placed_design.netlist.preplaced_macros:
            pytest.skip("no preplaced macros in fixture")
        svg = placement_svg(placed_design)
        assert "#636363" in svg  # preplaced
        assert "#fd8d3c" in svg  # movable


class TestAscii:
    def test_dimensions(self, placed_design):
        art = placement_ascii(placed_design, cols=40)
        lines = art.splitlines()
        assert all(len(line) == 42 for line in lines)  # 40 + 2 borders
        assert lines[0].startswith("+")

    def test_macros_marked(self, placed_design):
        art = placement_ascii(placed_design)
        assert "#" in art

    def test_preplaced_marked(self, placed_design):
        if not placed_design.netlist.preplaced_macros:
            pytest.skip("no preplaced macros in fixture")
        assert "+" in placement_ascii(placed_design).replace("+-", "").replace(
            "-+", ""
        )


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["place", "--circuit", "ibm01"])
        assert args.command == "place"

    def test_unknown_circuit_fails(self, capsys):
        assert main(["place", "--circuit", "zzz99"]) == 64
        assert "unknown circuit" in capsys.readouterr().err

    def test_suites_lists_all(self, capsys):
        assert main(["suites"]) == 0
        out = capsys.readouterr().out
        assert "ibm01" in out and "Cir6" in out

    def test_bookshelf_export(self, tmp_path, capsys):
        rc = main([
            "bookshelf", "--circuit", "ibm01", "--scale", "0.003",
            "--macro-scale", "0.03", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "ibm01.aux").exists()

    def test_place_fast_runs(self, tmp_path, capsys):
        svg = str(tmp_path / "p.svg")
        rc = main([
            "place", "--circuit", "ibm01", "--scale", "0.003",
            "--macro-scale", "0.03", "--preset", "fast", "--svg", svg,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "HPWL" in out
        assert (tmp_path / "p.svg").exists()

    def test_place_from_aux(self, tmp_path, capsys, placed_design):
        from repro.netlist.bookshelf import write_design

        aux = write_design(placed_design, str(tmp_path))
        rc = main(["place", "--aux", aux, "--preset", "fast"])
        assert rc == 0
        assert "HPWL" in capsys.readouterr().out

    def test_compare_runs_all_methods(self, capsys):
        rc = main([
            "compare", "--circuit", "ibm01", "--scale", "0.002",
            "--macro-scale", "0.02", "--preset", "fast",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        for method in ("random", "sa", "btree", "se", "maskplace",
                       "replace", "ours"):
            assert method in out
        assert "Nor." in out

    def test_compare_reports_the_committed_hpwl(self, capsys, monkeypatch):
        """The table shows the HPWL the flow committed, not the anytime best
        below it; that one gets its own line."""
        from types import SimpleNamespace

        import repro.cli as cli

        class CommitsAboveItsBest:
            def __init__(self, config):
                pass

            def place(self, design):
                return SimpleNamespace(
                    hpwl=123456.0,
                    search=SimpleNamespace(best_terminal_wirelength=99999.0),
                    stopwatch=SimpleNamespace(overall=lambda: 0.0),
                )

        monkeypatch.setattr(cli, "MCTSGuidedPlacer", CommitsAboveItsBest)
        rc = main([
            "compare", "--circuit", "ibm01", "--scale", "0.002",
            "--macro-scale", "0.02", "--preset", "fast",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        table = out[out.index("Circuit"):]
        row = next(line for line in table.splitlines() if line.startswith("ibm01"))
        assert row.split()[-1] == "123456.0"  # "ours" is the last column
        assert "99999.0" not in table
        assert "anytime best 99999.0" in out

    def test_place_legal_cells_flag(self, capsys):
        rc = main([
            "place", "--circuit", "ibm01", "--scale", "0.003",
            "--macro-scale", "0.03", "--preset", "fast", "--legal-cells",
        ])
        assert rc == 0
        assert "legalized cells" in capsys.readouterr().out

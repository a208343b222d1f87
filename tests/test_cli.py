import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cdtsep import catalog, graphs, groups
from cdtsep.catalog import CdtName, build_cdt
from cdtsep.cli import main
from cdtsep.cycles import enumerate_girth_cycles
from cdtsep.graph6 import parse_graph6
from cdtsep.report import ReportInputError, run_graph_report, run_ingest_report
from conftest import count_calls
from test_cycles import reference_fastening_profile

K4_GRAPH6 = "C~"  # cubic, 2-arc-transitive: goes through the ingest path
PETERSEN_GRAPH6 = "IheA@GUAo"
SQUARE_GRAPH6 = "Cr"  # 4-cycle: not cubic, rejected
# GP(8,3): cubic and 2-arc-transitive, but each key path lies in 6 girth
# cycles, outside the fastening precondition
GP83_GRAPH6 = "OhCGKE?O@?ACAC@I?Q_AS"


class TestCatalog:
    def test_lists_twelve_rows(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 13  # header + 12 rows
        assert out[1].startswith("k4")
        assert out[-1].startswith("biggs-smith")


class TestAnalyze:
    def test_catalog_graph(self, capsys):
        assert main(["analyze", "petersen"]) == 0
        out = capsys.readouterr().out
        assert "order 10" in out
        assert "girth 5" in out
        assert "arc-transitivity 3" in out
        assert "girth cycles 12" in out
        assert "hamiltonian False" in out

    def test_budget_zero_is_spent_not_unset(self, capsys):
        assert main(["--budget", "0", "analyze", "petersen"]) == 0
        assert "hamiltonian unknown (budget)" in capsys.readouterr().out

    def test_budget_inf_is_unbounded(self, capsys):
        assert main(["--budget", "inf", "analyze", "petersen"]) == 0
        assert "hamiltonian False" in capsys.readouterr().out

    @pytest.mark.parametrize("budget", ["nan", "NaN", "-nan", "-1", "-0.5", "-inf", "", "ten"])
    def test_malformed_budget_is_an_input_error(self, budget, capsys):
        # NaN compares false with every gate, so it would silently lift
        # the budget; it and negative values are refused before any work
        # (the joined form lets "-inf" through argparse as a value)
        with pytest.raises(SystemExit) as exc:
            main([f"--budget={budget}", "verify", "tutte"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--budget" in err and repr(budget) in err

    def test_hamilton_search_budget(self, monkeypatch, capsys):
        # with no budget, the report row and analyze leave is_hamiltonian
        # its own default; with one, the search gets no more than it
        seen = []
        search = graphs._hamilton_search

        def recording(g, budget):
            seen.append(budget)
            return search(g, budget)

        monkeypatch.setattr(graphs, "_hamilton_search", recording)
        run_graph_report(CdtName.K4)
        assert main(["analyze", "k4"]) == 0
        assert seen == [60.0, 60.0]
        seen.clear()
        run_graph_report(CdtName.K4, budget=5)
        assert main(["--budget", "5", "analyze", "k4"]) == 0
        assert len(seen) == 2 and all(0 < b <= 5.0 for b in seen)

    def test_fastening_levels_equal_the_reference(self, capsys):
        # Tutte's 8-cage, k = 5: every level below the top is derived
        g, _ = build_cdt(CdtName.TUTTE)
        ref = reference_fastening_profile(g, enumerate_girth_cycles(g), 5)
        assert main(["analyze", "tutte"]) == 0
        out = capsys.readouterr().out.splitlines()
        lines = [line for line in out if line.startswith("  paths of length")]
        assert lines == [
            f"  paths of length {4 - i}: cycles-through counts {dict(sorted(ref.levels[i].items()))}"
            for i in range(4)
        ]
        assert lines[-1] == "  paths of length 1: cycles-through counts {16: 45}"

    def test_graph6_input(self, capsys):
        assert main(["analyze", K4_GRAPH6]) == 0
        assert "order 4" in capsys.readouterr().out

    def test_bad_input(self, capsys):
        assert main(["analyze", SQUARE_GRAPH6]) == 2
        assert "error:" in capsys.readouterr().err


class TestOrient:
    def test_solvable(self, capsys):
        assert main(["orient", "q3"]) == 0
        out = capsys.readouterr().out
        assert "orientation: solvable" in out
        assert "components 1" in out
        assert "kappa 1" in out

    def test_unsolvable_prints_witness(self, capsys):
        assert main(["orient", "petersen"]) == 0
        out = capsys.readouterr().out
        assert "orientation: unsolvable" in out
        assert "odd witness" in out
        assert "kappa 0" in out


class TestSeparator:
    def test_summary(self, capsys):
        assert main(["separator", "k33"]) == 0
        out = capsys.readouterr().out
        assert "vertices 36" in out
        assert "oriented cycles 9" in out
        assert "1-alternate simple cycles 9" in out
        assert "2-alternate simple cycles 12" in out

    def test_no_separator_for_unsolvable(self, capsys):
        assert main(["separator", "heawood"]) == 2
        assert "unsolvable" in capsys.readouterr().err


class TestVerify:
    def test_clean_graph_exits_zero(self, capsys):
        assert main(["verify", "k4"]) == 0
        out = capsys.readouterr().out
        assert "== k4" in out
        assert "[mismatch]" not in out

    def test_graph_with_mismatch_exits_one(self, capsys):
        assert main(["verify", "k33"]) == 1
        out = capsys.readouterr().out
        assert "[mismatch] bi-alternate-count" in out

    def test_json_output(self, capsys):
        assert main(["verify", "q3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == 2
        assert data["reports"][0]["graph"] == "q3"

    def test_requires_target(self, capsys):
        assert main(["verify"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_refuses_a_graph_with_all(self, capsys):
        assert main(["verify", "k4", "--all"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "graph" in err and "--all" in err

    def test_ingested_graph(self, capsys):
        assert main(["verify", K4_GRAPH6]) == 0
        assert "== ingested" in capsys.readouterr().out

    def test_budget_does_not_gate_graph6_input(self, capsys):
        # the ingest precondition k >= 2 already needs the host group,
        # so a spent budget leaves nothing to skip
        assert main(["--budget", "0", "verify", PETERSEN_GRAPH6, "--json"]) == 0
        checks = json.loads(capsys.readouterr().out)["reports"][0]["checks"]
        assert checks and {c["status"] for c in checks} == {"computed"}


class TestStdin:
    """"-" as the graph reads graph6 text from stdin, which has no
    argument-length limit."""

    @pytest.mark.parametrize("argv", [["verify", "-", "--json"], ["analyze", "-"],
                                      ["orient", "-"]], ids=lambda argv: argv[0])
    def test_same_output_as_the_argument(self, argv, monkeypatch, capsys):
        literal = [PETERSEN_GRAPH6 if x == "-" else x for x in argv]
        assert main(literal) == 0
        expected = capsys.readouterr()
        monkeypatch.setattr(sys, "stdin", io.StringIO(PETERSEN_GRAPH6 + "\n"))
        assert main(argv) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("data", [b"", b"\n", b"IheA@GUA", b"Ihe A@GUAo", b"\xff\xfe"],
                             ids=["empty", "blank", "truncated", "space", "not-utf8"])
    def test_malformed_stdin_exits_two(self, data, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert main(["verify", "-"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: stdin is not valid graph6")

    def test_piped_into_a_fresh_interpreter(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        run = subprocess.run([sys.executable, "-m", "cdtsep.cli", "analyze", "-"],
                             input=PETERSEN_GRAPH6, capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        assert "order 10" in run.stdout and "arc-transitivity 3" in run.stdout


class TestExport:
    def test_dot(self, tmp_path, capsys):
        out_file = tmp_path / "k4.dot"
        assert main(["export", "k4", "--dot", str(out_file)]) == 0
        text = out_file.read_text()
        assert text.startswith('digraph "k4" {')
        assert text.rstrip().endswith("}")

    def test_json(self, tmp_path, capsys):
        out_file = tmp_path / "q3.json"
        assert main(["export", "q3", "--json", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert data["reports"][0]["graph"] == "q3"

    def test_needs_a_format(self, capsys):
        assert main(["export", "k4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_refuses_both_formats(self, tmp_path, capsys):
        dot, report = tmp_path / "k4.dot", tmp_path / "k4.json"
        assert main(["export", "k4", "--dot", str(dot), "--json", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--dot" in err and "--json" in err
        assert not dot.exists() and not report.exists()


    @pytest.mark.parametrize("option", ["--dot", "--json"])
    def test_unwritable_path_is_an_input_error(self, option, tmp_path, capsys):
        path = tmp_path / "missing" / "k4.out"
        assert main(["export", "k4", option, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err

    def test_unwritable_path_fails_before_any_group_search(self, tmp_path, monkeypatch, capsys):
        counts = {}
        count_calls(monkeypatch, groups, "automorphism_group", counts)
        path = tmp_path / "missing" / "tutte.json"
        assert main(["export", "tutte", "--json", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")
        assert counts["automorphism_group"] == 0

    @pytest.mark.parametrize(
        "argv", [["heawood", "--dot"], [SQUARE_GRAPH6, "--json"], ["nonsense", "--dot"]],
        ids=["unsolvable", "not-cubic", "not-graph6"],
    )
    def test_input_error_leaves_no_file(self, argv, tmp_path, capsys):
        path = tmp_path / "out"
        assert main(["export", *argv, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")
        assert not path.exists()

    def test_input_error_keeps_an_existing_file(self, tmp_path, capsys):
        path = tmp_path / "out.dot"
        path.write_text("kept\n")
        assert main(["export", "heawood", "--dot", str(path)]) == 2
        assert "unsolvable" in capsys.readouterr().err
        assert path.read_text() == "kept\n"

    def test_replaces_a_longer_file(self, tmp_path, capsys):
        path = tmp_path / "k4.json"
        path.write_text("x" * 100_000)
        assert main(["export", "k4", "--json", str(path)]) == 0
        assert json.loads(path.read_text())["reports"][0]["graph"] == "k4"


class TestOneBuildPerCall:
    @pytest.mark.parametrize(
        "argv", [["verify", "k4"], ["export", "k4", "--dot", "k4.dot"]], ids=lambda v: v[0]
    )
    def test_catalog_graph_is_built_once(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        counts = {}
        count_calls(monkeypatch, catalog, "build_cdt", counts)
        assert main(argv) == 0
        assert counts["build_cdt"] == 1


class TestIngestPreconditions:
    @pytest.mark.parametrize(
        "text",
        # not cubic; two disjoint K4s; the triangular prism
        [SQUARE_GRAPH6, "G~?GW[", "E{Sw"],
        ids=["square", "two-k4", "prism"],
    )
    def test_verbs_and_report_name_the_same_precondition(self, text, capsys):
        with pytest.raises(ReportInputError) as exc:
            run_ingest_report(parse_graph6(text))
        for verb in ("analyze", "orient", "separator", "verify"):
            assert main([verb, text]) == 2
            assert capsys.readouterr().err == f"error: {exc.value}\n"


class TestOutsideFasteningPrecondition:
    @pytest.mark.parametrize(
        "verb", [["orient"], ["separator"], ["export", "--dot", "out.dot"]],
        ids=lambda v: v[0],
    )
    def test_exits_two_without_traceback(self, verb, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([verb[0], GP83_GRAPH6, *verb[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not (tmp_path / "out.dot").exists()

import hashlib
import sys

import pytest

from cdtsep import groups
from cdtsep.catalog import CdtName
from cdtsep.graph6 import parse_graph6
from cdtsep.report import (
    KNOWN_DISCREPANCIES,
    ReportInputError,
    SCHEMA_VERSION,
    VerificationReport,
    report_from_json,
    report_to_json,
    run_graph_report,
    run_ingest_report,
)


class TestSingleGraph:
    def test_k4_is_clean(self):
        r = run_graph_report(CdtName.K4)
        assert r.mismatches() == []
        assert [c.name for c in r.flags()] == ["truncated-solid-name"]
        names = [c.name for c in r.checks]
        assert "parameters" in names
        assert "cayley-a4" in names
        assert "truncated-tetrahedron" in names

    def test_k33_reference_bi_count_mismatches(self):
        r = run_graph_report(CdtName.K33)
        assert [c.name for c in r.mismatches()] == ["bi-alternate-count"]
        mis = r.mismatches()[0]
        assert mis.expected == 6
        assert mis.actual == 12

    def test_petersen_unsolvable_path(self):
        r = run_graph_report(CdtName.PETERSEN)
        names = [c.name for c in r.checks]
        assert "odd-witness-valid" in names
        assert "separator-order" not in names
        assert r.mismatches() == []

    def test_budget_zero_skips_group_checks(self):
        r = run_graph_report(CdtName.K4, budget=0)
        skipped = [c.name for c in r.checks if c.status == "skipped"]
        assert "group-checks" in skipped
        assert "hamiltonian" in skipped
        assert "automorphism-order" not in [c.name for c in r.checks]

    @pytest.mark.parametrize("name", [CdtName.K4, CdtName.PETERSEN, CdtName.TUTTE],
                             ids=lambda n: n.value)
    def test_budget_zero_builds_no_group(self, name, monkeypatch):
        # K4 and Tutte take the solvable branch, Petersen the other one
        original = groups.automorphism_group
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "cdtsep" and vars(module).get("automorphism_group") is original:
                monkeypatch.setattr(module, "automorphism_group", counted)
        r = run_graph_report(name, budget=0)
        assert calls == []
        names = [c.name for c in r.checks]
        assert "group-checks" in names
        assert "distance-transitive" not in names
        assert "arc-transitivity" not in names


class TestFullRun:
    def test_exit_code_reflects_reference_mismatches(self, full_report):
        assert full_report.exit_code() == 1

    def test_expected_mismatches_only(self, full_report):
        assert sorted((g, c.name) for g, c in full_report.mismatches()) == [
            ("coxeter", "cayley-gl32-reference-matrices"),
            ("desargues", "bi-alternate-count"),
            ("k33", "bi-alternate-count"),
            ("tutte", "euler-characteristic"),
            ("tutte", "genus"),
        ]

    def test_flags_are_exactly_the_documented_ones(self, full_report):
        assert sorted((g, c.name) for g, c in full_report.flags()) == sorted(
            KNOWN_DISCREPANCIES
        )

    def test_json_round_trip(self, full_report):
        assert report_from_json(report_to_json(full_report)) == full_report

    def test_schema_version(self, full_report):
        assert full_report.schema_version == SCHEMA_VERSION

    def test_report_bytes_are_pinned(self, full_report):
        # the report stays byte-identical unless SCHEMA_VERSION changes;
        # a change that means to alter it bumps the schema and this digest
        digest = hashlib.sha256(report_to_json(full_report).encode()).hexdigest()
        assert (SCHEMA_VERSION, digest) == (
            2, "76afe1cba0da13c230a6d180fbff4e91b534dc72ff963ae4a052dfa37e200171"
        )

    def test_one_group_per_host_and_separator(self, counted_run):
        # 12 host groups plus 7 separator groups, each computed once
        assert counted_run[1]["automorphism_group"] == 19

    def test_one_bfs_sweep_per_graph_invariant(self, counted_run):
        # each catalog graph's distance table and girth, each built once
        assert counted_run[1]["_distance_sweep"] == 12
        assert counted_run[1]["_girth_sweep"] == 12


class TestIngest:
    def test_cubic_two_arc_transitive_graph(self):
        r = run_ingest_report(parse_graph6("C~"))
        assert r.graph == "ingested"
        assert r.mismatches() == []
        assert {c.status for c in r.checks} == {"computed"}
        names = [c.name for c in r.checks]
        assert "separator-order" in names

    def test_rejects_non_cubic(self):
        with pytest.raises(ReportInputError):
            run_ingest_report(parse_graph6("Cr"))

    def test_rejects_disconnected(self):
        # two disjoint K4s: cubic but disconnected
        from cdtsep.graphs import build_graph

        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(i + 4, j + 4) for i, j in edges[:6]]
        with pytest.raises(ReportInputError):
            run_ingest_report(build_graph(8, edges))

    def test_empty_verification_report_exits_zero(self):
        assert VerificationReport(SCHEMA_VERSION, ()).exit_code() == 0

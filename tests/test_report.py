import hashlib
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import cdtsep
from cdtsep import groups
from cdtsep.catalog import CdtName, build_cdt, cdt_parameters
from cdtsep.cycles import enumerate_girth_cycles
from cdtsep.dot import emit_dot
from cdtsep.graph6 import parse_graph6
from cdtsep.orient import OddWitness, build_constraints, solve
from cdtsep.report import (
    KNOWN_DISCREPANCIES,
    ReportInputError,
    SCHEMA_VERSION,
    VerificationReport,
    _witness_is_valid,
    report_from_json,
    report_to_json,
    run_graph_report,
    run_ingest_report,
    run_report,
)
from conftest import generalized_petersen, hex_torus

# sha256 of report_to_json(run_report()) at SCHEMA_VERSION 2
REPORT_SHA256 = "76afe1cba0da13c230a6d180fbff4e91b534dc72ff963ae4a052dfa37e200171"


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

    @pytest.mark.parametrize("name", [n for n in CdtName if cdt_parameters(n).kappa == 0],
                             ids=lambda n: n.value)
    def test_witness_check_reads_the_cycles(self, name):
        # the solver read the hits of the (k-1)-arc table; flipping the
        # direction of each path's first hit after the solve, which
        # inverts every parity the table gives, leaves the witness valid,
        # since its check reads the girth cycles themselves
        g, _ = build_cdt(name)
        k = cdt_parameters(name).k
        cs = enumerate_girth_cycles(g)
        witness = solve(build_constraints(g, cs, k))
        assert isinstance(witness, OddWitness)
        hits = cs.arc_table(k - 1).hits
        for key, ((cid, d), *rest) in hits.items():
            hits[key] = [(cid, -d), *rest]
        assert _witness_is_valid(cs, k, witness)

    def test_budget_zero_skips_group_checks(self):
        r = run_graph_report(CdtName.K4, budget=0)
        skipped = [c.name for c in r.checks if c.status == "skipped"]
        assert "group-checks" in skipped
        assert "hamiltonian" in skipped
        assert "automorphism-order" not in [c.name for c in r.checks]
        [gate] = [c for c in r.checks if c.name == "group-checks"]
        assert gate.note == "budget exhausted before the group stage"

    def test_budget_is_checked_before_each_group_check(self, monkeypatch):
        # a clock that jumps past the deadline inside K4's first Cayley check
        # stops the run at the next gated row, in the separator group stage
        clock = [0.0]
        monkeypatch.setattr(cdtsep.report, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        original = cdtsep.report.cayley_isomorphism

        def slow(*args):
            clock[0] += 100.0
            return original(*args)

        monkeypatch.setattr(cdtsep.report, "cayley_isomorphism", slow)
        r = run_graph_report(CdtName.K4, budget=10.0)
        names = [c.name for c in r.checks]
        assert names[-3:] == ["cayley-a4", "group-checks", "hamiltonian"]
        assert "separator-automorphism-order" in names
        assert r.checks[-2].note == "budget exhausted before the separator group stage"
        assert (r.checks[-1].status, r.checks[-1].note) == ("skipped", "budget exhausted")

    def test_nan_budget_is_refused(self):
        # no "elapsed > budget" gate would ever trip on a NaN budget
        with pytest.raises(ValueError, match="NaN"):
            run_graph_report(CdtName.K4, budget=float("nan"))

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

    def test_nan_budget_is_refused(self):
        # refused before any graph is built, even when no graph is asked for
        for names in (None, []):
            with pytest.raises(ValueError, match="NaN"):
                run_report(names, budget=float("nan"))

    def test_json_round_trip(self, full_report):
        assert report_from_json(report_to_json(full_report)) == full_report

    def test_schema_version(self, full_report):
        assert full_report.schema_version == SCHEMA_VERSION

    def test_report_bytes_are_pinned(self, full_report):
        # the report stays byte-identical unless SCHEMA_VERSION changes;
        # a change that means to alter it bumps the schema and this digest
        digest = hashlib.sha256(report_to_json(full_report).encode()).hexdigest()
        assert (SCHEMA_VERSION, digest) == (2, REPORT_SHA256)

    def test_verify_all_needs_no_networkx(self):
        # with networkx blocked in a fresh interpreter, the CLI prints the
        # same report and exits 1 for the by-design mismatches
        code = (
            "import sys; sys.modules['networkx'] = None; from cdtsep.cli import main; "
            "sys.exit(main(['verify', '--all', '--json']))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cdtsep.__file__).resolve().parent.parent)},
        )
        assert out.returncode == 1, out.stderr
        digest = hashlib.sha256(out.stdout.removesuffix("\n").encode()).hexdigest()
        assert digest == REPORT_SHA256

    # sha256 of each solvable catalog graph's separator DOT text, which
    # pins its vertex numbering and its succ and trans order
    DOT_DIGESTS = {
        "k4": "c7a58b385f6f72af7182cb5ce5e06b0d06b1ac4881b1a5915b0fdcf1fbcd53c2",
        "k33": "44b2634f22a978d8c7775ad3c9a07fa97d6386cecae525bd99d605cc58a59efd",
        "q3": "2ed35869a2bf19ef1f18a0cb779339055fb606f19fa5d72d6fb952b42040ab2a",
        "dodecahedral": "7217cac587e93f23c32d47b05a666d0647ef5abc1be3a20d4b81978b103e2541",
        "desargues": "54762f4e3f962016eb5d4cfdbf8dc78990c645d20925b3b174e49cdf84f3b43e",
        "coxeter": "54fe87197b615f5f2319756de864c8e82bc7135bd504891310277404ff78bbe8",
        "tutte": "605549f15d6ef5ec326259ba8ab10ba776d9bd98e4e45ba5f24211c6cc2934d5",
    }

    @pytest.mark.parametrize("text", sorted(DOT_DIGESTS))
    def test_separator_dot_is_pinned(self, text, analysis_of):
        name = CdtName.from_string(text)
        _g, table = build_cdt(name)
        dot = emit_dot(analysis_of(text).separator, table, name.value)
        assert hashlib.sha256(dot.encode()).hexdigest() == self.DOT_DIGESTS[text]

    def test_one_build_per_graph(self, counted_run):
        # the reference orientations read the Analysis's own graph
        assert counted_run[1]["build_cdt"] == 12

    def test_one_group_per_host_and_separator(self, counted_run):
        # 12 host groups plus 7 separator groups, each computed once
        assert counted_run[1]["automorphism_group"] == 19

    def test_separator_structure_built_once(self, counted_run):
        # one separator per solvable graph, whose underlying graph is built
        # with it from succ and trans; its arcs come from the cycle set's
        # arc table, so the only arc listings are the 7 reference-ooc-valid
        # checks' own
        counts = counted_run[1]
        assert (counts["build_separator"], counts["underlying"], counts["enumerate_arcs"],
                counts["verify_ooa"]) == (7, 0, 7, 7)

    def test_one_arc_table_per_cycle_set(self, counted_run):
        # the fastening profile, the constraints and the separator share
        # one (k-1)-arc table, which the odd witness row does not read
        assert counted_run[1]["_arc_table"] == 12

    def test_one_bfs_sweep_per_graph_invariant(self, counted_run):
        # each catalog graph's distance table and girth, from one sweep
        assert counted_run[1]["_bfs_sweep"] == 12


class TestIngest:
    def test_cubic_two_arc_transitive_graph(self):
        r = run_ingest_report(parse_graph6("C~"))
        assert r.graph == "ingested"
        assert r.mismatches() == []
        assert {c.status for c in r.checks} == {"computed"}
        names = [c.name for c in r.checks]
        assert "separator-order" in names

    # sha256 of the JSON that `cdtsep verify <graph6> --json` prints: K4,
    # and Petersen relabeled by random.Random(1).shuffle (as in layer_graphs)
    INGEST_SHA256 = {
        "C~": "1ed47de797d1f2e39c61ada12d6a65f66447e5bdbdf35f5f36d31a17455b749a",
        "IqK_iIAAW": "5fd356edc70a03573372dcf2b84417c1be135e69e6229b263dfb668dc3682552",
    }

    @pytest.mark.parametrize("text", sorted(INGEST_SHA256))
    def test_ingest_bytes_are_pinned(self, text):
        report = VerificationReport(SCHEMA_VERSION, (run_ingest_report(parse_graph6(text)),))
        digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
        assert digest == self.INGEST_SHA256[text]

    # the checks an ingested graph reports, in report order
    INGESTED = ("parameters", "girth-cycle-count", "ooa-solvable", "kappa", "separator-order",
                "alternate-count", "euler-characteristic", "genus")

    def test_relabelings_reproduce_the_catalog_values(self, layer_graphs, full_report):
        # each graph6 relabeling of a catalog graph reports the catalog
        # report's recomputed values, not its reference values, plus the
        # row's k among the parameters
        actual = {r.graph: {c.name: c.actual for c in r.checks} for r in full_report.reports}
        assert (actual["tutte"]["euler-characteristic"], actual["tutte"]["genus"]) == (-90, 46)
        relabeled = [(label, g) for label, g, _k in layer_graphs if "/" in label]
        assert len(relabeled) == 36
        for label, g in relabeled:
            name = label.split("/")[0]
            want = [(n, actual[name][n]) for n in self.INGESTED if n in actual[name]]
            want[0] = ("parameters", {**want[0][1], "k": cdt_parameters(CdtName(name)).k})
            assert [(c.name, c.actual) for c in run_ingest_report(g).checks] == want, label

    @pytest.mark.parametrize("b, c, name", [(2, 1, CdtName.HEAWOOD), (3, 0, CdtName.PAPPUS)])
    def test_hex_torus_reproduces_its_catalog_graph(self, b, c, name):
        # {6,3}_{2,1} is Heawood and {6,3}_{3,0} is Pappus, on other labels
        rows = [(c.name, c.actual) for c in run_ingest_report(hex_torus(b, c)).checks]
        assert rows == [(c.name, c.actual) for c in run_ingest_report(build_cdt(name)[0]).checks]

    def test_nauru_and_its_hex_torus_agree(self):
        # GP(12,5) is {6,3}_{2,2}: k = 2, one girth-6 hexagon family, genus 1
        rows = [(c.name, c.actual) for c in run_ingest_report(hex_torus(2, 2)).checks]
        assert rows == [(c.name, c.actual) for c in run_ingest_report(generalized_petersen(12, 5)).checks]
        assert dict(rows)["genus"] == 1

    def test_refuses_the_chiral_hex_torus(self):
        # {6,3}_{3,1} is arc-transitive but not 2-arc-transitive
        with pytest.raises(ReportInputError, match="^input graph is not 2-arc-transitive$"):
            run_ingest_report(hex_torus(3, 1))

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

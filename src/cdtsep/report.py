"""The verification report and its JSON schema.  One ordered table of
checks drives it: each row names the Analysis stage it needs, its
reference value and its recomputed value.  A catalog graph runs every row
its record has a value for, the budget gating the group stages; an
ingested graph runs a fixed subset and reports computed values.

Three reference-text inconsistencies are documented and expected; they
surface as flagged-discrepancy entries rather than mismatches.  Any
other disagreement is a genuine mismatch and fails the run.
"""

from __future__ import annotations

import math
import time
from functools import cached_property
from typing import Callable, NamedTuple

from .analysis import Analysis
from .catalog import CdtName, Flag, OocFixture, Reference, reference, reference_ooc
from .cycles import cycles_through
from .graphs import Graph, build_graph, is_bipartite, is_hamiltonian
from .orient import ConstraintError, OddWitness, assignment_from_cycles, verify_ooa
from .groups import (
    PermGroup, alternating_elements, arc_transitivity, cayley_digraph, digraph_isomorphic,
    gl32_elements, gl32_mult, graph_isomorphic, induced_arc_permutation,
    is_distance_transitive, perm_mult, regular_subgroups, symmetric_elements,
)

__all__ = [
    "SCHEMA_VERSION",
    "ReportInputError",
    "Check",
    "GraphReport",
    "VerificationReport",
    "run_graph_report",
    "run_report",
    "run_ingest_report",
    "ingest_analysis",
    "report_to_json",
    "report_from_json",
    "KNOWN_DISCREPANCIES",
]

SCHEMA_VERSION = 2

MATCH = "match"
MISMATCH = "mismatch"
FLAGGED = "flagged-discrepancy"
SKIPPED = "skipped"
COMPUTED = "computed"  # no reference value to compare against


class ReportInputError(ValueError):
    """Input graph outside the scope of the pipeline preconditions."""


class Check(NamedTuple):
    name: str
    status: str
    expected: object = None
    actual: object = None
    note: str = ""


class GraphReport(NamedTuple):
    graph: str
    checks: tuple[Check, ...]

    def mismatches(self) -> list[Check]:
        return [c for c in self.checks if c.status == MISMATCH]

    def flags(self) -> list[Check]:
        return [c for c in self.checks if c.status == FLAGGED]


class VerificationReport(NamedTuple):
    schema_version: int
    reports: tuple[GraphReport, ...]

    def mismatches(self) -> list[tuple[str, Check]]:
        return [(r.graph, c) for r in self.reports for c in r.mismatches()]

    def flags(self) -> list[tuple[str, Check]]:
        return [(r.graph, c) for r in self.reports for c in r.flags()]

    def exit_code(self) -> int:
        return 1 if self.mismatches() else 0


# The documented reference-text inconsistencies; everything else that
# disagrees is a hard mismatch.
KNOWN_DISCREPANCIES = (
    ("desargues", "transposition-edge-count"),
    ("k4", "truncated-solid-name"),
    ("tutte", "bi-alternate-length-vs-census"),
)


def _truncated_tetrahedron() -> Graph:
    """Independent construction: one triangle per host vertex on its
    outgoing arcs, plus an edge joining each arc to its reversal."""
    verts = [(u, v) for u in range(4) for v in range(4) if u != v]
    index = {a: i for i, a in enumerate(verts)}
    edges = set()
    for u, v in verts:
        edges.add(tuple(sorted((index[(u, v)], index[(v, u)]))))
        for w in range(4):
            if w not in (u, v):
                edges.add(tuple(sorted((index[(u, v)], index[(u, w)]))))
    return build_graph(12, sorted(edges))


def _witness_is_valid(cs, k, witness: OddWitness) -> bool:
    """Re-check an odd witness from scratch against the cycle set."""
    if not witness.is_odd():
        return False
    m = len(witness.paths)
    if len(witness.cycle_ids) != m + 1 or witness.cycle_ids[0] != witness.cycle_ids[-1]:
        return False
    for i, p in enumerate(witness.paths):
        if len(p) != k:
            return False
        hits = cycles_through(cs, p)
        if len(hits) != 2:
            return False
        (c1, d1), (c2, d2) = hits
        if {c1, c2} != {witness.cycle_ids[i], witness.cycle_ids[i + 1]}:
            return False
        if witness.parities[i] != (d1 == d2):
            return False
    return True


def _refuse_nan(budget: float | None) -> None:
    # every budget gate compares with the deadline, which is False against NaN
    if budget is not None and budget != budget:
        raise ValueError("budget must be a number of seconds, not NaN")


# ---------------------------------------------------------------------------
# The check table.

# The pipeline stage a check needs.  A witness row runs only when the
# orientation problem is unsolvable, a separator row only when it is
# solved; the group stages are the ones the budget gates.
GRAPH, WITNESS, SEPARATOR = "graph", "witness", "separator"
GROUP, SEPARATOR_GROUP, HAMILTONIAN = "group", "separator group", "hamiltonian"
_SOLVED_IN = {WITNESS: False, SEPARATOR: True, SEPARATOR_GROUP: True}
_GATED = (GROUP, SEPARATOR_GROUP)


class _Subject:
    """What the check rows read: one graph's pipeline, its reference record
    and published oriented girth cycles (none for an ingested graph), and
    the monotonic deadline of its budget (None: unbounded)."""

    def __init__(self, a: Analysis, ref: Reference = Reference(),
                 ooc: OocFixture | None = None, deadline: float | None = None):
        self.a, self.ref, self.ooc, self.deadline = a, ref, ooc, deadline

    @property
    def census(self):
        # as deep as the reference lists alternates, and r = 1 for the faces
        return self.a.census(len(self.ref.alternates) or 1)

    @cached_property
    def regular(self):
        return regular_subgroups(self.a.separator_group, self.a.separator.order)

    @cached_property
    def spectra(self):
        return sorted(sorted(r.order_spectrum()) for r in self.regular)

    def reaches(self, stage: str) -> bool:
        return stage not in _SOLVED_IN or _SOLVED_IN[stage] == self.a.solved

    def left(self) -> float:
        return math.inf if self.deadline is None else self.deadline - time.monotonic()


class _Row:
    """One check: the stage it needs, and functions of a _Subject giving
    its reference value (None leaves the row out, a Flag makes it a
    flagged discrepancy), its recomputed value (or a finished skipped
    Check) and its note."""

    def __init__(self, name: str, stage: str, expect: Callable, actual: Callable,
                 note: Callable = lambda x: ""):
        self.name, self.stage, self.expect, self.actual, self.note = (
            name, stage, expect, actual, note)


def _parameters(x: _Subject) -> dict[str, int]:
    a = x.a
    values = {"n": a.graph.order, "d": a.table.diameter, "g": a.girth,
              "b": int(is_bipartite(a.graph))}
    # k is a recomputed value only where no catalog row supplies it
    return values if a.row else {**values, "k": a.k}


def _alternate_rows(r: int, word: str) -> tuple[_Row, _Row]:
    """Count and length of the simple r-alternate cycles, each left out
    where the reference does not list it."""
    def listed(x, i):
        return x.ref.alternates[r - 1][i] if r <= len(x.ref.alternates) else None

    return (
        _Row(f"{word}-count", SEPARATOR, lambda x: listed(x, 0),
             lambda x: x.census.simple_count(r)),
        _Row(f"{word}-length", SEPARATOR, lambda x: listed(x, 1) and [listed(x, 1)],
             lambda x: sorted(x.census.simple_lengths(r))),
    )


def _flag_row(name: str, stage: str, actual) -> _Row:
    return _Row(name, stage, lambda x: x.ref.flags.get(name), actual)


def _cayley_row(name: str, group, note: str = "") -> _Row:
    """The separator against the Cayley digraph of group() = (elements,
    product) on the record's generators for name."""
    def actual(x):
        elements, mult = group()
        target = cayley_digraph(elements, mult, list(x.ref.cayley[name]))
        return digraph_isomorphic(x.a.separator.digraph, target) is not None

    return _Row(name, SEPARATOR_GROUP, lambda x: True if name in x.ref.cayley else None, actual,
                lambda x: note)


def _subgroup_is_regular(x: _Subject) -> bool:
    s = x.a.separator
    members = [induced_arc_permutation(s, h) for h in x.ref.subgroup]
    if any(m is None for m in members):
        return False
    sub = PermGroup(s.order, tuple(members))
    return sub.order() == s.order and sub.is_transitive()


def _hamiltonian(x: _Subject) -> bool | Check:
    left = x.left()
    if left <= 0:
        return Check("hamiltonian", SKIPPED, note="budget exhausted")
    g = x.a.graph
    result = is_hamiltonian(g) if x.deadline is None else is_hamiltonian(g, left)
    if result is None:
        return Check("hamiltonian", SKIPPED, note="search budget exhausted")
    return result


# Every check in report order.  Rows name pipeline functions inside
# lambdas, so a call goes through this module's binding at call time.
_ROWS: tuple[_Row, ...] = (
    _Row("parameters", GRAPH, lambda x: {k: getattr(x.a.row, k) for k in "ndgb"}, _parameters,
         lambda x: "" if x.a.row else "no reference row; recomputed values only"),
    _Row("girth-cycle-count", GRAPH, lambda x: x.a.row.eta, lambda x: len(x.a.cycles)),
    _Row("fastening-uniform", GRAPH, lambda x: True, lambda x: x.a.fastening.uniform),
    _Row("ooa-solvable", GRAPH, lambda x: x.a.row.kappa > 0, lambda x: x.a.solved),
    _Row("kappa", GRAPH, lambda x: x.a.row.kappa, lambda x: x.a.kappa),
    _Row("odd-witness-valid", WITNESS, lambda x: True,
         lambda x: _witness_is_valid(x.a.cycles, x.a.k, x.a.outcome)),
    _Row("reference-ooc-valid", SEPARATOR, lambda x: True if x.ooc else None,
         lambda x: verify_ooa(x.a.graph, x.a.cycles, x.a.k,
                              assignment_from_cycles(x.a.cycles, x.ooc.cycles))),
    _Row("separator-order", SEPARATOR, lambda x: 3 * x.a.row.n * 2 ** (x.a.row.k - 2),
         lambda x: x.a.separator.order),
    _Row("separator-degrees", SEPARATOR, lambda x: True,
         lambda x: x.a.separator.is_two_in_two_out()),
    _Row("separator-underlying", SEPARATOR, lambda x: {"cubic": True, "connected": True},
         lambda x: {"cubic": x.a.separator.under.is_cubic(),
                    "connected": x.a.separator.under.is_connected()}),
    _Row("oriented-cycle-count", SEPARATOR, lambda x: x.a.row.eta,
         lambda x: x.a.separator.oriented_cycle_count),
    *(row for r, word in enumerate(("alternate", "bi-alternate", "tri-alternate",
                                    "tetra-alternate"), 1) for row in _alternate_rows(r, word)),
    _flag_row("bi-alternate-length-vs-census", SEPARATOR,
              lambda x: sorted(x.census.simple_lengths(2))),
    _flag_row("transposition-edge-count", SEPARATOR, lambda x: x.a.separator.order // 2),
    _Row("euler-characteristic", SEPARATOR, lambda x: x.ref.chi, lambda x: x.a.surface.chi),
    _Row("orientable", SEPARATOR, lambda x: True, lambda x: x.a.surface.orientable),
    _Row("genus", SEPARATOR, lambda x: x.ref.genus, lambda x: x.a.surface.genus),
    _Row("distance-transitive", GROUP, lambda x: True,
         lambda x: is_distance_transitive(x.a.graph, x.a.host_group)),
    _Row("arc-transitivity", GROUP, lambda x: x.a.row.k,
         lambda x: arc_transitivity(x.a.graph, x.a.host_group)),
    _Row("automorphism-order", GROUP, lambda x: x.a.row.a, lambda x: x.a.host_group.order()),
    _Row("separator-automorphism-order", SEPARATOR_GROUP, lambda x: x.a.row.a,
         lambda x: x.a.separator_group.order()),
    _cayley_row("cayley-a4", lambda: (alternating_elements(4), perm_mult)),
    _cayley_row("cayley-s4", lambda: (symmetric_elements(4), perm_mult)),
    _cayley_row("cayley-a5", lambda: (alternating_elements(5), perm_mult)),
    _flag_row("truncated-solid-name", SEPARATOR_GROUP, lambda x: "truncated tetrahedron"),
    # the identification the truncated-solid-name flag rests on
    _Row("truncated-tetrahedron", SEPARATOR_GROUP,
         lambda x: True if "truncated-solid-name" in x.ref.flags else None,
         lambda x: graph_isomorphic(x.a.separator.under, _truncated_tetrahedron()) is not None),
    _cayley_row("cayley-gl32-reference-matrices", lambda: (gl32_elements(), gl32_mult),
                "reference matrix pair multiplies to an order-3 element;"
                " the separator needs product order 4"),
    _cayley_row("cayley-gl32-corrected-involution", lambda: (gl32_elements(), gl32_mult)),
    _Row("reference-subgroup-regular", SEPARATOR_GROUP,
         lambda x: True if x.ref.subgroup else None, _subgroup_is_regular),
    _Row("regular-subgroup-found", SEPARATOR_GROUP,
         lambda x: True if x.ref.subgroup or x.ref.spectrum else None,
         lambda x: bool(x.regular)),
    _Row("regular-subgroup-spectrum", SEPARATOR_GROUP,
         lambda x: True if x.ref.spectrum else None, lambda x: list(x.ref.spectrum) in x.spectra,
         lambda x: f"spectra of all regular subgroups found: {x.spectra}"),
    _Row("hamiltonian", HAMILTONIAN, lambda x: bool(x.a.row.h), _hamiltonian),
)


def run_graph_report(name: CdtName, budget: float | None = None) -> GraphReport:
    """Execute the whole pipeline for one catalog graph.  budget is in
    seconds (None: no gate, and the hamiltonicity search keeps
    is_hamiltonian's own default; 0 or less: already spent); a NaN budget
    raises ValueError."""
    _refuse_nan(budget)
    deadline = None if budget is None else time.monotonic() + budget
    x = _Subject(Analysis.from_catalog(name), reference(name), reference_ooc(name), deadline)
    checks: list[Check] = []
    gated = False
    for row in _ROWS:
        if not x.reaches(row.stage):
            continue
        expected = row.expect(x)
        if expected is None:
            continue
        if row.stage in _GATED and (gated or x.left() < 0):
            if not gated:
                note = f"budget exhausted before the {row.stage} stage"
                checks.append(Check("group-checks", SKIPPED, note=note))
            gated = True
            continue
        actual = row.actual(x)
        if isinstance(actual, Check):
            checks.append(actual)
        elif isinstance(expected, Flag):
            checks.append(Check(row.name, FLAGGED, expected.printed, actual, expected.note))
        else:
            status = MATCH if expected == actual else MISMATCH
            checks.append(Check(row.name, status, expected, actual, row.note(x)))
    return GraphReport(name.value, tuple(checks))


def run_report(names=None, budget: float | None = None) -> VerificationReport:
    """Reports for the requested catalog graphs, in catalog order; each
    graph gets budget seconds of its own, as in run_graph_report."""
    _refuse_nan(budget)
    if names is None:
        names = list(CdtName)
    reports = tuple(run_graph_report(n, budget=budget) for n in names)
    return VerificationReport(SCHEMA_VERSION, reports)


def ingest_analysis(g: Graph) -> Analysis:
    """The Analysis of an ingested graph, which must be cubic, connected
    and 2-arc-transitive; ReportInputError names the first one it misses."""
    if not g.is_cubic():
        raise ReportInputError("input graph is not cubic")
    if not g.is_connected():
        raise ReportInputError("input graph is not connected")
    a = Analysis(g)
    if a.k < 2:
        raise ReportInputError("input graph is not 2-arc-transitive")
    return a


# The rows an ingested graph reports.
_INGESTED = ("parameters", "girth-cycle-count", "ooa-solvable", "kappa", "separator-order",
             "alternate-count", "euler-characteristic", "genus")


def run_ingest_report(g: Graph) -> GraphReport:
    """Pipeline for an ingested cubic graph outside the catalog: the
    _INGESTED rows of the check table, each reporting a computed value.
    It takes no budget: the precondition k >= 2 is read off the host
    automorphism group, so no group work is left to gate once it holds.

    Raises ReportInputError when the graph misses the structural
    preconditions (those of ingest_analysis, and uniform
    two-cycles-per-key-path).
    """
    x = _Subject(ingest_analysis(g))
    try:
        checks = tuple(
            Check(row.name, COMPUTED, None, row.actual(x), row.note(x))
            for row in _ROWS
            if row.name in _INGESTED and x.reaches(row.stage)
        )
    except ConstraintError as exc:
        raise ReportInputError(str(exc)) from exc
    return GraphReport("ingested", checks)


# ---------------------------------------------------------------------------
# JSON round trip.  json is imported on first use: most CLI calls print no
# JSON, and a fresh interpreter pays about 3 ms to import it.


def report_to_json(report: VerificationReport) -> str:
    import json

    tree = {"schema_version": report.schema_version,
            "reports": [{"graph": r.graph, "checks": [c._asdict() for c in r.checks]}
                        for r in report.reports]}
    return json.dumps(tree, indent=2, sort_keys=True)


def report_from_json(text: str) -> VerificationReport:
    import json

    data = json.loads(text)
    reports = tuple(
        GraphReport(r["graph"], tuple(
            Check(c["name"], c["status"], c.get("expected"), c.get("actual"), c.get("note", ""))
            for c in r["checks"]))
        for r in data["reports"]
    )
    return VerificationReport(data["schema_version"], reports)

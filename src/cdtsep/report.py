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
from typing import Callable, NamedTuple

from .analysis import Analysis
from .catalog import CdtName, Flag
from .cycles import ConstraintError, cycles_through
from .graphs import Graph, build_graph, is_bipartite, is_hamiltonian
from .orient import OddWitness, assignment_from_cycles, verify_ooa
from .groups import (
    PermGroup, alternating_elements, arc_transitivity, cayley_isomorphism, compose, gl32_elements,
    gl32_mult, graph_isomorphic, induced_arc_permutation, is_distance_transitive,
    symmetric_elements,
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


def _left(deadline: float | None) -> float:
    """Seconds left before the monotonic deadline (None: unbounded)."""
    return math.inf if deadline is None else deadline - time.monotonic()


class _Row(NamedTuple):
    """One check: the stage it needs, and functions of an Analysis giving
    its reference value (None leaves the row out, a Flag makes it a
    flagged discrepancy), its recomputed value (or a finished skipped
    Check; the hamiltonian row's also takes the deadline) and its note."""

    name: str
    stage: str
    expect: Callable
    actual: Callable
    note: Callable = lambda a: ""


def _parameters(a: Analysis) -> dict[str, int]:
    values = {"n": a.graph.order, "d": a.table.diameter, "g": a.girth,
              "b": int(is_bipartite(a.graph))}
    # k is a recomputed value only where no catalog row supplies it
    return values if a.row else {**values, "k": a.k}


def _alternate_rows(r: int, word: str) -> tuple[_Row, _Row]:
    """Count and length of the simple r-alternate cycles, each left out
    where the reference does not list it."""
    def listed(a, i):
        return a.ref.alternates[r - 1][i] if r <= len(a.ref.alternates) else None

    return (
        _Row(f"{word}-count", SEPARATOR, lambda a: listed(a, 0),
             lambda a: a.census.simple_count(r)),
        _Row(f"{word}-length", SEPARATOR, lambda a: listed(a, 1) and [listed(a, 1)],
             lambda a: sorted(a.census.simple_lengths(r))),
    )


def _flag_row(name: str, stage: str, actual) -> _Row:
    return _Row(name, stage, lambda a: a.ref.flags.get(name), actual)


def _cayley_row(name: str, group, note: str = "") -> _Row:
    """The separator against the Cayley digraph of group() = (elements,
    product) on the record's generators for name, decided by
    cayley_isomorphism's labelled walk on the separator, whose
    orientation kernel must be regular."""
    def actual(a):
        generators = list(a.ref.cayley[name])
        return cayley_isomorphism(a.separator, a.kernel, *group(), generators) is not None

    return _Row(name, SEPARATOR_GROUP, lambda a: True if name in a.ref.cayley else None, actual,
                lambda a: note)


def _subgroup_is_regular(a: Analysis) -> bool:
    s = a.separator
    members = [induced_arc_permutation(s, h) for h in a.ref.subgroup]
    if any(m is None for m in members):
        return False
    sub = PermGroup(s.order, tuple(members))
    return sub.order() == s.order and sub.is_transitive()


def _hamiltonian(a: Analysis, deadline: float | None) -> bool | Check:
    left = _left(deadline)
    if left <= 0:
        return Check("hamiltonian", SKIPPED, note="budget exhausted")
    result = is_hamiltonian(a.graph) if deadline is None else is_hamiltonian(a.graph, left)
    if result is None:
        return Check("hamiltonian", SKIPPED, note="search budget exhausted")
    return result


# Every check in report order.  Rows name pipeline functions inside
# lambdas, so a call goes through this module's binding at call time.
_ROWS: tuple[_Row, ...] = (
    _Row("parameters", GRAPH, lambda a: {k: getattr(a.row, k) for k in "ndgb"}, _parameters,
         lambda a: "" if a.row else "no reference row; recomputed values only"),
    _Row("girth-cycle-count", GRAPH, lambda a: a.row.eta, lambda a: len(a.cycles)),
    _Row("fastening-uniform", GRAPH, lambda a: True, lambda a: a.fastening.uniform),
    _Row("ooa-solvable", GRAPH, lambda a: a.row.kappa > 0, lambda a: a.solved),
    _Row("kappa", GRAPH, lambda a: a.row.kappa, lambda a: a.kappa),
    _Row("odd-witness-valid", WITNESS, lambda a: True,
         lambda a: _witness_is_valid(a.cycles, a.k, a.outcome)),
    _Row("reference-ooc-valid", SEPARATOR, lambda a: True if a.ooc else None,
         lambda a: verify_ooa(a.graph, a.cycles, a.k,
                              assignment_from_cycles(a.cycles, a.ooc.cycles))),
    _Row("separator-order", SEPARATOR, lambda a: 3 * a.row.n * 2 ** (a.row.k - 2),
         lambda a: a.separator.order),
    _Row("separator-degrees", SEPARATOR, lambda a: True,
         lambda a: a.separator.is_two_in_two_out()),
    _Row("separator-underlying", SEPARATOR, lambda a: {"cubic": True, "connected": True},
         lambda a: {"cubic": a.separator.under.is_cubic(),
                    "connected": a.separator.under.is_connected()}),
    _Row("oriented-cycle-count", SEPARATOR, lambda a: a.row.eta,
         lambda a: a.separator.oriented_cycle_count),
    *(row for r, word in enumerate(("alternate", "bi-alternate", "tri-alternate",
                                    "tetra-alternate"), 1) for row in _alternate_rows(r, word)),
    _flag_row("bi-alternate-length-vs-census", SEPARATOR,
              lambda a: sorted(a.census.simple_lengths(2))),
    _flag_row("transposition-edge-count", SEPARATOR, lambda a: a.separator.order // 2),
    _Row("euler-characteristic", SEPARATOR, lambda a: a.ref.chi, lambda a: a.surface.chi),
    _Row("orientable", SEPARATOR, lambda a: True, lambda a: a.surface.orientable),
    _Row("genus", SEPARATOR, lambda a: a.ref.genus, lambda a: a.surface.genus),
    _Row("distance-transitive", GROUP, lambda a: True,
         lambda a: is_distance_transitive(a.graph, a.host_group)),
    _Row("arc-transitivity", GROUP, lambda a: a.row.k,
         lambda a: arc_transitivity(a.graph, a.host_group)),
    _Row("automorphism-order", GROUP, lambda a: a.row.a, lambda a: a.host_group.order()),
    _Row("separator-automorphism-order", SEPARATOR_GROUP, lambda a: a.row.a,
         lambda a: a.separator_group.order()),
    _cayley_row("cayley-a4", lambda: (alternating_elements(4), compose)),
    _cayley_row("cayley-s4", lambda: (symmetric_elements(4), compose)),
    _cayley_row("cayley-a5", lambda: (alternating_elements(5), compose)),
    _flag_row("truncated-solid-name", SEPARATOR_GROUP, lambda a: "truncated tetrahedron"),
    # the identification the truncated-solid-name flag rests on
    _Row("truncated-tetrahedron", SEPARATOR_GROUP,
         lambda a: True if "truncated-solid-name" in a.ref.flags else None,
         lambda a: graph_isomorphic(a.separator.under, _truncated_tetrahedron()) is not None),
    _cayley_row("cayley-gl32-reference-matrices", lambda: (gl32_elements(), gl32_mult),
                "reference matrix pair multiplies to an order-3 element;"
                " the separator needs product order 4"),
    _cayley_row("cayley-gl32-corrected-involution", lambda: (gl32_elements(), gl32_mult)),
    _Row("reference-subgroup-regular", SEPARATOR_GROUP,
         lambda a: True if a.ref.subgroup else None, _subgroup_is_regular),
    _Row("regular-subgroup-found", SEPARATOR_GROUP,
         lambda a: True if a.ref.subgroup or a.ref.spectrum else None, lambda a: bool(a.regular)),
    _Row("regular-subgroup-spectrum", SEPARATOR_GROUP,
         lambda a: True if a.ref.spectrum else None, lambda a: list(a.ref.spectrum) in a.spectra,
         lambda a: f"spectra of all regular subgroups found: {a.spectra}"),
    _Row("hamiltonian", HAMILTONIAN, lambda a: bool(a.row.h), _hamiltonian),
)


# The rows an ingested graph reports.
_INGESTED = ("parameters", "girth-cycle-count", "ooa-solvable", "kappa", "separator-order",
             "alternate-count", "euler-characteristic", "genus")


def _checks(a: Analysis, deadline: float | None) -> tuple[Check, ...]:
    """The check table over a.  With a catalog row, every row its record
    has a value for, no group row starting after the monotonic deadline
    (None: unbounded); without one, the _INGESTED rows as computed values."""
    checks: list[Check] = []
    gated = False
    for row in _ROWS:
        if row.stage in _SOLVED_IN and _SOLVED_IN[row.stage] != a.solved:
            continue
        if a.row is None:
            if row.name in _INGESTED:
                checks.append(Check(row.name, COMPUTED, None, row.actual(a), row.note(a)))
            continue
        expected = row.expect(a)
        if expected is None:
            continue
        if row.stage in _GATED and (gated or _left(deadline) < 0):
            if not gated:
                note = f"budget exhausted before the {row.stage} stage"
                checks.append(Check("group-checks", SKIPPED, note=note))
            gated = True
            continue
        actual = row.actual(a, deadline) if row.stage == HAMILTONIAN else row.actual(a)
        if isinstance(actual, Check):
            checks.append(actual)
        elif isinstance(expected, Flag):
            checks.append(Check(row.name, FLAGGED, expected.printed, actual, expected.note))
        else:
            status = MATCH if expected == actual else MISMATCH
            checks.append(Check(row.name, status, expected, actual, row.note(a)))
    return tuple(checks)


def run_graph_report(name: CdtName, budget: float | None = None) -> GraphReport:
    """Execute the whole pipeline for one catalog graph.  budget is in
    seconds (None: no gate, and the hamiltonicity search keeps
    is_hamiltonian's own default; 0 or less: already spent); a NaN budget
    raises ValueError."""
    _refuse_nan(budget)
    deadline = None if budget is None else time.monotonic() + budget
    return GraphReport(name.value, _checks(Analysis.from_catalog(name), deadline))


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


def run_ingest_report(g: Graph) -> GraphReport:
    """Pipeline for an ingested cubic graph outside the catalog: the
    _INGESTED rows of the check table, each reporting a computed value.
    It takes no budget: the precondition k >= 2 is read off the host
    automorphism group, so no group work is left to gate once it holds.

    Raises ReportInputError when the graph misses the structural
    preconditions (those of ingest_analysis, and uniform
    two-cycles-per-key-path).
    """
    a = ingest_analysis(g)
    try:
        checks = _checks(a, None)
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

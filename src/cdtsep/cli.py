"""Command-line frontend.

Verbs: catalog, analyze, orient, separator, verify, export.
Exit codes: 0 verified/ok, 1 mismatch, 2 input error or an unwritable output path.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from .analysis import Analysis
from .catalog import CdtName, cdt_parameters
from .cycles import ConstraintError
from .dot import emit_dot
from .graph6 import Graph6Error, parse_graph6
from .graphs import Graph, GraphError, is_bipartite, is_hamiltonian
from .orient import OddWitness
from .separator import separator_summary
from .report import (
    ReportInputError,
    ingest_analysis,
    run_graph_report,
    run_ingest_report,
    run_report,
    report_to_json,
    VerificationReport,
    SCHEMA_VERSION,
)


class _InputError(Exception):
    pass


def _catalog_name(spec: str) -> CdtName | None:
    try:
        return CdtName.from_string(spec)
    except ValueError:
        return None


def _graph6(spec: str) -> Graph:
    """The graph of graph6 text that names no catalog graph, or of the
    graph6 text on stdin when spec is "-"."""
    if spec == "-":
        try:
            return parse_graph6(sys.stdin.read())
        except (Graph6Error, UnicodeDecodeError) as exc:
            raise _InputError(f"stdin is not valid graph6: {exc}")
    try:
        return parse_graph6(spec)
    except Graph6Error as exc:
        raise _InputError(f"{spec!r} is neither a catalog name nor valid graph6: {exc}")


def _analysis(spec: str) -> Analysis:
    """A verb's graph: its catalog Analysis, or one that passed ingest_analysis."""
    name = _catalog_name(spec)
    return ingest_analysis(_graph6(spec)) if name is None else Analysis.from_catalog(name)


def _report(spec: str, budget) -> VerificationReport:
    """Verification report of one catalog name or graph6 text."""
    name = _catalog_name(spec)
    report = run_ingest_report(_graph6(spec)) if name is None else run_graph_report(name, budget)
    return VerificationReport(SCHEMA_VERSION, (report,))


def _cannot_write(path: str, exc: OSError) -> _InputError:
    return _InputError(f"cannot write {path}: {exc.strerror or exc}")


@contextmanager
def _output(path: str):
    """A put(text) that writes text to path, for the body of a with
    block.  The path is opened, without truncating it, before the body
    runs, so an unwritable path is an input error before any work is
    done; put truncates the file only once the text is made.  When the
    body fails, a file this block created is removed again and one that
    was there is left as it was."""
    created = not os.path.exists(path)
    try:
        f = open(path, "a")
    except OSError as exc:
        raise _cannot_write(path, exc) from exc

    def put(text: str) -> None:
        try:
            f.truncate(0)
            f.write(text)
            f.flush()
        except OSError as exc:
            raise _cannot_write(path, exc) from exc

    try:
        with f:
            yield put
    except BaseException:
        if created:
            os.remove(path)
        raise
    print(f"wrote {path}")


def _cmd_catalog(args) -> int:
    print(f"{'name':14} {'n':>4} {'d':>2} {'g':>2} {'k':>2} {'eta':>4} {'aut':>5} "
          f"{'b':>2} {'h':>2} {'kappa':>5}")
    for name in CdtName:
        p = cdt_parameters(name)
        print(f"{name.value:14} {p.n:>4} {p.d:>2} {p.g:>2} {p.k:>2} {p.eta:>4} "
              f"{p.a:>5} {p.b:>2} {p.h:>2} {p.kappa:>5}")
    return 0


def _cmd_analyze(args) -> int:
    a = _analysis(args.graph)
    g = a.graph
    print(f"order {g.order}  diameter {a.table.diameter}  girth {a.girth}  "
          f"bipartite {int(is_bipartite(g))}  planar {int(a.planar)}")
    print(f"arc-transitivity {a.k}")
    print(f"girth cycles {len(a.cycles)}")
    profile = a.fastening
    print(f"fastening uniform {profile.uniform}")
    for i in sorted(profile.levels):
        counts = dict(sorted(profile.levels[i].items()))
        print(f"  paths of length {a.k - 1 - i}: cycles-through counts {counts}")
    ham = is_hamiltonian(g) if args.budget is None else is_hamiltonian(g, args.budget)
    print(f"hamiltonian {'unknown (budget)' if ham is None else ham}")
    return 0


def _cmd_orient(args) -> int:
    a = _analysis(args.graph)
    outcome = a.outcome
    if isinstance(outcome, OddWitness):
        print("orientation: unsolvable")
        print(f"odd witness through {len(outcome.paths)} paths:")
        for cid, p, parity in zip(outcome.cycle_ids, outcome.paths, outcome.parities):
            print(f"  cycle {cid} -> path {p} ({'odd' if parity else 'even'})")
        print(f"  back to cycle {outcome.cycle_ids[-1]}")
        print(f"kappa {a.kappa}")
        return 0
    signs = "".join("-" if f else "+" for f in outcome.flips)
    print("orientation: solvable")
    print(f"components {outcome.components}")
    print(f"assignment {signs}")
    print(f"kappa {a.kappa}")
    return 0


def _cmd_separator(args) -> int:
    a = _analysis(args.graph)
    summary = separator_summary(a.separator, a.census)
    print(f"vertices {summary.vertices}")
    print(f"cycle arcs {summary.cycle_arcs}  transposition edges "
          f"{summary.transposition_edges}  underlying edges {summary.underlying_edges}")
    print(f"oriented cycles {summary.oriented_cycles}")
    for r in sorted(summary.alternate_simple):
        lengths = sorted(summary.alternate_lengths[r])
        print(f"{r}-alternate simple cycles {summary.alternate_simple[r]} "
              f"(lengths {lengths})")
    return 0


def _cmd_verify(args) -> int:
    if args.all and args.graph:
        raise _InputError("verify takes a graph or --all, not both")
    if args.all:
        report = run_report(budget=args.budget)
    elif args.graph:
        report = _report(args.graph, args.budget)
    else:
        raise _InputError("verify needs a graph name or --all")
    if args.json:
        print(report_to_json(report))
    else:
        for r in report.reports:
            print(f"== {r.graph}")
            for c in r.checks:
                line = f"  [{c.status}] {c.name}"
                if c.expected is not None or c.actual is not None:
                    line += f": expected {c.expected}, actual {c.actual}"
                if c.note:
                    line += f"  ({c.note})"
                print(line)
    return report.exit_code()


def _cmd_export(args) -> int:
    if args.dot and args.json_path:
        raise _InputError("export takes --dot PATH or --json PATH, not both")
    if args.dot:
        with _output(args.dot) as put:
            a = _analysis(args.graph)
            put(emit_dot(a.separator, a.labels, name=a.name.value if a.name else "separator"))
        return 0
    if args.json_path:
        with _output(args.json_path) as put:
            report = _report(args.graph, args.budget)
            put(report_to_json(report) + "\n")
        return report.exit_code()
    raise _InputError("export needs --dot PATH or --json PATH")


def _seconds(text: str) -> float:
    """A budget in seconds: a number >= 0, inf included.  NaN and
    negative values are refused: every budget gate would read NaN as no
    budget at all, and a negative budget as one already spent."""
    try:
        value = float(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected seconds >= 0 (or inf), got {text!r}")


_GRAPH_HELP = "catalog name, graph6 text, or - to read graph6 text from stdin"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdtsep",
        description="Construct, orient and separate the cubic"
        " distance-transitive graphs, and verify their structure.",
    )
    parser.add_argument(
        "--budget",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="time budget: the hamiltonicity search stops when it runs out, and"
        " verify on a catalog graph starts no group check after it has run out"
        " (a running group search is not interrupted); graph6 input is not"
        " gated, since its precondition k >= 2 needs the host group",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("catalog", help="list the twelve catalog rows")

    for verb in ("analyze", "orient", "separator"):
        sp = sub.add_parser(verb)
        sp.add_argument("graph", help=_GRAPH_HELP)

    sp = sub.add_parser("verify", help="run the verification pipeline")
    sp.add_argument("graph", nargs="?", help=_GRAPH_HELP)
    sp.add_argument("--all", action="store_true", help="verify all twelve graphs")
    sp.add_argument("--json", action="store_true", help="emit the JSON report")

    sp = sub.add_parser("export", help="write DOT or JSON artifacts")
    sp.add_argument("graph", help=_GRAPH_HELP)
    sp.add_argument("--dot", metavar="PATH", help="write the separator as DOT")
    sp.add_argument("--json", dest="json_path", metavar="PATH",
                    help="write the verification report as JSON")
    return parser


_DISPATCH = {
    "catalog": _cmd_catalog,
    "analyze": _cmd_analyze,
    "orient": _cmd_orient,
    "separator": _cmd_separator,
    "verify": _cmd_verify,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.verb](args)
    except (_InputError, ReportInputError, Graph6Error, GraphError, ConstraintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

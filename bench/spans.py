"""Span tracing of cdtsep from the outside.

Every public function and ``PermGroup`` method the pipeline calls (see
TARGETS for the few per-element helpers left out) is wrapped while a
traced pass runs.  A function's wrapper is installed under every name a
``cdtsep`` module bound to it, and a method's on its class, so a call
from ``report`` and a call inside ``groups`` are both caught.  Spans are kept
in memory as ``[name, start, end, parent, count]`` lists, where parent is
the index of the enclosing span (-1 at top level) and count is the work
count derived from the result (or None).

Run as a script, this file executes one traced ``cdtsep`` CLI call::

    python3 bench/spans.py orient tutte

The CLI output goes to stdout as usual; the spans follow on stderr as
one line starting with ``SPAN_MARK``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
SPAN_MARK = "#spans "


def _count_witness(outcome):
    paths = getattr(outcome, "paths", None)
    return None if paths is None else len(paths)


# (owner, attribute, count name, count of the result).  The owner is a
# cdtsep module, or "groups.PermGroup" for a method.  The span is named
# "<module>.<attribute>", except run_graph_report, whose span is named
# "report.<graph>".  Left out are the helpers that run once per group
# element, cycle or path (compose, inverse, perm_mult, gl32_mult,
# matrix_order, canonical_cycle, path_key, path_index, cycles_through):
# tens of thousands of spans per pass would cost more than their work, so
# their time stays in their caller's self time.  Data-structure methods
# (Graph.edges, Graph.is_cubic, ...) are left out for the same reason.
TARGETS = (
    ("catalog", "build_cdt", None, None),
    ("catalog", "cdt_parameters", None, None),
    ("catalog", "reference_ooc", None, None),
    ("graphs", "build_graph", None, None),
    ("graphs", "build_digraph", None, None),
    ("graphs", "enumerate_arcs", None, None),
    ("graphs", "distances", None, None),
    ("graphs", "girth", None, None),
    ("graphs", "is_bipartite", None, None),
    ("graphs", "is_planar", None, None),
    ("graphs", "is_hamiltonian", None, None),
    ("graphs", "underlying", None, None),
    ("graph6", "write_graph6", None, None),
    ("graph6", "parse_graph6", None, None),
    ("cycles", "enumerate_girth_cycles", "cycles.girth_cycles", len),
    ("cycles", "unordered_paths", None, None),
    ("cycles", "fastening_profile", None, None),
    ("orient", "build_constraints", "orient.constraint_edges", lambda r: len(r.edges)),
    ("orient", "solve", "orient.witness_paths", _count_witness),
    ("orient", "oriented_cycles", None, None),
    ("orient", "verify_ooa", None, None),
    ("orient", "assignment_from_cycles", None, None),
    ("orient", "classify_kappa", None, None),
    ("separator", "build_separator", "separator.vertices", lambda r: r.order),
    ("separator", "alternate_census", None, None),
    ("separator", "separator_summary", None, None),
    ("topology", "face_complex", "topology.faces", lambda r: len(r.faces)),
    ("topology", "euler", None, None),
    ("groups", "automorphism_group", "groups.automorphism_group_calls", lambda r: 1),
    ("groups", "separator_automorphism_group", "groups.separator_generators",
     lambda r: len(r.generators)),
    ("groups", "separator_seeds", "groups.seed_perms", len),
    ("groups", "induced_arc_permutation", None, None),
    ("groups", "arc_transitivity", None, None),
    ("groups", "is_distance_transitive", None, None),
    ("groups", "cayley_digraph", None, None),
    ("groups", "symmetric_elements", None, None),
    ("groups", "alternating_elements", None, None),
    ("groups", "gl32_elements", None, None),
    ("groups", "digraph_isomorphic", None, None),
    ("groups", "graph_isomorphic", None, None),
    ("groups", "regular_subgroups", None, None),
    ("groups.PermGroup", "order", None, None),
    ("groups.PermGroup", "orbit", None, None),
    ("groups.PermGroup", "is_transitive", None, None),
    ("groups.PermGroup", "elements", None, None),
    ("groups.PermGroup", "order_spectrum", None, None),
    ("report", "run_graph_report", "report.checks", lambda r: len(r.checks)),
    ("report", "run_ingest_report", None, None),
    ("report", "report_to_json", None, None),
)


def span_name(owner: str, attr: str) -> str:
    """Span name of a target; run_graph_report spans are per graph."""
    return "report" if attr == "run_graph_report" else f"{owner.split('.')[0]}.{attr}"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, count=None, name_of=None):
        def traced(*args, **kwargs):
            label = name_of(args) if name_of else name
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [label, perf_counter(), None, parent, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[4] = count(result)
                return result
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        return traced

    def extend(self, spans) -> None:
        """Append spans recorded by another process, parents re-indexed."""
        base = len(self.spans)
        for name, start, end, parent, count in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, count])


@contextlib.contextmanager
def patched(tracer: Tracer | None):
    """Install the tracing wrappers for the duration of the block (no-op
    when tracer is None), then restore every original binding."""
    if tracer is None:
        yield
        return
    loaded = [m for n, m in list(sys.modules.items()) if n == "cdtsep" or n.startswith("cdtsep.")]
    saved = []
    for owner, attr, _count_name, count in TARGETS:
        module, _, cls = owner.partition(".")
        holder = importlib.import_module(f"cdtsep.{module}")
        name = span_name(owner, attr)
        name_of = (lambda args: f"report.{args[0].value}") if name == "report" else None
        if cls:
            holder = getattr(holder, cls)
            original = holder.__dict__[attr]
            saved.append((holder, attr, original))
            setattr(holder, attr, tracer.wrap(original, name, count))
            continue
        original = getattr(holder, attr)
        wrapper = tracer.wrap(original, name, count, name_of)
        for m in loaded:
            if m.__dict__.get(attr) is original:
                saved.append((m, attr, original))
                setattr(m, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


_COUNT_OF_SPAN = {span_name(o, a): c for o, a, c, _f in TARGETS if c}


def pass_totals(spans) -> dict[str, float]:
    """Self time per span name (as ``<name>_s``: the span minus its child
    spans) and summed work counts, for the spans of one pass."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _count in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent, count) in enumerate(spans):
        totals[f"{name}_s"] += (end - start) - child_time[i]
        if count is not None:
            family = "report" if name.startswith("report.") else name
            totals[_COUNT_OF_SPAN[family]] += count
    return dict(totals)


def main(argv) -> int:
    sys.path.insert(0, str(SRC))
    from cdtsep.cli import main as cli_main

    tracer = Tracer()
    with patched(tracer):
        code = cli_main(argv)
    sys.stdout.flush()
    sys.stderr.write(SPAN_MARK + json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

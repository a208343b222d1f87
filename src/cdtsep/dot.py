"""Deterministic DOT export for separators.

Cycle arcs come out as directed edges; transposition pairs as single
undirected, dashed edges, so layout tools draw the cycle structure and
the pairing differently.
"""

from __future__ import annotations

from .catalog import LabelTable
from .separator import SeparatorDigraph

__all__ = ["emit_dot"]


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def emit_dot(s: SeparatorDigraph, table: LabelTable | None = None, name: str = "G") -> str:
    """DOT text, byte-identical across runs for equal inputs."""
    lines = [f"digraph {_quote(name)} {{"]
    for v in range(s.order):
        lines.append(f"  {v} [label={_quote(s.arc_label(v, table))}];")
    for v in range(s.order):
        lines.append(f"  {v} -> {s.succ[v]};")
    for v in range(s.order):
        if v < s.trans[v]:
            lines.append(f"  {v} -> {s.trans[v]} [dir=none, style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Separator digraph: vertices are the (k-1)-arcs of the host graph,
arcs follow the oriented girth cycles one step, and each vertex is paired
with its reversal by a transposition edge."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .graphs import Digraph, Graph, GraphError, build_digraph, enumerate_arcs, underlying
from .cycles import CycleSet, cycle_windows
from .orient import OddWitness, OrientationAssignment, oriented_cycles

__all__ = [
    "SeparatorDigraph",
    "AlternateOrbit",
    "AlternateCensus",
    "SeparatorSummary",
    "build_separator",
    "alternate_census",
    "separator_summary",
]


@dataclass(frozen=True)
class SeparatorDigraph:
    """Immutable after construction.

    arcs[i] is the vertex-id-sequence of separator vertex i (sorted
    lexicographically); succ follows the unique oriented girth cycle one
    step; trans maps a vertex to its reversal; digraph combines succ arcs
    with both directions of every transposition pair.  index maps each
    arc back to its vertex and under is the underlying graph of digraph;
    both are built once with the separator and kept outside ==, hash
    and repr.
    """

    girth: int
    arcs: tuple[tuple[int, ...], ...]
    succ: tuple[int, ...]
    trans: tuple[int, ...]
    digraph: Digraph
    oriented_cycle_count: int
    index: dict[tuple[int, ...], int] = field(compare=False, repr=False)
    under: Graph = field(compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.arcs)

    def arc_label(self, v: int, table=None) -> str:
        """The arc's vertices joined by spaces: their labels in table,
        else their ids."""
        return " ".join(str(x) if table is None else table.to_label[x] for x in self.arcs[v])

    def succ_orbits(self) -> list[tuple[int, ...]]:
        """The oriented girth cycles of the separator, as vertex orbits of
        succ, each starting at its least vertex."""
        return _perm_cycles(self.succ)

    def is_two_in_two_out(self) -> bool:
        """Every vertex of digraph has two out-arcs and two in-arcs."""
        d = self.digraph
        return all(len(o) == 2 and len(i) == 2 for o, i in zip(d.out_adj, d.in_adj()))


def _perm_cycles(f) -> list[tuple[int, ...]]:
    """The cycles of the permutation f of range(len(f)), each starting
    at its least point, in order of those points."""
    seen = [False] * len(f)
    cycles = []
    for start in range(len(f)):
        v, cycle = start, []
        while not seen[v]:
            seen[v] = True
            cycle.append(v)
            v = f[v]
        if cycle:
            cycles.append(tuple(cycle))
    return cycles


class AlternateOrbit(NamedTuple):
    """One closed walk alternating r cycle-arcs with a transposition edge,
    where r is its key in AlternateCensus.orbits.

    walk lists the (r+1)*size vertices visited; simple means no vertex
    repeats, i.e. the walk is a genuine cycle."""

    size: int
    walk: tuple[int, ...]
    simple: bool

    @property
    def length(self) -> int:
        return len(self.walk)


class AlternateCensus(NamedTuple):
    """Orbit decompositions of transposition-after-r-steps, r = 1..max_r."""

    orbits: dict[int, tuple[AlternateOrbit, ...]]

    def simple_cycles(self, r: int) -> list[AlternateOrbit]:
        return [o for o in self.orbits[r] if o.simple]

    def simple_count(self, r: int) -> int:
        return len(self.simple_cycles(r))

    def simple_lengths(self, r: int) -> set[int]:
        return {o.length for o in self.simple_cycles(r)}


class SeparatorSummary(NamedTuple):
    vertices: int
    cycle_arcs: int
    transposition_edges: int
    underlying_edges: int
    oriented_cycles: int
    alternate_simple: dict[int, int]
    alternate_lengths: dict[int, set[int]]


def build_separator(
    g: Graph, cs: CycleSet, k: int, a: OrientationAssignment | OddWitness
) -> SeparatorDigraph:
    """Assemble the separator from an orientation assignment; raises
    GraphError for the odd witness of unsolvable constraints, and unless
    the assignment has one flip per cycle and its oriented cycles
    traverse every (k-1)-arc of g exactly once and nothing else."""
    if isinstance(a, OddWitness):
        raise GraphError(
            "no separator: the orientation constraints are unsolvable"
            f" (odd witness through {len(a.paths)} paths)"
        )
    if len(a.flips) != len(cs):
        raise GraphError(f"{len(a.flips)} flips for {len(cs)} girth cycles")
    arcs = tuple(tuple(x) for x in enumerate_arcs(g, k - 1))
    index = {arc: i for i, arc in enumerate(arcs)}
    succ: list[int | None] = [None] * len(arcs)
    try:
        for cyc in oriented_cycles(cs, a):
            for window in cycle_windows(cyc, k):
                cur = index[window[:k]]
                if succ[cur] is not None:
                    raise GraphError(f"arc {window[:k]} traversed more than once")
                succ[cur] = index[window[1:]]
    except KeyError as exc:
        raise GraphError(f"cycle walk {exc.args[0]} is not an arc of the graph") from None
    if any(s is None for s in succ):
        raise GraphError("some arc is not traversed by any oriented cycle")
    trans = tuple(index[arc[::-1]] for arc in arcs)
    if any(trans[v] == v for v in range(len(arcs))):
        raise GraphError("transposition involution has a fixed point")
    darcs = [(v, succ[v]) for v in range(len(arcs))]
    darcs += [(v, trans[v]) for v in range(len(arcs))]
    digraph = build_digraph(len(arcs), darcs)
    sep = SeparatorDigraph(cs.girth, arcs, tuple(succ), trans, digraph, len(cs), index,
                           underlying(digraph))
    _check_invariants(sep)
    return sep


def _check_invariants(s: SeparatorDigraph) -> None:
    orbits = s.succ_orbits()
    if len(orbits) != s.oriented_cycle_count:
        raise GraphError("wrong number of oriented cycles in the separator")
    if any(len(o) != s.girth for o in orbits):
        raise GraphError("oriented cycle of wrong length in the separator")
    if not s.is_two_in_two_out():
        raise GraphError("separator is not 2-in 2-out regular")
    if not (s.under.is_cubic() and s.under.is_connected()):
        raise GraphError("separator underlying graph is not cubic connected")


def alternate_census(s: SeparatorDigraph, max_r: int = 4) -> AlternateCensus:
    """Orbit decomposition of transposition-after-r-cycle-steps for
    r = 1..max_r, with simple/non-simple classification of each walk."""
    out: dict[int, tuple[AlternateOrbit, ...]] = {}
    step = list(range(s.order))
    for r in range(1, max_r + 1):
        # succ^r, one cycle step on from succ^(r-1)
        step = [s.succ[v] for v in step]
        f = [s.trans[v] for v in step]
        orbits = []
        for cycle_starts in _perm_cycles(f):
            walk = []
            for w in cycle_starts:
                walk.append(w)
                for _ in range(r):
                    w = s.succ[w]
                    walk.append(w)
            simple = len(set(walk)) == len(walk)
            orbits.append(AlternateOrbit(len(cycle_starts), tuple(walk), simple))
        if sum(o.size for o in orbits) != s.order:
            raise GraphError("alternate orbits do not partition the vertex set")
        out[r] = tuple(orbits)
    return AlternateCensus(out)


def separator_summary(s: SeparatorDigraph, census: AlternateCensus) -> SeparatorSummary:
    rs = sorted(census.orbits)
    return SeparatorSummary(
        vertices=s.order,
        cycle_arcs=s.order,
        transposition_edges=s.order // 2,
        underlying_edges=s.under.num_edges(),
        oriented_cycles=s.oriented_cycle_count,
        alternate_simple={r: census.simple_count(r) for r in rs},
        alternate_lengths={r: census.simple_lengths(r) for r in rs},
    )

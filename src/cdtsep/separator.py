"""Separator digraph: vertices are the (k-1)-arcs of the host graph,
arcs follow the oriented girth cycles one step, and each vertex is paired
with its reversal by a transposition edge.

The vertices, their index and trans come from the cycle set's arc table
of length k-1, and succ from its window rows.  The two permutations succ
(one cycle step) and trans (the reversal) determine the separator, so
its degrees, underlying graph and alternate census are read off them per
vertex on integer ids."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .graphs import Graph, GraphError
from .cycles import CycleSet
from .orient import OddWitness, OrientationAssignment

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
    step; trans maps a vertex to its reversal; the two are the digraph,
    whose arcs are v -> succ v and v -> trans v.  index maps each arc
    back to its vertex (it is the index of the cycle set's arc table)
    and under is the underlying graph of the digraph, built once with the
    separator; both are kept outside ==, hash and repr.
    """

    girth: int
    arcs: tuple[tuple[int, ...], ...]
    succ: tuple[int, ...]
    trans: tuple[int, ...]
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
        """Every vertex v has two out-arcs, to succ v and trans v, and two
        in-arcs, counted off succ and trans."""
        indeg = [0] * len(self.succ)
        for w, t in zip(self.succ, self.trans):
            if w == t:
                return False
            indeg[w] += 1
            indeg[t] += 1
        return indeg.count(2) == len(indeg)


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
    GraphError for the odd witness of unsolvable constraints, for a
    cycle set of another graph than g, and unless the assignment has one
    flip per cycle and its oriented cycles traverse every (k-1)-arc of g
    exactly once.

    The arcs, their index and the reversal trans are those of
    cs.arc_table(k-1).  Each cycle's row of window ids is walked once,
    each id followed by the next; a flipped cycle walks the reversals of
    its row backwards.  The underlying graph is built straight from succ
    and trans (see _adjacency), and the separator is checked to be 2-in
    2-out with a cubic connected underlying graph and one succ orbit of
    girth length per cycle."""
    if isinstance(a, OddWitness):
        raise GraphError(
            "no separator: the orientation constraints are unsolvable"
            f" (odd witness through {len(a.paths)} paths)"
        )
    if len(a.flips) != len(cs):
        raise GraphError(f"{len(a.flips)} flips for {len(cs)} girth cycles")
    if g != cs.graph:
        raise GraphError("the girth cycles are not those of this graph")
    t = cs.arc_table(k - 1)
    arcs, trans = t.arcs, t.trans
    # the reversed cycle's window j is the reversal of window s - j
    s = (cs.girth - k) % cs.girth
    succ: list[int | None] = [None] * len(arcs)
    for row, flip in zip(t.rows, a.flips):
        if flip:
            row = [trans[v] for v in row[s::-1] + row[:s:-1]]
        cur = row[-1]
        for nxt in row:
            if succ[cur] is not None:
                raise GraphError(f"arc {arcs[cur]} traversed more than once")
            succ[cur] = nxt
            cur = nxt
    if None in succ:
        raise GraphError("some arc is not traversed by any oriented cycle")
    under = _adjacency(succ, trans)
    sep = SeparatorDigraph(cs.girth, arcs, tuple(succ), trans, len(cs), t.index, under)
    _check_invariants(sep)
    return sep


def _adjacency(succ, trans) -> Graph:
    """The underlying graph of the digraph with out-neighbors {succ v,
    trans v} of each vertex v: the neighbors of v are {pred v, succ v,
    trans v} for pred the inverse of succ, since the in-neighbors of v
    are pred v and the vertex whose reversal it is, trans v.  succ must
    be a permutation and trans an involution.  Each row is the sorted
    set, so succ v == trans v or pred v == trans v leaves v two neighbors."""
    n = len(succ)
    pred = [0] * n
    for v, w in enumerate(succ):
        pred[w] = v
    out = [(w, t) if w < t else (t, w) if t < w else (w,) for w, t in zip(succ, trans)]
    # pred v put into the sorted set out[v]
    return Graph(n, tuple([
        (p, *o) if p < o[0] else (*o, p) if p > o[-1] else o if p in o else (o[0], p, o[1])
        for p, o in zip(pred, out)
    ]))


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
    r = 1..max_r, with simple/non-simple classification of each walk.

    succ^r is one map over succ^(r-1), and f = trans o succ^r one more.
    Each orbit of f is walked once, and its walk is the concatenation of
    the rows (w, succ w, ..., succ^r w) of its members w, taken from the
    power tuples zipped."""
    n = s.order
    out: dict[int, tuple[AlternateOrbit, ...]] = {}
    # powers[j] is succ^j as a tuple, powers[0] the identity
    powers = [tuple(range(n))]
    for r in range(1, max_r + 1):
        # succ^r, one cycle step on from succ^(r-1), and f = trans o succ^r
        powers.append(tuple(map(s.succ.__getitem__, powers[-1])))
        f = tuple(map(s.trans.__getitem__, powers[-1]))
        # steps[w] = (w, succ w, ..., succ^r w): the walk from w up to f(w)
        steps = list(zip(*powers))
        seen = [False] * n
        orbits = []
        for start in range(n):
            if seen[start]:
                continue
            w, walk, size = start, [], 0
            while not seen[w]:
                seen[w] = True
                walk += steps[w]
                size += 1
                w = f[w]
            walk = tuple(walk)
            orbits.append(AlternateOrbit(size, walk, len(set(walk)) == len(walk)))
        if sum(o.size for o in orbits) != n:
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

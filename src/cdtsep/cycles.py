"""Girth cycles from one layered BFS per root, canonical forms, the
(k-1)-arc table that the fastening profile, the constraints and the
separator share, with the cycles' windows read onto it, cycles_through,
which reads the girth cycles alone, and the uniform path-sharing
profile."""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import NamedTuple

from .graphs import Graph, GraphError, distances, enumerate_arcs, girth

__all__ = [
    "ConstraintError",
    "canonical_cycle",
    "cycle_windows",
    "ArcTable",
    "CycleSet",
    "FasteningProfile",
    "enumerate_girth_cycles",
    "cycles_through",
    "path_key",
    "unordered_paths",
    "fastening_profile",
]


class ConstraintError(ValueError):
    """Input does not satisfy the two-cycles-per-path precondition."""


def canonical_cycle(seq) -> tuple[int, ...]:
    """Lexicographically least form among all rotations and reflections."""
    seq = tuple(seq)
    n = len(seq)
    best = None
    for s in (seq, seq[::-1]):
        for i in range(n):
            cand = s[i:] + s[:i]
            if best is None or cand < best:
                best = cand
    return best


def cycle_windows(cyc: tuple[int, ...], length: int) -> list[tuple[int, ...]]:
    """The walks of the given length (in edges) along the closed cycle
    cyc, one from each position, as slices of cyc wrapped round far
    enough for every window to fit."""
    reps, rest = divmod(length, len(cyc))
    ext = cyc * (reps + 1) + cyc[:rest]
    return [ext[i : i + length + 1] for i in range(len(cyc))]


def path_key(seq) -> tuple[int, ...]:
    """Canonical (smaller-endpoint-first) form of an undirected path."""
    seq = tuple(seq)
    rev = seq[::-1]
    return seq if seq <= rev else rev


class ArcTable(NamedTuple):
    """The non-backtracking walks of one length L >= 1 of a cycle set's
    graph, with its girth cycles read onto them (see CycleSet.arc_table).

    arcs lists the walks, each L+1 vertices, in lexicographic order; a
    walk's position there is its id, and index maps the walk to it.
    trans[a] is the id of the reversal of walk a, an involution without
    fixed points.  rows[c] lists the ids of the windows of cycle c, in
    the order of cycle_windows(cycles[c], L).  hits maps the key id of
    each walk that is a window of some girth cycle, either way round, to
    the (cycle id, direction) pairs of those windows in cycle order.  The
    key id is the lesser of the walk's two ids, that of its path_key,
    and the direction is +1 when the window is the key walk itself.
    Below the girth every walk is a simple path.
    runs[l - 1][j], for l = 1..L-1, is the number of (l+1)-walks that
    extend the l-walk j (of the lexicographic order) by one vertex; they
    are consecutive in the order of the (l+1)-walks.
    """

    arcs: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]
    trans: tuple[int, ...]
    rows: tuple[list[int], ...]
    hits: dict[int, list[tuple[int, int]]]
    runs: tuple[list[int], ...]


class CycleSet:
    """All girth cycles of a graph in canonical form, sorted, with one
    lazy arc table per walk length, which every reader of that length
    shares."""

    __slots__ = ("graph", "girth", "cycles", "_tables")

    def __init__(self, graph: Graph, girth: int, cycles: tuple[tuple[int, ...], ...]):
        self.graph, self.girth, self.cycles = graph, girth, cycles
        self._tables: dict[int, ArcTable] = {}

    def __len__(self) -> int:
        return len(self.cycles)

    def arc_table(self, length: int) -> ArcTable:
        """The ArcTable of the walks of the given length, built on first
        use and kept.  Raises GraphError for a length below 1."""
        if length not in self._tables:
            self._tables[length] = _arc_table(self.graph, self.girth, self.cycles, length)
        return self._tables[length]


def _arc_table(g: Graph, glen: int, cycles, length: int) -> ArcTable:
    """Each level of walks is the level below extended at its end, walk
    by walk, so the levels stay in lexicographic order.  The windows of
    each cycle are zipped from the rows ext[j : j + girth], j = 0..L, of
    the cycle wrapped round far enough for every window to fit (window i
    is column i), and each is looked up in the index once."""
    if length < 1:
        raise GraphError("arc length must be >= 1")
    adj = g.adj
    runs = []
    walks = [(u, v) for u in range(g.order) for v in adj[u]]
    for _ in range(length - 1):
        runs.append([len(adj[w[-1]]) - 1 for w in walks])
        walks = [w + (x,) for w in walks for x in adj[w[-1]] if x != w[-2]]
    arcs = tuple(walks)
    index = {arc: i for i, arc in enumerate(arcs)}
    trans = tuple([index[arc[::-1]] for arc in arcs])
    reps, rest = divmod(length, glen)
    rows = []
    hits: dict[int, list[tuple[int, int]]] = {}
    for cid, cyc in enumerate(cycles):
        ext = cyc * (reps + 1) + cyc[:rest]
        row = [index[w] for w in zip(*[ext[j : j + glen] for j in range(length + 1)])]
        rows.append(row)
        fwd, bwd = (cid, 1), (cid, -1)
        for a in row:
            b = trans[a]
            if a < b:
                hits.setdefault(a, []).append(fwd)
            else:
                hits.setdefault(b, []).append(bwd)
    return ArcTable(arcs, index, trans, tuple(rows), hits, tuple(runs))


class FasteningProfile(NamedTuple):
    """Per-level counts of girth cycles through each path.

    levels[i] is a Counter mapping (cycles through a path of length
    k-1-i) -> (number of such paths), paths in no girth cycle included.
    Level 0 is read off the hits of the arc table of length k-1; each
    level below it is summed from the level above, as fastening_profile
    describes.  uniform is true when level i is concentrated on 2**(i+1)
    for every i.
    """

    levels: dict[int, Counter]
    uniform: bool


def enumerate_girth_cycles(g: Graph) -> CycleSet:
    """Every simple cycle of minimum length, each once in canonical form.

    One BFS per root r over the vertices above r, to depth m = g // 2
    for girth g, each vertex keeping its path from r, which is its
    parent chain.  A girth cycle whose least vertex is r lies in that
    subgraph, and each of its vertices at cycle distance d <= m from r
    is at depth d there: a shorter path would close, with the cycle's
    own arc, a cycle of fewer than 2d <= g edges.  For the same reason
    a vertex of depth d with 2d < g, as at every depth the BFS keeps,
    has only one shortest path from r.  So for even g each pair of
    depth-(m - 1) neighbours a, b of a depth-m vertex v closes the cycle
    r..a, v, b..r, and for odd g each edge u < w between two depth-m
    vertices closes the cycle r..u, w..r.
    The two chains meet only at r, since a later common vertex would
    close a cycle shorter than g, so each is a girth cycle; and each
    girth cycle with least vertex r is closed exactly once, at its
    vertex or edge opposite r.  Reversed when cyc[1] > cyc[-1], the
    cycle is in canonical form.

    Raises GraphError on acyclic or disconnected input.
    """
    glen = girth(g)
    distances(g)  # raises GraphError on disconnected input
    half, odd = divmod(glen, 2)
    adj, n = g.adj, g.order
    found: list[tuple[int, ...]] = []
    for root in range(n):
        # path[v]: the path root..v, None until v is reached
        path: list[tuple[int, ...] | None] = [None] * n
        path[root] = (root,)
        layer = [root]
        # the layers to depth m - 1, or to depth m when the girth is odd
        for _ in range(half - 1 + odd):
            below = []
            for u in layer:
                pu = path[u]
                for v in adj[u]:
                    if v > root and path[v] is None:
                        path[v] = pu + (v,)
                        below.append(v)
            layer = below
        if odd:
            top = set(layer)
            for u in layer:
                for w in adj[u]:
                    if w > u and w in top:
                        cyc = path[u] + path[w][:0:-1]
                        found.append(cyc if cyc[1] < cyc[-1] else (root,) + cyc[:0:-1])
            continue
        # meets[v]: the depth-(m - 1) neighbours of the depth-m vertex v
        meets: dict[int, list[int]] = {}
        for u in layer:
            for v in adj[u]:
                if v > root and path[v] is None:
                    meets.setdefault(v, []).append(u)
        for v, ends in meets.items():
            for i, a in enumerate(ends):
                pa = path[a] + (v,)
                for b in ends[i + 1 :]:
                    cyc = pa + path[b][:0:-1]
                    found.append(cyc if cyc[1] < cyc[-1] else (root,) + cyc[:0:-1])
    return CycleSet(g, glen, tuple(sorted(found)))


def cycles_through(cs: CycleSet, p) -> list[tuple[int, int]]:
    """All cycles containing the path p, with traversal direction, in
    cycle order.

    Each cycle through p's first vertex is read from there both ways
    round, at every length, so the answer rests on the girth cycles
    alone, and not on the arc tables that the constraints read.  p is a
    vertex sequence forming a simple path of the host graph; one of
    girth or more edges lies in no girth cycle.  Raises GraphError when
    p is not a path on the vertices 0..n-1.
    """
    p = tuple(p)
    n = cs.graph.order
    if len(set(p)) != len(p) or len(p) < 2:
        raise GraphError(f"{p} is not a simple path")
    # has_edge indexes the adjacency list, where -1 is the last vertex
    if min(p) < 0 or max(p) >= n:
        raise GraphError(f"{p} is not a path on the vertices 0..{n - 1}")
    for a, b in zip(p, p[1:]):
        if not cs.graph.has_edge(a, b):
            raise GraphError(f"{p} is not a path: missing edge ({a}, {b})")
    head, m = p[0], len(p)
    out = []
    for cid, cyc in enumerate(cs.cycles):
        if head in cyc:
            i = cyc.index(head)
            ring = cyc[i:] + cyc[:i] + (head,)
            if ring[:m] == p:
                out.append((cid, 1))
            elif ring[: -m - 1 : -1] == p:
                out.append((cid, -1))
    return out


def unordered_paths(g: Graph, length: int) -> list[tuple[int, ...]]:
    """All simple paths of the given length, one orientation each."""
    return [arc for arc in enumerate_arcs(g, length)
            if len(set(arc)) == len(arc) and arc == path_key(arc)]


def fastening_profile(g: Graph, cs: CycleSet, k: int) -> FasteningProfile:
    """How many girth cycles share each simple path of length k-1-i, for
    i = 0..k-2; uniform when the level-i count is always 2**(i+1).

    Only the top level reads the girth cycles, through the hits of the
    arc table of length k-1, which gives both directions of each path
    its count.  Each level below is summed from the one above on walk
    ids: a girth cycle through a directed path p shorter than girth-1
    leaves p's last vertex by exactly one edge (p[-1], v), and p + (v,)
    is a directed path one edge longer that lies in the same cycle.  So
    p lies in as many girth cycles as the paths one edge longer that
    begin with it, summed, and those are the run of p in the table's
    runs.  A path in no girth cycle counts 0, so halving the
    multiplicities of a level's counts gives the undirected level, zeros
    included.  Raises GraphError when cs holds the cycles of another
    graph than g, whose walks the table would not list.

    All of this needs k-1 < girth: then every walk of length at most k-1
    without backtracking is a simple path, and every level below the top
    is shorter than girth-1.  Tutte's bound girth >= 2k-2 gives that to
    every cubic k-arc-transitive graph with k >= 2; for k-1 >= girth it
    raises ConstraintError.
    """
    if g != cs.graph:
        raise GraphError("the girth cycles are not those of this graph")
    if k - 1 >= cs.girth:
        raise ConstraintError(f"paths of length {k - 1} are not shorter than the girth {cs.girth}")
    if k < 2:
        return FasteningProfile({}, True)
    t = cs.arc_table(k - 1)
    counts = [0] * len(t.arcs)  # walk id -> girth cycles through it
    for key, hits in t.hits.items():
        counts[key] = counts[t.trans[key]] = len(hits)
    levels: dict[int, Counter] = {}
    for i in range(k - 1):
        if i:
            walks = iter(counts)
            counts = [sum(islice(walks, run)) for run in t.runs[k - 2 - i]]
        levels[i] = Counter({c: m // 2 for c, m in Counter(counts).items()})
    return FasteningProfile(levels, all(set(levels[i]) == {2 ** (i + 1)} for i in levels))

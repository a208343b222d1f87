"""Girth cycles from one layered BFS per root, canonical forms, path
indexes read off zipped cycle windows, and the uniform path-sharing
profile."""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .graphs import Graph, GraphError, distances, enumerate_arcs, girth

__all__ = [
    "ConstraintError",
    "canonical_cycle",
    "cycle_windows",
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


class CycleSet:
    """All girth cycles of a graph in canonical form, sorted, with lazy
    indexes from path keys to the cycles containing them."""

    __slots__ = ("graph", "girth", "cycles", "_indexes")

    def __init__(self, graph: Graph, girth: int, cycles: tuple[tuple[int, ...], ...]):
        self.graph, self.girth, self.cycles = graph, girth, cycles
        self._indexes: dict[int, dict[tuple[int, ...], list[tuple[int, int]]]] = {}

    def __len__(self) -> int:
        return len(self.cycles)

    def path_index(self, length: int) -> dict[tuple[int, ...], list[tuple[int, int]]]:
        """Map from canonical path key (length+1 vertices) to the list of
        (cycle id, direction) pairs whose cycle contains the path;
        direction is +1 when the cycle traverses the key order forward."""
        if length not in self._indexes:
            index: dict[tuple[int, ...], list[tuple[int, int]]] = {}
            n = self.girth
            reps, rest = divmod(length, n)
            for cid, cyc in enumerate(self.cycles):
                # the window from position i is column i of the rows
                # ext[j : j + n], j = 0..length, as in cycle_windows
                ext = cyc * (reps + 1) + cyc[:rest]
                fwd, bwd = (cid, 1), (cid, -1)
                for window in zip(*[ext[j : j + n] for j in range(length + 1)]):
                    # a window of length >= girth repeats vertices, so
                    # its two ends alone do not settle the key
                    rev = window[::-1]
                    if window <= rev:
                        index.setdefault(window, []).append(fwd)
                    else:
                        index.setdefault(rev, []).append(bwd)
            self._indexes[length] = index
        return self._indexes[length]


class FasteningProfile(NamedTuple):
    """Per-level counts of girth cycles through each path.

    levels[i] is a Counter mapping (cycles through a path of length
    k-1-i) -> (number of such paths), paths in no girth cycle included.
    Level 0 is read off the path index of length k-1; each level below
    it is summed from the level above, as fastening_profile describes.
    uniform is true when level i is concentrated on 2**(i+1) for every i.
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
    """All cycles containing the path p, with traversal direction.

    p is a vertex sequence forming a simple path of the host graph.
    Raises GraphError when p is not a path.
    """
    p = tuple(p)
    if len(set(p)) != len(p) or len(p) < 2:
        raise GraphError(f"{p} is not a simple path")
    for a, b in zip(p, p[1:]):
        if not cs.graph.has_edge(a, b):
            raise GraphError(f"{p} is not a path: missing edge ({a}, {b})")
    key = path_key(p)
    flip = 1 if key == p else -1
    hits = cs.path_index(len(p) - 1).get(key, [])
    return sorted((cid, d * flip) for cid, d in hits)


def unordered_paths(g: Graph, length: int) -> list[tuple[int, ...]]:
    """All simple paths of the given length, one orientation each."""
    return [arc for arc in enumerate_arcs(g, length)
            if len(set(arc)) == len(arc) and arc == path_key(arc)]


def _path_counts(g: Graph, length: int) -> list[int]:
    """Entry l is the number of unordered non-backtracking walks of
    length l, for l = 0..length.  For 1 <= l < girth every such walk is
    a simple path, so entry l then counts the simple paths of length l.
    """
    deg = [len(a) for a in g.adj]
    # older[v], old[v], new[v]: walks of length l-2, l-1, l from v
    older, old = [], [1] * g.order
    counts = [g.order]
    for l in range(1, length + 1):
        # a step to a neighbor w and a walk of length l-1 from w, less
        # those that step straight back to v: each is a walk of length
        # l-2 from v, entered from any neighbor but its own next vertex
        new = [sum(old[w] for w in a) for a in g.adj]
        if l > 1:
            back = 1 if l > 2 else 0
            new = [x - (d - back) * y for x, d, y in zip(new, deg, older)]
        older, old = old, new
        counts.append(sum(new) // 2)
    return counts


def fastening_profile(g: Graph, cs: CycleSet, k: int) -> FasteningProfile:
    """How many girth cycles share each simple path of length k-1-i, for
    i = 0..k-2; uniform when the level-i count is always 2**(i+1).

    Only the top level reads the girth cycles, through the path index of
    length k-1.  Each level below is summed from the one above: a girth
    cycle through a directed path p shorter than girth-1 reaches p's
    first vertex by exactly one edge (v, p[0]), and (v,) + p is a
    directed path one edge longer that lies in the same cycle.  So p lies
    in as many girth cycles as the paths one edge longer that end in it,
    summed.  Every level keeps both directions of each path, with equal
    counts, so halving the multiplicities gives the undirected level.
    The simple paths missing from a level lie in no girth cycle; their
    number is the level's path count less the paths it holds.

    All of this needs k-1 < girth: then every walk of length at most k-1
    without backtracking is a simple path, and every level below the top
    is shorter than girth-1.  Tutte's bound girth >= 2k-2 gives that to
    every cubic k-arc-transitive graph with k >= 2; for k-1 >= girth it
    raises ConstraintError.
    """
    if k - 1 >= cs.girth:
        raise ConstraintError(f"paths of length {k - 1} are not shorter than the girth {cs.girth}")
    paths = _path_counts(g, k - 1)
    levels: dict[int, Counter] = {}
    uniform = True
    counts: dict[tuple[int, ...], int] = {}  # directed path -> girth cycles through it
    for i in range(k - 1):
        length = k - 1 - i
        if i == 0:
            for key, hits in cs.path_index(length).items():
                counts[key] = counts[key[::-1]] = len(hits)
        else:
            lower: dict[tuple[int, ...], int] = {}
            for p, c in counts.items():
                q = p[1:]
                lower[q] = lower.get(q, 0) + c
            counts = lower
        counter = Counter({c: m // 2 for c, m in Counter(counts.values()).items()})
        if paths[length] > len(counts) // 2:
            counter[0] = paths[length] - len(counts) // 2
        levels[i] = counter
        if set(counter) != {2 ** (i + 1)}:
            uniform = False
    return FasteningProfile(levels, uniform)

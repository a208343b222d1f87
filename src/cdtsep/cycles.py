"""Girth-cycle enumeration, canonical forms, path indexing and the
uniform path-sharing profile."""

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
            for cid, cyc in enumerate(self.cycles):
                for window in cycle_windows(cyc, length):
                    rev = window[::-1]
                    if window <= rev:
                        index.setdefault(window, []).append((cid, 1))
                    else:
                        index.setdefault(rev, []).append((cid, -1))
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

    DFS from each root vertex, pruned by exact distances back to the
    root, so the whole search stays shallow at catalog scale.
    """
    glen = girth(g)
    dist = distances(g).dist
    found: list[tuple[int, ...]] = []
    for root in range(g.order):
        # paths root -> ... with all interior vertices > root; a closing
        # edge back to root meets each cycle in both directions, and
        # path[1] < path[-1] keeps the one that is already canonical
        stack = [(root, v) for v in g.adj[root] if v > root]
        while stack:
            path = stack.pop()
            if len(path) == glen:
                if path[1] < path[-1] and g.has_edge(path[-1], root):
                    found.append(path)
                continue
            last = path[-1]
            # adding nxt uses len(path) edges; the rest must reach root
            for nxt in g.adj[last]:
                if nxt <= root or nxt in path:
                    continue
                if dist[nxt][root] > glen - len(path):
                    continue
                stack.append(path + (nxt,))
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

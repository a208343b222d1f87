"""Girth-cycle enumeration, canonical forms, path indexing and the
uniform path-sharing profile."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .graphs import Graph, GraphError, distances, enumerate_arcs, girth

__all__ = [
    "canonical_cycle",
    "CycleSet",
    "FasteningProfile",
    "enumerate_girth_cycles",
    "cycles_through",
    "path_key",
    "unordered_paths",
    "fastening_profile",
]


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


def path_key(seq) -> tuple[int, ...]:
    """Canonical (smaller-endpoint-first) form of an undirected path."""
    seq = tuple(seq)
    rev = seq[::-1]
    return seq if seq <= rev else rev


@dataclass
class CycleSet:
    """All girth cycles of a graph in canonical form, sorted, with lazy
    indexes from path keys to the cycles containing them."""

    graph: Graph
    girth: int
    cycles: tuple[tuple[int, ...], ...]
    _indexes: dict[int, dict[tuple[int, ...], list[tuple[int, int]]]] = field(
        default_factory=dict, repr=False
    )

    def __len__(self) -> int:
        return len(self.cycles)

    def path_index(self, length: int) -> dict[tuple[int, ...], list[tuple[int, int]]]:
        """Map from canonical path key (length+1 vertices) to the list of
        (cycle id, direction) pairs whose cycle contains the path;
        direction is +1 when the cycle traverses the key order forward."""
        if length not in self._indexes:
            index: dict[tuple[int, ...], list[tuple[int, int]]] = {}
            g = self.girth
            for cid, cyc in enumerate(self.cycles):
                for i in range(g):
                    window = tuple(cyc[(i + j) % g] for j in range(length + 1))
                    key = path_key(window)
                    direction = 1 if window == key else -1
                    index.setdefault(key, []).append((cid, direction))
            self._indexes[length] = index
        return self._indexes[length]


@dataclass(frozen=True)
class FasteningProfile:
    """Per-level counts of girth cycles through each path.

    levels[i] is a Counter mapping (cycles through a path of length
    k-1-i) -> (number of such paths).  uniform is true when level i is
    concentrated on 2**(i+1) for every i.
    """

    k: int
    levels: dict[int, Counter]
    uniform: bool


def enumerate_girth_cycles(g: Graph) -> CycleSet:
    """Every simple cycle of minimum length, each once in canonical form.

    DFS from each root vertex, pruned by exact distances back to the
    root, so the whole search stays shallow at catalog scale.
    """
    glen = girth(g)
    dist = distances(g).dist
    found: set[tuple[int, ...]] = set()
    for root in range(g.order):
        # paths root -> ... with all interior vertices > root; closing
        # edge back to root yields each cycle twice, deduped by direction
        stack = [(root, v) for v in g.adj[root] if v > root]
        while stack:
            path = stack.pop()
            if len(path) == glen:
                if g.has_edge(path[-1], root):
                    found.add(canonical_cycle(path))
                continue
            last = path[-1]
            # adding nxt uses len(path) edges; the rest must reach root
            for nxt in g.adj[last]:
                if nxt <= root or nxt in path:
                    continue
                if dist[nxt][root] > glen - len(path):
                    continue
                stack.append(path + (nxt,))
    cycles = tuple(sorted(found))
    return CycleSet(g, glen, cycles)


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
    out = []
    for arc in enumerate_arcs(g, length):
        if len(set(arc)) == len(arc) and arc == path_key(arc):
            out.append(arc)
    return out


def fastening_profile(g: Graph, cs: CycleSet, k: int) -> FasteningProfile:
    """How many girth cycles share each path of length k-1-i, for
    i = 0..k-2; uniform when the level-i count is always 2**(i+1)."""
    levels: dict[int, Counter] = {}
    uniform = True
    for i in range(k - 1):
        length = k - 1 - i
        index = cs.path_index(length)
        counter: Counter = Counter()
        for p in unordered_paths(g, length):
            counter[len(index.get(p, []))] += 1
        levels[i] = counter
        if set(counter) != {2 ** (i + 1)}:
            uniform = False
    return FasteningProfile(k, levels, uniform)

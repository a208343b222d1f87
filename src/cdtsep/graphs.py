"""Core undirected/directed graph types and elementary metrics.

Vertices are dense integers 0..order-1.  All structures are immutable
after construction and every function here is pure, so shared instances
are safe to use concurrently.  A Graph computes its distance table and
its girth on first use and keeps them.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "GraphError",
    "Graph",
    "Digraph",
    "DistanceTable",
    "build_graph",
    "build_digraph",
    "underlying",
    "distances",
    "girth",
    "enumerate_arcs",
    "ParityColoring",
    "parity_coloring",
    "is_bipartite",
    "is_hamiltonian",
    "is_planar",
]


class GraphError(ValueError):
    """Structurally invalid graph input (bad endpoint, loop, duplicate)."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with sorted per-vertex neighbor lists.

    The all-pairs distance table and the girth are each computed by one
    all-roots BFS sweep, on the first call of distances() or girth(),
    and kept on the instance outside the dataclass fields, so ==, hash
    and repr see only order and adj.  A sweep that raises keeps nothing
    and raises again on the next call.
    """

    order: int
    adj: tuple[tuple[int, ...], ...]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        return [(u, v) for u in range(self.order) for v in self.adj[u] if u < v]

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def is_cubic(self) -> bool:
        return all(len(a) == 3 for a in self.adj)

    def is_connected(self) -> bool:
        return self.order == 0 or -1 not in _bfs_dist(self.adj, 0, self.order)

    @cached_property
    def _distances(self) -> DistanceTable:
        return _distance_sweep(self)

    @cached_property
    def _girth(self) -> int:
        return _girth_sweep(self)


@dataclass(frozen=True)
class Digraph:
    """Simple directed graph; arcs have no duplicates and no loops."""

    order: int
    out_adj: tuple[tuple[int, ...], ...]

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.order) for v in self.out_adj[u]]

    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.order)]
        for u, v in self.arcs():
            inc[v].append(u)
        return tuple(tuple(sorted(a)) for a in inc)

    def has_arc(self, u: int, v: int) -> bool:
        return v in self.out_adj[u]


@dataclass(frozen=True)
class DistanceTable:
    """All-pairs hop distances of a connected graph."""

    dist: tuple[tuple[int, ...], ...]
    diameter: int


def build_graph(order: int, edges) -> Graph:
    """Build a validated Graph from an edge list.

    Raises GraphError on out-of-range endpoints, self-loops or
    duplicate edges.
    """
    adj: list[set[int]] = [set() for _ in range(order)]
    for u, v in edges:
        if not (0 <= u < order and 0 <= v < order):
            raise GraphError(f"endpoint out of range: ({u}, {v}) with order {order}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if v in adj[u]:
            raise GraphError(f"duplicate edge ({u}, {v})")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(order, tuple(tuple(sorted(a)) for a in adj))


def build_digraph(order: int, arcs) -> Digraph:
    """Build a validated Digraph from an arc list."""
    out: list[set[int]] = [set() for _ in range(order)]
    for u, v in arcs:
        if not (0 <= u < order and 0 <= v < order):
            raise GraphError(f"endpoint out of range: ({u}, {v}) with order {order}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if v in out[u]:
            raise GraphError(f"duplicate arc ({u}, {v})")
        out[u].add(v)
    return Digraph(order, tuple(tuple(sorted(a)) for a in out))


def underlying(d: Digraph) -> Graph:
    """Forget orientation; oppositely oriented arc pairs merge into one edge."""
    edges = {(min(u, v), max(u, v)) for u, v in d.arcs()}
    adj: list[set[int]] = [set() for _ in range(d.order)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return Graph(d.order, tuple(tuple(sorted(a)) for a in adj))


def _bfs_dist(adj, root: int, n: int) -> list[int]:
    dist = [-1] * n
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def distances(g: Graph) -> DistanceTable:
    """BFS-exact all-pairs distances, computed once per Graph; raises
    GraphError when disconnected."""
    return g._distances


def _distance_sweep(g: Graph) -> DistanceTable:
    rows = []
    for root in range(g.order):
        row = _bfs_dist(g.adj, root, g.order)
        if -1 in row:
            raise GraphError(
                f"graph is disconnected: no path from {root} to {row.index(-1)}"
            )
        rows.append(tuple(row))
    diameter = max(max(r) for r in rows) if g.order else 0
    return DistanceTable(tuple(rows), diameter)


def girth(g: Graph) -> int:
    """Length of a shortest cycle, by BFS from every vertex, computed
    once per Graph.

    Raises GraphError on acyclic input.
    """
    return g._girth


def _girth_sweep(g: Graph) -> int:
    best = g.order + 1
    for root in range(g.order):
        dist = [-1] * g.order
        parent = [-1] * g.order
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best:
                break
            for v in g.adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u] and parent[v] != u:
                    best = min(best, dist[u] + dist[v] + 1)
    if best > g.order:
        raise GraphError("graph is acyclic; girth undefined")
    return best


def enumerate_arcs(g: Graph, length: int) -> list[tuple[int, ...]]:
    """All directed non-backtracking walks of a given length.

    Each walk is a tuple of length+1 vertices; output is in lexicographic
    order of the vertex sequences.  For a cubic graph there are exactly
    3 * order * 2**(length-1) of them.
    """
    if length < 1:
        raise GraphError("arc length must be >= 1")
    out: list[tuple[int, ...]] = []
    stack: list[tuple[int, ...]] = [
        (u, v) for u in range(g.order) for v in g.adj[u]
    ]
    stack.reverse()
    while stack:
        walk = stack.pop()
        if len(walk) == length + 1:
            out.append(walk)
            continue
        prev, cur = walk[-2], walk[-1]
        for nxt in reversed(g.adj[cur]):
            if nxt != prev:
                stack.append(walk + (nxt,))
    return out


@dataclass(frozen=True)
class ParityColoring:
    """Outcome of parity_coloring.  When odd_walk is None, bits holds one
    bit per node and components counts the connected components.
    Otherwise bits is empty, components is 0, and odd_walk lists the
    constraint indices of a closed walk whose differ flags sum to odd:
    it starts and ends at the second node of its last constraint."""

    bits: tuple[bool, ...]
    components: int
    odd_walk: tuple[int, ...] | None = None


def parity_coloring(n: int, constraints) -> ParityColoring:
    """Give nodes 0..n-1 bits so that the two nodes of each constraint
    (a, b, differ, ...) get unequal bits exactly when differ is true.

    BFS from the least node of each component, which gets bit 0, so the
    bits are the unique solution pinning those nodes.  On the first
    constraint whose bits clash, the odd walk is the BFS-tree path from
    its b up to the lowest common ancestor, down to its a, closed by the
    clashing constraint itself.
    """
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, c in enumerate(constraints):
        incident[c[0]].append(i)
        incident[c[1]].append(i)
    bit = [-1] * n
    tree = [-1] * n  # index of the constraint that coloured each node
    depth = [0] * n
    components = 0
    for root in range(n):
        if bit[root] >= 0:
            continue
        components += 1
        bit[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for i in incident[u]:
                a, b, differ = constraints[i][:3]
                v = b if a == u else a
                want = bit[u] ^ differ
                if bit[v] < 0:
                    bit[v], tree[v], depth[v] = want, i, depth[u] + 1
                    queue.append(v)
                elif bit[v] != want:
                    return ParityColoring((), 0, _odd_walk(constraints, tree, depth, i))
    return ParityColoring(tuple(map(bool, bit)), components)


def _odd_walk(constraints, tree, depth, clash: int) -> tuple[int, ...]:
    """Tree path from b up to the lowest common ancestor and down to a,
    then the clashing constraint (a, b, ...)."""
    a, b = constraints[clash][:2]
    up_from_a: list[int] = []
    up_from_b: list[int] = []

    def climb(node: int, steps: list[int]) -> int:
        steps.append(tree[node])
        x, y = constraints[tree[node]][:2]
        return y if x == node else x

    while depth[a] > depth[b]:
        a = climb(a, up_from_a)
    while depth[b] > depth[a]:
        b = climb(b, up_from_b)
    while a != b:
        a = climb(a, up_from_a)
        b = climb(b, up_from_b)
    return tuple(up_from_b + up_from_a[::-1] + [clash])


def is_bipartite(g: Graph) -> bool:
    """2-coloring existence: the parity coloring with every edge a
    differ constraint."""
    edges = [(u, v, True) for u, v in g.edges()]
    return parity_coloring(g.order, edges).odd_walk is None


def is_hamiltonian(g: Graph, budget: float = 60.0) -> bool | None:
    """Backtracking Hamilton-cycle search with degree pruning.

    Returns True/False, or None when the time budget runs out.
    """
    n = g.order
    if n < 3:
        return False
    deadline = time.monotonic() + budget
    adj = [set(a) for a in g.adj]
    start = 0
    path = [start]
    on_path = [False] * n
    on_path[start] = True
    # avail[v]: neighbors of v not yet interior to the path
    avail = [len(a) for a in adj]

    def feasible(vertices) -> bool:
        # every off-path vertex still needs 2 usable incident edges;
        # avail counts the edge back to the start, which was never
        # appended, so only the edge to a later path end is added back
        end = path[-1]
        for v in vertices:
            if on_path[v]:
                continue
            usable = avail[v]
            if end != start and end in adj[v]:
                usable += 1
            if usable < 2:
                return False
        return True

    def retreat() -> None:
        v = path.pop()
        on_path[v] = False
        for w in adj[v]:
            avail[w] += 1

    # choices[i]: the untried successors of path[i]; an explicit stack,
    # so the depth of the search is not bounded by the interpreter's.
    if time.monotonic() > deadline:
        return None
    if not feasible(range(n)):
        return False
    choices = [iter(sorted(adj[start]))]
    while choices:
        for v in choices[-1]:
            if not on_path[v]:
                break
        else:
            choices.pop()
            if choices:
                retreat()
            continue
        path.append(v)
        on_path[v] = True
        for w in adj[v]:
            avail[w] -= 1
        # only the neighbors of the old and the new end lose usable edges
        if feasible(adj[v] | adj[path[-2]]):
            if time.monotonic() > deadline:
                return None
            if len(path) < n:
                choices.append(iter(sorted(adj[v])))
                continue
            if start in adj[v]:
                return True
        retreat()
    return False


def is_planar(g: Graph) -> bool:
    """Planarity test: Euler's bound for the girth, then networkx's
    linear-time check for the graphs that bound cannot refute."""
    v, e = g.order, g.num_edges()
    # e >= v means a cycle, so the girth c is defined; a planar graph
    # has e(c-2) <= c(v-2), that is c(e-v+2) <= 2e
    if v >= 3 and e >= v and girth(g) * (e - v + 2) > 2 * e:
        return False
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    ok, _ = nx.check_planarity(h)
    return bool(ok)

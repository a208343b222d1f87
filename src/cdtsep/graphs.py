"""Core undirected/directed graph types and elementary metrics.

Vertices are dense integers 0..order-1.  All structures are immutable
after construction and every function here is pure, so shared instances
are safe to use concurrently.  A Graph finds its diameter and its girth
in one sweep on first use and keeps both: the diameter from bitset balls
grown one hop per round, the girth from a BFS above each root cut at
half the best cycle so far.  No all-pairs table is built.
"""

from __future__ import annotations

import time
from collections import deque
from functools import cached_property
from typing import NamedTuple

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


class Graph:
    """Simple undirected graph with sorted per-vertex neighbor lists.

    The diameter and the girth come from one sweep, run on the first
    call of distances() or girth() and kept in the instance __dict__, so
    ==, hash and repr see only order and adj.  A disconnected graph keeps
    no diameter, and an acyclic one no girth: those calls raise every
    time.
    """

    __slots__ = ("order", "adj", "__dict__")

    def __init__(self, order: int, adj: tuple[tuple[int, ...], ...]):
        self.order, self.adj = order, adj

    def __eq__(self, other):
        if other.__class__ is not Graph:
            return NotImplemented
        return self.order == other.order and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.order, self.adj))

    def __repr__(self) -> str:
        return f"Graph(order={self.order!r}, adj={self.adj!r})"

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
    def _sweep(self) -> tuple[DistanceTable | str, int]:
        return _bfs_sweep(self)


class Digraph:
    """Simple directed graph; arcs have no duplicates and no loops."""

    __slots__ = ("order", "out_adj")

    def __init__(self, order: int, out_adj: tuple[tuple[int, ...], ...]):
        self.order, self.out_adj = order, out_adj

    def __eq__(self, other):
        if other.__class__ is not Digraph:
            return NotImplemented
        return self.order == other.order and self.out_adj == other.out_adj

    def __hash__(self) -> int:
        return hash((self.order, self.out_adj))

    def __repr__(self) -> str:
        return f"Digraph(order={self.order!r}, out_adj={self.out_adj!r})"

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.order) for v in self.out_adj[u]]

    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.order)]
        for u, v in self.arcs():
            inc[v].append(u)
        return tuple(tuple(sorted(a)) for a in inc)


class DistanceTable(NamedTuple):
    """Distance facts of a connected graph: its diameter, the largest
    hop distance between two vertices (0 on at most one vertex)."""

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
    adj = [set(out) for out in d.out_adj]
    for u, v in d.arcs():
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
    """The diameter, from the one sweep per Graph; raises GraphError
    when disconnected."""
    table = g._sweep[0]
    if table.__class__ is str:
        raise GraphError(table)
    return table


def girth(g: Graph) -> int:
    """Length of a shortest cycle, from the one sweep per Graph.

    Raises GraphError on acyclic input.
    """
    best = g._sweep[1]
    if best > g.order:
        raise GraphError("graph is acyclic; girth undefined")
    return best


def _bfs_sweep(g: Graph) -> tuple[DistanceTable | str, int]:
    """The DistanceTable with the diameter, or the disconnection message
    naming the least vertex that 0 does not reach, and a girth bound that
    exceeds the order when g is acyclic.

    Diameter: the ball of v starts as v's own bit, and each round ORs in
    the balls of v's neighbours, so after r rounds it holds the vertices
    within r hops of v.  The diameter is the number of rounds until every
    ball is full; a round that changes no ball leaves some pair apart.

    Girth: from each root, a BFS over the vertices above it only.  Each
    reached neighbour v of u other than u's BFS parent closes a walk
    root..u, v..root of dist[u] + dist[v] + 1 edges through a non-tree
    edge, so it holds a cycle at most that long; from a root on a
    shortest cycle the bound is exact (Itai and Rodeh 1978).  The least
    vertex of a shortest cycle sees the whole cycle above it, so it is
    such a root.  A vertex at depth d closes no walk shorter than
    2d + 1 that an earlier vertex did not, so the BFS stops at the first
    vertex with 2d + 1 >= best.
    """
    n, adj = g.order, g.adj
    best = n + 1
    for root in range(n):
        dist = [-1] * n
        parent = dist[:]
        dist[root] = 0
        queue = [root]
        for u in queue:
            du1 = dist[u] + 1
            if 2 * du1 > best:
                break
            pu = parent[u]
            for v in adj[u]:
                if v > root:
                    dv = dist[v]
                    if dv < 0:
                        dist[v], parent[v] = du1, u
                        queue.append(v)
                    elif v != pu and du1 + dv < best:
                        best = du1 + dv
    if not n:
        return DistanceTable(0), best
    full = (1 << n) - 1
    balls = [1 << v for v in range(n)]
    diameter = 0
    while min(balls) != full:
        grown = []
        for ball, a in zip(balls, adj):
            for w in a:
                ball |= balls[w]
            grown.append(ball)
        if grown == balls:
            # the lowest zero bit of vertex 0's ball
            j = ((balls[0] + 1) & ~balls[0]).bit_length() - 1
            return f"graph is disconnected: no path from 0 to {j}", best
        balls = grown
        diameter += 1
    return DistanceTable(diameter), best


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


class ParityColoring(NamedTuple):
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
    """Whether g has a Hamilton cycle: True/False, or None when the time
    budget runs out.  A NaN budget raises ValueError."""
    return _hamilton_search(g, budget)[0]


def _hamilton_search(g: Graph, budget: float) -> tuple[bool | None, tuple[int, ...] | None, int]:
    """Hamilton-cycle search over edge states, with forcing (Vandegriend
    and Culberson 1998).

    Every edge is undecided, in or out, in one state that an undo trail
    restores on backtrack.  The in-edges form vertex-disjoint paths, the
    fragments, and a table maps each fragment end to its other end.
    After every decision these rules run to a fixed point:

    - a vertex with two in-edges puts its other edges out;
    - a vertex with exactly two edges not out puts both in;
    - a vertex with fewer than two edges not out refutes the node;
    - an in-edge that joins the two ends of one fragment closes a
      cycle: one through all n vertices is the answer, and a shorter
      one refutes the node.

    A node branches at a fragment end x over its undecided edges
    e_1..e_r: child j puts e_1..e_{j-1} out and e_j in.  x has one
    in-edge, so a Hamilton cycle that extends the node uses exactly one
    e_j, and the child for the first one it uses contains it.  While no
    fragment exists, a vertex with no in-edge is split the same way, by
    the first of its edges the cycle uses.  So the children partition
    the node's cycles and the search is complete.  It runs on an
    explicit stack, and the deadline is checked at every node.

    Returns the answer (True/False, or None when the time budget runs
    out), the Hamilton cycle as a vertex sequence when the answer is True
    (else None), and the number of nodes searched below the root.  A NaN
    budget raises ValueError.
    """
    if budget != budget:
        raise ValueError("budget must be a number of seconds, not NaN")
    n = g.order
    if n < 3:
        return False, None, 0
    deadline = time.monotonic() + budget
    if time.monotonic() >= deadline:
        return None, None, 0
    UNDECIDED, IN, OUT = 0, 1, 2
    head, tail = [], []
    inc: list[list[int]] = [[] for _ in range(n)]  # edge ids at each vertex
    for u, v in g.edges():
        inc[u].append(len(head))
        inc[v].append(len(head))
        head.append(u)
        tail.append(v)
    state = [UNDECIDED] * len(head)
    free = [len(a) for a in g.adj]  # edges not out, at each vertex
    used = [0] * n  # in-edges at each vertex
    ends: dict[int, int] = {}  # fragment end -> its other end
    placed = 0  # in-edges
    # trail: e for an edge put out; a, b, ~e for an edge e put in that
    # made a and b the ends of one fragment
    trail: list[int] = []
    queue: list[int] = list(range(n))  # vertices whose counts changed

    def exclude(e: int) -> bool:
        if state[e] != UNDECIDED:
            return state[e] == OUT
        state[e] = OUT
        trail.append(e)
        u, v = head[e], tail[e]
        free[u] -= 1
        free[v] -= 1
        queue.append(u)
        queue.append(v)
        return True

    def include(e: int) -> bool:
        nonlocal placed
        if state[e] != UNDECIDED:
            return state[e] == IN
        u, v = head[e], tail[e]
        if used[u] == 2 or used[v] == 2:
            return False
        a = ends[u] if used[u] else u
        if a == v:  # closes a cycle
            if placed + 1 < n:
                return False
            state[e] = IN  # left in place: the search ends here
            placed = n
            return True
        b = ends[v] if used[v] else v
        state[e] = IN
        used[u] += 1
        used[v] += 1
        placed += 1
        if a != u:
            del ends[u]
        if b != v:
            del ends[v]
        ends[a] = b
        ends[b] = a
        trail.extend((a, b, ~e))
        queue.append(u)
        queue.append(v)
        return True

    def propagate() -> bool:
        while queue:
            x = queue.pop()
            if free[x] < 2:
                return False
            if used[x] == 2:
                if free[x] > 2:
                    for e in inc[x]:
                        if state[e] == UNDECIDED:
                            exclude(e)
            elif free[x] == 2:
                for e in inc[x]:
                    if state[e] == UNDECIDED:
                        if not include(e):
                            return False
                        if placed == n:
                            return True
        return True

    def undo(mark: int) -> None:
        nonlocal placed
        while len(trail) > mark:
            x = trail.pop()
            if x >= 0:
                state[x] = UNDECIDED
                free[head[x]] += 1
                free[tail[x]] += 1
                continue
            e = ~x
            b = trail.pop()
            a = trail.pop()
            u, v = head[e], tail[e]
            state[e] = UNDECIDED
            used[u] -= 1
            used[v] -= 1
            placed -= 1
            del ends[a], ends[b]
            if a != u:
                ends[u] = a
                ends[a] = u
            if b != v:
                ends[v] = b
                ends[b] = v

    def branch() -> list:
        # [choices, next child, trail mark]
        x = next(iter(ends)) if ends else min(range(n), key=free.__getitem__)
        return [[e for e in inc[x] if state[e] == UNDECIDED], 0, len(trail)]

    def cycle() -> tuple[int, ...]:
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for e in range(len(head)):
            if state[e] == IN:
                nbrs[head[e]].append(tail[e])
                nbrs[tail[e]].append(head[e])
        walk = [0, nbrs[0][0]]
        while len(walk) < n:  # on past the neighbor the walk came from
            walk.append(sum(nbrs[walk[-1]]) - walk[-2])
        return tuple(walk)

    if not propagate():
        return False, None, 0
    if placed == n:
        return True, cycle(), 0
    stack = [branch()]
    nodes = 0
    while stack:
        if time.monotonic() >= deadline:
            return None, None, nodes
        frame = stack[-1]
        choices, j, mark = frame
        undo(mark)
        if j == len(choices):
            stack.pop()
            continue
        frame[1] = j + 1
        nodes += 1
        queue.clear()
        if not (all(map(exclude, choices[:j])) and include(choices[j])):
            continue
        if placed < n and not propagate():
            continue
        if placed == n:
            return True, cycle(), nodes
        stack.append(branch())
    return False, None, nodes


def is_planar(g: Graph) -> bool:
    """Left-right planarity test (de Fraysseix and Rosenstiehl 1982, in
    the form of Brandes 2009), test phase only: no embedding is built.

    More than 3n - 6 edges refute planarity at once.  Otherwise one DFS
    orients every edge and computes lowpoints and nesting depths, and a
    second DFS, visiting arcs in nesting order, checks that the return
    arcs split into a left and a right side.  Both run in linear time on
    explicit stacks, so the depth of a search is not bounded by the
    interpreter's.
    """
    n = g.order
    if n >= 3 and g.num_edges() > 3 * n - 6:
        return False
    return _lr_partition_exists(*_lr_orientation(g))


def _lr_orientation(g: Graph):
    """Orient each edge as a DFS tree arc (v, w) to a child w or a back
    arc (v, w) to an ancestor w.  Returns each vertex's height and
    parent arc (None at a DFS root), each arc's lowpoint (the least height
    its subtree returns to) and each vertex's out-neighbors in nesting
    order."""
    n = g.order
    height = [-1] * n
    parent: list[tuple[int, int] | None] = [None] * n
    lowpt: dict[tuple[int, int], int] = {}
    lowpt2: dict[tuple[int, int], int] = {}
    # nesting depth 2 lowpt + [chordal] is below 2n: bucket, don't sort
    by_depth: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]

    def settle(vw: tuple[int, int]) -> None:
        # the lowpoints of vw are final: bucket it, fold them into the
        # parent arc of its tail
        v = vw[0]
        low, low2 = lowpt[vw], lowpt2[vw]
        by_depth[2 * low + (low2 < height[v])].append(vw)
        e = parent[v]
        if e is None:
            return
        if low < lowpt[e]:
            lowpt2[e] = min(lowpt[e], low2)
            lowpt[e] = low
        elif low > lowpt[e]:
            lowpt2[e] = min(lowpt2[e], low)
        else:
            lowpt2[e] = min(lowpt2[e], low2)

    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        stack = [(root, iter(g.adj[root]))]
        while stack:
            v, todo = stack[-1]
            for w in todo:
                if (w, v) in lowpt:  # already oriented from w
                    continue
                vw = (v, w)
                lowpt[vw] = lowpt2[vw] = height[v]
                if height[w] < 0:  # tree arc, settled once w is done
                    parent[w] = vw
                    height[w] = height[v] + 1
                    stack.append((w, iter(g.adj[w])))
                    break
                lowpt[vw] = height[w]
                settle(vw)
            else:
                stack.pop()
                if stack:
                    settle(parent[v])
    ordered: list[list[int]] = [[] for _ in range(n)]
    for bucket in by_depth:
        for v, w in bucket:
            ordered[v].append(w)
    return height, parent, lowpt, ordered


_NO_ARCS = (None, None)


def _lr_partition_exists(height, parent, lowpt, ordered) -> bool:
    """Testing DFS over conflict pairs.  An interval (low, high) is a
    set of return arcs that must lie on one side, chained from high down
    to low through ref; a conflict pair (left, right) holds two intervals
    that must lie on opposite sides.  False when some pair is forced
    onto one side."""
    pairs: list = []
    bottom: dict[tuple[int, int], int] = {}  # len(pairs) on entering an arc
    ref: dict = {}

    def conflicting(interval, b) -> bool:
        return interval != _NO_ARCS and lowpt[interval[1]] > lowpt[b]

    def lowest(pair) -> int:
        left, right = pair
        if left == _NO_ARCS:
            return lowpt[right[0]]
        if right == _NO_ARCS:
            return lowpt[left[0]]
        return min(lowpt[left[0]], lowpt[right[0]])

    def below(interval, lower):
        # the interval of both, lower's arcs chained under interval's
        if interval == _NO_ARCS:
            return lower
        if lower == _NO_ARCS:
            return interval
        ref[interval[0]] = lower[1]
        return lower[0], interval[1]

    def add_constraints(ei, e) -> bool:
        left = right = _NO_ARCS
        # the return arcs of ei go right, but those returning as low as
        # e does add no constraint and leave the test
        while True:
            ql, qr = pairs.pop()
            if ql != _NO_ARCS:
                ql, qr = qr, ql
            if ql != _NO_ARCS:
                return False
            if lowpt[qr[0]] > lowpt[e]:
                right = below(right, qr)
            if len(pairs) == bottom[ei]:
                break
        # the return arcs of earlier siblings that conflict with ei go left
        while pairs and (conflicting(pairs[-1][0], ei) or conflicting(pairs[-1][1], ei)):
            ql, qr = pairs.pop()
            if conflicting(qr, ei):
                ql, qr = qr, ql
            if conflicting(qr, ei):
                return False
            right = below(right, qr)
            left = below(left, ql)
        if left != _NO_ARCS or right != _NO_ARCS:
            pairs.append((left, right))
        return True

    def remove_back_edges(e) -> None:
        # drop the return arcs that end at the tail u of e
        u = e[0]
        while pairs and lowest(pairs[-1]) == height[u]:
            pairs.pop()
        if pairs:
            (ll, lh), (rl, rh) = pairs.pop()
            while lh and lh[1] == u:
                lh = ref.get(lh)
            while rh and rh[1] == u:
                rh = ref.get(rh)
            pairs.append(((ll if lh else None, lh), (rl if rh else None, rh)))

    def integrate(ei) -> bool:
        # ei adds constraints at its tail v when it returns below v and is
        # not v's first arc, whose return arcs the others are checked against
        v = ei[0]
        return lowpt[ei] >= height[v] or ei[1] == ordered[v][0] or add_constraints(
            ei, parent[v]
        )

    for root in range(len(height)):
        if parent[root] is not None:
            continue
        stack = [(root, iter(ordered[root]))]
        while stack:
            v, todo = stack[-1]
            for w in todo:
                ei = (v, w)
                bottom[ei] = len(pairs)
                if parent[w] == ei:  # tree arc, integrated once w is done
                    stack.append((w, iter(ordered[w])))
                    break
                pairs.append((_NO_ARCS, (ei, ei)))
                if not integrate(ei):
                    return False
            else:
                stack.pop()
                if stack:
                    remove_back_edges(parent[v])
                    if not integrate(parent[v]):
                        return False
    return True

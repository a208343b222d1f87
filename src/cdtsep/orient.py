"""Decide whether the girth cycles admit an orientation in which the two
cycles through every key path traverse it oppositely.

The decision reduces to parity constraints between per-cycle orientation
bits, solved by union-find with parity.  A failure is returned as a
closed alternating cycle/path sequence of odd parity, re-checkable
independently of the solver.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph, enumerate_arcs
from .cycles import CycleSet, canonical_cycle, cycles_through, unordered_paths

__all__ = [
    "ConstraintError",
    "ParityConstraintGraph",
    "OrientationAssignment",
    "OddWitness",
    "build_constraints",
    "solve",
    "verify_ooa",
    "oriented_cycles",
    "assignment_from_cycles",
    "classify_kappa",
]


class ConstraintError(ValueError):
    """Input does not satisfy the two-cycles-per-path precondition."""


@dataclass(frozen=True)
class ParityConstraintGraph:
    """One node per girth cycle; one edge per key path joining the two
    cycles containing it.  must_differ means the two cycles' orientation
    bits have to be unequal for the traversals to oppose."""

    num_nodes: int
    edges: tuple[tuple[int, int, bool, tuple[int, ...]], ...]


@dataclass(frozen=True)
class OrientationAssignment:
    """Orientation bit per cycle id: False keeps the canonical direction."""

    flips: tuple[bool, ...]
    components: int


@dataclass(frozen=True)
class OddWitness:
    """Closed alternating sequence cycle_0, path_0, ..., cycle_m = cycle_0
    whose parity labels multiply to odd, refuting any valid assignment."""

    cycle_ids: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]
    parities: tuple[bool, ...]

    def is_odd(self) -> bool:
        return sum(self.parities) % 2 == 1


def build_constraints(g: Graph, cs: CycleSet, k: int) -> ParityConstraintGraph:
    """Parity constraints over all unordered paths of length k-1.

    Raises ConstraintError when some path lies in a number of girth
    cycles other than two.
    """
    edges = []
    for p in unordered_paths(g, k - 1):
        hits = cycles_through(cs, p)
        if len(hits) != 2:
            raise ConstraintError(
                f"path {p} lies in {len(hits)} girth cycles, expected 2"
            )
        (c1, d1), (c2, d2) = hits
        edges.append((c1, c2, d1 == d2, p))
    return ParityConstraintGraph(len(cs), tuple(edges))


class _ParityUnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.parity = [0] * n  # parity relative to parent

    def find(self, x: int) -> tuple[int, int]:
        """Root of x and the parity of x relative to it, with path compression."""
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        par = 0
        for v in reversed(path):
            par ^= self.parity[v]
            self.parent[v] = x
            self.parity[v] = par
        return x, par

    def union(self, x: int, y: int, differ: bool) -> bool:
        """Merge; returns False on parity conflict."""
        rx, px = self.find(x)
        ry, py = self.find(y)
        want = px ^ py ^ int(differ)
        if rx == ry:
            return want == 0
        self.parent[ry] = rx
        self.parity[ry] = want
        return True


def _odd_witness(pcg: ParityConstraintGraph, upto: int) -> OddWitness:
    """Shortest odd closed sequence through the conflicting edge,
    found by BFS over (node, parity) states."""
    c1, c2, differ, path = pcg.edges[upto]
    adj: dict[int, list[tuple[int, bool, tuple[int, ...]]]] = {}
    for a, b, d, p in pcg.edges[:upto]:
        adj.setdefault(a, []).append((b, d, p))
        adj.setdefault(b, []).append((a, d, p))
    # closed walk parity must be odd: path c2 -> c1 of parity (1 - differ)
    target = (c1, 1 ^ int(differ))
    start = (c2, 0)
    prev: dict[tuple[int, int], tuple[tuple[int, int], bool, tuple[int, ...]]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state == target:
            break
        node, par = state
        for nxt, d, p in adj.get(node, []):
            ns = (nxt, par ^ int(d))
            if ns not in seen:
                seen.add(ns)
                prev[ns] = (state, d, p)
                queue.append(ns)
    else:
        raise AssertionError("conflicting edge without a connecting path")
    cycle_ids = [target[0]]
    paths: list[tuple[int, ...]] = []
    parities: list[bool] = []
    state = target
    while state != start:
        state, d, p = prev[state]
        cycle_ids.append(state[0])
        paths.append(p)
        parities.append(d)
    cycle_ids.reverse()
    paths.reverse()
    parities.reverse()
    # close the walk with the conflicting edge itself
    cycle_ids.append(c2)
    paths.append(path)
    parities.append(differ)
    # rotate so the sequence starts at c2 = the first listed node
    return OddWitness(tuple(cycle_ids), tuple(paths), tuple(parities))


def solve(pcg: ParityConstraintGraph) -> OrientationAssignment | OddWitness:
    """Satisfy all parity constraints or exhibit an odd closed sequence.

    Deterministic: the representative (least cycle id) of every
    connected component keeps its canonical direction.
    """
    uf = _ParityUnionFind(pcg.num_nodes)
    for i, (a, b, differ, _p) in enumerate(pcg.edges):
        if not uf.union(a, b, differ):
            return _odd_witness(pcg, i)
    rep_parity: dict[int, int] = {}
    flips = []
    components = 0
    for node in range(pcg.num_nodes):
        root, par = uf.find(node)
        if root not in rep_parity:
            # least node of the component arrives first and is pinned to +
            rep_parity[root] = par
            components += 1
        flips.append(bool(par ^ rep_parity[root]))
    return OrientationAssignment(tuple(flips), components)


def oriented_cycles(cs: CycleSet, a: OrientationAssignment) -> list[tuple[int, ...]]:
    """Cycle sequences with assignment flips applied."""
    out = []
    for cyc, flip in zip(cs.cycles, a.flips):
        out.append(cyc[::-1] if flip else cyc)
    return out


def verify_ooa(g: Graph, cs: CycleSet, k: int, a: OrientationAssignment) -> bool:
    """Independent re-check: every directed (k-1)-arc of g is traversed by
    exactly one oriented cycle of the assignment."""
    if len(a.flips) != len(cs):
        return False
    count: dict[tuple[int, ...], int] = {}
    glen = cs.girth
    for cyc in oriented_cycles(cs, a):
        for i in range(glen):
            arc = tuple(cyc[(i + j) % glen] for j in range(k))
            count[arc] = count.get(arc, 0) + 1
    arcs = enumerate_arcs(g, k - 1)
    return all(count.get(tuple(arc), 0) == 1 for arc in arcs) and len(count) == len(arcs)


def assignment_from_cycles(cs: CycleSet, cycles) -> OrientationAssignment:
    """Convert explicit oriented cycle sequences into an assignment over
    the canonical cycle set.  Raises ValueError if the collection does
    not cover the cycle set exactly once."""
    pos = {c: i for i, c in enumerate(cs.cycles)}
    flips: list[bool | None] = [None] * len(cs.cycles)
    for seq in cycles:
        seq = tuple(seq)
        canon = canonical_cycle(seq)
        if canon not in pos:
            raise ValueError(f"{seq} is not a girth cycle of the host graph")
        cid = pos[canon]
        if flips[cid] is not None:
            raise ValueError(f"cycle {canon} listed twice")
        n = len(seq)
        rots = {seq[i:] + seq[:i] for i in range(n)}
        flips[cid] = canon not in rots
    if any(f is None for f in flips):
        raise ValueError("collection does not cover all girth cycles")
    return OrientationAssignment(tuple(bool(f) for f in flips), components=1)


def classify_kappa(solved: bool, planar: bool, girth: int, k: int) -> int:
    """Orientation classification: 0 unsolved, 1 planar, 2 when the girth
    equals 2(k-1), 3 when it exceeds it."""
    if not solved:
        if planar:
            raise ValueError("inconsistent inputs: unsolvable but planar")
        return 0
    if planar:
        return 1
    if girth == 2 * (k - 1):
        return 2
    if girth > 2 * (k - 1):
        return 3
    raise ValueError("inconsistent inputs: girth below 2(k-1)")

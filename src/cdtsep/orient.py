"""Decide whether the girth cycles admit an orientation in which the two
cycles through every key path traverse it oppositely.

The decision reduces to parity constraints between per-cycle orientation
bits, solved by the BFS parity 2-coloring of graphs.parity_coloring.  A
failure is returned as a closed alternating cycle/path sequence of odd
parity, re-checkable independently of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graphs import Graph, enumerate_arcs, parity_coloring
from .cycles import ConstraintError, CycleSet, canonical_cycle, cycle_windows, unordered_paths

__all__ = [
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


class ParityConstraintGraph(NamedTuple):
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
    whose parity labels sum to odd, refuting any valid assignment.  It
    runs along the solver's BFS tree through one conflicting path, so it
    is short but not always the shortest such sequence."""

    cycle_ids: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]
    parities: tuple[bool, ...]

    def is_odd(self) -> bool:
        return sum(self.parities) % 2 == 1


def build_constraints(g: Graph, cs: CycleSet, k: int) -> ParityConstraintGraph:
    """Parity constraints over all unordered simple paths of length k-1,
    in lexicographic order of the paths.

    When 1 <= k-1 < girth the paths are the walks of cs.arc_table(k-1)
    whose id is less than their reversal's, taken in id order, which is
    lexicographic, and each edge is read off the path's hits.  A simple
    path of girth or more edges lies in no girth cycle.  ConstraintError
    names the first path that lies in a number of girth cycles other
    than two.
    """
    if not 1 <= k - 1 < cs.girth:
        paths = unordered_paths(g, k - 1)  # GraphError when k - 1 < 1
        if paths:
            raise ConstraintError(f"path {paths[0]} lies in 0 girth cycles, expected 2")
        return ParityConstraintGraph(len(cs), ())
    t = cs.arc_table(k - 1)
    arcs, hits = t.arcs, t.hits
    edges = []
    for a, b in enumerate(t.trans):
        if a < b:
            pair = hits.get(a, ())
            if len(pair) != 2:
                raise ConstraintError(f"path {arcs[a]} lies in {len(pair)} girth cycles, expected 2")
            (c1, d1), (c2, d2) = pair
            edges.append((c1, c2, d1 == d2, arcs[a]))
    return ParityConstraintGraph(len(cs), tuple(edges))


def solve(pcg: ParityConstraintGraph) -> OrientationAssignment | OddWitness:
    """Satisfy all parity constraints or exhibit an odd closed sequence.

    Deterministic: the least cycle id of every connected component keeps
    its canonical direction.
    """
    coloring = parity_coloring(pcg.num_nodes, pcg.edges)
    if coloring.odd_walk is None:
        return OrientationAssignment(coloring.bits, coloring.components)
    walk = [pcg.edges[i] for i in coloring.odd_walk]
    # the walk starts at the second cycle of its last, conflicting, edge
    node = walk[-1][1]
    cycle_ids = [node]
    for a, b, _differ, _path in walk:
        node = b if a == node else a
        cycle_ids.append(node)
    return OddWitness(tuple(cycle_ids), tuple(e[3] for e in walk), tuple(e[2] for e in walk))


def oriented_cycles(cs: CycleSet, a: OrientationAssignment) -> list[tuple[int, ...]]:
    """Cycle sequences with assignment flips applied."""
    return [cyc[::-1] if flip else cyc for cyc, flip in zip(cs.cycles, a.flips)]


def verify_ooa(g: Graph, cs: CycleSet, k: int, a: OrientationAssignment) -> bool:
    """Independent re-check: every directed (k-1)-arc of g is traversed by
    exactly one oriented cycle of the assignment, which holds when their
    sorted windows equal the sorted, repeat-free list of enumerate_arcs."""
    if len(a.flips) != len(cs):
        return False
    windows = [w for cyc in oriented_cycles(cs, a) for w in cycle_windows(cyc, k - 1)]
    return sorted(windows) == enumerate_arcs(g, k - 1)


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
        flips[cid] = canon not in {seq[i:] + seq[:i] for i in range(len(seq))}
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

"""Permutation groups acting on graphs and digraphs: automorphism
groups, transitivity tests, Cayley digraphs and the separator's Cayley
identifications, regular subgroups and explicit isomorphisms.

Automorphisms and isomorphisms come from one partition-refinement
backtrack search (McKay 1981; McKay & Piperno, JSC 2014).  Each side is
built once per graph: its neighbor lists, one signer per vertex that
reads its neighbors' colors off a color list in one call, and its arcs
as integer codes.  Each side is refined on its own, incrementally: a
class is re-split only next to a vertex recolored in the round before,
and keeps its id for its first part.  A search node pairs a partition
of each side and ends unless the two are twins, class by class in size
and signature.  Each child refines from its parent with one new color,
on an explicit stack, and a discrete node's mapping is verified by its
arc codes.  The automorphism search builds its level partitions once,
and also reads the group's order, a base and the stabilizer of the
first base point off its tree.  Products, the images
of point tuples and point orbits are read by operator.itemgetter, a
whole permutation or orbit frontier per call, not point by point.  A
group's elements and its index-2 subgroups are read off one
breadth-first walk over the images of its base, and each element's
order off its shortest word in that walk, with no element built
(Seress, *Permutation Group Algorithms*, 2003).  The walk that finds
the index-2 subgroups also names the stabilizer of point 0, which
decides each kernel's regularity with no orbit walked and gives each
regular kernel's element orders as cycle lengths through 0, so that
only the regular kernels are built.
Distance- and s-arc-transitivity are read off that recorded point
stabilizer: a vertex-transitive group has either property exactly when
the stabilizer of one vertex has it locally, on the distance spheres or
on the s-arcs around that vertex (Tutte 1947; Biggs, *Algebraic Graph
Theory*, 1993).

A separator's Cayley identifications build no second digraph and run
no search.  The digraph's own group Aut(D) is the stabilizer of its
cycle step under conjugation by the underlying graph's automorphisms,
built from Schreier generators as the index-2 kernels are, and checked
to be regular, so that D is a Cayley digraph of it (Sabidussi, *Proc.
AMS* 1958).  D ≅ Cay(G, S) is then decided by one labelled walk per way
of matching the cycle and transposition arcs with the two generators,
which pairs D's vertices with G's elements or meets a conflict; the
Cayley digraph and the digraph search remain as the tests' oracle.
"""

from __future__ import annotations

import itertools
from math import lcm
from operator import add, itemgetter
from typing import NamedTuple

from .graphs import Digraph, Graph, _bfs_dist, build_digraph
from .separator import SeparatorDigraph

__all__ = [
    "GroupError",
    "PermGroup",
    "compose",
    "inverse",
    "automorphism_group",
    "arc_transitivity",
    "is_distance_transitive",
    "cayley_digraph",
    "cayley_isomorphism",
    "digraph_isomorphic",
    "graph_isomorphic",
    "regular_subgroups",
    "separator_seeds",
    "separator_automorphism_group",
    "orientation_kernel",
    "induced_arc_permutation",
    "symmetric_elements",
    "alternating_elements",
    "gl32_elements",
    "gl32_mult",
]


class GroupError(ValueError):
    """Invalid group-theoretic input or unsupported search depth."""


def compose(p, q) -> tuple[int, ...]:
    """Permutation applying q first, then p: the entries of p at the
    entries of q, read by one itemgetter (which gives a bare entry for
    one index, so the map form serves degrees below 2)."""
    return itemgetter(*q)(p) if len(q) > 1 else tuple(map(p.__getitem__, q))


def inverse(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _orbit(gens, start, act) -> dict:
    """Orbit of start under the group generated by gens, where act(g, x)
    is the image of x under g, as a Schreier vector: each point maps to
    the point it was first reached from and the index of the generator
    that carried it there, start to None.  The walk is breadth first, so
    each point's path in the tree is a shortest word from start, and
    every point is listed after the point it was reached from."""
    tree = {start: None}
    frontier = [start]
    indexed = tuple(enumerate(gens))
    for x in frontier:
        for i, g in indexed:
            y = act(g, x)
            if y not in tree:
                tree[y] = x, i
                frontier.append(y)
    return tree


def _image(g, points) -> tuple[int, ...]:
    """Image of a tuple of points under g, read as compose reads it."""
    return itemgetter(*points)(g) if len(points) > 1 else tuple(map(g.__getitem__, points))


def _point_orbit(gens, x) -> set[int]:
    """Orbit of the point x under the group generated by gens, walked one
    frontier at a time: one itemgetter reads every generator's images of
    the whole frontier (a bare image for a one-point frontier), and
    those not reached before make the next frontier."""
    orbit = {x}
    frontier = [x]
    while frontier:
        take = itemgetter(*frontier)
        reached = set(map(take, gens)) if len(frontier) == 1 else set().union(*map(take, gens))
        reached -= orbit
        orbit |= reached
        frontier = list(reached)
    return orbit


class PermGroup:
    """Finite permutation group on 0..degree-1 given by generators.

    A base is a tuple of points that only the identity fixes, so the
    group acts regularly on the images of its base and each element is
    named by its base image.  A group built from bare generators has
    _base and _order None, takes every point as its base, and so its
    order() enumerates the group; automorphism_group and _stabilizer
    set a short _base and the _order after building it.
    automorphism_group also sets _stabilizer, the stabilizer of the first
    base point (the group itself when the base is empty), which
    arc_transitivity and is_distance_transitive read.  regular_subgroups
    sets _spectrum, the set of element orders, from its parent group's
    walk; order_spectrum computes it on first call when it is unset and
    keeps it.  Groups compare and hash by identity.  Orbits,
    transitivity and the elements are walked over the generators, breadth
    first; a point orbit reads each generator's images of a whole
    frontier with one itemgetter, and a product is one itemgetter over
    its right factor (compose).  _element_orders reads each element's
    order off its shortest word in the generators without building the
    element.  A generator is checked to be a permutation by its length
    and one set of its entries: no repeats, and all in 0..degree-1.
    """

    __slots__ = ("degree", "generators", "_order", "_base", "_stabilizer", "_spectrum")

    def __init__(self, degree: int, generators):
        ident = tuple(range(degree))
        points = set(ident)
        gens = []
        for g in generators:
            g = tuple(g)
            entries = set(g)
            if len(g) != degree or len(entries) != degree or not entries <= points:
                raise GroupError(f"{g} is not a permutation of 0..{degree - 1}")
            if g != ident and g not in gens:
                gens.append(g)
        self.degree, self.generators = degree, tuple(gens)
        self._order = self._base = self._stabilizer = self._spectrum = None

    def _base_points(self) -> tuple[int, ...]:
        return tuple(range(self.degree)) if self._base is None else self._base

    def _base_orbit(self) -> dict:
        """Schreier vector of the orbit of the base: one entry per element."""
        return _orbit(self.generators, self._base_points(), _image)

    def order(self) -> int:
        return self._order or len(self._base_orbit())

    def orbit(self, x: int) -> set[int]:
        return _point_orbit(self.generators, x)

    def is_transitive(self, num_points: int | None = None) -> bool:
        n = self.degree if num_points is None else num_points
        return len(self.orbit(0)) == n if n > 0 else True

    def elements(self) -> list[tuple[int, ...]]:
        """The element carrying the base to each of its images: the
        generator that reached the image times the element of the image
        it was reached from, one compose per element."""
        named: dict[tuple[int, ...], tuple[int, ...]] = {}
        for y, step in self._base_orbit().items():
            if step is None:
                named[y] = tuple(range(self.degree))
            else:
                named[y] = compose(self.generators[step[1]], named[step[0]])
        return sorted(named.values())

    def _element_orders(self, tree: dict, images, slots) -> dict[tuple[int, ...], int]:
        """The order of the element carrying the tree's start to each of
        images, a collection of points of tree, with no element built.
        tree is the Schreier vector of the orbit of a base (the start, a
        tuple of points listed first), so each image names one element:
        the word of generators on the image's path in the tree.  Every
        image's word is kept, since its descendants' words extend it, but
        only the images asked for are walked.  An element's order is the
        lcm of the lengths of its cycles through the start's points at
        slots, each walked point by point along the word from the point's
        image; a point already on a walked cycle is skipped.  That holds
        when only the identity fixes those points among the elements
        asked for: every slot of a base, or the slot of a point whose
        stabilizer meets their group trivially."""
        start = next(iter(tree))
        words: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
        orders = {}
        for y, step in tree.items():
            word = () if step is None else words[step[0]] + (self.generators[step[1]],)
            words[y] = word
            if y not in images:
                continue
            seen: set[int] = set()
            order = 1
            for i in slots:
                x, u = start[i], y[i]
                if x in seen:
                    continue
                length = 1
                while u != x:
                    seen.add(u)
                    for g in word:
                        u = g[u]
                    length += 1
                order = lcm(order, length)
            orders[y] = order
        return orders

    def order_spectrum(self) -> frozenset[int]:
        """Orders of all elements, read off the base's orbit by
        _element_orders, or the _spectrum set when the group was built."""
        if self._spectrum is None:
            tree = self._base_orbit()
            slots = range(len(self._base_points()))
            self._spectrum = frozenset(self._element_orders(tree, tree, slots).values())
        return self._spectrum


# ---------------------------------------------------------------------------
# Partition-refinement search for automorphisms and isomorphisms.


def _graph_signer(nbrs):
    """Callable giving the colors of nbrs, as a tuple, under a color
    list c; a one-index itemgetter would give a bare color."""
    if len(nbrs) > 1:
        return itemgetter(*nbrs)
    if nbrs:
        (w,) = nbrs
        return lambda c: (c[w],)
    return lambda c: ()


def _digraph_signer(out, inn):
    """Callable giving, under a color list c, 2*c[w] for each
    out-neighbor w of one vertex and 2*c[w] + 1 for each in-neighbor,
    in one comprehension over the neighbors tagged once here."""
    tagged = [(w, 0) for w in out] + [(w, 1) for w in inn]
    return lambda c: [2 * c[w] + bit for w, bit in tagged]


class _Side(NamedTuple):
    """One side of a search, built once per graph or digraph by _side:
    each vertex's neighbors (a digraph's out-neighbors, then its
    in-neighbors), one signer per vertex, and its out-arcs (a graph's
    edges in both directions) as tails, heads and the set of codes
    tail*n + head."""

    nbrs: tuple
    sign: tuple
    tails: tuple
    heads: tuple
    codes: set[int]


def _side(x: Graph | Digraph) -> _Side:
    if isinstance(x, Digraph):
        out, inn = x.out_adj, x.in_adj()
        nbrs = tuple(map(add, out, inn))
        sign = tuple(map(_digraph_signer, out, inn))
    else:
        out = nbrs = x.adj
        sign = tuple(map(_graph_signer, out))
    n = x.order
    tails = tuple(v for v in range(n) for _w in out[v])
    heads = tuple(w for v in range(n) for w in out[v])
    return _Side(nbrs, sign, tails, heads, {v * n + w for v, w in zip(tails, heads)})


def _root(side):
    """The unit partition of side's vertices, refined.  A partition is
    (colors, cells): each vertex's color, each color's members."""
    n = len(side.nbrs)
    return _refine(side, ([0] * n, [tuple(range(n))] if n else []), range(n))


def _refine(side, part, moved):
    """Refine part, a partition of side's vertices, in place to the
    coarsest equitable partition below it and return it.  part must be
    equitable except around moved, the vertices recolored since it was.

    Each round re-splits, by member signature, the classes that hold a
    neighbor of a vertex recolored in the round before.  A member's
    signature is its signer's values under the colors, sorted: its
    neighbors' colors in a graph, and 2c or 2c + 1 for each out- or
    in-neighbor of color c in a digraph.  The piece with the least
    signature keeps the class's id and each other piece gets a fresh
    one, so ids are stable and no id is reused (McKay 1981).
    """
    colors, cells = part
    nbrs, sign = side.nbrs, side.sign
    while moved:
        touched = {colors[w] for v in moved for w in nbrs[v]}
        moved = []
        for c in sorted(touched):
            members = cells[c]
            if len(members) == 1:
                continue
            pieces: dict[tuple, list[int]] = {}
            for v in members:
                pieces.setdefault(tuple(sorted(sign[v](colors))), []).append(v)
            if len(pieces) == 1:
                continue
            first, *rest = sorted(pieces)
            cells[c] = tuple(pieces[first])
            for key in rest:
                piece = tuple(pieces[key])
                fresh = len(cells)
                cells.append(piece)
                for v in piece:
                    colors[v] = fresh
                moved += piece
    return part


def _individualize(side, part, v):
    """Copy of part, an equitable partition, with v alone in a fresh
    color, refined from v; part itself is not written."""
    colors, cells = part[0][:], part[1][:]
    c = colors[v]
    cells[c] = tuple(x for x in cells[c] if x != v)
    colors[v] = len(cells)
    cells.append((v,))
    return _refine(side, (colors, cells), [v])


def _twins(a, b, pa, pb) -> bool:
    """Whether pa and pb, equitable partitions of sides a and b, are
    twins: equally many classes, each the size of its twin, and one
    member of each with the sorted signature of one member of the twin
    (members of an equitable class share theirs); sizes alone do not
    suffice.  On a discrete pair this checks each vertex's neighbors
    against its image's, so the mapping it names is an isomorphism."""
    (ca, cells_a), (cb, cells_b) = pa, pb
    if len(cells_a) != len(cells_b):
        return False
    sign_a, sign_b = a.sign, b.sign
    for xa, xb in zip(cells_a, cells_b):
        if len(xa) != len(xb) or sorted(sign_a[xa[0]](ca)) != sorted(sign_b[xb[0]](cb)):
            return False
    return True


def _verify_mapping(a, b, m) -> bool:
    """Whether m is a bijection from side a's vertices onto side b's
    that carries a's out-arcs onto b's, compared as sets of arc codes.
    With no parallel arcs, equal sets pair the two arc lists one to one,
    and every in-arc is another vertex's out-arc, so this checks every
    neighbor list, in-arcs included."""
    n = len(a.nbrs)
    if sorted(m) != list(range(n)):
        return False
    scaled = [x * n for x in m]
    return set(map(add, map(scaled.__getitem__, a.tails), map(m.__getitem__, a.heads))) == b.codes


def _search(a, b, pa, pb):
    """Arc-preserving bijection from side a to side b that maps each
    color class of pa onto its twin in pb, both equitable partitions;
    or None when there is none.

    Depth first over an explicit stack of frames, so no depth raises
    RecursionError.  A node that fails _twins is refuted.  Otherwise it
    branches on its smallest non-singleton class: side a's least member
    is individualized once, and the frame keeps that child, the node's
    pb and the members on side b left to individualize in pb in turn.
    A discrete node's mapping is returned once _verify_mapping accepts
    it.

    The result is that of refining both sides in lockstep, as one
    coloring that ends a node at the first class whose parts differ in
    size.  Take a node with an isomorphism that carries each vertex
    individualized on side a to its partner on side b.  It carries each
    refinement step on one side onto the same step on the other, so the
    one-sided partitions are the lockstep pair, id for id, with the same
    branching class and candidates.  A node with no such isomorphism has
    no verified leaf below it, refuted or not.  So the first mapping
    found, and each generator of automorphism_group, is the lockstep
    search's; only the cost of nodes with none below them differs.
    """
    stack = []
    while True:
        if _twins(a, b, pa, pb):
            (ca, cells_a), cells_b = pa, pb[1]
            split = [(len(x), c) for c, x in enumerate(cells_a) if len(x) > 1]
            if not split:
                m = [cells_b[c][0] for c in ca]
                if _verify_mapping(a, b, m):
                    return tuple(m)
            else:
                c = min(split)[1]
                child = _individualize(a, pa, min(cells_a[c]))
                stack.append((child, pb, sorted(cells_b[c], reverse=True)))
        while stack and not stack[-1][2]:
            stack.pop()
        if not stack:
            return None
        pa, node_b, candidates = stack[-1]
        pb = _individualize(b, node_b, candidates.pop())


def _levels(side):
    """The base levels of the automorphism search over side: (levels,
    P_k), where levels holds (P_i, b_i, the class of b_i in P_i, sorted)
    for each i and P_k, the last P_i with b_i individualized, is
    discrete."""
    part = _root(side)
    levels = []
    while True:
        split = [x for x in part[1] if len(x) > 1]
        if not split:
            return levels, part
        target = max(split, key=len)
        b = min(target)
        levels.append((part, b, sorted(target)))
        part = _individualize(side, part, b)


def automorphism_group(x: Graph | Digraph, seeds=()) -> PermGroup:
    """Full automorphism group, as generators with its exact order.

    The unit partition is refined to an equitable one, P_0.  Base point
    b_i is the least member of the largest non-singleton class of P_i
    (the oldest id among equals), and P_{i+1} is P_i with b_i
    individualized, each built once (_levels).  A search for an
    automorphism taking b_i to u starts from P_{i+1} and P_i with u
    individualized, and writes to no level.  The levels are settled
    deepest first: the generators found at levels >= i fix
    b_0..b_{i-1}, and a search for each class member outside the orbit
    of b_i under them adds a generator or certifies the gap.  The seeds
    (candidate permutations) fix no base point, so they are tried at
    level 0 only.  One joins, after verification, only when it moves b_0
    outside the orbit found so far: the deeper generators already
    generate the stabilizer of b_0, so any other seed is in their group.
    The orbit of b_i is then that of the stabilizer of b_0..b_{i-1}, and
    |G| is the product of the orbit sizes (McKay 1981).  The partition
    is discrete once b_0..b_{k-1} are individualized, so they are a base
    of the group.  The generators found before level 0 generate the
    point stabilizer G_{b_0}, of order |G| / |b_0^G| and base
    b_1..b_{k-1}; the group records it as _stabilizer.
    """
    side = _side(x)
    n = x.order
    levels, discrete = _levels(side)
    gens: list[tuple[int, ...]] = []
    order = 1
    stabilizer = None
    for level in reversed(range(len(levels))):
        part, b, cell = levels[level]
        below = levels[level + 1][0] if level + 1 < len(levels) else discrete
        orbit = _point_orbit(gens, b)
        if level == 0:
            stabilizer = PermGroup(n, tuple(gens))
            stabilizer._order = order
            stabilizer._base = tuple(b for _part, b, _cell in levels[1:])
            for s in map(tuple, seeds):
                if len(s) == n and s[b] not in orbit and _verify_mapping(side, side, s):
                    gens.append(s)
                    orbit = _point_orbit(gens, b)
        for u in cell:
            if u in orbit:
                continue
            m = _search(side, side, below, _individualize(side, part, u))
            if m is not None:
                gens.append(m)
                orbit = _point_orbit(gens, b)
        order *= len(orbit)
    group = PermGroup(n, tuple(gens))
    group._order = order
    group._base = tuple(b for _part, b, _cell in levels)
    group._stabilizer = group if stabilizer is None else stabilizer
    return group


def _vertex_stabilizer(g: Graph, group: PermGroup) -> tuple[int, PermGroup] | None:
    """(b_0, G_{b_0}) for group, the automorphism group of g as
    automorphism_group returns it, when the group is transitive on the
    vertices of g; otherwise None."""
    if group._stabilizer is None:
        raise GroupError("no recorded point stabilizer: pass automorphism_group's result")
    b0 = group._base[0] if group._base else 0
    if len(group.orbit(b0)) != g.order:
        return None
    return b0, group._stabilizer


# No finite graph of valency >= 3 is 8-arc-transitive (Weiss, Combinatorica 1981).
_MAX_ARC_LENGTH = 7


def arc_transitivity(g: Graph, group: PermGroup) -> int:
    """Largest s <= _MAX_ARC_LENGTH at which group, the automorphism
    group of g as automorphism_group returns it, still has a single orbit
    on the s-arcs of g; 0 when it is not transitive on the vertices.

    A vertex-transitive group is transitive on the s-arcs exactly when
    the recorded point stabilizer G_{b_0} is transitive on the s-arcs
    that start at b_0 (Tutte 1947; Biggs 1993, ch. 17).  g is then
    regular, of degree d say, so there are d(d-1)^(s-1) of them; the
    orbit of one under G_{b_0} is compared with that count.  Raises
    GroupError for a group with no recorded stabilizer.
    """
    found = _vertex_stabilizer(g, group)
    if found is None:
        return 0
    b0, stabilizer = found
    degree = len(g.adj[b0])
    arc = (b0,)
    best = 0
    for length in range(1, _MAX_ARC_LENGTH + 1):
        ahead = [w for w in g.adj[arc[-1]] if length == 1 or w != arc[-2]]
        if not ahead:
            break
        arc += (ahead[0],)
        count = degree * (degree - 1) ** (length - 1)
        if len(_orbit(stabilizer.generators, arc, _image)) != count:
            break
        best = length
    return best


def is_distance_transitive(g: Graph, group: PermGroup) -> bool:
    """Whether group, the automorphism group of g as automorphism_group
    returns it, is transitive on the ordered vertex pairs at each
    distance.

    A vertex-transitive group is distance-transitive exactly when the
    orbits of the recorded point stabilizer G_{b_0} are the distance
    spheres around b_0 (Biggs 1993, ch. 20), so one BFS from b_0 and
    one orbit per sphere decide it.  Raises GroupError for a group with
    no recorded stabilizer.
    """
    found = _vertex_stabilizer(g, group)
    if found is None:
        return False
    b0, stabilizer = found
    spheres: dict[int, set[int]] = {}
    for v, d in enumerate(_bfs_dist(g.adj, b0, g.order)):
        spheres.setdefault(d, set()).add(v)
    return all(stabilizer.orbit(min(sphere)) == sphere for sphere in spheres.values())


# ---------------------------------------------------------------------------
# Cayley digraphs and concrete groups.


def _cayley_index(elements, mult, generators) -> dict:
    """Each element's position in elements, once the generators are
    checked to be distinct listed elements other than the identity
    (s*x == x holds only for s the identity).  Elements must be
    hashable."""
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise GroupError("duplicate elements")
    for s in generators:
        if s not in index:
            raise GroupError(f"generator {s!r} is not a listed element")
        if mult(s, elements[0]) == elements[0]:
            raise GroupError("identity is not allowed as a generator")
    if len(set(generators)) != len(generators):
        raise GroupError("repeated generator")
    return index


def cayley_digraph(elements, mult, generators) -> Digraph:
    """Digraph with one vertex per element and an arc x -> s*x for every
    generator s.  Elements must be hashable; generators must be distinct
    listed elements other than the identity."""
    index = _cayley_index(elements, mult, generators)
    arcs = [(index[x], index[mult(s, x)]) for s in generators for x in elements]
    return build_digraph(len(elements), arcs)


def _parity(p) -> int:
    p = list(p)
    out = 0
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            out ^= 1
    return out


def symmetric_elements(n: int) -> list[tuple[int, ...]]:
    return sorted(itertools.permutations(range(n)))


def alternating_elements(n: int) -> list[tuple[int, ...]]:
    return [p for p in symmetric_elements(n) if _parity(p) == 0]


def gl32_mult(a, b):
    """Product of 3x3 matrices over the 2-element field."""
    return tuple(
        tuple((a[i][0] & b[0][j]) ^ (a[i][1] & b[1][j]) ^ (a[i][2] & b[2][j]) for j in range(3))
        for i in range(3)
    )


def _gl32_invertible(m) -> bool:
    det = (
        m[0][0] & (m[1][1] & m[2][2] ^ m[1][2] & m[2][1])
        ^ m[0][1] & (m[1][0] & m[2][2] ^ m[1][2] & m[2][0])
        ^ m[0][2] & (m[1][0] & m[2][1] ^ m[1][1] & m[2][0])
    )
    return det == 1


def gl32_elements():
    """All 168 invertible 3x3 matrices over the 2-element field."""
    rows = list(itertools.product((0, 1), repeat=3))
    return [
        m
        for m in itertools.product(rows, repeat=3)
        if _gl32_invertible(m)
    ]


# ---------------------------------------------------------------------------
# Digraph isomorphism and regular subgroups.


def _isomorphism(a: Graph | Digraph, b: Graph | Digraph):
    """Explicit bijection from a to b preserving adjacency, or None.
    Equal orders are checked first; the search then starts from the unit
    partition refined on each side."""
    if b.order != a.order:
        return None
    sa, sb = _side(a), _side(b)
    return _search(sa, sb, _root(sa), _root(sb))


def digraph_isomorphic(a: Digraph, b: Digraph):
    """Explicit arc-preserving bijection from a to b, or None."""
    return _isomorphism(a, b)


def graph_isomorphic(a: Graph, b: Graph):
    """Explicit edge-preserving bijection from a to b, or None."""
    return _isomorphism(a, b)


def _stabilizer(group: PermGroup, start, act) -> PermGroup:
    """Stabilizer of start in group, where act(g, x) is x's image under g
    and acting by g, then h, is acting by g∘h.  The orbit is walked
    breadth first with t_start = 1 and t_y = t_x∘g for the first x and g
    to reach y; the Schreier generators t_x∘g∘t_y⁻¹, t_start left out, by
    generator, then by point, generate the stabilizer (Schreier's lemma;
    Seress 2003): order |group|/|orbit|, group's base; group if |orbit| = 1."""
    transversal = {start: None}
    points, rows = [start], {}
    for x in points:
        rows[x] = row = [act(g, x) for g in group.generators]
        for g, y in zip(group.generators, row):
            if y not in transversal:
                transversal[y] = g if x == start else compose(transversal[x], g)
                points.append(y)
    if len(points) == 1:
        return group
    inverses = {y: inverse(transversal[y]) for y in points[1:]}
    schreier = []
    for i, g in enumerate(group.generators):
        for x, row in rows.items():
            h = compose(transversal[x], g) if x in inverses else g
            schreier.append(compose(h, inverses[row[i]]) if row[i] in inverses else h)
    stabilizer = PermGroup(group.degree, schreier)
    stabilizer._order = group.order() // len(points)
    stabilizer._base = group._base
    return stabilizer


def regular_subgroups(group: PermGroup, num_points: int) -> list[PermGroup]:
    """All subgroups of index at most 2 acting regularly on
    0..num_points-1, in a deterministic order (distinct index-2 subgroups
    can each act regularly).

    An index-2 subgroup is the kernel of a character, which gives each
    generator the value 0 or 1.  The orbit of the base, with point 0
    appended when the base omits it, is a Cayley graph of the group:
    each image gets the bit mask over the generators of its word in the
    orbit's spanning tree, and each edge outside the tree closes a
    relation whose mask is the sum of the two words and its generator;
    one walk gives the words and the relations, one image per element
    and generator, and the images that keep 0 name G_0, the stabilizer
    of point 0.  The characters are the masks with an even overlap with
    every relation, found by elimination.  The kernel K of a character
    has order |G|/2 = num_points, and K_0 = K ∩ G_0, so K is transitive
    on the points, and thus regular, exactly when no element of G_0
    other than the identity has a word with an even overlap with the
    character (orbit-stabilizer); no orbit is walked per character.
    Only a regular kernel is built, as the stabilizer of 0 under
    x ↦ x ⊕ χ(g) (_stabilizer).  Its elements are those whose word has
    an even overlap with the character, and with K_0 trivial each one's
    order is the length of its cycle through 0, so the kernel's order
    spectrum is read off that cycle alone and set as its _spectrum.
    Each order is computed once, and only for elements of a regular
    kernel: with one kernel that is half the group, with two three
    quarters.
    """
    order = group.order()
    if order % num_points != 0:
        raise GroupError("group order is not a multiple of the point count")
    index = order // num_points
    if index > 2:
        raise GroupError(f"index-{index} subgroup search is unsupported")
    if index == 1:
        return [group] if group.is_transitive(num_points) else []
    gens = group.generators
    base = group._base_points()
    if 0 not in base:
        base += (0,)
    zero = base.index(0)
    # One walk over the orbit of the base, as _orbit's: each image's tree
    # and word mask, and the relation closed by each edge off the tree.
    tree: dict[tuple[int, ...], tuple[tuple[int, ...], int] | None] = {base: None}
    words = {base: 0}
    relations = set()
    frontier = [base]
    for x in frontier:
        word = words[x]
        for i, g in enumerate(gens):
            y = _image(g, x)
            if y in words:
                relations.add(word ^ 1 << i ^ words[y])
            else:
                tree[y], words[y] = (x, i), word ^ 1 << i
                frontier.append(y)
    # Reduced rows keyed by their pivot, the lowest bit; no row holds
    # another row's pivot.
    rows: dict[int, int] = {}
    for r in relations:
        for pivot, row in rows.items():
            if r & pivot:
                r ^= row
        if r:
            pivot = r & -r
            for other, row in rows.items():
                if row & pivot:
                    rows[other] = row ^ r
            rows[pivot] = r
    free = [1 << i for i in range(len(gens)) if 1 << i not in rows]
    if len(free) > 3:
        raise GroupError("abelianized 2-quotient unexpectedly large")
    fixers = [word for y, word in words.items() if y[zero] == 0 and y != base]
    found = []
    for choice in range(1, 1 << len(free)):
        character = sum(bit for j, bit in enumerate(free) if choice >> j & 1)
        character |= sum(p for p, row in rows.items() if (row & character).bit_count() % 2)
        if all((word & character).bit_count() % 2 for word in fixers):
            sub = _stabilizer(group, 0, lambda g, x: x ^ character >> gens.index(g) & 1)
            found.append((sub, character))
    if not found:
        return []
    kernels = [
        [y for y, word in words.items() if not (word & character).bit_count() % 2]
        for _sub, character in found
    ]
    orders = group._element_orders(tree, set().union(*kernels), (zero,))
    for (sub, _character), kernel in zip(found, kernels):
        sub._spectrum = frozenset(map(orders.__getitem__, kernel))
    return [sub for sub, _character in found]


# ---------------------------------------------------------------------------
# Separator-specific helpers.


def induced_arc_permutation(s: SeparatorDigraph, h) -> tuple[int, ...] | None:
    """Automorphism of the underlying separator graph induced by a
    host-graph automorphism h, or None.

    h permutes the key arcs directly.  When that preserves the oriented
    cycles the result also preserves the digraph; when it reverses all
    of them, composing with the transposition involution gives an
    automorphism of the underlying graph that inverts every cycle arc.
    """
    succ, trans = s.succ, s.trans
    try:
        m = tuple(s.index[_image(h, arc)] for arc in s.arcs)
    except KeyError:
        return None
    if compose(m, trans) == compose(trans, m):
        if compose(m, succ) == compose(succ, m):
            return m
        phi = compose(trans, m)
        # cycle-arc reversal: succ maps phi(succ v) back to phi(v)
        if compose(succ, compose(phi, succ)) == phi and compose(phi, trans) == compose(trans, phi):
            return phi
    return None


def separator_seeds(s: SeparatorDigraph, host_group: PermGroup) -> list[tuple[int, ...]]:
    """Underlying-graph separator automorphisms induced by the host
    group's generators."""
    out = []
    for h in host_group.generators:
        m = induced_arc_permutation(s, h)
        if m is not None:
            out.append(m)
    return out


def separator_automorphism_group(s: SeparatorDigraph, host_group: PermGroup) -> PermGroup:
    """Automorphism group of the underlying separator graph, seeded with
    the permutations induced by host_group, the automorphism group of the
    host graph (orientation reversers included via the transposition
    correction)."""
    seeds = separator_seeds(s, host_group)
    return automorphism_group(s.under, seeds=seeds)


def _check_regular(s: SeparatorDigraph, kernel: PermGroup) -> None:
    """Raise GroupError unless kernel acts regularly on s's vertices."""
    if kernel.degree != s.order or kernel.order() != s.order or not kernel.is_transitive():
        raise GroupError("the orientation kernel is not regular on the separator's vertices")


def orientation_kernel(s: SeparatorDigraph, group: PermGroup) -> PermGroup:
    """Aut(D) for the separator's digraph D: the stabilizer of succ under
    conjugation x ↦ g⁻¹∘x∘g in group, the automorphism group of its
    underlying graph U as separator_automorphism_group returns it; an
    automorphism of U that keeps the cycle edges keeps the rest of U,
    the transposition edges.  The index is 2 on the catalog separators
    and 6 on the hexagonal torus maps {6,3}_{b,0}.  GroupError is raised
    for a new conjugate that takes a vertex off its neighbors in U, as no
    automorphism of U does, which bounds the walk of a group not made of
    them; and unless the stabilizer is regular (of order s.order and
    transitive), so that D is a Cayley digraph of it (Sabidussi 1958)."""
    if group.degree != s.order:
        raise GroupError(f"group of degree {group.degree} on a separator of order {s.order}")
    inverses = {g: inverse(g) for g in group.generators}
    seen = {s.succ}

    def conjugate(g, x):
        y = compose(inverses[g], compose(x, g))
        if y not in seen and not all(map(tuple.__contains__, s.under.adj, y)):
            raise GroupError("the group is not made of automorphisms of the underlying graph")
        seen.add(y)
        return y

    kernel = _stabilizer(group, s.succ, conjugate)
    _check_regular(s, kernel)
    return kernel


def _cayley_walk(s: SeparatorDigraph, start, mult, x_succ, x_trans) -> list | None:
    """phi with phi[0] = start, phi[succ p] = x_succ*phi[p] and
    phi[trans p] = x_trans*phi[p], by one breadth-first walk along the
    out-arcs of the separator's digraph; None when two arcs into one
    vertex ask for different elements, or when some vertex is not
    reached."""
    succ, trans = s.succ, s.trans
    phi = [None] * s.order
    phi[0] = start
    reached = [0]
    for p in reached:
        x = phi[p]
        for q, y in ((succ[p], mult(x_succ, x)), (trans[p], mult(x_trans, x))):
            if phi[q] is None:
                phi[q] = y
                reached.append(q)
            elif phi[q] != y:
                return None
    return phi if len(reached) == s.order else None


def cayley_isomorphism(s: SeparatorDigraph, kernel: PermGroup, elements, mult,
                       generators) -> list | None:
    """An isomorphism from the separator's digraph D onto
    cayley_digraph(elements, mult, generators), as a list giving each
    vertex its element, or None when there is none.  kernel must be
    Aut(D) as orientation_kernel returns it, and GroupError is raised
    unless it is regular; the generators are checked as cayley_digraph
    checks them, with the same errors.

    D's transposition arcs are exactly its arcs on a 2-cycle: its
    oriented cycles have length at least 3, and no transposition edge
    doubles a cycle edge, since the underlying graph is simple and
    cubic.  An isomorphism keeps 2-cycles, and whether an arc x -> s*x
    lies on one depends on s alone, so it carries the transposition arcs
    onto the arcs of one generator s' and the cycle arcs onto those of
    the other, s.  Right translation x -> x*g is an
    automorphism of the x -> s*x form, so some such isomorphism takes
    vertex 0 to elements[0], and D is strongly connected, so it is then
    phi[succ p] = s*phi[p], phi[trans p] = s'*phi[p] throughout
    (_cayley_walk).  Both ways to match {succ, trans} with the two
    generators are walked; a walk with no conflict that reaches every
    vertex and pairs them one to one with the elements carries every
    arc of D onto an arc of the Cayley digraph, so it is returned, and
    None from both refutes the isomorphism.  With the kernel regular, a
    found phi also makes the group the kernel's: its right translations,
    carried back by phi, are a regular subgroup of Aut(D) of the same
    order (Sabidussi, Proc. AMS 1958)."""
    _check_regular(s, kernel)
    index = _cayley_index(elements, mult, generators)
    if len(generators) != 2 or len(index) != s.order:
        return None
    for x_succ, x_trans in (generators, generators[::-1]):
        phi = _cayley_walk(s, elements[0], mult, x_succ, x_trans)
        if phi is not None and set(phi) == index.keys():
            return phi
    return None

"""Permutation groups acting on graphs and digraphs: automorphism
groups, transitivity tests, Cayley digraphs, regular subgroups and
explicit isomorphisms.

Automorphism groups come from partition-refinement backtracking, which
also reads their orders and a base off its search tree.  A group's
elements and its index-2 subgroups are read off one walk over the
images of its base (Seress, *Permutation Group Algorithms*, 2003).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from math import lcm

from .graphs import Digraph, Graph, build_digraph, distances, enumerate_arcs, underlying
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
    "digraph_isomorphic",
    "graph_isomorphic",
    "regular_subgroups",
    "separator_seeds",
    "separator_automorphism_group",
    "induced_arc_permutation",
    "symmetric_elements",
    "alternating_elements",
    "perm_mult",
    "gl32_elements",
    "gl32_mult",
    "GL32_GENERATORS",
    "matrix_order",
]


class GroupError(ValueError):
    """Invalid group-theoretic input or unsupported search depth."""


def compose(p, q) -> tuple[int, ...]:
    """Permutation applying q first, then p."""
    return tuple(p[x] for x in q)


def inverse(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _perm_order(p, points) -> int:
    """Lcm of the lengths of p's cycles through points: the order of p
    when only the identity fixes every one of the points."""
    seen: set[int] = set()
    out = 1
    for x in points:
        if x in seen:
            continue
        seen.add(x)
        u, length = p[x], 1
        while u != x:
            seen.add(u)
            u = p[u]
            length += 1
        out = lcm(out, length)
    return out


def _orbit(gens, start, act) -> dict:
    """Orbit of start under the group generated by gens, where act(g, x)
    is the image of x under g, as a Schreier vector: each point maps to
    the point it was first reached from and the index of the generator
    that carried it there, start to None.  Every point is listed after
    the point it was reached from."""
    tree = {start: None}
    frontier = [start]
    indexed = tuple(enumerate(gens))
    while frontier:
        x = frontier.pop()
        for i, g in indexed:
            y = act(g, x)
            if y not in tree:
                tree[y] = x, i
                frontier.append(y)
    return tree


def _image(g, points) -> tuple[int, ...]:
    """Image of a tuple of points under g."""
    return tuple(g[x] for x in points)


@dataclass
class PermGroup:
    """Finite permutation group on 0..degree-1 given by generators.

    A base is a tuple of points that only the identity fixes, so the
    group acts regularly on the images of its base and each element is
    named by its base image.  automorphism_group and regular_subgroups
    record a short base and the order; a group given by bare generators
    takes every point as its base, so its order() enumerates the group.
    Orbits, transitivity and the elements are walked over the generators.
    """

    degree: int
    generators: tuple[tuple[int, ...], ...]
    _order: int | None = field(default=None, init=False, repr=False, compare=False)
    _base: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        ident = tuple(range(self.degree))
        gens = []
        for g in self.generators:
            g = tuple(g)
            if sorted(g) != list(ident):
                raise GroupError(f"{g} is not a permutation of 0..{self.degree - 1}")
            if g != ident and g not in gens:
                gens.append(g)
        self.generators = tuple(gens)

    def _base_points(self) -> tuple[int, ...]:
        return tuple(range(self.degree)) if self._base is None else self._base

    def _base_orbit(self) -> dict:
        """Schreier vector of the orbit of the base: one entry per element."""
        return _orbit(self.generators, self._base_points(), _image)

    def order(self) -> int:
        return self._order or len(self._base_orbit())

    def orbit(self, x: int) -> set[int]:
        return set(_orbit(self.generators, x, tuple.__getitem__))

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

    def order_spectrum(self) -> set[int]:
        """Orders of all elements, each read off its cycles through the
        base, since only the identity fixes the base."""
        base = self._base_points()
        return {_perm_order(p, base) for p in self.elements()}


# ---------------------------------------------------------------------------
# Partition-refinement search for automorphisms and isomorphisms.


def _tagged_adj(x: Graph | Digraph):
    """Uniform tagged neighbor lists: (0, w) out-arcs / undirected edges,
    (1, w) in-arcs."""
    if isinstance(x, Digraph):
        inn = x.in_adj()
        return tuple(
            tuple((0, w) for w in x.out_adj[v]) + tuple((1, w) for w in inn[v])
            for v in range(x.order)
        )
    return tuple(tuple((0, w) for w in x.adj[v]) for v in range(x.order))


def _refine_pair(ta, tb, forced):
    """Equitable refinement of both sides with a shared palette, the
    forced pairs individualized.  Returns (colors_a, colors_b) or None
    when the color class sizes cannot match."""
    n = len(ta)
    ca = [0] * n
    cb = [0] * n
    nxt = 1
    for v, u in forced.items():
        ca[v] = nxt
        cb[u] = nxt
        nxt += 1
    ncolors = nxt
    while True:
        siga = [
            (ca[v], tuple(sorted((t, ca[w]) for t, w in ta[v]))) for v in range(n)
        ]
        sigb = [
            (cb[v], tuple(sorted((t, cb[w]) for t, w in tb[v]))) for v in range(n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(siga) | set(sigb)))}
        ca = [palette[s] for s in siga]
        cb = [palette[s] for s in sigb]
        if Counter(ca) != Counter(cb):
            return None
        if len(palette) == ncolors:
            return ca, cb
        ncolors = len(palette)


def _verify_mapping(ta, tb, m) -> bool:
    if sorted(m) != list(range(len(ta))):
        return False
    for v in range(len(ta)):
        if sorted((t, m[w]) for t, w in ta[v]) != sorted(tb[m[v]]):
            return False
    return True


def _search(ta, tb, forced):
    """Find a tagged-adjacency-preserving bijection extending forced, or
    None.  Branches on the smallest non-singleton color class."""
    res = _refine_pair(ta, tb, forced)
    if res is None:
        return None
    ca, cb = res
    cells_a: dict[int, list[int]] = {}
    cells_b: dict[int, list[int]] = {}
    for v, c in enumerate(ca):
        cells_a.setdefault(c, []).append(v)
    for v, c in enumerate(cb):
        cells_b.setdefault(c, []).append(v)
    split = [(len(vs), c) for c, vs in cells_a.items() if len(vs) > 1]
    if not split:
        m = [cells_b[c][0] for c in ca]
        return tuple(m) if _verify_mapping(ta, tb, m) else None
    _, c = min(split)
    v = min(cells_a[c])
    branch = dict(forced)
    for u in sorted(cells_b[c]):
        branch[v] = u
        m = _search(ta, tb, branch)
        if m is not None:
            return m
    return None


def automorphism_group(x: Graph | Digraph, seeds=()) -> PermGroup:
    """Full automorphism group, as generators with its exact order.

    Base point b_i is the first member of the first non-singleton cell
    of the partition refined with b_0..b_{i-1} fixed.  The levels are
    settled deepest first: the generators found at levels >= i fix
    b_0..b_{i-1}, and a search settles each cell member outside the
    orbit of b_i under them, adding a generator or certifying the gap.
    The seeds (candidate permutations, verified here) fix no base point,
    so they join at level 0 only.  The orbit of b_i is then that of the
    stabilizer of b_0..b_{i-1}, and |G| is the product of the orbit
    sizes (McKay 1981).  The refinement is discrete once b_0..b_{k-1}
    are fixed, so they are a base of the group.
    """
    ta = _tagged_adj(x)
    n = len(ta)
    base_cells: list[list[int]] = []
    while True:
        ca, _cb = _refine_pair(ta, ta, {c[0]: c[0] for c in base_cells})
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(ca):
            cells.setdefault(c, []).append(v)
        target = min((c for c, vs in cells.items() if len(vs) > 1), default=None)
        if target is None:
            break
        base_cells.append(sorted(cells[target]))
    gens: list[tuple[int, ...]] = []
    order = 1
    for level in reversed(range(len(base_cells))):
        b, *rest = base_cells[level]
        if level == 0:
            gens += [s for s in map(tuple, seeds) if _verify_mapping(ta, ta, s)]
        forced = {c[0]: c[0] for c in base_cells[:level]}
        orbit = _orbit(gens, b, tuple.__getitem__)
        for u in rest:
            if u in orbit:
                continue
            forced[b] = u
            m = _search(ta, ta, forced)
            if m is not None:
                gens.append(m)
                orbit = _orbit(gens, b, tuple.__getitem__)
        order *= len(orbit)
    group = PermGroup(n, tuple(gens))
    group._order = order
    group._base = tuple(c[0] for c in base_cells)
    return group


def arc_transitivity(g: Graph, group: PermGroup, max_len: int = 7) -> int:
    """Largest length (up to max_len) at which group, the automorphism
    group of g, still has a single orbit on arcs of that length."""
    best = 0
    for length in range(1, max_len + 1):
        arcs = enumerate_arcs(g, length)
        orbit = _orbit(group.generators, tuple(arcs[0]), _image)
        if len(orbit) != len(arcs):
            break
        best = length
    return best


def is_distance_transitive(g: Graph, group: PermGroup) -> bool:
    """Whether the orbit partition of group, the automorphism group of g,
    on ordered vertex pairs equals the partition by distance."""
    table = distances(g)
    classes: dict[int, set[tuple[int, int]]] = {}
    for u in range(g.order):
        for v in range(g.order):
            classes.setdefault(table.dist[u][v], set()).add((u, v))
    return all(
        _orbit(group.generators, min(pairs), lambda p, q: (p[q[0]], p[q[1]])).keys() == pairs
        for pairs in classes.values()
    )


# ---------------------------------------------------------------------------
# Cayley digraphs and concrete groups.


def cayley_digraph(elements, mult, generators) -> Digraph:
    """Digraph with one vertex per element and an arc x -> s*x for every
    generator s.  Elements must be hashable; generators must be listed
    elements other than the identity."""
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise GroupError("duplicate elements")
    arcs = []
    for s in generators:
        if s not in index:
            raise GroupError(f"generator {s!r} is not a listed element")
        if mult(s, elements[0]) == elements[0]:
            raise GroupError("identity is not allowed as a generator")
        for x in elements:
            arcs.append((index[x], index[mult(s, x)]))
    return build_digraph(len(elements), arcs)


def perm_mult(p, q) -> tuple[int, ...]:
    """Multiplication used for permutation Cayley digraphs (q first)."""
    return compose(p, q)


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


_GL32_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


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


def _transpose(m):
    return tuple(tuple(m[j][i] for j in range(3)) for i in range(3))


# Columns (100), (001), (010) and (001), (101), (010): an involution and
# an element of order 7 generating the whole group.
GL32_GENERATORS = (
    _transpose(((1, 0, 0), (0, 0, 1), (0, 1, 0))),
    _transpose(((0, 0, 1), (1, 0, 1), (0, 1, 0))),
)


def matrix_order(m) -> int:
    out = 1
    x = m
    while x != _GL32_IDENTITY:
        x = gl32_mult(x, m)
        out += 1
        if out > 168:
            raise GroupError("element order exceeds the group order")
    return out


# ---------------------------------------------------------------------------
# Digraph isomorphism and regular subgroups.


def digraph_isomorphic(a: Digraph, b: Digraph):
    """Explicit arc-preserving bijection from a to b, or None."""
    if a.order != b.order or len(a.arcs()) != len(b.arcs()):
        return None
    return _search(_tagged_adj(a), _tagged_adj(b), {})


def graph_isomorphic(a: Graph, b: Graph):
    """Explicit edge-preserving bijection from a to b, or None."""
    if a.order != b.order or a.num_edges() != b.num_edges():
        return None
    return _search(_tagged_adj(a), _tagged_adj(b), {})


def regular_subgroups(group: PermGroup, num_points: int) -> list[PermGroup]:
    """All subgroups of index at most 2 acting regularly on
    0..num_points-1, in a deterministic order (distinct index-2 subgroups
    can each act regularly).

    An index-2 subgroup is the kernel of a character, which gives each
    generator the value 0 or 1.  The orbit of the base is a Cayley graph
    of the group: each image gets the bit mask over the generators of
    its word in the orbit's spanning tree, and each edge outside the tree
    closes a relation whose mask is the sum of the two words and its
    generator.  The characters are the masks with an even overlap with
    every relation, found by elimination.  The kernel of one is generated
    by the Schreier generators of the transversal {1, g0}, g0 its first
    generator of value 1.  Its order is |G|/2, so transitivity alone
    decides regularity.
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
    words: dict[tuple[int, ...], int] = {}
    for y, step in group._base_orbit().items():
        words[y] = 0 if step is None else words[step[0]] ^ 1 << step[1]
    relations = {
        words[x] ^ 1 << i ^ words[_image(g, x)] for x in words for i, g in enumerate(gens)
    }
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
    found = []
    for choice in range(1, 1 << len(free)):
        character = sum(bit for j, bit in enumerate(free) if choice >> j & 1)
        character |= sum(p for p, row in rows.items() if (row & character).bit_count() % 2)
        g0 = gens[(character & -character).bit_length() - 1]
        g0_inv = inverse(g0)
        sub_gens = []
        for i, g in enumerate(gens):
            if character >> i & 1:
                sub_gens += [compose(g, g0_inv), compose(g0, g)]
            else:
                sub_gens += [g, compose(g0, compose(g, g0_inv))]
        sub = PermGroup(group.degree, tuple(sub_gens))
        sub._order = order // 2
        sub._base = group._base
        if sub.is_transitive(num_points):
            found.append(sub)
    return found


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
    index = {arc: i for i, arc in enumerate(s.arcs)}
    try:
        m = tuple(index[tuple(h[x] for x in s.arcs[v])] for v in range(s.order))
    except KeyError:
        return None
    if all(m[s.trans[v]] == s.trans[m[v]] for v in range(s.order)):
        if all(m[s.succ[v]] == s.succ[m[v]] for v in range(s.order)):
            return m
        phi = tuple(s.trans[x] for x in m)
        # cycle-arc reversal: succ maps phi(succ v) back to phi(v)
        if all(
            s.succ[phi[s.succ[v]]] == phi[v] and phi[s.trans[v]] == s.trans[phi[v]]
            for v in range(s.order)
        ):
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
    return automorphism_group(underlying(s.digraph), seeds=seeds)

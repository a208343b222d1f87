"""Permutation groups acting on graphs and digraphs: automorphism
groups, transitivity tests, Cayley digraphs, regular subgroups and
explicit isomorphisms.

Automorphism groups come from partition-refinement backtracking, which
also reads their orders off its search tree.  Membership, and the order
of a group given by bare generators, come from an in-repo stabilizer
chain built by deterministic Schreier-Sims on tuple permutations (Sims
1970; Seress, *Permutation Group Algorithms*, 2003, ch. 4).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import lcm, prod

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


def _perm_order(p) -> int:
    seen = [False] * len(p)
    out = 1
    for v in range(len(p)):
        if seen[v]:
            continue
        length = 0
        u = v
        while not seen[u]:
            seen[u] = True
            u = p[u]
            length += 1
        out = lcm(out, length)
    return out


def _orbit(gens, start, act) -> set:
    """Orbit of start under the group generated by gens, where act(g, x)
    is the image of x under g."""
    seen = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = act(g, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


class _Chain:
    """Stabilizer chain of a permutation group on 0..degree-1.

    Level i keeps a base point, the strong generators fixing the earlier
    base points, and a transversal mapping each point of the base
    point's orbit to an element carrying the base point there.  extend()
    keeps the chain complete, so that orbit is the one under the
    pointwise stabilizer of the earlier base points.  Inverses are
    computed when needed, not stored.
    """

    def __init__(self, degree: int):
        self.identity = tuple(range(degree))
        self.base: list[int] = []
        self.strong: list[list[tuple[int, ...]]] = []
        self.transversals: list[dict[int, tuple[int, ...]]] = []

    def order(self) -> int:
        return prod(len(t) for t in self.transversals)

    def sift(self, p, level: int = 0):
        """(residue, stop level) of p stripped from level on; the residue
        fixes the base points before the stop level."""
        for i in range(level, len(self.base)):
            x = p[self.base[i]]
            if x != self.base[i]:
                u = self.transversals[i].get(x)
                if u is None:
                    return p, i
                p = compose(inverse(u), p)
        return p, len(self.base)

    def contains(self, p) -> bool:
        return self.sift(tuple(p))[0] == self.identity

    def extend(self, g) -> bool:
        """Add g to the group; whether the group grew.  A non-trivial
        residue joins the levels it was sifted through, and the Schreier
        generators this makes go on a work stack for the next level."""
        grew = False
        work = [(tuple(g), 0)]
        while work:
            h, lo = work.pop()
            h, hi = self.sift(h, lo)
            if h == self.identity:
                continue
            grew = True
            if hi == len(self.base):
                b = next(x for x in self.identity if h[x] != x)
                self.base.append(b)
                self.strong.append([])
                self.transversals.append({b: self.identity})
            for i in range(lo, hi + 1):
                strong, trans = self.strong[i], self.transversals[i]
                strong.append(h)
                pairs = [(x, h) for x in trans]
                while pairs:
                    x, s = pairs.pop()
                    sx = compose(s, trans[x])
                    u = trans.get(s[x])
                    if u is None:
                        trans[s[x]] = sx
                        pairs += [(s[x], t) for t in strong]
                        continue
                    r, _ = self.sift(compose(inverse(u), sx), i + 1)
                    if r != self.identity:
                        work.append((r, i + 1))
        return grew


@dataclass
class PermGroup:
    """Finite permutation group on 0..degree-1 given by generators.

    The order is the one known at construction where the builder knows
    it (automorphism_group, regular_subgroups), and otherwise comes from
    the in-repo stabilizer chain, as membership does.  Orbits,
    transitivity and the elements are walked over the generators.
    """

    degree: int
    generators: tuple[tuple[int, ...], ...]
    _order: int | None = field(default=None, init=False, repr=False, compare=False)

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

    @cached_property
    def _chain(self) -> _Chain:
        chain = _Chain(self.degree)
        for g in self.generators:
            chain.extend(g)
        return chain

    def order(self) -> int:
        return self._order or self._chain.order()

    def orbit(self, x: int) -> set[int]:
        return _orbit(self.generators, x, tuple.__getitem__)

    def is_transitive(self, num_points: int | None = None) -> bool:
        n = self.degree if num_points is None else num_points
        return len(self.orbit(0)) == n if n > 0 else True

    def elements(self) -> list[tuple[int, ...]]:
        return sorted(_orbit(self.generators, tuple(range(self.degree)), compose))

    def order_spectrum(self) -> set[int]:
        """Orders of all elements, over the whole element list."""
        return {_perm_order(p) for p in self.elements()}

    def contains(self, p) -> bool:
        return self._chain.contains(p)


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
    sizes (McKay 1981); no stabilizer chain is built.
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
    return group


def arc_transitivity(g: Graph, group: PermGroup, max_len: int = 7) -> int:
    """Largest length (up to max_len) at which group, the automorphism
    group of g, still has a single orbit on arcs of that length."""
    best = 0
    for length in range(1, max_len + 1):
        arcs = enumerate_arcs(g, length)
        orbit = _orbit(group.generators, tuple(arcs[0]), lambda p, a: tuple(p[v] for v in a))
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
        _orbit(group.generators, min(pairs), lambda p, q: (p[q[0]], p[q[1]])) == pairs
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
    generator the value 0 or 1.  A character vanishes on K, the normal
    closure of the generator squares and commutators, so it is fixed by
    its values on the generators independent modulo K: every other
    generator takes the sum over the independent ones whose product it
    equals modulo K.  The kernel is generated by K, the generators of
    value 0 and g*g0 for the others, g0 the first of value 1.  Its order
    is |G|/2 by construction, so transitivity alone decides regularity
    and only K's stabilizer chain is built.
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
    words = [compose(g, g) for g in gens]
    words += [compose(inverse(compose(b, a)), compose(a, b)) for a in gens for b in gens]
    kernel = _Chain(group.degree)
    kernel_gens = []
    while words:
        w = words.pop()
        if kernel.extend(w):
            kernel_gens.append(w)
            words += [compose(g, compose(w, inverse(g))) for g in gens]
    # Each generator as a bit mask over the independent generators whose
    # product it equals modulo K; products[m] is the product for mask m.
    products = [kernel.identity]
    masks = []
    for g in gens:
        mask = next((m for m, r in enumerate(products) if kernel.contains(compose(r, g))), None)
        if mask is None:
            if len(products) == 8:
                raise GroupError("abelianized 2-quotient unexpectedly large")
            mask = len(products)
            products += [compose(g, r) for r in products]
        masks.append(mask)
    found = []
    for character in range(1, len(products)):
        values = [(m & character).bit_count() % 2 for m in masks]
        g0 = gens[values.index(1)]
        sub_gens = [g if v == 0 else compose(g, g0) for g, v in zip(gens, values) if g != g0]
        sub = PermGroup(group.degree, tuple(kernel_gens + sub_gens))
        sub._order = order // 2
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

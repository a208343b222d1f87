import hashlib
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cdtsep
from cdtsep import groups
from cdtsep.analysis import Analysis
from cdtsep.catalog import (
    GL32_GENERATORS, GL32_SEPARATOR_GENERATORS, CdtName, build_cdt, cdt_parameters, reference,
)
from cdtsep.graph6 import parse_graph6, write_graph6
from cdtsep.graphs import Digraph, build_digraph, build_graph, enumerate_arcs, underlying
from cdtsep.report import ingest_analysis, run_graph_report
from cdtsep.groups import (
    GroupError,
    PermGroup,
    alternating_elements,
    arc_transitivity,
    automorphism_group,
    cayley_digraph,
    cayley_isomorphism,
    compose,
    digraph_isomorphic,
    gl32_elements,
    gl32_mult,
    graph_isomorphic,
    induced_arc_permutation,
    inverse,
    is_distance_transitive,
    orientation_kernel,
    regular_subgroups,
    separator_automorphism_group,
    symmetric_elements,
)
from conftest import (
    bfs_distance_table, count_calls, generalized_petersen, hex_torus, random_cubic,
    separator_digraph,
)


def matrix_order(m) -> int:
    """Order of an invertible 3x3 matrix over GF(2), by repeated products."""
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    out, x = 1, m
    while x != identity:
        x = gl32_mult(x, m)
        out += 1
        assert out <= 168, "element order exceeds the group order"
    return out


def path3():
    return build_graph(3, [(0, 1), (1, 2)])


def closure(group):
    """Reference enumeration: every product of generators, by a
    breadth-first walk from the identity."""
    ident = tuple(range(group.degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in group.generators:
                q = compose(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def brute_force_automorphisms(n, arcs):
    """Reference: every permutation of 0..n-1 that maps the arc set onto
    itself (an undirected edge given as both arcs)."""
    arcs = set(arcs)
    return {
        p for p in itertools.permutations(range(n)) if all((p[u], p[v]) in arcs for u, v in arcs)
    }


def random_structures(count, directed, seed):
    """Seeded random graphs or digraphs on at most 7 vertices, with the
    arc set of each."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        density = rng.random()
        if directed:
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
            yield build_digraph(n, arcs), arcs
        else:
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
            yield build_graph(n, edges), edges + [(v, u) for u, v in edges]


def reference_arc_transitivity(g, group, max_len=7):
    """Reference: the largest s up to max_len at which the orbit of one
    s-arc under the whole group holds every s-arc of g, by a walk over
    all of them (a length with no s-arc ends the walk)."""
    best = 0
    for length in range(1, max_len + 1):
        arcs = enumerate_arcs(g, length)
        if not arcs or len(groups._orbit(group.generators, arcs[0], groups._image)) != len(arcs):
            break
        best = length
    return best


def reference_is_distance_transitive(g, group):
    """Reference: whether the group's orbits on ordered vertex pairs are
    the classes of pairs at equal distance, by a walk over all n^2 pairs
    of a connected g."""
    table = bfs_distance_table(g)
    classes = {}
    for u in range(g.order):
        for v in range(g.order):
            classes.setdefault(table[u][v], set()).add((u, v))
    return all(
        groups._orbit(group.generators, min(pairs), lambda p, q: (p[q[0]], p[q[1]])).keys() == pairs
        for pairs in classes.values()
    )


def circulant(n, jumps):
    return build_graph(n, {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps})


def transitivity_family(family):
    """Connected graphs of one family, seeded where random."""
    rng = random.Random(5)
    if family == "circulant":
        for _ in range(60):
            n = rng.randint(3, 14)
            g = circulant(n, rng.sample(range(1, n // 2 + 1), rng.randint(1, min(3, n // 2))))
            if g.is_connected():
                yield g
    elif family == "generalized-petersen":
        for n in range(3, 21):
            for k in range(1, (n + 1) // 2):
                yield generalized_petersen(n, k)
    elif family == "prism":
        for n in range(3, 13):
            yield generalized_petersen(n, 1)
    elif family == "moebius-ladder":
        for n in range(3, 13):
            yield circulant(2 * n, [1, n])
    elif family == "random":
        for _ in range(80):
            n = rng.randint(2, 12)
            density = rng.uniform(0.2, 0.8)
            g = build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density])
            if g.is_connected():
                yield g


def element_order(p):
    ident = tuple(range(len(p)))
    q, out = p, 1
    while q != ident:
        q, out = compose(p, q), out + 1
    return out


def index_two_subgroups(group):
    """Reference: every index-2 subgroup, as an element set, by a walk
    over unions of cosets of the subgroup the squares generate."""
    elements = sorted(closure(group))
    square_gens = []
    squares = closure(PermGroup(group.degree, ()))
    for p in elements:
        if compose(p, p) not in squares:
            square_gens.append(compose(p, p))
            squares = closure(PermGroup(group.degree, tuple(square_gens)))
    cosets = []
    for p in elements:
        if not any(p in c for c in cosets):
            cosets.append(frozenset(compose(p, s) for s in squares))
    if len(cosets) == 1:
        return []
    out = []
    for extra in itertools.combinations(cosets[1:], len(cosets) // 2 - 1):
        chosen = (cosets[0],) + extra
        sub = frozenset().union(*chosen)
        reps = [min(c) for c in chosen]
        if all(compose(a, b) in sub for a in reps for b in reps):
            out.append(sub)
    return out


def isomorphic(n, arcs, target, directed):
    """digraph_isomorphic or graph_isomorphic on two arc (edge) lists."""
    if directed:
        return digraph_isomorphic(build_digraph(n, arcs), build_digraph(n, target))
    return graph_isomorphic(build_graph(n, arcs), build_graph(n, target))


def two_in_two_out(rng, n):
    """Arcs v -> p(v) and v -> q(v) for two random permutations p and q
    that fix no point and agree nowhere."""
    while True:
        p, q = rng.sample(range(n), n), rng.sample(range(n), n)
        if all(v != p[v] != q[v] != v for v in range(n)):
            return [(v, p[v]) for v in range(n)] + [(v, q[v]) for v in range(n)]


def maps_onto(m, n, arcs, target, directed):
    """Whether m is a permutation of 0..n-1 carrying the arcs (edges)
    onto target."""
    if m is None or sorted(m) != list(range(n)):
        return False
    image = [(m[u], m[v]) for u, v in arcs]
    if directed:
        return set(image) == set(target)
    return {frozenset(e) for e in image} == {frozenset(e) for e in target}


CATALOG_GROUPS_SHA256 = "ed9af48e097712d032e1819cf3a518d5bb3b3821c293ec25eb22246f6ac3fa29"
# _individualize calls of automorphism_group over the twelve hosts
INDIVIDUALIZE_CALLS = 188
SOLVABLE = ["k4", "k33", "q3", "dodecahedral", "desargues", "coxeter", "tutte"]
CHAIN_CASES = [("host", n.value) for n in CdtName] + [("separator", t) for t in SOLVABLE]


class TestPermBasics:
    def test_compose_applies_right_factor_first(self):
        p = (1, 2, 0)
        q = (0, 2, 1)
        assert compose(p, q) == (1, 0, 2)
        assert compose(p, inverse(p)) == (0, 1, 2)

    def test_group_order_and_spectrum(self):
        g = PermGroup(3, ((1, 2, 0), (1, 0, 2)))
        assert g.order() == 6
        assert g.order_spectrum() == {1, 2, 3}
        assert g.is_transitive()

    def test_rejects_non_permutation(self):
        # a repeated entry, entries out of range or not integers, and
        # wrong lengths; the permutation of degree 0 is the empty tuple
        for g in ((0, 0, 1), (0, 1, 3), (-1, 0, 1), (0, 0.5, 2), (0, 1), (0, 1, 2, 3)):
            with pytest.raises(GroupError, match="not a permutation"):
                PermGroup(3, (g,))
        assert PermGroup(0, ((),)).generators == ()

    @pytest.mark.parametrize("degree", [0, 1, 2, 720])
    def test_products_and_images_equal_the_map_form(self, degree):
        rng = random.Random(degree)
        p, q = (tuple(rng.sample(range(degree), degree)) for _ in range(2))
        assert compose(p, q) == tuple(map(p.__getitem__, q))
        for size in sorted({0, min(degree, 1), min(degree, 2), degree}):
            points = tuple(rng.choices(range(degree), k=size))
            assert groups._image(p, points) == tuple(map(p.__getitem__, points))

    def test_orbit_equals_the_schreier_vector(self):
        # seeded random groups, with no generators, degrees 0 and 1, and
        # one n-cycle, whose walk has one point on every frontier
        rng = random.Random(31)
        cases = [(0, [()]), (1, []), (1, [(0,)]), (4, []), (7, [(1, 2, 3, 4, 5, 6, 0)])]
        for _ in range(300):
            n = rng.randint(1, 9)
            cases.append((n, [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]))
        for n, gens in cases:
            group = PermGroup(n, gens)
            orbits = [group.orbit(x) for x in range(n)]
            assert orbits == [
                groups._orbit(group.generators, x, tuple.__getitem__).keys() for x in range(n)
            ]
            assert group.is_transitive() == (n == 0 or len(orbits[0]) == n)

    def test_trivial_group(self):
        g = PermGroup(4, ())
        assert g.order() == 1
        assert g.order_spectrum() == {1}
        assert not g.is_transitive()

    @given(
        st.integers(min_value=1, max_value=7).flatmap(
            lambda n: st.tuples(
                st.lists(st.permutations(range(n)), max_size=3),
                st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True),
            )
        )
    )
    def test_orbit_is_breadth_first(self, case):
        # each entry's depth in the Schreier tree is its distance from
        # the start in the orbit graph, for points and for point tuples
        gens, start = case
        gens = [tuple(g) for g in gens]
        for start, act in ((start[0], tuple.__getitem__), (tuple(start), groups._image)):
            tree = groups._orbit(gens, start, act)
            distance = {start: 0}
            frontier = [start]
            while frontier:
                reached = []
                for x in frontier:
                    for g in gens:
                        y = act(g, x)
                        if y not in distance:
                            distance[y] = distance[x] + 1
                            reached.append(y)
                frontier = reached
            assert tree.keys() == distance.keys()
            for y in tree:
                x, depth = y, 0
                while tree[x] is not None:
                    parent, i = tree[x]
                    assert act(gens[i], parent) == x
                    x, depth = parent, depth + 1
                assert depth == distance[y]


class TestAutomorphisms:
    def test_path_graph(self):
        assert automorphism_group(path3()).order() == 2

    def test_k2(self):
        assert automorphism_group(build_graph(2, [(0, 1)])).order() == 2

    def test_directed_triangle(self):
        d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert automorphism_group(d).order() == 3

    @pytest.mark.parametrize("name", list(CdtName), ids=lambda n: n.value)
    def test_catalog_orders(self, name):
        g, _ = build_cdt(name)
        assert automorphism_group(g).order() == cdt_parameters(name).a

    def test_seeds_do_not_change_the_answer(self):
        g, _ = build_cdt(CdtName.PETERSEN)
        plain = automorphism_group(g)
        seeded = automorphism_group(g, seeds=plain.elements()[:40])
        assert seeded.order() == plain.order() == 120

    @pytest.mark.parametrize("directed", [False, True], ids=["graph", "digraph"])
    @pytest.mark.parametrize("seeded", [False, True], ids=["plain", "seeded"])
    def test_order_against_brute_force(self, directed, seeded):
        rng = random.Random(2)
        for x, arcs in random_structures(150, directed, seed=int(directed)):
            reference = brute_force_automorphisms(x.order, arcs)
            seeds = ()
            if seeded:
                # some automorphisms, and one permutation that may not be one
                seeds = rng.sample(sorted(reference), rng.randint(0, min(4, len(reference))))
                seeds.append(tuple(rng.sample(range(x.order), x.order)))
            group = automorphism_group(x, seeds=seeds)
            assert group.order() == len(reference), arcs
            assert closure(group) == reference, arcs
            assert sorted(group.elements()) == sorted(reference), arcs


def tagged_adj(x):
    """Tagged neighbor lists, as groups._refine read them before plain
    ones: (0, w) for an out-arc or an edge, (1, w) for an in-arc."""
    if isinstance(x, Digraph):
        inn = x.in_adj()
        return [[(0, w) for w in x.out_adj[v]] + [(1, w) for w in inn[v]] for v in range(x.order)]
    return [[(0, w) for w in x.adj[v]] for v in range(x.order)]


def reference_refine(ta, tb, pair, moved_a, moved_b):
    """Reference: groups._refine as it signed members before per-vertex
    signers, over tagged adjacency, each key built by one list
    comprehension of 2 * color + tag."""
    ca, cb, cells = pair
    diagonal = ca is cb
    while moved_a:
        touched = {ca[w] for v in moved_a for _, w in ta[v]}
        if not diagonal:
            touched.update(cb[w] for v in moved_b for _, w in tb[v])
        moved_a, moved_b = [], []
        for c in sorted(touched):
            members_a, members_b = cells[c]
            if len(members_a) == 1:
                continue
            parts = {}
            for v in members_a:
                key = tuple(sorted([2 * ca[w] + tag for tag, w in ta[v]]))
                parts.setdefault(key, ([], []))[0].append(v)
            if not diagonal:
                for v in members_b:
                    key = tuple(sorted([2 * cb[w] + tag for tag, w in tb[v]]))
                    parts.setdefault(key, ([], []))[1].append(v)
            if len(parts) == 1:
                continue
            for i, key in enumerate(sorted(parts)):
                part_a, part_b = parts[key]
                part_a = tuple(part_a)
                if diagonal:
                    part_b = part_a
                elif len(part_a) != len(part_b):
                    return None
                else:
                    part_b = tuple(part_b)
                if i == 0:
                    cells[c] = part_a, part_b
                    continue
                fresh = len(cells)
                cells.append((part_a, part_b))
                for v in part_a:
                    ca[v] = fresh
                moved_a += part_a
                if not diagonal:
                    for v in part_b:
                        cb[v] = fresh
                    moved_b += part_b
    return pair


def unit(n):
    """The unit partition (colors, cells) of n vertices, unrefined."""
    return [0] * n, [tuple(range(n))] if n else []


def reference_pair(part, two_sided):
    """part, a partition (colors, cells) of one side, as a reference
    pair: its colors on both sides, one list for both unless two_sided,
    and each class twinned with itself."""
    ca = part[0][:]
    return ca, ca[:] if two_sided else ca, [(x, x) for x in part[1]]


def sides_of(pair):
    """The two partitions (colors, cells) of a reference pair."""
    ca, cb, cells = pair
    return (ca, [x for x, _y in cells]), (cb, [y for _x, y in cells])


def two_sided_levels(t, n):
    """Reference: the base levels of the automorphism search built as
    in groups._levels, but by reference_refine over t, tagged adjacency
    of n vertices, from a root pair whose two sides are separate lists
    (ca is not cb), so every refine signs both sides."""
    pair = reference_refine(t, t, reference_pair(unit(n), True), range(n), range(n))
    levels = []
    while True:
        split = [a for a, _b in pair[2] if len(a) > 1]
        if not split:
            return levels, pair
        target = max(split, key=len)
        b = min(target)
        levels.append((pair, b, sorted(target)))
        pair = reference_refine(t, t, unrefined(pair, b, b, True), [b], [b])


def level_structures(analysis_of):
    """(label, graph or digraph) for the refinement checks: seeded
    random graphs and digraphs, every catalog host graph, the underlying
    graph and the digraph of every catalog separator, graphs and a
    digraph with vertices of degree 0 and 1, and n = 0 and 1."""
    out = [(f"random-{int(d)}-{i}", x)
           for d in (False, True) for i, (x, _) in enumerate(random_structures(100, d, seed=11))]
    for name in CdtName:
        out.append((name.value, build_cdt(name)[0]))
    for text in SOLVABLE:
        s = analysis_of(text).separator
        out += [(f"{text}-separator", s.under), (f"{text}-separator-digraph", separator_digraph(s))]
    out += [
        ("path-and-isolated", build_graph(6, [(0, 1), (1, 2), (3, 4)])),
        ("star", build_graph(5, [(0, 1), (0, 2), (0, 3)])),
        ("matching", build_graph(6, [(0, 1), (2, 3), (4, 5)])),
        ("pendant-digraph", build_digraph(5, [(0, 1), (1, 2), (3, 1)])),
    ]
    return out + [("empty", build_graph(0, [])), ("single", build_graph(1, []))]


def unrefined(pair, v, u, two_sided):
    """A copy of pair, a reference pair, with v on side a and u on side
    b alone in a fresh color and not yet refined; the copy is diagonal,
    one list for both sides, unless two_sided."""
    ca, cb, cells = pair
    ca = ca[:]
    cb = cb[:] if two_sided else ca
    cells = cells[:]
    members_a, members_b = cells[ca[v]]
    cells[ca[v]] = tuple(w for w in members_a if w != v), tuple(w for w in members_b if w != u)
    ca[v] = cb[u] = len(cells)
    cells.append(((v,), (u,)))
    return ca, cb, cells


class TestSigners:
    """_refine signs members with per-vertex signers; the tagged list
    comprehension it replaced, in the two-sided reference refine, is the
    reference."""

    @pytest.fixture(scope="class")
    def structures(self, analysis_of):
        return level_structures(analysis_of) + cubic_and_circulant_structures()

    def test_refine_equals_the_tagged_reference(self, structures):
        # the one-sided refine equals the reference on one list and on two
        # equal lists; individualizing b on side a and u on side b, _twins
        # accepts exactly where the two-sided reference gives a pair, and
        # the two partitions are then its two sides
        checked = refuted = 0
        for label, x in structures:
            side, t, n = groups._side(x), tagged_adj(x), x.order
            root = groups._root(side)
            for two_sided in (False, True):
                want = reference_refine(t, t, reference_pair(unit(n), two_sided), range(n), range(n))
                assert sides_of(want) == (root, root), label
            for part, b, cell in groups._levels(side)[0]:
                starts = [(b, False), (b, True)] + [(u, True) for u in cell[1:7]]
                for u, two_sided in starts:
                    pa, pb = (groups._individualize(side, part, w) for w in (b, u))
                    pair = reference_pair(part, two_sided)
                    want = reference_refine(t, t, unrefined(pair, b, u, two_sided), [b], [u])
                    assert groups._twins(side, side, pa, pb) == (want is not None), (label, b, u)
                    assert want is None or sides_of(want) == (pa, pb), (label, b, u)
                    checked += 1
                    refuted += want is None
        assert any(0 in map(len, getattr(x, "adj", ())) for _, x in structures)
        assert any(1 in map(len, getattr(x, "adj", ())) for _, x in structures)
        assert checked > 2500 and refuted > 200


class TestDiagonalLevels:
    """The automorphism search refines each level partition on one side;
    the reference, refining two equal copies in lockstep, gives the same
    partition on both sides, id for id."""

    @pytest.fixture(scope="class")
    def structures(self, analysis_of):
        return level_structures(analysis_of)

    def test_equal_to_the_two_sided_refine(self, structures):
        for label, x in structures:
            (levels, discrete), (reference, ref_discrete) = (
                groups._levels(groups._side(x)), two_sided_levels(tagged_adj(x), x.order))
            assert len(levels) == len(reference), label
            for (part, b, cell), (ref_pair, ref_b, ref_cell) in zip(levels, reference):
                assert sides_of(ref_pair) == (part, part), label
                assert (b, cell) == (ref_b, ref_cell), label
            assert sides_of(ref_discrete) == (discrete, discrete), label
            assert all(len(x) == 1 for x in discrete[1]), label
        assert any(x.order == 0 for _, x in structures)
        assert any(x.order == 1 for _, x in structures)

    def test_searching_leaves_the_levels_unchanged(self, structures, monkeypatch):
        built = []
        original = groups._levels

        def recorded(side):
            built.append(original(side))
            return built[-1]

        monkeypatch.setattr(groups, "_levels", recorded)
        searched = 0
        for label, x in structures:
            built.clear()
            group = automorphism_group(x)
            searched += group.order() > 1
            assert built == [original(groups._side(x))], label
        assert searched > 100


def cubic_and_circulant_structures():
    """(label, graph): seeded random cubic graphs, where refinement
    refutes most candidate images of a base point, GP(n, k) and
    connected circulants."""
    rng = random.Random(25)
    out = [(f"cubic-{i}", random_cubic(rng.randrange(8, 32, 2), rng)) for i in range(40)]
    out += [(f"gp-{n}-{k}", generalized_petersen(n, k))
            for n in range(3, 13) for k in range(1, (n + 1) // 2)]
    return out + [(f"circulant-{i}", g) for i, g in enumerate(transitivity_family("circulant"))]


def candidate_structures(analysis_of):
    """(label, graph or digraph) for the candidate-start checks: those
    of cubic_and_circulant_structures, every catalog host graph and the
    underlying graph and digraph of every catalog separator."""
    out = cubic_and_circulant_structures()
    out += [(name.value, build_cdt(name)[0]) for name in CdtName]
    for text in SOLVABLE:
        s = analysis_of(text).separator
        out += [(f"{text}-separator", s.under), (f"{text}-separator-digraph", separator_digraph(s))]
    return out


def walk_beside_the_reference(a, b, ta, tb, pa, pb, pair, nodes):
    """groups._search from the node (pa, pb) of sides a and b, whose
    tagged adjacency is ta and tb, walked node by node beside the
    two-sided reference: pair is the node's reference pair, or None
    where the reference refutes it.  Wherever the reference gives a
    pair, the two partitions must be its two sides, and _twins may
    accept only there.  Each node is counted in nodes by (whether
    _twins accepts it, whether the reference gives a pair); the mapping
    found is returned."""
    stack = []
    while True:
        accepted = groups._twins(a, b, pa, pb)
        assert pair is not None or not accepted
        assert pair is None or sides_of(pair) == (pa, pb)
        nodes[accepted, pair is not None] += 1
        if accepted:
            split = [(len(x), c) for c, x in enumerate(pa[1]) if len(x) > 1]
            if not split:
                m = tuple(pb[1][c][0] for c in pa[0])
                if groups._verify_mapping(a, b, m):
                    return m
            else:
                c = min(split)[1]
                v = min(pa[1][c])
                child = groups._individualize(a, pa, v)
                stack.append((child, pb, pair, v, sorted(pb[1][c], reverse=True)))
        while stack and not stack[-1][-1]:
            stack.pop()
        if not stack:
            return None
        pa, node_b, node_pair, v, candidates = stack[-1]
        u = candidates.pop()
        pb = groups._individualize(b, node_b, u)
        pair = reference_refine(ta, tb, unrefined(node_pair, v, u, True), [v], [u])


class TestCandidateStart:
    """The automorphism search refines each side of every node on its
    own and matches the two with _twins; the two-sided reference refine
    is the oracle, from each candidate start down through its search."""

    def test_equals_the_two_sided_individualize(self, analysis_of):
        rng = random.Random(26)
        tried, refuted, sizes_only = Counter(), Counter(), Counter()
        deeper = 0  # accepted nodes below the starts
        for label, x in candidate_structures(analysis_of):
            side, t = groups._side(x), tagged_adj(x)
            levels, discrete = groups._levels(side)
            family = label.split("-")[0]
            for i, (part, b, cell) in enumerate(levels):
                below = levels[i + 1][0] if i + 1 < len(levels) else discrete
                others = [u for u in cell if u != b]
                for u in others if len(others) <= 40 else rng.sample(others, 40):
                    start = groups._individualize(side, part, u)
                    pair = reference_refine(t, t, unrefined(reference_pair(part, True), b, u, True),
                                            [b], [u])
                    nodes = Counter()
                    found = walk_beside_the_reference(side, side, t, t, below, start, pair, nodes)
                    assert found == groups._search(side, side, below, start), (label, b, u)
                    tried[family] += 1
                    # in the automorphism search _twins accepts exactly
                    # where the reference gives a pair
                    assert nodes[False, True] == 0, (label, b, u)
                    deeper += nodes[True, True] - (pair is not None)
                    if pair is None:
                        refuted[family] += 1
                        # would class sizes alone have accepted it?
                        sizes_only[family] += list(map(len, start[1])) == list(map(len, below[1]))
        assert tried["cubic"] > 700 and tried["cubic"] > refuted["cubic"] > tried["cubic"] / 2
        assert tried["gp"] > refuted["gp"] > 100 and tried["circulant"] > 400
        assert sizes_only["cubic"] > 100
        assert all(tried[name.value.split("-")[0]] > 10 for name in CdtName)
        assert deeper > 2000

    def test_individualize_calls_over_the_hosts(self, monkeypatch):
        # the levels individualize each base point once, and each search
        # node side a's branching vertex once and each candidate on side b
        calls = 0
        original = groups._individualize

        def counted(side, part, v):
            nonlocal calls
            calls += 1
            return original(side, part, v)

        monkeypatch.setattr(groups, "_individualize", counted)
        for name in CdtName:
            automorphism_group(build_cdt(name)[0])
        assert calls == INDIVIDUALIZE_CALLS


class TestVerifyMapping:
    def test_accepts_automorphisms_and_isomorphisms(self):
        cycle = groups._side(circulant(5, [1]))
        assert groups._verify_mapping(cycle, cycle, (1, 2, 3, 4, 0))
        assert groups._verify_mapping(cycle, cycle, [4, 3, 2, 1, 0])
        a = groups._side(build_digraph(3, [(0, 1), (1, 2)]))
        b = groups._side(build_digraph(3, [(2, 0), (0, 1)]))
        assert groups._verify_mapping(a, b, (2, 0, 1))

    def test_rejects_a_non_bijection(self):
        cycle = groups._side(circulant(4, [1]))
        assert not groups._verify_mapping(cycle, cycle, (0, 1, 2, 2))
        assert not groups._verify_mapping(cycle, cycle, (0, 1, 2))
        assert not groups._verify_mapping(cycle, cycle, (0, 1, 2, 3, 4))
        # an isolated vertex leaves every arc's image an arc
        edge = groups._side(build_graph(3, [(0, 1)]))
        assert not groups._verify_mapping(edge, edge, (0, 1, 1))
        assert groups._verify_mapping(edge, edge, (1, 0, 2))

    def test_rejects_a_transposition_that_is_no_automorphism(self):
        path = groups._side(path3())
        assert not groups._verify_mapping(path, path, (1, 0, 2))
        assert groups._verify_mapping(path, path, (2, 1, 0))

    def test_rejects_one_reversed_arc(self):
        a = groups._side(build_digraph(3, [(0, 1), (1, 2), (2, 0)]))
        b = groups._side(build_digraph(3, [(1, 0), (1, 2), (2, 0)]))
        assert not groups._verify_mapping(a, b, (0, 1, 2))
        assert groups._verify_mapping(a, a, (1, 2, 0))

    def test_search_returns_only_verified_mappings(self):
        # a discrete pair names one mapping, which the search returns only
        # when it is an isomorphism; _twins refutes the transposition
        path = groups._side(path3())

        def discrete(m):
            return list(inverse(m)), [(w,) for w in m]

        identity = discrete((0, 1, 2))
        assert not groups._twins(path, path, identity, discrete((1, 0, 2)))
        assert groups._search(path, path, identity, discrete((1, 0, 2))) is None
        assert groups._search(path, path, identity, discrete((2, 1, 0))) == (2, 1, 0)

    def test_rejects_different_arc_counts(self):
        path, triangle = groups._side(path3()), groups._side(circulant(3, [1]))
        assert not groups._verify_mapping(path, triangle, (0, 1, 2))
        assert not groups._verify_mapping(triangle, path, (0, 1, 2))


class TestTransitivity:
    @pytest.mark.parametrize(
        "text,expected",
        [("q3", 2), ("petersen", 3), ("heawood", 4), ("tutte", 5), ("foster", 5)],
    )
    def test_arc_transitivity(self, text, expected, analysis_of):
        a = analysis_of(text)
        assert arc_transitivity(a.graph, a.host_group) == expected

    def test_distance_transitive_catalog_sample(self, analysis_of):
        for text in ("k4", "petersen", "coxeter"):
            a = analysis_of(text)
            assert is_distance_transitive(a.graph, a.host_group)

    def test_distance_transitivity_fails_with_chord(self):
        cycle_with_chord = build_graph(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]
        )
        group = automorphism_group(cycle_with_chord)
        assert not is_distance_transitive(cycle_with_chord, group)

    def test_catalog_against_whole_group_walks(self, analysis_of):
        for name in CdtName:
            a = analysis_of(name.value)
            assert arc_transitivity(a.graph, a.host_group) == a.row.k
            assert reference_arc_transitivity(a.graph, a.host_group) == a.row.k
            assert is_distance_transitive(a.graph, a.host_group)
            assert reference_is_distance_transitive(a.graph, a.host_group)

    @pytest.mark.parametrize(
        "family", ["circulant", "generalized-petersen", "prism", "moebius-ladder", "random"]
    )
    def test_families_against_whole_group_walks(self, family):
        verdicts = Counter()
        for g in transitivity_family(family):
            group = automorphism_group(g)
            k = arc_transitivity(g, group)
            distance = is_distance_transitive(g, group)
            assert k == reference_arc_transitivity(g, group), g
            assert distance == reference_is_distance_transitive(g, group), g
            verdicts[k > 0, distance] += 1
        # each family mixes distance-transitive members with members
        # that are not even arc-transitive; random graphs are mostly the
        # latter
        assert verdicts[False, False] > 20 if family == "random" else verdicts[True, True]
        assert verdicts[False, False]

    def test_nauru_is_arc_but_not_distance_transitive(self):
        nauru = generalized_petersen(12, 5)
        group = automorphism_group(nauru)
        assert group.order() == 144
        assert arc_transitivity(nauru, group) == 2
        assert not is_distance_transitive(nauru, group)

    def test_vertex_transitivity_is_required(self):
        # from an end of the path every sphere is one vertex and every
        # s-arc is alone, but the group moves no end to the middle
        group = automorphism_group(path3())
        assert arc_transitivity(path3(), group) == 0
        assert not is_distance_transitive(path3(), group)

    def test_asymmetric_graph(self):
        # a tree with legs of lengths 1, 2 and 3: refinement alone makes
        # the partition discrete, so the base is empty
        spider = build_graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        group = automorphism_group(spider)
        assert group.order() == 1 and group._base == ()
        assert group._stabilizer is group
        assert arc_transitivity(spider, group) == 0
        assert not is_distance_transitive(spider, group)

    def test_group_without_recorded_stabilizer_rejected(self):
        hexagon = circulant(6, [1])
        group = automorphism_group(hexagon)
        subgroups = regular_subgroups(group, 6)
        assert len(subgroups) == 2
        for bare in [PermGroup(6, group.generators), *subgroups]:
            with pytest.raises(GroupError):
                arc_transitivity(hexagon, bare)
            with pytest.raises(GroupError):
                is_distance_transitive(hexagon, bare)

    def test_tutte_order_identity(self, analysis_of):
        # a cubic s-arc-transitive graph has |Aut| = 3n * 2^(s-1) for its
        # largest s: the stabilizer of a vertex is regular on its s-arcs
        for name in CdtName:
            a = analysis_of(name.value)
            group, k = a.host_group, arc_transitivity(a.graph, a.host_group)
            assert group.order() == 3 * a.graph.order * 2 ** (k - 1)
            assert group._stabilizer.order() == 3 * 2 ** (k - 1)


class TestRecordedStabilizer:
    """The point stabilizer automorphism_group records, against the
    brute-force automorphisms that fix the first base point."""

    @pytest.mark.parametrize("directed", [False, True], ids=["graph", "digraph"])
    @pytest.mark.parametrize("seeded", [False, True], ids=["plain", "seeded"])
    def test_against_brute_force(self, directed, seeded):
        rng = random.Random(3)
        for x, arcs in random_structures(150, directed, seed=2 + int(directed)):
            reference = brute_force_automorphisms(x.order, arcs)
            seeds = []
            if seeded:
                seeds = rng.sample(sorted(reference), rng.randint(0, min(4, len(reference))))
                seeds.append(tuple(rng.sample(range(x.order), x.order)))
            group = automorphism_group(x, seeds=seeds)
            stabilizer = group._stabilizer
            b0 = group._base[0] if group._base else 0
            fixing = {p for p in reference if p[b0] == b0}
            assert closure(stabilizer) == fixing, arcs
            assert stabilizer.elements() == sorted(fixing), arcs
            assert stabilizer.order() * len(group.orbit(b0)) == group.order(), arcs
            assert all(s[b0] == b0 for s in seeds if s in stabilizer.generators), arcs


class TestCayley:
    def test_z2_pair(self):
        d = cayley_digraph([0, 1], lambda a, b: a ^ b, [1])
        assert sorted(d.arcs()) == [(0, 1), (1, 0)]

    def test_identity_generator_rejected(self):
        with pytest.raises(GroupError):
            cayley_digraph([0, 1], lambda a, b: a ^ b, [0])

    def test_unknown_generator_rejected(self):
        with pytest.raises(GroupError):
            cayley_digraph([0, 1], lambda a, b: a ^ b, [2])

    def test_element_tables(self):
        assert len(symmetric_elements(4)) == 24
        assert len(alternating_elements(4)) == 12
        assert all(p in symmetric_elements(4) for p in alternating_elements(4))

    def test_a4_cayley_is_vertex_transitive(self):
        elements = alternating_elements(4)
        d = cayley_digraph(elements, compose, [(1, 2, 0, 3), (1, 0, 3, 2)])
        assert automorphism_group(d).is_transitive()


class TestGl32:
    def test_group_size(self):
        assert len(gl32_elements()) == 168

    def test_generator_orders(self):
        a, b = GL32_GENERATORS
        assert matrix_order(a) == 2
        assert matrix_order(b) == 7
        assert matrix_order(gl32_mult(a, b)) == 3

    def test_generators_generate(self):
        a, b = GL32_GENERATORS
        seen = {((1, 0, 0), (0, 1, 0), (0, 0, 1))}
        frontier = list(seen)
        while frontier:
            x = frontier.pop()
            for s in (a, b):
                y = gl32_mult(s, x)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        assert len(seen) == 168


class TestIsomorphism:
    def test_digraph_identity_and_relabel(self):
        d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        e = build_digraph(3, [(1, 0), (0, 2), (2, 1)])
        assert digraph_isomorphic(d, d) == (0, 1, 2)
        m = digraph_isomorphic(d, e)
        assert m is not None
        for u, v in d.arcs():
            assert (m[u], m[v]) in e.arcs()

    def test_digraph_negative(self):
        d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        e = build_digraph(3, [(0, 1), (1, 0), (2, 0)])
        assert digraph_isomorphic(d, e) is None

    def test_graph_negative_same_degree_sequence(self):
        hexagon = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
        two_triangles = build_graph(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        assert graph_isomorphic(hexagon, two_triangles) is None

    def test_edgeless_beyond_recursion_limit(self):
        # one search level per vertex, deeper than the recursion limit
        n = sys.getrecursionlimit() + 1
        m = graph_isomorphic(build_graph(n, []), build_graph(n, []))
        assert m is not None and sorted(m) == list(range(n))

    @pytest.mark.parametrize("directed", [False, True], ids=["graph", "digraph"])
    def test_relabelled_copies(self, directed):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 12)
            density = rng.random()
            pool = itertools.permutations(range(n), 2) if directed else itertools.combinations(range(n), 2)
            arcs = [e for e in pool if rng.random() < density]
            relabel = rng.sample(range(n), n)
            moved = [(relabel[u], relabel[v]) for u, v in arcs]
            m = isomorphic(n, arcs, moved, directed)
            assert maps_onto(m, n, arcs, moved, directed), arcs

    @pytest.mark.parametrize("directed", [False, True], ids=["graph", "digraph"])
    def test_equal_order_and_size_against_networkx(self, directed):
        # every other pair is regular: two random cubic graphs, or two
        # digraphs with two out-arcs and two in-arcs at every vertex.  They
        # share their degrees, so refining the unit partition often
        # leaves them standing and the search itself has to refute them.
        # Every search is walked beside the two-sided reference refine
        rng = random.Random(13)
        searched = 0
        nodes = Counter()
        for case in range(400):
            if case % 2:
                n = 2 * rng.randint(2, 7)
                if directed:
                    sides = [two_in_two_out(rng, n) for _ in range(2)]
                else:
                    sides = [
                        list(nx.random_regular_graph(3, n, seed=rng.randrange(10**6)).edges())
                        for _ in range(2)
                    ]
            else:
                n = rng.randint(1, 12)
                pool = list(itertools.combinations(range(n), 2))
                size = rng.randint(0, len(pool))
                sides = [rng.sample(pool, size) for _ in range(2)]
                if directed:
                    sides = [[(u, v) if rng.random() < 0.5 else (v, u) for u, v in x] for x in sides]
            oracle = [nx.DiGraph() if directed else nx.Graph() for _ in sides]
            for graph, edges in zip(oracle, sides):
                graph.add_nodes_from(range(n))
                graph.add_edges_from(edges)
            matcher = nx.isomorphism.DiGraphMatcher if directed else nx.isomorphism.GraphMatcher
            m = isomorphic(n, *sides, directed)
            build = build_digraph if directed else build_graph
            xa, xb = (build(n, x) for x in sides)
            a, b = groups._side(xa), groups._side(xb)
            ta, tb = tagged_adj(xa), tagged_adj(xb)
            pair = reference_refine(ta, tb, reference_pair(unit(n), True), range(n), range(n))
            root = groups._root(a), groups._root(b)
            assert walk_beside_the_reference(a, b, ta, tb, *root, pair, nodes) == m, sides
            if matcher(*oracle).is_isomorphic():
                assert maps_onto(m, n, *sides, directed), sides
            else:
                assert m is None, sides
                searched += pair is not None
        assert searched > 10 and nodes[False, False] > 1000

    def test_coxeter_reference_matrices_refuted(self, analysis_of):
        # the reference pair's Cayley digraph is not the separator; the
        # corrected pair's is
        s = analysis_of("coxeter").separator
        elements = gl32_elements()
        reference = cayley_digraph(elements, gl32_mult, list(GL32_GENERATORS))
        assert digraph_isomorphic(separator_digraph(s), reference) is None
        corrected = cayley_digraph(elements, gl32_mult, list(GL32_SEPARATOR_GENERATORS))
        assert digraph_isomorphic(separator_digraph(s), corrected) is not None

    @pytest.mark.parametrize("directed", [False, True], ids=["graph", "digraph"])
    def test_unequal_orders_and_one_extra_arc(self, directed):
        build = build_digraph if directed else build_graph
        test = digraph_isomorphic if directed else graph_isomorphic
        cycle = [(0, 1), (1, 2), (2, 3), (3, 0)]
        for m, n in ((0, 1), (1, 0), (3, 4), (5, 4)):
            assert test(build(m, []), build(n, [])) is None
        assert test(build(4, cycle), build(5, cycle)) is None
        assert test(build(4, cycle), build(4, cycle)) is not None
        assert test(build(4, cycle), build(4, cycle + [(0, 2)])) is None
        assert test(build(4, cycle + [(0, 2)]), build(4, cycle)) is None


def half_order_cases(kind):
    """Seeded random groups for the index-2 checks: bare generators take
    every point as their base; automorphism groups of random graphs
    carry a short one."""
    rng = random.Random(7)
    if kind == "generators":
        cases = []
        for _ in range(250):
            n = rng.randint(1, 6)
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 4))]
            cases.append(PermGroup(n, tuple(gens)))
        return cases
    return [automorphism_group(x) for x, _ in random_structures(250, False, seed=7)]


def kernel_spectra_cases(analysis_of):
    """(label, group, point count) for the kernel-spectrum checks: the
    separator groups of k33, desargues and tutte, and the random groups
    of even order with at most seven index-2 subgroups."""
    out = []
    for text in ("k33", "desargues", "tutte"):
        a = analysis_of(text)
        out.append((text, a.separator_group, a.separator.order))
    for kind in ("generators", "graph"):
        for i, group in enumerate(half_order_cases(kind)):
            if group.order() % 2 == 0 and len(index_two_subgroups(group)) <= 7:
                out.append((f"{kind}-{i}", group, group.order() // 2))
    return out


class TestRegularSubgroups:
    def test_whole_group_already_regular(self):
        g = PermGroup(3, ((1, 2, 0),))
        assert regular_subgroups(g, 3) == [g]

    def test_index_too_large(self):
        s3 = PermGroup(3, ((1, 2, 0), (1, 0, 2)))
        with pytest.raises(GroupError):
            regular_subgroups(s3, 1)

    def test_not_a_divisor(self):
        s3 = PermGroup(3, ((1, 2, 0), (1, 0, 2)))
        with pytest.raises(GroupError):
            regular_subgroups(s3, 4)

    def test_index_two_in_s3(self):
        s3 = PermGroup(3, ((1, 2, 0), (1, 0, 2)))
        found = regular_subgroups(s3, 3)
        assert [g.order() for g in found] == [3]

    @pytest.mark.parametrize(
        "text,candidates,regular", [("k33", 3, 2), ("desargues", 3, 2), ("tutte", 3, 2)]
    )
    def test_separator_groups_against_reference(self, text, candidates, regular, analysis_of):
        a = analysis_of(text)
        group, n = a.separator_group, a.separator.order
        reference = index_two_subgroups(group)
        transitive = {h for h in reference if len({p[0] for p in h}) == n}
        assert (len(reference), len(transitive)) == (candidates, regular)
        found = regular_subgroups(group, n)
        assert [frozenset(closure(h)) for h in found] == [
            frozenset(closure(h)) for h in regular_subgroups(group, n)
        ]
        assert len(found) == regular
        assert {frozenset(closure(h)) for h in found} == transitive

    @pytest.mark.parametrize("kind", ["generators", "graph"])
    def test_half_order_against_reference(self, kind):
        checked = 0
        for group in half_order_cases(kind):
            order = group.order()
            if order % 2:
                continue
            n = order // 2
            reference = index_two_subgroups(group)
            transitive = {h for h in reference if len({p[0] for p in h}) == n}
            if len(reference) > 7:
                with pytest.raises(GroupError):
                    regular_subgroups(group, n)
                continue
            found = regular_subgroups(group, n)
            assert all(h.order() == n and len(h.elements()) == n for h in found)
            assert {frozenset(closure(h)) for h in found} == transitive, group
            assert len(found) == len(transitive)
            checked += 1
        assert checked > 100

    def test_elements_make_one_compose_per_element(self, analysis_of, monkeypatch):
        a = analysis_of("tutte")
        found = regular_subgroups(a.separator_group, a.separator.order)
        calls = []

        def counted(p, q):
            calls.append(None)
            return compose(p, q)

        monkeypatch.setattr(groups, "compose", counted)
        assert len(found) == 2
        for h in found:
            calls.clear()
            assert len(h.elements()) == h.order() == 720
            assert len(calls) == h.order() - 1

    def test_order_spectrum_makes_no_compose(self, analysis_of, monkeypatch):
        a = analysis_of("tutte")
        found = regular_subgroups(a.separator_group, a.separator.order)
        calls = []

        def counted(p, q):
            calls.append(None)
            return compose(p, q)

        monkeypatch.setattr(groups, "compose", counted)
        assert [sorted(h.order_spectrum()) for h in found] == [
            [1, 2, 3, 4, 5, 8],
            [1, 2, 3, 4, 5, 8, 10],
        ]
        assert calls == []

    def test_kernel_spectra_against_fresh_groups_and_closure(self, analysis_of):
        kernels = 0
        for label, group, n in kernel_spectra_cases(analysis_of):
            for h in regular_subgroups(group, n):
                fresh = PermGroup(h.degree, h.generators)
                fresh._base = h._base
                spectrum = h.order_spectrum()
                assert spectrum == fresh.order_spectrum(), label
                assert spectrum == {element_order(p) for p in closure(h)}, label
                kernels += 1
        assert kernels > 200

    def test_spectrum_is_kept(self):
        group = PermGroup(4, ((1, 2, 3, 0), (1, 0, 2, 3)))
        assert group.order_spectrum() is group.order_spectrum() == {1, 2, 3, 4}

    def test_tutte_walks_its_group_once(self, analysis_of, monkeypatch):
        a = analysis_of("tutte")
        group = a.separator_group
        counts = {}
        count_calls(monkeypatch, groups, "_image", counts)
        found = regular_subgroups(group, a.separator.order)
        spectra = [h.order_spectrum() for h in found]
        assert len(spectra) == 2 and all(spectra)
        assert counts["_image"] == group.order() * len(group.generators) == 1440 * 5

    def test_orders_only_the_kernel_elements(self, analysis_of, monkeypatch):
        # Tutte's two kernels of 720 meet in 360 elements, so 1,080 of
        # the 1,440 orders are read; Coxeter's one kernel reads 168 of 336
        counts = []
        original = PermGroup._element_orders

        def recorded(group, tree, images, slots):
            orders = original(group, tree, images, slots)
            counts.append(len(orders))
            return orders

        monkeypatch.setattr(PermGroup, "_element_orders", recorded)
        for text, count, spectra in (
            ("tutte", 1080, [[1, 2, 3, 4, 5, 8], [1, 2, 3, 4, 5, 8, 10]]),
            ("coxeter", 168, [[1, 2, 3, 4, 7]]),
        ):
            a = analysis_of(text)
            counts.clear()
            found = regular_subgroups(a.separator_group, a.separator.order)
            assert counts == [count], text
            assert [sorted(h.order_spectrum()) for h in found] == spectra, text
            for h in found:
                fresh = PermGroup(h.degree, h.generators)
                fresh._base = h._base
                assert fresh.order_spectrum() == h.order_spectrum(), text

    def test_a_base_that_omits_zero(self):
        # with the base n-1, ..., 1 the walk appends 0 and reads it at the
        # last index; kernels and spectra against the closure
        checked = 0
        for group in half_order_cases("generators"):
            order, n = group.order(), group.degree
            if order % 2 or n < 2:
                continue
            reference = index_two_subgroups(group)
            if len(reference) > 7:
                continue
            group._base = tuple(range(n - 1, 0, -1))
            transitive = {h for h in reference if len({p[0] for p in h}) == order // 2}
            found = regular_subgroups(group, order // 2)
            assert {frozenset(closure(h)) for h in found} == transitive, group.generators
            for h in found:
                assert h.order_spectrum() == {element_order(p) for p in closure(h)}
            checked += len(found)
        assert checked > 50

    def test_orders_are_read_at_zero_beyond_the_points(self):
        # Z4 x Z2 on 8 points, r = (0 1 2 3)(4 5) and t = (6 7), with the
        # base (4, 6, 1): <r> and <rt> are regular on 0..3, and r's cycle
        # through 4 has length 2, not r's order 4
        r, t = (1, 2, 3, 0, 5, 4, 6, 7), (0, 1, 2, 3, 4, 5, 7, 6)
        group = PermGroup(8, (r, t))
        group._base = (4, 6, 1)
        found = regular_subgroups(group, 4)
        transitive = {h for h in index_two_subgroups(group) if len({p[0] for p in h}) == 4}
        assert len(transitive) == 2
        assert {frozenset(closure(h)) for h in found} == transitive
        assert [sorted(h.order_spectrum()) for h in found] == [[1, 2, 4], [1, 2, 4]]

    def test_tutte_builds_only_its_regular_kernels(self, analysis_of, monkeypatch):
        # of its three index-2 subgroups, two are regular
        # (test_separator_groups_against_reference)
        a = analysis_of("tutte")
        group, n = a.separator_group, a.separator.order
        counts = {}
        count_calls(monkeypatch, groups, "_stabilizer", counts)
        assert len(regular_subgroups(group, n)) == 2
        assert counts["_stabilizer"] == 2

    def test_no_index_two_subgroup(self):
        # A4 on the six edges of the tetrahedron: order 12 on 6 points,
        # and A4 has no subgroup of index 2
        edges = list(itertools.combinations(range(4), 2))

        def on_edges(p):
            return tuple(edges.index(tuple(sorted((p[u], p[v])))) for u, v in edges)

        a4 = PermGroup(6, (on_edges((1, 2, 0, 3)), on_edges((1, 0, 3, 2))))
        assert a4.order() == 12 and a4.is_transitive()
        assert index_two_subgroups(a4) == []
        assert regular_subgroups(a4, 6) == []

    def test_quotient_too_large(self):
        # four disjoint transpositions: an elementary abelian group of
        # order 16 on 8 points, with 15 index-2 subgroups
        swaps = [tuple(j ^ 1 if j // 2 == i else j for j in range(8)) for i in range(4)]
        group = PermGroup(8, tuple(swaps))
        assert len(index_two_subgroups(group)) == 15
        with pytest.raises(GroupError):
            regular_subgroups(group, 8)


class TestSeparatorAutomorphisms:
    @pytest.mark.parametrize("text", ["k4", "k33", "q3", "dodecahedral"])
    def test_underlying_group_matches_host(self, text, analysis_of):
        a = analysis_of(text)
        assert separator_automorphism_group(a.separator, a.host_group).order() == a.row.a

    def test_orientation_reverser_becomes_arc_reverser(self, analysis_of):
        a = analysis_of("k4")
        s, host = a.separator, a.host_group
        reversers = 0
        for h in host.elements():
            m = induced_arc_permutation(s, h)
            assert m is not None
            if any(m[s.succ[v]] != s.succ[m[v]] for v in range(s.order)):
                reversers += 1
                assert all(
                    s.succ[m[s.succ[v]]] == m[v] for v in range(s.order)
                )
        assert reversers == host.order() // 2

    def test_digraph_group_is_half(self, analysis_of):
        a = analysis_of("k4")
        p, s = a.row, a.separator
        assert automorphism_group(separator_digraph(s)).order() == p.a // 2

    def test_underlying_is_vertex_transitive(self, analysis_of):
        a = analysis_of("q3")
        s = a.separator
        group = separator_automorphism_group(s, a.host_group)
        assert group.is_transitive()
        assert underlying(separator_digraph(s)).is_cubic()


# Aut(D) of each separator: the element orders of the regular kernel
KERNEL_SPECTRA = {
    "k4": [1, 2, 3],
    "k33": [1, 2, 3, 4],
    "q3": [1, 2, 3, 4],
    "dodecahedral": [1, 2, 3, 5],
    "desargues": [1, 2, 3, 4, 5, 6],
    "coxeter": [1, 2, 3, 4, 7],
    "tutte": [1, 2, 3, 4, 5, 8],
}


def keeps(s, g):
    return all(g[s.succ[v]] == s.succ[g[v]] for v in range(s.order))


def reverses(s, g):
    return all(s.succ[g[s.succ[v]]] == g[v] for v in range(s.order))


class TestOrientationKernel:
    @pytest.mark.parametrize("text", SOLVABLE)
    def test_regular_and_equal_to_the_digraph_group(self, text, analysis_of):
        a = analysis_of(text)
        s, kernel = a.separator, a.kernel
        assert kernel.order() == s.order == a.separator_group.order() // 2
        assert kernel.is_transitive()
        assert sorted(kernel.order_spectrum()) == KERNEL_SPECTRA[text]
        assert all(keeps(s, g) for g in kernel.generators)
        assert kernel.elements() == automorphism_group(separator_digraph(s)).elements()

    def test_every_separator_generator_keeps_or_reverses(self, analysis_of):
        for text in SOLVABLE:
            a = analysis_of(text)
            s, group = a.separator, a.separator_group
            signs = [keeps(s, g) for g in group.generators]
            assert all(keep or reverses(s, g) for keep, g in zip(signs, group.generators)), text
            assert not all(signs), text

    def test_kept_by_the_analysis(self, monkeypatch):
        # Coxeter's two GL(3,2) rows read one kernel
        counts = {}
        count_calls(monkeypatch, groups, "orientation_kernel", counts)
        names = [c.name for c in run_graph_report(CdtName.COXETER).checks]
        assert names.count("cayley-gl32-reference-matrices") == 1
        assert names.count("cayley-gl32-corrected-involution") == 1
        assert counts["orientation_kernel"] == 1

    @pytest.mark.parametrize("b,order", [(4, 96), (5, 150)])
    def test_index_six_on_the_hex_torus(self, b, order):
        # {6,3}_{b,0}: succ has six conjugates, and Aut(D) is still regular
        a = ingest_analysis(hex_torus(b, 0))
        s, kernel = a.separator, a.kernel
        assert kernel.order() == s.order == order
        assert a.separator_group.order() == 6 * order
        assert kernel.is_transitive()
        assert all(keeps(s, g) for g in kernel.generators)
        assert kernel.elements() == automorphism_group(separator_digraph(s)).elements()

    def test_a_group_with_no_reverser_is_its_own_kernel(self, analysis_of):
        a = analysis_of("q3")
        assert orientation_kernel(a.separator, a.kernel) is a.kernel

    @pytest.mark.parametrize("text", ["k4", "coxeter"])
    def test_a_vertex_transposition_is_refused(self, text, analysis_of):
        a = analysis_of(text)
        swap = list(range(a.separator.order))
        swap[0], swap[1] = 1, 0
        for gens in ([swap], [*a.separator_group.generators, swap]):
            with pytest.raises(GroupError, match="not made of automorphisms"):
                orientation_kernel(a.separator, PermGroup(a.separator.order, gens))

    def test_a_kernel_that_is_not_regular_is_refused(self, analysis_of):
        # one reverser generates a group of order 2, whose kernel is trivial
        a = analysis_of("k4")
        s = a.separator
        reverser = next(g for g in a.separator_group.generators if reverses(s, g))
        with pytest.raises(GroupError, match="not regular"):
            orientation_kernel(s, PermGroup(s.order, [reverser]))

    def test_a_group_on_other_points_is_refused(self, analysis_of):
        with pytest.raises(GroupError, match="degree"):
            orientation_kernel(analysis_of("k4").separator, analysis_of("q3").separator_group)


class TestStabilizer:
    @pytest.mark.parametrize("text", ["k4", "k33", "q3"])
    def test_generates_the_fixers_in_the_closure(self, text, analysis_of):
        # succ under conjugation, and 0 under each nonzero character,
        # read off the index-2 subgroup that is its kernel
        a = analysis_of(text)
        s, group = a.separator, a.separator_group
        elements = closure(group)

        def conjugate(g, x):
            return compose(inverse(g), compose(x, g))

        cases = [(s.succ, conjugate, {p for p in elements if conjugate(p, s.succ) == s.succ})]
        for sub in index_two_subgroups(group):
            value = {g: int(g not in sub) for g in group.generators}
            cases.append((0, lambda g, x, value=value: x ^ value[g], sub))
        assert len(cases) > 1
        for start, act, fixers in cases:
            stabilizer = groups._stabilizer(group, start, act)
            assert closure(stabilizer) == fixers
            assert stabilizer.order() == len(fixers)
            assert stabilizer._base == group._base


# The five Cayley records: graph, record name, (elements, product)
CAYLEY_GROUPS = {
    "cayley-a4": (alternating_elements(4), compose),
    "cayley-s4": (symmetric_elements(4), compose),
    "cayley-a5": (alternating_elements(5), compose),
    "cayley-gl32-reference-matrices": (gl32_elements(), gl32_mult),
    "cayley-gl32-corrected-involution": (gl32_elements(), gl32_mult),
}
CAYLEY_RECORDS = [
    (text, row, list(gens))
    for text in ("k4", "q3", "dodecahedral", "coxeter")
    for row, gens in reference(CdtName.from_string(text)).cayley.items()
]
CAYLEY_VERDICTS = [True, True, True, False, True]


def relabeled_analysis(text, seed):
    """The Analysis of a seeded relabeling of a catalog graph, passed
    through graph6: its separator numbers its vertices afresh."""
    g, _ = build_cdt(CdtName.from_string(text))
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    h = build_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges()])
    return Analysis(parse_graph6(write_graph6(h)))


def carries_arcs(s, phi, elements, mult, gens):
    """Whether phi pairs the separator's vertices one to one with the
    elements and carries each arc onto an arc of the Cayley digraph."""
    index = {e: i for i, e in enumerate(elements)}
    target = set(cayley_digraph(elements, mult, gens).arcs())
    images = [index[x] for x in phi]
    return sorted(images) == list(range(len(elements))) and all(
        (images[u], images[v]) in target for u, v in separator_digraph(s).arcs()
    )


class TestCayleyIsomorphism:
    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_agrees_with_the_digraph_search(self, seed, analysis_of):
        # with the generators in both orders, on the catalog separators
        # and on those of relabeled hosts
        verdicts = []
        for text, row, gens in CAYLEY_RECORDS:
            a = analysis_of(text) if seed is None else relabeled_analysis(text, seed)
            s = a.separator
            elements, mult = CAYLEY_GROUPS[row]
            found = []
            for order in (gens, gens[::-1]):
                phi = cayley_isomorphism(s, a.kernel, elements, mult, order)
                target = cayley_digraph(elements, mult, order)
                oracle = digraph_isomorphic(separator_digraph(s), target)
                assert (phi is None) == (oracle is None), (text, row, seed)
                assert phi is None or carries_arcs(s, phi, elements, mult, order)
                found.append(phi is not None)
            assert found[0] == found[1]
            verdicts.append(found[0])
        assert verdicts == CAYLEY_VERDICTS

    def test_one_matching_walks_without_conflict(self, analysis_of):
        # the cycle arcs of a true record go with one generator only, and
        # the reference GL(3,2) pair meets a conflict either way
        for (text, row, gens), verdict in zip(CAYLEY_RECORDS, CAYLEY_VERDICTS):
            s = analysis_of(text).separator
            elements, mult = CAYLEY_GROUPS[row]
            walks = [groups._cayley_walk(s, elements[0], mult, x, y) for x, y in (gens, gens[::-1])]
            assert sum(phi is not None for phi in walks) == int(verdict), (text, row)

    @pytest.mark.parametrize("text", ["k4", "q3"])
    def test_a_conflict_off_the_walk_tree_is_refused(self, text, analysis_of):
        # two cycle arcs that the walk reaches no vertex by trade heads:
        # the walk labels every vertex as before, one to one, but the
        # traded arcs no longer go where the generator sends them
        a = analysis_of(text)
        s = a.separator
        (row, gens), = a.ref.cayley.items()
        elements, mult = CAYLEY_GROUPS[row]
        seen, tree = [0], set()
        for p in seen:
            for q in (s.succ[p], s.trans[p]):
                if q not in seen:
                    seen.append(q)
                    tree.add((p, q))
        p1, p2 = [p for p in seen if (p, s.succ[p]) not in tree][-2:]
        succ = list(s.succ)
        succ[p1], succ[p2] = succ[p2], succ[p1]
        traded = SimpleNamespace(order=s.order, succ=tuple(succ), trans=s.trans)
        assert cayley_isomorphism(s, a.kernel, elements, mult, list(gens)) is not None
        assert cayley_isomorphism(traded, a.kernel, elements, mult, list(gens)) is None
        d = build_digraph(s.order, [*enumerate(succ), *enumerate(s.trans)])
        assert digraph_isomorphic(d, cayley_digraph(elements, mult, list(gens))) is None

    def test_a_consistent_walk_onto_a_subgroup_is_refused(self, analysis_of):
        # the record's S4 pair pushed through S4 -> S4/V4 = S3 < S4: both
        # walks meet no conflict and reach all 24 vertices, but only 6
        # of the 24 elements
        a = analysis_of("q3")
        s, elements = a.separator, symmetric_elements(4)
        gens = [(2, 1, 0, 3), (0, 2, 1, 3)]
        for x_succ, x_trans in (gens, gens[::-1]):
            phi = groups._cayley_walk(s, elements[0], compose, x_succ, x_trans)
            assert phi is not None and len(set(phi)) == 6
        assert cayley_isomorphism(s, a.kernel, elements, compose, gens) is None
        target = cayley_digraph(elements, compose, gens)
        assert digraph_isomorphic(separator_digraph(s), target) is None

    @pytest.mark.parametrize("gens", [[(0, 1, 2, 3), (1, 0, 2, 3)], [(1, 2, 3, 0), (9,)]],
                             ids=["identity", "unlisted"])
    def test_generators_refused_as_cayley_digraph_refuses_them(self, gens, analysis_of):
        a = analysis_of("q3")
        elements = symmetric_elements(4)
        with pytest.raises(GroupError) as digraph_error:
            cayley_digraph(elements, compose, gens)
        with pytest.raises(GroupError) as pairing_error:
            cayley_isomorphism(a.separator, a.kernel, elements, compose, gens)
        assert str(pairing_error.value) == str(digraph_error.value)

    def test_a_repeated_generator_is_refused(self, analysis_of):
        a = analysis_of("k4")
        elements, gens = alternating_elements(4), [(1, 2, 0, 3), (1, 2, 0, 3)]
        with pytest.raises(GroupError, match="repeated generator") as digraph_error:
            cayley_digraph(elements, compose, gens)
        with pytest.raises(GroupError) as pairing_error:
            cayley_isomorphism(a.separator, a.kernel, elements, compose, gens)
        assert str(pairing_error.value) == str(digraph_error.value)

    def test_a_kernel_that_is_not_regular_is_refused(self, analysis_of):
        a = analysis_of("q3")
        s, elements, gens = a.separator, symmetric_elements(4), [(1, 2, 3, 0), (1, 0, 2, 3)]
        succ_only = PermGroup(s.order, [s.succ])
        succ_only._order = s.order  # the right order, but the orbits are the cycles
        for kernel in (succ_only, a.separator_group, analysis_of("k4").kernel):
            with pytest.raises(GroupError, match="not regular"):
                cayley_isomorphism(s, kernel, elements, compose, gens)

    def test_other_generator_counts_and_orders_are_refuted(self, analysis_of):
        a = analysis_of("q3")
        elements = symmetric_elements(4)
        assert cayley_isomorphism(a.separator, a.kernel, elements, compose, [(1, 2, 3, 0)]) is None
        a4 = alternating_elements(4)
        assert cayley_isomorphism(a.separator, a.kernel, a4, compose,
                                  [(1, 2, 0, 3), (1, 0, 3, 2)]) is None


class TestStabilizerChain:
    """Orders and elements against the closure walk on every catalog
    host group and separator group: the order automorphism_group reads
    off its search tree and the elements named by its base images, and
    those of the group rebuilt from the generators alone, whose base is
    every point."""

    @pytest.fixture(scope="class", params=CHAIN_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
    def group_and_closure(self, request, analysis_of):
        kind, text = request.param
        a = analysis_of(text)
        group = a.host_group if kind == "host" else a.separator_group
        return group, closure(group)

    def test_order_and_elements(self, group_and_closure):
        group, reference = group_and_closure
        rebuilt = PermGroup(group.degree, group.generators)
        assert group.order() == rebuilt.order() == len(reference)
        assert group.elements() == rebuilt.elements() == sorted(reference)

    def test_order_spectrum(self, group_and_closure):
        group, reference = group_and_closure
        assert group.order_spectrum() == {element_order(p) for p in reference}

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.lists(st.permutations(range(n)), max_size=4)
            .map(lambda gens: (n, gens))
        )
    )
    def test_random_generators(self, case):
        n, gens = case
        group = PermGroup(n, tuple(tuple(g) for g in gens))
        reference = closure(group)
        assert group.order() == len(reference)
        assert group.order_spectrum() == {element_order(p) for p in reference}
        assert group.elements() == sorted(reference)


def test_catalog_groups_are_pinned():
    # order, base, generators and spectrum of each group of every catalog
    # graph, in CdtName order: the host group, its recorded stabilizer
    # and, for a solvable graph, the separator group, its orientation
    # kernel and its regular subgroups; built afresh, so no other test's
    # use of a shared group comes first
    digest = hashlib.sha256()
    for name in CdtName:
        a = Analysis.from_catalog(name)
        found = [a.host_group, a.host_group._stabilizer]
        if a.solved:
            found += [a.separator_group, a.kernel, *a.regular]
        for g in found:
            digest.update(repr((g.order(), g._base, g.generators, sorted(g.order_spectrum()))).encode())
    assert digest.hexdigest() == CATALOG_GROUPS_SHA256


def loaded_packages(statement):
    """Top-level packages outside the standard library that a fresh
    interpreter loads while running statement; the last line it prints."""
    src = Path(cdtsep.__file__).resolve().parent.parent
    code = (
        f"import sys; before = set(sys.modules); {statement}; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return out.stdout.splitlines()[-1]


def kappa_statement(name):
    return (
        "from cdtsep.analysis import Analysis; from cdtsep.catalog import CdtName; "
        f"a = Analysis.from_catalog(CdtName.{name}); assert a.kappa == a.row.kappa"
    )


@pytest.mark.parametrize(
    "statement",
    [
        "import cdtsep",
        kappa_statement("TUTTE"),
        kappa_statement("K4"),
        kappa_statement("DODECAHEDRAL"),
        "from cdtsep.cli import main; main(['verify', 'k4', '--json'])",
    ],
    ids=["import", "tutte-kappa", "k4-kappa", "dodecahedral-kappa", "verify-k4-json"],
)
def test_loads_no_third_party_package(statement):
    """The program needs no package outside the standard library; the
    planar graphs' kappa and verify k4 decide planarity from the girth
    cycles, in the package itself."""
    assert loaded_packages(statement) == "['cdtsep']"

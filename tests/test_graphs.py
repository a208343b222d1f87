import itertools
import random
import time

import networkx as nx
import pytest

from cdtsep.catalog import CdtName, build_cdt, cdt_parameters
from cdtsep.cycles import enumerate_girth_cycles
from cdtsep.graph6 import parse_graph6
from cdtsep.graphs import (
    GraphError,
    build_digraph,
    build_graph,
    distances,
    enumerate_arcs,
    girth,
    is_bipartite,
    _hamilton_search,
    is_hamiltonian,
    is_planar,
    underlying,
)
from conftest import bfs_distance_table, generalized_petersen, hex_torus, random_cubic


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return build_graph(10, edges)


def prism(m):
    """The prism C_m x K2 on 2m vertices."""
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(m + i, m + (i + 1) % m) for i in range(m)]
    edges += [(i, m + i) for i in range(m)]
    return build_graph(2 * m, edges)


def random_graphs(count, max_order, seed):
    """Seeded random graphs on 0..max_order vertices; about one in five
    is a random forest, and sparse ones are often disconnected."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, max_order)
        if rng.random() < 0.2:
            edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
        else:
            density = rng.random()
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        yield build_graph(n, edges)


def has_hamilton_cycle(g):
    """Reference: Held-Karp reachability over vertex subsets."""
    n = g.order
    if n < 3:
        return False
    # ends[mask]: the ends of the paths from 0 through exactly mask
    ends = [set() for _ in range(1 << n)]
    ends[1].add(0)
    for mask in range(1 << n):
        for v in ends[mask]:
            for w in g.adj[v]:
                if not mask >> w & 1:
                    ends[mask | 1 << w].add(w)
    return any(0 in g.adj[v] for v in ends[-1])


def perfect_matchings(g):
    """Reference: every perfect matching of g, as a set of edges, found by
    matching the least unmatched vertex to each unmatched neighbour."""
    out = []

    def extend(matched, edges):
        free = next((v for v in range(g.order) if v not in matched), None)
        if free is None:
            out.append(frozenset(edges))
            return
        for w in g.adj[free]:
            if w not in matched:
                extend(matched | {free, w}, edges + [(min(free, w), max(free, w))])

    extend(frozenset(), [])
    return out


def is_one_cycle(g, removed) -> bool:
    """Whether the edges of the cubic graph g outside the perfect
    matching removed, a 2-factor, form one cycle through every vertex."""
    rest = [[w for w in g.adj[v] if (min(v, w), max(v, w)) not in removed]
            for v in range(g.order)]
    prev, v, length = None, 0, 0
    while True:
        prev, v = v, rest[v][0] if rest[v][0] != prev else rest[v][1]
        length += 1
        if v == 0:
            return length == g.order


def matching_hamiltonian(g) -> tuple[bool, int]:
    """Second proof for cubic g: it is Hamiltonian exactly when the
    complement of some perfect matching is one cycle.  Returns the answer
    and the number of perfect matchings."""
    matchings = perfect_matchings(g)
    return any(is_one_cycle(g, m) for m in matchings), len(matchings)


def bridged_cubic(n1, n2, rng):
    """Two random cubic graphs on n1 and n2 vertices, each with one edge
    subdivided, joined by a bridge between the two new vertices: cubic,
    and never Hamiltonian."""
    edges, ends, offset = [], [], 0
    for n in (n1, n2):
        (u, v), *rest = random_cubic(n, rng).edges()
        edges += [(offset + a, offset + b) for a, b in rest]
        edges += [(offset + u, offset + n), (offset + v, offset + n)]
        ends.append(offset + n)
        offset += n + 1
    return build_graph(offset, edges + [tuple(ends)])


def is_hamilton_cycle(g, cycle) -> bool:
    """Independent of the search: the cycle lists every vertex once, each
    vertex is adjacent to the next, and the last to the first."""
    if g.order < 3 or cycle is None or sorted(cycle) != list(range(g.order)):
        return False
    return all(cycle[i] in g.adj[cycle[i - 1]] for i in range(g.order))


class TestBuildGraph:
    def test_adjacency_is_sorted_and_symmetric(self):
        g = build_graph(4, [(2, 1), (0, 3), (3, 1)])
        assert g.adj[1] == (2, 3)
        assert g.adj[3] == (0, 1)
        assert g.has_edge(1, 2) and g.has_edge(2, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            build_graph(3, [(0, 3)])

    def test_rejects_loop(self):
        with pytest.raises(GraphError):
            build_graph(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            build_graph(3, [(0, 1), (1, 0)])

    def test_counts(self):
        g = petersen()
        assert g.order == 10
        assert g.num_edges() == 15
        assert g.is_cubic()
        assert g.is_connected()


class TestDigraph:
    def test_arcs_and_in_adj(self):
        d = build_digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        assert 1 in d.out_adj[0]
        assert 0 not in d.out_adj[1]
        assert d.in_adj()[2] == (0, 1)

    def test_underlying_merges_digons(self):
        d = build_digraph(3, [(0, 1), (1, 0), (1, 2)])
        u = underlying(d)
        assert u.num_edges() == 2


class TestDistances:
    def test_petersen_diameter(self):
        assert distances(petersen()).diameter == 2

    def test_disconnected_raises(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            distances(g)


class TestGirth:
    @pytest.mark.parametrize(
        "n, edges, expected",
        [
            (3, [(0, 1), (1, 2), (2, 0)], 3),
            (4, [(0, 1), (1, 2), (2, 3), (3, 0)], 4),
            (10, None, 5),
        ],
    )
    def test_small_cases(self, n, edges, expected):
        g = petersen() if edges is None else build_graph(n, edges)
        assert girth(g) == expected

    def test_forest_raises(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError):
            girth(g)


class TestMemoizedSweeps:
    def test_errors_are_not_kept(self):
        disconnected = build_graph(4, [(0, 1), (2, 3)])
        forest = build_graph(3, [(0, 1), (1, 2)])
        for _ in range(2):
            with pytest.raises(GraphError, match="disconnected"):
                distances(disconnected)
            with pytest.raises(GraphError, match="acyclic"):
                girth(forest)

    def test_equality_hash_and_repr_ignore_the_memo(self):
        g, fresh = petersen(), petersen()
        distances(g)
        girth(g)
        assert g == fresh and fresh == g
        assert hash(g) == hash(fresh)
        assert repr(g) == repr(fresh)
        assert len({g, fresh}) == 1

    def test_digraph_equality_hash_and_repr(self):
        # SeparatorDigraph compares, hashes and prints through these
        arcs = [(0, 1), (1, 2), (2, 0), (0, 2)]
        d, rebuilt = build_digraph(3, arcs), build_digraph(3, arcs[::-1])
        assert d == rebuilt and rebuilt == d
        assert hash(d) == hash(rebuilt)
        assert repr(d) == repr(rebuilt) == "Digraph(order=3, out_adj=((1, 2), (2,), (0,)))"
        assert len({d, rebuilt}) == 1
        assert d != build_digraph(3, arcs[1:]) and d != build_digraph(4, arcs)
        assert d != build_graph(3, [(0, 1), (1, 2), (2, 0)])


def sweep_cases(seed):
    """Seeded networkx graphs on 0..n-1: G(n, m) graphs, sparse ones often
    disconnected, random trees, cycles, random cubic graphs, disjoint
    unions of pairs of these, larger non-regular G(n, m) graphs, and
    graphs whose shortest cycle lies far above vertex 0, as numbered and
    seeded relabelings."""
    rng = random.Random(seed)
    cases = []
    for _ in range(200):
        n = rng.randint(0, 12)
        cases.append(nx.gnm_random_graph(n, rng.randint(0, n * (n - 1) // 2), seed=rng.randrange(2**31)))
    cases += [nx.random_labeled_tree(n, seed=rng.randrange(2**31)) for n in range(1, 25, 2)]
    cases += [nx.cycle_graph(n) for n in range(3, 16)]
    cases += [nx.random_regular_graph(3, n, seed=rng.randrange(2**31)) for n in range(4, 31, 2)]
    cases += [nx.disjoint_union(rng.choice(cases), rng.choice(cases)) for _ in range(60)]
    for _ in range(100):
        n = rng.randint(13, 40)
        cases.append(nx.gnm_random_graph(n, rng.randint(n - 1, 3 * n), seed=rng.randrange(2**31)))
    for tail, long, short in itertools.product((1, 2, 6, 12), (0, 9, 15), (3, 4, 5, 8, 9)):
        if long and short >= long:
            continue
        # a path from vertex 0, or from a long cycle through 0, to a short cycle
        h = nx.cycle_graph(long) if long else nx.empty_graph(1)
        top = len(h) + tail - 1
        nx.add_path(h, [0] + list(range(len(h), top + 1)))
        nx.add_cycle(h, [top] + list(range(top + 1, top + short)))
        perm = list(h)
        rng.shuffle(perm)
        cases += [h, nx.relabel_nodes(h, dict(zip(h, perm)))]
    return cases


class TestOneSweepAgainstNetworkx:
    def test_girth_distances_and_errors(self):
        disconnected_with_cycle = 0
        for h in sweep_cases(seed=18):
            n = h.number_of_nodes()
            g = build_graph(n, h.edges())
            expected = nx.girth(h)
            connected = n > 0 and nx.is_connected(h)
            for _ in range(2):  # a failing fact raises on every call
                if expected == float("inf"):
                    with pytest.raises(GraphError, match="acyclic"):
                        girth(g)
                else:
                    assert girth(g) == expected, sorted(h.edges())
                if connected:
                    lengths = dict(nx.all_pairs_shortest_path_length(h))
                    assert bfs_distance_table(g) == tuple(
                        tuple(lengths[u][v] for v in range(n)) for u in range(n)
                    )
                    assert distances(g).diameter == nx.diameter(h)
                elif n:
                    reached = nx.node_connected_component(h, 0)
                    j = min(set(range(n)) - reached)
                    with pytest.raises(GraphError) as exc:
                        distances(g)
                    assert str(exc.value) == f"graph is disconnected: no path from 0 to {j}"
            disconnected_with_cycle += n > 0 and not connected and expected != float("inf")
        assert disconnected_with_cycle > 50


class TestBallsAndCutBfs:
    @pytest.mark.parametrize("n", range(1, 30))
    def test_paths_and_cycles(self, n):
        path = build_graph(n, [(v, v + 1) for v in range(n - 1)])
        assert distances(path).diameter == n - 1
        with pytest.raises(GraphError, match="acyclic"):
            girth(path)
        if n >= 3:
            cycle = build_graph(n, [(v, (v + 1) % n) for v in range(n)])
            assert distances(cycle).diameter == n // 2
            assert girth(cycle) == n

    def test_tiny_orders(self):
        for n, edges, diameter in [(0, [], 0), (1, [], 0), (2, [(0, 1)], 1)]:
            g = build_graph(n, edges)
            assert distances(g).diameter == diameter
            with pytest.raises(GraphError, match="acyclic"):
                girth(g)
        with pytest.raises(GraphError, match=r"^graph is disconnected: no path from 0 to 1$"):
            distances(build_graph(2, []))

    @pytest.mark.parametrize("name", list(CdtName), ids=lambda n: n.value)
    def test_relabeled_catalog_rows(self, name):
        g, _ = build_cdt(name)
        p = cdt_parameters(name)
        for seed in range(4):
            perm = list(range(g.order))
            random.Random(seed).shuffle(perm)
            h = build_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges()])
            assert (distances(h).diameter, girth(h)) == (p.d, p.g), seed


class TestArcs:
    def test_one_arcs_are_directed_edges(self):
        g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
        assert len(enumerate_arcs(g, 1)) == 6

    def test_non_backtracking(self):
        g = petersen()
        arcs = enumerate_arcs(g, 2)
        assert len(arcs) == 10 * 3 * 2
        assert all(a[0] != a[2] for a in arcs)
        assert arcs == sorted(arcs)


class TestPredicates:
    def test_bipartite(self):
        assert is_bipartite(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert not is_bipartite(petersen())

    def test_bipartite_against_networkx(self):
        for g in random_graphs(1000, 9, seed=3):
            h = nx.Graph()
            h.add_nodes_from(range(g.order))
            h.add_edges_from(g.edges())
            assert is_bipartite(g) == nx.is_bipartite(h), g

    def test_connected_against_networkx(self):
        for g in random_graphs(1000, 9, seed=4):
            h = nx.Graph()
            h.add_nodes_from(range(g.order))
            h.add_edges_from(g.edges())
            assert g.is_connected() == (g.order == 0 or nx.is_connected(h)), g

    def test_hamiltonian(self):
        k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert is_hamiltonian(k4) is True
        assert is_hamiltonian(petersen()) is False
        assert is_hamiltonian(build_graph(2, [(0, 1)])) is False

    def test_hamiltonian_search_deeper_than_the_recursion_limit(self):
        # the prism C_1500 x K2: 3000 vertices, every path through all of
        # them is far deeper than the interpreter's recursion limit
        assert is_hamiltonian(prism(1500), budget=120.0) is True

    def test_hamiltonian_search_is_not_quadratic(self):
        # 12000 vertices found without backtracking; rescanning every
        # vertex after every step runs out of the budget
        assert is_hamiltonian(prism(6000), budget=2.0) is True

    def test_hamiltonian_against_brute_force(self):
        for g in random_graphs(400, 8, seed=1):
            assert is_hamiltonian(g) is has_hamilton_cycle(g), g

    @pytest.mark.parametrize("n", [8, 10, 12, 14])
    def test_hamiltonian_of_random_cubic_graphs(self, n):
        rng = random.Random(n)
        for _ in range(20):
            g = random_cubic(n, rng)
            assert is_hamiltonian(g) is has_hamilton_cycle(g), g

    @pytest.mark.parametrize("name,matchings", [
        (CdtName.PETERSEN, 6), (CdtName.COXETER, 84),
    ], ids=["petersen", "coxeter"])
    def test_catalog_negatives_have_a_second_proof(self, name, matchings):
        # no perfect matching leaves one cycle, so neither is Hamiltonian
        g, _ = build_cdt(name)
        assert matching_hamiltonian(g) == (False, matchings)
        assert is_hamiltonian(g) is False

    def test_hamiltonian_of_larger_cubic_graphs_against_matchings(self):
        rng = random.Random(16)
        graphs = [random_cubic(n, rng) for n in range(16, 31, 2) for _ in range(4)]
        graphs += [bridged_cubic(n1, n2, rng) for n1, n2 in ((6, 8), (8, 12), (10, 18), (14, 14))]
        answers = set()
        for g in graphs:
            assert g.is_cubic() and 16 <= g.order <= 30
            expected, _ = matching_hamiltonian(g)
            assert is_hamiltonian(g) is expected, g
            answers.add(expected)
        assert answers == {True, False}

    def test_hamiltonian_is_invariant_under_relabeling(self, layer_graphs):
        # the fixture carries three seeded relabelings of each catalog
        # graph, passed through graph6, as "name/seed"
        relabeled = [(label, g) for label, g, _ in layer_graphs if "/" in label]
        assert len(relabeled) == 3 * len(CdtName)
        for label, g in relabeled:
            row = cdt_parameters(CdtName.from_string(label.split("/")[0]))
            assert is_hamiltonian(g) is bool(row.h), label

    def test_hamiltonian_against_alspach(self):
        # Alspach (1983): GP(n, k) is Hamiltonian unless n = 5 (mod 6)
        # and k is 2 or (n - 1) / 2
        for n in range(3, 24):
            for k in range(1, (n + 1) // 2):
                expected = not (n % 6 == 5 and k in (2, (n - 1) // 2))
                assert is_hamiltonian(generalized_petersen(n, k)) is expected, (n, k)
        assert is_hamiltonian(generalized_petersen(29, 2), budget=120.0) is False

    def test_hamilton_search_returns_a_checkable_cycle(self, layer_graphs):
        rng = random.Random(5)
        graphs = [g for _, g, _ in layer_graphs] + [prism(6000), petersen()]
        graphs += [generalized_petersen(n, k) for n in range(3, 24) for k in range(1, (n + 1) // 2)]
        graphs += [random_cubic(n, rng) for n in (8, 10, 12, 14) for _ in range(20)]
        for g in graphs:
            answer, cycle, _ = _hamilton_search(g, 60.0)
            assert answer is not None
            assert is_hamilton_cycle(g, cycle) if answer else cycle is None, g

    def test_hamilton_cycle_checker(self):
        k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        square = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert is_hamilton_cycle(k4, (0, 1, 2, 3)) and is_hamilton_cycle(square, (0, 3, 2, 1))
        assert not is_hamilton_cycle(square, (0, 2, 1, 3))  # 0-2 is no edge
        assert not is_hamilton_cycle(square, (0, 1, 2))  # misses a vertex
        assert not is_hamilton_cycle(k4, (0, 1, 2, 2))
        assert not is_hamilton_cycle(build_graph(4, [(0, 1), (1, 2), (2, 3)]), (0, 1, 2, 3))
        assert not is_hamilton_cycle(build_graph(2, [(0, 1)]), (0, 1))

    @pytest.mark.parametrize("graph,answer,nodes", [
        (lambda: build_cdt(CdtName.COXETER)[0], False, 185),
        (lambda: build_cdt(CdtName.BIGGS_SMITH)[0], True, 24),
        (lambda: build_cdt(CdtName.PETERSEN)[0], False, 11),
        (lambda: prism(6000), True, 6001),
    ], ids=["coxeter", "biggs-smith", "petersen", "prism-6000"])
    def test_hamilton_search_effort_is_pinned(self, graph, answer, nodes):
        # nodes below the root, as measured; weaker forcing searches more
        found, _, searched = _hamilton_search(graph(), 60.0)
        assert (found, searched) == (answer, nodes)

    def test_hamiltonian_budget_is_checked_inside_the_search(self):
        coxeter, _ = build_cdt(CdtName.COXETER)
        assert is_hamiltonian(coxeter, budget=0.0) is None
        # refuting GP(41, 2) takes about twenty times this budget
        start = time.monotonic()
        assert is_hamiltonian(generalized_petersen(41, 2), budget=0.05) is None
        assert time.monotonic() - start < 0.5

    def test_hamiltonian_refuses_a_nan_budget(self):
        with pytest.raises(ValueError, match="NaN"):
            is_hamiltonian(petersen(), budget=float("nan"))


def networkx_planar(g):
    return nx.check_planarity(nx.Graph(g.edges()))[0]


class TestPlanarity:
    """is_planar against networkx's planarity test on connected
    arc-transitive cubic graphs, and at the edges of that precondition."""

    @pytest.mark.parametrize("name", list(CdtName), ids=lambda n: n.value)
    def test_the_twelve_and_their_relabelings(self, name):
        g, _ = build_cdt(name)
        assert is_planar(g) is networkx_planar(g)
        for seed in (1, 2, 3):
            perm = random.Random(seed).sample(range(g.order), g.order)
            h = build_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges()])
            assert is_planar(h) is networkx_planar(h)

    @pytest.mark.parametrize("b, c", [(2, 1), (3, 0), (2, 2), (3, 1), (4, 0), (5, 0)])
    def test_hex_torus_maps(self, b, c):
        g = hex_torus(b, c)
        assert is_planar(g) is networkx_planar(g) is False

    @pytest.mark.parametrize("n, k", [(4, 1), (5, 2), (8, 3), (10, 2), (10, 3), (12, 5), (24, 5)])
    def test_arc_transitive_generalized_petersen(self, n, k):
        # GP(4,1) is Q3 and GP(10,2) the dodecahedron; GP(10,3), Desargues,
        # has 20 vertices and girth cycles that cover each edge more than twice
        g = generalized_petersen(n, k)
        assert is_planar(g) is networkx_planar(g)

    @pytest.mark.parametrize("text", [
        "SKgI??O@CACG?COG_Y???@?C?IO@GOc?_",
        "S??QH@?A???ECQ?ADC?IAq?AACC?o@_A?",
    ], ids=["girth-6", "girth-5"])
    def test_an_uneven_cover_is_refused(self, text):
        # 20 vertices, and 2E = eta * girth (ten hexagons, twelve
        # pentagons), but some edges lie in three girth cycles and others
        # in fewer; outside the precondition, yet the answer is right
        g = parse_graph6(text)
        cs = enumerate_girth_cycles(g)
        assert g.is_cubic() and g.is_connected() and 2 * g.num_edges() == len(cs) * cs.girth
        assert is_planar(g) is networkx_planar(g) is False

    def test_the_hexagonal_prism_is_outside_the_precondition(self):
        # cubic and planar, but not arc-transitive: its faces have two lengths
        prism6 = generalized_petersen(6, 1)
        assert networkx_planar(prism6) and not is_planar(prism6)

    def test_refuses_non_cubic_and_disconnected_graphs(self):
        with pytest.raises(GraphError, match="cubic"):
            is_planar(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        k4 = list(itertools.combinations(range(4), 2))
        two_k4 = build_graph(8, k4 + [(u + 4, v + 4) for u, v in k4])
        with pytest.raises(GraphError, match="disconnected"):
            is_planar(two_k4)

    def test_other_orders_are_refused_before_the_sweep(self):
        # {6,3}_{32,0}: 2,048 vertices and diameter 43
        g = hex_torus(32, 0)
        start = time.perf_counter()
        assert not is_planar(g)
        assert time.perf_counter() - start < 0.1
        assert "_sweep" not in g.__dict__

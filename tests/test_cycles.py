import random
from collections import Counter

import pytest

from cdtsep import cycles
from cdtsep.catalog import CdtName, build_cdt, cdt_parameters
from cdtsep.cycles import (
    ConstraintError,
    FasteningProfile,
    canonical_cycle,
    cycle_windows,
    cycles_through,
    enumerate_girth_cycles,
    fastening_profile,
    path_key,
    unordered_paths,
)
from cdtsep.graphs import GraphError, build_graph, enumerate_arcs, girth
from cdtsep.orient import OddWitness, build_constraints, solve
from cdtsep.separator import build_separator
from conftest import bfs_distance_table, count_calls, generalized_petersen, random_cubic


def reference_girth_cycles(g):
    """Every girth cycle put in canonical form by canonical_cycle and
    deduplicated through a set, found by a path DFS from each root
    pruned by the distance table."""
    glen, dist = girth(g), bfs_distance_table(g)
    found = set()
    for root in range(g.order):
        stack = [(root, v) for v in g.adj[root] if v > root]
        while stack:
            path = stack.pop()
            if len(path) == glen:
                if g.has_edge(path[-1], root):
                    found.add(canonical_cycle(path))
                continue
            for nxt in g.adj[path[-1]]:
                if nxt > root and nxt not in path and dist[nxt][root] <= glen - len(path):
                    stack.append(path + (nxt,))
    return tuple(sorted(found))


def reference_path_index(cs, length):
    """Windows of each cycle taken vertex by vertex, modulo the girth."""
    index = {}
    g = cs.girth
    for cid, cyc in enumerate(cs.cycles):
        for i in range(g):
            window = tuple(cyc[(i + j) % g] for j in range(length + 1))
            key = path_key(window)
            index.setdefault(key, []).append((cid, 1 if window == key else -1))
    return index


def table_hits(cs, length):
    """The hits of the arc table of the given length, keyed by walk."""
    t = cs.arc_table(length)
    return {t.arcs[a]: pairs for a, pairs in t.hits.items()}


def reference_fastening_profile(g, cs, k):
    """Every simple path of each level listed and looked up in the
    reference index."""
    levels = {}
    uniform = True
    for i in range(k - 1):
        length = k - 1 - i
        index = reference_path_index(cs, length)
        counter = Counter()
        for p in unordered_paths(g, length):
            counter[len(index.get(p, []))] += 1
        levels[i] = counter
        if set(counter) != {2 ** (i + 1)}:
            uniform = False
    return FasteningProfile(levels, uniform)


def off_cubic_graphs():
    """Graphs that are not cubic: K5, whose depth-1 vertices are all
    joined; K3,4, where a depth-2 vertex has four depth-1 neighbours; Q4
    and the torus C4 x C4 (Q4 labelled as a grid); and Petersen with a
    pendant edge."""
    petersen, _ = build_cdt(CdtName.PETERSEN)
    return [
        ("K5", build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])),
        ("K3,4", build_graph(7, [(u, v) for u in range(3) for v in range(3, 7)])),
        ("Q4", build_graph(16, [(v, v ^ 1 << i) for v in range(16) for i in range(4) if v < v ^ 1 << i])),
        ("C4xC4", build_graph(16, [(4 * i + j, 4 * ((i + d) % 4) + (j + 1 - d) % 4)
                                   for i in range(4) for j in range(4) for d in (0, 1)])),
        ("petersen+pendant", build_graph(11, petersen.edges() + [(0, 10)])),
    ]


class TestCanonicalForms:
    def test_rotation_and_reflection_invariance(self):
        base = (0, 3, 1, 4, 2)
        for i in range(5):
            rotated = base[i:] + base[:i]
            assert canonical_cycle(rotated) == canonical_cycle(base)
            assert canonical_cycle(rotated[::-1]) == canonical_cycle(base)

    def test_idempotent(self):
        c = canonical_cycle((2, 0, 1))
        assert canonical_cycle(c) == c

    def test_path_key_picks_smaller_end(self):
        assert path_key((3, 1, 0)) == (0, 1, 3)
        assert path_key((0, 1, 3)) == (0, 1, 3)


class TestEnumeration:
    @pytest.mark.parametrize("name", list(CdtName), ids=lambda n: n.value)
    def test_counts_match_eta(self, name):
        g, _ = build_cdt(name)
        p = cdt_parameters(name)
        cs = enumerate_girth_cycles(g)
        assert cs.girth == p.g
        assert len(cs) == p.eta

    def test_cycles_are_canonical_simple_and_sorted(self):
        g, _ = build_cdt(CdtName.PETERSEN)
        cs = enumerate_girth_cycles(g)
        assert list(cs.cycles) == sorted(cs.cycles)
        for cyc in cs.cycles:
            assert cyc == canonical_cycle(cyc)
            assert len(set(cyc)) == len(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert g.has_edge(a, b)


class TestAgainstReferences:
    def test_girth_cycles(self, layer_graphs):
        for label, g, _k in layer_graphs:
            assert enumerate_girth_cycles(g).cycles == reference_girth_cycles(g), label

    def test_girth_cycles_beyond_the_catalog(self):
        # cubic GP(n, j) for n <= 15, seeded random cubic graphs, and
        # the graphs that are not cubic
        graphs = [(f"GP({n},{j})", generalized_petersen(n, j))
                  for n in range(3, 16) for j in range(1, (n + 1) // 2)]
        rng = random.Random(2903)
        graphs += [(f"cubic{n}/{t}", random_cubic(n, rng)) for n in range(4, 33, 2) for t in range(4)]
        graphs += off_cubic_graphs()
        for label, g in graphs:
            cs = enumerate_girth_cycles(g)
            assert cs.cycles == reference_girth_cycles(g), label
            for length in (1, cs.girth - 1, cs.girth + 1):
                assert table_hits(cs, length) == reference_path_index(cs, length), (label, length)

    def test_refuses_disconnected_and_acyclic_graphs(self):
        two_triangles = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(GraphError, match="^graph is disconnected: no path from 0 to 3$"):
            enumerate_girth_cycles(two_triangles)
        path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(GraphError, match="^graph is acyclic; girth undefined$"):
            enumerate_girth_cycles(path)

    def test_path_index(self, layer_graphs):
        # the arc table's hits at every length below the girth, and at
        # girth + 1, where the windows wrap past their cycle's start
        for label, g, _k in layer_graphs:
            cs = enumerate_girth_cycles(g)
            for length in [*range(1, cs.girth), cs.girth + 1]:
                assert table_hits(cs, length) == reference_path_index(cs, length), (label, length)

    def test_fastening_profile(self, layer_graphs):
        for label, g, k in layer_graphs:
            cs = enumerate_girth_cycles(g)
            assert fastening_profile(g, cs, k) == reference_fastening_profile(g, cs, k), label


class TestCyclesThrough:
    def test_direction_flips_with_path(self):
        g, _ = build_cdt(CdtName.K4)
        cs = enumerate_girth_cycles(g)
        forward = cycles_through(cs, (0, 1))
        backward = cycles_through(cs, (1, 0))
        assert {cid for cid, _ in forward} == {cid for cid, _ in backward}
        fwd = dict(forward)
        assert all(fwd[cid] == -d for cid, d in backward)

    def test_direction_matches_the_reference(self, layer_graphs):
        # every (k-1)-arc, both ways round, against the reference index,
        # before and after the arc table of that length is built: the
        # scan of the cycles reads no table
        for label, g, k in layer_graphs:
            cs = enumerate_girth_cycles(g)
            index = reference_path_index(cs, k - 1)
            arcs = enumerate_arcs(g, k - 1)
            expected = [[(cid, d if path_key(p) == p else -d) for cid, d in index.get(path_key(p), [])]
                        for p in arcs]
            assert [cycles_through(cs, p) for p in arcs] == expected, label
            assert list(cs._tables) == []
            cs.arc_table(k - 1)
            assert [cycles_through(cs, p) for p in arcs] == expected, label

    def test_other_lengths_build_no_table(self, layer_graphs):
        # at every length below the girth, each window of the first and
        # the last cycle, both ways round, read off the cycles' windows
        for label, g, _k in layer_graphs:
            cs = enumerate_girth_cycles(g)
            for length in range(1, cs.girth):
                index = reference_path_index(cs, length)
                for w in cycle_windows(cs.cycles[0], length) + cycle_windows(cs.cycles[-1], length):
                    hits = index[path_key(w)]
                    if w != path_key(w):
                        hits = [(cid, -d) for cid, d in hits]
                    assert cycles_through(cs, w) == hits, (label, w)
                    assert cycles_through(cs, w[::-1]) == [(cid, -d) for cid, d in hits], (label, w)
            assert list(cs._tables) == []

    def test_rejects_non_path(self):
        g, _ = build_cdt(CdtName.PETERSEN)
        cs = enumerate_girth_cycles(g)
        with pytest.raises(GraphError):
            cycles_through(cs, (0, 0))
        with pytest.raises(GraphError):
            cycles_through(cs, (0, 2))  # not an edge of the Petersen graph

    def test_rejects_ids_off_the_vertices(self):
        # -1 would index the adjacency row of vertex 9, a neighbour of 4
        g, _ = build_cdt(CdtName.PETERSEN)
        cs = enumerate_girth_cycles(g)
        for built in (False, True):
            if built:
                cs.arc_table(1)
            for p in [(-1, 4), (10, 0), (0, 10)]:
                with pytest.raises(GraphError, match=r"is not a path on the vertices 0\.\.9$"):
                    cycles_through(cs, p)


class TestFastening:
    @pytest.mark.parametrize("name", list(CdtName), ids=lambda n: n.value)
    def test_uniform_for_catalog(self, name):
        g, _ = build_cdt(name)
        p = cdt_parameters(name)
        cs = enumerate_girth_cycles(g)
        profile = fastening_profile(g, cs, p.k)
        assert profile.uniform
        for i in range(p.k - 1):
            assert set(profile.levels[i]) == {2 ** (i + 1)}

    def test_refuses_the_cycles_of_another_graph(self):
        g, _ = build_cdt(CdtName.Q3)
        k = cdt_parameters(CdtName.Q3).k
        perm = [3, 0, 6, 1, 7, 2, 5, 4]
        h = build_graph(8, [(perm[u], perm[v]) for u, v in g.edges()])
        cs = enumerate_girth_cycles(h)
        with pytest.raises(GraphError, match="^the girth cycles are not those of this graph$"):
            fastening_profile(g, cs, k)
        assert fastening_profile(h, cs, k) == fastening_profile(g, enumerate_girth_cycles(g), k)

    def test_prism_is_not_uniform(self):
        # triangular prism: edges split between two triangles and a belt
        prism = build_graph(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
        )
        cs = enumerate_girth_cycles(prism)
        assert not fastening_profile(prism, cs, 2).uniform

    def test_key_paths_must_be_shorter_than_the_girth(self):
        g, _ = build_cdt(CdtName.K4)
        cs = enumerate_girth_cycles(g)
        assert fastening_profile(g, cs, 3).levels[0] == Counter({1: 12})
        with pytest.raises(ConstraintError):
            fastening_profile(g, cs, 4)

    def test_equals_the_reference_beyond_the_catalog(self):
        # every cubic GP(n, j) with 5 <= n <= 15 and seeded random cubic
        # graphs on 8..30 vertices, at each k = 2..5 with k - 1 < girth
        rng = random.Random(2201)
        graphs = [(f"GP({n},{j})", generalized_petersen(n, j))
                  for n in range(5, 16) for j in range(1, (n + 1) // 2)]
        graphs += [(f"cubic{n}/{t}", random_cubic(n, rng)) for n in range(8, 31, 2) for t in range(5)]
        cases = zero = mixed = 0
        for label, g in graphs:
            cs = enumerate_girth_cycles(g)
            for k in range(2, min(5, cs.girth) + 1):
                profile = fastening_profile(g, cs, k)
                assert profile == reference_fastening_profile(g, cs, k), (label, k)
                cases += 1
                zero += any(0 in level for level in profile.levels.values())
                mixed += any(len(set(level) - {0}) > 1 for level in profile.levels.values())
        # the derived levels are checked where paths lie in no girth
        # cycle and where they lie in differing numbers of them
        assert cases == 300 and zero > 0 and mixed > 0

    def test_equals_the_reference_off_cubic_graphs(self):
        # vertices of degree 1, 2 and 4 give prefix runs other than two
        cases = 0
        for label, g in off_cubic_graphs():
            cs = enumerate_girth_cycles(g)
            for k in range(2, cs.girth + 1):
                assert fastening_profile(g, cs, k) == reference_fastening_profile(g, cs, k), (label, k)
                cases += 1
        assert cases == 15

    @pytest.mark.parametrize("name", list(CdtName), ids=lambda n: n.value)
    def test_reads_only_the_top_path_index(self, name, monkeypatch):
        # one table build per cycle set and length, shared by the
        # fastening profile, the constraints and the separator; the odd
        # witness's cycles_through builds none
        g, _ = build_cdt(name)
        k = cdt_parameters(name).k
        cs = enumerate_girth_cycles(g)
        counts = {}
        count_calls(monkeypatch, cycles, "_arc_table", counts)
        fastening_profile(g, cs, k)
        outcome = solve(build_constraints(g, cs, k))
        if isinstance(outcome, OddWitness):
            for p in outcome.paths:
                cycles_through(cs, p)
        else:
            build_separator(g, cs, k, outcome)
        assert counts["_arc_table"] == 1
        assert list(cs._tables) == [k - 1]

    def test_unordered_paths_count(self):
        g, _ = build_cdt(CdtName.HEAWOOD)
        # cubic: n * 3 * 2^(l-1) arcs of length l, halved as paths
        assert len(unordered_paths(g, 3)) == 14 * 3 * 4 // 2


def table_corpus(layer_graphs):
    """(label, graph, cycle set, length): the layer graphs at k - 1, and
    cubic GP(n, j) for n <= 12, seeded random cubic graphs and the graphs
    that are not cubic at each length 1..4 below the girth."""
    out = [(label, g, enumerate_girth_cycles(g), k - 1) for label, g, k in layer_graphs]
    rng = random.Random(3101)
    graphs = [(f"GP({n},{j})", generalized_petersen(n, j))
              for n in range(5, 13) for j in range(1, (n + 1) // 2)]
    graphs += [(f"cubic{n}/{t}", random_cubic(n, rng)) for n in range(8, 25, 4) for t in range(3)]
    for label, g in graphs + off_cubic_graphs():
        cs = enumerate_girth_cycles(g)
        out += [(label, g, cs, length) for length in range(1, min(5, cs.girth))]
    return out


class TestArcTable:
    def test_arcs_trans_and_rows(self, layer_graphs):
        for label, g, cs, length in table_corpus(layer_graphs):
            t = cs.arc_table(length)
            assert list(t.arcs) == enumerate_arcs(g, length), (label, length)
            assert all(t.index[arc] == i for i, arc in enumerate(t.arcs))
            assert len(t.index) == len(t.arcs)
            assert all(t.trans[t.trans[a]] == a != t.trans[a] for a in range(len(t.arcs)))
            assert all(t.arcs[t.trans[a]] == arc[::-1] for a, arc in enumerate(t.arcs))
            assert list(t.rows) == [[t.index[w] for w in cycle_windows(cyc, length)]
                                    for cyc in cs.cycles], (label, length)

    def test_hits_equal_the_reference_index(self, layer_graphs):
        for label, g, cs, length in table_corpus(layer_graphs):
            t = cs.arc_table(length)
            assert all(a < t.trans[a] for a in t.hits)
            assert table_hits(cs, length) == reference_path_index(cs, length), (label, length)

    def test_runs_are_the_prefix_runs(self, layer_graphs):
        # the (l+1)-walks, cut to their first l+1 vertices, are the
        # l-walks in order, each repeated as often as its run says
        for label, g, cs, length in table_corpus(layer_graphs):
            t = cs.arc_table(length)
            assert len(t.runs) == length - 1
            for l, runs in enumerate(t.runs, 1):
                lower = enumerate_arcs(g, l)
                upper = enumerate_arcs(g, l + 1)
                assert [w[:-1] for w in upper] == [p for p, r in zip(lower, runs) for _ in range(r)], \
                    (label, length, l)

    def test_is_built_once_per_length(self, monkeypatch):
        g, _ = build_cdt(CdtName.PETERSEN)
        cs = enumerate_girth_cycles(g)
        counts = {}
        count_calls(monkeypatch, cycles, "_arc_table", counts)
        assert cs.arc_table(2) is cs.arc_table(2)
        cs.arc_table(3)
        assert counts["_arc_table"] == 2
        with pytest.raises(GraphError, match="^arc length must be >= 1$"):
            cs.arc_table(0)

    def test_cycles_through_long_paths(self):
        # a simple path of girth or more edges lies in no girth cycle
        g, _ = build_cdt(CdtName.PETERSEN)
        cs = enumerate_girth_cycles(g)
        p = (0, 1, 2, 3, 4, 9)
        assert all(g.has_edge(a, b) for a, b in zip(p, p[1:]))
        assert cycles_through(cs, p) == [] == cycles_through(cs, p[::-1])
        assert list(cs._tables) == []

import dataclasses
import random

import pytest

from cdtsep.analysis import Analysis
from cdtsep.catalog import CdtName, build_cdt, cdt_parameters
from cdtsep.cycles import cycle_windows, enumerate_girth_cycles
from cdtsep.graphs import Digraph, GraphError, build_graph, enumerate_arcs, underlying
from cdtsep.orient import OrientationAssignment, build_constraints, oriented_cycles, solve
from cdtsep.separator import (
    SeparatorDigraph, _adjacency, _check_invariants, build_separator, separator_summary,
)
from conftest import separator_digraph

SOLVABLE = ["k4", "k33", "q3", "dodecahedral", "desargues", "coxeter", "tutte"]

# text name -> (simple r=1 count, r=1 length, simple r=2 count, r=2 length)
CENSUS = {
    "k4": (4, 6, 4, 9),
    "k33": (9, 8, 12, 9),
    "q3": (8, 6, 6, 12),
    "dodecahedral": (20, 6, 12, 15),
    "desargues": (30, 8, 40, 9),
    "coxeter": (42, 8, 56, 9),
    "tutte": (180, 8, 180, 12),
}


def reference_build_separator(g, cs, k, a):
    """The separator with its arcs listed by enumerate_arcs, and each
    oriented cycle's windows looked up in their index, each followed by
    the next."""
    if len(a.flips) != len(cs):
        raise GraphError(f"{len(a.flips)} flips for {len(cs)} girth cycles")
    arcs = tuple(enumerate_arcs(g, k - 1))
    index = {arc: i for i, arc in enumerate(arcs)}
    succ = [None] * len(arcs)
    for cyc in oriented_cycles(cs, a):
        ids = [index[w] for w in cycle_windows(cyc, k - 1)]
        cur = ids[-1]
        for nxt in ids:
            if succ[cur] is not None:
                raise GraphError(f"arc {arcs[cur]} traversed more than once")
            succ[cur] = nxt
            cur = nxt
    if None in succ:
        raise GraphError("some arc is not traversed by any oriented cycle")
    trans = tuple(index[arc[::-1]] for arc in arcs)
    under = _adjacency(succ, trans)
    sep = SeparatorDigraph(cs.girth, arcs, tuple(succ), trans, len(cs), index, under)
    _check_invariants(sep)
    return sep


def separator_or_error(build, g, cs, k, a):
    try:
        s = build(g, cs, k, a)
    except GraphError as exc:
        return str(exc)
    return s, s.index, s.under


class TestStructure:
    @pytest.mark.parametrize("text", SOLVABLE)
    def test_vertex_set_is_key_arcs(self, text, analysis_of):
        a = analysis_of(text)
        g, p, cs, s = a.graph, a.row, a.cycles, a.separator
        assert s.order == 3 * p.n * 2 ** (p.k - 2)
        assert all(len(a) == p.k for a in s.arcs)
        assert list(s.arcs) == sorted(s.arcs)

    @pytest.mark.parametrize("text", SOLVABLE)
    def test_degrees_and_underlying(self, text, analysis_of):
        s = analysis_of(text).separator
        digraph = separator_digraph(s)
        in_deg = [0] * s.order
        for _u, v in digraph.arcs():
            in_deg[v] += 1
        assert all(len(digraph.out_adj[v]) == 2 for v in range(s.order))
        assert all(d == 2 for d in in_deg)
        u = underlying(digraph)
        assert u.is_cubic() and u.is_connected()

    @pytest.mark.parametrize("text", SOLVABLE)
    def test_succ_orbits_are_the_oriented_cycles(self, text, analysis_of):
        a = analysis_of(text)
        p, s = a.row, a.separator
        orbits = s.succ_orbits()
        assert len(orbits) == p.eta == s.oriented_cycle_count
        assert all(len(o) == p.g for o in orbits)

    @pytest.mark.parametrize("text", SOLVABLE)
    def test_transposition_is_fixed_point_free_involution(self, text, analysis_of):
        s = analysis_of(text).separator
        assert all(s.trans[s.trans[v]] == v for v in range(s.order))
        assert all(s.trans[v] != v for v in range(s.order))
        assert all(s.arcs[s.trans[v]] == s.arcs[v][::-1] for v in range(s.order))

    def test_rejects_corrupt_assignment(self):
        g, _ = build_cdt(CdtName.K4)
        p = cdt_parameters(CdtName.K4)
        cs = enumerate_girth_cycles(g)
        a = solve(build_constraints(g, cs, p.k))
        flips = list(a.flips)
        flips[0] = not flips[0]
        with pytest.raises(GraphError):
            build_separator(g, cs, p.k, OrientationAssignment(tuple(flips), 1))

    @pytest.mark.parametrize("corrupt", [
        lambda flips: flips[:-1],
        lambda flips: flips + (False,),
        lambda flips: (not flips[0],) + flips[1:],
    ], ids=["too-short", "too-long", "one-flipped"])
    def test_rejects_bad_flips(self, corrupt):
        g, _ = build_cdt(CdtName.K4)
        k = cdt_parameters(CdtName.K4).k
        cs = enumerate_girth_cycles(g)
        flips = corrupt(solve(build_constraints(g, cs, k)).flips)
        with pytest.raises(GraphError):
            build_separator(g, cs, k, OrientationAssignment(flips, 1))

    def test_rejects_cycles_of_another_graph(self):
        g, _ = build_cdt(CdtName.Q3)
        k = cdt_parameters(CdtName.Q3).k
        perm = [3, 0, 6, 1, 7, 2, 5, 4]
        h = build_graph(8, [(perm[u], perm[v]) for u, v in g.edges()])
        cs = enumerate_girth_cycles(h)
        with pytest.raises(GraphError):
            build_separator(g, cs, k, solve(build_constraints(h, cs, k)))

    def test_frozen_and_compared_without_kept_structure(self):
        # a separator of its own, so a failed freeze spoils no shared one
        s = Analysis.from_catalog(CdtName.K4).separator
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.succ = s.succ[::-1]
        other = dataclasses.replace(s, index={}, under=build_cdt(CdtName.K4)[0])
        assert other == s
        assert hash(other) == hash(s)
        assert repr(other) == repr(s)
        assert "index" not in repr(s) and "under" not in repr(s)


class TestAgainstTheWindowLookup:
    def test_equals_the_reference(self, layer_graphs):
        # the solved assignments, each cycle flipped alone, and all flipped
        rng = random.Random(3102)
        checked = failed = 0
        for label, g, k in layer_graphs:
            if label.split("/")[0] not in SOLVABLE:
                continue
            cs = enumerate_girth_cycles(g)
            flips = solve(build_constraints(g, cs, k)).flips
            tried = [flips, tuple(not f for f in flips)]
            for cid in rng.sample(range(len(cs)), 3):
                tried.append(flips[:cid] + (not flips[cid],) + flips[cid + 1:])
            for f in tried:
                a = OrientationAssignment(f, 1)
                expected = separator_or_error(reference_build_separator, g, cs, k, a)
                assert separator_or_error(build_separator, g, cs, k, a) == expected, label
                checked += 1
                failed += isinstance(expected, str)
        assert checked == 140 and failed == 84


class TestDirectConstruction:
    """The underlying graph that build_separator makes straight from succ
    and trans, and its degree check, against the generic builders."""

    def test_equals_the_generic_builders(self, layer_graphs):
        checked = 0
        for label, g, k in layer_graphs:
            if label.split("/")[0] not in SOLVABLE:
                continue
            cs = enumerate_girth_cycles(g)
            s = build_separator(g, cs, k, solve(build_constraints(g, cs, k)))
            assert s.under == underlying(separator_digraph(s)), label
            checked += 1
        assert checked == 28

    def test_coincidences_give_short_rows(self):
        # random permutations and involutions of small sets coincide
        # often: succ v == trans v or pred v == trans v must shorten the
        # row, as the generic builder's sets do; the digraph is built from
        # its sorted rows, since build_digraph refuses the loops and the
        # repeated arcs that these draws include
        rng = random.Random(2801)
        short = 0
        for _ in range(300):
            n = rng.choice((2, 4, 6))
            succ = list(range(n))
            rng.shuffle(succ)
            points = list(range(n))
            rng.shuffle(points)
            trans = [0] * n
            for a, b in zip(points[::2], points[1::2]):
                trans[a], trans[b] = b, a
            under = _adjacency(succ, trans)
            out = tuple(tuple(sorted({succ[v], trans[v]})) for v in range(n))
            assert under == underlying(Digraph(n, out))
            short += any(len(a) < 3 for a in under.adj)
        assert short > 100

    def test_in_degrees_are_read(self, analysis_of):
        # move one arc u -> succ u to u -> c: every out-degree stays 2,
        # while succ u keeps one in-arc and c gets three
        s = analysis_of("k4").separator
        assert s.is_two_in_two_out()
        u = 0
        c = next(v for v in range(s.order) if v not in (u, s.succ[u], s.trans[u]))
        succ = list(s.succ)
        succ[u] = c
        bent = dataclasses.replace(s, succ=tuple(succ))
        d = separator_digraph(bent)
        assert all(len(o) == 2 for o in d.out_adj)
        assert sorted(map(len, d.in_adj())) == [1] + [2] * (s.order - 2) + [3]
        assert not bent.is_two_in_two_out()


class TestAlternateCensus:
    @pytest.mark.parametrize("text", sorted(CENSUS))
    def test_simple_counts_and_lengths(self, text, analysis_of):
        census = analysis_of(text).census
        alt, alt_len, bi, bi_len = CENSUS[text]
        assert census.simple_count(1) == alt
        assert census.simple_lengths(1) == {alt_len}
        assert census.simple_count(2) == bi
        assert census.simple_lengths(2) == {bi_len}

    def test_tutte_deep_census(self, analysis_of):
        census = analysis_of("tutte").census
        assert census.simple_count(3) == 90
        assert census.simple_lengths(3) == {32}
        assert census.simple_count(4) == 240
        assert census.simple_lengths(4) == {15}

    @pytest.mark.parametrize("text", SOLVABLE)
    def test_orbits_partition_the_vertices(self, text, analysis_of):
        a = analysis_of(text)
        s, census = a.separator, a.census
        for r, orbits in census.orbits.items():
            assert sum(o.size for o in orbits) == s.order
            for o in orbits:
                assert o.length == (r + 1) * o.size
                assert o.simple == (len(set(o.walk)) == len(o.walk))

    @pytest.mark.parametrize("text", SOLVABLE)
    def test_walks_alternate_succ_and_trans(self, text, analysis_of):
        a = analysis_of(text)
        s, census = a.separator, a.census
        for r, orbits in census.orbits.items():
            for o in orbits:
                walk = o.walk
                for i in range(0, len(walk), r + 1):
                    for j in range(r):
                        assert walk[(i + j + 1) % len(walk)] == s.succ[walk[i + j]]
                    assert walk[(i + r + 1) % len(walk)] == s.trans[walk[i + r]]


class TestSummary:
    def test_desargues_summary(self, analysis_of):
        a = analysis_of("desargues")
        s, census = a.separator, a.census
        summary = separator_summary(s, census)
        assert summary.vertices == 120
        assert summary.cycle_arcs == 120
        assert summary.transposition_edges == 60
        assert summary.underlying_edges == 180
        assert summary.oriented_cycles == 20

    def test_arc_labels(self, analysis_of):
        s = analysis_of("k4").separator
        assert s.arc_label(0) == "0 1"
        name = CdtName.K4
        _, table = build_cdt(name)
        assert s.arc_label(0, table).count(" ") == 1

    def test_labels_are_distinct_on_relabelings(self, layer_graphs):
        # joined without a separator, ids (1, 13) and (11, 3) would both
        # read "113" on the dodecahedron relabeled with seed 2
        checked = 0
        for label, g, k in layer_graphs:
            if "/" not in label:
                continue
            cs = enumerate_girth_cycles(g)
            outcome = solve(build_constraints(g, cs, k))
            if not isinstance(outcome, OrientationAssignment):
                continue
            s = build_separator(g, cs, k, outcome)
            labels = [s.arc_label(v) for v in range(s.order)]
            assert len(set(labels)) == s.order, label
            checked += 1
        assert checked == 21

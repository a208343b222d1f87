import itertools
import random

import networkx as nx
import pytest

from cdtsep import orient
from cdtsep.catalog import CdtName, build_cdt, cdt_parameters, reference_ooc
from cdtsep.cycles import ConstraintError, cycles_through, enumerate_girth_cycles, unordered_paths
from cdtsep.orient import (
    OddWitness,
    OrientationAssignment,
    ParityConstraintGraph,
    assignment_from_cycles,
    build_constraints,
    classify_kappa,
    solve,
    verify_ooa,
)

SOLVABLE = ["k4", "k33", "q3", "dodecahedral", "desargues", "coxeter", "tutte"]
UNSOLVABLE = ["petersen", "heawood", "pappus", "foster", "biggs-smith"]


def pipeline(text):
    name = CdtName.from_string(text)
    g, _ = build_cdt(name)
    p = cdt_parameters(name)
    cs = enumerate_girth_cycles(g)
    return g, p, cs, solve(build_constraints(g, cs, p.k))


def reference_build_constraints(g, cs, k):
    """Every simple path of length k-1 listed in lexicographic order and
    looked up in the cycle index, failing at the first path that does
    not lie in exactly two girth cycles."""
    edges = []
    for p in unordered_paths(g, k - 1):
        hits = cycles_through(cs, p)
        if len(hits) != 2:
            raise ConstraintError(f"path {p} lies in {len(hits)} girth cycles, expected 2")
        (c1, d1), (c2, d2) = hits
        edges.append((c1, c2, d1 == d2, p))
    return ParityConstraintGraph(len(cs), tuple(edges))


def constraints_or_error(build, g, cs, k):
    try:
        return build(g, cs, k)
    except ConstraintError as exc:
        return str(exc)


class TestConstraintEdges:
    def test_against_reference(self, layer_graphs):
        for label, g, k in layer_graphs:
            cs = enumerate_girth_cycles(g)
            expected = constraints_or_error(reference_build_constraints, g, cs, k)
            assert constraints_or_error(build_constraints, g, cs, k) == expected, label

    def test_catalog_edges_are_read_off_the_index(self, monkeypatch):
        monkeypatch.setattr(orient, "unordered_paths", None)
        for name in CdtName:
            g, _ = build_cdt(name)
            build_constraints(g, enumerate_girth_cycles(g), cdt_parameters(name).k)

    @pytest.mark.parametrize(
        "text, k, message",
        [
            ("prism", 2, "path (0, 1) lies in 1 girth cycles, expected 2"),
            ("k4", 4, "path (0, 1, 2, 3) lies in 0 girth cycles, expected 2"),
            ("petersen", 4, "path (0, 1, 2, 3) lies in 1 girth cycles, expected 2"),
        ],
    )
    def test_error_texts(self, layer_graphs, text, k, message):
        g = next(g for label, g, _k in layer_graphs if label == text)
        with pytest.raises(ConstraintError) as info:
            build_constraints(g, enumerate_girth_cycles(g), k)
        assert str(info.value) == message


class TestSolverSplit:
    @pytest.mark.parametrize("text", SOLVABLE)
    def test_solvable_graphs(self, text):
        g, p, cs, outcome = pipeline(text)
        assert isinstance(outcome, OrientationAssignment)
        assert verify_ooa(g, cs, p.k, outcome)

    @pytest.mark.parametrize("text", UNSOLVABLE)
    def test_unsolvable_graphs(self, text):
        _g, _p, _cs, outcome = pipeline(text)
        assert isinstance(outcome, OddWitness)

    @pytest.mark.parametrize("text", SOLVABLE)
    def test_single_constraint_component(self, text):
        _g, _p, _cs, outcome = pipeline(text)
        assert outcome.components == 1

    def test_long_chain_does_not_recurse(self):
        # each union hangs the chain one node deeper under the new root
        chain = tuple((i + 1, i, True, (i,)) for i in range(4999))
        outcome = solve(ParityConstraintGraph(5000, chain))
        assert outcome.components == 1
        assert outcome.flips == tuple(i % 2 == 1 for i in range(5000))

    def test_deterministic(self):
        _, _, _, a1 = pipeline("tutte")
        _, _, _, a2 = pipeline("tutte")
        assert a1 == a2


class TestWitness:
    @pytest.mark.parametrize("text", UNSOLVABLE)
    def test_witness_revalidates(self, text):
        g, p, cs, w = pipeline(text)
        assert w.is_odd()
        assert len(w.cycle_ids) == len(w.paths) + 1
        assert w.cycle_ids[0] == w.cycle_ids[-1]
        for i, path in enumerate(w.paths):
            hits = cycles_through(cs, path)
            assert len(hits) == 2
            (c1, d1), (c2, d2) = hits
            assert {c1, c2} == {w.cycle_ids[i], w.cycle_ids[i + 1]}
            assert w.parities[i] == (d1 == d2)

    def test_petersen_witness_is_short(self):
        _g, _p, _cs, w = pipeline("petersen")
        assert len(w.paths) == 4


class TestVerifierIndependence:
    def test_corrupted_assignment_fails(self):
        g, p, cs, a = pipeline("desargues")
        flips = list(a.flips)
        flips[0] = not flips[0]
        corrupt = OrientationAssignment(tuple(flips), a.components)
        assert not verify_ooa(g, cs, p.k, corrupt)

    def test_global_flip_still_verifies(self):
        g, p, cs, a = pipeline("desargues")
        flipped = OrientationAssignment(tuple(not f for f in a.flips), a.components)
        assert verify_ooa(g, cs, p.k, flipped)

    def test_wrong_length_rejected(self):
        g, p, cs, a = pipeline("k4")
        assert not verify_ooa(g, cs, p.k, OrientationAssignment((False,), 1))


class TestReferenceFixtures:
    @pytest.mark.parametrize("text", SOLVABLE)
    def test_fixture_is_valid_ooa(self, text):
        name = CdtName.from_string(text)
        g, _ = build_cdt(name)
        p = cdt_parameters(name)
        cs = enumerate_girth_cycles(g)
        fixture = reference_ooc(name, *build_cdt(name))
        a = assignment_from_cycles(cs, fixture.cycles)
        assert verify_ooa(g, cs, p.k, a)

    def test_duplicate_cycle_rejected(self):
        name = CdtName.K4
        g, _ = build_cdt(name)
        cs = enumerate_girth_cycles(g)
        cycles = list(reference_ooc(name, *build_cdt(name)).cycles)
        cycles[1] = cycles[0]
        with pytest.raises(ValueError):
            assignment_from_cycles(cs, cycles)

    def test_non_girth_cycle_rejected(self):
        g, _ = build_cdt(CdtName.K4)
        cs = enumerate_girth_cycles(g)
        with pytest.raises(ValueError):
            assignment_from_cycles(cs, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 1, 2)])


class TestKappa:
    @pytest.mark.parametrize("name", list(CdtName), ids=lambda n: n.value)
    def test_catalog_classification(self, name):
        from cdtsep.graphs import is_planar

        g, _ = build_cdt(name)
        p = cdt_parameters(name)
        cs = enumerate_girth_cycles(g)
        solved = isinstance(
            solve(build_constraints(g, cs, p.k)), OrientationAssignment
        )
        assert classify_kappa(solved, is_planar(g), p.g, p.k) == p.kappa

    def test_inconsistent_inputs_raise(self):
        with pytest.raises(ValueError):
            classify_kappa(False, True, 5, 3)
        with pytest.raises(ValueError):
            classify_kappa(True, False, 3, 3)


def random_parity_systems(count, max_nodes, seed):
    """Seeded parity constraint graphs on 1..max_nodes nodes; about one
    edge in twenty joins a node to itself, and each edge's path label is
    its own index."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_nodes)
        edges = []
        for i in range(rng.randint(0, 2 * n)):
            if n > 1 and rng.random() < 0.95:
                a, b = rng.sample(range(n), 2)
            else:
                a = b = rng.randrange(n)
            edges.append((a, b, rng.random() < 0.5, (i,)))
        yield ParityConstraintGraph(n, tuple(edges))


class TestAgainstBruteForce:
    def test_solve_matches_exhaustive_search(self):
        for pcg in random_parity_systems(1500, 8, seed=11):
            n = pcg.num_nodes
            solutions = [
                bits for bits in itertools.product((False, True), repeat=n)
                if all((bits[a] != bits[b]) == d for a, b, d, _p in pcg.edges)
            ]
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from((a, b) for a, b, _d, _p in pcg.edges)
            least = [min(c) for c in nx.connected_components(h)]
            outcome = solve(pcg)
            assert isinstance(outcome, OrientationAssignment) == bool(solutions), pcg
            if solutions:
                pinned = [s for s in solutions if not any(s[v] for v in least)]
                assert [outcome.flips] == pinned, pcg
                assert outcome.components == len(least), pcg
            else:
                self.assert_odd_closed_walk(pcg, outcome)

    @staticmethod
    def assert_odd_closed_walk(pcg, w):
        assert w.is_odd(), pcg
        assert len(w.cycle_ids) == len(w.paths) + 1 == len(w.parities) + 1, pcg
        assert w.cycle_ids[0] == w.cycle_ids[-1], pcg
        for i, (path, parity) in enumerate(zip(w.paths, w.parities)):
            a, b, d, _p = pcg.edges[path[0]]
            assert {a, b} == {w.cycle_ids[i], w.cycle_ids[i + 1]}, pcg
            assert parity == d, pcg

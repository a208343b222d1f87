import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdtsep.catalog import CdtName, build_cdt, cdt_parameters
from cdtsep.cycles import canonical_cycle, enumerate_girth_cycles, path_key
from cdtsep.graph6 import parse_graph6, write_graph6
from cdtsep.graphs import build_graph
from cdtsep.orient import OrientationAssignment, build_constraints, solve, verify_ooa


@st.composite
def distinct_tuples(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    return tuple(draw(st.permutations(range(n))))


class TestCanonicalCycleProperties:
    @given(distinct_tuples())
    def test_idempotent(self, cyc):
        c = canonical_cycle(cyc)
        assert canonical_cycle(c) == c

    @given(distinct_tuples(), st.integers(min_value=0, max_value=7))
    def test_rotation_invariant(self, cyc, shift):
        shift %= len(cyc)
        rotated = cyc[shift:] + cyc[:shift]
        assert canonical_cycle(rotated) == canonical_cycle(cyc)

    @given(distinct_tuples())
    def test_reflection_invariant(self, cyc):
        assert canonical_cycle(cyc[::-1]) == canonical_cycle(cyc)

    @given(distinct_tuples())
    def test_starts_at_minimum(self, cyc):
        assert canonical_cycle(cyc)[0] == min(cyc)

    @given(distinct_tuples())
    def test_path_key_reversal_invariant(self, cyc):
        assert path_key(cyc) == path_key(cyc[::-1])
        assert path_key(cyc) in (cyc, cyc[::-1])


class TestGraph6RoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_cubic_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(4, 21, 2)  # cubic graphs need even order
        nxg = nx.random_regular_graph(3, n, seed=rng.randrange(2**31))
        g = build_graph(n, sorted(nxg.edges()))
        h = parse_graph6(write_graph6(g))
        assert h.order == g.order
        assert sorted(h.edges()) == sorted(g.edges())

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_agrees_with_networkx_encoding(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 15)
        nxg = nx.gnp_random_graph(n, 0.4, seed=rng.randrange(2**31))
        g = build_graph(n, sorted(nxg.edges()))
        assert write_graph6(g) == nx.to_graph6_bytes(
            nxg, nodes=range(n), header=False
        ).decode().strip()

    @pytest.mark.parametrize("name", CdtName, ids=str)
    def test_catalog_agrees_with_networkx_encoding(self, name):
        g, _ = build_cdt(name)
        h = nx.Graph()
        h.add_nodes_from(range(g.order))
        h.add_edges_from(g.edges())
        text = write_graph6(g)
        assert text == nx.to_graph6_bytes(h, header=False).decode().strip()
        assert text.startswith("~") == (g.order > 62)  # Foster and Biggs-Smith


class TestOrientationProperties:
    @pytest.mark.parametrize("text", ["k4", "k33", "q3", "dodecahedral"])
    def test_flip_set_symmetry(self, text):
        """Complementing every flip yields another valid assignment."""
        name = CdtName.from_string(text)
        g, _ = build_cdt(name)
        p = cdt_parameters(name)
        cs = enumerate_girth_cycles(g)
        a = solve(build_constraints(g, cs, p.k))
        for mask in range(2):
            flipped = OrientationAssignment(
                tuple(f ^ bool(mask) for f in a.flips), a.components
            )
            assert verify_ooa(g, cs, p.k, flipped)

    def test_single_flip_never_verifies(self):
        name = CdtName.Q3
        g, _ = build_cdt(name)
        p = cdt_parameters(name)
        cs = enumerate_girth_cycles(g)
        a = solve(build_constraints(g, cs, p.k))
        for i in range(len(a.flips)):
            flips = list(a.flips)
            flips[i] = not flips[i]
            corrupt = OrientationAssignment(tuple(flips), a.components)
            assert not verify_ooa(g, cs, p.k, corrupt)

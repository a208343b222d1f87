"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line.  Failing criteria record reference values that the
recomputation contradicts; the mismatching subparts are listed in the
assertion message and analyzed in the project notes."""

import random

import networkx as nx

from cdtsep.catalog import GL32_GENERATORS, CdtName, build_cdt, reference_ooc
from cdtsep.cycles import (
    canonical_cycle,
    cycles_through,
    unordered_paths,
)
from cdtsep.graph6 import parse_graph6, write_graph6
from cdtsep.graphs import build_graph, is_bipartite, underlying
from cdtsep.groups import (
    alternating_elements,
    arc_transitivity,
    cayley_digraph,
    compose,
    digraph_isomorphic,
    gl32_elements,
    gl32_mult,
    is_distance_transitive,
    regular_subgroups,
    symmetric_elements,
)
from cdtsep.orient import (
    OddWitness,
    OrientationAssignment,
    assignment_from_cycles,
    verify_ooa,
)
from cdtsep.report import KNOWN_DISCREPANCIES
from conftest import separator_digraph

SOLVABLE = ["k4", "k33", "q3", "dodecahedral", "desargues", "coxeter", "tutte"]
UNSOLVABLE = ["petersen", "heawood", "pappus", "foster", "biggs-smith"]

def conclude(number, description, failures):
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} — {description}")
    assert not failures, f"criterion {number} failed on: {failures}"


def test_criterion_01_catalog_parameters(analysis_of):
    failures = []
    for text in SOLVABLE + UNSOLVABLE:
        a = analysis_of(text)
        p = a.row
        got = (a.graph.order, a.table.diameter, a.girth, int(is_bipartite(a.graph)))
        if got != (p.n, p.d, p.g, p.b):
            failures.append((text, got))
    conclude(1, "recomputed (n, d, g, b) match the reference table", failures)


def test_criterion_02_girth_cycle_counts(analysis_of):
    failures = []
    for text in SOLVABLE + UNSOLVABLE:
        a = analysis_of(text)
        p, cs = a.row, a.cycles
        expected = 2 ** (p.k - 2) * 3 * p.n // p.g
        if not (len(cs) == expected == p.eta):
            failures.append((text, len(cs)))
    conclude(2, "girth-cycle counts equal 2^(k-2)·3n/g for all 12 graphs", failures)


def test_criterion_03_fastening_law(analysis_of):
    failures = []
    for text in SOLVABLE + UNSOLVABLE:
        a = analysis_of(text)
        g, p, profile = a.graph, a.row, a.fastening
        if not profile.uniform:
            failures.append(text)
            continue
        for i in range(p.k - 1):
            if set(profile.levels[i]) != {2 ** (i + 1)}:
                failures.append((text, i))
            if sum(profile.levels[i].values()) != len(unordered_paths(g, p.k - 1 - i)):
                failures.append((text, i, "not exhaustive"))
    conclude(
        3, "every (k-i-1)-path lies in exactly 2^(i+1) girth cycles", failures
    )


def test_criterion_04_solver_split_and_witnesses(analysis_of):
    failures = []
    for text in SOLVABLE:
        a = analysis_of(text)
        if not a.solved or not verify_ooa(a.graph, a.cycles, a.k, a.outcome):
            failures.append(text)
    for text in UNSOLVABLE:
        a = analysis_of(text)
        cs, w = a.cycles, a.outcome
        if not isinstance(w, OddWitness):
            failures.append(text)
            continue
        ok = w.is_odd() and w.cycle_ids[0] == w.cycle_ids[-1]
        for i, path in enumerate(w.paths):
            hits = cycles_through(cs, path)
            ok = ok and len(hits) == 2
            if not ok:
                break
            (c1, d1), (c2, d2) = hits
            ok = ok and {c1, c2} == {w.cycle_ids[i], w.cycle_ids[i + 1]}
            ok = ok and w.parities[i] == (d1 == d2)
        if not ok:
            failures.append((text, "witness does not re-validate"))
    conclude(4, "orientation solver splits 7/5 and every odd witness re-validates",
             failures)


def test_criterion_05_reference_cycle_fixtures(analysis_of):
    failures = []
    for text in SOLVABLE:
        a = analysis_of(text)
        name = CdtName.from_string(text)
        fixture = reference_ooc(name, *build_cdt(name))
        ref = assignment_from_cycles(a.cycles, fixture.cycles)
        if not verify_ooa(a.graph, a.cycles, a.k, ref):
            failures.append(text)
    conclude(5, "all seven reference cycle listings verify as valid orientations",
             failures)


def test_criterion_06_separator_structure(analysis_of):
    expected_orders = dict(zip(SOLVABLE, [12, 36, 24, 60, 120, 168, 720]))
    failures = []
    for text in SOLVABLE:
        a = analysis_of(text)
        p, s = a.row, a.separator
        d = separator_digraph(s)
        in_deg = [0] * s.order
        for _u, v in d.arcs():
            in_deg[v] += 1
        under = underlying(d)
        checks = [
            s.order == expected_orders[text],
            all(len(d.out_adj[v]) == 2 and in_deg[v] == 2
                for v in range(s.order)),
            under.is_cubic() and under.is_connected(),
            s.oriented_cycle_count == p.eta,
        ]
        if not all(checks):
            failures.append((text, checks))
    conclude(6, "separator orders, 2-in/2-out regularity, cubic underlying graphs",
             failures)


def test_criterion_07_alternate_cycle_censuses(analysis_of):
    failures = []
    # (graph, r, reference count, reference length)
    expectations = [
        ("desargues", 0, 20, 6),
        ("desargues", 1, 30, 8),
        ("k33", 0, 9, 4),
        ("k33", 1, 9, 8),
        ("tutte", 1, 180, 8),
        ("tutte", 2, 180, 12),
        ("tutte", 3, 90, 32),
        ("tutte", 4, 240, 15),
        # reference bi-alternate counts; the recomputation doubles both
        ("k33", 2, 6, 9),
        ("desargues", 2, 20, 9),
    ]
    for text, r, count, length in expectations:
        a = analysis_of(text)
        s, census = a.separator, a.census
        if r == 0:
            got_count, got_lengths = s.oriented_cycle_count, {s.girth}
        else:
            got_count, got_lengths = census.simple_count(r), census.simple_lengths(r)
        if got_count != count or got_lengths != {length}:
            failures.append((text, f"{r}-alternate", count, got_count))
    conclude(7, "oriented/alternate/bi/tri/tetra cycle censuses match the reference",
             failures)


def test_criterion_08_topology(analysis_of):
    # reference (chi, genus); the Tutte recomputation gives (-90, 46)
    expectations = [
        ("k4", 2, 0),
        ("q3", 2, 0),
        ("dodecahedral", 2, 0),
        ("k33", 0, 1),
        ("desargues", -10, 6),
        ("coxeter", -18, 10),
        ("tutte", -120, 61),
    ]
    failures = []
    for text, chi, genus in expectations:
        rep = analysis_of(text).surface
        if not (rep.orientable and rep.chi == chi and rep.genus == genus):
            failures.append((text, rep.chi, rep.genus))
    conclude(8, "Euler characteristics, orientability and genus of all seven surfaces",
             failures)


def test_criterion_09_automorphism_groups(analysis_of):
    failures = []
    for text in SOLVABLE + UNSOLVABLE:
        a = analysis_of(text)
        if a.host_group.order() != a.row.a:
            failures.append((text, a.host_group.order()))
    for text in SOLVABLE:
        a = analysis_of(text)
        if a.separator_group.order() != a.row.a:
            failures.append((text, "separator", a.separator_group.order()))
    conclude(9, "host and separator automorphism-group orders match column a",
             failures)


def test_criterion_10_cayley_identifications(analysis_of):
    failures = []
    targets = [
        ("k4", alternating_elements(4), ((1, 2, 0, 3), (1, 0, 3, 2))),
        ("q3", symmetric_elements(4), ((1, 2, 3, 0), (1, 0, 2, 3))),
        ("dodecahedral", alternating_elements(5), ((1, 2, 3, 4, 0), (0, 2, 1, 4, 3))),
    ]
    for text, elements, gens in targets:
        s = analysis_of(text).separator
        target = cayley_digraph(elements, compose, list(gens))
        if digraph_isomorphic(separator_digraph(s), target) is None:
            failures.append((text, "cayley"))
    for text, order, spectrum in [
        ("k33", 36, None),
        ("desargues", 120, {1, 2, 3, 4, 5, 6}),
        ("tutte", 720, {1, 2, 3, 4, 5, 8}),
    ]:
        a = analysis_of(text)
        subs = regular_subgroups(a.separator_group, a.separator.order)
        if not any(r.order() == order for r in subs):
            failures.append((text, "regular subgroup"))
        elif spectrum is not None and spectrum not in [
            r.order_spectrum() for r in subs
        ]:
            failures.append((text, "spectrum"))
    ref_target = cayley_digraph(gl32_elements(), gl32_mult, list(GL32_GENERATORS))
    coxeter = separator_digraph(analysis_of("coxeter").separator)
    if digraph_isomorphic(coxeter, ref_target) is None:
        failures.append(("coxeter", "cayley reference matrices"))
    conclude(10, "Cayley identifications and regular subgroups of the separators",
             failures)


def test_criterion_11_transitivity(analysis_of):
    failures = []
    for text in SOLVABLE + UNSOLVABLE:
        a = analysis_of(text)
        if not is_distance_transitive(a.graph, a.host_group):
            failures.append((text, "distance"))
        if arc_transitivity(a.graph, a.host_group) != a.row.k:
            failures.append((text, "arc"))
    conclude(11, "distance transitivity and arc-transitivity degree for all 12",
             failures)


def test_criterion_12_known_discrepancy_ledger(full_report):
    flagged = sorted((g, c.name) for g, c in full_report.flags())
    failures = [] if flagged == sorted(KNOWN_DISCREPANCIES) else [flagged]
    conclude(12, "verification flags exactly the three documented inconsistencies",
             failures)


def test_criterion_13_property_suite(analysis_of):
    failures = []
    rng = random.Random(20260823)
    for _ in range(1000):
        n = rng.randrange(4, 21, 2)
        nxg = nx.random_regular_graph(3, n, seed=rng.randrange(2**31))
        g = build_graph(n, sorted(nxg.edges()))
        h = parse_graph6(write_graph6(g))
        if sorted(h.edges()) != sorted(g.edges()):
            failures.append(("graph6 round trip", write_graph6(g)))
            break
    for _ in range(200):
        n = rng.randrange(3, 9)
        cyc = tuple(rng.sample(range(n), n))
        c = canonical_cycle(cyc)
        rot = cyc[1:] + cyc[:1]
        if canonical_cycle(c) != c or canonical_cycle(rot) != c \
                or canonical_cycle(cyc[::-1]) != c:
            failures.append(("canonical form", cyc))
            break
    q3 = analysis_of("q3")
    g, k, cs, a = q3.graph, q3.k, q3.cycles, q3.outcome
    flipped = OrientationAssignment(tuple(not f for f in a.flips), a.components)
    if not verify_ooa(g, cs, k, flipped):
        failures.append("global flip invariance")
    for i in range(len(a.flips)):
        flips = list(a.flips)
        flips[i] = not flips[i]
        if verify_ooa(g, cs, k, OrientationAssignment(tuple(flips), a.components)):
            failures.append(("independent checker accepted a corrupt assignment", i))
            break
    conclude(13, "property suite: round trips, canonical forms, flip invariance",
             failures)

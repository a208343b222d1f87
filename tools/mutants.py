"""Mutation check: each named mutant is applied to a clean copy of a
committed tree, and the tests that must catch it are run on that copy.

A mutant names a file, a text that occurs in it exactly once, the text
that replaces it, and the pytest node ids that must fail once it is in.
The copy is made with ``git archive`` in a temporary directory, so the
working tree is never touched.  The tool exits non-zero when a listed
node id passes on its mutant (the mutant survived), or when a mutant's
text no longer occurs exactly once (the mutant is stale)::

    python3 tools/mutants.py                 # every mutant, on HEAD
    python3 tools/mutants.py --list          # the names
    python3 tools/mutants.py fold-prefix-runs flipped-row-trans --rev HEAD~1
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    must_fail: tuple[str, ...]


MUTANTS = (
    # the (k-1)-arc table and its readers
    Mutant(
        "fold-prefix-runs", "src/cdtsep/cycles.py",
        "counts = [sum(islice(walks, run)) for run in t.runs[k - 2 - i]]",
        "counts = [sum(islice(walks, 2)) for run in t.runs[k - 2 - i]]",
        ("tests/test_cycles.py::TestFastening::test_equals_the_reference_off_cubic_graphs",),
    ),
    Mutant(
        "flipped-row-trans", "src/cdtsep/separator.py",
        "row = [trans[v] for v in row[s::-1] + row[:s:-1]]",
        "row = row[s::-1] + row[:s:-1]",
        ("tests/test_separator.py::TestAgainstTheWindowLookup::test_equals_the_reference",),
    ),
    Mutant(
        "flipped-row-rotation", "src/cdtsep/separator.py",
        "row = [trans[v] for v in row[s::-1] + row[:s:-1]]",
        "row = [trans[v] for v in row[::-1]]",
        ("tests/test_separator.py::TestAgainstTheWindowLookup::test_equals_the_reference",),
    ),
    Mutant(
        "hit-direction-sign", "src/cdtsep/cycles.py",
        "fwd, bwd = (cid, 1), (cid, -1)\n        for a in row:",
        "fwd, bwd = (cid, -1), (cid, 1)\n        for a in row:",
        ("tests/test_cycles.py::TestArcTable::test_hits_equal_the_reference_index",),
    ),
    Mutant(
        "edges-in-id-order", "src/cdtsep/orient.py",
        "for a, b in enumerate(t.trans):",
        "for a, b in reversed(tuple(enumerate(t.trans))):",
        ("tests/test_orient.py::TestConstraintEdges::test_against_reference",),
    ),
    Mutant(
        "zero-count-arcs-dropped", "src/cdtsep/cycles.py",
        "levels[i] = Counter({c: m // 2 for c, m in Counter(counts).items()})",
        "levels[i] = Counter({c: m // 2 for c, m in Counter(filter(None, counts)).items()})",
        ("tests/test_cycles.py::TestFastening::test_equals_the_reference_beyond_the_catalog",
         "tests/test_cycles.py::TestAgainstReferences::test_fastening_profile"),
    ),
    Mutant(
        "window-scan-direction", "src/cdtsep/cycles.py",
        "out.append((cid, 1))",
        "out.append((cid, -1))",
        ("tests/test_cycles.py::TestCyclesThrough::test_direction_matches_the_reference",
         "tests/test_cycles.py::TestCyclesThrough::test_other_lengths_build_no_table"),
    ),
    Mutant(
        "cycles-through-ids-unchecked", "src/cdtsep/cycles.py",
        "    if min(p) < 0 or max(p) >= n:\n"
        "        raise GraphError(f\"{p} is not a path on the vertices 0..{n - 1}\")\n",
        "",
        ("tests/test_cycles.py::TestCyclesThrough::test_rejects_ids_off_the_vertices",),
    ),
    Mutant(
        "fastening-graph-unchecked", "src/cdtsep/cycles.py",
        "    if g != cs.graph:\n        raise GraphError(\"the girth cycles are not those of this graph\")\n    if k - 1",
        "    if k - 1",
        ("tests/test_cycles.py::TestFastening::test_refuses_the_cycles_of_another_graph",),
    ),
    # the face walks, checked once, in euler
    Mutant(
        "euler-range-unchecked", "src/cdtsep/topology.py",
        "            if min(face) < 0 or max(face) >= n:\n"
        "                raise GraphError(f\"face walk {face} is not a walk on the vertices 0..{n - 1}\")\n",
        "",
        ("tests/test_topology.py::TestEuler::test_names_a_walk_off_the_vertices[above-n]",
         "tests/test_topology.py::TestEuler::test_names_a_walk_off_the_vertices[negative]",
         "tests/test_topology.py::TestFaceComplex::test_rejects_a_vertex_out_of_range"),
    ),
    # Aut(D) and the index-2 kernels as Schreier stabilizers
    Mutant(
        "transversal-wrong-side", "src/cdtsep/groups.py",
        "else compose(transversal[x], g)",
        "else compose(g, transversal[x])",
        ("tests/test_groups.py::TestOrientationKernel::test_index_six_on_the_hex_torus[4-96]",
         "tests/test_groups.py::TestOrientationKernel::test_index_six_on_the_hex_torus[5-150]"),
    ),
    Mutant(
        "stabilizer-order-halved", "src/cdtsep/groups.py",
        "stabilizer._order = group.order() // len(points)",
        "stabilizer._order = group.order() // 2",
        ("tests/test_groups.py::TestOrientationKernel::test_index_six_on_the_hex_torus[4-96]",
         "tests/test_groups.py::TestOrientationKernel::test_index_six_on_the_hex_torus[5-150]"),
    ),
    Mutant(
        "one-point-orbit-rebuilt", "src/cdtsep/groups.py",
        "    if len(points) == 1:\n        return group\n",
        "",
        ("tests/test_groups.py::TestOrientationKernel::"
         "test_a_group_with_no_reverser_is_its_own_kernel",),
    ),
    Mutant(
        "in-degrees-uncounted", "src/cdtsep/separator.py",
        "return indeg.count(2) == len(indeg)",
        "return True",
        ("tests/test_separator.py::TestDirectConstruction::test_in_degrees_are_read",),
    ),
    # products, permutation checks and seeds by itemgetter
    Mutant(
        "compose-operands-swapped", "src/cdtsep/groups.py",
        "return itemgetter(*q)(p) if len(q) > 1",
        "return itemgetter(*p)(q) if len(p) > 1",
        ("tests/test_groups.py::TestPermBasics::test_compose_applies_right_factor_first",
         "tests/test_groups.py::TestPermBasics::test_products_and_images_equal_the_map_form[720]"),
    ),
    Mutant(
        "permutation-repeats-unchecked", "src/cdtsep/groups.py",
        " or len(entries) != degree",
        "",
        ("tests/test_groups.py::TestPermBasics::test_rejects_non_permutation",),
    ),
    Mutant(
        "seed-succ-unchecked", "src/cdtsep/groups.py",
        "if compose(m, succ) == compose(succ, m):",
        "if True:",
        ("tests/test_groups.py::TestSeparatorAutomorphisms::"
         "test_orientation_reverser_becomes_arc_reverser",),
    ),
    # each kernel's regularity and element orders off the stabilizer of 0
    Mutant(
        "identity-counted-in-g0", "src/cdtsep/groups.py",
        "if y[zero] == 0 and y != base]",
        "if y[zero] == 0]",
        ("tests/test_groups.py::TestRegularSubgroups::"
         "test_separator_groups_against_reference[tutte-3-2]",
         "tests/test_groups.py::TestRegularSubgroups::test_tutte_builds_only_its_regular_kernels"),
    ),
    Mutant(
        "orders-at-the-first-base-point", "src/cdtsep/groups.py",
        "set().union(*kernels), (zero,))",
        "set().union(*kernels), (0,))",
        ("tests/test_groups.py::TestRegularSubgroups::"
         "test_orders_are_read_at_zero_beyond_the_points",),
    ),
    # the Cayley walk
    Mutant(
        "cayley-walk-conflict-unchecked", "src/cdtsep/groups.py",
        "            elif phi[q] != y:\n                return None\n",
        "",
        ("tests/test_groups.py::TestCayleyIsomorphism::"
         "test_a_conflict_off_the_walk_tree_is_refused[k4]",
         "tests/test_groups.py::TestCayleyIsomorphism::"
         "test_a_conflict_off_the_walk_tree_is_refused[q3]"),
    ),
    Mutant(
        "cayley-bijection-unchecked", "src/cdtsep/groups.py",
        "if phi is not None and set(phi) == index.keys():",
        "if phi is not None:",
        ("tests/test_groups.py::TestCayleyIsomorphism::"
         "test_a_consistent_walk_onto_a_subgroup_is_refused",),
    ),
    # girth cycles from one layered BFS per root
    Mutant(
        "girth-cycles-v-not-root", "src/cdtsep/cycles.py",
        "                for v in adj[u]:\n                    if v > root and path[v] is None:",
        "                for v in adj[u]:\n                    if v != root and path[v] is None:",
        ("tests/test_cycles.py::TestAgainstReferences::test_girth_cycles",
         "tests/test_cycles.py::TestAgainstReferences::test_girth_cycles_beyond_the_catalog"),
    ),
    Mutant(
        "girth-cycles-odd-meets-dropped", "src/cdtsep/cycles.py",
        "if w > u and w in top:",
        "if w > u and w in top and False:",
        ("tests/test_cycles.py::TestEnumeration::test_counts_match_eta[petersen]",
         "tests/test_cycles.py::TestAgainstReferences::test_girth_cycles"),
    ),
    # the girth's cut BFS and the diameter's bitset balls
    Mutant(
        "girth-bfs-parent-edge", "src/cdtsep/graphs.py",
        "elif v != pu and du1 + dv < best:",
        "elif du1 + dv < best:",
        ("tests/test_graphs.py::TestOneSweepAgainstNetworkx::test_girth_distances_and_errors",),
    ),
    Mutant(
        "girth-bfs-early-cut", "src/cdtsep/graphs.py",
        "if 2 * du1 > best:",
        "if 2 * du1 >= best:",
        ("tests/test_graphs.py::TestOneSweepAgainstNetworkx::test_girth_distances_and_errors",),
    ),
    Mutant(
        "diameter-from-one", "src/cdtsep/graphs.py",
        "    diameter = 0\n    while min(balls) != full:",
        "    diameter = 1\n    while min(balls) != full:",
        ("tests/test_graphs.py::TestDistances::test_petersen_diameter",),
    ),
)


def extract(rev: str, dest: Path) -> None:
    """The tree of rev, as git archive writes it, unpacked into dest."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def failed_nodes(tree: Path, nodes: tuple[str, ...]) -> tuple[set[str], str]:
    """The node ids among nodes that fail or error on tree, and the
    pytest output's last line."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "-o", "addopts=", *nodes],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = set()
    for line in run.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR"):
            failed.add(rest.split(" - ")[0])
    lines = run.stdout.strip().splitlines()
    return failed, lines[-1] if lines else run.stderr.strip()


def check(mutant: Mutant, tree: Path) -> str | None:
    """Run mutant on tree, which is restored afterwards; None when every
    must-fail node fails, else what went wrong."""
    path = tree / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return f"stale: its text occurs {text.count(mutant.old)} times in {mutant.path}"
    path.write_text(text.replace(mutant.old, mutant.new))
    try:
        failed, summary = failed_nodes(tree, mutant.must_fail)
    finally:
        path.write_text(text)
    survivors = [node for node in mutant.must_fail if node not in failed]
    return f"survived {survivors} ({summary})" if survivors else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--rev", default="HEAD", help="the commit to mutate (default: HEAD)")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if args.list:
        print("\n".join(by_name))
        return 0
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or list(MUTANTS)
    bad = 0
    with tempfile.TemporaryDirectory(prefix="cdtsep-mutants-") as tmp:
        tree = Path(tmp)
        extract(args.rev, tree)
        for mutant in chosen:
            problem = check(mutant, tree)
            print(f"{mutant.name}: {'killed' if problem is None else problem}", flush=True)
            bad += problem is not None
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

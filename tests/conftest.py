import random
import sys

import pytest

from cdtsep import catalog, cycles, graphs, groups, orient, separator
from cdtsep.analysis import Analysis
from cdtsep.catalog import CdtName, build_cdt, cdt_parameters
from cdtsep.graph6 import parse_graph6, write_graph6
from cdtsep.graphs import build_digraph, build_graph
from cdtsep.report import run_report


def generalized_petersen(n, k):
    """GP(n, k) for 1 <= k < n/2: outer cycle 0..n-1, spokes i -- n+i,
    inner edges n+i -- n+(i+k)."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    return build_graph(2 * n, edges + [(n + i, n + (i + k) % n) for i in range(n)])


def hex_torus(b, c):
    """The hexagonal torus map {6,3}_{b,c} (Coxeter, Bull. AMS 1950) as a
    graph on 2(b² + bc + c²) vertices, for b >= 2 and c >= 0.

    The honeycomb's hexagons sit on the lattice points x + yω of the
    triangular lattice, ω at 60°; the up triangle (z, z + 1, z + ω) is
    vertex 2i and the down triangle (z + 1, z + ω, z + 1 + ω) vertex
    2i + 1, for z the i-th class of the lattice modulo the sublattice
    spanned by u = b + cω and ωu = -c + (b + c)ω.  Each up triangle at
    z meets the down triangles at z, z - 1 and z - ω."""
    d = b * b + b * c + c * c

    def cell(x, y):
        # x + yω less its whole coordinates over the basis u, ωu
        s, t = ((b + c) * x + c * y) // d, (b * y - c * x) // d
        return x - s * b + t * c, y - s * c - t * (b + c)

    cells = sorted({cell(x, y) for x in range(d) for y in range(d)})
    ids = {z: i for i, z in enumerate(cells)}
    edges = [(2 * ids[(x, y)], 2 * ids[cell(x + dx, y + dy)] + 1)
             for x, y in cells for dx, dy in ((0, 0), (-1, 0), (0, -1))]
    return build_graph(2 * d, edges)


def separator_digraph(s):
    """The digraph D of a separator: an arc v -> succ v along the
    oriented cycles and v -> trans v to the reversal of each vertex."""
    return build_digraph(s.order, [*enumerate(s.succ), *enumerate(s.trans)])


def random_cubic(n, rng):
    """A random simple cubic graph on n vertices, n even: the pairing
    model, redrawn until the pairing has no loop and no double edge."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return build_graph(n, edges)


def bfs_distance_table(g):
    """All-pairs hop distances of g as rows of a tuple, by one plain BFS
    from each vertex; -1 marks a vertex the row's root does not reach."""
    rows = []
    for root in range(g.order):
        dist = [-1] * g.order
        dist[root] = 0
        queue = [root]
        for u in queue:
            for v in g.adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        rows.append(tuple(dist))
    return tuple(rows)


@pytest.fixture(scope="session")
def analysis_of():
    """Shared per-graph pipeline: text name -> its catalog Analysis."""
    cache = {}

    def get(text):
        if text not in cache:
            cache[text] = Analysis.from_catalog(CdtName.from_string(text))
        return cache[text]

    return get


@pytest.fixture(scope="session")
def layer_graphs():
    """(label, graph, k) for the twelve catalog graphs, three seeded
    relabelings of each passed through graph6, and two graphs where two
    girth cycles per key path fail: the triangular prism with k = 2 and
    k = 3, and the cube with a pendant edge, whose edges lie in two
    girth cycles each except the pendant one, which lies in none."""
    out = []
    for name in CdtName:
        g, _ = build_cdt(name)
        k = cdt_parameters(name).k
        out.append((name.value, g, k))
        for seed in (1, 2, 3):
            perm = list(range(g.order))
            random.Random(seed).shuffle(perm)
            h = build_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges()])
            out.append((f"{name.value}/{seed}", parse_graph6(write_graph6(h)), k))
    prism = build_graph(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    cube, _ = build_cdt(CdtName.Q3)
    pendant = build_graph(9, cube.edges() + [(0, 8)])
    out += [("prism", prism, 2), ("prism", prism, 3), ("cube+pendant", pendant, 2)]
    return out


def count_calls(mp, owner, fname, counts):
    """Replace owner.fname under every cdtsep binding by a wrapper that
    counts its calls in counts[fname]; a class owner's method is
    replaced on the class."""
    original = getattr(owner, fname)
    counts[fname] = 0

    def wrapper(*args, **kwargs):
        counts[fname] += 1
        return original(*args, **kwargs)

    if isinstance(owner, type):
        mp.setattr(owner, fname, wrapper)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cdtsep" and vars(module).get(fname) is original:
            mp.setattr(module, fname, wrapper)


@pytest.fixture(scope="session")
def counted_run():
    """The one full run_report() of the session, with the number of calls
    it made to build_cdt, automorphism_group, build_separator, underlying,
    enumerate_arcs, verify_ooa, the arc table builder of the cycle sets,
    and the one BFS sweep behind distances and girth, under every cdtsep
    binding."""
    counts = {}
    with pytest.MonkeyPatch.context() as mp:
        for owner, fname in (
            (catalog, "build_cdt"),
            (groups, "automorphism_group"),
            (separator, "build_separator"),
            (graphs, "underlying"),
            (graphs, "enumerate_arcs"),
            (orient, "verify_ooa"),
            (cycles, "_arc_table"),
            (graphs, "_bfs_sweep"),
        ):
            count_calls(mp, owner, fname, counts)
        report = run_report()
    return report, counts


@pytest.fixture(scope="session")
def full_report(counted_run):
    return counted_run[0]

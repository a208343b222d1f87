"""The twelve cubic distance-transitive graphs: constructors, reference
parameters and per-graph reference records, label tables and the
published oriented girth-cycle fixtures.

Each graph is built from its classical edge rule over a documented label
set, then relabeled to dense integer ids through a LabelTable.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .graphs import Graph, build_graph

__all__ = [
    "CdtName",
    "CdtParameters",
    "Flag",
    "GL32_GENERATORS",
    "GL32_SEPARATOR_GENERATORS",
    "LabelTable",
    "OocFixture",
    "Reference",
    "build_cdt",
    "cdt_parameters",
    "reference",
    "reference_ooc",
]


class CdtName(enum.Enum):
    K4 = "k4"
    K33 = "k33"
    Q3 = "q3"
    PETERSEN = "petersen"
    HEAWOOD = "heawood"
    PAPPUS = "pappus"
    DODECAHEDRAL = "dodecahedral"
    DESARGUES = "desargues"
    COXETER = "coxeter"
    TUTTE = "tutte"
    FOSTER = "foster"
    BIGGS_SMITH = "biggs-smith"

    @classmethod
    def from_string(cls, text: str) -> "CdtName":
        key = text.strip().lower().replace("_", "-")
        for name in cls:
            if name.value == key:
                return name
        raise ValueError(f"unknown catalog graph {text!r}")


class CdtParameters(NamedTuple):
    """One reference row: order, diameter, girth, arc-transitivity,
    girth-cycle count, automorphism count, bipartite/hamiltonian flags and
    the orientation classification kappa."""

    n: int
    d: int
    g: int
    k: int
    eta: int
    a: int
    b: int
    h: int
    kappa: int


# Reference parameter rows for the twelve graphs.
_PARAMETERS: dict[CdtName, CdtParameters] = {
    CdtName.K4: CdtParameters(4, 1, 3, 2, 4, 24, 0, 1, 1),
    CdtName.K33: CdtParameters(6, 2, 4, 3, 9, 72, 1, 1, 2),
    CdtName.Q3: CdtParameters(8, 3, 4, 2, 6, 48, 1, 1, 1),
    CdtName.PETERSEN: CdtParameters(10, 2, 5, 3, 12, 120, 0, 0, 0),
    CdtName.HEAWOOD: CdtParameters(14, 3, 6, 4, 28, 336, 1, 1, 0),
    CdtName.PAPPUS: CdtParameters(18, 4, 6, 3, 18, 216, 1, 1, 0),
    CdtName.DODECAHEDRAL: CdtParameters(20, 5, 5, 2, 12, 120, 0, 1, 1),
    CdtName.DESARGUES: CdtParameters(20, 5, 6, 3, 20, 240, 1, 1, 3),
    CdtName.COXETER: CdtParameters(28, 4, 7, 3, 24, 336, 0, 0, 3),
    CdtName.TUTTE: CdtParameters(30, 4, 8, 5, 90, 1440, 1, 1, 2),
    CdtName.FOSTER: CdtParameters(90, 8, 10, 5, 216, 4320, 1, 1, 0),
    CdtName.BIGGS_SMITH: CdtParameters(102, 7, 9, 4, 136, 2448, 0, 1, 0),
}


class Flag(NamedTuple):
    """A documented inconsistency of the reference text: the value it
    prints and why that is flagged rather than a mismatch."""

    printed: object
    note: str


class Reference(NamedTuple):
    """The reference values of one graph beyond its parameter row, all
    empty for the five graphs without oriented girth cycles.  Generators
    are 0-indexed image tuples; no record is ever mutated."""

    # (count or None, length) of the simple r-alternate cycles, r = 1, 2, ...
    alternates: tuple[tuple[int | None, int], ...] = ()
    chi: int | None = None
    genus: int | None = None
    # check name -> generators of a Cayley digraph isomorphic to the separator
    cayley: dict[str, tuple] = {}
    # generators, on the host vertices, of a regular subgroup of the
    # separator's automorphism group, and the order spectrum of one
    subgroup: tuple[tuple[int, ...], ...] = ()
    spectrum: tuple[int, ...] = ()
    flags: dict[str, Flag] = {}  # check name -> flag


# The paper's GL(3,2) pair for the Coxeter separator, written as rows.
# Columns (100), (001), (010) and (001), (101), (010): an involution and
# an element of order 7 generating the whole group.
GL32_GENERATORS = (
    ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
    ((0, 1, 0), (0, 0, 1), (1, 1, 0)),
)

# Corrected involution for the Coxeter separator: the reference pair
# multiplies to an order-3 element, which cannot reproduce the alternate
# 8-cycles; the antidiagonal involution does (product order 4).
GL32_SEPARATOR_GENERATORS = (((0, 0, 1), (0, 1, 0), (1, 0, 0)), GL32_GENERATORS[1])

_REFERENCES: dict[CdtName, Reference] = {
    CdtName.K4: Reference(
        ((4, 6), (None, 9)), 2, 0, cayley={"cayley-a4": ((1, 2, 0, 3), (1, 0, 3, 2))},
        flags={"truncated-solid-name": Flag("truncated octahedron", (
            "the summary statement names the truncated octahedron; the underlying separator"
            " graph is the truncated tetrahedron, verified by explicit isomorphism"))},
    ),
    CdtName.K33: Reference(  # subgroup: (0,5,4,1)(2,3) and (0,2)(1,5)
        ((9, 8), (6, 9)), 0, 1, subgroup=((5, 0, 3, 2, 1, 4), (2, 5, 0, 3, 4, 1))
    ),
    CdtName.Q3: Reference(
        ((8, 6), (None, 12)), 2, 0, cayley={"cayley-s4": ((1, 2, 3, 0), (1, 0, 2, 3))}
    ),
    CdtName.DODECAHEDRAL: Reference(
        ((20, 6), (None, 15)), 2, 0, cayley={"cayley-a5": ((1, 2, 3, 4, 0), (0, 2, 1, 4, 3))}
    ),
    CdtName.DESARGUES: Reference(
        ((30, 8), (20, 9)), -10, 6, spectrum=(1, 2, 3, 4, 5, 6),  # diagonal copy of S5
        flags={"transposition-edge-count": Flag(120, (
            "printed edge count double-counts: the 120 vertices pair into 60 transposition"
            " edges"))},
    ),
    CdtName.COXETER: Reference(((42, 8), (None, 9)), -18, 10, cayley={
        "cayley-gl32-reference-matrices": GL32_GENERATORS,
        "cayley-gl32-corrected-involution": GL32_SEPARATOR_GENERATORS,
    }),
    CdtName.TUTTE: Reference(
        ((180, 8), (180, 12), (90, 32), (240, 15)), -120, 61, spectrum=(1, 2, 3, 4, 5, 8),  # M10
        flags={"bi-alternate-length-vs-census": Flag(9, (
            "the general cycle-length statement says 9-cycles; the census itself lists"
            " bi-alternate 12-cycles"))},
    ),
}


class LabelTable:
    """Total, invertible mapping between text labels and dense vertex ids."""

    __slots__ = ("to_id", "to_label")

    def __init__(self, to_id: dict[str, int], to_label: dict[int, str]):
        self.to_id, self.to_label = to_id, to_label

    @classmethod
    def from_labels(cls, labels) -> "LabelTable":
        to_id = {lab: i for i, lab in enumerate(labels)}
        if len(to_id) != len(labels):
            raise ValueError("duplicate label")
        return cls(to_id, {i: lab for lab, i in to_id.items()})

    def __len__(self) -> int:
        return len(self.to_id)


class OocFixture(NamedTuple):
    """Published oriented girth cycles, as dense-id sequences.

    ``reconstructed`` lists indices of cycles that were completed here
    because the source listing is defective (one Coxeter 7-cycle is
    printed with only six vertices); the completion is the unique girth
    cycle extending the printed sequence.
    """

    cycles: tuple[tuple[int, ...], ...]
    reconstructed: tuple[int, ...] = ()


def cdt_parameters(name: CdtName) -> CdtParameters:
    return _PARAMETERS[name]


def reference(name: CdtName) -> Reference:
    return _REFERENCES.get(name, Reference())


# ---------------------------------------------------------------------------
# Constructions


def _cycle_edges(labels) -> list[tuple[str, str]]:
    return [(labels[i], labels[(i + 1) % len(labels)]) for i in range(len(labels))]


def _build(labels, edges) -> tuple[Graph, LabelTable]:
    table = LabelTable.from_labels(labels)
    g = build_graph(len(labels), [(table.to_id[a], table.to_id[b]) for a, b in edges])
    return g, table


def _k4() -> tuple[Graph, LabelTable]:
    labels = ["0", "1", "2", "3"]
    edges = [("0", "1"), ("0", "2"), ("0", "3"), ("1", "2"), ("1", "3"), ("2", "3")]
    return _build(labels, edges)


def _k33() -> tuple[Graph, LabelTable]:
    # K6 on {0..5} minus the triangles {1,3,5} and {2,4,0}
    labels = [str(i) for i in range(6)]
    forbidden = {frozenset(p) for p in [(1, 3), (3, 5), (1, 5), (2, 4), (4, 0), (2, 0)]}
    edges = [
        (str(u), str(v))
        for u in range(6)
        for v in range(u + 1, 6)
        if frozenset((u, v)) not in forbidden
    ]
    return _build(labels, edges)


def _q3() -> tuple[Graph, LabelTable]:
    labels = [str(i) for i in range(8)]
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3), (4, 6), (5, 7),
             (0, 4), (1, 5), (2, 6), (3, 7)]
    return _build(labels, [(str(a), str(b)) for a, b in pairs])


def _petersen() -> tuple[Graph, LabelTable]:
    # outer 5-cycle u0..u4, inner 5-cycle v0 v2 v4 v1 v3, spokes (ux, vx)
    labels = [f"u{x}" for x in range(5)] + [f"v{x}" for x in range(5)]
    edges = _cycle_edges([f"u{x}" for x in range(5)])
    edges += [(f"v{x}", f"v{(x + 2) % 5}") for x in range(5)]
    edges += [(f"u{x}", f"v{x}") for x in range(5)]
    return _build(labels, edges)


def _heawood() -> tuple[Graph, LabelTable]:
    labels = [str(i) for i in range(14)]
    edges = _cycle_edges(labels)
    edges += [(str(2 * x % 14), str((5 + 2 * x) % 14)) for x in range(1, 8)]
    return _build(labels, edges)


def _pappus() -> tuple[Graph, LabelTable]:
    labels = [str(i) for i in range(18)]
    edges = _cycle_edges(labels)
    for x in range(3):
        edges += [
            (str((1 + 6 * x) % 18), str((6 + 6 * x) % 18)),
            (str((2 + 6 * x) % 18), str((9 + 6 * x) % 18)),
            (str((4 + 6 * x) % 18), str((11 + 6 * x) % 18)),
        ]
    return _build(labels, edges)


def _dodecahedral() -> tuple[Graph, LabelTable]:
    # double cover of the Petersen graph: a/c over the outer cycle,
    # b/d over the inner one
    labels = (
        [f"a{x}" for x in range(5)]
        + [f"b{x}" for x in range(5)]
        + [f"c{x}" for x in range(5)]
        + [f"d{x}" for x in range(5)]
    )
    edges = []
    for x in range(5):
        edges.append((f"a{x}", f"a{(x + 1) % 5}"))
        edges.append((f"c{x}", f"c{(x + 1) % 5}"))
        edges.append((f"a{x}", f"d{x}"))
        edges.append((f"b{x}", f"c{x}"))
        edges.append((f"d{x}", f"b{(x + 2) % 5}"))
        edges.append((f"d{x}", f"b{(x - 2) % 5}"))
    return _build(labels, edges)


def _desargues() -> tuple[Graph, LabelTable]:
    # 20-cycle with positions 4x+i written x_i, plus chords
    labels = [f"{x}_{i}" for x in range(5) for i in range(4)]
    seq = [f"{x}_{i}" for x in range(5) for i in range(4)]
    edges = _cycle_edges(seq)
    for x in range(5):
        edges.append((f"{x}_3", f"{(x + 2) % 5}_0"))
        edges.append((f"{x}_1", f"{(x + 2) % 5}_2"))
    return _build(labels, edges)


def _coxeter() -> tuple[Graph, LabelTable]:
    labels = (
        [f"u{x}" for x in range(7)]
        + [f"v{x}" for x in range(7)]
        + [f"t{x}" for x in range(7)]
        + [f"z{x}" for x in range(7)]
    )
    edges = []
    for x in range(7):
        edges.append((f"u{x}", f"u{(x + 1) % 7}"))
        edges.append((f"v{x}", f"v{(x + 2) % 7}"))
        edges.append((f"t{x}", f"t{(x + 3) % 7}"))
        edges += [(f"z{x}", f"u{x}"), (f"z{x}", f"v{x}"), (f"z{x}", f"t{x}")]
    return _build(labels, edges)


def _tutte() -> tuple[Graph, LabelTable]:
    labels = [f"{x}_{i}" for x in range(5) for i in range(6)]
    seq = [f"{x}_{i}" for x in range(5) for i in range(6)]
    edges = _cycle_edges(seq)
    for x in range(5):
        edges.append((f"{x}_5", f"{(x + 2) % 5}_0"))
        edges.append((f"{x}_1", f"{(x + 1) % 5}_4"))
        edges.append((f"{x}_2", f"{(x + 2) % 5}_3"))
    return _build(labels, edges)


def _foster() -> tuple[Graph, LabelTable]:
    labels = [f"{x}_{i}" for x in range(15) for i in range(6)]
    seq = [f"{x}_{i}" for x in range(15) for i in range(6)]
    edges = _cycle_edges(seq)
    for x in range(15):
        edges.append((f"{x}_4", f"{(x + 2) % 15}_1"))
        edges.append((f"{x}_0", f"{(x + 2) % 15}_5"))
        edges.append((f"{x}_2", f"{(x + 6) % 15}_3"))
    return _build(labels, edges)


def _biggs_smith() -> tuple[Graph, LabelTable]:
    # four 17-cycles with steps 1, 2, 4, 8, joined by 17 six-vertex trees
    labels = [f"{y}{i}" for y in "ABCDEF" for i in range(17)]
    edges = []
    for y, step in (("A", 1), ("D", 2), ("C", 4), ("F", 8)):
        edges += [(f"{y}{i}", f"{y}{(i + step) % 17}") for i in range(17)]
    for i in range(17):
        edges += [
            (f"A{i}", f"B{i}"),
            (f"B{i}", f"C{i}"),
            (f"D{i}", f"E{i}"),
            (f"E{i}", f"F{i}"),
            (f"B{i}", f"E{i}"),
        ]
    return _build(labels, edges)


_BUILDERS = {
    CdtName.K4: _k4,
    CdtName.K33: _k33,
    CdtName.Q3: _q3,
    CdtName.PETERSEN: _petersen,
    CdtName.HEAWOOD: _heawood,
    CdtName.PAPPUS: _pappus,
    CdtName.DODECAHEDRAL: _dodecahedral,
    CdtName.DESARGUES: _desargues,
    CdtName.COXETER: _coxeter,
    CdtName.TUTTE: _tutte,
    CdtName.FOSTER: _foster,
    CdtName.BIGGS_SMITH: _biggs_smith,
}


def build_cdt(name: CdtName) -> tuple[Graph, LabelTable]:
    """Construct a catalog graph and its label table."""
    return _BUILDERS[name]()


# ---------------------------------------------------------------------------
# Published oriented girth-cycle fixtures (the 7 positive cases)

_K4_OOC = ["1 2 3", "2 1 0", "3 0 1", "0 3 2"]

_K33_OOC = [
    "1 2 3 4", "3 2 1 0", "4 3 2 5", "1 4 3 0", "2 1 4 5",
    "0 1 2 5", "5 2 3 0", "0 3 4 5", "5 4 1 0",
]

_Q3_OOC = ["0 1 3 2", "1 0 4 5", "3 1 5 7", "2 3 7 6", "0 2 6 4", "4 6 7 5"]


def _dodecahedral_ooc() -> list[list[str]]:
    cycles = [[f"a{x}" for x in range(5)], [f"c{x}" for x in (4, 3, 2, 1, 0)]]
    for x in range(5):
        cycles.append(
            [f"a{x}", f"d{x}", f"b{(x - 2) % 5}", f"d{(x + 1) % 5}", f"a{(x + 1) % 5}"]
        )
        cycles.append(
            [f"d{x}", f"b{(x + 2) % 5}", f"c{(x + 2) % 5}", f"c{(x - 2) % 5}",
             f"b{(x - 2) % 5}"]
        )
    return cycles


def _desargues_ooc() -> list[list[str]]:
    def v(x, i):
        return f"{x % 5}_{i}"

    cycles = []
    for x in range(5):
        cycles.append([v(x, 0), v(x, 1), v(x, 2), v(x, 3), v(x + 1, 0), v(x + 4, 3)])
        cycles.append([v(x, 1), v(x, 0), v(x + 4, 3), v(x + 4, 2), v(x + 2, 1), v(x + 2, 2)])
        cycles.append([v(x, 2), v(x, 1), v(x, 0), v(x + 3, 3), v(x + 3, 2), v(x + 3, 1)])
        cycles.append([v(x, 0), v(x + 4, 3), v(x + 1, 0), v(x + 1, 1), v(x + 3, 2), v(x + 3, 3)])
    return cycles


# Coxeter listing: 24 oriented 7-cycles; the entry marked "short" is
# printed with six vertices in the source and is completed at build time.
_COXETER_OOC = [
    "u1 u2 u3 u4 u5 u6 u0", "v1 v3 v5 v0 v2 v4 v6", "t1 t5 t2 t6 t3 t0 t4",
    "u1 z1 v1 v3 z3 u3 u2", "z4 v4 v2 v0 z0 t0 t4", "t6 t2 t5 z5 u5 u6 z6",
    "v5 z5 u5 u4 u3 z3 v3", "t6 z6 v6 v4 v2 z2 t2", "u1 z1 t1 t4 t0 z0 u0",
    "v5 v0 z0 u0 u6 u5 z5", "z4 t4 t1 z1 v1 v6 v4", "t6 t2 z2 u2 u3 z3 t3",
    "u1 u0 z0 v0 v2 z2 u2", "t6 t3 z3 v3 v1 v6 z6", "z4 u4 u5 z5 t5 t4",
    "z4 u4 u3 u2 z2 v2 v4", "v5 v3 v1 z1 t1 t5 z5", "t6 z6 u6 u0 z0 t0 t3",
    "z4 v4 v6 z6 u6 u5 u4", "v5 v3 z3 t3 t0 z0 v0", "u1 u2 z2 t2 t5 t1 z1",
    "u1 u0 u6 z6 v6 v1 z1", "v5 z5 t5 t2 z2 v2 v0", "z4 t4 t0 t3 z3 u3 u4",
]

_TUTTE_OOC_BASE = [
    "4_5 0_0 0_1 0_2 0_3 0_4 0_5 1_0",
    "4_2 4_3 4_4 4_5 1_0 1_1 1_2 1_3",
    "0_2 0_3 0_4 4_1 4_0 2_5 2_4 2_3",
    "3_3 3_2 3_1 4_4 4_3 4_2 1_3 1_2",
    "4_5 1_0 0_5 0_4 4_1 4_0 3_5 0_0",
    "4_5 0_0 3_5 4_0 2_5 2_4 1_1 1_0",
    "1_0 1_1 2_4 2_3 0_2 0_1 0_0 4_5",
    "2_3 2_4 1_1 1_0 0_5 0_4 0_3 0_2",
    "0_1 0_2 0_3 0_4 4_1 4_2 1_3 1_4",
    "1_0 0_5 0_4 0_3 3_2 3_1 4_4 4_5",
    "3_1 3_2 0_3 0_2 0_1 0_0 4_5 4_4",
    "2_3 2_4 2_5 3_0 3_1 3_2 0_3 0_2",
    "3_5 4_0 4_1 0_4 0_3 0_2 0_1 0_0",
    "0_0 0_1 1_4 1_5 2_0 2_1 3_4 3_5",
    "4_2 4_3 2_2 2_1 3_4 3_3 1_2 1_3",
    "4_5 4_4 4_3 4_2 4_1 0_4 0_5 1_0",
    "4_0 4_1 4_2 1_3 1_4 1_5 3_0 2_5",
    "0_1 0_2 0_3 3_2 3_1 3_0 1_5 1_4",
]


def _tutte_ooc() -> list[list[str]]:
    cycles = []
    for y in range(5):
        for base in _TUTTE_OOC_BASE:
            cyc = []
            for lab in base.split():
                x, i = lab.split("_")
                cyc.append(f"{(int(x) + y) % 5}_{i}")
            cycles.append(cyc)
    return cycles


def _complete_short_cycle(g: Graph, seq: list[int], glen: int) -> tuple[int, ...]:
    """Complete a girth cycle printed with one vertex missing.

    Finds the unique gap between consecutive non-adjacent listed vertices
    and the unique insertion making the sequence a cycle of length glen.
    """
    if len(seq) != glen - 1:
        raise ValueError("expected a sequence one vertex short of the girth")
    gaps = [
        i for i in range(len(seq))
        if not g.has_edge(seq[i], seq[(i + 1) % len(seq)])
    ]
    if len(gaps) != 1:
        raise ValueError(f"cannot locate a unique gap in {seq}")
    i = gaps[0]
    a, b = seq[i], seq[(i + 1) % len(seq)]
    fillers = [w for w in g.adj[a] if g.has_edge(w, b) and w not in seq]
    if len(fillers) != 1:
        raise ValueError(f"no unique completion for {seq}")
    out = seq[: i + 1] + [fillers[0]] + seq[i + 1:]
    return tuple(out)


# The listing of each graph with oriented girth cycles, as label lists.
_OOC_LISTINGS = {
    CdtName.K4: lambda: [c.split() for c in _K4_OOC],
    CdtName.K33: lambda: [c.split() for c in _K33_OOC],
    CdtName.Q3: lambda: [c.split() for c in _Q3_OOC],
    CdtName.DODECAHEDRAL: _dodecahedral_ooc,
    CdtName.DESARGUES: _desargues_ooc,
    CdtName.COXETER: lambda: [c.split() for c in _COXETER_OOC],
    CdtName.TUTTE: _tutte_ooc,
}


def reference_ooc(name: CdtName, g: Graph, table: LabelTable) -> OocFixture | None:
    """The published oriented girth-cycle collection on g and its label
    table, as build_cdt(name) returns them, or None for the five graphs
    that admit none."""
    if name not in _OOC_LISTINGS:
        return None
    params = _PARAMETERS[name]
    cycles: list[tuple[int, ...]] = []
    reconstructed: list[int] = []
    for idx, labs in enumerate(_OOC_LISTINGS[name]()):
        ids = [table.to_id[lab] for lab in labs]
        if len(ids) == params.g - 1:
            ids = list(_complete_short_cycle(g, ids, params.g))
            reconstructed.append(idx)
        if len(ids) != params.g:
            raise ValueError(f"fixture cycle {idx} has wrong length")
        cycles.append(tuple(ids))
    if len(cycles) != params.eta:
        raise ValueError(f"fixture for {name} has {len(cycles)} cycles")
    return OocFixture(tuple(cycles), tuple(reconstructed))

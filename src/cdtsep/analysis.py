"""The pipeline over one cubic graph, from distances to the separator's
orientation kernel and regular subgroups.  Each stage is computed on
first use and kept, so every caller reads the same girth cycles, solver
outcome, separator and groups instead of rebuilding them."""

from __future__ import annotations

from functools import cached_property

from .catalog import (
    CdtName, CdtParameters, LabelTable, OocFixture, Reference, build_cdt, cdt_parameters,
    reference, reference_ooc,
)
from .cycles import CycleSet, FasteningProfile, enumerate_girth_cycles, fastening_profile
from .graphs import DistanceTable, Graph, distances, girth, is_planar
from .groups import (
    PermGroup, arc_transitivity, automorphism_group, orientation_kernel, regular_subgroups,
    separator_automorphism_group,
)
from .orient import (
    OddWitness, OrientationAssignment, ParityConstraintGraph, build_constraints, classify_kappa, solve,
)
from .separator import AlternateCensus, SeparatorDigraph, alternate_census, build_separator
from .topology import EulerReport, euler, face_complex

__all__ = ["Analysis"]


class Analysis:
    """Memoized stages of one graph.  Built from a catalog name, it also
    keeps the name, the label table, the graph's parameter row, reference
    record and published oriented girth cycles; built from a graph alone,
    it is an ingested graph with none of them.

    k is the row's arc-transitivity when a row is given, so the stages
    up to the surface never compute a group; without a row it is
    recomputed from the host automorphism group.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.name: CdtName | None = None
        self.labels: LabelTable | None = None
        self.row: CdtParameters | None = None
        self.ref: Reference = Reference()

    @classmethod
    def from_catalog(cls, name: CdtName) -> Analysis:
        graph, labels = build_cdt(name)
        a = cls(graph)
        a.name, a.labels, a.row, a.ref = name, labels, cdt_parameters(name), reference(name)
        return a

    @cached_property
    def ooc(self) -> OocFixture | None:
        return None if self.name is None else reference_ooc(self.name, self.graph, self.labels)

    @cached_property
    def table(self) -> DistanceTable:
        return distances(self.graph)

    @cached_property
    def girth(self) -> int:
        return girth(self.graph)

    @cached_property
    def cycles(self) -> CycleSet:
        return enumerate_girth_cycles(self.graph)

    @cached_property
    def k(self) -> int:
        if self.row is not None:
            return self.row.k
        return arc_transitivity(self.graph, self.host_group)

    @cached_property
    def fastening(self) -> FasteningProfile:
        return fastening_profile(self.graph, self.cycles, self.k)

    @cached_property
    def constraints(self) -> ParityConstraintGraph:
        return build_constraints(self.graph, self.cycles, self.k)

    @cached_property
    def outcome(self) -> OrientationAssignment | OddWitness:
        return solve(self.constraints)

    @property
    def solved(self) -> bool:
        return not isinstance(self.outcome, OddWitness)

    @cached_property
    def planar(self) -> bool:
        return is_planar(self.graph)

    @cached_property
    def kappa(self) -> int:
        return classify_kappa(self.solved, self.planar, self.girth, self.k)

    @cached_property
    def separator(self) -> SeparatorDigraph:
        return build_separator(self.graph, self.cycles, self.k, self.outcome)

    @cached_property
    def census(self) -> AlternateCensus:
        """Alternate census for r = 1..4, as deep as any reference lists."""
        return alternate_census(self.separator, 4)

    @cached_property
    def surface(self) -> EulerReport:
        return euler(face_complex(self.separator, self.census))

    @cached_property
    def host_group(self) -> PermGroup:
        return automorphism_group(self.graph)

    @cached_property
    def separator_group(self) -> PermGroup:
        return separator_automorphism_group(self.separator, self.host_group)

    @cached_property
    def kernel(self) -> PermGroup:
        """Aut(D) of the separator's digraph, regular on its vertices."""
        return orientation_kernel(self.separator, self.separator_group)

    @cached_property
    def regular(self) -> list[PermGroup]:
        return regular_subgroups(self.separator_group, self.separator.order)

    @cached_property
    def spectra(self) -> list[list[int]]:
        return sorted(sorted(r.order_spectrum()) for r in self.regular)

"""The pipeline over one cubic graph, from distances to the separator's
automorphism group.  Each stage is computed on first use and kept, so
every caller reads the same girth cycles, solver outcome, separator and
groups instead of rebuilding them."""

from __future__ import annotations

from functools import cached_property

from .catalog import CdtName, CdtParameters, build_cdt, cdt_parameters
from .cycles import CycleSet, FasteningProfile, enumerate_girth_cycles, fastening_profile
from .graphs import DistanceTable, Graph, distances, girth, is_planar
from .groups import PermGroup, arc_transitivity, automorphism_group, separator_automorphism_group
from .orient import (
    OddWitness, OrientationAssignment, ParityConstraintGraph, build_constraints, classify_kappa, solve,
)
from .separator import AlternateCensus, SeparatorDigraph, alternate_census, build_separator
from .topology import EulerReport, euler, face_complex

__all__ = ["Analysis"]


class Analysis:
    """Memoized stages of one graph, optionally with its catalog row.

    k is the row's arc-transitivity when a row is given, so the stages
    up to the surface never compute a group; without a row it is
    recomputed from the host automorphism group.
    """

    def __init__(self, graph: Graph, row: CdtParameters | None = None):
        self.graph = graph
        self.row = row
        self._censuses: dict[int, AlternateCensus] = {}

    @classmethod
    def from_catalog(cls, name: CdtName) -> Analysis:
        return cls(build_cdt(name)[0], cdt_parameters(name))

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

    def census(self, max_r: int) -> AlternateCensus:
        """Alternate census for r = 1..max_r, kept per max_r."""
        if max_r not in self._censuses:
            self._censuses[max_r] = alternate_census(self.separator, max_r)
        return self._censuses[max_r]

    @cached_property
    def surface(self) -> EulerReport:
        # The faces use only the r = 1 alternates, which every census has.
        census = next(iter(self._censuses.values()), None)
        return euler(face_complex(self.separator, census))

    @cached_property
    def host_group(self) -> PermGroup:
        return automorphism_group(self.graph)

    @cached_property
    def separator_group(self) -> PermGroup:
        return separator_automorphism_group(self.separator, self.host_group)

"""Cubic distance-transitive graphs: construction, girth-cycle
orientation, separator digraphs, surface embeddings and the symmetry
groups tying them together."""

from .graphs import (
    Graph,
    Digraph,
    GraphError,
    DistanceTable,
    build_graph,
    build_digraph,
    underlying,
    distances,
    girth,
    enumerate_arcs,
    is_bipartite,
    is_hamiltonian,
    is_planar,
)
from .catalog import (
    CdtName,
    CdtParameters,
    LabelTable,
    OocFixture,
    GL32_GENERATORS,
    build_cdt,
    cdt_parameters,
    reference_ooc,
)
from .cycles import (
    CycleSet,
    FasteningProfile,
    canonical_cycle,
    path_key,
    enumerate_girth_cycles,
    cycles_through,
    unordered_paths,
    fastening_profile,
)
from .orient import (
    ConstraintError,
    ParityConstraintGraph,
    OrientationAssignment,
    OddWitness,
    build_constraints,
    solve,
    verify_ooa,
    oriented_cycles,
    assignment_from_cycles,
    classify_kappa,
)
from .separator import (
    SeparatorDigraph,
    AlternateOrbit,
    AlternateCensus,
    SeparatorSummary,
    build_separator,
    alternate_census,
    separator_summary,
)
from .topology import FaceComplex, EulerReport, face_complex, euler
from .groups import (
    GroupError,
    PermGroup,
    automorphism_group,
    separator_automorphism_group,
    arc_transitivity,
    is_distance_transitive,
    cayley_digraph,
    digraph_isomorphic,
    graph_isomorphic,
    regular_subgroups,
    gl32_elements,
    gl32_mult,
    symmetric_elements,
    alternating_elements,
)
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .dot import emit_dot
from .report import (
    SCHEMA_VERSION,
    Check,
    GraphReport,
    VerificationReport,
    KNOWN_DISCREPANCIES,
    run_graph_report,
    run_report,
    run_ingest_report,
    report_to_json,
    report_from_json,
)

__version__ = "0.1.0"

"""diaglab: diagonal semilattices and diagonal graphs over small finite
groups, with every closed-form invariant cross-checked by brute force."""

from .errors import (
    CapExceededError,
    DiagLabError,
    GroupParseError,
    GroupValidationError,
)
from .groups import (
    GroupTable,
    automorphism_group,
    cyclic,
    dihedral,
    direct_product,
    element_orders,
    is_elementary_abelian,
    is_simple_nonabelian,
    parse_group_spec,
    quaternion,
    sylow2_nontrivial_cyclic,
)
from .partitions import Partition, subset_suprema
from .semilattice import (
    DiagonalSemilattice,
    build_q,
    join_closure,
    minimal_partitions,
    mobius_closed_form,
    rooted_block_sizes,
    semilattice_and_hypothesis,
    verify_mobius,
    vertex_codec,
)
from .diaggraph import (
    ConnectionSet,
    DiagGraph,
    build_graph,
    cayley_graph,
    clique_cover,
    connection_set,
    diameter,
    export_graph,
    is_distance_regular,
    maximal_cliques,
    neighbourhood_is_a_base,
    same_edge_set,
    translations_are_automorphisms,
)
from .spectral import (
    SpectrumReport,
    spectrum_closed_form,
    spectrum_trace_moments,
    stratum_dimension,
    verify_stratum_identity,
)
from .chromatic import (
    CompleteMapping,
    chromatic_number_exact,
    chromatic_verdict,
    find_complete_mapping,
    hall_paige_predicate,
    q_coloring,
    reduce_hom,
    validate_coloring,
)
from .symmetry import (
    diagonal_group_generators,
    diagonal_group_order_formula,
    is_vertex_primitive,
    rooted_orbit_counts,
    symmetry_report,
)

__version__ = "0.1.0"

"""zflab: exact-arithmetic laboratory for the sandwich
kappa(G) <= M(G) <= Z(G) of graph parameters.

Zero forcing numbers by exact search, adjacency nullity over the rationals
and prime fields, red-coloring nullity certificates, Strong Arnold Property
checks, equitable partitions and decompositions, and a field-independence
certification pipeline.
"""

from .certify import (
    CertifyVerdict,
    Gf2MinRank,
    ParameterReport,
    certify_universal_optimality,
    conjecture_harness,
    min_rank_gf2_exhaustive,
    parameter_report,
)
from .equitable import (
    Decomposition,
    Partition,
    coarsest_equitable,
    divisor_matrix,
    divisor_spectrum,
    equitable_decomposition,
    is_equitable,
    orbit_partition,
    verify_ecg_nullvectors,
)
from .forcing import (
    Coloring,
    ZfResult,
    construction_zfs,
    is_zfs,
    zero_forcing_number,
    zf_closure,
)
from .graphs import (
    ContractEdge,
    DeleteEdge,
    DeleteVertex,
    Graph,
    SubdivideEdge,
    SubdivisionEdgeInsertion,
    apply_edit,
    aztec_diamond,
    cartesian_product,
    circulant,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    extended_cube,
    generalized_petersen,
    path_graph,
    read_edge_list,
    write_edge_list,
    write_json_graph,
)
from .linalg import (
    QI,
    QQ,
    QW,
    CoeffDomain,
    ExactMatrix,
    QuadRational,
    adjacency_matrix,
    format_matrix,
    parse_matrix,
    prime_field,
    root_of_unity,
    spectrum,
)
from .redrule import (
    RedCertificateError,
    RedMove,
    apply_red_sequence,
    aztec_diagonal_certificate,
    bipartite_doubling_bound,
    circulant_half_certificate,
    derive_red_certificates,
    graph_nullity,
    verify_red_move,
)
from .structure import (
    KappaWitness,
    SapReport,
    circulant_kappa_deficient,
    has_sap,
    min_degree,
    vertex_connectivity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

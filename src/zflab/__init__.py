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
    QuadRational,
    coarsest_equitable,
    divisor_matrix,
    equitable_decomposition,
    is_equitable,
)
from .forcing import (
    Coloring,
    ZfResult,
    zero_forcing_number,
    zf_closure,
)
from .graphs import (
    Graph,
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
)
from .linalg import (
    ExactMatrix,
    adjacency_matrix,
    parse_matrix,
    spectrum,
)
from .redrule import (
    RedCertificateError,
    RedMove,
    apply_red_sequence,
    derive_red_certificates,
    verify_red_move,
)
from .structure import (
    KappaWitness,
    SapReport,
    has_sap,
    min_degree,
    vertex_connectivity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

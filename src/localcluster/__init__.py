"""Local graph clustering: spectral embeddings, flow-based refinement,
sweep-cut rounding, and exhaustive desk-scale reference oracles.

The central objects are :class:`Graph` (immutable CSR adjacency),
:class:`NodeSet` (sorted, distinct vertex ids checked once against
their graph; every entry point takes one as it is, and it keeps its
volume and cut once summed), and :class:`ClusterResult` (what every
clustering entry point returns).
Algorithms come in two families: flow refinement of a seed set (`mqi`,
`flow_improve`, `local_flow_improve`) and spectral embeddings rounded
by `sweep_cut` (`fiedler`, `spectral_mqi`, `mov_solve`, `l1_pagerank`).
"""

from .errors import (
    ClusterError,
    ConvergenceError,
    DegenerateResultError,
    GraphFormatError,
    InfeasibleError,
    InputError,
    InvalidSetError,
    OracleCapError,
    ParameterError,
    SeedTooLargeError,
    UnattainableCorrelationError,
    UnboundedFlowError,
)
from .flowcluster import (
    flow_improve,
    local_flow_improve,
    local_flow_improve_scaled,
    mqi,
    refine_by_flow,
)
from .flownet import CutSolution, FlowNetwork, cut_capacity, solve_maxflow
from .graph import (
    Graph,
    NodeSet,
    conductance,
    cut,
    expansion,
    laplacian_apply,
    relative_conductance,
    volume,
)
from .io import (
    LabelMap,
    load_edge_list,
    load_seed_set,
    read_vector_csv,
    write_edge_list,
    write_result,
    write_vector_csv,
)
from .refcut import AugmentedGraphSpec, augmented_cut_value, materialize, solve_maxflow_local
from .results import ClusterResult
from .rounding import SweepProfile, sweep_cut
from .spectral import (
    EmbeddingVector,
    correlation_seed,
    fiedler,
    kkt_residual,
    l1_pagerank,
    l1pr_cluster,
    mov_correlate,
    mov_solve,
    seed_distribution,
    spectral_mqi,
    spectral_mqi_cluster,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Graph",
    "NodeSet",
    "ClusterResult",
    "EmbeddingVector",
    "LabelMap",
    "FlowNetwork",
    "CutSolution",
    "AugmentedGraphSpec",
    "SweepProfile",
    "volume",
    "cut",
    "conductance",
    "expansion",
    "relative_conductance",
    "laplacian_apply",
    "solve_maxflow",
    "solve_maxflow_local",
    "cut_capacity",
    "augmented_cut_value",
    "materialize",
    "refine_by_flow",
    "mqi",
    "flow_improve",
    "local_flow_improve",
    "local_flow_improve_scaled",
    "fiedler",
    "spectral_mqi",
    "spectral_mqi_cluster",
    "mov_solve",
    "mov_correlate",
    "l1_pagerank",
    "l1pr_cluster",
    "kkt_residual",
    "seed_distribution",
    "correlation_seed",
    "sweep_cut",
    "load_edge_list",
    "load_seed_set",
    "write_edge_list",
    "write_result",
    "write_vector_csv",
    "read_vector_csv",
    "ClusterError",
    "ParameterError",
    "OracleCapError",
    "InputError",
    "GraphFormatError",
    "InvalidSetError",
    "ConvergenceError",
    "InfeasibleError",
    "SeedTooLargeError",
    "DegenerateResultError",
    "UnattainableCorrelationError",
    "UnboundedFlowError",
]

"""Hubness-aware profiling and budgeted selection for feature collections."""

from hubsel.evaluation import (
    Ranking,
    average_precision_at_k,
    baseline_rank,
    map_at_k,
    mean_subjective_at_k,
)
from hubsel.features import (
    FeatureFormatError,
    FeatureMatrix,
    fuse,
    l2_normalize,
    load_features,
    save_features,
)
from hubsel.neighbors import (
    METRICS,
    NeighborGraph,
    knn_graph,
    load_graph,
    pairwise_distance,
    save_graph,
)
from hubsel.selector import (
    SelectionProblem,
    SolverConfig,
    SolverTrace,
    build_problem,
    init_hub_first,
    init_lid_first,
    init_uniform,
    kkt_residual,
    objective,
    reward,
    rewards,
    round_selection,
    solve,
)
from hubsel.stats import (
    LID_CAP,
    DiversityProfile,
    HubnessProfile,
    LidProfile,
    SkewnessReport,
    StatProfile,
    compute_profile,
    diversity,
    global_id,
    hubness_scores,
    lid_mle,
    skewness,
    summarize,
)

__version__ = "0.1.0"

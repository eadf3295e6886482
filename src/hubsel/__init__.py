"""Hubness-aware profiling and budgeted selection for feature collections.

The exported names load their module on first use (PEP 562), so importing
the package loads neither numpy nor any layer: a command pays only for
the layers it runs.
"""

import importlib

# the distance names every layer and the command line accept; numpy-free,
# so the command line's parser reads them without loading a layer
METRICS = ("cosine", "euclidean")

_EXPORTS = {
    "evaluation": (
        "Ranking",
        "average_precision_at_k",
        "baseline_rank",
        "map_at_k",
        "mean_subjective_at_k",
    ),
    "features": (
        "FeatureFormatError",
        "FeatureMatrix",
        "fuse",
        "l2_normalize",
        "load_features",
        "save_features",
    ),
    "neighbors": (
        "NeighborGraph",
        "knn_graph",
        "load_graph",
        "pairwise_distance",
        "save_graph",
    ),
    "selector": (
        "SelectionProblem",
        "SolverConfig",
        "SolverTrace",
        "build_problem",
        "init_hub_first",
        "init_lid_first",
        "init_uniform",
        "kkt_residual",
        "objective",
        "reward",
        "rewards",
        "round_selection",
        "solve",
    ),
    "stats": (
        "LID_CAP",
        "DiversityProfile",
        "HubnessProfile",
        "LidProfile",
        "SkewnessReport",
        "StatProfile",
        "compute_profile",
        "diversity",
        "global_id",
        "hubness_scores",
        "lid_mle",
        "skewness",
        "summarize",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["METRICS", *_MODULE_OF]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS or name == "table":  # a layer, as ``hubsel.stats``
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)

"""Which per-layer metric should move which end-to-end metric, on which
workload.

A performance change names its claim from this map: the layer metrics its
change should move, the end-to-end metrics they feed, the workloads where
the move should show, and the workloads where the prediction is no
change. The layers are the modules of ``src/hubsel``. Layer metrics come
from the traced run (``--trace 1``); every ``_s`` metric is self time,
summed over the calls of one job. "computed" counts are derived from
array sizes, not hardware counters.
"""

ALL = ("profile", "select-dense", "select-sparse")

# (layer metrics, end-to-end metrics they should move, workloads where
#  they move, workloads where they must not move, note)
LAYER_MAP = (
    (("cli.startup_s", "cli.self_s", "cli.graph_cache_hit_ratio"),
     ("job_wall_p50_s",), ALL, (),
     "start-up is paid per process, so most on select-dense (3 per job); the hit "
     "ratio is 0.5 on profile (one scan, one cache read), 0 on the others"),
    (("features.load_features_s", "features.input_mb"),
     ("job_wall_p50_s",), ALL, (),
     "CSV on profile and select-dense, fbin on select-sparse"),
    (("neighbors.knn_graph_s", "neighbors.knn_distance_entries",
      "neighbors.knn_kept_ratio", "neighbors.knn_gflop"),
     ("job_wall_p50_s", "job_cpu_p50_s", "peak_rss_mb"),
     ("profile", "select-sparse"), ("select-dense",),
     "entries and GFLOP are computed (n^2 and 2 n^2 d); kept ratio is n k / entries"),
    (("neighbors.save_graph_s", "neighbors.load_graph_s", "neighbors.cache_mb"),
     ("job_wall_p50_s",), ("profile",), ("select-dense", "select-sparse"),
     "cache_mb is the size of the cache files written and read; a cheaper write "
     "that makes the read dearer shows in load_graph_s"),
    (("stats.compute_profile_s", "stats.hubness_scores_s", "stats.lid_mle_s",
      "stats.diversity_s", "stats.diversity_pair_entries", "stats.degenerate_lid",
      "stats.save_s", "stats.load_profile_csv_s"),
     ("job_wall_p50_s",), ALL, (),
     "diversity runs twice per profile job and once on select-sparse; "
     "load_profile_csv only on select-dense; pair entries are computed (n m^2)"),
    (("selector.build_problem_s", "selector.affinity_mb"),
     ("job_wall_p50_s", "peak_rss_mb"), ("select-dense", "select-sparse"), ("profile",),
     "affinity_mb is computed from the matrix's arrays, the largest of the job: "
     "dense n^2 on select-dense, CSR on select-sparse"),
    (("selector.solve_s", "selector.iterations", "selector.us_per_iteration",
      "selector.kkt_residual_s", "selector.converged_ratio", "selector.ranking_s",
      "selector.save_solution_s"),
     ("job_wall_p50_s",), ("select-dense", "select-sparse"), ("profile",),
     "dense row access on select-dense, CSR getrow on select-sparse"),
    (("evaluation.save_run_s", "evaluation.load_run_s", "evaluation.score_s"),
     ("job_wall_p50_s",), ("select-dense",), ("profile", "select-sparse"),
     "score_s covers loading the scores and scoring the run"),
    (("trace.job_s", "trace.overhead_s"),
     (), ALL, (),
     "traced in-process job time (sum of its commands), and the wrappers' cost: "
     "a tight-loop per-call cost times the span count, plus the counters' time"),
)


def layer_metric_names() -> list[str]:
    return [name for row in LAYER_MAP for name in row[0]]

#!/usr/bin/env python3
"""Profile a collection, then pick a budgeted subset.

Builds a synthetic two-cluster collection, computes the per-fragment
profile (hubness, local intrinsic dimensionality, neighborhood
diversity), and solves the relaxed selection problem. The three
objective terms are not on a common scale: popularity and risk are
minmax-normalized to [0, 1], while the pairwise term carries raw
distances. Running the same selection under an unbounded and a bounded
affinity shows how much that scale choice steers the outcome.
"""

import numpy as np

from hubsel import (
    FeatureMatrix,
    SolverConfig,
    build_problem,
    compute_profile,
    knn_graph,
    objective,
    round_selection,
    solve,
    summarize,
)

rng = np.random.default_rng(7)

# two Gaussian blobs of different spread; the tight blob produces the
# popular low-dimensional fragments, the wide one the risky loners
tight = rng.normal(0.0, 0.4, (120, 16)) + 1.0
loose = rng.normal(0.0, 2.5, (80, 16)) - 1.0
values = np.vstack([tight, loose])
m = FeatureMatrix(ids=[f"f{i:03d}" for i in range(values.shape[0])], values=values)

g = knn_graph(m, 40, metric="euclidean")
profile = compute_profile(m, g, k_hub=10, n_lid=30, m_div=15)

print("collection summary:")
for key, val in summarize(profile).items():
    print(f"  {key}: {val}")

K = 8


def pick(metric):
    # best rounded selection over the three standard starts
    problem = build_problem(profile.hubness, profile.lid, m, metric=metric, k=K)
    best = None
    for init in ("hub_first", "lid_first", "uniform"):
        y, trace = solve(problem, SolverConfig(init=init))
        sel = round_selection(y, problem)
        val = objective(problem, np.isin(np.arange(problem.n), sel).astype(float))
        if best is None or val > best[0]:
            best = (val, init, sel, trace)
    return problem, best


print(f"\nbudget k = {K}, affinity = raw euclidean distances (unbounded):")
problem, (val, init, sel, trace) = pick("euclidean")
n_tight = sum(1 for i in sel if i < 120)
print(f"  best start {init}, {trace.iterations} iters, kkt {trace.kkt_residual:.1e}")
print(f"  affinity entries reach {np.asarray(problem.a).max():.1f}; the spread term dominates")
print(f"  tight-blob picks: {n_tight}/{K} (the solver maximizes mutual distance)")

print(f"\nsame budget, affinity = cosine distances (bounded by 2):")
problem, (val, init, sel, trace) = pick("cosine")
n_tight = sum(1 for i in sel if i < 120)
print(f"  best start {init}, {trace.iterations} iters, kkt {trace.kkt_residual:.1e}")
print(f"  tight-blob picks: {n_tight}/{K} (popularity and risk now compete)")
print("\n  selected fragments (id, N_k, lid, diversity):")
for i in sel:
    print(
        f"    {m.ids[i]}  N_k={int(profile.hubness.scores[i]):>3}"
        f"  lid={profile.lid.lids[i]:6.2f}"
        f"  div={profile.diversity.values[i]:6.3f}"
    )

print("""
With distances bounded, the linear terms pull half the budget into the
popular low-risk blob while the quadratic term still forbids stacking
the picks on one centroid. Term weighting is a modeling decision; this
library keeps the three terms equal and leaves the scale to the metric.""")

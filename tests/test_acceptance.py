"""Acceptance gate: ten numbered criteria, one test each, stated tolerances.

Every criterion prints a single summary line on success (visible with
``pytest -v -rP`` or ``-s``); the test name itself carries the number so
the verbose listing doubles as the pass/fail report. Heavy shared
fixtures (the 50 graph instances, the 100 solver instances) are built
once per session.
"""

import json
import time

import numpy as np
import pytest

from hubsel import cli, neighbors
from hubsel.evaluation import (
    Ranking,
    average_precision_at_k,
    map_at_k,
    mean_subjective_at_k,
)
from hubsel.features import FeatureMatrix, save_features
from hubsel.neighbors import knn_graph
from hubsel.selector import (
    SolverConfig,
    objective,
    reward,
    round_selection,
    solve,
)
from hubsel.stats import global_id, hubness_scores, lid_mle, skewness
from helpers import (
    best_subset,
    brute_force_knn,
    random_matrix,
    random_selection_problem,
)

INITS = ("hub_first", "lid_first", "uniform")


def gaussian_cloud(rng, n, d, mean=1.0):
    # mean offset matters under cosine: a centered cloud is directionally
    # uniform on the sphere, so its neighbor structure stays flat in any
    # dimension and no hubs can form
    return FeatureMatrix(
        ids=[f"g{i:05d}" for i in range(n)],
        values=rng.normal(mean, 1.0, (n, d)),
    )


@pytest.fixture(scope="session")
def knn_instances():
    """50 random collections: 44 small mixed + 6 large, both metrics."""
    rng = np.random.default_rng(11)
    dims = (8, 64, 512)
    shapes = []
    for t in range(44):
        n = int(rng.integers(20, 301))
        shapes.append((n, dims[t % 3], "cosine" if t % 2 == 0 else "euclidean"))
    shapes += [
        (1200, 64, "cosine"),
        (1500, 64, "euclidean"),
        (1300, 8, "cosine"),
        (2000, 8, "euclidean"),
        (2000, 64, "cosine"),
        (2000, 512, "cosine"),
    ]
    cases = []
    for n, d, metric in shapes:
        m = random_matrix(rng, n, d)
        k = int(rng.integers(1, 21))
        cases.append((m, k, metric))
    return cases


@pytest.fixture(scope="session")
def solver_suite():
    """100 random selection problems, solved from all three starts,
    with the exhaustive enumeration optimum of each."""
    out = []
    for s in range(100):
        rng = np.random.default_rng(1000 + s)
        p = random_selection_problem(rng)
        solves = {init: solve(p, SolverConfig(init=init)) for init in INITS}
        best_val, best_set = best_subset(p.h, p.d_risk, p.a, p.k)
        out.append((p, solves, best_val, best_set))
    return out


def test_criterion_01_knn_exactness(knn_instances):
    """Graph construction equals a naive full-sort reference, exactly."""
    t0 = time.perf_counter()
    for m, k, metric, in knn_instances:
        g = knn_graph(m, k, metric=metric)
        ref_idx, ref_dist = brute_force_knn(m.values, k, metric)
        assert np.array_equal(g.indices, ref_idx)
        assert np.allclose(g.distances, ref_dist, atol=1e-12, rtol=0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 1: PASS - 50/50 instances exact index match "
        f"(n up to 2000, d in 8/64/512, both metrics) in {elapsed:.1f}s"
    )


def test_criterion_02_hubness_conservation_and_categories(knn_instances):
    """Score totals and hub / anti-hub / normal labels on every instance."""
    for m, k, metric in knn_instances:
        g = knn_graph(m, k, metric=metric)
        prof = hubness_scores(g)
        n = g.n
        assert int(prof.scores.sum()) == n * min(k, n - 1)
        counts = np.zeros(n, dtype=np.int64)
        for row in g.indices:
            for j in row:
                counts[j] += 1
        assert np.array_equal(counts, prof.scores)
        for i in range(n):
            if counts[i] > g.k:
                want = "hub"
            elif counts[i] == 0:
                want = "anti_hub"
            else:
                want = "normal"
            assert prof.categories[i] == want
    print(
        "ACCEPTANCE 2: PASS - score sum n*min(k, n-1) and independent "
        "categorization hold on all 50 instances, exact"
    )


def test_criterion_03_hubness_phenomenon():
    """Skewness of N_10 grows past 1 with dimension on a Gaussian cloud."""
    t0 = time.perf_counter()
    skews = {}
    for d in (3, 100):
        m = gaussian_cloud(np.random.default_rng(0), 5000, d)
        g = knn_graph(m, 10, metric="cosine")
        skews[d] = skewness(hubness_scores(g)).s_nk
    elapsed = time.perf_counter() - t0
    assert skews[100] > 1.0
    assert skews[100] > skews[3]
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 3: PASS - skewness {skews[3]:.3f} (d=3) -> "
        f"{skews[100]:.3f} (d=100) > 1, n=5000 k=10 cosine, {elapsed:.1f}s"
    )


def test_criterion_04_lid_analytic_fixtures():
    """Closed-form neighbor lists hit their exact estimates."""
    from hubsel.neighbors import NeighborGraph

    def _graph(dists):
        dists = np.asarray(dists, dtype=np.float64)
        return NeighborGraph(
            k=dists.shape[1] - 1,
            metric="euclidean",
            indices=np.zeros_like(dists, dtype=np.int64),
            distances=dists,
        )

    # three neighbors at e^-1 of a unit reference radius: every log ratio
    # is -1, so the estimate is exactly 1
    g = _graph(np.array([[np.e**-1, np.e**-1, np.e**-1, 1.0]]))
    p = lid_mle(g, 3)
    assert abs(p.lids[0] - 1.0) <= 1e-12
    assert not p.degenerate[0]

    # single neighbor at e^-2: one log ratio of -2 gives exactly 0.5
    g = _graph(np.array([[np.e**-2, 1.0]]))
    p = lid_mle(g, 1)
    assert abs(p.lids[0] - 0.5) <= 1e-12
    assert not p.degenerate[0]
    print("ACCEPTANCE 4: PASS - analytic estimates 1.0 and 0.5 exact to 1e-12")


def test_criterion_05_lid_consistency():
    """Mean estimate within 20% of the true dimension on uniform samples."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    r = np.sqrt(rng.uniform(0.0, 1.0, 2000))
    th = rng.uniform(0.0, 2.0 * np.pi, 2000)
    disk = FeatureMatrix(
        ids=[f"p{i}" for i in range(2000)],
        values=np.column_stack([r * np.cos(th), r * np.sin(th)]),
    )
    p = lid_mle(knn_graph(disk, 101, "euclidean"), 100)
    interior = r <= 0.7  # boundary points see a half-plane and bias low
    disk_mean = float(p.lids[interior & ~p.degenerate].mean())
    assert 1.6 <= disk_mean <= 2.4

    cube = FeatureMatrix(
        ids=[f"p{i}" for i in range(2000)],
        values=np.random.default_rng(0).uniform(0.0, 1.0, (2000, 5)),
    )
    cube_mean = global_id(lid_mle(knn_graph(cube, 101, "euclidean"), 100))
    assert 4.0 <= cube_mean <= 6.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 5: PASS - 2-D disk interior mean {disk_mean:.2f} in "
        f"[1.6, 2.4], 5-D cube mean {cube_mean:.2f} in [4.0, 6.0], {elapsed:.1f}s"
    )


def test_criterion_06_solver_vs_exhaustive(solver_suite):
    """Relaxed value dominates every binary subset; rounding usually
    recovers the enumeration optimum.

    Pairwise ascent is a local method. From some starts it settles on a
    KKT point whose relaxed value still exceeds the best binary subset,
    while the rounded selection misses the optimum. Running the three
    standard starts and keeping the best recovers the optimum on 87 of
    these 100 seeds; the 80 floor is a regression bar for that measured
    behavior, not a global-optimality guarantee.
    """
    t0 = time.perf_counter()
    relaxed_ok = 0
    rounded_hits = 0
    for p, solves, best_val, _ in solver_suite:
        best_relaxed = max(objective(p, y) for y, _ in solves.values())
        if best_relaxed >= best_val - 1e-9:
            relaxed_ok += 1
        best_rounded = -np.inf
        for y, _ in solves.values():
            yb = np.zeros(p.n)
            yb[round_selection(y, p)] = 1.0
            best_rounded = max(best_rounded, objective(p, yb))
        if best_rounded >= best_val - 1e-9:
            rounded_hits += 1
    elapsed = time.perf_counter() - t0
    assert relaxed_ok == 100
    assert rounded_hits >= 80
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 6: PASS - relaxed >= binary optimum - 1e-9 on "
        f"{relaxed_ok}/100, rounded optimal on {rounded_hits}/100 "
        f"(floor 80), {elapsed:.1f}s"
    )


def test_criterion_07_solver_mechanics(solver_suite):
    """Monotone trace, conserved budget, box bounds, KKT at convergence."""

    def check(trace):
        diffs = np.diff(trace.objective_per_iteration)
        assert diffs.size == 0 or float(diffs.min()) >= -1e-12
        assert trace.max_budget_drift <= 1e-9
        assert trace.y_min >= 0.0
        assert trace.y_max <= 1.0
        if trace.converged:
            assert trace.kkt_residual <= 1e-6

    checked = 0
    for _, solves, _, _ in solver_suite:
        for _, trace in solves.values():
            check(trace)
            checked += 1
    steps = ("derived", "paper")
    for s in range(10):
        rng = np.random.default_rng(500 + s)
        k = int(rng.integers(10, 101))
        p = random_selection_problem(rng, n=500, k=k)
        _, trace = solve(p, SolverConfig(init=INITS[s % 3], step_rule=steps[s % 2]))
        check(trace)
        checked += 1
    print(
        f"ACCEPTANCE 7: PASS - {checked} solves (300 small, 10 at n=500): "
        f"trace monotone, budget drift <= 1e-9, y in [0,1], kkt <= 1e-6 "
        f"at convergence"
    )


def test_criterion_08_reward_gradient_identity():
    """Central differences of the objective match the analytic reward."""
    rng = np.random.default_rng(8)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        p = random_selection_problem(rng)
        y = rng.uniform(0.0, 1.0, p.n)
        i = int(rng.integers(0, p.n))
        up, dn = y.copy(), y.copy()
        up[i] += eps
        dn[i] -= eps
        fd = (objective(p, up) - objective(p, dn)) / (2.0 * eps)
        err = abs(fd - reward(p, y, i))
        worst = max(worst, err)
        assert err <= 1e-9
    print(
        f"ACCEPTANCE 8: PASS - max |finite difference - reward| = "
        f"{worst:.2e} over 20 (instance, coordinate) pairs (tol 1e-9)"
    )


def test_criterion_09_evaluation_fixtures():
    """Hand-computed precision values, exact."""
    ap = average_precision_at_k(
        Ranking(query_id="q", items=["a", "b", "c"]), {"a", "c"}, 3
    )
    assert abs(ap - 5.0 / 6.0) <= 1e-12

    runs = [
        Ranking(query_id="q1", items=["a", "b", "c", "d"]),  # rel a, c -> 5/6
        Ranking(query_id="q2", items=["b", "a"]),            # rel a    -> 1/2
        Ranking(query_id="q3", items=["c", "a", "b"]),       # all rel  -> 1
    ]
    gt = {"q1": {"a", "c"}, "q2": {"a"}, "q3": {"a", "b", "c"}}
    got = map_at_k(runs, gt, 4)
    assert abs(got - (5.0 / 6.0 + 0.5 + 1.0) / 3.0) <= 1e-12

    scores = {"a": 7.0, "b": 11.0, "c": 0.0}
    ms = mean_subjective_at_k(Ranking(query_id="q", items=["a", "b", "c"]), scores, 2)
    assert ms == (7.0 + 11.0) / 2.0
    print(
        "ACCEPTANCE 9: PASS - AP@3 [R,N,R] = 5/6, three-query mAP = 7/9, "
        "subjective mean exact"
    )


def test_criterion_10_determinism(tmp_path_factory, monkeypatch):
    """Byte-identical pipeline outputs across reruns, ``--threads`` values
    and worker counts of the dense affinity pass."""
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("determinism")
    m = gaussian_cloud(np.random.default_rng(4), 3000, 8)
    feat = root / "features.csv"
    save_features(m, feat)

    names = ("profile.csv", "summary.json", "scatter.csv")
    analyze = {}
    for tag, threads in (("t1", 1), ("t8", 8)):
        d = root / f"analyze_{tag}"
        args = ["analyze", str(feat), "--out", str(d), "--threads", str(threads)]
        assert cli.main(args) == 0
        analyze[tag] = {nm: (d / nm).read_bytes() for nm in names}
    assert analyze["t1"] == analyze["t8"]

    d = root / "analyze_t1"  # rerun in place, served from the graph cache
    assert cli.main(["analyze", str(feat), "--out", str(d), "--threads", "1"]) == 0
    assert {nm: (d / nm).read_bytes() for nm in names} == analyze["t1"]

    # a hub-first select computes the rows it reads; a uniform one reads
    # past n / 4 of them and builds the whole matrix on a pool of _workers()
    solutions = {"hub-first": [], "uniform": []}
    for tag, threads, workers in (("t1", 1, 1), ("t8", 8, 3), ("t1-rerun", 1, 2)):
        pools = []
        monkeypatch.setattr(neighbors, "_workers", lambda w=workers: pools.append(w) or w)
        for init, runs in solutions.items():
            out = root / f"solution_{init}_{tag}.json"
            trc = root / f"trace_{init}_{tag}.csv"
            args = [
                "select", str(feat), "--k", "10", "--init", init, "--out", str(out),
                "--trace", str(trc), "--threads", str(threads),
            ]
            assert cli.main(args) == 0
            runs.append(out.read_bytes() + trc.read_bytes())
        assert pools == [workers]  # the one dense pass, of the uniform select
    for runs in solutions.values():
        assert runs[0] == runs[1] == runs[2]
    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 10: PASS - analyze and hub-first and uniform select outputs "
        f"byte-identical across reruns at threads 1 and 8 and dense-affinity "
        f"workers 1, 2 and 3, "
        f"{elapsed:.1f}s"
    )

import numpy as np
import pytest
from scipy import sparse

from hubsel import selector
from hubsel.features import FeatureMatrix
from hubsel.neighbors import knn_graph, pairwise_distance
from hubsel.selector import (
    SelectionProblem,
    SolverConfig,
    build_problem,
    init_hub_first,
    init_lid_first,
    init_uniform,
    kkt_residual,
    objective,
    reward,
    rewards,
    round_selection,
    save_solution,
    save_trace,
    solve,
)
from hubsel.stats import HubnessProfile, LidProfile, hubness_scores, lid_mle
from helpers import best_subset, random_matrix, random_selection_problem


def two_point_problem():
    # worked example: n=2, k=2, H=[1,2], D=[0,1], A12=0.5
    a = np.array([[0.0, 0.5], [0.5, 0.0]])
    return SelectionProblem(
        h=np.array([1.0, 2.0]), d_risk=np.array([0.0, 1.0]), a=a, k=2
    )


def hub_lid_profiles(scores, lids, degenerate=None):
    scores = np.asarray(scores)
    n = len(scores)
    if degenerate is None:
        degenerate = np.zeros(n, dtype=bool)
    hub = HubnessProfile(k=3, scores=scores.astype(np.int64), categories=np.array(["normal"] * n))
    lid = LidProfile(n_nbr=3, lids=np.asarray(lids, dtype=float), degenerate=np.asarray(degenerate))
    return hub, lid


class TestBuildProblem:
    def test_minmax_hub(self):
        m = random_matrix(np.random.default_rng(0), 3, 4)
        hub, lid = hub_lid_profiles([0, 5, 10], [1.0, 2.0, 3.0])
        p = build_problem(hub, lid, m, "euclidean", 2)
        assert p.h.tolist() == [0.0, 0.5, 1.0]

    def test_constant_lids_warn_to_zero(self):
        m = random_matrix(np.random.default_rng(1), 2, 3)
        hub, lid = hub_lid_profiles([0, 5], [20.0, 20.0])
        with pytest.warns(UserWarning, match="constant"):
            p = build_problem(hub, lid, m, "euclidean", 2)
        assert p.d_risk.tolist() == [0.0, 0.0]

    def test_degenerate_lids_map_to_one(self):
        m = random_matrix(np.random.default_rng(2), 3, 3)
        hub, lid = hub_lid_profiles([0, 1, 2], [5.0, 10.0, 1e6], [False, False, True])
        p = build_problem(hub, lid, m, "euclidean", 2)
        assert p.d_risk.tolist() == [0.0, 1.0, 1.0]

    def test_dense_affinity_matches_pairwise(self):
        m = random_matrix(np.random.default_rng(3), 4, 5)
        hub, lid = hub_lid_profiles([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0])
        for metric in ("cosine", "euclidean"):
            p = build_problem(hub, lid, m, metric, 2)
            assert np.array_equal(p.a, p.a.T)
            assert np.array_equal(np.diag(p.a), np.zeros(4))
            for i in range(4):
                for j in range(i + 1, 4):
                    direct = pairwise_distance(m.values[i], m.values[j], metric)
                    assert p.a[i, j] == pytest.approx(direct, abs=1e-12)

    def test_knn_sparse_symmetrized_by_max(self):
        m = random_matrix(np.random.default_rng(4), 12, 4)
        g = knn_graph(m, 3, "euclidean")
        hub = hubness_scores(g)
        lid = lid_mle(g, 2)
        p = build_problem(hub, lid, m, "euclidean", 3, mode="knn_sparse", graph=g)
        a = p.a.toarray()
        assert np.array_equal(a, a.T)
        assert np.array_equal(np.diag(a), np.zeros(12))
        edges = set()
        for i in range(12):
            for j in g.indices[i]:
                edges.add((i, int(j)))
        for i in range(12):
            for j in range(12):
                if i == j:
                    continue
                if (i, j) in edges or (j, i) in edges:
                    assert a[i, j] > 0.0 or p.a[i, j] == 0.0  # stored edge
                else:
                    assert a[i, j] == 0.0

    def test_knn_sparse_needs_graph(self):
        m = random_matrix(np.random.default_rng(5), 5, 3)
        hub, lid = hub_lid_profiles([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
        with pytest.raises(ValueError, match="graph"):
            build_problem(hub, lid, m, "euclidean", 2, mode="knn_sparse")

    def test_k_out_of_range(self):
        m = random_matrix(np.random.default_rng(6), 4, 3)
        hub, lid = hub_lid_profiles([1, 2, 3, 4], [1, 2, 3, 4])
        for bad_k in (1, 5, 0, -2):
            with pytest.raises(ValueError, match="invalid budget"):
                build_problem(hub, lid, m, "euclidean", bad_k)

    def test_k_one_allowed_with_linear(self):
        m = random_matrix(np.random.default_rng(7), 4, 3)
        hub, lid = hub_lid_profiles([1, 2, 3, 4], [1, 2, 3, 4])
        p = build_problem(hub, lid, m, "euclidean", 1, linear=True)
        assert p.k == 1 and p.a.nnz == 0

    def test_linear_computes_no_distance(self, monkeypatch):
        def no_distances(*args, **kwargs):
            raise AssertionError("linear problem computed distances")

        monkeypatch.setattr(selector, "distance_matrix", no_distances)
        m = random_matrix(np.random.default_rng(7), 6, 3)
        hub, lid = hub_lid_profiles([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6])
        for mode in ("dense", "knn_sparse"):  # knn_sparse without a graph
            p = build_problem(hub, lid, m, "cosine", 2, mode=mode, linear=True)
            assert sparse.issparse(p.a) and p.a.shape == (6, 6) and p.a.nnz == 0

    def test_unknown_mode(self):
        m = random_matrix(np.random.default_rng(8), 4, 3)
        hub, lid = hub_lid_profiles([1, 2, 3, 4], [1, 2, 3, 4])
        for linear in (False, True):
            with pytest.raises(ValueError, match="mode"):
                build_problem(hub, lid, m, "euclidean", 2, mode="banded", linear=linear)


class TestObjectiveAndReward:
    def test_zero_vector(self):
        p = two_point_problem()
        assert objective(p, np.zeros(2)) == 0.0

    def test_worked_example(self):
        p = two_point_problem()
        y = np.array([1.0, 1.0])
        assert objective(p, y) == pytest.approx(1.5, abs=1e-15)
        assert reward(p, y, 0) == pytest.approx(1.0, abs=1e-15)
        assert reward(p, y, 1) == pytest.approx(1.0, abs=1e-15)

    def test_linear_collapse(self):
        n = 6
        rng = np.random.default_rng(9)
        h = rng.uniform(0, 1, n)
        p = SelectionProblem(h=h, d_risk=np.zeros(n), a=np.zeros((n, n)), k=3)
        y = np.zeros(n)
        y[[0, 2, 4]] = 1.0
        assert objective(p, y) == pytest.approx(h[[0, 2, 4]].sum() / 3, abs=1e-15)

    def test_reward_at_zero_vector(self):
        p = random_selection_problem(np.random.default_rng(10))
        r = rewards(p, np.zeros(p.n))
        assert np.allclose(r, (p.h - p.d_risk) / p.k, atol=1e-15, rtol=0)

    def test_finite_difference_identity(self):
        rng = np.random.default_rng(11)
        eps = 1e-5
        for _ in range(20):
            p = random_selection_problem(rng)
            y = rng.uniform(0.0, 1.0, p.n)
            i = int(rng.integers(0, p.n))
            up, down = y.copy(), y.copy()
            up[i] += eps
            down[i] -= eps
            fd = (objective(p, up) - objective(p, down)) / (2.0 * eps)
            assert abs(fd - reward(p, y, i)) <= 1e-9


class TestInits:
    def test_hub_first_topk(self):
        p = SelectionProblem(h=np.array([0.1, 0.9, 0.5]), d_risk=np.zeros(3), a=np.zeros((3, 3)), k=2)
        assert init_hub_first(p).tolist() == [0.0, 1.0, 1.0]

    def test_hub_first_tie_by_index(self):
        p = SelectionProblem(h=np.ones(3), d_risk=np.zeros(3), a=np.zeros((3, 3)), k=2)
        assert init_hub_first(p).tolist() == [1.0, 1.0, 0.0]

    def test_lid_first_argmin(self):
        p = SelectionProblem(h=np.zeros(3), d_risk=np.array([0.3, 0.1, 0.9]), a=np.zeros((3, 3)), k=1)
        assert init_lid_first(p).tolist() == [0.0, 1.0, 0.0]

    def test_lid_first_tie_by_index(self):
        p = SelectionProblem(h=np.zeros(3), d_risk=np.ones(3), a=np.zeros((3, 3)), k=1)
        assert init_lid_first(p).tolist() == [1.0, 0.0, 0.0]

    def test_full_budget(self):
        p = SelectionProblem(h=np.array([1.0, 2.0]), d_risk=np.zeros(2), a=np.zeros((2, 2)), k=2)
        assert init_hub_first(p).tolist() == [1.0, 1.0]
        assert init_lid_first(p).tolist() == [1.0, 1.0]

    def test_uniform_budget(self):
        p = random_selection_problem(np.random.default_rng(12), n=10, k=4)
        assert init_uniform(p).tolist() == [0.4] * 10


class TestSolve:
    def test_stays_at_linear_optimum(self):
        n = 5
        h = np.array([0.9, 0.2, 0.7, 0.4, 0.1])
        p = SelectionProblem(h=h, d_risk=np.zeros(n), a=np.zeros((n, n)), k=2)
        y, trace = solve(p, SolverConfig(init="hub_first"))
        assert y.tolist() == [1.0, 0.0, 1.0, 0.0, 0.0]
        assert trace.iterations == 0
        assert trace.converged

    def test_uniform_reaches_linear_optimum(self):
        n = 5
        h = np.array([0.9, 0.2, 0.7, 0.4, 0.1])
        p = SelectionProblem(h=h, d_risk=np.zeros(n), a=np.zeros((n, n)), k=2)
        y, trace = solve(p, SolverConfig(init="uniform"))
        assert trace.converged
        assert np.allclose(y, [1.0, 0.0, 1.0, 0.0, 0.0], atol=1e-9, rtol=0)
        assert set(round_selection(y, p)) == {0, 2}

    def test_full_budget_zero_iterations(self):
        p = random_selection_problem(np.random.default_rng(13), n=6, k=6)
        y, trace = solve(p)
        assert y.tolist() == [1.0] * 6
        assert trace.iterations == 0
        assert trace.converged
        assert trace.kkt_residual == 0.0

    def test_custom_init_validated(self):
        p = random_selection_problem(np.random.default_rng(14), n=5, k=2)
        rejected = {
            r"budget violated: sum\(y\) = 3\.0, expected 2": [1.0, 1.0, 1.0, 0.0, 0.0],
            "y outside the unit box": [1.5, 0.5, 0.0, 0.0, 0.0],
            r"custom init has shape \(4,\), expected \(5,\)": [1.0, 1.0, 0.0, 0.0],
        }
        for match, init in rejected.items():
            with pytest.raises(ValueError, match=match):
                solve(p, SolverConfig(init=np.array(init)))
        start = np.array([0.5, 0.5, 1.0, 0.0, 0.0])
        y, _ = solve(p, SolverConfig(init=start, max_iterations=1))
        assert y is not start and start.tolist() == [0.5, 0.5, 1.0, 0.0, 0.0]

    def test_unknown_init(self):
        p = random_selection_problem(np.random.default_rng(15))
        with pytest.raises(ValueError, match="init"):
            solve(p, SolverConfig(init="biggest"))

    def test_unknown_step_rule(self):
        p = random_selection_problem(np.random.default_rng(16))
        with pytest.raises(ValueError, match="step"):
            solve(p, SolverConfig(step_rule="midpoint"))

    @pytest.mark.parametrize("step_rule", ["derived", "paper"])
    @pytest.mark.parametrize("init", ["hub_first", "lid_first", "uniform"])
    def test_mechanics_random_instances(self, step_rule, init):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = random_selection_problem(rng)
            y, trace = solve(p, SolverConfig(init=init, step_rule=step_rule))
            assert abs(float(y.sum()) - p.k) <= 1e-9
            assert y.min() >= -1e-9 and y.max() <= 1.0 + 1e-9
            diffs = np.diff(trace.objective_per_iteration)
            assert (diffs >= -1e-12).all()
            assert trace.max_budget_drift <= 1e-9
            assert trace.y_min >= -1e-12 and trace.y_max <= 1.0 + 1e-12
            if trace.converged and step_rule == "derived":
                assert trace.kkt_residual <= 1e-6

    def test_derived_step_converges(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            p = random_selection_problem(rng)
            _, trace = solve(p, SolverConfig(init="uniform"))
            assert trace.converged

    def test_matches_enumeration_often(self):
        rng = np.random.default_rng(19)
        hits = 0
        for _ in range(20):
            p = random_selection_problem(rng)
            bval, _ = best_subset(p.h, p.d_risk, p.a, p.k)
            vals = []
            for init in ("hub_first", "lid_first", "uniform"):
                y, _ = solve(p, SolverConfig(init=init))
                sel = round_selection(y, p)
                yb = np.zeros(p.n)
                yb[sel] = 1.0
                vals.append(objective(p, yb))
            if max(vals) >= bval - 1e-9:
                hits += 1
        assert hits >= 15

    def test_max_iterations_reported(self):
        p = random_selection_problem(np.random.default_rng(20), n=12, k=4)
        _, trace = solve(p, SolverConfig(init="uniform", max_iterations=1))
        assert trace.iterations <= 1
        assert not trace.converged

    def test_objective_trace_matches_fresh_recompute(self):
        p = random_selection_problem(np.random.default_rng(21), n=10, k=3)
        y, trace = solve(p, SolverConfig(init="uniform"))
        assert trace.objective_per_iteration[-1] == pytest.approx(objective(p, y), abs=1e-9)

    @pytest.mark.parametrize("step_rule", ["derived", "paper"])
    @pytest.mark.parametrize("init", ["hub_first", "lid_first", "uniform"])
    def test_csr_and_dense_affinity_agree(self, step_rule, init):
        # dyadic entries and a dyadic uniform start k / n make A @ y exact in
        # any summation order, so the two storage formats agree bit for bit
        rng = np.random.default_rng(28)
        for _ in range(10):
            n = int(rng.choice([8, 16]))
            a = rng.integers(0, 8, (n, n)) / 8.0
            a = np.triu(a * (rng.uniform(size=(n, n)) < 0.4), 1)
            a = a + a.T
            a[int(rng.integers(n))] = 0.0
            a = np.minimum(a, a.T)  # still symmetric, with an empty CSR row
            k = int(rng.choice([2, 4]))
            h, d = rng.uniform(size=n), rng.uniform(size=n)
            dense = SelectionProblem(h=h, d_risk=d, a=a, k=k)
            csr = SelectionProblem(h=h, d_risk=d, a=sparse.csr_matrix(a), k=k)
            cfg = SolverConfig(init=init, step_rule=step_rule)
            (y1, t1), (y2, t2) = solve(dense, cfg), solve(csr, cfg)
            assert np.array_equal(y1, y2)
            assert t1.updates == t2.updates
            assert t1.objective_per_iteration == t2.objective_per_iteration
            assert objective(dense, y1) == pytest.approx(objective(csr, y2), abs=1e-12)

    @pytest.mark.parametrize("init", ["hub_first", "lid_first", "uniform"])
    def test_trace_extremes_match_full_scan_replay(self, init):
        rng = np.random.default_rng(29)
        for trial in range(30):
            p = random_selection_problem(rng)
            cfg = SolverConfig(
                init=init,
                step_rule=("derived", "paper")[trial % 2],
                max_iterations=(1, 2, None)[trial % 3],
            )
            y, trace = solve(p, cfg)
            z = selector._initial_vector(p, cfg)
            lo, hi, drift = float(z.min()), float(z.max()), abs(float(z.sum()) - p.k)
            for _, j, i, alpha in trace.updates:
                cap_j, cap_i = float(z[j]), 1.0 - float(z[i])
                z[j] = 0.0 if alpha >= cap_j else z[j] - alpha
                z[i] = 1.0 if alpha >= cap_i else z[i] + alpha
                lo, hi = min(lo, float(z.min())), max(hi, float(z.max()))
                drift = max(drift, abs(float(z.sum()) - p.k))
            assert np.array_equal(z, y)
            assert (trace.y_min, trace.y_max, trace.max_budget_drift) == (lo, hi, drift)

    def test_scale_shift_keeps_selection(self):
        p = random_selection_problem(np.random.default_rng(22), n=8, k=3)
        y1, _ = solve(p, SolverConfig(init="uniform"))
        shifted = SelectionProblem(h=p.h + 0.25, d_risk=p.d_risk, a=p.a, k=p.k)
        y2, _ = solve(shifted, SolverConfig(init="uniform"))
        r1 = rewards(p, y1)
        r2 = rewards(shifted, y1)
        assert np.allclose(r2 - r1, 0.25 / p.k, atol=1e-12, rtol=0)
        assert round_selection(y1, p) == round_selection(y2, shifted)


class TestKkt:
    def test_zero_at_full_budget(self):
        p = random_selection_problem(np.random.default_rng(23), n=5, k=5)
        assert kkt_residual(p, np.ones(5)) == 0.0

    def test_positive_at_uniform_heterogeneous(self):
        p = random_selection_problem(np.random.default_rng(24), n=6, k=2)
        assert kkt_residual(p, np.full(6, 2.0 / 6.0)) > 0.0

    def test_small_at_separable_optimum(self):
        # with A = 0 the enumeration optimum is a KKT point
        h = np.array([0.9, 0.1, 0.6, 0.3])
        d = np.array([0.0, 0.2, 0.1, 0.4])
        p = SelectionProblem(h=h, d_risk=d, a=np.zeros((4, 4)), k=2)
        _, bset = best_subset(h, d, np.zeros((4, 4)), 2)
        y = np.zeros(4)
        y[list(bset)] = 1.0
        assert kkt_residual(p, y) <= 1e-6

    def test_matches_per_set_reference(self):
        # reference: the residual taken separately over the entries at 0,
        # at 1 and in between, with the same arithmetic
        rng = np.random.default_rng(29)
        for _ in range(50):
            p = random_selection_problem(rng)
            v = rng.choice([0.0, 1.0, 0.25, 0.5], size=p.n) * rng.uniform(0.9, 1.0, p.n)
            v[rng.uniform(size=p.n) < 0.3] = 1.0
            r = rewards(p, v)
            below, above = v < 1.0 - 1e-9, v > 1e-9
            want = 0.0
            if below.any() and above.any():
                lam = 0.5 * (float(r[below].max()) + float(r[above].min()))
                for mask, viol in ((~above, r - lam), (~below, lam - r),
                                   (above & below, np.abs(r - lam))):
                    if mask.any():
                        want = max(want, float(viol[mask].max()))
            assert kkt_residual(p, v) == want


class TestRounding:
    def test_already_binary(self):
        p = SelectionProblem(h=np.zeros(3), d_risk=np.zeros(3), a=np.zeros((3, 3)), k=2)
        assert set(round_selection(np.array([1.0, 0.0, 1.0]), p)) == {0, 2}

    def test_reward_tie_break(self):
        # rewards at y are (h - d)/k = [0.2, 0.7, 0.9] with a linear problem
        p = SelectionProblem(
            h=np.array([0.4, 1.4, 1.8]), d_risk=np.zeros(3),
            a=np.zeros((3, 3)), k=2,
        )
        y = np.array([0.5, 0.5, 1.0])
        assert round_selection(y, p) == [2, 1]

    def test_sort_property(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            p = random_selection_problem(rng)
            y = rng.uniform(0.0, 1.0, p.n)
            sel = round_selection(y, p)
            assert len(sel) == p.k
            assert len(set(sel)) == p.k
            rejected = [i for i in range(p.n) if i not in sel]
            if rejected:
                assert min(y[sel]) >= max(y[rejected]) - 1e-15


class TestSerialization:
    def test_solution_json(self, tmp_path):
        p = random_selection_problem(np.random.default_rng(26), n=6, k=2)
        y, trace = solve(p, SolverConfig(init="hub_first"))
        ids = [f"f{i}" for i in range(6)]
        out = tmp_path / "solution.json"
        save_solution(out, ids, p, y, trace, init_label="hub-first")
        import json

        payload = json.loads(out.read_text())
        assert payload["k"] == 2
        assert payload["init"] == "hub-first"
        assert len(payload["selected"]) == 2
        assert len(payload["y"]) == 6
        assert payload["converged"] == trace.converged
        assert payload["objective"] == pytest.approx(objective(p, y), abs=0)

    def test_trace_csv(self, tmp_path):
        p = random_selection_problem(np.random.default_rng(27), n=8, k=3)
        _, trace = solve(p, SolverConfig(init="uniform"))
        out = tmp_path / "trace.csv"
        save_trace(out, trace)
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,objective,eta,donor,receiver,alpha"
        assert len(lines) == trace.iterations + 1
        if trace.iterations:
            first = lines[1].split(",")
            assert first[0] == "1"
            assert float(first[2]) > 0.0  # eta positive on applied updates

import importlib.machinery
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from hubsel import neighbors, selector
from hubsel.evaluation import Ranking, save_run
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
from helpers import best_subset, random_matrix, random_selection_problem, reference_solve


def two_point_problem():
    # worked example: n=2, k=2, H=[1,2], D=[0,1], A12=0.5
    a = np.array([[0.0, 0.5], [0.5, 0.0]])
    return SelectionProblem(
        h=np.array([1.0, 2.0]), d_risk=np.array([0.0, 1.0]), a=a, k=2
    )


def csr_affinity(mat):
    """The CsrAffinity of a scipy CSR matrix's arrays."""
    return selector.CsrAffinity(mat.indptr, mat.indices, mat.data, mat.shape)


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
            a = np.asarray(p.a)
            assert np.array_equal(a, a.T)
            assert np.array_equal(np.diag(a), np.zeros(4))
            for i in range(4):
                for j in range(i + 1, 4):
                    direct = pairwise_distance(m.values[i], m.values[j], metric)
                    assert a[i, j] == pytest.approx(direct, abs=1e-12)

    def test_knn_sparse_symmetrized_by_max(self):
        m = random_matrix(np.random.default_rng(4), 12, 4)
        g = knn_graph(m, 3, "euclidean")
        hub = hubness_scores(g)
        lid = lid_mle(g, 2)
        p = build_problem(hub, lid, m, "euclidean", 3, mode="knn_sparse", graph=g)
        a = sparse.csr_matrix((p.a.data, p.a.indices, p.a.indptr), shape=p.a.shape).toarray()
        assert np.array_equal(a, a.T)
        assert np.array_equal(np.diag(a), np.zeros(12))
        want = np.zeros((12, 12))  # the larger edge distance on (i, j) and (j, i)
        for i in range(12):
            for j, dist in zip(g.indices[i], g.distances[i]):
                want[i, j] = want[j, i] = max(want[i, j], dist)
        assert np.array_equal(a, want)

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

        monkeypatch.setattr(selector, "_in_range", no_distances)
        monkeypatch.setattr(selector, "packed_distances", no_distances)
        m = random_matrix(np.random.default_rng(7), 6, 3)
        hub, lid = hub_lid_profiles([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6])
        for mode in ("dense", "knn_sparse"):  # knn_sparse without a graph
            p = build_problem(hub, lid, m, "cosine", 2, mode=mode, linear=True)
            assert isinstance(p.a, selector.CsrAffinity)
            assert p.a.shape == (6, 6) and p.a.nnz == 0

    def test_unknown_mode(self):
        m = random_matrix(np.random.default_rng(8), 4, 3)
        hub, lid = hub_lid_profiles([1, 2, 3, 4], [1, 2, 3, 4])
        for linear in (False, True):
            with pytest.raises(ValueError, match="mode"):
                build_problem(hub, lid, m, "euclidean", 2, mode="banded", linear=linear)


class TestCsrAffinity:
    """The knn-sparse A: the arrays and products of scipy.sparse, from
    scipy's compiled CSR functions without the package."""

    @staticmethod
    def scipy_affinity(g):
        n, width = g.indices.shape
        rows = np.repeat(np.arange(n), width)
        mat = sparse.coo_matrix(
            (g.distances.ravel(), (rows, g.indices.ravel())), shape=(n, n)
        ).tocsr()
        return mat.maximum(mat.T).tocsr()

    @staticmethod
    def assert_same(a, b, rng):
        assert isinstance(a, selector.CsrAffinity) and a.shape == b.shape
        for name in ("indptr", "indices", "data"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        n = a.shape[0]
        for y in (np.full(n, 3 / n), (rng.uniform(size=n) < 0.2) * 1.0, rng.uniform(size=n)):
            assert (a @ y).tobytes() == (b @ y).tobytes()

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_arrays_and_products_equal_scipy(self, metric):
        rng = np.random.default_rng(41)
        values = rng.normal(1.0, 1.0, (80, 5))
        values[10:13] = values[40]  # zero-distance edges, which maximum prunes
        m = FeatureMatrix([f"f{i}" for i in range(80)], values)
        for k in (1, 6, 79):
            g = knn_graph(m, k, metric)
            a, b = selector._knn_affinity(g), self.scipy_affinity(g)
            self.assert_same(a, b, rng)
            assert (g.distances == 0.0).any() and (a.data > 0.0).all()

    def test_package_import_gives_the_same_bytes(self, monkeypatch):
        """Where the standalone load finds no module, scipy.sparse's own
        module serves."""
        asked = []

        class Miss:
            def __init__(self, path, *loaders):
                pass

            def find_spec(self, fullname):
                asked.append(fullname)
                return None

        rng = np.random.default_rng(42)
        g = knn_graph(random_matrix(rng, 50, 4), 5, "euclidean")
        monkeypatch.setattr(importlib.machinery, "FileFinder", Miss)
        # imported again through the package; both names get their module back
        monkeypatch.setattr(sparse, "_sparsetools", sparse._sparsetools)
        monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
        self.assert_same(selector._knn_affinity(g), self.scipy_affinity(g), rng)
        assert asked == ["scipy.sparse._sparsetools"]
        assert "scipy.sparse._sparsetools" in sys.modules

    @pytest.mark.parametrize("share", [0.0, np.inf])
    def test_a_row_outside_the_affinity_raises(self, monkeypatch, share):
        monkeypatch.setattr(selector, "_ON_DEMAND_SHARE", share)
        a = selector.DenseAffinity(random_matrix(np.random.default_rng(52), 5, 2).values, "cosine")
        for i in (-1, 5):
            with pytest.raises(IndexError):
                a[i]
        # indptr[i] of a negative i read another row: a[-1] all zeros, a[-2] row 2
        a = csr_affinity(sparse.csr_matrix(np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0.0]])))
        assert [a[i].tolist() for i in range(3)] == [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
        for i in (-1, -2, -3, 3, np.int64(-1)):
            with pytest.raises(IndexError, match=rf"^row {i} of an affinity of 3 rows$"):
                a[i]

    def test_product_of_another_length_raises(self):
        g = knn_graph(random_matrix(np.random.default_rng(43), 9, 3), 2, "euclidean")
        a = selector._knn_affinity(g)
        for y in (np.ones(8), np.ones(10), np.ones((9, 1))):
            with pytest.raises(ValueError, match="cannot multiply"):
                a @ y


INITS = ("hub_first", "lid_first", "uniform")


def _solved_bytes(p, cfg, tmp_path):
    """Every output of one solve: y, the trace, the ranking, and the
    solution, trace and run files."""
    y, trace = solve(p, cfg)
    ids = [f"f{i}" for i in range(p.n)]
    order = selector.ranking_order(y, p)
    save_solution(tmp_path / "s.json", ids, p, y, trace, init_label="x")
    save_trace(tmp_path / "t.csv", trace)
    save_run(tmp_path / "r.csv", [Ranking("q", [ids[i] for i in order])])
    files = [(tmp_path / name).read_bytes() for name in ("s.json", "t.csv", "r.csv")]
    return y.tobytes(), repr(trace), order, files


def _backed_problem(backing, rng, n, k):
    """A random instance whose A is an ndarray, a CsrAffinity with an empty
    row, the CsrAffinity of a linear problem, or a DenseAffinity."""
    h, d = rng.uniform(size=n), rng.uniform(size=n)
    if backing.startswith("dense"):
        metric = ("cosine", "euclidean")[int(rng.integers(2))]
        a = selector.DenseAffinity(rng.standard_normal((n, 3)), metric)
    elif backing == "linear":
        a = selector.CsrAffinity(np.zeros(n + 1, np.int32), np.empty(0, np.int32),
                                 np.empty(0), (n, n))
    else:
        a = np.triu(rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.5), 1)
        a += a.T
        empty = int(rng.integers(n))
        a[empty] = a[:, empty] = 0.0
        if backing == "csr":
            a = csr_affinity(sparse.csr_matrix(a))
    return SelectionProblem(h=h, d_risk=d, a=a, k=k)


class TestDenseAffinity:
    """The dense A computes the rows and products the solver reads, with
    the bytes of the matrix it builds once they stop paying."""

    @staticmethod
    def backings(monkeypatch, share, build):
        """``build()`` with the whole matrix built at the first read
        (share 0) or never (share inf)."""
        monkeypatch.setattr(selector, "_ON_DEMAND_SHARE", share)
        if share == np.inf:
            monkeypatch.setattr(selector, "packed_distances",
                                lambda *a: pytest.fail("built the whole matrix"))
        out = build()
        monkeypatch.undo()
        return out

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_backings_agree_on_the_acceptance_suites(self, monkeypatch, tmp_path, metric):
        """The 100 small problems of acceptance 6, from every start, and the
        10 at n = 500 of acceptance 7, with feature rows in place of a
        random A: the same bytes whichever backing serves A."""
        cases = []
        for s in range(100):
            rng = np.random.default_rng(1000 + s)
            n = int(rng.integers(4, 13))
            k = int(rng.integers(2, min(5, n + 1)))
            cases += [(rng, n, k, SolverConfig(init=init)) for init in INITS]
        for s in range(10):
            rng = np.random.default_rng(500 + s)
            cfg = SolverConfig(init=INITS[s % 3], step_rule=("derived", "paper")[s % 2])
            cases.append((rng, 500, int(rng.integers(10, 101)), cfg))
        for rng, n, k, cfg in cases:
            m = random_matrix(rng, n, 8)
            hub, lid = hub_lid_profiles(rng.integers(0, 10, n), rng.uniform(1.0, 9.0, n))

            def run():
                return _solved_bytes(build_problem(hub, lid, m, metric, k), cfg, tmp_path)

            built = self.backings(monkeypatch, 0.0, run)
            assert self.backings(monkeypatch, np.inf, run) == built, (n, k, cfg)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_rows_and_products_are_those_of_the_matrix(self, metric):
        rng = np.random.default_rng(44)
        n = 150
        m = random_matrix(rng, n, 6)
        hub, lid = hub_lid_profiles(rng.integers(0, 10, n), rng.uniform(1.0, 9.0, n))
        built = build_problem(hub, lid, m, metric, 2).a
        whole = np.asarray(built)
        a = build_problem(hub, lid, m, metric, 2).a
        assert a.nbytes == 0
        narrow = np.zeros(n)
        narrow[rng.choice(n, n // 4, replace=False)] = rng.uniform(size=n // 4)
        for y in (narrow, (narrow > 0.5) * 1.0, np.zeros(n)):
            assert (a @ y).tobytes() == (built @ y).tobytes()
        assert a.nbytes == (n // 4) * n * 8  # the products keep the rows of their support
        a = build_problem(hub, lid, m, metric, 2).a
        for i in range(n // 4):  # a row is computed on its first read, and kept
            assert a[i].tobytes() == whole[i].tobytes()
            assert a.nbytes == (i + 1) * n * 8
        a[n // 4]  # one more row passes n / 4: the matrix is built, each pair once
        assert a.nbytes == n * (n + 1) // 2 * 8
        assert np.asarray(a).tobytes() == whole.tobytes()
        assert all(a[i].tobytes() == whole[i].tobytes() for i in range(n))

        wide = build_problem(hub, lid, m, metric, 2).a
        y = np.full(n, 2 / n)  # a support past n / 4 builds the matrix too
        assert (wide @ y).tobytes() == (built @ y).tobytes()
        assert wide.nbytes == n * (n + 1) // 2 * 8

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("share", [0.0, np.inf])
    def test_a_product_sums_the_rows_of_its_support(self, monkeypatch, metric, share):
        """``a @ y`` is the sum of y_j A[j] over the support of y in
        ascending j, from zeros, by elementwise operations, whichever
        backing serves the rows."""
        rng = np.random.default_rng(45)
        n = 150
        m = random_matrix(rng, n, 6)
        hub, lid = hub_lid_profiles(rng.integers(0, 10, n), rng.uniform(1.0, 9.0, n))
        whole = np.asarray(build_problem(hub, lid, m, metric, 2).a)
        y = np.zeros(n)
        support = np.sort(rng.choice(n, 37, replace=False))  # not a multiple of 4
        y[support] = rng.uniform(size=support.size)
        want = np.zeros(n)
        for j in support:
            want += y[j] * whole[j]
        got = self.backings(monkeypatch, share, lambda: build_problem(hub, lid, m, metric, 2).a @ y)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_a_tail_product_is_the_product_rule(self, monkeypatch, metric):
        """A product past n / 4 reads only the row tails of the packed
        triangle, and gives the product rule's bytes: at supports just past
        n / 4, of 60% and full, on rows near 1e150 and 1e-150, and with
        entries of y at -1e-9 (whose diagonal terms are -0.0), -0.0 and 0."""
        rng = np.random.default_rng(49)
        n = 157
        values = rng.standard_normal((n, 6))
        values[::5] *= 1e150
        values[2::7] *= 1e-150
        whole = np.asarray(selector.DenseAffinity(values, metric))
        for size in (n // 4 + 1, (6 * n) // 10, n):
            support = np.sort(rng.choice(n, size, replace=False))
            plain = np.zeros(n)
            plain[support] = rng.uniform(size=size)
            edge = plain.copy()
            edge[support[::3]] = -1e-9
            edge[np.setdiff1d(np.arange(n), support)[::2]] = -0.0
            for y in (plain, edge):
                want = np.zeros(n)
                for j in np.flatnonzero(y):
                    want += y[j] * whole[j]
                a = selector.DenseAffinity(values, metric)
                with monkeypatch.context() as patch:
                    patch.setattr(selector.DenseAffinity, "__getitem__",
                                  lambda *args: pytest.fail("read a whole row"))
                    assert (a @ y).tobytes() == want.tobytes(), size
                assert a.nbytes == n * (n + 1) // 2 * 8

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_a_built_affinity_allocates_each_pair_once(self, monkeypatch, metric, workers):
        """Building A allocates its n (n + 1) / 2 doubles, a row block of
        about 1 MB per worker, and under 1 MB more: no (n, n) matrix."""
        monkeypatch.setattr(neighbors, "_workers", lambda: workers)
        n = 2000
        a = selector.DenseAffinity(np.random.default_rng(50).standard_normal((n, 16)), metric)
        block = neighbors._SELF_BLOCK_ENTRIES // n * n * 8
        np.asarray(selector.DenseAffinity(np.eye(3), metric))  # imports the pool's module
        tracemalloc.start()
        try:
            a @ np.full(n, 2 / n)  # a support past n / 4 builds A
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.nbytes == n * (n + 1) // 2 * 8
        assert peak <= a.nbytes + workers * block + 2**20

    def test_a_hub_first_solve_computes_each_row_once(self, monkeypatch):
        """The start's product computes the rows of its support and keeps
        them, so the solver reads its donors' rows without computing them
        again, and computes no column."""
        rng = np.random.default_rng(47)
        n, k = 400, 10
        m = random_matrix(rng, n, 6)
        hub, lid = hub_lid_profiles(rng.integers(0, 10, n), rng.uniform(1.0, 9.0, n))
        calls = []
        in_range = selector._in_range

        def counted(*args):
            xs, top, pairs, condensed = in_range(*args)
            return xs, top, lambda rx, ry: calls.append((rx, ry)) or pairs(rx, ry), condensed

        monkeypatch.setattr(selector, "_in_range", counted)
        p = build_problem(hub, lid, m, "cosine", k)
        start = np.flatnonzero(init_hub_first(p)).tolist()
        _, trace = solve(p, SolverConfig(init="hub_first"))
        assert trace.iterations > 0
        assert all(isinstance(ry, slice) and ry == slice(None) and rx.stop == rx.start + 1
                   for rx, ry in calls)
        rows = [rx.start for rx, _ in calls]
        assert rows[:k] == start and len(set(rows)) == len(rows)
        assert p.a.nbytes == len(rows) * n * 8  # rows only: no matrix was built

    def test_distances_beyond_the_float64_maximum_raise_at_build(self):
        hub, lid = hub_lid_profiles([1, 2, 3, 4, 5, 6], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        values = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 1.0], [3.0, 0.0], [0.0, 0.0], [1.0, 2.0]])
        over, near = values.copy(), values.copy()
        over[:2] = [[1.5e308, 0.0], [-1.5e308, 0.0]]  # 3e308 apart
        near[:2] = [[1e307, 0.0], [-1e307, 0.0]]  # 2e307 apart: bounded, nothing built
        ids = [f"f{i}" for i in range(6)]
        with pytest.raises(ValueError, match="exceeds the float64 maximum"):
            build_problem(hub, lid, FeatureMatrix(ids, over), "euclidean", 2)
        assert build_problem(hub, lid, FeatureMatrix(ids, near), "euclidean", 2).a.nbytes == 0

    def test_product_of_another_length_raises(self):
        hub, lid = hub_lid_profiles([1, 2, 3], [1.0, 2.0, 3.0])
        a = build_problem(hub, lid, random_matrix(np.random.default_rng(46), 3, 2), "cosine", 2).a
        for y in (np.ones(2), np.ones(4), np.ones((3, 1))):
            with pytest.raises(ValueError, match="cannot multiply"):
                a @ y


class TestObjectiveAndReward:
    @pytest.mark.skipif(neighbors._workers() < 2, reason="two BLAS threads need two CPUs")
    def test_objective_bits_do_not_depend_on_the_blas_thread_count(self):
        """At n = 20000 OpenBLAS splits a dot product over its threads; the
        objective's three sums take the same bits under one and two."""
        code = """
import numpy as np
from hubsel import selector
n, width = 20000, 8
rng = np.random.default_rng(51)
indptr = np.arange(0, n * width + 1, width, dtype=np.int32)
indices = np.sort(rng.integers(0, n, (n, width)), axis=1).astype(np.int32).ravel()
a = selector.CsrAffinity(indptr, indices, rng.uniform(size=n * width), (n, n))
p = selector.SelectionProblem(h=rng.uniform(size=n), d_risk=rng.uniform(size=n), a=a, k=20)
y = rng.uniform(size=n)
print(selector.objective(p, y * (20 / y.sum())).hex())
"""
        src = Path(__file__).resolve().parents[1] / "src"
        bits = {
            threads: subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads),
            ).stdout
            for threads in ("1", "2")
        }
        assert bits["1"] == bits["2"]

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
        # a custom vertex start that no pair improves, with a small A too:
        # receivers and donors are both left, and the reward gap stops it
        start = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        a = random_selection_problem(np.random.default_rng(38), n=n).a
        for scale, step_rule in itertools.product((0.0, 0.01), ("derived", "paper")):
            p = SelectionProblem(h=h, d_risk=np.zeros(n), a=scale * a, k=2)
            y, trace = solve(p, SolverConfig(init=start, step_rule=step_rule))
            assert y.tobytes() == start.tobytes()
            assert (trace.iterations, trace.converged, trace.kkt_residual) == (0, True, 0.0)

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
        # no fragment can receive, so the first reward gap is -inf
        rng = np.random.default_rng(37)
        for backing in ("ndarray", "csr", "linear", "dense"):
            for init, step_rule in itertools.product(INITS, ("derived", "paper")):
                p = _backed_problem(backing, rng, 5, 5)
                y, trace = solve(p, SolverConfig(init=init, step_rule=step_rule))
                assert y.tolist() == [1.0] * 5
                assert (trace.iterations, trace.converged, trace.kkt_residual) == (0, True, 0.0)
                assert len(trace.objective_per_iteration) == 1

    @pytest.mark.parametrize("backing", ["ndarray", "csr", "linear", "dense", "dense_built"])
    @pytest.mark.parametrize("step_rule", ["derived", "paper"])
    def test_matches_the_reference_solver(self, monkeypatch, backing, step_rule):
        """The y and trace of the naive solver, which keeps all of r and
        finds the receivers and donors anew at every step, byte for byte:
        on every backing, from every named start and a custom one with
        entries at exactly 0 and 1, cut after 1, 2 or no iteration cap."""
        # a dense affinity built at its first read, or computed on demand
        share = 0.0 if backing == "dense_built" else 1.0
        monkeypatch.setattr(selector, "_ON_DEMAND_SHARE", share)
        rng = np.random.default_rng(36)
        for _ in range(4):
            n = int(rng.integers(6, 13))
            k = int(rng.integers(1 if backing == "linear" else 2, 5))
            seed = int(rng.integers(2**32))
            custom = np.zeros(n)
            custom[: k - 1] = 1.0
            custom[k - 1: k + 1] = 0.5
            custom = custom[rng.permutation(n)]
            for init in (*INITS, custom):
                for max_iterations in (1, 2, None):
                    cfg = SolverConfig(init, max_iterations, step_rule)
                    p, q = (_backed_problem(backing, np.random.default_rng(seed), n, k)
                            for _ in range(2))
                    start = selector._initial_vector(q, cfg)
                    y, trace = solve(p, cfg)
                    y_ref, trace_ref = reference_solve(q, start, step_rule, max_iterations)
                    assert y.tobytes() == y_ref.tobytes()
                    assert repr(trace) == repr(trace_ref)

    @pytest.mark.parametrize("backing", ["csr", "dense_built"])
    def test_receiver_row_is_read_once_while_it_stays_the_receiver(self, monkeypatch, backing):
        """A uniform start moves its mass into few receivers. The solver
        keeps the receiver's row while the receiver stays the same, so it
        reads one donor row per iteration and one receiver row per change
        of receiver, the first included, with the bytes of an uncounted
        solve."""
        monkeypatch.setattr(selector, "_ON_DEMAND_SHARE", 0.0)  # built at the first read

        class RowCounter:
            def __init__(self, a):
                self.a, self.shape, self.reads = a, a.shape, 0

            def __getitem__(self, i):
                self.reads += 1
                return self.a[i]

            def __matmul__(self, y):
                return self.a @ y

        cfg = SolverConfig(init="uniform")
        p, q = (_backed_problem(backing, np.random.default_rng(40), 200, 10) for _ in range(2))
        counted = RowCounter(p.a)
        p.a = counted
        y, trace = solve(p, cfg)
        receivers = [update[2] for update in trace.updates]
        changes = sum(1 for t, i in enumerate(receivers) if t == 0 or i != receivers[t - 1])
        assert trace.iterations > changes > 0
        assert counted.reads == trace.iterations + changes
        y_ref, trace_ref = solve(q, cfg)
        assert y.tobytes() == y_ref.tobytes() and repr(trace) == repr(trace_ref)

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
            csr = SelectionProblem(h=h, d_risk=d, a=csr_affinity(sparse.csr_matrix(a)), k=k)
            cfg = SolverConfig(init=init, step_rule=step_rule)
            (y1, t1), (y2, t2) = solve(dense, cfg), solve(csr, cfg)
            assert np.array_equal(y1, y2)
            assert t1.updates == t2.updates
            assert t1.objective_per_iteration == t2.objective_per_iteration
            assert objective(dense, y1) == pytest.approx(objective(csr, y2), abs=1e-12)

    @pytest.mark.parametrize("step_rule", ["derived", "paper"])
    @pytest.mark.parametrize("init", ["hub_first", "lid_first", "uniform"])
    def test_rows_and_products_are_all_the_solver_reads(self, step_rule, init):
        """An affinity with only ``shape``, ``a[i]`` and ``a @ y`` solves as
        the ndarray it wraps, byte for byte."""

        class RowsAndProducts:
            __slots__ = ("shape", "_a")

            def __init__(self, a):
                self.shape, self._a = a.shape, a

            def __getitem__(self, i):
                return self._a[i]

            def __matmul__(self, y):
                return self._a @ y

        rng = np.random.default_rng(30)
        cfg = SolverConfig(init=init, step_rule=step_rule)
        for _ in range(10):
            p = random_selection_problem(rng)
            q = SelectionProblem(h=p.h, d_risk=p.d_risk, a=RowsAndProducts(p.a), k=p.k)
            (y1, t1), (y2, t2) = solve(p, cfg), solve(q, cfg)
            assert y1.tobytes() == y2.tobytes()
            assert repr(t1) == repr(t2)
            assert selector.ranking_order(y1, p) == selector.ranking_order(y2, q)

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

    @pytest.mark.parametrize("a20", [1e308, 2.0**1023], ids=["start", "end"])
    def test_rewards_or_objective_out_of_range_raise(self, a20):
        # hub-first starts at {0, 1}. With A_20 = A_21 = 1e308 the first
        # rewards overflow; with A_20 alone at 2^1023 they fit, and the
        # first step's sigma = -2 A_20 overflows to a NaN objective
        a = np.zeros((3, 3))
        a[2, 0] = a[0, 2] = a20
        if a20 == 1e308:
            a[2, 1] = a[1, 2] = a20
        p = SelectionProblem(h=np.array([1.0, 1.0, 0.0]), d_risk=np.zeros(3), a=a, k=2)
        with pytest.raises(ValueError, match="rewards or objective not finite"):
            solve(p, SolverConfig(init="hub_first"))


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
        import json

        ids = [f"f{i}" for i in range(6)]
        for kind in ("dense", "csr", "linear k=1"):
            p = random_selection_problem(np.random.default_rng(26), n=6, k=2)
            if kind == "csr":
                p.a = csr_affinity(sparse.csr_matrix(p.a))
            elif kind == "linear k=1":
                p.a, p.k = csr_affinity(sparse.csr_matrix((6, 6))), 1
            y, trace = solve(p, SolverConfig(init="hub_first"))
            out = tmp_path / "solution.json"
            selected = save_solution(out, ids, p, y, trace, init_label="hub-first")

            payload = json.loads(out.read_text())
            assert payload["k"] == p.k, kind
            assert payload["init"] == "hub-first"
            assert selected == round_selection(y, p), kind
            assert payload["selected"] == [ids[i] for i in round_selection(y, p)], kind
            assert len(payload["y"]) == 6
            assert payload["converged"] == trace.converged
            assert payload["objective"] == pytest.approx(objective(p, y), abs=0), kind

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

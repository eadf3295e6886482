import json
import math

import numpy as np
import pytest

from hubsel.features import FeatureMatrix
from hubsel.neighbors import NeighborGraph, knn_graph
from hubsel.stats import (
    LID_CAP,
    HubnessProfile,
    LidProfile,
    compute_profile,
    diversity,
    global_id,
    hubness_and_lid,
    hubness_scores,
    lid_mle,
    load_profile_csv,
    save_profile_csv,
    save_scatter_csv,
    save_summary_json,
    skewness,
    summarize,
)
from helpers import brute_force_knn, manual_distance, random_matrix


def graph_from_distances(distances, metric="euclidean"):
    """Synthetic graph with given per-row distance lists (lid tests only)."""
    distances = np.asarray(distances, dtype=np.float64)
    n, k = distances.shape
    indices = np.zeros((n, k), dtype=np.int64)
    return NeighborGraph(k=k, metric=metric, indices=indices, distances=distances)


class TestHubness:
    def test_two_fragments_mutual(self):
        m = FeatureMatrix(ids=["a", "b"], values=np.array([[0.0], [1.0]]))
        p = hubness_scores(knn_graph(m, 1, "euclidean"))
        assert p.scores.tolist() == [1, 1]
        assert p.categories.tolist() == ["normal", "normal"]

    def test_line_fixture(self):
        m = FeatureMatrix(ids=list("abcd"), values=np.array([[0.0], [1.0], [2.1], [3.3]]))
        p = hubness_scores(knn_graph(m, 1, "euclidean"))
        assert p.scores.tolist() == [1, 2, 1, 0]
        assert p.categories.tolist() == ["normal", "hub", "normal", "anti_hub"]

    def test_conservation_random(self):
        rng = np.random.default_rng(20)
        g = knn_graph(random_matrix(rng, 500, 64), 10, "euclidean")
        p = hubness_scores(g)
        assert int(p.scores.sum()) == 5000

    def test_counts_match_brute_force(self):
        m = random_matrix(np.random.default_rng(21), 80, 8)
        g = knn_graph(m, 5, "cosine")
        p = hubness_scores(g)
        ref_idx, _ = brute_force_knn(m.values, 5, "cosine")
        counts = [0] * m.n
        for row in ref_idx:
            for j in row:
                counts[j] += 1
        assert p.scores.tolist() == counts

    def test_categorization_is_pure_rule(self):
        # categories depend only on (N_k, k), over many random graphs
        rng = np.random.default_rng(22)
        for _ in range(15):
            n = int(rng.integers(5, 40))
            k = int(rng.integers(1, 6))
            p = hubness_scores(knn_graph(random_matrix(rng, n, 3), k, "euclidean"))
            for s, c in zip(p.scores, p.categories):
                expected = "hub" if s > p.k else ("anti_hub" if s == 0 else "normal")
                assert c == expected


class TestSkewness:
    def test_constant_scores(self):
        p = HubnessProfile(k=3, scores=np.array([3, 3, 3, 3]), categories=np.array(["normal"] * 4))
        rep = skewness(p)
        assert rep.s_nk == 0.0
        assert rep.stddev == 0.0
        assert not rep.hubness_exists

    def test_single_spike(self):
        p = HubnessProfile(k=1, scores=np.array([0, 0, 0, 4]), categories=np.array(["x"] * 4))
        rep = skewness(p)
        assert rep.mean == 1.0
        assert rep.stddev == pytest.approx(math.sqrt(3.0), abs=1e-15)
        assert rep.s_nk == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)
        assert rep.hubness_exists

    def test_mirror_negates(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            scores = rng.integers(0, 20, 15).astype(np.int64)
            mirrored = (2 * scores.mean() - scores)
            a = skewness(HubnessProfile(k=5, scores=scores, categories=np.array(["x"] * 15)))
            b = skewness(HubnessProfile(k=5, scores=mirrored, categories=np.array(["x"] * 15)))
            assert a.s_nk == pytest.approx(-b.s_nk, abs=1e-10)

    def test_needs_two(self):
        p = HubnessProfile(k=1, scores=np.array([1]), categories=np.array(["normal"]))
        with pytest.raises(ValueError, match="at least 2"):
            skewness(p)

    def test_direction_with_dimension(self):
        # same sample size, higher dimension concentrates neighbor roles
        vals = {}
        for d in (3, 64):
            X = np.random.default_rng(1).standard_normal((800, d))
            m = FeatureMatrix(ids=[f"f{i}" for i in range(800)], values=X)
            vals[d] = skewness(hubness_scores(knn_graph(m, 10, "cosine"))).s_nk
        assert vals[64] > vals[3]


class TestLid:
    def test_analytic_one(self):
        g = graph_from_distances([[math.exp(-1)] * 3 + [1.0]])
        p = lid_mle(g, 3)
        assert p.lids[0] == pytest.approx(1.0, abs=1e-12)
        assert not p.degenerate[0]

    def test_analytic_half(self):
        g = graph_from_distances([[math.exp(-2), 1.0]])
        p = lid_mle(g, 1)
        assert p.lids[0] == pytest.approx(0.5, abs=1e-12)

    def test_all_equal_is_degenerate(self):
        g = graph_from_distances([[1.0, 1.0, 1.0, 1.0]])
        p = lid_mle(g, 3)
        assert p.degenerate[0]
        assert p.lids[0] == LID_CAP

    def test_zero_distance_clamped(self):
        g = graph_from_distances([[0.0, math.exp(-1), 1.0]])
        p = lid_mle(g, 2)
        assert np.isfinite(p.lids[0])
        assert 0.0 < p.lids[0] < 1.0
        assert not p.degenerate[0]

    def test_all_zero_distances_degenerate(self):
        g = graph_from_distances([[0.0, 0.0, 0.0]])
        p = lid_mle(g, 2)
        assert p.degenerate[0]
        assert p.lids[0] == LID_CAP

    def test_insufficient_neighbors(self):
        g = graph_from_distances([[0.5, 1.0]])
        with pytest.raises(ValueError, match="needs 3"):
            lid_mle(g, 2)

    def test_positive_n_nbr(self):
        g = graph_from_distances([[0.5, 1.0]])
        with pytest.raises(ValueError, match="positive"):
            lid_mle(g, 0)

    def test_scale_invariance_power_of_two(self):
        m = random_matrix(np.random.default_rng(24), 120, 6)
        scaled = FeatureMatrix(ids=list(m.ids), values=m.values * 2.0)
        a = lid_mle(knn_graph(m, 11, "euclidean"), 10)
        b = lid_mle(knn_graph(scaled, 11, "euclidean"), 10)
        assert np.array_equal(a.lids, b.lids)

    def test_scale_invariance_general(self):
        m = random_matrix(np.random.default_rng(25), 100, 5)
        scaled = FeatureMatrix(ids=list(m.ids), values=m.values * 3.7)
        a = lid_mle(knn_graph(m, 9, "euclidean"), 8)
        b = lid_mle(knn_graph(scaled, 9, "euclidean"), 8)
        assert np.allclose(a.lids, b.lids, rtol=1e-9, atol=1e-12)

    def test_monotone_toward_radius(self):
        # moving the sample distances toward omega raises the estimate
        near = lid_mle(graph_from_distances([[0.2, 0.2, 1.0]]), 2)
        far = lid_mle(graph_from_distances([[0.8, 0.8, 1.0]]), 2)
        assert far.lids[0] > near.lids[0]

    def test_disk_interior_mean(self):
        rng = np.random.default_rng(0)
        r = np.sqrt(rng.uniform(0.0, 1.0, 2000))
        th = rng.uniform(0.0, 2.0 * np.pi, 2000)
        X = np.column_stack([r * np.cos(th), r * np.sin(th)])
        m = FeatureMatrix(ids=[f"p{i}" for i in range(2000)], values=X)
        p = lid_mle(knn_graph(m, 101, "euclidean"), 100)
        interior = r <= 0.7
        mean_lid = float(p.lids[interior & ~p.degenerate].mean())
        assert 1.7 <= mean_lid <= 2.3


class TestDiversity:
    def test_orthogonal_neighbors(self):
        vals = np.array([
            [1.0, 1.0, 1.0],  # query; neighbors are the three basis vectors
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ])
        m = FeatureMatrix(ids=list("qabc"), values=vals)
        g = knn_graph(m, 3, "cosine")
        p = diversity(m, g, 3)
        assert p.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_identical_neighbors(self):
        vals = np.array([[0.0], [1.0], [1.0], [1.0]])
        m = FeatureMatrix(ids=list("qabc"), values=vals)
        g = knn_graph(m, 3, "euclidean")
        p = diversity(m, g, 3)
        assert p.values[0] == 0.0

    def test_single_neighbor_is_zero(self):
        m = FeatureMatrix(ids=["a", "b"], values=np.array([[0.0], [1.0]]))
        p = diversity(m, knn_graph(m, 1, "euclidean"), 30)
        assert p.values.tolist() == [0.0, 0.0]

    def test_matches_direct_recomputation(self):
        m = random_matrix(np.random.default_rng(26), 100, 16)
        g = knn_graph(m, 5, "cosine")
        p = diversity(m, g, 5)
        for i in range(0, 100, 9):
            nbrs = g.indices[i]
            acc = []
            for a in range(5):
                for b in range(a + 1, 5):
                    acc.append(manual_distance(m.values[nbrs[a]], m.values[nbrs[b]], "cosine"))
            assert p.values[i] == pytest.approx(float(np.mean(acc)), abs=1e-12)

    def test_uses_first_m_neighbors_only(self):
        m = random_matrix(np.random.default_rng(27), 40, 4)
        g = knn_graph(m, 10, "euclidean")
        assert np.array_equal(
            diversity(m, g, 4).values, diversity(m, g.truncated(4), 30).values
        )


class TestGlobalId:
    def test_mean(self):
        p = LidProfile(n_nbr=3, lids=np.array([2.0, 4.0]), degenerate=np.array([False, False]))
        assert global_id(p) == 3.0

    def test_degenerate_excluded(self):
        p = LidProfile(n_nbr=3, lids=np.array([2.0, LID_CAP]), degenerate=np.array([False, True]))
        assert global_id(p) == 2.0

    def test_all_degenerate(self):
        p = LidProfile(n_nbr=3, lids=np.array([LID_CAP]), degenerate=np.array([True]))
        with pytest.raises(ValueError, match="degenerate"):
            global_id(p)

    def test_hypercube_sample(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0.0, 1.0, (2000, 5))
        m = FeatureMatrix(ids=[f"p{i}" for i in range(2000)], values=X)
        p = lid_mle(knn_graph(m, 101, "euclidean"), 100)
        assert 4.2 <= global_id(p) <= 5.8


class TestProfileBundle:
    def test_compute_profile_caps_parameters(self):
        m = FeatureMatrix(ids=["a", "b"], values=np.array([[0.0], [1.0]]))
        g = knn_graph(m, 1, "euclidean")
        prof = compute_profile(m, g, k_hub=10, n_lid=100, m_div=30)
        assert prof.hubness.scores.tolist() == [1, 1]
        assert prof.lid.degenerate.all()
        assert prof.diversity.values.tolist() == [0.0, 0.0]
        summary = summarize(prof)
        assert summary["skewness"] == 0.0
        assert summary["global_id"] is None

    @pytest.mark.parametrize("n, width", [(30, 9), (2, 1)])  # (2, 1): no LID sample
    def test_hubness_and_lid_match_compute_profile(self, n, width):
        m = random_matrix(np.random.default_rng(32), n, 5)
        g = knn_graph(m, width, "cosine")
        hub, lid = hubness_and_lid(g, k_hub=4, n_lid=100)
        prof = compute_profile(m, g, k_hub=4, n_lid=100, m_div=5)
        assert (hub.k, lid.n_nbr) == (prof.hubness.k, prof.lid.n_nbr)
        assert hub.scores.tobytes() == prof.hubness.scores.tobytes()
        assert hub.categories.tolist() == prof.hubness.categories.tolist()
        assert lid.lids.tobytes() == prof.lid.lids.tobytes()
        assert lid.degenerate.tobytes() == prof.lid.degenerate.tobytes()

    def test_summarize_keys(self):
        m = random_matrix(np.random.default_rng(28), 40, 6)
        g = knn_graph(m, 12, "cosine")
        prof = compute_profile(m, g, k_hub=5, n_lid=8, m_div=6)
        s = summarize(prof)
        assert set(s) == {
            "k", "n_nbr", "m_nbr", "skewness", "mean", "stddev",
            "hubness_exists", "global_id",
        }
        assert s["k"] == 5
        assert s["n_nbr"] == 8
        assert s["m_nbr"] == 6
        assert s["mean"] == 5.0  # conservation: mean N_k is k

    def test_profile_csv_round_trip(self, tmp_path):
        m = random_matrix(np.random.default_rng(29), 30, 5)
        g = knn_graph(m, 9, "cosine")
        prof = compute_profile(m, g, k_hub=4, n_lid=6, m_div=5)
        save_profile_csv(prof, tmp_path / "profile.csv")
        save_summary_json(prof, tmp_path / "summary.json")
        back = load_profile_csv(tmp_path / "profile.csv")
        assert back.ids == prof.ids
        assert np.array_equal(back.hubness.scores, prof.hubness.scores)
        assert back.hubness.categories.tolist() == prof.hubness.categories.tolist()
        assert np.array_equal(back.lid.lids, prof.lid.lids)
        assert np.array_equal(back.lid.degenerate, prof.lid.degenerate)
        assert np.array_equal(back.diversity.values, prof.diversity.values)
        assert (back.hubness.k, back.lid.n_nbr, back.diversity.m_nbr) == (0, 0, 0)

    def test_scatter_csv_shape(self, tmp_path):
        m = random_matrix(np.random.default_rng(30), 12, 4)
        g = knn_graph(m, 6, "euclidean")
        prof = compute_profile(m, g, k_hub=3, n_lid=4, m_div=5)
        save_scatter_csv(prof, tmp_path / "scatter.csv")
        lines = (tmp_path / "scatter.csv").read_text().splitlines()
        assert lines[0] == "id,lid,N_k,diversity"
        assert len(lines) == 13

    def test_summary_json_parsable(self, tmp_path):
        m = random_matrix(np.random.default_rng(31), 20, 4)
        g = knn_graph(m, 8, "euclidean")
        prof = compute_profile(m, g, k_hub=3, n_lid=5, m_div=4)
        save_summary_json(prof, tmp_path / "summary.json")
        meta = json.loads((tmp_path / "summary.json").read_text())
        assert meta["k"] == 3
        assert isinstance(meta["hubness_exists"], bool)

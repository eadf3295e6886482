import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubsel import neighbors
from hubsel.features import FeatureMatrix
from hubsel.neighbors import (
    NeighborGraph,
    check_cosine_rows,
    distance_matrix,
    knn_graph,
    load_graph,
    pairwise_distance,
    save_graph,
)
from helpers import brute_force_knn, manual_distance, random_matrix


class TestPairwiseDistance:
    def test_cosine_identical_direction(self):
        assert pairwise_distance([1.0, 2.0], [2.0, 4.0], "cosine") == pytest.approx(0.0, abs=1e-12)

    def test_cosine_orthogonal(self):
        assert pairwise_distance([1.0, 0.0], [0.0, 1.0], "cosine") == pytest.approx(1.0, abs=1e-15)

    def test_cosine_45_degrees(self):
        d = pairwise_distance([1.0, 0.0], [1.0, 1.0], "cosine")
        assert d == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-15)

    def test_cosine_opposite(self):
        assert pairwise_distance([1.0, 0.0], [-1.0, 0.0], "cosine") == pytest.approx(2.0, abs=1e-15)

    def test_euclidean_3_4_5(self):
        assert pairwise_distance([0.0, 0.0], [3.0, 4.0], "euclidean") == pytest.approx(5.0, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for metric in ("cosine", "euclidean"):
            for _ in range(20):
                x, y = rng.standard_normal((2, 6))
                assert pairwise_distance(x, y, metric) == pairwise_distance(y, x, metric)

    def test_zero_norm_cosine(self):
        with pytest.raises(ValueError, match="zero-norm"):
            pairwise_distance([0.0, 0.0], [1.0, 0.0], "cosine")

    def test_extreme_magnitudes_stay_finite(self):
        with np.errstate(all="raise"):
            d = pairwise_distance([1e200, 0.0], [0.0, 1e200], "euclidean")
            assert d == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
            assert pairwise_distance([1e200, 0.0], [0.0, 1e200], "cosine") == 1.0
            assert pairwise_distance([1e-300, 0.0], [0.0, 1e-300], "cosine") == 1.0

    def test_matches_distance_matrix(self):
        rng = np.random.default_rng(1)
        for metric in ("cosine", "euclidean"):
            for _ in range(50):
                x, y = rng.standard_normal((2, 6))
                assert pairwise_distance(x, y, metric) == distance_matrix([x], [y], metric)[0, 0]

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            pairwise_distance([1.0], [1.0], "manhattan")


class TestKnnGraph:
    def test_one_dimensional_fixture(self):
        # points 0, 1, 2.1, 3.3 on a line: nearest neighbors 1, 0, 1, 2
        m = FeatureMatrix(ids=list("abcd"), values=np.array([[0.0], [1.0], [2.1], [3.3]]))
        g = knn_graph(m, 1, "euclidean")
        assert g.indices.ravel().tolist() == [1, 0, 1, 2]

    def test_two_fragments_mutual(self):
        m = FeatureMatrix(ids=["a", "b"], values=np.array([[0.0], [5.0]]))
        g = knn_graph(m, 3, "euclidean")
        assert g.k == 1
        assert g.indices.ravel().tolist() == [1, 0]

    def test_matches_brute_force_cosine(self):
        m = random_matrix(np.random.default_rng(7), 200, 32)
        g = knn_graph(m, 10, "cosine")
        ref_idx, ref_dist = brute_force_knn(m.values, 10, "cosine")
        assert np.array_equal(g.indices, ref_idx)
        assert np.allclose(g.distances, ref_dist, atol=1e-12, rtol=0)

    def test_matches_brute_force_euclidean(self):
        m = random_matrix(np.random.default_rng(8), 150, 16)
        g = knn_graph(m, 7, "euclidean")
        ref_idx, _ = brute_force_knn(m.values, 7, "euclidean")
        assert np.array_equal(g.indices, ref_idx)

    def test_tie_break_smaller_index(self):
        # rows 0 and 1 coincide; both are distance 1 from row 2
        vals = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        m = FeatureMatrix(ids=list("abc"), values=vals)
        g = knn_graph(m, 2, "cosine")
        assert g.indices[2].tolist() == [0, 1]
        assert g.indices[0].tolist() == [1, 2]
        assert g.indices[1].tolist() == [0, 2]

    def test_distances_match_recomputation(self):
        m = random_matrix(np.random.default_rng(10), 60, 8)
        for metric in ("cosine", "euclidean"):
            g = knn_graph(m, 5, metric)
            for i in range(0, 60, 7):
                for r in range(5):
                    j = g.indices[i, r]
                    direct = manual_distance(m.values[i], m.values[j], metric)
                    assert abs(g.distances[i, r] - direct) <= 1e-9

    def test_list_width_capped(self):
        m = random_matrix(np.random.default_rng(11), 5, 3)
        g = knn_graph(m, 10, "euclidean")
        assert g.k == 4
        assert g.indices.shape == (5, 4)

    def test_zero_norm_row_names_fragment(self):
        vals = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        m = FeatureMatrix(ids=["a", "bad", "c"], values=vals)
        with pytest.raises(ValueError, match=r"'bad' \(row 2\)"):
            knn_graph(m, 1, "cosine")

    def test_invalid_k(self):
        m = random_matrix(np.random.default_rng(12), 4, 2)
        with pytest.raises(ValueError, match="positive"):
            knn_graph(m, 0, "euclidean")

    def test_too_few_fragments(self):
        m = FeatureMatrix(ids=["a"], values=np.ones((1, 2)))
        with pytest.raises(ValueError, match="at least 2"):
            knn_graph(m, 1, "euclidean")

    def test_truncated(self):
        m = random_matrix(np.random.default_rng(13), 30, 4)
        g = knn_graph(m, 9, "euclidean")
        t = g.truncated(3)
        assert t.k == 3
        assert np.array_equal(t.indices, g.indices[:, :3])
        assert np.array_equal(t.distances, g.distances[:, :3])
        assert g.truncated(50).k == 9


class TestGraphSerialization:
    @pytest.mark.parametrize("suffix", [".npz"])
    def test_round_trip_exact(self, tmp_path, suffix):
        m = random_matrix(np.random.default_rng(14), 25, 6)
        g = knn_graph(m, 4, "cosine")
        path = tmp_path / f"g{suffix}"
        save_graph(g, m.ids, path)
        back = load_graph(path, m.ids, "cosine")
        assert back.k == g.k
        assert back.metric == "cosine"
        assert back.indices.dtype == np.int64
        assert np.array_equal(back.indices, g.indices)
        assert back.distances.tobytes() == g.distances.tobytes()

    def test_npz_holds_three_plain_arrays(self, tmp_path):
        m = random_matrix(np.random.default_rng(16), 6, 3)
        g = knn_graph(m, 2, "euclidean")
        path = tmp_path / "g.npz"
        save_graph(g, m.ids, path)
        with np.load(path, allow_pickle=False) as z:
            assert sorted(z.files) == ["distances", "ids", "indices"]
            assert z["ids"].tolist() == m.ids
            assert z["indices"].dtype == np.int64 and z["distances"].dtype == np.float64
        first = path.read_bytes()
        save_graph(g, m.ids, path)
        assert path.read_bytes() == first  # no timestamps in the archive

    def test_npz_rejects_damage(self, tmp_path):
        ids = ["a", "b", "c"]
        good = {
            "ids": np.array(ids),
            "indices": np.array([[1], [0], [1]]),
            "distances": np.array([[0.5], [0.5], [0.25]]),
        }
        np.savez(tmp_path / "ok.npz", **good)
        assert load_graph(tmp_path / "ok.npz", ids, "cosine").k == 1
        damaged = {
            "ids differ": dict(good, ids=np.array(["a", "b", "x"])),
            "allow_pickle": dict(good, ids=np.array(ids, dtype=object)),
            "outside": dict(good, indices=np.array([[1], [0], [3]])),
            r"outside \[0": dict(good, indices=np.array([[1], [0], [-1]])),
            "dtypes int32": dict(good, indices=good["indices"].astype(np.int32)),
            "float32, expected": dict(good, distances=good["distances"].astype(np.float32)),
            r"shapes \(3,\), \(3,\)": dict(
                good, indices=np.array([1, 0, 1]), distances=np.array([0.5, 0.5, 0.2])
            ),
            r"shapes \(3, 0\)": dict(
                good, indices=np.zeros((3, 0), np.int64), distances=np.zeros((3, 0))
            ),
            r"shapes \(2, 1\)": dict(
                good, indices=good["indices"][:2], distances=good["distances"][:2]
            ),
            r"\(3, 2\), expected": dict(good, distances=np.ones((3, 2))),
            "KeyError": {k: v for k, v in good.items() if k != "ids"},
        }
        for match, arrays in damaged.items():
            np.savez(tmp_path / "bad.npz", **arrays)  # pickles object arrays
            with pytest.raises(ValueError, match=match):
                load_graph(tmp_path / "bad.npz", ids, "cosine")
        raw = (tmp_path / "ok.npz").read_bytes()
        for cut in range(len(raw)):
            (tmp_path / "cut.npz").write_bytes(raw[:cut])
            with pytest.raises(ValueError):
                load_graph(tmp_path / "cut.npz", ids, "cosine")
        np.save(tmp_path / "single.npy", good["indices"])
        (tmp_path / "single.npy").rename(tmp_path / "single.npz")
        with pytest.raises(ValueError, match="single array"):
            load_graph(tmp_path / "single.npz", ids, "cosine")

    def test_npz_bit_flips_never_load_a_different_graph(self, tmp_path):
        m = random_matrix(np.random.default_rng(17), 6, 3)
        g = knn_graph(m, 3, "cosine")
        path = tmp_path / "g.npz"
        save_graph(g, m.ids, path)
        raw = path.read_bytes()
        for pos in range(len(raw)):
            for bit in (0x01, 0x80):
                flipped = bytearray(raw)
                flipped[pos] ^= bit
                path.write_bytes(bytes(flipped))
                try:
                    back = load_graph(path, m.ids, "cosine")
                except ValueError:
                    continue
                assert np.array_equal(back.indices, g.indices), pos
                assert back.distances.tobytes() == g.distances.tobytes(), pos

    def test_missing_npz_is_an_io_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_graph(tmp_path / "absent.npz", ["a", "b"], "cosine")

    def test_rank_starts_at_one(self, tmp_path):
        m = random_matrix(np.random.default_rng(15), 5, 3)
        g = knn_graph(m, 2, "euclidean")
        path = tmp_path / "g.csv"
        save_graph(g, m.ids, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "query_id,rank,neighbor_id,distance"
        assert lines[1].split(",")[1] == "1"

    def test_csv_is_not_read_back(self, tmp_path):
        # lists no writer produces: a self neighbour, a repeat, nan and a negative distance
        path = tmp_path / "g.csv"
        path.write_text(
            "query_id,rank,neighbor_id,distance\na,1,a,nan\na,2,a,-1.0\nb,1,a,0.5\nb,2,a,0.25\n"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a .npz graph archive$"):
            load_graph(path, ["a", "b"], "cosine")
        # rejected before the file is opened, so a missing one is no I/O error
        with pytest.raises(ValueError, match=r": not a \.npz graph archive$"):
            load_graph(tmp_path / "absent.csv", ["a", "b"], "cosine")


def test_conservation_of_list_lengths():
    rng = np.random.default_rng(16)
    for n, k in ((10, 3), (8, 20), (40, 10)):
        g = knn_graph(random_matrix(rng, n, 4), k, "euclidean")
        assert g.indices.shape[1] == min(k, n - 1)
        # every row is a valid set of distinct non-self indices
        for i in range(n):
            row = g.indices[i]
            assert len(set(row.tolist())) == len(row)
            assert i not in row


def test_no_excluded_fragment_is_closer():
    # exactness invariant, checked directly against all distances
    m = random_matrix(np.random.default_rng(17), 50, 5)
    g = knn_graph(m, 6, "euclidean")
    for i in range(m.n):
        included = set(g.indices[i].tolist())
        worst = g.distances[i, -1]
        for j in range(m.n):
            if j != i and j not in included:
                assert manual_distance(m.values[i], m.values[j], "euclidean") >= worst - 1e-12


def _matrix(values):
    return FeatureMatrix(ids=[f"f{i}" for i in range(len(values))], values=values)


def assert_exact_graph(values, k, metric):
    """The graph equals a full stable sort of every distance_matrix row."""
    D = distance_matrix(values, values, metric)
    assert D.tobytes() == distance_matrix(values, values.copy(), metric).tobytes()
    np.fill_diagonal(D, np.inf)
    k_eff = min(k, len(values) - 1)
    order = np.argsort(D, axis=1, kind="stable")[:, :k_eff]
    g = knn_graph(_matrix(values), k, metric)
    assert np.array_equal(g.indices, order)
    assert g.distances.tobytes() == np.take_along_axis(D, order, axis=1).tobytes()


class TestExactKernel:
    """The shortlist-and-rerank scan against a full sort, bit for bit."""

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_duplicates_and_lattice_ties(self, metric):
        # every distance on a small integer lattice repeats many times, and
        # duplicated rows tie at distance 0, so the k-th distance is a tie
        grid = np.array([(x, y) for x in range(1, 8) for y in range(1, 8)], dtype=float)
        values = np.vstack([grid, grid[::5], grid[:3]])
        for k in (1, 4, 8, 13):
            assert_exact_graph(values, k, metric)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_large_common_offset(self, metric):
        # |x|^2 + |y|^2 - 2 x.y cancels most digits here. The lattice rows
        # differ by exact multiples of 1/8, so their distances tie exactly
        # where the cancelled values do not.
        rng = np.random.default_rng(30)
        assert_exact_graph(rng.standard_normal((120, 6)) + 1e4, 9, metric)
        assert_exact_graph(rng.integers(-3, 4, (120, 4)) / 8 + (1e4 + 0.1), 9, metric)

    def test_near_parallel_cosine_rows(self):
        rng = np.random.default_rng(31)
        base = rng.standard_normal(16)
        values = base + 1e-9 * rng.standard_normal((80, 16))
        assert_exact_graph(values, 7, "cosine")

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_float32_cast_values(self, metric):
        rng = np.random.default_rng(32)
        values = rng.normal(1.0, 1.0, (300, 32)).astype(np.float32).astype(np.float64)
        assert_exact_graph(values, 21, metric)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_full_width_and_two_rows(self, metric):
        values = np.random.default_rng(33).standard_normal((25, 3))
        assert_exact_graph(values, 24, metric)
        assert_exact_graph(values, 100, metric)
        assert_exact_graph(values[:2], 1, metric)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_small_blocks_match_full_sort(self, monkeypatch, metric):
        monkeypatch.setattr(neighbors, "_BLOCK_ENTRIES", 700)  # 7 rows per block
        values = np.random.default_rng(34).integers(-3, 4, (100, 3)).astype(float)
        values[~values.any(axis=1)] = 1.0
        assert_exact_graph(values, 10, metric)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=n, max_size=n,
                ),
                st.integers(1, n),
                st.sampled_from(["cosine", "euclidean"]),
            )
        )
    )
    def test_property_small_integer_matrices(self, case):
        rows, k, metric = case
        values = np.array(rows, dtype=float)
        if metric == "cosine":
            values[~values.any(axis=1)] = 1.0  # cosine needs non-zero rows
        assert_exact_graph(values, k, metric)


class TestExtremeMagnitudes:
    """Finite rows whose squares overflow or leave the normal range."""

    @pytest.mark.parametrize("exponent", [700, -1000])
    def test_power_of_two_scale_is_exact(self, exponent):
        values = np.random.default_rng(35).standard_normal((40, 5))
        big = np.ldexp(values, exponent)
        cos, cos_big = knn_graph(_matrix(values), 6), knn_graph(_matrix(big), 6)
        assert np.array_equal(cos.indices, cos_big.indices)
        assert cos.distances.tobytes() == cos_big.distances.tobytes()
        euc, euc_big = (knn_graph(_matrix(v), 6, "euclidean") for v in (values, big))
        assert np.array_equal(euc.indices, euc_big.indices)
        assert np.array_equal(np.ldexp(euc.distances, exponent), euc_big.distances)
        assert_exact_graph(big, 6, "cosine")
        assert_exact_graph(big, 6, "euclidean")

    def test_distance_matrix_finite_near_overflow(self):
        values = np.random.default_rng(36).normal(1.0, 1.0, (10, 4)) * 1e200
        for metric in ("cosine", "euclidean"):
            assert np.isfinite(distance_matrix(values, values, metric)).all()
        d = distance_matrix(values[:1], values[1:2], "euclidean")[0, 0]
        assert d == pytest.approx(float(np.linalg.norm(values[0] / 1e200 - values[1] / 1e200)) * 1e200)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-170])
    def test_self_matrix_one_pass_matches_full_pass(self, monkeypatch, metric, scale):
        # A self call computes each unordered pair once and mirrors it,
        # which keeps the bytes only because cdist gives (i, j) and (j, i)
        # the same bits; checked with one-row blocks, two-row blocks (a
        # ragged last one when n is odd) and a single block, after the
        # per-row (cosine) or global (euclidean) rescale
        rng = np.random.default_rng(37)
        for n, d in itertools.product((2, 3, 17), (1, 3, 128)):
            x = rng.standard_normal((n, d)) * scale
            full = distance_matrix(x, x.copy(), metric)
            assert full.tobytes() == full.T.copy().tobytes()
            for rows in (1, 2, n):
                monkeypatch.setattr(neighbors, "_SELF_BLOCK_ENTRIES", rows * n)
                assert distance_matrix(x, x, metric).tobytes() == full.tobytes()

    def test_tiny_row_among_unit_rows_under_cosine(self):
        values = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0], [-1.0, 3.0]])
        mixed = values.copy()
        mixed[0] = np.ldexp(values[0], -1060)  # subnormal, yet not zero
        check_cosine_rows(_matrix(mixed))
        D = distance_matrix(mixed, mixed, "cosine")
        assert D.tobytes() == distance_matrix(values, values, "cosine").tobytes()

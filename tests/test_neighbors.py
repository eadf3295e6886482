import itertools
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from hubsel import neighbors, stats
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
        ids, back, extra = load_graph(path)
        assert ids == m.ids and extra == {}
        assert back.k == g.k
        assert back.metric == "cosine"
        assert back.indices.dtype == np.int64
        assert np.array_equal(back.indices, g.indices)
        assert back.distances.tobytes() == g.distances.tobytes()

    def test_npz_holds_four_plain_arrays(self, tmp_path):
        m = random_matrix(np.random.default_rng(16), 6, 3)
        g = knn_graph(m, 2, "euclidean")
        path = tmp_path / "g.npz"
        save_graph(g, m.ids, path)
        with np.load(path, allow_pickle=False) as z:
            assert z.files == ["ids", "metric", "indices", "distances"]
            assert z["ids"].tolist() == m.ids
            assert z["metric"].shape == () and z["metric"].tolist() == "euclidean"
            assert z["indices"].dtype == np.int64 and z["distances"].dtype == np.float64
        first = path.read_bytes()
        save_graph(g, m.ids, path)
        assert path.read_bytes() == first  # no timestamps in the archive

    def test_npz_stores_further_members(self, tmp_path):
        m = random_matrix(np.random.default_rng(18), 6, 3)
        g = knn_graph(m, 2, "cosine")
        members = {"note": np.array("x"), "values": np.linspace(0.0, 1.0, 6)}
        path = tmp_path / "g.npz"
        save_graph(g, m.ids, path, members)
        ids, back, stored = load_graph(path, ("values", "note"))
        assert back.distances.tobytes() == g.distances.tobytes()
        assert list(stored) == ["values", "note"]
        assert stored["values"].tobytes() == members["values"].tobytes()
        assert stored["note"].tolist() == "x" and ids == m.ids
        first = path.read_bytes()
        save_graph(g, m.ids, path, members)
        assert path.read_bytes() == first
        with pytest.raises(ValueError, match="KeyError"):
            load_graph(path, ("absent",))
        with pytest.raises(ValueError, match="not a .npz graph archive"):
            load_graph(tmp_path / "g.csv", ("values",))

    def test_npz_rejects_damage(self, tmp_path):
        ids = ["a", "b", "c"]
        good = {
            "ids": np.array(ids),
            "metric": np.array("cosine"),
            "indices": np.array([[1], [0], [1]]),
            "distances": np.array([[0.5], [0.5], [0.25]]),
        }
        np.savez(tmp_path / "ok.npz", **good)
        assert load_graph(tmp_path / "ok.npz")[1].k == 1
        damaged = {
            "allow_pickle": dict(good, ids=np.array(ids, dtype=object)),
            r"ids \|S1, \(3,\), expected 1-D unicode": dict(good, ids=np.array(ids).astype(bytes)),
            r"ids <U1, \(3, 1\), expected 1-D": dict(good, ids=np.array(ids)[:, None]),
            "unknown metric 'manhattan'": dict(good, metric=np.array("manhattan")),
            "unknown metric 2": dict(good, metric=np.array(2)),
            r"unknown metric \['cosine'\]": dict(good, metric=np.array(["cosine"])),
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
            "KeyError.*metric": {k: v for k, v in good.items() if k != "metric"},
            r"bad\.npz: no fragments": dict(
                good, ids=np.array([], dtype=str), indices=np.zeros((0, 1), np.int64),
                distances=np.zeros((0, 1)),
            ),
        }
        for match, arrays in damaged.items():
            np.savez(tmp_path / "bad.npz", **arrays)  # pickles object arrays
            with pytest.raises(ValueError, match=match):
                load_graph(tmp_path / "bad.npz")
        raw = (tmp_path / "ok.npz").read_bytes()
        for cut in range(len(raw)):
            (tmp_path / "cut.npz").write_bytes(raw[:cut])
            with pytest.raises(ValueError):
                load_graph(tmp_path / "cut.npz")
        np.save(tmp_path / "single.npy", good["indices"])
        (tmp_path / "single.npy").rename(tmp_path / "single.npz")
        with pytest.raises(ValueError, match="single array"):
            load_graph(tmp_path / "single.npz")

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
                    ids, back, _ = load_graph(path)
                except ValueError:
                    continue
                assert ids == m.ids and back.metric == "cosine", pos
                assert np.array_equal(back.indices, g.indices), pos
                assert back.distances.tobytes() == g.distances.tobytes(), pos

    def test_missing_npz_is_an_io_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_graph(tmp_path / "absent.npz")

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
            load_graph(path)
        # rejected before the file is opened, so a missing one is no I/O error
        with pytest.raises(ValueError, match=r": not a \.npz graph archive$"):
            load_graph(tmp_path / "absent.csv")


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
    def test_near_ties_at_float32_resolution(self, metric):
        # rows one float32 step apart in some coordinates, and duplicates:
        # their distances lie below the float32 product's rounding, which
        # a shortlist with float64's margin alone misses
        rng = np.random.default_rng(40)
        base = rng.normal(1.0, 1.0, (30, 16)).astype(np.float32)
        rows = base[rng.integers(0, 30, 240)]
        steps = rng.integers(-2, 3, rows.shape).astype(np.float32)
        values = np.nextafter(rows, rows + steps).astype(np.float64)
        for k in (3, 8, 20):
            assert_exact_graph(values, k, metric)

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

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_overlapped_blocks_give_the_bytes_of_one_block(self, monkeypatch, metric):
        """With several blocks one worker computes each next product while
        the caller reranks; one block starts no worker. The bytes are the
        same at every split, and no thread outlives the scan."""
        values = np.random.default_rng(35).normal(1.0, 1.0, (90, 6))
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        before = threading.active_count()
        graphs = set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for rows, workers in ((90, 0), (1, 1), (7, 1), (45, 1), (89, 1)):
                monkeypatch.setattr(neighbors, "_BLOCK_ENTRIES", rows * 90)
                started.clear()
                g = knn_graph(_matrix(values), 12, metric)
                assert len(started) == workers and threading.active_count() == before
                graphs.add((g.indices.tobytes(), g.distances.tobytes()))
        finally:
            sys.setswitchinterval(interval)
        assert len(graphs) == 1
        assert_exact_graph(values, 12, metric)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_kth_chunks_of_any_height_give_the_full_sort(self, monkeypatch, metric):
        """Each block's k-th values are found a chunk of rows at a time, in
        a reused scratch per thread. Chunks of 1 row, 3 rows and more rows
        than the 7-row block (capped at the block), and a collection below
        one chunk, give the graph of a full sort; so do rows of 1000x the
        norm and a common offset of 1000."""
        rng = np.random.default_rng(44)
        values = rng.normal(1.0, 1.0, (90, 6))
        outliers = values.copy()
        outliers[:3] *= 1000.0
        heights = set()
        fill = neighbors._KthValues.fill

        def recorded(self, approx, scratch, worker=False):
            heights.add(len(scratch))
            return fill(self, approx, scratch, worker)

        monkeypatch.setattr(neighbors._KthValues, "fill", recorded)
        default = (neighbors._BLOCK_ENTRIES, neighbors._KTH_ENTRIES)
        assert default[1] > 90 * 90  # one default chunk holds every row
        cases = [
            (7 * 90, 90, {1}),  # 7-row blocks, 13 in all
            (7 * 90, 3 * 90, {3}),
            (7 * 90, 8 * 90, {7}),
            (*default, {90}),
        ]
        for collection in (values, outliers, values + 1000.0):
            for block_entries, kth_entries, want in cases:
                monkeypatch.setattr(neighbors, "_BLOCK_ENTRIES", block_entries)
                monkeypatch.setattr(neighbors, "_KTH_ENTRIES", kth_entries)
                heights.clear()
                assert_exact_graph(collection, 12, metric)
                assert heights == want

    def test_kth_chunks_claimed_by_many_threads_cover_every_row(self):
        """More threads than CPUs claim one block's chunks at once, each in
        its own scratch, with the interpreter switching threads as often
        as it can: every row gets its k-th value, whichever thread takes
        its chunk, and the worker threads end."""
        rng = np.random.default_rng(45)
        approx = rng.standard_normal((301, 50)).astype(np.float32)
        w_up = rng.uniform(size=50).astype(np.float32)
        want = np.partition(approx + w_up, 6, axis=1)[:, 6]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                kth = neighbors._KthValues(301, w_up, 7)
                kth.values.fill(np.nan)
                workers = [
                    threading.Thread(target=kth.fill,
                                     args=(approx, np.empty((3, 50), np.float32), True))
                    for _ in range(8)
                ]
                for t in workers:
                    t.start()
                kth.fill(approx, np.empty((3, 50), np.float32))
                for t in workers:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in workers)
                assert kth.values.tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_worker_claims_no_chunk_once_the_caller_arrives(self):
        """Once the calling thread arrives for a block, the worker claims no
        further chunk and can turn to the next product; the calling thread
        claims every chunk left."""
        approx = np.random.default_rng(46).standard_normal((10, 8)).astype(np.float32)
        w_up = np.zeros(8, dtype=np.float32)
        kth = neighbors._KthValues(10, w_up, 3)
        kth.values.fill(np.nan)
        kth.arrive()
        kth.fill(approx, np.empty((3, 8), np.float32), worker=True)
        assert np.isnan(kth.values).all()
        kth.fill(approx, np.empty((3, 8), np.float32))
        assert kth.values.tobytes() == np.partition(approx, 2, axis=1)[:, 2].tobytes()

    @pytest.mark.parametrize("case", ["rows of 1000x the norm", "common offset of 1000"])
    def test_euclidean_shortlists_stay_near_k(self, monkeypatch, case):
        """A pair's error bound grows with its own rows' norms, taken about
        the column means: neither a few rows of large norm nor an offset
        shared by all rows widens the other rows' shortlists."""
        n, d, k = 1000, 32, 10
        values = np.random.default_rng(43).normal(1.0, 1.0, (n, d))
        if case == "rows of 1000x the norm":
            values[:3] *= 1000.0
        else:
            values += 1000.0
        assert_exact_graph(values, k, "euclidean")
        lengths = []
        in_range = neighbors._in_range

        def counted(*args):
            xs, top, pairs, condensed = in_range(*args)
            return xs, top, lambda rx, ry: lengths.append(len(ry)) or pairs(rx, ry), condensed

        monkeypatch.setattr(neighbors, "_in_range", counted)
        knn_graph(_matrix(values), k, "euclidean")
        assert len(lengths) == n and np.mean(lengths) < k + 1

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_scan_peak_allocation_is_two_float32_blocks(self, monkeypatch, metric):
        """The scan's blocks are float32 and allocated once: its peak traced
        allocation is two float32 blocks, the graph, one copy of the input
        rows (centered, for euclidean) and 1 MB of slack (the float32 rows,
        norms, bounds and one row's shortlist), below the third block of
        one buffer per product or the second one of float64 buffers (8 MB
        each here)."""
        n, d, k, rows = 2000, 16, 10, 500
        monkeypatch.setattr(neighbors, "_BLOCK_ENTRIES", rows * n)  # 4 blocks
        m = _matrix(np.random.default_rng(41).normal(1.0, 1.0, (n, d)))
        knn_graph(m, k, metric)  # loads the kernels and the pool's module
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            g = knn_graph(m, k, metric)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        bound = 2 * rows * n * 4 + g.indices.nbytes + g.distances.nbytes + m.values.nbytes
        assert peak <= bound + 2**20

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


@pytest.fixture
def distance_paths(monkeypatch):
    """Iterate to run a test body twice: on cdist's compiled kernels, and
    with the cached kernel handle empty, so that cdist serves every metric.
    The kernels must load here, or the first path would be cdist too."""
    kernels = neighbors._load_kernels()
    assert set(kernels) == set(neighbors.METRICS)

    def paths():
        for handle in (kernels, {}):
            monkeypatch.setattr(neighbors, "_KERNELS", handle)
            yield

    return paths


def _cdist(x, y, metric):
    D = cdist(x, y, metric=metric)
    if metric == "cosine":
        np.clip(D, 0.0, None, out=D)
    return D


class TestKernels:
    """cdist's compiled kernels, called without the scipy.spatial package."""

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_both_paths_give_cdist_bytes(self, distance_paths, metric):
        rng = np.random.default_rng(39)
        x = rng.normal(1.0, 1.0, (37, 16))
        y = rng.standard_normal((16, 21)).T  # not C-contiguous
        for _ in distance_paths():
            assert neighbors._distances(x, y, metric).tobytes() == _cdist(x, y, metric).tobytes()
            assert neighbors._distances(y, x[:0], metric).shape == (21, 0)
            assert distance_matrix(x, x, metric).tobytes() == _cdist(x, x, metric).tobytes()

    def test_cosine_kernel_rejects_unequal_widths(self, distance_paths):
        for _ in distance_paths():
            with pytest.raises(ValueError):
                neighbors._distances(np.ones((2, 3)), np.ones((2, 4)), "cosine")

    @pytest.mark.parametrize(
        "fault", ["missing module", "missing function", "TypeError", "value", "condensed value"]
    )
    def test_kernels_that_fail_fall_back_to_cdist(self, monkeypatch, fault):
        def wrong_call(*args):
            raise TypeError("incompatible function arguments")

        extension_of = neighbors._extension

        def extension(name):
            if fault == "missing module":
                raise ImportError(f"no {name}")
            if fault == "missing function":
                return types.SimpleNamespace()
            if fault == "condensed value":  # cdist's kernels, and pdist's giving 0.5
                real = extension_of(name)
                return types.SimpleNamespace(
                    cdist_cosine_double_wrap=getattr(real, "cdist_cosine_double_wrap", None),
                    cdist_euclidean=getattr(real, "cdist_euclidean", None),
                    pdist_cosine_double_wrap=lambda x, out: out.fill(0.5),
                    pdist_euclidean=lambda x: np.full(len(x) * (len(x) - 1) // 2, 0.5),
                )
            if fault == "TypeError":
                return types.SimpleNamespace(
                    cdist_cosine_double_wrap=wrong_call, cdist_euclidean=wrong_call,
                    pdist_cosine_double_wrap=wrong_call, pdist_euclidean=wrong_call,
                )
            return types.SimpleNamespace(
                cdist_cosine_double_wrap=lambda x, y, out: out.fill(0.5),
                cdist_euclidean=lambda x, y: np.full((len(x), len(y)), 0.5),
                pdist_cosine_double_wrap=lambda x, out: out.fill(0.5),
                pdist_euclidean=lambda x: np.full(len(x) * (len(x) - 1) // 2, 0.5),
            )

        monkeypatch.setattr(neighbors, "_extension", extension)
        monkeypatch.setattr(neighbors, "_KERNELS", None)
        x = np.random.default_rng(40).standard_normal((9, 4))
        for metric in ("cosine", "euclidean"):
            assert distance_matrix(x, x, metric).tobytes() == _cdist(x, x, metric).tobytes()
            condensed = neighbors._condensed_distances(x, metric)
            assert condensed.tobytes() == _cdist(x, x, metric)[np.triu_indices(9, k=1)].tobytes()
        assert neighbors._KERNELS == {}

    def test_kernels_loaded_before_and_after_the_package(self):
        """The kernels load on their own before scipy.spatial is imported,
        and are the package's own modules after it; cdist's bytes both ways."""
        code = """
import sys
import numpy as np
from hubsel import neighbors
rng = np.random.default_rng(41)
x, y = rng.normal(1.0, 1.0, (30, 7)), rng.standard_normal((20, 7))
runs = []
for before_package in (True, False):
    neighbors._KERNELS = None
    runs.append({m: neighbors._distances(x, y, m).tobytes() for m in neighbors.METRICS})
    assert set(neighbors._KERNELS) == set(neighbors.METRICS)
    assert ("scipy.spatial" in sys.modules) != before_package
    from scipy.spatial.distance import cdist
for m in neighbors.METRICS:
    want = np.clip(cdist(x, y, metric=m), 0.0, None) if m == "cosine" else cdist(x, y, metric=m)
    assert runs[0][m] == runs[1][m] == want.tobytes(), m
"""
        src = Path(__file__).resolve().parents[1] / "src"
        subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)), check=True
        )


class TestCondensed:
    """The condensed kernels: each pair i < j once, with the bytes of the
    rectangular kernels' upper triangle."""

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_random_groups_give_the_rectangular_upper_triangle(self, distance_paths, metric):
        rng = np.random.default_rng(45)
        for _ in distance_paths():
            for _ in range(150):
                m, d = int(rng.integers(2, 40)), int(rng.integers(1, 300))
                x = rng.normal(rng.normal(), 1.0, (m, d)) * 10.0 ** rng.integers(-150, 151)
                x[rng.integers(0, m, m // 3)] = x[0]  # tied pairs
                if rng.random() < 0.3:
                    x = np.round(x * 4.0 / np.abs(x).max()) + 1.0  # lattice rows, many ties
                want = neighbors._distances(x, x, metric)[np.triu_indices(m, k=1)]
                assert neighbors._condensed_distances(x, metric).tobytes() == want.tobytes()

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_range_rule_rewrites_the_same_pairs(self, distance_paths, metric):
        # rows near 1e200 put the others below the normal range under the
        # common factor, and rows near 2^-530 below that again: the
        # condensed pairs take each level's rewrite at their own places
        rng = np.random.default_rng(46)
        values = rng.normal(1.0, 1.0, (24, 5))
        values[::5] *= 1e200
        values[1::7] *= math.ldexp(1.0, -530)
        _, _, pairs, condensed = neighbors._in_range(values, values, metric)
        for _ in distance_paths():
            for rows in (np.arange(24), rng.permutation(24)[:9], np.array([3, 0]), np.array([7])):
                want = pairs(rows, rows)[np.triu_indices(len(rows), k=1)]
                assert condensed(rows).tobytes() == want.tobytes()

    def test_diversity_makes_one_condensed_call_per_group(self, monkeypatch):
        counts = {"rectangular": 0, "condensed": []}
        distances, condensed = neighbors._distances, neighbors._condensed_distances

        def counted_rectangular(*args):
            counts["rectangular"] += 1
            return distances(*args)

        def counted_condensed(x, metric):
            counts["condensed"].append(len(x))
            return condensed(x, metric)

        m = _matrix(np.random.default_rng(47).normal(1.0, 1.0, (200, 8)))
        g = knn_graph(m, 40, "euclidean")
        monkeypatch.setattr(neighbors, "_distances", counted_rectangular)
        monkeypatch.setattr(neighbors, "_condensed_distances", counted_condensed)
        means = stats.diversity(m, g, 30).values
        assert counts == {"rectangular": 0, "condensed": [30] * 200}
        D = distance_matrix(m.values, m.values, "euclidean")
        assert means.tolist() == [
            D[np.ix_(r, r)][np.triu_indices(30, k=1)].mean() for r in g.indices[:, :30]
        ]


def test_float32_ceil_rounds_each_value_up():
    f32 = np.finfo(np.float32)
    v = np.array([
        0.0, -0.0, 1.0 / 3.0, -1.0 / 3.0, 1.5, float(f32.tiny) / 3.0, 1e-300,
        float(f32.max), float(f32.max) * (1.0 + 2.0**-30), 1e300, np.inf, -np.inf,
    ])
    up = neighbors._float32_ceil(v)
    assert up.dtype == np.float32
    for value, got in zip(v.tolist(), up.tolist()):
        # the smallest float32 at or above the value
        assert got >= value
        below = float(np.nextafter(np.float32(got), np.float32(-np.inf)))
        assert below < value or got == -np.inf


_EXPONENT_KINDS = (st.integers(-1074, -1066), st.integers(-4, 4), st.integers(1000, 1010))


class TestExtremeMagnitudes:
    """Finite rows whose squares overflow or leave the normal range."""

    @pytest.mark.parametrize("exponent", [700, -1000])
    def test_power_of_two_scale_is_exact(self, distance_paths, exponent):
        values = np.random.default_rng(35).standard_normal((40, 5))
        big = np.ldexp(values, exponent)
        for _ in distance_paths():
            cos, cos_big = knn_graph(_matrix(values), 6), knn_graph(_matrix(big), 6)
            assert np.array_equal(cos.indices, cos_big.indices)
            assert cos.distances.tobytes() == cos_big.distances.tobytes()
            euc, euc_big = (knn_graph(_matrix(v), 6, "euclidean") for v in (values, big))
            assert np.array_equal(euc.indices, euc_big.indices)
            assert np.array_equal(np.ldexp(euc.distances, exponent), euc_big.distances)
            assert_exact_graph(big, 6, "cosine")
            assert_exact_graph(big, 6, "euclidean")

    def test_distance_matrix_finite_near_overflow(self, distance_paths):
        values = np.random.default_rng(36).normal(1.0, 1.0, (10, 4)) * 1e200
        for _ in distance_paths():
            for metric in ("cosine", "euclidean"):
                assert np.isfinite(distance_matrix(values, values, metric)).all()
            d = distance_matrix(values[:1], values[1:2], "euclidean")[0, 0]
            want = float(np.linalg.norm(values[0] / 1e200 - values[1] / 1e200)) * 1e200
            assert d == pytest.approx(want)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-170])
    def test_self_matrix_one_pass_matches_full_pass(
        self, monkeypatch, distance_paths, metric, scale
    ):
        # The packed pass computes each unordered pair once, which keeps the
        # bytes of the full pass only because cdist gives (i, j) and (j, i)
        # the same bits; checked with one-row blocks, two-row blocks (a
        # ragged last one when n is odd) and a single block, after the
        # per-row (cosine) or global (euclidean) rescale
        rng = np.random.default_rng(37)
        for n, d in itertools.product((2, 3, 17), (1, 3, 128)):
            x = rng.standard_normal((n, d)) * scale
            for _ in distance_paths():
                full = distance_matrix(x, x.copy(), metric)
                assert full.tobytes() == full.T.copy().tobytes()
                assert distance_matrix(x, x, metric).tobytes() == full.tobytes()
                for rows in (1, 2, n):
                    monkeypatch.setattr(neighbors, "_SELF_BLOCK_ENTRIES", rows * n)
                    pairs = neighbors._in_range(x, x, metric)[2]
                    packed = neighbors.packed_distances(pairs, n, d)
                    assert packed.tobytes() == full[np.triu_indices(n)].tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_any_worker_count_gives_one_full_cdist_pass(
        self, monkeypatch, distance_paths, metric, workers
    ):
        # the packed pass runs its row blocks on a pool of _workers()
        # threads; 4-row blocks of 23 rows end in a partial block, and a row
        # near 1e200 is brought into range by a power of two (that row under
        # cosine, all rows under euclidean) before the pass. The result
        # starts as np.empty, so a lost block write shows as other bytes;
        # a short switch interval makes the threads interleave often.
        monkeypatch.setattr(neighbors, "_workers", lambda: workers)
        monkeypatch.setattr(neighbors, "_SELF_BLOCK_ENTRIES", 4 * 23)
        x = np.random.default_rng(38).standard_normal((23, 16))
        big = x.copy()
        big[5] *= 1e200
        rest = np.delete(np.arange(23), 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _, values in itertools.product(distance_paths(), (x, big)):
                # 2^-top brings the largest magnitude into [0.5, 1)
                top = math.frexp(np.abs(values).max())[1] if values is big else 0
                if metric == "cosine":
                    xs = values.copy()
                    xs[5] = np.ldexp(values[5], -top)
                    want = _cdist(xs, xs, metric)
                else:
                    xs = np.ldexp(values, -top)
                    want = _cdist(xs, xs, metric) * 2.0**top
                if metric == "euclidean" and values is big:
                    # under the 1e200 row's factor the other rows fall below
                    # the normal range; their pairs are computed unscaled
                    want[np.ix_(rest, rest)] = cdist(values[rest], values[rest])
                before = threading.active_count()
                pairs = neighbors._in_range(values, values, metric)[2]
                packed = neighbors.packed_distances(pairs, 23, 16)
                assert packed.tobytes() == want[np.triu_indices(23)].tobytes()
                assert threading.active_count() == before
                assert distance_matrix(values, values, metric).tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_tiles_of_any_width_give_the_full_pass(
        self, monkeypatch, distance_paths, metric, workers
    ):
        # each row block is computed in tiles of C columns, each copied
        # straight into the row tails it covers: n runs over one row, a
        # tile less one, one tile, one more and two tiles and three, with
        # one-row, three-row and single blocks. Rows near 1e200 and 1e-200
        # every third row put each lower level of euclidean's range rule on
        # both sides of every tile edge. C columns of d = 5 float64s take
        # 8 * 5 * C bytes
        C = 4
        monkeypatch.setattr(neighbors, "_SELF_TILE_BYTES", 8 * 5 * C)
        monkeypatch.setattr(neighbors, "_workers", lambda: workers)
        rng = np.random.default_rng(39)
        for n in (1, C - 1, C, C + 1, 2 * C + 3):
            x = rng.standard_normal((n, 5))
            extreme = x.copy()
            extreme[::3] *= 1e200
            extreme[1::3] *= 1e-200
            for _, values in itertools.product(distance_paths(), (x, extreme)):
                want = distance_matrix(values, values, metric)[np.triu_indices(n)].tobytes()
                for rows in (1, 3, n):
                    monkeypatch.setattr(neighbors, "_SELF_BLOCK_ENTRIES", rows * n)
                    pairs = neighbors._in_range(values, values, metric)[2]
                    assert neighbors.packed_distances(pairs, n, 5).tobytes() == want

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_rows_beyond_float32_range_keep_the_exact_graph(self, metric):
        # the float32 product needs its own power of two beyond float32's
        # range, and covers the rows whose squares or products underflow it
        rng = np.random.default_rng(42)
        values = rng.normal(1.0, 1.0, (60, 8))
        mixed = values.copy()
        mixed[::3] *= 1e-30  # squares below float32's smallest normal
        lattice = np.ldexp(rng.integers(-8, 9, (40, 3)).astype(float), -66)
        lattice[~lattice.any(axis=1)] = math.ldexp(1.0, -66)
        for v in (*(values * s for s in (1e60, 1e-60, 1e200, 1e-200)), mixed, lattice):
            for k in (1, 5, 12):
                assert_exact_graph(v, k, metric)

    def test_subnormal_distances_keep_the_exact_graph(self, distance_paths):
        # true distances here are subnormal: ranked in scaled units, or
        # with a margin blind to their rounding, the graph missed or
        # misordered neighbors of the sorted distance_matrix rows
        for _ in distance_paths():
            for seed in range(40):
                values = np.random.default_rng(seed).integers(-8, 9, (30, 3)).astype(float)
                values = np.ldexp(values, -1072 + seed % 6)
                values[~values.any(axis=1)] = math.ldexp(1.0, -1070)
                assert_exact_graph(values, 8, "euclidean")

    def test_distance_beyond_the_float64_maximum_raises(self, distance_paths):
        over = np.array([[1.5e308, 0.0], [-1.5e308, 0.0], [2.0, 1.0]])
        fits = np.array([[1e308, 0.0], [1.0, 0.0], [2.0, 1.0], [0.0, 3.0]])
        for _ in distance_paths():
            for call in (
                lambda: distance_matrix(over, over, "euclidean"),
                lambda: distance_matrix(over[:1], over[1:], "euclidean"),
                lambda: pairwise_distance(over[0], over[1], "euclidean"),
                lambda: knn_graph(_matrix(over), 2, "euclidean"),
                lambda: neighbors.group_mean_distances(over, np.array([[0, 1]]), "euclidean"),
            ):
                with pytest.raises(ValueError, match="exceeds the float64 maximum"):
                    call()
            D = distance_matrix(fits, fits, "euclidean")
            assert np.isfinite(D).all() and D[0, 1] == 1e308 and D[2, 3] == math.sqrt(8.0)
            assert_exact_graph(fits, 3, "euclidean")
            # means of distances whose sum overflows, even halved
            square = np.array([[8e307, 0.0], [0.0, 8e307], [-8e307, 0.0], [0.0, -8e307]])
            means = neighbors.group_mean_distances(
                np.vstack([fits, square]), np.array([[0, 2, 3, 4], [4, 5, 6, 7]]), "euclidean"
            )
            assert means[0] == pytest.approx(1e308 / 3 + 9e307 / 3, rel=1e-14)
            assert means[1] == pytest.approx(8e307 / 6 * (4 * math.sqrt(2.0) + 4), rel=1e-14)

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.integers(2, 10).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(-8, 8), min_size=3, max_size=3),
                    min_size=n, max_size=n,
                ),
                # row exponents of one kind (subnormal, in-range or
                # near-overflow magnitudes), or of all three mixed
                st.one_of(
                    st.lists(e, min_size=n, max_size=n)
                    for e in (*_EXPONENT_KINDS, st.one_of(_EXPONENT_KINDS))
                ),
                st.integers(1, n),
            )
        )
    )
    def test_any_power_of_two_rows_keep_exact_graph_and_means(self, distance_paths, case):
        rows, exponents, k = case
        values = np.array(rows, dtype=float)
        values[~values.any(axis=1)] = 1.0
        values = np.ldexp(values, np.array(exponents)[:, None])
        n, width = len(values), min(3, len(values))
        groups = (np.arange(n)[:, None] + np.arange(width)) % n
        iu = np.triu_indices(width, k=1)
        for _, metric in itertools.product(distance_paths(), neighbors.METRICS):
            assert_exact_graph(values, k, metric)
            D = distance_matrix(values, values, metric)
            means = neighbors.group_mean_distances(values, groups, metric)
            assert means.tolist() == [D[np.ix_(g, g)][iu].mean() for g in groups]

    def test_tiny_row_among_unit_rows_under_cosine(self, distance_paths):
        values = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0], [-1.0, 3.0]])
        mixed = values.copy()
        mixed[0] = np.ldexp(values[0], -1060)  # subnormal, yet not zero
        check_cosine_rows(_matrix(mixed))
        for _ in distance_paths():
            D = distance_matrix(mixed, mixed, "cosine")
            assert D.tobytes() == distance_matrix(values, values, "cosine").tobytes()

    def test_rows_below_the_common_factor_keep_their_distances(self, distance_paths):
        # Under the factor of a row near 1e200 every other row here falls
        # below the normal range, and the rows near 2^-530 do so again
        # under the factor of [3, 4]: each pair is computed under the
        # factor of its larger row, so none of them underflows to 0.
        assert distance_matrix(
            [[1e200, 0], [3e-160, 0], [1e-160, 0]], [[1e200, 0], [3e-160, 0], [1e-160, 0]],
            "euclidean",
        )[1, 2] == pytest.approx(2e-160, rel=1e-15)
        tiny = math.ldexp(1.0, -530)
        values = np.array(
            [[1e200, 0.0], [3 * tiny, 0.0], [tiny, 0.0], [0.0, 0.0], [3.0, 4.0], [0.0, tiny]]
        )
        rest = np.arange(1, 6)
        for _ in distance_paths():
            D = distance_matrix(values, values, "euclidean")
            assert D[1, 2] == 2 * tiny and D[3, 4] == 5.0 and D[2, 5] == math.sqrt(2.0) * tiny
            assert D[0].tolist() == [0.0, 1e200, 1e200, 1e200, 1e200, 1e200]
            assert D[np.ix_(rest, rest)].tobytes() == distance_matrix(
                values[rest], values[rest], "euclidean"
            ).tobytes()
            assert D[2:4, 1:].tobytes() == distance_matrix(
                values[2:4], values[1:], "euclidean"
            ).tobytes()
            for k in range(1, 6):
                assert_exact_graph(values, k, "euclidean")
            groups = np.array([[1, 2, 3], [0, 1, 2], [4, 5, 1]])
            means = neighbors.group_mean_distances(values, groups, "euclidean")
            for group, mean in zip(groups, means):
                assert mean == D[np.ix_(group, group)][np.triu_indices(3, k=1)].mean()

"""End-to-end checks of the command line, driving ``cli.main`` directly."""

import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from hubsel import cli, evaluation, features, neighbors, selector, stats
from hubsel.evaluation import Ranking
from helpers import random_matrix, write_fbin


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A 40-fragment collection with its analyze output, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(2)
    m = random_matrix(rng, 40, 8)
    feat = root / "features.csv"
    features.save_features(m, feat)
    out = root / "analysis"
    assert cli.main(["analyze", str(feat), "--out", str(out)]) == 0
    return {"root": root, "features": feat, "analysis": out, "matrix": m}


class TestFuse:
    def test_happy_path(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("x,3.0,4.0\ny,1.0,0.0\n")
        b.write_text("x,2.0,0.0\ny,0.0,5.0\n")
        out = tmp_path / "fused.csv"
        assert cli.main(["fuse", str(a), str(b), "--out", str(out)]) == 0
        assert "fused 2" in capsys.readouterr().out
        got = features.load_features(out)
        want = features.fuse([features.load_features(a), features.load_features(b)])
        assert got.ids == want.ids
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("name", ["fused.csv", "fused.fbin"])
    def test_extreme_magnitudes_give_unit_blocks(self, tmp_path, capsys, name):
        """Squares of 1e200 overflow and those of 1e-200 underflow. Each row
        is brought into range before its norm, so none is lost, no numpy
        warning fires and no row is taken for an all-zero one."""
        big, small = tmp_path / "big.csv", tmp_path / "small.csv"
        big.write_text("a,1e200,1e200\nb,1e-200,2e-200\nc,3,4\n")
        small.write_text("a,1,0\nb,0,2\nc,1,1\n")
        out = tmp_path / name
        formatwarning = warnings.formatwarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["fuse", str(big), str(small), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert warnings.formatwarning is formatwarning  # main restores the process's own
        s2, s5 = math.sqrt(0.5), 1 / math.sqrt(5.0)
        want = np.array([[s2, s2, 1, 0], [s5, 2 * s5, 0, 1], [0.6, 0.8, s2, s2]])
        if name.endswith(".fbin"):
            want = want.astype(np.float32).astype(np.float64)
        got = features.load_features(out)
        assert got.ids == ["a", "b", "c"]
        assert np.allclose(got.values, want, atol=0, rtol=1e-15)

    def test_id_mismatch_exits_1(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("x,1.0\ny,2.0\n")
        b.write_text("x,1.0\nz,2.0\n")
        out = tmp_path / "fused.csv"
        assert cli.main(["fuse", str(a), str(b), "--out", str(out)]) == 1
        assert "row 2" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        out = tmp_path / "fused.csv"
        code = cli.main(["fuse", str(tmp_path / "absent.csv"), "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestKnn:
    def test_matches_library_output(self, workspace, tmp_path):
        g_cli = tmp_path / "graph_cli.csv"
        assert cli.main(
            ["knn", str(workspace["features"]), "--k", "5", "--out", str(g_cli)]
        ) == 0
        g_lib = tmp_path / "graph_lib.csv"
        m = workspace["matrix"]
        g = neighbors.knn_graph(m, 5, metric="cosine")
        neighbors.save_graph(g, m.ids, g_lib)
        assert g_cli.read_bytes() == g_lib.read_bytes()

    def test_invalid_k_exits_1(self, workspace, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = cli.main(["knn", str(workspace["features"]), "--k", "0", "--out", str(out)])
        assert code == 1
        assert "invalid neighbor count" in capsys.readouterr().err


class TestThreadsFlag:
    """--threads is accepted and ignored. The kNN scan starts exactly one
    worker, which computes the next block's product and does not outlive
    the command; a command with no scan and no whole dense matrix starts no
    thread; and the bytes match --threads 1."""

    @pytest.mark.parametrize("command, workers", [
        (["analyze", "{feat}", "--out", "out"], 1),
        (["knn", "{feat}", "--k", "7", "--out", "g.csv"], 1),
        (["knn", "{feat}", "--k", "7", "--out", "g.npz"], 1),
        (["select", "{feat}", "--k", "5", "--out", "s.json", "--mode", "knn-sparse"], 1),
        (["rank", "--mode", "hub", "--profiles", "{prof}", "--out", "run.csv"], 0),
        (["rank", "--mode", "hub-first", "--features", "{feat}", "--k", "5",
          "--profiles", "{prof}", "--out", "run.csv"], 0),
    ], ids=["analyze", "knn csv", "knn npz", "select knn-sparse", "rank hub", "rank hub-first"])
    def test_starts_no_thread_and_matches_one_thread(
        self, workspace, tmp_path, monkeypatch, capsys, command, workers
    ):
        monkeypatch.setattr(neighbors, "_BLOCK_ENTRIES", 7 * workspace["matrix"].n)
        started = []
        start = threading.Thread.start

        def counted(self):
            started.append(self.name)
            start(self)

        monkeypatch.setattr(threading.Thread, "start", counted)
        before = threading.active_count()
        written = {}
        for threads in ("1", "2"):
            run = tmp_path / threads
            run.mkdir()
            monkeypatch.chdir(run)
            argv = [a.format(feat=workspace["features"],
                             prof=workspace["analysis"] / "profile.csv") for a in command]
            capsys.readouterr()
            started.clear()
            assert cli.main(argv + ["--threads", threads]) == 0
            assert len(started) == workers
            assert threading.active_count() == before
            files = {str(p.relative_to(run)): p.read_bytes() for p in sorted(run.rglob("*"))
                     if p.is_file()}
            written[threads] = (files, capsys.readouterr())
        assert written["1"] == written["2"]

    def test_zero_threads_exits_1(self, workspace, tmp_path, capsys):
        argv = ["knn", str(workspace["features"]), "--k", "3", "--out", str(tmp_path / "g.csv"),
                "--threads", "0"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: threads must be positive\n"
        assert not (tmp_path / "g.csv").exists()


class TestAnalyze:
    def test_outputs_present(self, workspace):
        out = workspace["analysis"]
        assert (out / "profile.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "scatter.csv").exists()
        assert list(out.glob("graph_*.npz")), "graph cache file missing"

    def test_summary_contents(self, workspace, capsys):
        summary = json.loads((workspace["analysis"] / "summary.json").read_text())
        for key in ("k", "n_nbr", "m_nbr", "skewness", "mean", "stddev",
                    "hubness_exists", "global_id"):
            assert key in summary
        assert summary["k"] == 10
        assert isinstance(summary["hubness_exists"], bool)

    def test_rerun_is_byte_identical(self, workspace, capsys):
        out = workspace["analysis"]
        names = ["profile.csv", "summary.json", "scatter.csv"]
        before = {n: (out / n).read_bytes() for n in names}
        capsys.readouterr()
        assert cli.main(["analyze", str(workspace["features"]), "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(before["summary.json"].decode())
        for n in names:
            assert (out / n).read_bytes() == before[n], n

    def test_damaged_cache_is_rebuilt(self, workspace, tmp_path):
        out = tmp_path / "analysis"
        assert cli.main(["analyze", str(workspace["features"]), "--out", str(out)]) == 0
        cold = (out / "profile.csv").read_bytes()
        (cache,) = out.glob("graph_*.npz")
        raw = cache.read_bytes()
        cache.write_bytes(raw[: len(raw) // 2])
        (out / "profile.csv").unlink()
        assert cli.main(["analyze", str(workspace["features"]), "--out", str(out)]) == 0
        assert (out / "profile.csv").read_bytes() == cold
        assert cache.read_bytes() == raw
        assert [p.name for p in out.glob("graph_*")] == [cache.name]

    @pytest.mark.parametrize(
        "damage", ["other ids", "pickled ids", "index out of range", "shape", "dtype",
                   "diversity length", "non-finite diversity", "other digest",
                   "other format", "parent format", "id with comma", "repeated id",
                   "2-D ids", "other metric", "unknown metric", "no metric member",
                   "no values member", "float32 values", "values of fewer rows",
                   "non-finite values"]
    )
    def test_unusable_cache_is_rebuilt(self, workspace, tmp_path, damage):
        feat = workspace["features"]
        out = tmp_path / "analysis"
        assert cli.main(["analyze", str(feat), "--out", str(out)]) == 0
        cold = (out / "profile.csv").read_bytes()
        (cache,) = out.glob("graph_*.npz")
        raw = cache.read_bytes()
        with np.load(cache) as z:
            arrays = dict(z)
        if damage == "other ids":
            m = workspace["matrix"]
            other = features.FeatureMatrix(ids=[f"z{i}" for i in range(m.n)], values=m.values)
            features.save_features(other, tmp_path / "other.csv")
            assert cli.main(["analyze", str(tmp_path / "other.csv"),
                             "--out", str(tmp_path / "other")]) == 0
            (other_cache,) = (tmp_path / "other").glob("graph_*.npz")
            cache.write_bytes(other_cache.read_bytes())
        else:
            if damage == "pickled ids":
                arrays["ids"] = arrays["ids"].astype(object)
            elif damage == "index out of range":
                arrays["indices"][3, 1] = len(arrays["ids"])
            elif damage == "shape":
                arrays["distances"] = arrays["distances"][:, :-1]
            elif damage == "dtype":
                arrays["distances"] = arrays["distances"].astype(np.float32)
            elif damage == "diversity length":
                arrays["diversity"] = arrays["diversity"][:-1]
            elif damage == "non-finite diversity":
                arrays["diversity"][3] = np.nan
            elif damage == "other digest":
                arrays["sha256"] = np.array(hashlib.sha256(b"other").hexdigest())
            elif damage == "other format":
                arrays["format"] = np.array("fbin")
            elif damage == "id with comma":
                arrays["ids"][0] = "a,b"
            elif damage == "repeated id":
                arrays["ids"][1] = arrays["ids"][0]
            elif damage == "2-D ids":
                arrays["ids"] = arrays["ids"][:, None]
            elif damage == "other metric":
                arrays["metric"] = np.array("euclidean")
            elif damage == "unknown metric":
                arrays["metric"] = np.array("manhattan")
            elif damage == "no metric member":  # as archives written before the metric
                del arrays["metric"]
            elif damage == "no values member":  # as archives written before the matrix
                del arrays["values"]
            elif damage == "float32 values":
                arrays["values"] = arrays["values"].astype(np.float32)
            elif damage == "values of fewer rows":
                arrays["values"] = arrays["values"][:-1]
            elif damage == "non-finite values":
                arrays["values"][2, 1] = np.inf
            else:  # the graph alone, as archives written before the profile members
                arrays = {name: arrays[name] for name in ("ids", "indices", "distances")}
            np.savez(cache, **arrays)
        (out / "profile.csv").unlink()
        assert cli.main(["analyze", str(feat), "--out", str(out)]) == 0
        assert (out / "profile.csv").read_bytes() == cold
        assert cache.read_bytes() == raw
        assert [p.name for p in out.glob("graph_*")] == [cache.name]

    def test_id_with_comma_exits_1(self, tmp_path, capsys):
        feat = write_fbin(tmp_path / "bad.fbin", ["x", "a,b", "y"], np.eye(3))
        out = tmp_path / "out"
        assert cli.main(["analyze", str(feat), "--out", str(out)]) == 1
        assert "'a,b'" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_id_with_nul_exits_1(self, tmp_path, capsys):
        """The ``.npz`` cache cannot store a NUL, so no loader accepts one."""
        csv = tmp_path / "bad.csv"
        csv.write_text("x,1.0,0.0\na\x00,0.0,1.0\ny,1.0,1.0\n")
        fbin = write_fbin(tmp_path / "bad.fbin", ["x", "a\x00", "y"], np.eye(3))
        for feat in (csv, fbin):
            out = tmp_path / f"out_{feat.suffix[1:]}"
            assert cli.main(["analyze", str(feat), "--out", str(out)]) == 1
            assert "'a\\x00'" in capsys.readouterr().err
            assert not list(out.iterdir())

    def test_m_div_sets_diversity_width(self, workspace, tmp_path):
        out = tmp_path / "out"
        args = ["analyze", str(workspace["features"]), "--out", str(out), "--m-div", "5"]
        assert cli.main(args) == 0
        assert json.loads((out / "summary.json").read_text())["m_nbr"] == 5

    def test_two_fragment_collection(self, tmp_path, capsys):
        feat = tmp_path / "tiny.csv"
        feat.write_text("a,1.0,0.0\nb,0.0,1.0\n")
        out = tmp_path / "tiny_out"
        assert cli.main(["analyze", str(feat), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["skewness"] == 0.0
        assert summary["global_id"] is None

    @staticmethod
    def refuse_parse_and_diversity(monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a cache hit parses no features and computes no diversity")

        monkeypatch.setattr(features, "load_features", refused)
        monkeypatch.setattr(stats, "diversity", refused)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("suffix", ["csv", "fbin"])
    def test_cache_hit_parses_no_features(
        self, workspace, tmp_path, monkeypatch, capsys, suffix, metric
    ):
        """A hit writes the cold run's bytes from the archive alone; the cache
        is named by the feature bytes and the metric only."""
        feat = tmp_path / f"features.{suffix}"
        features.save_features(workspace["matrix"], feat)
        out = tmp_path / "out"
        args = ["analyze", str(feat), "--out", str(out), "--metric", metric]
        assert cli.main(args) == 0
        printed = capsys.readouterr().out
        cold = {p.name: p.read_bytes() for p in out.iterdir()}
        digest = hashlib.sha256(feat.read_bytes()).hexdigest()
        assert f"graph_{digest[:12]}_{metric}.npz" in cold
        self.refuse_parse_and_diversity(monkeypatch)
        assert cli.main(args) == 0
        assert capsys.readouterr().out == printed
        assert {p.name: p.read_bytes() for p in out.iterdir()} == cold

    def test_m_div_change_reuses_the_cached_graph(self, workspace, tmp_path, monkeypatch):
        feat = str(workspace["features"])
        fresh = tmp_path / "fresh"
        assert cli.main(["analyze", feat, "--out", str(fresh), "--m-div", "5"]) == 0
        cold = {p.name: p.read_bytes() for p in fresh.iterdir()}
        out = tmp_path / "out"
        assert cli.main(["analyze", feat, "--out", str(out)]) == 0

        def refused(*args, **kwargs):
            raise AssertionError("the cached graph and matrix serve another diversity width")

        monkeypatch.setattr(neighbors, "knn_graph", refused)
        monkeypatch.setattr(features, "load_features", refused)
        for _ in range(2):  # the first run rewrites the cache, the second hits it
            assert cli.main(["analyze", feat, "--out", str(out), "--m-div", "5"]) == 0
            assert {p.name: p.read_bytes() for p in out.iterdir()} == cold
            self.refuse_parse_and_diversity(monkeypatch)

    def test_two_fragment_collection_hits(self, tmp_path, monkeypatch):
        feat = tmp_path / "tiny.csv"
        feat.write_text("a,1.0,0.0\nb,0.0,1.0\n")
        out = tmp_path / "tiny_out"
        assert cli.main(["analyze", str(feat), "--out", str(out)]) == 0
        cold = {p.name: p.read_bytes() for p in out.iterdir()}
        self.refuse_parse_and_diversity(monkeypatch)
        assert cli.main(["analyze", str(feat), "--out", str(out)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == cold

    def test_archive_of_another_metric_is_a_miss(self, workspace, tmp_path):
        feat = str(workspace["features"])
        fresh = tmp_path / "fresh"
        assert cli.main(["analyze", feat, "--out", str(fresh), "--metric", "euclidean"]) == 0
        out = tmp_path / "out"
        assert cli.main(["analyze", feat, "--out", str(out)]) == 0
        (cache,) = out.glob("graph_*.npz")
        cache.rename(cache.with_name(cache.name.replace("_cosine", "_euclidean")))
        assert cli.main(["analyze", feat, "--out", str(out), "--metric", "euclidean"]) == 0
        want = {p.name: p.read_bytes() for p in fresh.iterdir()}
        assert {p.name: p.read_bytes() for p in out.iterdir()} == want

    def test_archive_ids_that_utf8_cannot_encode_are_a_miss(self, workspace, tmp_path, capsys):
        """An archive can hold an id that no UTF-8 feature file can: a lone
        surrogate. Such an archive is a miss that parses the feature file,
        not a hit that fails to write the profile."""
        feat, out = str(workspace["features"]), tmp_path / "out"
        assert cli.main(["analyze", feat, "--out", str(out)]) == 0
        cold = {p.name: p.read_bytes() for p in out.iterdir()}
        (cache,) = out.glob("graph_*.npz")
        ids, g, members = neighbors.load_graph(cache, cli._CACHE_MEMBERS)
        neighbors.save_graph(g, ["\ud800" + ids[0], *ids[1:]], cache, members)
        capsys.readouterr()
        assert cli.main(["analyze", feat, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert {p.name: p.read_bytes() for p in out.iterdir()} == cold

    def test_one_archive_per_feature_file_and_metric(self, workspace, tmp_path):
        feat, out = str(workspace["features"]), tmp_path / "out"
        assert cli.main(["analyze", feat, "--out", str(out)]) == 0
        assert cli.main(["analyze", feat, "--out", str(out), "--m-div", "200"]) == 0
        assert len(list(out.glob("graph_*"))) == 1

    @staticmethod
    def analyze_200(tmp_path, capsys, name, *options):
        """Outputs and stdout of ``analyze`` on a 200-fragment collection,
        wide enough that a graph of 151 neighbors holds more than 101."""
        feat = tmp_path / "wide.csv"
        if not feat.exists():
            features.save_features(random_matrix(np.random.default_rng(9), 200, 8), feat)
        out = tmp_path / name
        capsys.readouterr()
        assert cli.main(["analyze", str(feat), "--out", str(out), *options]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        return files, capsys.readouterr().out

    def test_wider_archive_serves_a_narrower_request(self, tmp_path, monkeypatch, capsys):
        cold, printed = self.analyze_200(tmp_path, capsys, "cold")
        self.analyze_200(tmp_path, capsys, "out", "--n-lid", "150")

        def refused(*args, **kwargs):
            raise AssertionError("a wider cached graph serves the request")

        monkeypatch.setattr(neighbors, "knn_graph", refused)
        self.refuse_parse_and_diversity(monkeypatch)
        files, again = self.analyze_200(tmp_path, capsys, "out")
        assert again == printed
        for name in ("profile.csv", "summary.json", "scatter.csv"):
            assert files[name] == cold[name], name

    def test_narrower_archive_is_rebuilt(self, tmp_path, capsys):
        cold = self.analyze_200(tmp_path, capsys, "cold", "--k-hub", "150")
        self.analyze_200(tmp_path, capsys, "out")
        files, printed = self.analyze_200(tmp_path, capsys, "out", "--k-hub", "150")
        assert (files, printed) == cold
        assert len([name for name in files if name.startswith("graph_")]) == 1

    @pytest.mark.parametrize("scale", [1e200, 1e-300])
    def test_extreme_magnitudes_give_finite_outputs(self, tmp_path, scale):
        m = random_matrix(np.random.default_rng(5), 30, 6)
        m.values *= scale
        feat = tmp_path / "extreme.csv"
        features.save_features(m, feat)
        for metric in ("cosine", "euclidean"):
            out = tmp_path / metric
            assert cli.main(
                ["analyze", str(feat), "--out", str(out), "--n-lid", "10", "--metric", metric]
            ) == 0
            profile = stats.load_profile_csv(out / "profile.csv")
            assert np.isfinite(profile.lid.lids).all() and not profile.lid.degenerate.any()
            assert np.isfinite(profile.diversity.values).all()
            assert (profile.diversity.values > 0).all()
        graph = tmp_path / "graph.npz"
        assert cli.main(
            ["knn", str(feat), "--k", "5", "--metric", "euclidean", "--out", str(graph)]
        ) == 0
        ids, g, _ = neighbors.load_graph(graph)
        assert ids == m.ids and g.metric == "euclidean"
        assert np.isfinite(g.distances).all() and (g.distances > 0).all()


    def test_value_near_the_float64_maximum_gives_a_finite_profile(self, tmp_path, capsys):
        feat = tmp_path / "big.csv"
        feat.write_text("a,1e308,0\nb,1,0\nc,2,1\nd,0,3\n")
        out = tmp_path / "out"
        assert cli.main(["analyze", str(feat), "--out", str(out), "--metric", "euclidean"]) == 0
        assert capsys.readouterr().err == ""
        profile = stats.load_profile_csv(out / "profile.csv")
        assert np.isfinite(profile.lid.lids).all()
        assert np.isfinite(profile.diversity.values).all()
        assert profile.diversity.values[1] == pytest.approx(1e308 / 3 * 2, rel=1e-15)

    def test_distance_beyond_the_float64_maximum_exits_1(self, tmp_path, capsys):
        feat = tmp_path / "over.csv"
        feat.write_text("a,1.5e308,0\nb,-1.5e308,0\nc,2,1\nd,0,3\n")
        out = tmp_path / "out"
        assert cli.main(["analyze", str(feat), "--out", str(out), "--metric", "euclidean"]) == 1
        assert capsys.readouterr().err == (
            "error: a euclidean distance exceeds the float64 maximum (about 1.8e308)\n"
        )


def test_readme_names_every_archive_member(workspace, tmp_path):
    """The README's file-format rows are the only documentation of the
    archives that ``knn --out g.npz`` and ``analyze`` write."""
    graph = tmp_path / "g.npz"
    assert cli.main(["knn", str(workspace["features"]), "--k", "5", "--out", str(graph)]) == 0
    (cache,) = workspace["analysis"].glob("graph_*.npz")
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    for archive, title in ((graph, "| graph archive ("), (cache, "| `analyze` cache (")):
        (row,) = [line for line in lines if line.startswith(title)]
        with np.load(archive) as z:
            unnamed = [name for name in z.files if f"`{name}`" not in row]
        assert not unnamed, f"README row {title!r} does not name {unnamed}"


_REPORT_IMPORTS = """
import json, sys
from hubsel import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # --help
    code = exc.code
print(json.dumps([code, [m for m in ("scipy.spatial", "scipy.sparse") if m in sys.modules]]))
"""


@pytest.mark.parametrize("command", [
    "cached analyze", "eval", "rank hub", "fuse", "help",
    "cold analyze", "dense select", "solver rank", "sparse select", "linear select",
])
def test_command_imports_no_scipy(workspace, tmp_path, command):
    """scipy.spatial and scipy.sparse cost ~0.5 s of start-up. A distance
    needs neither, only cdist's compiled kernels, and a knn-sparse or
    --linear affinity only scipy's compiled CSR functions, so a command
    that loads either package has fallen back to it."""
    feat, profile = str(workspace["features"]), str(workspace["analysis"] / "profile.csv")
    out, run, gt = tmp_path / "out", tmp_path / "run.csv", tmp_path / "gt.csv"
    solution = str(tmp_path / "solution.json")
    if command == "cached analyze":
        assert cli.main(["analyze", feat, "--out", str(out)]) == 0
    elif command == "eval":
        assert cli.main(["rank", "--mode", "hub", "--profiles", profile, "--out", str(run)]) == 0
        gt.write_text("all,f00003\n")
    argv = {
        "cached analyze": ["analyze", feat, "--out", str(out)],
        "eval": ["eval", "--run", str(run), "--gt", str(gt)],
        "rank hub": ["rank", "--mode", "hub", "--profiles", profile, "--out", str(run)],
        "fuse": ["fuse", feat, "--out", str(tmp_path / "fused.csv")],
        "help": ["--help"],
        "cold analyze": ["analyze", feat, "--out", str(out)],
        "dense select": ["select", feat, "--k", "5", "--profiles", profile, "--out", solution],
        "solver rank": ["rank", "--mode", "hub-first", "--features", feat, "--k", "5",
                        "--profiles", profile, "--out", str(run)],
        "sparse select": ["select", feat, "--k", "5", "--mode", "knn-sparse", "--out", solution],
        "linear select": ["select", feat, "--k", "5", "--mode", "knn-sparse", "--linear",
                          "--out", solution],
    }[command]
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run(
        [sys.executable, "-c", _REPORT_IMPORTS, *argv], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert json.loads(child.stdout.splitlines()[-1]) == [0, []]


def test_import_loads_no_scipy():
    """scipy costs ~0.5 s of start-up that commands computing no distance
    and building no problem never need, and concurrent.futures ~8 ms that
    only a thread pool needs."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import hubsel.cli, sys; assert not any(m.startswith('scipy') for m in sys.modules)"
            "; assert 'concurrent.futures' not in sys.modules")
    subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)), check=True
    )


def test_library_warning_is_one_line(tmp_path):
    """A library warning reaches stderr as one ``warning:`` line, like every
    error, not as Python's two lines naming the source file and line."""
    feat = tmp_path / "four.csv"
    feat.write_text("a,1,0\nb,0,1\nc,1,1\nd,2,1\n")
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run(
        [sys.executable, "-m", "hubsel.cli", "select", str(feat), "--k", "2",
         "--out", str(tmp_path / "solution.json")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert child.returncode == 0
    assert child.stderr == "warning: constant hub score vector, normalization yields all zeros\n"


class TestSelect:
    def select_args(self, workspace, tmp_path, k, extra=()):
        return [
            "select", str(workspace["features"]),
            "--k", str(k), "--out", str(tmp_path / "solution.json"), *extra,
        ]

    def test_matches_library_pipeline(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        m = random_matrix(rng, 12, 4)
        feat = tmp_path / "small.csv"
        features.save_features(m, feat)
        out = tmp_path / "solution.json"
        capsys.readouterr()
        assert cli.main(["select", str(feat), "--k", "4", "--out", str(out)]) == 0
        cli_ids = capsys.readouterr().out.split()

        g = neighbors.knn_graph(m, 11, metric="cosine")
        profile = stats.compute_profile(m, g, k_hub=10, n_lid=100, m_div=30)
        problem = selector.build_problem(
            profile.hubness, profile.lid, m, metric="cosine", k=4
        )
        y, _ = selector.solve(problem, selector.SolverConfig(init="hub_first"))
        lib_ids = [m.ids[i] for i in selector.round_selection(y, problem)]
        assert cli_ids == lib_ids

        payload = json.loads(out.read_text())
        assert payload["selected"] == lib_ids
        assert payload["k"] == 4
        assert payload["objective"] == pytest.approx(
            selector.objective(problem, y), abs=1e-9
        )

    def test_solution_schema_and_trace(self, workspace, tmp_path, capsys):
        out = tmp_path / "solution.json"
        trace = tmp_path / "trace.csv"
        args = [
            "select", str(workspace["features"]), "--k", "5",
            "--out", str(out), "--trace", str(trace),
        ]
        capsys.readouterr()
        assert cli.main(args) == 0
        printed = capsys.readouterr().out.split()
        payload = json.loads(out.read_text())
        for key in ("k", "init", "iterations", "converged", "kkt_residual",
                    "objective", "selected", "y"):
            assert key in payload
        assert payload["selected"] == printed
        assert len(payload["selected"]) == 5
        assert len(payload["y"]) == 40
        assert trace.read_text().splitlines()[0] == selector.TRACE_HEADER

    def test_iteration_cap_reports_unconverged(self, workspace, tmp_path):
        out = tmp_path / "solution.json"
        args = [
            "select", str(workspace["features"]), "--k", "5", "--out", str(out),
            "--init", "uniform", "--max-iter", "1",
        ]
        assert cli.main(args) == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is False
        assert payload["iterations"] <= 1

    @pytest.mark.parametrize("max_iter", ["0", "-3"])
    def test_iteration_cap_below_one_exits_1(self, workspace, tmp_path, capsys, max_iter):
        args = self.select_args(workspace, tmp_path, 5, ["--max-iter", max_iter])
        assert cli.main(args) == 1
        assert capsys.readouterr().err == "error: max-iter must be positive\n"
        assert not (tmp_path / "solution.json").exists()

    def test_paper_step_stops_instead_of_cycling(self, tmp_path):
        """Here the full paper step fits the box after 4 updates; without
        the stop, rows 3 and 15 swap until the 10 n iteration cap."""
        m = features.FeatureMatrix(
            ids=[f"f{i}" for i in range(30)],
            values=np.random.default_rng(14).normal(1, 1, (30, 4)),
        )
        feat, out = tmp_path / "cyc.csv", tmp_path / "solution.json"
        features.save_features(m, feat)
        assert cli.main([
            "select", str(feat), "--k", "4", "--k-hub", "5", "--n-lid", "10",
            "--metric", "euclidean", "--step", "paper", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert (payload["iterations"], payload["converged"]) == (4, False)
        assert payload["selected"] == ["f2", "f0", "f9", "f3"]
        assert payload["objective"] == pytest.approx(4.284476395906949, abs=1e-12)

    def test_budget_one_needs_linear(self, workspace, tmp_path, capsys):
        out = tmp_path / "solution.json"
        args = ["select", str(workspace["features"]), "--k", "1", "--out", str(out)]
        assert cli.main(args) == 1
        assert "invalid budget" in capsys.readouterr().err
        capsys.readouterr()
        assert cli.main(args + ["--linear"]) == 0
        assert len(capsys.readouterr().out.split()) == 1

    def test_linear_sparse_with_profiles_builds_no_graph(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        def no_graph(*args, **kwargs):
            raise AssertionError("linear select built a knn graph")

        monkeypatch.setattr(neighbors, "knn_graph", no_graph)
        profiles = ["--profiles", str(workspace["analysis"] / "profile.csv")]
        sparse_out, dense_out = tmp_path / "sparse.json", tmp_path / "dense.json"
        args = ["select", str(workspace["features"]), "--k", "3", "--linear", *profiles]
        assert cli.main(args + ["--mode", "knn-sparse", "--out", str(sparse_out)]) == 0
        assert cli.main(args + ["--out", str(dense_out)]) == 0
        assert sparse_out.read_bytes() == dense_out.read_bytes()  # A = 0 either way

    @pytest.mark.parametrize("init", ["uniform", "lid-first"])
    def test_linear_select_adds_no_pair_delta(self, workspace, tmp_path, monkeypatch, init):
        """A linear solve builds no row of A: its JSON and trace are those
        of the same solve on an all-zero dense A, which adds the zero
        difference of two rows to the rewards at every update."""
        args = ["select", str(workspace["features"]), "--k", "3", "--linear", "--init", init,
                "--mode", "knn-sparse"]
        build = selector.build_problem

        def zero_dense(*a, **kw):
            p = build(*a, **kw)
            p.a = np.zeros(p.a.shape)
            return p

        written = []
        for name in ("dense", "linear"):
            if name == "dense":
                monkeypatch.setattr(selector, "build_problem", zero_dense)
            else:
                monkeypatch.setattr(selector, "build_problem", build)
                monkeypatch.setattr(
                    selector.CsrAffinity, "__getitem__", lambda a, i: pytest.fail("built a row")
                )
            out, trace = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            assert cli.main(args + ["--out", str(out), "--trace", str(trace)]) == 0
            written.append((out.read_bytes(), trace.read_bytes()))
        assert written[0] == written[1]
        assert json.loads(written[1][0])["iterations"] > 0

    def test_sparse_affinity(self, workspace, tmp_path, capsys):
        out = tmp_path / "solution.json"
        args = [
            "select", str(workspace["features"]), "--k", "5",
            "--out", str(out), "--mode", "knn-sparse",
        ]
        capsys.readouterr()
        assert cli.main(args) == 0
        assert len(json.loads(out.read_text())["selected"]) == 5

    def test_profiles_input(self, workspace, tmp_path, capsys):
        out = tmp_path / "solution.json"
        args = [
            "select", str(workspace["features"]), "--k", "5", "--out", str(out),
            "--profiles", str(workspace["analysis"] / "profile.csv"),
        ]
        assert cli.main(args) == 0
        assert len(json.loads(out.read_text())["selected"]) == 5

    @pytest.mark.parametrize(
        "field, value",
        [(3, "nan"), (1, "-7"), (1, "1.5"), (5, "inf"), (4, "2"), (2, "bogus")],
        ids=["lid nan", "N_k negative", "N_k fraction", "diversity inf", "degenerate 2",
             "category bogus"],
    )
    def test_profile_value_no_writer_produces_exits_1(
        self, workspace, tmp_path, capsys, field, value
    ):
        lines = (workspace["analysis"] / "profile.csv").read_text().splitlines()
        parts = lines[2].split(",")
        parts[field] = value
        lines[2] = ",".join(parts)
        profiles = tmp_path / "profile.csv"
        profiles.write_text("\n".join(lines) + "\n")
        out = tmp_path / "solution.json"
        args = [
            "select", str(workspace["features"]), "--k", "5", "--out", str(out),
            "--profiles", str(profiles),
        ]
        capsys.readouterr()
        assert cli.main(args) == 1
        assert f"{profiles}: row 3:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sidecar", ['{"k": null}', "[1]", "not json"],
                             ids=["k null", "list", "not json"])
    def test_profiles_ignore_summary_sidecar(
        self, workspace, tmp_path, monkeypatch, capsys, sidecar
    ):
        analysis = workspace["analysis"]
        profiles = ["--profiles", "profile.csv"]
        written = []
        for summary in ((analysis / "summary.json").read_text(), sidecar):
            run = tmp_path / str(len(written))
            run.mkdir()
            monkeypatch.chdir(run)
            Path("profile.csv").write_bytes((analysis / "profile.csv").read_bytes())
            Path("summary.json").write_text(summary)
            capsys.readouterr()
            assert cli.main(["select", str(workspace["features"]), "--k", "5",
                             "--out", "solution.json", *profiles]) == 0
            assert cli.main(["rank", "--mode", "hub", "--out", "run.csv", *profiles]) == 0
            written.append((Path("solution.json").read_bytes(), Path("run.csv").read_bytes(),
                            capsys.readouterr()))
        assert written[0] == written[1]


    def test_affinity_too_large_for_the_solver_exits_1(self, tmp_path, capsys):
        # the distance 1e308 fits, but the first rewards, 2 A y / 2, do not
        feat = tmp_path / "half.csv"
        feat.write_text("a,5e307,0\nb,-5e307,0\nc,2,1\nd,0,3\ne,1,1\n")
        out, trace = tmp_path / "solution.json", tmp_path / "trace.csv"
        argv = ["select", str(feat), "--k", "2", "--metric", "euclidean", "--k-hub", "1",
                "--out", str(out), "--trace", str(trace)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: solver rewards or objective not finite: distances too large\n"
        )
        assert not out.exists() and not trace.exists()


class TestSolveReadsHubnessAndLidOnly:
    """select and solver-mode rank compute hubness and LID, never diversity,
    and take no --m-div, so their graph is only as wide as those two need."""

    @staticmethod
    def no_diversity(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("select or rank computed diversity")

        monkeypatch.setattr(stats, "diversity", fail)

    @staticmethod
    def library_solve(workspace, mode):
        m = features.load_features(workspace["features"])
        g = neighbors.knn_graph(m, m.n - 1, metric="cosine")
        prof = stats.compute_profile(m, g)
        problem = selector.build_problem(
            prof.hubness, prof.lid, m, metric="cosine", k=4, mode=mode, graph=g
        )
        return m, problem, *selector.solve(problem, selector.SolverConfig(init="hub_first"))

    @pytest.mark.parametrize("mode", ["dense", "knn-sparse"])
    def test_select_matches_library_without_diversity(
        self, workspace, tmp_path, monkeypatch, capsys, mode
    ):
        m, problem, y, trace = self.library_solve(workspace, mode.replace("-", "_"))
        lib = tmp_path / "lib.json"
        selector.save_solution(lib, m.ids, problem, y, trace, init_label="hub-first")
        self.no_diversity(monkeypatch)
        out = tmp_path / "cli.json"
        args = ["select", str(workspace["features"]), "--k", "4", "--mode", mode]
        assert cli.main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == lib.read_bytes()

    def test_rank_matches_library_without_diversity(self, workspace, tmp_path, monkeypatch):
        m, problem, y, _ = self.library_solve(workspace, "dense")
        lib = tmp_path / "lib.csv"
        order = selector.ranking_order(y, problem)
        evaluation.save_run(lib, Ranking(query_id="all", items=[m.ids[i] for i in order]))
        self.no_diversity(monkeypatch)
        out = tmp_path / "cli.csv"
        args = ["rank", "--mode", "hub-first", "--features", str(workspace["features"]),
                "--k", "4", "--out", str(out)]
        assert cli.main(args) == 0
        assert out.read_bytes() == lib.read_bytes()

    @pytest.mark.parametrize("command", [
        ["select", "features.csv", "--k", "4", "--out", "s.json"],
        ["rank", "--mode", "hub-first", "--features", "features.csv", "--k", "4",
         "--out", "r.csv"],
    ], ids=["select", "rank"])
    def test_m_div_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--m-div", "5"])
        assert exc.value.code == 2
        assert "--m-div" in capsys.readouterr().err

    def test_sparse_width_is_k_hub_or_n_lid_plus_one(self, workspace, tmp_path, monkeypatch):
        problems = []
        solve = selector.solve
        monkeypatch.setattr(
            selector, "solve", lambda p, cfg: problems.append(p) or solve(p, cfg)
        )
        args = ["select", str(workspace["features"]), "--k", "4", "--mode", "knn-sparse",
                "--n-lid", "10", "--k-hub", "5", "--out", str(tmp_path / "s.json")]
        assert cli.main(args) == 0
        m = workspace["matrix"]
        g = neighbors.knn_graph(m, 11, metric="cosine")
        expected = np.zeros((m.n, m.n))
        expected[np.repeat(np.arange(m.n), 11), g.indices.ravel()] = g.distances.ravel()
        from scipy import sparse

        a = problems[0].a
        dense = sparse.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape).toarray()
        assert np.array_equal(dense, np.maximum(expected, expected.T))


class TestProfilesReuseTheArchive:
    """select and solver-mode rank given --profiles take the matrix, and a
    wide enough knn-sparse graph, from the analyze archive next to the
    profile; any other archive is a miss that parses the feature file. A
    hit and a miss write the same bytes."""

    @staticmethod
    def analyze(tmp_path, suffix="csv", *options):
        feat = tmp_path / f"features.{suffix}"
        features.save_features(random_matrix(np.random.default_rng(6), 40, 8), feat)
        out = tmp_path / "analysis"
        assert cli.main(["analyze", str(feat), "--out", str(out), *options]) == 0
        (cache,) = out.glob("graph_*.npz")
        return feat, out / "profile.csv", cache

    @staticmethod
    def run(monkeypatch, capsys, tmp_path, name, feat, profiles, mode="dense", *options):
        """Files and stdout of one select --trace and one solver-mode rank
        run in a fresh directory, with relative output names."""
        run = tmp_path / name
        run.mkdir()
        monkeypatch.chdir(run)
        capsys.readouterr()
        common = ["--k", "4", "--profiles", str(profiles), *options]
        assert cli.main(["select", str(feat), *common, "--mode", mode,
                         "--out", "s.json", "--trace", "t.csv"]) == 0
        assert cli.main(["rank", "--mode", "hub-first", "--features", str(feat), *common,
                         "--affinity", mode, "--out", "r.csv"]) == 0
        return {p.name: p.read_bytes() for p in run.iterdir()}, capsys.readouterr().out

    def parsed(self, monkeypatch, capsys, tmp_path, feat, profiles, *args):
        """The outputs of the same commands with no archive next to the profile."""
        alone = tmp_path / "alone"
        alone.mkdir(parents=True)
        (alone / "profile.csv").write_bytes(profiles.read_bytes())
        return self.run(monkeypatch, capsys, tmp_path, "parsed", feat,
                        alone / "profile.csv", *args)

    @staticmethod
    def count_parses(monkeypatch):
        calls = []
        load = features.load_features
        monkeypatch.setattr(features, "load_features", lambda path: calls.append(path) or load(path))
        return calls

    @staticmethod
    def count_members(monkeypatch):
        read = []
        getitem = np.lib.npyio.NpzFile.__getitem__
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__",
                            lambda z, name: read.append(name) or getitem(z, name))
        return read

    def test_dense_hit_reads_no_graph_member(self, tmp_path, monkeypatch, capsys):
        """A dense A reads no graph: a dense select and a hub-first rank take
        the matrix from the archive, open neither graph member and write
        the bytes of a parse."""
        feat, profiles, _ = self.analyze(tmp_path)
        want = self.parsed(monkeypatch, capsys, tmp_path, feat, profiles)
        read, calls = self.count_members(monkeypatch), self.count_parses(monkeypatch)
        assert self.run(monkeypatch, capsys, tmp_path, "hit", feat, profiles) == want
        assert calls == [] and "values" in read
        assert not {"indices", "distances"} & set(read)

    @pytest.mark.parametrize("damage", ["index out of range", "dtype", "shape"])
    def test_damaged_graph_member_is_a_miss_for_knn_sparse_only(
        self, tmp_path, monkeypatch, capsys, damage
    ):
        feat, profiles, cache = self.analyze(tmp_path)
        want = {mode: self.parsed(monkeypatch, capsys, tmp_path / mode, feat, profiles, mode)
                for mode in ("dense", "knn-sparse")}
        with np.load(cache) as z:
            arrays = dict(z)
        if damage == "index out of range":
            arrays["indices"][3, 1] = len(arrays["ids"])
        elif damage == "dtype":
            arrays["indices"] = arrays["indices"].astype(np.int32)
        else:
            arrays["distances"] = arrays["distances"][:, :-1]
        np.savez(cache, **arrays)
        calls = self.count_parses(monkeypatch)
        for mode, parses in (("dense", []), ("knn-sparse", [str(feat)] * 2)):
            (tmp_path / mode / "run").mkdir()
            assert self.run(monkeypatch, capsys, tmp_path / mode / "run", "hit", feat,
                            profiles, mode) == want[mode]
            assert calls == parses
            calls.clear()

    @pytest.mark.parametrize("archive", [True, False], ids=["archive", "no archive"])
    def test_other_ids_than_the_features_exit_1(self, tmp_path, capsys, archive):
        feat, profiles, cache = self.analyze(tmp_path)
        if not archive:
            cache.unlink()
        header, first, *rest = profiles.read_text().splitlines(keepends=True)
        profiles.write_text(header + "other" + first[first.index(","):] + "".join(rest))
        out = tmp_path / "s.json"
        capsys.readouterr()
        assert cli.main(["select", str(feat), "--k", "4", "--profiles", str(profiles),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: profile ids do not match feature ids ({profiles})\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("suffix", ["csv", "fbin"])
    @pytest.mark.parametrize("mode, options", [
        ("dense", ()), ("knn-sparse", ()), ("knn-sparse", ("--n-lid", "10", "--k-hub", "5")),
    ], ids=["dense", "knn-sparse", "knn-sparse narrower"])
    def test_hit_parses_nothing_and_builds_no_graph(
        self, tmp_path, monkeypatch, capsys, suffix, mode, options
    ):
        feat, profiles, _ = self.analyze(tmp_path, suffix)
        want = self.parsed(monkeypatch, capsys, tmp_path, feat, profiles, mode, *options)

        def refused(*args, **kwargs):
            raise AssertionError("the archive serves the matrix and the graph")

        monkeypatch.setattr(features, "load_features", refused)
        monkeypatch.setattr(neighbors, "knn_graph", refused)
        got = self.run(monkeypatch, capsys, tmp_path, "hit", feat, profiles, mode, *options)
        assert got == want

    def test_narrower_graph_is_rebuilt_from_the_cached_matrix(
        self, tmp_path, monkeypatch, capsys
    ):
        feat, profiles, _ = self.analyze(tmp_path, "csv", "--n-lid", "10", "--k-hub", "5",
                                         "--m-div", "5")
        want = self.parsed(monkeypatch, capsys, tmp_path, feat, profiles, "knn-sparse")
        calls = self.count_parses(monkeypatch)
        assert self.run(monkeypatch, capsys, tmp_path, "hit", feat, profiles,
                        "knn-sparse") == want
        assert calls == []

    @pytest.mark.parametrize("miss", [
        "profile elsewhere", "edited features", "no values member", "float32 values",
        "values of fewer rows", "values of no column", "NaN value", "other ids",
    ])
    def test_miss_parses_and_writes_the_same_bytes(self, tmp_path, monkeypatch, capsys, miss):
        feat, profiles, cache = self.analyze(tmp_path)
        if miss == "profile elsewhere":
            elsewhere = tmp_path / "elsewhere"
            elsewhere.mkdir()
            profiles = elsewhere / "profile.csv"
            profiles.write_bytes((tmp_path / "analysis" / "profile.csv").read_bytes())
        elif miss == "edited features":
            m = features.load_features(feat)
            m.values[3, 0] += 0.5
            features.save_features(m, feat)
        else:
            with np.load(cache) as z:
                arrays = dict(z)
            values = arrays["values"]
            with_nan = values.copy()
            with_nan[0, 7] = np.nan
            arrays["values"] = {
                "no values member": None,
                "float32 values": values.astype(np.float32),
                "values of fewer rows": values[:-1],
                "values of no column": values[:, :0],
                "NaN value": with_nan,
                "other ids": values,
            }[miss]
            if arrays["values"] is None:  # the archive layout before the matrix
                del arrays["values"]
            if miss == "other ids":
                arrays["ids"] = np.array([f"z{i}" for i in range(len(arrays["ids"]))])
            np.savez(cache, **arrays)
        want = self.parsed(monkeypatch, capsys, tmp_path, feat, profiles)
        calls = self.count_parses(monkeypatch)
        assert self.run(monkeypatch, capsys, tmp_path, "miss", feat, profiles) == want
        assert calls == [str(feat)] * 2

    def test_faulty_feature_file_fails_as_without_archive(self, tmp_path, monkeypatch, capsys):
        feat, profiles, _ = self.analyze(tmp_path)
        feat.write_text(feat.read_text().replace(",", ",x", 1))
        assert cli.main(["select", str(feat), "--k", "4", "--profiles", str(profiles),
                         "--out", str(tmp_path / "s.json")]) == 1
        assert f"{feat}: row 1: could not convert string to float" in capsys.readouterr().err
        missing = tmp_path / "missing.csv"
        assert cli.main(["select", str(missing), "--k", "4", "--profiles", str(profiles),
                         "--out", str(tmp_path / "s.json")]) == 2
        assert str(missing) in capsys.readouterr().err
        assert cli.main(["select", str(tmp_path / "missing.txt"), "--k", "4", "--profiles",
                         str(profiles), "--out", str(tmp_path / "s.json")]) == 1
        assert "cannot infer feature format" in capsys.readouterr().err
        # the feature file is checked before the profile is read
        absent = str(tmp_path / "absent" / "profile.csv")
        assert cli.main(["select", str(tmp_path / "missing.txt"), "--k", "4", "--profiles",
                         absent, "--out", str(tmp_path / "s.json")]) == 1
        assert "cannot infer feature format" in capsys.readouterr().err
        assert cli.main(["select", str(missing), "--k", "4", "--profiles", absent,
                         "--out", str(tmp_path / "s.json")]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and absent not in err

    def test_fbin_values_round_trip_bit_identical(self, tmp_path):
        feat, _, cache = self.analyze(tmp_path, "fbin")
        with np.load(cache) as z:
            values = z["values"]
        parsed = features.load_features(feat).values
        assert values.dtype == np.float64
        assert values.view(np.uint64).tobytes() == parsed.view(np.uint64).tobytes()

    def test_one_final_product_per_process(self, workspace, tmp_path, monkeypatch):
        """A dense A is multiplied by y at the start of the solve and once at
        its end; the KKT residual, the rounding, the objective and the
        ranking share that last product."""
        products = []
        matmul = selector.DenseAffinity.__matmul__
        monkeypatch.setattr(selector.DenseAffinity, "__matmul__",
                            lambda a, y: products.append(1) or matmul(a, y))
        feat, profiles = str(workspace["features"]), str(workspace["analysis"] / "profile.csv")
        for argv in (
            ["select", feat, "--k", "4", "--out", str(tmp_path / "s.json")],
            ["rank", "--mode", "hub-first", "--features", feat, "--k", "4",
             "--profiles", profiles, "--out", str(tmp_path / "r.csv")],
        ):
            products.clear()
            assert cli.main(argv) == 0
            assert len(products) == 2, argv[0]


class TestDenseAffinityOnDemand:
    """Dense select and solver-mode rank compute the rows and products of A
    they read, and build the whole matrix only once that stops paying, with
    the same bytes either way."""

    COMMANDS = (
        ["select", "{feat}", "--k", "4", "--out", "hub.json", "--trace", "hub.csv"],
        ["select", "{feat}", "--k", "4", "--init", "lid-first", "--step", "paper",
         "--out", "lid.json", "--trace", "lid.csv"],
        ["select", "{feat}", "--k", "4", "--init", "uniform",
         "--out", "uniform.json", "--trace", "uniform.csv"],
        ["rank", "--mode", "hub-first", "--features", "{feat}", "--k", "4", "--out", "hub_run.csv"],
        ["rank", "--mode", "lid-first", "--features", "{feat}", "--k", "5", "--step", "paper",
         "--out", "lid_run.csv"],
    )

    @staticmethod
    def written(monkeypatch, capsys, run, commands):
        """Files and stdout of ``commands`` run in the fresh directory ``run``."""
        run.mkdir()
        monkeypatch.chdir(run)
        capsys.readouterr()
        for argv in commands:
            assert cli.main(argv) == 0
        return {p.name: p.read_bytes() for p in sorted(run.iterdir())}, capsys.readouterr().out

    @staticmethod
    def no_matrix(monkeypatch):
        monkeypatch.setattr(selector, "packed_distances",
                            lambda *args: pytest.fail("built the whole matrix"))

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_backings_write_the_same_bytes(self, workspace, tmp_path, monkeypatch, capsys, metric):
        commands = [[a.format(feat=workspace["features"]) for a in argv] + ["--metric", metric]
                    for argv in self.COMMANDS]
        outputs = []
        for share in (0.0, np.inf):  # the matrix at the first read, or never
            monkeypatch.setattr(selector, "_ON_DEMAND_SHARE", share)
            if share == np.inf:
                self.no_matrix(monkeypatch)
            outputs.append(self.written(monkeypatch, capsys, tmp_path / str(share), commands))
        assert outputs[0] == outputs[1]

    def test_hub_first_rank_and_default_select_build_no_matrix(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        feat, prof = str(workspace["features"]), str(workspace["analysis"] / "profile.csv")
        commands = [
            ["select", feat, "--k", "5", "--profiles", prof, "--out", "s.json", "--trace", "t.csv"],
            ["rank", "--mode", "hub-first", "--features", feat, "--k", "5", "--profiles", prof,
             "--out", "run.csv"],
        ]
        share = selector._ON_DEMAND_SHARE
        monkeypatch.setattr(selector, "_ON_DEMAND_SHARE", 0.0)
        built = self.written(monkeypatch, capsys, tmp_path / "built", commands)
        monkeypatch.setattr(selector, "_ON_DEMAND_SHARE", share)
        self.no_matrix(monkeypatch)
        assert self.written(monkeypatch, capsys, tmp_path / "on_demand", commands) == built

    @pytest.mark.parametrize("command", ["select", "rank"])
    def test_distance_beyond_the_float64_maximum_exits_1(self, tmp_path, capsys, command):
        """A hub-first solve that reads no pair whose distance overflows
        still fails, with the message of the full pass."""
        m = random_matrix(np.random.default_rng(7), 40, 4)
        safe = tmp_path / "safe.csv"
        features.save_features(m, safe)
        assert cli.main(["analyze", str(safe), "--out", str(tmp_path / "a"),
                         "--metric", "euclidean"]) == 0
        prof = tmp_path / "a" / "profile.csv"
        # the two least popular fragments, 3e308 apart: no hub-first start holds them
        far = np.argsort(stats.load_profile_csv(prof).hubness.scores, kind="stable")[:2]
        values = m.values.copy()
        values[far] = 0.0
        values[far, 0] = [1.5e308, -1.5e308]
        over = tmp_path / "over.csv"
        features.save_features(features.FeatureMatrix(m.ids, values), over)
        argv = {
            "select": ["select", str(over), "--out", str(tmp_path / "s.json")],
            "rank": ["rank", "--mode", "hub-first", "--features", str(over),
                     "--out", str(tmp_path / "r.csv")],
        }[command]
        capsys.readouterr()
        assert cli.main(argv + ["--k", "3", "--profiles", str(prof), "--metric", "euclidean"]) == 1
        assert capsys.readouterr().err == (
            "error: a euclidean distance exceeds the float64 maximum (about 1.8e308)\n"
        )
        assert not (tmp_path / "s.json").exists() and not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("part", ["row", "product"])
    def test_out_of_memory_in_a_row_or_a_product_exits_1(
        self, workspace, tmp_path, monkeypatch, capsys, part
    ):
        n = workspace["matrix"].n
        distances = neighbors._distances
        rows = []
        # the start's product computes the rows of its five fragments first,
        # then the solver computes the rows it reads beyond them
        failing = 1 if part == "product" else 6

        def fails(x, y, metric):
            if (len(x), len(y)) == (1, n):
                rows.append(x)
                if len(rows) == failing:
                    raise MemoryError("Unable to allocate 320 B")
            return distances(x, y, metric)

        monkeypatch.setattr(neighbors, "_distances", fails)
        out = tmp_path / "run.csv"
        argv = ["rank", "--mode", "hub-first", "--features", str(workspace["features"]),
                "--k", "5", "--profiles", str(workspace["analysis"] / "profile.csv"),
                "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: out of memory (Unable to allocate 320 B)\n"
        assert not out.exists()


class TestRank:
    def test_hub_baseline_matches_library(self, workspace, tmp_path):
        out = tmp_path / "run.csv"
        args = [
            "rank", "--mode", "hub", "--out", str(out),
            "--profiles", str(workspace["analysis"] / "profile.csv"),
        ]
        assert cli.main(args) == 0
        got = evaluation.load_run(out)[0]
        profile = stats.load_profile_csv(workspace["analysis"] / "profile.csv")
        want = evaluation.baseline_rank(profile, "hub")
        assert got.items == want.items
        assert got.query_id == "all"

    def test_random_seed_determinism(self, workspace, tmp_path):
        prof = str(workspace["analysis"] / "profile.csv")
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        base = ["rank", "--mode", "random", "--profiles", prof]
        assert cli.main(base + ["--seed", "5", "--out", str(a)]) == 0
        assert cli.main(base + ["--seed", "5", "--out", str(b)]) == 0
        assert cli.main(base + ["--seed", "6", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()
        assert sorted(evaluation.load_run(c)[0].items) == sorted(
            evaluation.load_run(a)[0].items
        )

    def test_oracle_mode(self, workspace, tmp_path, capsys):
        prof = str(workspace["analysis"] / "profile.csv")
        ids = workspace["matrix"].ids
        scores = tmp_path / "scores.csv"
        rng = np.random.default_rng(8)
        vals = rng.integers(0, 16, size=len(ids))
        scores.write_text(
            "fragment_id,score\n"
            + "".join(f"{i},{v}\n" for i, v in zip(ids, vals))
        )
        out = tmp_path / "run.csv"
        args = [
            "rank", "--mode", "oracle", "--profiles", prof,
            "--scores", str(scores), "--out", str(out),
        ]
        assert cli.main(args) == 0
        items = evaluation.load_run(out)[0].items
        assert items[0] == ids[int(np.argmax(vals))]

        assert cli.main(
            ["rank", "--mode", "oracle", "--profiles", prof, "--out", str(out)]
        ) == 1
        assert "oracle" in capsys.readouterr().err

    def test_unknown_mode_exits_1(self, workspace, tmp_path, capsys):
        args = [
            "rank", "--mode", "pagerank", "--out", str(tmp_path / "r.csv"),
            "--profiles", str(workspace["analysis"] / "profile.csv"),
        ]
        assert cli.main(args) == 1
        assert "unknown mode" in capsys.readouterr().err

    def test_baseline_requires_profiles(self, tmp_path, capsys):
        args = ["rank", "--mode", "hub", "--out", str(tmp_path / "r.csv")]
        assert cli.main(args) == 1
        assert "--profiles" in capsys.readouterr().err

    def test_solver_mode_prefix_matches_select(self, workspace, tmp_path, capsys):
        out_sel = tmp_path / "solution.json"
        capsys.readouterr()
        assert cli.main(
            ["select", str(workspace["features"]), "--k", "4", "--out", str(out_sel)]
        ) == 0
        selected = capsys.readouterr().out.split()

        out_run = tmp_path / "run.csv"
        args = [
            "rank", "--mode", "hub-first", "--features", str(workspace["features"]),
            "--k", "4", "--out", str(out_run),
        ]
        assert cli.main(args) == 0
        items = evaluation.load_run(out_run)[0].items
        assert len(items) == 40
        assert items[:4] == selected

    def test_query_id_with_comma_exits_1(self, workspace, tmp_path, capsys):
        out = tmp_path / "run.csv"
        args = [
            "rank", "--mode", "hub", "--query-id", "q,1", "--out", str(out),
            "--profiles", str(workspace["analysis"] / "profile.csv"),
        ]
        assert cli.main(args) == 1
        assert "'q,1'" in capsys.readouterr().err
        assert not out.exists()

    def test_query_id_of_bytes_not_utf8_exits_1_before_writing(self, workspace, tmp_path, capsys):
        """Argument bytes that are not UTF-8 reach Python as lone surrogates,
        which no table can hold: exit 1 and no partial run file."""
        out = tmp_path / "run.csv"
        args = [
            "rank", "--mode", "hub", "--query-id", "q\udcff", "--out", str(out),
            "--profiles", str(workspace["analysis"] / "profile.csv"),
        ]
        assert cli.main(args) == 1
        assert capsys.readouterr().err == (
            "error: query id 'q\\udcff' is not encodable as UTF-8\n"
        )
        assert not out.exists()

    def test_solver_mode_requires_features(self, tmp_path, capsys):
        args = ["rank", "--mode", "hub-first", "--out", str(tmp_path / "r.csv")]
        assert cli.main(args) == 1
        assert "--features" in capsys.readouterr().err

    def test_negative_seed_exits_1(self, workspace, tmp_path, capsys):
        out = tmp_path / "run.csv"
        args = ["rank", "--mode", "random", "--seed", "-1", "--out", str(out),
                "--profiles", str(workspace["analysis"] / "profile.csv")]
        assert cli.main(args) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()


@pytest.mark.parametrize("command", ["select", "rank"])
def test_unknown_affinity_fails_before_any_file_is_read(
    workspace, tmp_path, monkeypatch, capsys, command
):
    def refused(*args, **kwargs):
        raise AssertionError("an unknown affinity mode needs no features")

    monkeypatch.setattr(features, "load_features", refused)
    feat, out = str(workspace["features"]), str(tmp_path / "out")
    argv = {
        "select": ["select", feat, "--k", "4", "--mode", "bogus", "--out", out],
        "rank": ["rank", "--mode", "hub-first", "--features", feat, "--k", "4",
                 "--affinity", "bogus", "--out", out],
    }[command]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: unknown affinity mode 'bogus'\n"


@pytest.mark.parametrize("command", ["analyze", "select"])
def test_one_fragment_collection_names_the_count(tmp_path, capsys, command):
    feat = tmp_path / "one.csv"
    feat.write_text("a,1.0,0.0\n")
    argv = {
        "analyze": ["analyze", str(feat), "--out", str(tmp_path / "out")],
        "select": ["select", str(feat), "--k", "1", "--linear",
                   "--out", str(tmp_path / "s.json")],
    }[command]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: need at least 2 fragments, got 1\n"


class TestEval:
    def write_run(self, tmp_path):
        path = tmp_path / "run.csv"
        evaluation.save_run(
            path,
            [
                Ranking(query_id="q1", items=["a", "b", "c"]),
                Ranking(query_id="q2", items=["b", "a"]),
            ],
        )
        return path

    def test_map_report(self, tmp_path, capsys):
        run = self.write_run(tmp_path)
        gt = tmp_path / "gt.csv"
        gt.write_text("query_id,fragment_id\nq1,a\nq1,c\nq2,b\n")
        report = tmp_path / "report.json"
        capsys.readouterr()
        code = cli.main(
            ["eval", "--run", str(run), "--gt", str(gt), "--out", str(report)]
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["map"] == pytest.approx(11.0 / 12.0, abs=1e-12)
        assert printed["per_query"]["q1"] == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert json.loads(report.read_text()) == printed

    def test_subjective_report(self, tmp_path, capsys):
        run = tmp_path / "run.csv"
        evaluation.save_run(run, Ranking(query_id="q1", items=["a", "b"]))
        scores = tmp_path / "scores.csv"
        scores.write_text("fragment_id,score\na,3\nb,9\n")
        capsys.readouterr()
        code = cli.main(
            ["eval", "--run", str(run), "--kind", "subjective", "--scores", str(scores)]
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["mean_subjective"] == pytest.approx(6.0, abs=1e-12)

    def test_missing_query_names_it(self, tmp_path, capsys):
        run = self.write_run(tmp_path)
        gt = tmp_path / "gt.csv"
        gt.write_text("query_id,fragment_id\nq1,a\n")
        assert cli.main(["eval", "--run", str(run), "--gt", str(gt)]) == 1
        assert "q2" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, option", [("map", "--gt"), ("subjective", "--scores")])
    def test_kind_without_its_table_exits_1(self, tmp_path, capsys, kind, option):
        run = self.write_run(tmp_path)
        report = tmp_path / "report.json"
        assert cli.main(["eval", "--run", str(run), "--kind", kind, "--out", str(report)]) == 1
        assert capsys.readouterr().err == f"error: kind '{kind}' requires {option}\n"
        assert not report.exists()

    def test_missing_run_exits_2(self, tmp_path, capsys):
        code = cli.main(["eval", "--run", str(tmp_path / "absent.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


_DIALECT = "contains ',', '\\r', '\\n' or '\\x00'"
_PROFILE = "id,N_k,category,lid,degenerate,diversity\n"


@pytest.mark.parametrize("name, content, command, fault", [
    ("bad.csv", "a,1.0\nb\x00,2.0\n", "select", f"row 2: id 'b\\x00' {_DIALECT}"),
    ("bad.csv", "a,1.0\n\nb,2.0\na,3.0\n", "select", "row 4: duplicate id 'a'"),
    ("bad.csv", "a,1.0\nb,inf\n", "select", "row 2: non-finite value"),
    ("bad.csv", "a,1.0\nb,oops\n", "select",
     "row 2: could not convert string to float: 'oops'"),
    ("bad.fbin", (["a", "b", "a"], np.eye(3)), "select", "row 3: duplicate id 'a'"),
    ("bad.fbin", (["a", "b", "c"], [[1, 0], [np.inf, 0], [0, 1]]), "select",
     "row 2: non-finite value"),
    ("bad.fbin", (["a", "b,c"], np.eye(2)), "select", f"row 2: id 'b,c' {_DIALECT}"),
    ("bad.csv", "a,1.0\nb\x00,2.0\nc,3.0\n", "fuse", f"row 2: id 'b\\x00' {_DIALECT}"),
    ("run.csv", "q1,1,a\nq1,2,a\n", "eval", "duplicate item 'a' in ranking 'q1'"),
    ("run.csv", "q\x00,1,a\n", "eval", f"query id 'q\\x00' {_DIALECT}"),
    ("bad.csv", b"a\xc3\xa9,1.0\n\xff,2.0\n", "select", "row 2: not valid UTF-8"),
    ("profile.csv", b"id,N_k,category,lid,degenerate,diversity\na,1,normal,2.0,0,0.5\n"
     b"b\xff,1,normal,2.0,0,0.5\n", "rank", "row 3: not valid UTF-8"),
    ("profile.csv", "id,N_k,category,lid,degenerate,diversity\na,1,normal,2.0,0,0.5\n\n"
     "a,1,normal,2.0,0,0.5\n", "rank", "row 4: duplicate id 'a'"),
    ("profile.csv", "a,1,normal,2.0,0,0.5\nb\x00,1,normal,2.0,0,0.5\n", "rank",
     f"row 2: id 'b\\x00' {_DIALECT}"),
    ("bad.fbin", b"HLF1" + struct.pack("<II", 2, 1) + struct.pack("<2f", 1, 2)
     + b"\x01\x00a\x01\x00\xff", "select", "row 2: id is not valid UTF-8"),
    ("bad.csv", "a,1.0\nb\n", "select", "row 2: expected 'id,v1,...,vd', got 1 field(s)"),
    ("profile.csv", _PROFILE + "a,1,normal,2.0,0\n", "rank", "row 2: expected 6 fields, got 5"),
    ("profile.csv", _PROFILE, "rank", "empty profile file"),
    ("run.csv", "query_id,rank,fragment_id\n", "eval", "empty run file"),
    ("profile.csv", _PROFILE + "a,-1,weird,nan,2,x\n", "rank",
     "row 2: could not convert string to float: 'x'"),
    ("profile.csv", _PROFILE + "a,100000000000000000000,normal,2.0,0,0.5\n", "rank",
     "row 2: N_k '100000000000000000000' is out of range"),
    ("profile.csv", _PROFILE + "a,100000000000000000000,normal,2.0,0,0.5\n",
     "select --profiles", "row 2: N_k '100000000000000000000' is out of range"),
], ids=[
    "csv id with NUL", "csv duplicate after blank line", "csv inf", "csv bad token",
    "fbin duplicate", "fbin non-finite", "fbin id with comma", "fuse second file",
    "run duplicate item", "run query id with NUL",
    "csv not utf-8", "profile not utf-8", "profile duplicate id", "profile id with NUL",
    "fbin id not utf-8", "csv one field", "profile short row", "profile empty", "run empty",
    "profile several faults", "profile N_k beyond int64", "select profile N_k beyond int64",
])
def test_rejected_input_names_its_file(tmp_path, capsys, name, content, command, fault):
    """One line, ``error: <path>: <fault>``, exit 1 and no traceback; the
    fault names the file line (blank lines count) where it has one."""
    bad = tmp_path / name
    if isinstance(content, str):
        bad.write_text(content, encoding="utf-8")
    elif isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        write_fbin(bad, *content)
    good = tmp_path / "good.csv"
    good.write_text("a,1.0\nb,2.0\nc,3.0\n")
    out = str(tmp_path / "out.json")
    argv = {
        "select": ["select", str(bad), "--k", "2", "--out", out],
        "fuse": ["fuse", str(good), str(bad), "--out", str(tmp_path / "fused.csv")],
        "eval": ["eval", "--run", str(bad)],
        "rank": ["rank", "--mode", "hub", "--profiles", str(bad), "--out", out],
        "select --profiles": ["select", str(good), "--k", "2", "--out", out,
                              "--profiles", str(bad)],
    }[command]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}: {fault}\n"


def test_out_of_memory_exits_1(workspace, tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 18.6 GiB")

    monkeypatch.setattr(selector, "build_problem", exhausted)
    args = ["select", str(workspace["features"]), "--k", "5",
            "--out", str(tmp_path / "solution.json")]
    assert cli.main(args) == 1
    assert "error: out of memory (Unable to allocate 18.6 GiB)" in capsys.readouterr().err


def test_failing_scan_product_exits_1_and_leaves_no_thread(
    workspace, tmp_path, monkeypatch, capsys
):
    """A MemoryError in a block product that the scan's worker computes
    reaches ``main``: exit 1, no solution, no thread left over."""
    n = workspace["matrix"].n
    monkeypatch.setattr(neighbors, "_BLOCK_ENTRIES", 7 * n)  # 7-row blocks
    approximate = neighbors._approximate
    workers = []

    def later_block_fails(Y, sq, s, e, out):
        if s > 0:  # every block after the first is the worker's
            workers.append(threading.current_thread() is not threading.main_thread())
            raise MemoryError("Unable to allocate 2.2 KiB")
        return approximate(Y, sq, s, e, out)

    monkeypatch.setattr(neighbors, "_approximate", later_block_fails)
    before = threading.active_count()
    out = tmp_path / "solution.json"
    args = ["select", str(workspace["features"]), "--k", "5", "--out", str(out),
            "--mode", "knn-sparse"]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "error: out of memory (Unable to allocate 2.2 KiB)\n"
    assert workers == [True]
    assert not out.exists()
    assert threading.active_count() == before


def test_failing_affinity_block_exits_1_and_leaves_no_thread(
    workspace, tmp_path, monkeypatch, capsys
):
    """A MemoryError in one row block of the packed pass reaches ``main``
    through the thread pool: exit 1, no solution, no thread left over."""
    n = workspace["matrix"].n
    monkeypatch.setattr(neighbors, "_SELF_BLOCK_ENTRIES", 4 * n)  # 4-row blocks
    monkeypatch.setattr(neighbors, "_workers", lambda: 2)
    distances = neighbors._distances

    def second_block_fails(x, y, metric):
        if len(y) == n - 4:
            raise MemoryError("Unable to allocate 1.0 MiB")
        return distances(x, y, metric)

    monkeypatch.setattr(neighbors, "_distances", second_block_fails)
    before = threading.active_count()
    out = tmp_path / "solution.json"
    args = ["select", str(workspace["features"]), "--k", "5", "--out", str(out),
            "--mode", "dense", "--profiles", str(workspace["analysis"] / "profile.csv"),
            "--init", "uniform"]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "error: out of memory (Unable to allocate 1.0 MiB)\n"
    assert not out.exists()
    assert threading.active_count() == before

"""End-to-end checks of the command line, driving ``cli.main`` directly."""

import json
import os
import subprocess
import sys
import threading
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
    """--threads is accepted and ignored: the scan is one serial loop over
    row blocks, so no thread starts and the bytes match --threads 1."""

    @pytest.mark.parametrize("command", [
        ["analyze", "{feat}", "--out", "out"],
        ["knn", "{feat}", "--k", "7", "--out", "g.csv"],
        ["knn", "{feat}", "--k", "7", "--out", "g.npz"],
    ], ids=["analyze", "knn csv", "knn npz"])
    def test_starts_no_thread_and_matches_one_thread(
        self, workspace, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.setattr(neighbors, "_BLOCK_ENTRIES", 7 * workspace["matrix"].n)

        def no_thread(self):
            raise AssertionError("the kNN scan started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        written = {}
        for threads in ("1", "2"):
            run = tmp_path / threads
            run.mkdir()
            monkeypatch.chdir(run)
            argv = [a.format(feat=workspace["features"]) for a in command]
            capsys.readouterr()
            assert cli.main(argv + ["--threads", threads]) == 0
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
        "damage", ["other ids", "pickled ids", "index out of range", "shape", "dtype"]
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
            else:
                arrays["distances"] = arrays["distances"].astype(np.float32)
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
        g = neighbors.load_graph(graph, m.ids, "euclidean")
        assert np.isfinite(g.distances).all() and (g.distances > 0).all()


def test_import_loads_no_scipy():
    """scipy costs ~0.5 s of start-up that commands computing no distance
    and building no problem never need."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import hubsel.cli, sys; assert not any(m.startswith('scipy') for m in sys.modules)"
    subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)), check=True
    )


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
        assert np.array_equal(problems[0].a.toarray(), np.maximum(expected, expected.T))


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

    def test_solver_mode_requires_features(self, tmp_path, capsys):
        args = ["rank", "--mode", "hub-first", "--out", str(tmp_path / "r.csv")]
        assert cli.main(args) == 1
        assert "--features" in capsys.readouterr().err


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

    def test_missing_run_exits_2(self, tmp_path, capsys):
        code = cli.main(["eval", "--run", str(tmp_path / "absent.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def test_out_of_memory_exits_1(workspace, tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 18.6 GiB")

    monkeypatch.setattr(selector, "build_problem", exhausted)
    args = ["select", str(workspace["features"]), "--k", "5",
            "--out", str(tmp_path / "solution.json")]
    assert cli.main(args) == 1
    assert "error: out of memory (Unable to allocate 18.6 GiB)" in capsys.readouterr().err

import re

import numpy as np
import pytest

from hubsel import table
from hubsel.evaluation import (
    RUN_HEADER,
    Ranking,
    average_precision_at_k,
    baseline_rank,
    load_ground_truth,
    load_run,
    load_scores,
    map_at_k,
    mean_subjective_at_k,
    save_run,
)
from hubsel.stats import HubnessProfile, LidProfile, StatProfile, DiversityProfile
from helpers import ap_reference


def ranking(items):
    return Ranking(query_id="q", items=list(items))


def profile_from(scores, lids):
    scores = np.asarray(scores, dtype=np.int64)
    n = len(scores)
    ids = [f"f{i}" for i in range(n)]
    return StatProfile(
        ids=ids,
        hubness=HubnessProfile(k=3, scores=scores, categories=np.array(["normal"] * n)),
        lid=LidProfile(n_nbr=3, lids=np.asarray(lids, dtype=float), degenerate=np.zeros(n, dtype=bool)),
        diversity=DiversityProfile(m_nbr=3, values=np.zeros(n)),
    )


class TestAveragePrecision:
    def test_perfect(self):
        r = ranking(["a", "b", "c"])
        assert average_precision_at_k(r, {"a", "b", "c"}, 3) == 1.0

    def test_none_relevant_in_list(self):
        r = ranking(["a", "b", "c"])
        assert average_precision_at_k(r, {"x"}, 3) == 0.0

    def test_worked_example(self):
        # hits at positions 1 and 3: (1/1 + 2/3) / 2 = 5/6
        r = ranking(["a", "b", "c"])
        got = average_precision_at_k(r, {"a", "c"}, 3)
        assert got == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_empty_relevant(self):
        r = ranking(["a", "b"])
        assert average_precision_at_k(r, set(), 2) == 0.0

    def test_depth_truncates(self):
        r = ranking(["a", "b", "c", "d"])
        # at depth 2 only "a" counts; denominator min(|rel|, 2) = 2
        assert average_precision_at_k(r, {"a", "d"}, 2) == pytest.approx(0.5, abs=1e-12)

    def test_denominator_capped_by_depth(self):
        r = ranking(["a", "b"])
        # 3 relevant items but depth 2: perfect prefix scores 1.0
        assert average_precision_at_k(r, {"a", "b", "x"}, 2) == pytest.approx(1.0, abs=1e-12)

    def test_swap_upward_never_hurts(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(4, 12))
            items = [f"f{i}" for i in range(n)]
            perm = list(rng.permutation(items))
            relevant = set(rng.choice(items, size=max(1, n // 3), replace=False))
            base = average_precision_at_k(ranking(perm), relevant, n)
            # move one relevant item up a slot
            pos = [i for i, it in enumerate(perm) if it in relevant and i > 0]
            if not pos:
                continue
            i = pos[0]
            swapped = perm.copy()
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            assert average_precision_at_k(ranking(swapped), relevant, n) >= base - 1e-15

    def test_matches_reference(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            n = int(rng.integers(5, 20))
            items = [f"f{i}" for i in range(n)]
            perm = list(rng.permutation(items))
            relevant = set(rng.choice(items, size=int(rng.integers(1, n)), replace=False))
            depth = int(rng.integers(1, n + 1))
            assert average_precision_at_k(ranking(perm), relevant, depth) == pytest.approx(
                ap_reference(perm, relevant, depth), abs=1e-12
            )

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ranking(["a", "a"])


class TestMap:
    def test_singleton(self):
        runs = [ranking(["a", "b"])]
        gt = {"q": {"a"}}
        assert map_at_k(runs, gt, 2) == 1.0

    def test_mean_of_two(self):
        r1 = Ranking(query_id="q1", items=["a", "b"])
        r2 = Ranking(query_id="q2", items=["b", "a"])
        gt = {"q1": {"a"}, "q2": {"a"}}
        # q1 AP = 1.0; q2 AP = 0.5
        assert map_at_k([r1, r2], gt, 2) == pytest.approx(0.75, abs=1e-12)

    def test_missing_query_error(self):
        runs = [Ranking(query_id="q9", items=["a"])]
        with pytest.raises(ValueError, match="q9"):
            map_at_k(runs, {"q1": {"a"}}, 1)

    def test_random_against_reference(self):
        rng = np.random.default_rng(33)
        items = [f"f{i}" for i in range(15)]
        runs, gt, refs = [], {}, []
        for q in range(10):
            perm = list(rng.permutation(items))
            rel = set(rng.choice(items, size=4, replace=False))
            qid = f"q{q}"
            runs.append(Ranking(query_id=qid, items=perm))
            gt[qid] = rel
            refs.append(ap_reference(perm, rel, 10))
        assert map_at_k(runs, gt, 10) == pytest.approx(float(np.mean(refs)), abs=1e-12)


class TestSubjective:
    def test_all_max(self):
        r = ranking(["a", "b"])
        scores = {"a": 15.0, "b": 15.0}
        assert mean_subjective_at_k(r, scores, 2) == 15.0

    def test_mixed(self):
        r = ranking(["a", "b", "c"])
        scores = {"a": 0.0, "b": 15.0, "c": 0.0}
        assert mean_subjective_at_k(r, scores, 3) == pytest.approx(5.0, abs=1e-12)

    def test_depth_window(self):
        rng = np.random.default_rng(34)
        items = [f"f{i}" for i in range(50)]
        scores = {it: float(rng.integers(0, 16)) for it in items}
        r = ranking(items)
        depth = 40
        expect = float(np.mean([scores[it] for it in items[:depth]]))
        assert mean_subjective_at_k(r, scores, depth) == pytest.approx(expect, abs=1e-12)

    def test_unscored_item_error(self):
        r = ranking(["a", "zz"])
        with pytest.raises(ValueError, match="zz"):
            mean_subjective_at_k(r, {"a": 3.0}, 2)


class TestBaselines:
    def test_hub_descending(self):
        prof = profile_from([3, 9, 1], [1.0, 1.0, 1.0])
        r = baseline_rank(prof, "hub")
        assert r.items == ["f1", "f0", "f2"]

    def test_lid_ascending(self):
        prof = profile_from([0, 0, 0], [30.0, 10.0, 20.0])
        r = baseline_rank(prof, "lid")
        assert r.items == ["f1", "f2", "f0"]

    def test_hub_tie_by_row_order(self):
        prof = profile_from([5, 5, 2], [1.0, 1.0, 1.0])
        r = baseline_rank(prof, "hub")
        assert r.items == ["f0", "f1", "f2"]

    def test_random_seed_determinism(self):
        prof = profile_from([1, 2, 3, 4, 5], np.arange(5.0))
        a = baseline_rank(prof, "random", seed=42)
        b = baseline_rank(prof, "random", seed=42)
        c = baseline_rank(prof, "random", seed=43)
        assert a.items == b.items
        assert sorted(c.items) == sorted(a.items)

    def test_random_is_permutation(self):
        prof = profile_from(list(range(8)), np.arange(8.0))
        r = baseline_rank(prof, "random", seed=0)
        assert sorted(r.items) == [f"f{i}" for i in range(8)]

    def test_oracle_descending_scores(self):
        prof = profile_from([0, 0, 0], [1.0, 2.0, 3.0])
        scores = {"f0": 2.0, "f1": 9.0, "f2": 4.0}
        r = baseline_rank(prof, "oracle", scores=scores)
        assert r.items == ["f1", "f2", "f0"]

    def test_oracle_requires_scores(self):
        prof = profile_from([0, 0], [1.0, 2.0])
        with pytest.raises(ValueError, match="oracle"):
            baseline_rank(prof, "oracle")

    def test_unknown_mode(self):
        prof = profile_from([0, 0], [1.0, 2.0])
        with pytest.raises(ValueError, match="mode"):
            baseline_rank(prof, "centroid")

    def test_query_id_label(self):
        prof = profile_from([1, 2], [1.0, 2.0])
        r = baseline_rank(prof, "hub", query_id="batch7")
        assert r.query_id == "batch7"


class TestFiles:
    def test_ground_truth_round_trip(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("query_id,fragment_id\nq1,a\nq1,b\nq2,a\n")
        gt = load_ground_truth(path)
        assert gt == {"q1": {"a", "b"}, "q2": {"a"}}

    def test_ground_truth_without_header(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("q1,a\nq2,b\n")
        gt = load_ground_truth(path)
        assert gt == {"q1": {"a"}, "q2": {"b"}}

    def test_scores_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("fragment_id,score\na,0\nb,15\nc,7.5\n")
        scores = load_scores(path)
        assert scores == {"a": 0.0, "b": 15.0, "c": 7.5}

    def test_scores_out_of_range(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("fragment_id,score\na,16\n")
        with pytest.raises(ValueError, match="outside"):
            load_scores(path)

    def test_scores_negative(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("fragment_id,score\na,-1\n")
        with pytest.raises(ValueError, match="outside"):
            load_scores(path)

    def test_run_round_trip(self, tmp_path):
        runs = [
            Ranking(query_id="q1", items=["a", "b", "c"]),
            Ranking(query_id="q2", items=["c", "a"]),
        ]
        path = tmp_path / "run.csv"
        save_run(path, runs)
        lines = path.read_text().splitlines()
        assert lines[0] == "query_id,rank,fragment_id"
        assert lines[1] == "q1,1,a"
        back = load_run(path)
        assert [r.query_id for r in back] == ["q1", "q2"]
        assert back[0].items == ["a", "b", "c"]
        assert back[1].items == ["c", "a"]

    def test_whitespace_only_lines_skipped(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("query_id,rank,fragment_id\nq1,1,a\n  \t\nq1,2,b\n")
        assert load_run(path)[0].items == ["a", "b"]

    def test_run_rank_gap_rejected(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text(f"{RUN_HEADER}\nq1,1,a\nq1,3,b\n")
        with pytest.raises(ValueError, match="ranks for query 'q1' are not contiguous from 1"):
            load_run(path)

    @pytest.mark.parametrize("loader, text, detail", [
        (load_run, "query_id,rank,fragment_id\nq1,1,a\nq1,x,b\n", "invalid literal"),
        (load_scores, "fragment_id,score\na,1\nb,abc\n", "could not convert"),
        (load_scores, "fragment_id,score\na,1\na,15\n", "repeated fragment id 'a'"),
    ], ids=["run rank", "score", "score repeated id"])
    def test_unparsable_field_names_path_and_row(self, tmp_path, loader, text, detail):
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: row 3: {detail}"):
            loader(path)

    def test_report_json(self, tmp_path):
        out = tmp_path / "report.json"
        table.write_json(out, {"metric": "map", "depth": 10, "value": 0.75})
        import json

        data = json.loads(out.read_text())
        assert data["value"] == 0.75
        assert out.read_text().endswith("\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_ground_truth(tmp_path / "nope.csv")

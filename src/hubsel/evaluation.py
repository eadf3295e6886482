"""Ranking quality metrics and profile-driven baseline rankers.

Rankings are scored with truncated average precision against binary
relevance sets, or with the mean of human subjective scores (0 to 15)
over the top K items.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hubsel import table
from hubsel.stats import StatProfile


@dataclass
class Ranking:
    """Ordered list of fragment ids produced for one query."""

    query_id: str
    items: list[str]

    def __post_init__(self):
        table.check_id(self.query_id, "query id")
        seen = set()
        for item in self.items:
            if item in seen:
                raise ValueError(f"duplicate item '{item}' in ranking '{self.query_id}'")
            seen.add(item)


def average_precision_at_k(ranking: Ranking, relevant, depth: int) -> float:
    """Truncated average precision of one ranking.

    Sums precision at every relevant position within the top ``depth``
    and divides by min(|relevant|, depth). An empty relevant set scores 0.
    """
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    rel = set(relevant)
    if not rel:
        return 0.0
    hits = 0
    total = 0.0
    for pos, item in enumerate(ranking.items[:depth], start=1):
        if item in rel:
            hits += 1
            total += hits / pos
    return total / min(len(rel), depth)


def average_precisions(rankings: list[Ranking], ground_truth: dict, depth: int) -> dict:
    """AP@depth of every ranking, keyed by its query id, in ranking order.

    Raises
    ------
    ValueError
        If a ranking's query has no ground-truth entry, or two rankings
        share a query id.
    """
    per_query: dict[str, float] = {}
    for r in rankings:
        if r.query_id not in ground_truth:
            raise ValueError(f"missing ground truth for query '{r.query_id}'")
        if r.query_id in per_query:
            raise ValueError(f"more than one ranking for query '{r.query_id}'")
        per_query[r.query_id] = average_precision_at_k(r, ground_truth[r.query_id], depth)
    return per_query


def map_at_k(rankings: list[Ranking], ground_truth: dict, depth: int) -> float:
    """Mean of :func:`average_precisions` over all rankings."""
    if not rankings:
        raise ValueError("map needs at least one ranking")
    per_query = average_precisions(rankings, ground_truth, depth)
    return sum(per_query.values()) / len(per_query)


def mean_subjective_at_k(ranking: Ranking, scores: dict, depth: int) -> float:
    """Mean subjective score over the top min(depth, len) items.

    Raises
    ------
    ValueError
        If any item in the evaluated prefix has no score.
    """
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    top = ranking.items[:depth]
    if not top:
        raise ValueError(f"ranking '{ranking.query_id}' is empty")
    for item in top:
        if item not in scores:
            raise ValueError(f"no subjective score for item '{item}'")
    return sum(scores[item] for item in top) / len(top)


BASELINE_MODES = ("hub", "lid", "random", "oracle")


def baseline_rank(
    profile: StatProfile,
    mode: str,
    seed: int = 0,
    scores: dict | None = None,
    query_id: str = "all",
) -> Ranking:
    """Rank every fragment of a profile with a simple baseline.

    Modes: ``hub`` sorts by descending k-occurrence, ``lid`` by ascending
    LID, ``random`` is a shuffle seeded by ``seed`` >= 0, ``oracle``
    sorts by descending subjective score (requires ``scores``). Ties fall
    back to the smaller fragment index.
    """
    ids = profile.ids
    n = len(ids)
    idx = np.arange(n)
    if mode == "hub":
        order = np.lexsort((idx, -profile.hubness.scores))
    elif mode == "lid":
        order = np.lexsort((idx, profile.lid.lids))
    elif mode == "random":
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        order = np.random.default_rng(seed).permutation(n)
    elif mode == "oracle":
        if scores is None:
            raise ValueError("oracle mode requires subjective scores")
        vals = []
        for ident in ids:
            if ident not in scores:
                raise ValueError(f"no subjective score for item '{ident}'")
            vals.append(scores[ident])
        order = np.lexsort((idx, -np.asarray(vals, dtype=np.float64)))
    else:
        raise ValueError(f"unknown mode '{mode}', expected one of {BASELINE_MODES}")
    return Ranking(query_id=query_id, items=[ids[i] for i in order])


GT_HEADER = "query_id,fragment_id"
SCORES_HEADER = "fragment_id,score"
RUN_HEADER = "query_id,rank,fragment_id"

SCORE_MIN, SCORE_MAX = 0.0, 15.0


def load_ground_truth(path) -> dict[str, set[str]]:
    """Read ``query_id,fragment_id`` rows into a relevance mapping."""
    gt: dict[str, set[str]] = {}
    for _, (qid, fid) in table.read_rows(path, 2, GT_HEADER):
        gt.setdefault(qid, set()).add(fid)
    return gt


def load_scores(path) -> dict[str, float]:
    """Read ``fragment_id,score`` rows; scores must lie in [0, 15] and each
    fragment id may appear once."""
    scores: dict[str, float] = {}
    for lineno, (fid, v) in table.read_rows(path, 2, SCORES_HEADER, parse=_score_row):
        if fid in scores:
            raise ValueError(f"{path}: row {lineno}: repeated fragment id '{fid}'")
        scores[fid] = v
    return scores


def _score_row(parts) -> tuple[str, float]:
    fid, val = parts
    v = float(val)
    if not (SCORE_MIN <= v <= SCORE_MAX):
        raise ValueError(f"score {v!r} outside [{SCORE_MIN}, {SCORE_MAX}]")
    return fid, v


def save_run(path, rankings) -> None:
    """Write rankings as ``query_id,rank,fragment_id`` rows, rank from 1."""
    if isinstance(rankings, Ranking):
        rankings = [rankings]
    rows = (
        (r.query_id, str(pos), item)
        for r in rankings
        for pos, item in enumerate(r.items, start=1)
    )
    table.write_rows(path, rows, header=RUN_HEADER)


def load_run(path) -> list[Ranking]:
    """Reload rankings written by :func:`save_run`, ranks must be 1..len."""
    parsed = table.read_rows(path, 3, RUN_HEADER, parse=lambda r: (r[0], int(r[1]), r[2]))
    per_query: dict[str, list[tuple[int, str]]] = {}  # in first-seen order
    for _, (qid, rank, fid) in parsed:
        per_query.setdefault(qid, []).append((rank, fid))
    if not per_query:
        raise ValueError(f"{path}: empty run file")
    rankings = []
    for qid, rows in per_query.items():
        rows.sort()
        if [r for r, _ in rows] != list(range(1, len(rows) + 1)):
            raise ValueError(f"{path}: ranks for query '{qid}' are not contiguous from 1")
        try:
            rankings.append(Ranking(query_id=qid, items=[fid for _, fid in rows]))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return rankings

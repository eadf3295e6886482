"""Output checks that share no code with the program.

Every check reads the user-facing output files and recomputes what it
can with plain numpy from the generated collection. Cache files are never
read, so a change of cache format cannot affect a check. Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from inputs import Collection

K_HUB, N_LID, M_DIV = 10, 100, 30  # the CLI defaults the workloads rely on
GRAPH_WIDTH = max(K_HUB, N_LID + 1, M_DIV)  # neighbours per row of a one-shot select
LID_CAP = 1.0e6  # documented cap; estimates at or above it are degenerate
REL_TOL = 1e-9


def _rows(path: Path, header: str) -> list[list[str]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: missing header '{header}'")
    return [line.split(",") for line in lines[1:] if line]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def cosine_distances(values: np.ndarray, rows) -> np.ndarray:
    """1 - cos(x_i, x_j) for each i in ``rows`` against all j, clipped at 0."""
    norms = np.sqrt((values * values).sum(axis=1))
    dots = values[rows] @ values.T
    return np.maximum(1.0 - dots / (norms[rows, None] * norms[None, :]), 0.0)


def _exact_neighbors(values: np.ndarray, i: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``count`` neighbours of row i: full sort by distance, then index."""
    dist = cosine_distances(values, [i])[0]
    idx = np.arange(values.shape[0])
    order = np.lexsort((idx, dist))
    order = order[order != i][:count]
    return order, dist[order]


def check_profile(out_dir: Path, c: Collection, sample: np.ndarray) -> list[str]:
    """profile.csv of a cosine ``analyze`` with default k-hub, n-lid, m-div."""
    problems = []
    rows = _rows(out_dir / "profile.csv", "id,N_k,category,lid,degenerate,diversity")
    if [r[0] for r in rows] != c.ids:
        return ["profile.csv: ids differ from the collection"]
    n_k = np.array([int(r[1]) for r in rows])
    if int(n_k.sum()) != len(c.ids) * K_HUB:
        problems.append(f"profile.csv: mean N_k is {n_k.mean()!r}, expected {K_HUB}")
    expect = np.where(n_k > K_HUB, "hub", np.where(n_k == 0, "anti_hub", "normal"))
    bad = [r[0] for r, e in zip(rows, expect) if r[2] != e]
    if bad:
        problems.append(f"profile.csv: {len(bad)} categories disagree with N_k, first {bad[0]}")
    tiny = np.finfo(np.float64).tiny
    for i in sample.tolist():
        nbr, dist = _exact_neighbors(c.values, i, max(N_LID + 1, M_DIV))
        d = np.maximum(dist[: N_LID + 1], tiny)
        lid = -1.0 / float(np.log(d[:-1] / d[-1]).mean())
        sub = c.values[nbr[:M_DIV]]
        pair = cosine_distances(sub, np.arange(M_DIV))
        div = float(pair[np.triu_indices(M_DIV, k=1)].mean())
        got_lid, got_div = float(rows[i][3]), float(rows[i][5])
        if rows[i][4] != "0" or not _close(got_lid, lid):
            problems.append(f"profile.csv: {c.ids[i]} lid {got_lid!r}, oracle {lid!r}")
        if not _close(got_div, div):
            problems.append(f"profile.csv: {c.ids[i]} diversity {got_div!r}, oracle {div!r}")
    return problems


def _minmax(v: np.ndarray) -> np.ndarray:
    return (v - v.min()) / (v.max() - v.min())


def _risk(lid: np.ndarray, degenerate: np.ndarray) -> np.ndarray:
    """Min-max LID over non-degenerate rows; degenerate rows get risk 1."""
    risk = np.ones(lid.size)
    risk[~degenerate] = _minmax(lid[~degenerate])
    return risk


def _objective(y: np.ndarray, k: int, h: np.ndarray, risk: np.ndarray,
               support: np.ndarray, a: np.ndarray) -> float:
    """f(y) = yH/k - yD/k + yAy/(k(k-1)), A given on the support of y."""
    ys = y[support]
    return float(y @ h - y @ risk) / k + float(ys @ a @ ys) / (k * (k - 1))


def dense_objective(c: Collection, profile_csv: Path, y: np.ndarray, k: int) -> float:
    """f(y) with H and D from ``profile.csv`` and the full cosine affinity."""
    rows = _rows(profile_csv, "id,N_k,category,lid,degenerate,diversity")
    h = _minmax(np.array([float(r[1]) for r in rows]))
    lid = np.array([float(r[3]) for r in rows])
    risk = _risk(lid, np.array([r[4] == "1" for r in rows]))
    support = np.flatnonzero(y)
    a = cosine_distances(c.values[support], np.arange(support.size))
    np.fill_diagonal(a, 0.0)
    return _objective(y, k, h, risk, support, a)


def euclidean_knn(values: np.ndarray, width: int, block: int = 500):
    """Exact Euclidean neighbours of every row: the first ``width`` other
    rows by distance, then index. Returns (indices, distances), (n, width).

    A fast pass through the Gram matrix picks ``width + 16`` candidates per
    row; their distances are then measured directly as the norm of the
    difference and sorted.
    """
    n = values.shape[0]
    pad = min(width + 16, n - 1)
    sq = (values * values).sum(axis=1)
    idx = np.empty((n, width), dtype=np.int64)
    dist = np.empty((n, width))
    for s in range(0, n, block):
        e = min(s + block, n)
        rows = np.arange(e - s)
        fast = sq[s:e, None] + sq[None, :] - 2.0 * (values[s:e] @ values.T)
        fast[rows, np.arange(s, e)] = np.inf
        cand = np.argpartition(fast, pad - 1, axis=1)[:, :pad]
        diff = values[cand] - values[s:e, None, :]
        exact = np.sqrt((diff * diff).sum(axis=2))
        order = np.lexsort((cand, exact), axis=1)[:, :width]
        idx[s:e] = np.take_along_axis(cand, order, axis=1)
        dist[s:e] = np.take_along_axis(exact, order, axis=1)
        # every row left out lies beyond the candidates in the fast pass;
        # the margin must dwarf the fast pass's rounding
        outside = np.sqrt(np.maximum(np.take_along_axis(fast, cand, axis=1).max(axis=1), 0.0))
        if pad < n - 1 and not (dist[s:e, -1] < outside * (1.0 - 1e-6)).all():
            raise RuntimeError("euclidean oracle: too few candidates to separate neighbours")
    return idx, dist


def sparse_objective(c: Collection, y: np.ndarray, k: int) -> float:
    """f(y) of a one-shot Euclidean ``--mode knn-sparse`` select on fbin.

    Everything is recomputed from the float32-cast values: the exact
    neighbour lists of width ``GRAPH_WIDTH``, N_k over the first K_HUB, the
    LID estimate over the first N_LID + 1, and A, which holds the graph
    distances symmetrised by the elementwise maximum.
    """
    values = c.values.astype(np.float32).astype(np.float64)
    n = values.shape[0]
    idx, dist = euclidean_knn(values, GRAPH_WIDTH)
    h = _minmax(np.bincount(idx[:, :K_HUB].ravel(), minlength=n).astype(np.float64))
    tiny = np.finfo(np.float64).tiny
    d = np.maximum(dist[:, : N_LID + 1], tiny)
    mean_log = np.log(d[:, :-1] / d[:, -1:]).mean(axis=1)
    lid = np.full(n, LID_CAP)
    ok = mean_log < 0.0
    lid[ok] = -1.0 / mean_log[ok]
    risk = _risk(lid, lid >= LID_CAP)
    support = np.flatnonzero(y)
    pos = np.full(n, -1)
    pos[support] = np.arange(support.size)
    a = np.zeros((support.size, support.size))
    nbr = pos[idx[support]]
    r, col = np.nonzero(nbr >= 0)
    a[r, nbr[r, col]] = dist[support][r, col]
    return _objective(y, k, h, risk, support, np.maximum(a, a.T))


def check_selection(path: Path, c: Collection, k: int, objective) -> list[str]:
    """Solution JSON of ``select``; ``objective(y)`` recomputes f(y)."""
    sol = json.loads(Path(path).read_text(encoding="utf-8"))
    problems = []
    chosen = sol["selected"]
    if len(chosen) != k or len(set(chosen)) != k or not set(chosen) <= set(c.ids):
        problems.append(f"{path.name}: selected is not {k} distinct known ids")
    y = np.array(sol["y"], dtype=np.float64)
    if y.shape != (len(c.ids),) or abs(float(y.sum()) - k) > REL_TOL:
        problems.append(f"{path.name}: sum(y) = {float(y.sum())!r}, expected {k}")
    if y.min() < 0.0 or y.max() > 1.0:
        problems.append(f"{path.name}: y outside [0, 1]")
    if sol["converged"] is not True:
        problems.append(f"{path.name}: solver did not converge")
    if not problems:
        f = objective(y)
        if not _close(sol["objective"], f):
            problems.append(f"{path.name}: objective {sol['objective']!r}, recomputed {f!r}")
    return problems


def check_ranking(path: Path, c: Collection) -> list[str]:
    """A run file that ranks every fragment exactly once, ranks 1..n."""
    rows = _rows(path, "query_id,rank,fragment_id")
    if [int(r[1]) for r in rows] != list(range(1, len(c.ids) + 1)):
        return [f"{path.name}: ranks are not 1..{len(c.ids)}"]
    if sorted(r[2] for r in rows) != c.ids or {r[0] for r in rows} != {"all"}:
        return [f"{path.name}: not a ranking of every fragment for query 'all'"]
    return []


def check_subjective(report_path: Path, run_csv: Path, c: Collection, depth: int) -> list[str]:
    """The printed mean subjective score of the run's top ``depth`` items."""
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    score = dict(zip(c.ids, c.scores.tolist()))
    top = [r[2] for r in _rows(run_csv, "query_id,rank,fragment_id")[:depth]]
    want = sum(score[i] for i in top) / len(top)
    if report.get("K") != depth or not _close(report["mean_subjective"], want):
        return [f"{report_path.name}: mean_subjective {report.get('mean_subjective')!r}, expected {want!r}"]
    return []


def digest(root: Path, names) -> str:
    """sha256 over the named output files of one job, in the given order."""
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + (root / name).read_bytes() + b"\0")
    return h.hexdigest()

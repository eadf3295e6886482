"""Exact k-nearest-neighbor graphs under cosine or Euclidean distance.

Graphs are built by blocked brute-force scan, O(n^2 d) work, no
approximation. Neighbor lists exclude the query itself, are sorted by
ascending distance, and break ties by the smaller fragment index so that
results are reproducible bit for bit across runs and thread counts.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from hubsel import table

METRICS = ("cosine", "euclidean")

# Rows per scan block, sized so one block of the distance matrix stays
# around 64 MB. Fixed relative to thread count: the block split must not
# change results when threads do.
_BLOCK_ENTRIES = 8_000_000


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValueError(f"unknown metric '{metric}', expected one of {METRICS}")


def check_cosine_rows(m) -> None:
    """Reject matrices with zero-norm rows when the metric is cosine."""
    norms = np.linalg.norm(m.values, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"zero-norm row under cosine distance: fragment '{m.ids[i]}' (row {i + 1})"
        )


def pairwise_distance(x, y, metric: str) -> float:
    """Distance between two feature vectors.

    Cosine distance is 1 - cos(x, y), in [0, 2]; it is undefined for
    zero-norm inputs. Euclidean is the usual L2 norm of the difference.
    """
    _check_metric(metric)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if metric == "euclidean":
        return float(np.linalg.norm(x - y))
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("cosine distance undefined for zero-norm vector")
    return max(0.0, 1.0 - float(np.dot(x, y)) / (nx * ny))


def distance_matrix(x, y, metric: str) -> np.ndarray:
    """All distances between the rows of ``x`` and ``y``.

    Cosine distances that rounding pushed below 0 are clipped to 0.
    """
    D = cdist(x, y, metric=metric)
    if metric == "cosine":
        np.clip(D, 0.0, None, out=D)
    return D


@dataclass
class NeighborGraph:
    """k-nearest-neighbor lists for every fragment of a collection.

    Attributes
    ----------
    k : int
        Neighbors per list, min(requested k, n - 1).
    metric : str
        Distance used to build the graph, 'cosine' or 'euclidean'.
    indices : ndarray of shape (n, k), int64
        Neighbor row indices, ascending distance, ties by smaller index.
    distances : ndarray of shape (n, k), float64
        Distances matching ``indices``.
    """

    k: int
    metric: str
    indices: np.ndarray
    distances: np.ndarray

    @property
    def n(self) -> int:
        return self.indices.shape[0]

    def truncated(self, k: int) -> "NeighborGraph":
        """First min(k, available) columns of the graph as a new graph."""
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        k = min(k, self.indices.shape[1])
        return NeighborGraph(
            k=k,
            metric=self.metric,
            indices=self.indices[:, :k],
            distances=self.distances[:, :k],
        )


def knn_graph(m, k: int, metric: str = "cosine", threads: int = 1) -> NeighborGraph:
    """Build the exact kNN graph of a feature matrix.

    Parameters
    ----------
    m : FeatureMatrix
        Collection to index, n >= 2 rows.
    k : int
        Requested neighbors per fragment; lists hold min(k, n - 1).
    metric : {'cosine', 'euclidean'}
    threads : int
        Worker threads for the blocked scan. Results are identical for
        any thread count.

    Returns
    -------
    NeighborGraph
    """
    _check_metric(metric)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    X = m.values
    n = X.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 fragments, got {n}")
    if metric == "cosine":
        check_cosine_rows(m)

    k_eff = min(k, n - 1)
    indices = np.empty((n, k_eff), dtype=np.int64)
    distances = np.empty((n, k_eff), dtype=np.float64)
    block = max(1, _BLOCK_ENTRIES // n)
    spans = [(s, min(s + block, n)) for s in range(0, n, block)]

    def scan(span):
        s, e = span
        D = distance_matrix(X[s:e], X, metric)
        # self-distance to +inf so the query drops out of its own list
        D[np.arange(e - s), np.arange(s, e)] = np.inf
        order = np.argsort(D, axis=1, kind="stable")[:, :k_eff]
        indices[s:e] = order
        distances[s:e] = np.take_along_axis(D, order, axis=1)

    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(scan, spans))
    else:
        for span in spans:
            scan(span)
    return NeighborGraph(k=k_eff, metric=metric, indices=indices, distances=distances)


GRAPH_HEADER = "query_id,rank,neighbor_id,distance"


def save_graph(g: NeighborGraph, ids: list[str], path) -> None:
    """Write a graph as CSV rows ``query_id,rank,neighbor_id,distance``.

    Ranks start at 1. Distances are written with full round-trip
    precision so a reloaded graph is bit-identical.
    """
    ranks = [str(r) for r in range(1, g.indices.shape[1] + 1)]

    def rows():
        for qid, nbrs, dists in zip(ids, g.indices, g.distances):
            for rank, j, dist in zip(ranks, nbrs.tolist(), dists.tolist()):
                yield qid, rank, ids[j], repr(dist)

    table.write_rows(path, rows(), header=GRAPH_HEADER)


def load_graph(path, ids: list[str], metric: str) -> NeighborGraph:
    """Reload a graph written by :func:`save_graph`.

    ``ids`` supplies the id-to-row mapping of the owning collection and
    must cover every id in the file. The metric is not stored in the CSV
    and must be passed by the caller.
    """
    _check_metric(metric)
    index = {ident: i for i, ident in enumerate(ids)}
    per_query: dict[int, list[tuple[int, int, float]]] = {}
    for lineno, (qid, rank_s, nid, dist_s) in table.read_rows(path, 4, GRAPH_HEADER):
        if qid not in index:
            raise ValueError(f"{path}: row {lineno}: unknown query id '{qid}'")
        if nid not in index:
            raise ValueError(f"{path}: row {lineno}: unknown neighbor id '{nid}'")
        per_query.setdefault(index[qid], []).append((int(rank_s), index[nid], float(dist_s)))
    n = len(ids)
    if set(per_query) != set(range(n)):
        missing = sorted(set(range(n)) - set(per_query))
        raise ValueError(f"{path}: no neighbor rows for fragment '{ids[missing[0]]}'")
    widths = {len(v) for v in per_query.values()}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent neighbor list lengths {sorted(widths)}")
    k = widths.pop()
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k), dtype=np.float64)
    for i, rows in per_query.items():
        rows.sort()
        if [r for r, _, _ in rows] != list(range(1, k + 1)):
            raise ValueError(f"{path}: ranks for '{ids[i]}' are not contiguous from 1")
        indices[i] = [j for _, j, _ in rows]
        distances[i] = [d for _, _, d in rows]
    return NeighborGraph(k=k, metric=metric, indices=indices, distances=distances)

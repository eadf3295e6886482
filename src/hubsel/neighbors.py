"""Exact k-nearest-neighbor graphs under cosine or Euclidean distance.

Graphs are built by a blocked brute-force scan, O(n^2 d) work, with no
approximation in the result. Each block ranks all pairs with one matrix
product, keeps a shortlist that provably holds every exact neighbor, and
ranks the shortlist by distances recomputed exactly as
:func:`distance_matrix` computes them. Neighbor lists exclude the query
itself, are sorted by ascending distance, and break ties by the smaller
fragment index, so results are reproducible bit for bit across runs
and block splits.

Rows whose magnitudes would overflow, or underflow below the normal
range, when squared are rescaled by a power of two first; inputs in the
normal range are used as they are.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hubsel import table

METRICS = ("cosine", "euclidean")

# Rows per scan block, sized so one block of approximate distances stays
# around 64 MB. Results do not depend on the split.
_BLOCK_ENTRIES = 8_000_000

# Rows per block of a self distance matrix, sized so one block of the
# upper triangle stays around 1 MB next to the n x n result. Results do
# not depend on the split.
_SELF_BLOCK_ENTRIES = 1 << 17

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2

# Largest row magnitudes in [_SMALLEST, _largest(d)] need no rescaling:
# their squares are normal floats, and a d-term sum of squared
# differences, each at most (2 max|x|)^2, stays finite.
_SMALLEST = math.sqrt(np.finfo(np.float64).tiny)


def _largest(d: int) -> float:
    return math.sqrt(np.finfo(np.float64).max / (4 * d))


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValueError(f"unknown metric '{metric}', expected one of {METRICS}")


def check_cosine_rows(m) -> None:
    """Reject matrices with zero-norm (all-zero) rows when the metric is cosine."""
    bad = np.flatnonzero(~m.values.any(axis=1))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"zero-norm row under cosine distance: fragment '{m.ids[i]}' (row {i + 1})"
        )


def pairwise_distance(x, y, metric: str) -> float:
    """Distance between two feature vectors.

    Cosine distance is 1 - cos(x, y), in [0, 2]; it is undefined for
    zero-norm inputs. Euclidean is the usual L2 norm of the difference.
    The value is the one :func:`distance_matrix` gives the two rows.
    """
    _check_metric(metric)
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    y = np.asarray(y, dtype=np.float64).reshape(1, -1)
    if metric == "cosine" and not (x.any() and y.any()):
        raise ValueError("cosine distance undefined for zero-norm vector")
    return float(distance_matrix(x, y, metric)[0, 0])


def _rescale_rows(v: np.ndarray) -> np.ndarray:
    """``v`` with each row whose largest magnitude is out of range scaled
    by a power of two to a largest magnitude in [0.5, 1). Cosine distance
    does not change under a positive scaling of either row."""
    peak = np.abs(v).max(axis=1)
    out = (peak < _SMALLEST) | (peak > _largest(v.shape[1]))
    if not out.any():
        return v
    v = v.copy()
    v[out] = np.ldexp(v[out], -np.frexp(peak[out])[1][:, None])
    return v


def _in_range(x: np.ndarray, y: np.ndarray, metric: str):
    """``(x, y, unscale)``: the rows scaled by powers of two so that every
    square of a row's largest magnitude is normal and every sum of squares
    stays finite, and the factor that maps Euclidean distances between the
    scaled rows back. Rows already in range come back unchanged, so their
    distances keep every bit."""
    if metric == "cosine":
        xs = _rescale_rows(x)
        return xs, (xs if y is x else _rescale_rows(y)), 1.0
    peak = max(float(np.abs(x).max(initial=0.0)), float(np.abs(y).max(initial=0.0)))
    if _SMALLEST <= peak <= _largest(x.shape[1]):
        return x, y, 1.0
    e = math.frexp(peak)[1]
    xs = np.ldexp(x, -e)
    return xs, (xs if y is x else np.ldexp(y, -e)), math.ldexp(1.0, e)


def _distances(x, y, metric: str) -> np.ndarray:
    # imported here: scipy.spatial costs ~0.5 s of start-up, which commands
    # that compute no distance (eval, baseline rank, fuse, --help) skip
    from scipy.spatial.distance import cdist

    D = cdist(x, y, metric=metric)
    if metric == "cosine":
        np.clip(D, 0.0, None, out=D)
    return D


def distance_matrix(x, y, metric: str) -> np.ndarray:
    """All distances between the rows of ``x`` and ``y``.

    Cosine distances that rounding pushed below 0 are clipped to 0. Rows
    whose squares would overflow or fall below the normal range are first
    rescaled by a power of two (each row on its own for cosine, all rows
    by one factor for euclidean), so finite inputs give finite distances.

    Called with the same object as ``x`` and ``y``, it computes each
    unordered pair once: the upper triangle in row blocks, each mirrored
    into the lower triangle. The bytes are those of the full pass, since
    ``cdist`` computes each pair on its own and gives (i, j) and (j, i)
    the same bits, and the rescaling is decided once for all of ``x``.
    """
    same = y is x
    x = np.asarray(x, dtype=np.float64)
    x, y, unscale = _in_range(x, x if same else np.asarray(y, dtype=np.float64), metric)
    if same:
        n = x.shape[0]
        D = np.empty((n, n), dtype=np.float64)
        block = max(1, _SELF_BLOCK_ENTRIES // max(n, 1))
        for s in range(0, n, block):
            e = min(s + block, n)
            B = _distances(x[s:e], x[s:], metric)
            D[s:e, s:] = B
            D[s:, s:e] = B.T
    else:
        D = _distances(x, y, metric)
    if unscale != 1.0:
        D *= unscale
    return D


def group_mean_distances(x, groups: np.ndarray, metric: str) -> np.ndarray:
    """Mean pairwise distance within each group of rows of ``x``.

    ``groups`` is an (n, m) array of row indices, m >= 2. Each group's
    distances are those :func:`distance_matrix` gives the group's rows,
    and every pair counts once. Rows are brought into range once for the
    whole of ``x`` rather than once per group.
    """
    x, _, unscale = _in_range(x, x, metric)
    iu = np.triu_indices(groups.shape[1], k=1)
    means = np.empty(len(groups), dtype=np.float64)
    for i, rows in enumerate(groups):
        sub = x[rows]
        means[i] = float(_distances(sub, sub, metric)[iu].mean())
    return means * unscale


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


def knn_graph(m, k: int, metric: str = "cosine") -> NeighborGraph:
    """Build the exact kNN graph of a feature matrix.

    Each block of query rows is ranked against all rows with one matrix
    product: 1 - x.y on unit-norm rows (cosine), or the squared distance
    expanded as |x|^2 + |y|^2 - 2 x.y (euclidean). A row's shortlist is
    every j whose approximate value is at most the k-th smallest one plus
    2 b_i, where b_i bounds the error of the approximation against the
    exact distance (squared, for euclidean) in row i, with u the unit
    roundoff and gamma_m = m u / (1 - m u):
    b_i = gamma_{8d+32} (|x_i| + max_j |x_j|)^2 for euclidean and
    gamma_{8d+32} for cosine. The shortlist therefore holds every exact
    neighbor and every tie at the k-th distance; its distances are then
    recomputed as :func:`distance_matrix` computes them and sorted by
    (distance, index).

    Parameters
    ----------
    m : FeatureMatrix
        Collection to index, n >= 2 rows.
    k : int
        Requested neighbors per fragment; lists hold min(k, n - 1).
    metric : {'cosine', 'euclidean'}

    Returns
    -------
    NeighborGraph
    """
    _check_metric(metric)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n, d = m.values.shape
    if n < 2:
        raise ValueError(f"need at least 2 fragments, got {n}")
    if metric == "cosine":
        check_cosine_rows(m)
    X, _, unscale = _in_range(m.values, m.values, metric)

    # Why the shortlist is exact. Let A_ij be the value the exact pass
    # ranks row i by (the distance_matrix distance; its square for
    # euclidean, an order-preserving map that keeps ties) and P_ij the
    # product-based approximation, with |P_ij - A_ij| <= b_i for all j.
    # The k smallest P in row i, p_(k) being the largest of them, have
    # A <= p_(k) + b_i, so the exact k-th value A_(k) <= p_(k) + b_i; a
    # j with A_ij <= A_(k) then has P_ij <= A_ij + b_i <= p_(k) + 2 b_i.
    # With u the unit roundoff and gamma_m = m u / (1 - m u), the budget
    # b_i = gamma_{8d+32}, times (|x_i| + max_j |x_j|)^2 for euclidean
    # (which bounds every (|x_i| + |x_j|)^2 and so every squared
    # distance), covers with room to spare: the product pass with its
    # norms and additions (gamma_{3d+6} for cosine, gamma_{d+2} for
    # euclidean); the cdist pass (gamma_{4d+6}; gamma_{d+4} on the
    # squared value); underflow, at most d u against each sum, since
    # after _in_range the largest square of every row is a normal float;
    # and the few roundings of b_i and of the threshold themselves.
    mu = (8 * d + 32) * _UNIT_ROUNDOFF
    b = mu / (1.0 - mu)
    if metric == "cosine":
        Y = X / np.sqrt(np.einsum("ij,ij->i", X, X))[:, None]
        margin = np.full(n, 2.0 * b)
    else:
        Y = X
        sq = np.einsum("ij,ij->i", X, X)
        norms = np.sqrt(sq)
        margin = 2.0 * b * (norms + norms.max()) ** 2

    k_eff = min(k, n - 1)
    indices = np.empty((n, k_eff), dtype=np.int64)
    distances = np.empty((n, k_eff), dtype=np.float64)
    block = max(1, _BLOCK_ENTRIES // n)
    for s in range(0, n, block):
        e = min(s + block, n)
        approx = Y[s:e] @ Y.T
        if metric == "cosine":
            np.subtract(1.0, approx, out=approx)
        else:
            approx *= -2.0
            approx += sq
            approx += sq[s:e, None]
        # self to +inf so the query drops out of its own list
        approx[np.arange(e - s), np.arange(s, e)] = np.inf
        for i, row in zip(range(s, e), approx):
            kth = np.partition(row, k_eff - 1)[k_eff - 1]
            cand = np.flatnonzero(row <= kth + margin[i])
            dist = _distances(X[i : i + 1], X[cand], metric)[0]
            order = np.argsort(dist, kind="stable")[:k_eff]
            indices[i] = cand[order]
            distances[i] = dist[order]
        # freed before the next product, so one block is live at a time
        del approx, row
    if unscale != 1.0:
        distances *= unscale
    return NeighborGraph(k=k_eff, metric=metric, indices=indices, distances=distances)


GRAPH_HEADER = "query_id,rank,neighbor_id,distance"

_NPZ_MEMBERS = ("ids", "indices", "distances")


def _is_npz(path) -> bool:
    return Path(path).suffix.lower() == ".npz"


def save_graph(g: NeighborGraph, ids: list[str], path) -> None:
    """Write a graph to ``path``; the suffix names the format.

    ``.npz``: an uncompressed archive of the arrays ``ids`` (unicode),
    ``indices`` (int64) and ``distances`` (float64), both (n, k), written
    with fixed member timestamps so equal graphs give equal bytes;
    :func:`load_graph` reads it back bit-identical. Any other suffix: CSV
    rows ``query_id,rank,neighbor_id,distance`` with ranks from 1 and
    distances at full round-trip precision, an export that no hubsel
    command reads back.
    """
    if _is_npz(path):
        # np.savez stamps each member with the current time
        arrays = (np.array(ids, dtype=str), g.indices, g.distances)
        with zipfile.ZipFile(path, "w") as zf:
            for name, arr in zip(_NPZ_MEMBERS, arrays):
                with zf.open(zipfile.ZipInfo(name + ".npy"), "w", force_zip64=True) as f:
                    np.lib.format.write_array(f, arr, allow_pickle=False)
        return
    ranks = [str(r) for r in range(1, g.indices.shape[1] + 1)]

    def rows():
        for qid, nbrs, dists in zip(ids, g.indices, g.distances):
            for rank, j, dist in zip(ranks, nbrs.tolist(), dists.tolist()):
                yield qid, rank, ids[j], repr(dist)

    table.write_rows(path, rows(), header=GRAPH_HEADER)


# What zipfile and np.load raise on a damaged archive; OSError covers
# seeks to offsets a damaged directory names.
_ARCHIVE_DAMAGE = (
    ValueError, zipfile.BadZipFile, EOFError, KeyError, NotImplementedError, RuntimeError,
    OSError,
)


def load_graph(path, ids: list[str], metric: str) -> NeighborGraph:
    """Reload a graph that :func:`save_graph` wrote to a ``.npz`` path.

    The archive must store exactly ``ids``, in order, and an (n, k) graph
    of them, k >= 1. The metric is not stored and must be passed by the
    caller. Any other suffix raises ``ValueError`` before the file is
    opened: the CSV that :func:`save_graph` writes is not read back. A
    file that does not hold a complete graph of ``ids`` raises
    ``ValueError``.
    """
    _check_metric(metric)
    if not _is_npz(path):
        raise ValueError(f"{path}: not a .npz graph archive")
    with open(path, "rb") as fh:  # a file that cannot be opened is an I/O error
        try:
            z = np.load(fh, allow_pickle=False)
            if not isinstance(z, np.lib.npyio.NpzFile):
                raise ValueError("a single array")
            with z:
                stored, indices, distances = (z[name] for name in _NPZ_MEMBERS)
        except _ARCHIVE_DAMAGE as exc:
            raise ValueError(f"{path}: not a readable graph archive ({exc!r})") from exc
    n = len(ids)
    if stored.dtype.kind != "U" or stored.tolist() != list(ids):
        raise ValueError(f"{path}: stored ids differ from the collection's")
    if indices.dtype != np.int64 or distances.dtype != np.float64:
        raise ValueError(
            f"{path}: dtypes {indices.dtype}, {distances.dtype}, expected int64, float64"
        )
    shape_ok = indices.ndim == 2 and indices.shape[0] == n and indices.shape[1] >= 1
    if not shape_ok or distances.shape != indices.shape:
        raise ValueError(
            f"{path}: shapes {indices.shape}, {distances.shape}, expected ({n}, k), k >= 1"
        )
    if indices.min() < 0 or indices.max() >= n:
        raise ValueError(f"{path}: neighbor index outside [0, {n})")
    return NeighborGraph(
        k=indices.shape[1],
        metric=metric,
        indices=np.ascontiguousarray(indices),
        distances=np.ascontiguousarray(distances),
    )

"""Exact k-nearest-neighbor graphs under cosine or Euclidean distance.

Graphs are built by a blocked brute-force scan, O(n^2 d) work, with no
approximation in the result. Each block ranks all pairs with one matrix
product, keeps a shortlist that provably holds every exact neighbor, and
ranks the shortlist by distances recomputed exactly as
:func:`distance_matrix` computes them. Neighbor lists exclude the query
itself, are sorted by ascending distance, and break ties by the smaller
fragment index, so results are reproducible bit for bit across runs
and block splits.

Every norm and distance goes through one power-of-two range rule: rows
whose squares would overflow or underflow are scaled into range by
powers of two. :func:`unit_rows` gives every unit row, and ``pairs`` of
``_in_range`` every distance, in true units; graphs are ranked in them.
Distances come from the compiled kernels of scipy's ``cdist`` alone.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import zipfile
from concurrent.futures import ThreadPoolExecutor
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


def unit_rows(v: np.ndarray) -> np.ndarray:
    """``v`` with each row over its norm, taken after :func:`_rescale_rows`
    so no square overflows or underflows; an all-zero row stays as it is."""
    v = _rescale_rows(v)
    norms = np.linalg.norm(v, axis=1)
    return v / np.where(norms == 0.0, 1.0, norms)[:, None]


def _exponents(peak: np.ndarray, d: int) -> np.ndarray:
    """Euclidean: for rows with largest magnitudes ``peak``, the exponent e_i
    of each row's factor 2^e_i. The pair (i, j) is computed on both rows
    scaled by 2^-max(e_i, e_j) and scaled back.

    Every row starts under the collection's common factor: 1 when the
    collection's largest magnitude is in range, else the power of two that
    brings it into [0.5, 1). Rows that fall below the normal range under it take the
    factor of their own largest magnitude, and so on down, so no pair of
    them loses its digits. All-zero rows stay at the last factor."""
    e = np.zeros(peak.shape, dtype=np.int64)
    rows = np.arange(peak.size)
    while rows.size and (top := float(peak[rows].max())) > 0.0:
        level = 0 if _SMALLEST <= top <= _largest(d) else math.frexp(top)[1]
        e[rows] = level
        rows = rows[np.ldexp(peak[rows], -level) < _SMALLEST]
    return e


def _in_range(x: np.ndarray, y: np.ndarray, metric: str):
    """``(xs, top, pairs)``: the rows of ``x`` scaled by powers of two so
    that the square of the largest magnitude is normal and every sum of
    squares stays finite (each row by its own factor for cosine, where top
    is 0; all by 2^-top for euclidean); and ``pairs(rx, ry)``, the
    distances between rows ``rx`` of ``x`` and ``ry`` of ``y`` in true units,
    the pair (i, j) under euclidean on both rows scaled by 2^-max(e_i, e_j)
    (:func:`_exponents`). A euclidean distance above the float64 maximum
    raises ``ValueError``; rows in range get one kernel call, every bit kept."""
    same = y is x
    top, lower = 0, []
    if metric == "cosine":
        xs = _rescale_rows(x)
        ys = xs if same else _rescale_rows(y)
    else:
        peak = np.abs(x).max(axis=1, initial=0.0)
        if not same:
            peak = np.concatenate([peak, np.abs(y).max(axis=1, initial=0.0)])
        e = _exponents(peak, x.shape[1])
        ex, ey = e[: len(x)], e if same else e[len(x) :]
        top, *lower = np.unique(e)[::-1].tolist() or [0]
        xs = np.ldexp(x, -top) if top else x
        ys = xs if same else (np.ldexp(y, -top) if top else y)

    def pairs(rx, ry) -> np.ndarray:
        D = _scaled_back(_distances(xs[rx], ys[ry], metric), top)
        for level in lower:  # descending: each overwrites the pairs of its rows
            a, b = np.flatnonzero(ex[rx] <= level), np.flatnonzero(ey[ry] <= level)
            if a.size and b.size:
                sub = _distances(np.ldexp(x[rx][a], -level), np.ldexp(y[ry][b], -level), metric)
                D[np.ix_(a, b)] = _scaled_back(sub, level)
        return D

    return xs, top, pairs


def _scaled_back(D: np.ndarray, level: int) -> np.ndarray:
    """``D`` times 2^level, in place, checked to fit when 2^level > 1."""
    if level:
        with np.errstate(over="ignore"):
            np.ldexp(D, level, out=D)
        if level > 0 and not np.isfinite(D).all():
            raise ValueError("a euclidean distance exceeds the float64 maximum (about 1.8e308)")
    return D


def _workers() -> int:
    """Threads for the blocks of a self distance matrix: one per CPU the
    process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# cdist's compiled kernel for each metric, loaded on the first distance
# of the process; empty when they cannot be loaded, and cdist serves both
_KERNELS: dict | None = None
_KERNELS_LOCK = threading.Lock()


def _extension(name: str):
    """The compiled module ``scipy.spatial.<name>`` loaded on its own, or
    the one ``scipy.spatial`` already holds once the package is imported."""
    fullname = "scipy.spatial." + name
    if fullname in sys.modules:
        return sys.modules[fullname]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed")
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "spatial"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(fullname)
    if spec is None:
        raise ImportError(f"no {fullname}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # a multi-phase module gets its functions here
    return module


def _load_kernels() -> dict:
    """``{metric: f(x, y) -> D}``: the compiled functions that scipy's
    ``cdist`` calls for cosine and euclidean (``scipy/spatial/distance.py``,
    scipy 1.17), so D has cdist's bytes. Loading them skips the
    ``scipy.spatial`` package: 0.45-0.52 s of start-up, 532 modules with
    its KD-tree, qhull, ``scipy.linalg``, ``scipy.special`` and
    ``scipy.sparse``, against ~5 ms for a process's first distance.
    Empty when a module or function is missing, or a first call raises or
    gives a wrong value: these modules are private to scipy, and older
    releases may differ."""
    try:
        wrap, pybind = _extension("_distance_wrap"), _extension("_distance_pybind")
        cosine_wrap = wrap.cdist_cosine_double_wrap

        def cosine(x, y):
            if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
                raise ValueError(f"cannot pair rows of shapes {x.shape} and {y.shape}")
            D = np.empty((len(x), len(y)))
            # reads its inputs as C-ordered float64, as cdist passes them
            cosine_wrap(
                np.ascontiguousarray(x, dtype=np.float64),
                np.ascontiguousarray(y, dtype=np.float64), D,
            )
            return D

        kernels = {"cosine": cosine, "euclidean": pybind.cdist_euclidean}
        probe = np.eye(2)
        for metric, want in (("cosine", 1.0), ("euclidean", math.sqrt(2.0))):
            if kernels[metric](probe[:1], probe[1:])[0, 0] != want:
                raise ValueError(f"{metric} kernel gives another distance")
    except (ImportError, AttributeError, TypeError, ValueError):
        return {}
    return kernels


def _kernel(metric: str):
    """cdist's compiled kernel for ``metric``, or None where cdist serves it."""
    global _KERNELS
    with _KERNELS_LOCK:  # the pool's first blocks may ask at once
        if _KERNELS is None:
            _KERNELS = _load_kernels()
        return _KERNELS.get(metric)


def _distances(x, y, metric: str) -> np.ndarray:
    kernel = _kernel(metric)
    if kernel is None:  # imported only here: the package costs 0.45-0.52 s
        from scipy.spatial.distance import cdist

        D = cdist(x, y, metric=metric)
    else:
        D = kernel(x, y)
    if metric == "cosine":
        np.clip(D, 0.0, None, out=D)
    return D


def distance_matrix(x, y, metric: str) -> np.ndarray:
    """All distances between the rows of ``x`` and ``y``.

    Cosine distances that rounding pushed below 0 are clipped to 0. Each
    distance is the one ``pairs`` of :func:`_in_range` gives, which brings
    rows into range by powers of two, so finite inputs give finite
    distances or, for a euclidean one above the float64 maximum,
    ``ValueError``.

    Called with the same object as ``x`` and ``y``, it computes each
    unordered pair once: the upper triangle in row blocks, each mirrored
    into the lower triangle, with the blocks spread over one thread per
    CPU in the process's affinity mask. The bytes are those of the full
    pass whatever the thread count, since ``cdist`` computes each pair on
    its own and gives (i, j) and (j, i) the same bits, and the rescaling
    is decided once for all of ``x``. No thread outlives the call.
    """
    same = y is x
    x = np.asarray(x, dtype=np.float64)
    y = x if same else np.asarray(y, dtype=np.float64)
    *_, pairs = _in_range(x, y, metric)
    if not same:
        return pairs(slice(None), slice(None))
    n = x.shape[0]
    D = np.empty((n, n), dtype=np.float64)
    block = max(1, _SELF_BLOCK_ENTRIES // max(n, 1))

    # Block s writes rows s:e at columns >= s and columns s:e at rows
    # >= s; a later block s' >= e touches neither, and only block s
    # writes the square D[s:e, s:e]. The regions are disjoint, so the
    # workers need no lock.
    def fill(s: int) -> None:
        e = min(s + block, n)
        B = pairs(slice(s, e), slice(s, None))
        D[s:e, s:] = B
        D[s:, s:e] = B.T

    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        list(pool.map(fill, range(0, n, block)))  # re-raises a block's error
    return D


def group_mean_distances(x, groups: np.ndarray, metric: str) -> np.ndarray:
    """Mean pairwise distance within each group of rows of ``x``.

    ``groups`` is an (n, m) array of row indices, m >= 2. Each group's
    distances are those :func:`distance_matrix` gives the group's rows,
    and every pair counts once. Rows are brought into range once for the
    whole of ``x`` rather than once per group.
    """
    *_, pairs = _in_range(x, x, metric)
    iu = np.triu_indices(groups.shape[1], k=1)
    means = np.empty(len(groups), dtype=np.float64)
    with np.errstate(over="ignore"):  # a sum near the float64 maximum, redone below
        for i, rows in enumerate(groups):
            means[i] = pairs(rows, rows)[iu].mean()
    for i in np.flatnonzero(means == np.inf).tolist():
        D = pairs(groups[i], groups[i])[iu]
        means[i] = (D / D.size).sum()
    return means


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
    b_i = gamma_{8d+32} c^2 + 2 g c, c = |x_i| + max_j |x_j|, for euclidean
    (g below) and gamma_{8d+32} for cosine. The shortlist therefore holds
    every exact neighbor and every tie at the k-th distance; its distances
    are then recomputed in true units as :func:`distance_matrix` computes
    them and sorted by (distance, index).

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
    X, top, pairs = _in_range(m.values, m.values, metric)

    # Why the shortlist is exact. Let A_ij be the value row i is ranked
    # by: the distance pairs reports, in true units, taken in the units of
    # X (euclidean: X is the rows times 2^-top) and squared for euclidean,
    # an order-preserving map that keeps ties; and P_ij the product-based
    # approximation, with |P_ij - A_ij| <= b_i for all j.
    # The k smallest P in row i, p_(k) being the largest of them, have
    # A <= p_(k) + b_i, so the exact k-th value A_(k) <= p_(k) + b_i; a
    # j with A_ij <= A_(k) then has P_ij <= A_ij + b_i <= p_(k) + 2 b_i.
    # With u the unit roundoff and gamma_m = m u / (1 - m u), the budget
    # b_i = gamma_{8d+32}, times (|x_i| + max_j |x_j|)^2 for euclidean
    # (which bounds every (|x_i| + |x_j|)^2 and so every squared
    # distance), covers with room to spare: the product pass with its
    # norms and additions (gamma_{3d+6} for cosine, gamma_{d+2} for
    # euclidean); the cdist pass (gamma_{4d+6}; gamma_{d+4} on the
    # squared value); underflow, below 6d u tiny in all (tiny the smallest
    # normal float), which the rest of the budget covers since after
    # _in_range (|x_i| + max_j |x_j|)^2 >= tiny (cosine: unit rows); and
    # the few roundings of b_i and of the threshold themselves. A pair
    # computed under a factor of its own only comes nearer the exact value.
    # In true units a euclidean distance is rounded to a multiple of
    # 2^-1074, g = 2^(-1074-top) in the units of X, which moves A_ij by at
    # most g c + g^2 / 4 <= 2 g c, c = |x_i| + max_j |x_j| (g <= 1/2 <= c
    # for top < 0, g <= 2^-1074 else); b_i holds that term too.
    mu = (8 * d + 32) * _UNIT_ROUNDOFF
    b = mu / (1.0 - mu)
    if metric == "cosine":
        Y = unit_rows(X)
        margin = np.full(n, 2.0 * b)
    else:
        Y = X
        sq = np.einsum("ij,ij->i", X, X)
        c = np.sqrt(sq) + math.sqrt(sq.max())
        margin = 2.0 * b * c**2 + 4.0 * math.ldexp(1.0, -1074 - top) * c

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
            dist = pairs(slice(i, i + 1), cand)[0]
            order = np.argsort(dist, kind="stable")[:k_eff]
            indices[i] = cand[order]
            distances[i] = dist[order]
        # freed before the next product, so one block is live at a time
        del approx, row
    return NeighborGraph(k=k_eff, metric=metric, indices=indices, distances=distances)


GRAPH_HEADER = "query_id,rank,neighbor_id,distance"


def _is_npz(path) -> bool:
    return Path(path).suffix.lower() == ".npz"


def save_graph(g: NeighborGraph, ids: list[str], path, members=None) -> None:
    """Write a graph to ``path``; the suffix names the format.

    ``.npz``: an uncompressed archive of the arrays ``ids`` (1-D unicode),
    ``metric`` (0-d unicode), ``indices`` (int64) and ``distances``
    (float64), both (n, k), then those of the ``members`` mapping under
    their names, with fixed member timestamps so equal inputs give equal
    bytes, all read back bit-identical by :func:`load_graph`. Any other
    suffix: CSV rows ``query_id,rank,neighbor_id,distance`` with ranks
    from 1 and distances at full round-trip precision, an export that no
    hubsel command reads back, without ``members``.
    """
    if _is_npz(path):
        # np.savez stamps each member with the current time
        arrays = {"ids": np.array(ids, dtype=str), "metric": np.array(g.metric),
                  "indices": g.indices, "distances": g.distances, **(members or {})}
        with zipfile.ZipFile(path, "w") as zf:
            for name, arr in arrays.items():
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


def load_graph(path, members=()) -> tuple[list[str], NeighborGraph, dict[str, np.ndarray]]:
    """``(ids, graph, extra)`` from a ``.npz`` archive of :func:`save_graph`,
    read in one open: the ids in order, the graph under its stored metric,
    and the arrays of the named ``members``, unchecked, by name.

    Any other suffix raises ``ValueError`` before the file is opened (the
    CSV export is not read back), and so does an archive that is damaged,
    lacks a member, needs pickle, or does not hold 1-D unicode ids, a
    metric in :data:`METRICS` and an (n, k) graph of them, n, k >= 1.
    """
    if not _is_npz(path):
        raise ValueError(f"{path}: not a .npz graph archive")
    names = ("ids", "metric", "indices", "distances", *members)
    with open(path, "rb") as fh:  # a file that cannot be opened is an I/O error
        try:
            z = np.load(fh, allow_pickle=False)
            if not isinstance(z, np.lib.npyio.NpzFile):
                raise ValueError("a single array")
            with z:
                ids, metric, indices, distances, *extra = [z[name] for name in names]
        except _ARCHIVE_DAMAGE as exc:
            raise ValueError(f"{path}: not a readable graph archive ({exc!r})") from exc
    if ids.dtype.kind != "U" or ids.ndim != 1:
        raise ValueError(f"{path}: ids {ids.dtype}, {ids.shape}, expected 1-D unicode")
    metric = metric.tolist()
    if metric not in METRICS:
        raise ValueError(f"{path}: unknown metric {metric!r}, expected one of {METRICS}")
    n = len(ids)
    if indices.dtype != np.int64 or distances.dtype != np.float64:
        raise ValueError(
            f"{path}: dtypes {indices.dtype}, {distances.dtype}, expected int64, float64"
        )
    shape_ok = indices.ndim == 2 and indices.shape[0] == n and indices.shape[1] >= 1
    if not shape_ok or distances.shape != indices.shape:
        raise ValueError(
            f"{path}: shapes {indices.shape}, {distances.shape}, expected ({n}, k), k >= 1"
        )
    if n == 0:
        raise ValueError(f"{path}: no fragments")
    if indices.min() < 0 or indices.max() >= n:
        raise ValueError(f"{path}: neighbor index outside [0, {n})")
    g = NeighborGraph(
        k=indices.shape[1],
        metric=metric,
        indices=np.ascontiguousarray(indices),
        distances=np.ascontiguousarray(distances),
    )
    return ids.tolist(), g, dict(zip(members, extra))

"""Exact k-nearest-neighbor graphs under cosine or Euclidean distance.

Graphs are built by a blocked brute-force scan, O(n^2 d) work, with no
approximation in the result. Each block ranks all pairs with one float32
matrix product, keeps a shortlist that provably holds every exact
neighbor (each pair's margin covers float32's unit roundoff u = 2^-24
relative to its own rows' norms, and the absolute error of float32
underflow), and ranks the shortlist by float64 distances recomputed
exactly as :func:`distance_matrix` computes them. Neighbor lists
exclude the query itself, are sorted by ascending distance, and break
ties by the smaller fragment index, so results are reproducible bit for
bit across runs and block splits.

Every norm and distance goes through one power-of-two range rule: rows
whose squares would overflow or underflow are scaled into range by
powers of two. :func:`unit_rows` gives every unit row, and ``pairs`` of
``_in_range`` every distance, in true units; graphs are ranked in them.
Distances come from the compiled kernels of scipy's ``cdist`` and
``pdist`` alone.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hubsel import METRICS, table

# Rows per scan block, sized so one block of float32 approximate distances
# stays around 16 MB: two are live, one reranked while the next is
# computed, around 32 MB together. Results do not depend on the split.
_BLOCK_ENTRIES = 4_000_000

# Rows per block of the packed self distances, sized so one block of the
# upper triangle stays around 1 MB next to the n (n + 1) / 2 result.
# Results do not depend on the split.
_SELF_BLOCK_ENTRIES = 1 << 17

# Columns per tile of a packed block: at d = 128 their rows take 1 MB
# (2^20 // (8 d) columns), so the rows a kernel call streams stay in a
# 2 MB L2 cache. Results do not depend on the split.
_SELF_TILE_COLUMNS = 1024

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_F32 = np.finfo(np.float32)
_F32_SMALLEST = math.sqrt(float(_F32.tiny))  # 2^-63


def _float32_ceil(v: np.ndarray) -> np.ndarray:
    """Each float64 of ``v`` rounded up to float32, the smallest float32 at
    or above it: a float32 is at most v_i exactly when it is at most this."""
    with np.errstate(over="ignore"):  # beyond float32's range: inf
        c = v.astype(np.float32)
        return np.where(c < v, np.nextafter(c, np.float32(np.inf)), c)

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
    """``(xs, top, pairs, condensed)``: the rows of ``x`` scaled by powers
    of two so that the square of the largest magnitude is normal and every
    sum of squares stays finite (each row by its own factor for cosine,
    where top is 0; all by 2^-top for euclidean); ``pairs(rx, ry)``, the
    distances between rows ``rx`` of ``x`` and ``ry`` of ``y`` in true units,
    the pair (i, j) under euclidean on both rows scaled by 2^-max(e_i, e_j)
    (:func:`_exponents`); and ``condensed(rows)``, for rows of ``x`` alone,
    the upper triangle of ``pairs(rows, rows)`` without its diagonal, row
    by row, bytes included, each pair computed once. A euclidean distance
    above the float64 maximum raises ``ValueError``; rows in range get one
    kernel call, every bit kept."""
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

    def condensed(rows) -> np.ndarray:
        D = _scaled_back(_condensed_distances(xs[rows], metric), top)
        # as in pairs; of m rows, the pair (i, j), i < j, is at i m - i (i + 1) / 2 + j - i - 1
        for level in lower:
            er = ex[rows]
            a = np.flatnonzero(er <= level)
            if a.size > 1:
                sub = _condensed_distances(np.ldexp(x[rows][a], -level), metric)
                i, j = (a[t] for t in np.triu_indices(a.size, k=1))
                D[i * er.size - i * (i + 1) // 2 + j - i - 1] = _scaled_back(sub, level)
        return D

    return xs, top, pairs, condensed


def _scaled_back(D: np.ndarray, level: int) -> np.ndarray:
    """``D`` times 2^level, in place, checked to fit when 2^level > 1."""
    if level:
        with np.errstate(over="ignore"):
            np.ldexp(D, level, out=D)
        if level > 0 and not np.isfinite(D).all():
            raise ValueError("a euclidean distance exceeds the float64 maximum (about 1.8e308)")
    return D


def _workers() -> int:
    """Threads for the blocks of :func:`packed_distances`: one per CPU the
    process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# cdist's and pdist's compiled kernels for each metric, loaded on the first
# distance of the process; empty when they cannot be loaded, and cdist and
# pdist serve both metrics
_KERNELS: dict | None = None
_KERNELS_LOCK = threading.Lock()


def _extension(name: str, package: str = "spatial"):
    """The compiled module ``scipy.<package>.<name>`` loaded on its own,
    without its package, or the one already loaded under that name; where
    the standalone load finds no module, the one imported through its
    package, or ``ImportError``."""
    fullname = f"scipy.{package}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed")
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], package),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(fullname)
    if spec is None:
        return importlib.import_module(fullname)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # a multi-phase module gets its functions here
    return module


def _load_kernels() -> dict:
    """``{metric: (rectangular, condensed)}``: the compiled functions that
    scipy's ``cdist`` and ``pdist`` call for cosine and euclidean
    (``scipy/spatial/distance.py``, scipy 1.17), ``rectangular(x, y)`` the
    (len(x), len(y)) distances and ``condensed(x)`` the len(x) (len(x) - 1)
    / 2 distances of the pairs i < j of rows of ``x``, row by row, with the
    bytes of cdist and pdist. Loading them skips the ``scipy.spatial``
    package: 0.45-0.52 s of start-up, 532 modules with its KD-tree, qhull,
    ``scipy.linalg``, ``scipy.special`` and ``scipy.sparse``, against ~5 ms
    for a process's first distance. Empty when a module or function is
    missing, or a first call raises or gives a wrong value: these modules
    are private to scipy, and older releases may differ."""
    try:
        wrap, pybind = _extension("_distance_wrap"), _extension("_distance_pybind")
        cosine_wrap = wrap.cdist_cosine_double_wrap
        cosine_pdist_wrap = wrap.pdist_cosine_double_wrap

        # both read their inputs as C-ordered float64, as cdist and pdist pass them
        def cosine(x, y):
            if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
                raise ValueError(f"cannot pair rows of shapes {x.shape} and {y.shape}")
            D = np.empty((len(x), len(y)))
            cosine_wrap(
                np.ascontiguousarray(x, dtype=np.float64),
                np.ascontiguousarray(y, dtype=np.float64), D,
            )
            return D

        def cosine_condensed(x):
            D = np.empty(len(x) * (len(x) - 1) // 2)
            cosine_pdist_wrap(np.ascontiguousarray(x, dtype=np.float64), D)
            return D

        kernels = {"cosine": (cosine, cosine_condensed),
                   "euclidean": (pybind.cdist_euclidean, pybind.pdist_euclidean)}
        probe = np.eye(2)
        for metric, want in (("cosine", 1.0), ("euclidean", math.sqrt(2.0))):
            rectangular, condensed = kernels[metric]
            if rectangular(probe[:1], probe[1:])[0, 0] != want or condensed(probe)[0] != want:
                raise ValueError(f"{metric} kernel gives another distance")
    except (ImportError, AttributeError, TypeError, ValueError):
        return {}
    return kernels


def _kernel(metric: str):
    """cdist's and pdist's compiled kernels for ``metric``, or None where
    cdist and pdist serve it."""
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
        D = kernel[0](x, y)
    return np.maximum(D, 0.0, out=D) if metric == "cosine" else D


def _condensed_distances(x, metric: str) -> np.ndarray:
    """The pairs i < j of the rows of ``x``, row by row: the upper triangle
    of ``_distances(x, x, metric)`` without its diagonal, bytes included."""
    kernel = _kernel(metric)
    if kernel is None:
        from scipy.spatial.distance import pdist

        D = pdist(x, metric=metric)
    else:
        D = kernel[1](x)
    return np.maximum(D, 0.0, out=D) if metric == "cosine" else D


def distance_matrix(x, y, metric: str) -> np.ndarray:
    """All distances between the rows of ``x`` and ``y``, in one pass.

    Cosine distances that rounding pushed below 0 are clipped to 0. Each
    distance is the one ``pairs`` of :func:`_in_range` gives, which brings
    rows into range by powers of two, so finite inputs give finite
    distances or, for a euclidean one above the float64 maximum,
    ``ValueError``. cdist computes each pair on its own and gives (i, j)
    and (j, i) the same bits, so :func:`packed_distances` holds the same
    values as the upper triangle of a self call.
    """
    x = np.asarray(x, dtype=np.float64)
    y = x if y is x else np.asarray(y, dtype=np.float64)
    pairs = _in_range(x, y, metric)[2]
    return pairs(slice(None), slice(None))


def row_starts(n: int) -> np.ndarray:
    """Where each row's tail starts in the packed upper triangle of an
    (n, n) matrix: row i's columns i to n - 1 at i n - i (i - 1) / 2 on."""
    i = np.arange(n, dtype=np.int64)
    return i * n - i * (i - 1) // 2


def packed_distances(pairs, n: int) -> np.ndarray:
    """The distances between the n rows of one matrix and themselves, as
    ``pairs`` of :func:`_in_range` gives them, packed: the upper triangle,
    diagonal included, row by row, row i's tail at ``row_starts(n)[i]``
    (LAPACK's packed storage of a symmetric matrix, read by rows), n (n +
    1) / 2 values in all.

    The triangle is computed in row blocks of at most about 1 MB, spread
    over one thread per CPU in the process's affinity mask. Each block is
    computed in tiles of ``_SELF_TILE_COLUMNS`` columns, whose rows a
    kernel call then reads from cache, and each tile is copied straight
    into the row tails it covers. The bytes are those of the full pass
    whatever the thread count, block and tile, since cdist computes each
    pair on its own and the rescaling was decided once for all rows. A
    block's error reaches the caller, and no thread outlives the call.
    """
    from concurrent.futures import ThreadPoolExecutor  # ~8 ms of start-up, for a pool only

    packed = np.empty(n * (n + 1) // 2, dtype=np.float64)
    starts = row_starts(n).tolist()
    block = max(1, _SELF_BLOCK_ENTRIES // max(n, 1))

    # block s writes the tails of rows s:e, packed[starts[s]:starts[e]],
    # which no other block touches, so the workers need no lock; row r's
    # column c is at starts[r] + c - r
    def fill(s: int) -> None:
        e = min(s + block, n)
        for c in range(s, n, _SELF_TILE_COLUMNS):
            f = min(c + _SELF_TILE_COLUMNS, n)
            T = pairs(slice(s, e), slice(c, f))
            for r in range(s, min(e, f)):
                lo = max(r, c)
                packed[starts[r] + lo - r:starts[r] + f - r] = T[r - s, lo - c:]

    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        list(pool.map(fill, range(0, n, block)))  # re-raises a block's error
    return packed


def group_mean_distances(x, groups: np.ndarray, metric: str) -> np.ndarray:
    """Mean pairwise distance within each group of rows of ``x``.

    ``groups`` is an (n, m) array of row indices, m >= 2. Each group's
    distances are those :func:`distance_matrix` gives the group's rows,
    and every pair counts once: one condensed kernel call per group
    computes each pair i < j once. Rows are brought into range once for
    the whole of ``x`` rather than once per group.
    """
    condensed = _in_range(x, x, metric)[3]
    means = np.empty(len(groups), dtype=np.float64)
    with np.errstate(over="ignore"):  # a sum near the float64 maximum, redone below
        for i, rows in enumerate(groups):
            means[i] = condensed(rows).mean()
    for i in np.flatnonzero(means == np.inf).tolist():
        D = condensed(groups[i])
        means[i] = (D / D.size).sum()
    return means


@dataclass
class NeighborGraph:
    """k-nearest-neighbor lists for every fragment of a collection.

    Attributes
    ----------
    k : int
        Neighbors per list, min(requested k, n - 1); 0 in the metric-only
        graph of ``load_graph(..., graph=False)``.
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


def _approximate(Y: np.ndarray, sq: np.ndarray | None, s: int, e: int, out) -> np.ndarray:
    """Rows s:e of the values :func:`knn_graph` shortlists by, from one
    matrix product into the first e - s rows of ``out``, all in the dtype
    of ``Y``, ``sq`` and ``out`` (float32 in the scan): 1 - y_i.y_j on unit
    rows (``sq`` None), else sq_i + sq_j - 2 y_i.y_j with ``sq`` the
    squared row norms, lowered by the scan's error bound. Each row's own
    entry is +inf, so the query drops
    out of its own list."""
    approx = np.matmul(Y[s:e], Y.T, out=out[: e - s])
    if sq is None:
        np.subtract(1.0, approx, out=approx)
    else:
        approx *= -2.0
        approx += sq
        approx += sq[s:e, None]
    approx[np.arange(e - s), np.arange(s, e)] = np.inf
    return approx


def knn_graph(m, k: int, metric: str = "cosine") -> NeighborGraph:
    """Build the exact kNN graph of a feature matrix.

    Each block of query rows is ranked against all rows with one float32
    matrix product: 1 - x.y on unit-norm rows (cosine), or the squared
    distance expanded as |x|^2 + |y|^2 - 2 x.y on the rows less their
    column means (euclidean), with each squared norm lowered by a small
    relative term so that the value is a lower bound, up to an absolute
    term, of the exact squared distance. A row's shortlist is every j
    whose value is at most an upper bound on the exact k-th distance
    (squared, for euclidean), taken from its k smallest values plus their
    pair's error bound: a pair's bound grows with the two rows' norms
    only, so a row of large norm widens its own shortlist and no other.
    The bounds cover float64's unit roundoff u = 2^-53 in the exact
    values, float32's u = 2^-24 and float32 underflow in the product.
    The shortlist therefore holds every exact neighbor and every tie at
    the k-th distance; its distances are then recomputed in float64 and
    true units as :func:`distance_matrix` computes them and sorted by
    (distance, index), so the graph's bytes are those of a full sort of
    the exact distances.

    Query rows are taken in blocks. One worker thread computes the next
    block's product while the calling thread reranks the current one, so
    the product, which releases the interpreter lock, overlaps the rerank,
    which holds it; the bytes do not depend on the split, and no thread
    outlives the call. The scan holds two blocks of float32 values, rows x
    n each, and a float32 copy of the rows.

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
    X, top, pairs, _ = _in_range(m.values, m.values, metric)

    # Why the shortlist is exact. Let A_ij be the value row i is ranked
    # by: the distance pairs reports, in true units, taken in the units of
    # the scan's rows (euclidean: the rows times 2^-(top+shift), shift
    # below) and squared for euclidean, an order-preserving map that keeps
    # ties; and L_ij the float32 value of the scan, with, for all j,
    #   L_ij - a_i <= A_ij <= L_ij + w_i + w_j + a_i.
    # Since A_ij <= L_ij + w_j + w_i + a_i for every j, the k columns of the
    # k smallest L_ij + w_j bound the k-th smallest A in row i:
    # A_(k) <= t_i + w_i + a_i, t_i the k-th smallest L_ij + w_j. A j with
    # A_ij <= A_(k) then has L_ij <= A_ij + a_i <= t_i + w_i + 2 a_i. The
    # scan adds L_ij and w_j rounded up in float32: round-to-nearest is
    # monotone, so one float32 ulp above the k-th smallest sum is at least
    # t_i. Each bound is rounded up to a float32, so its comparison with
    # the float32 row is exact under NumPy 1's value-based casting and
    # NumPy 2's promotion alike.
    #
    # Let y be the float64 rows the product starts from: unit rows for
    # cosine; for euclidean X less its column means, scaled by 2^-shift
    # (below). Subtracting the means leaves every distance as it is, and
    # the rounding of a subtraction is relative to its result (exact where
    # that is subnormal), so it moves a squared distance by at most
    # 3u (|y_i| + |y_j|)^2. Let Q_ij be the exact value on y of 1 - y_i.y_j,
    # or of |y_i|^2 + |y_j|^2 - 2 y_i.y_j, and C_ij = 1 for cosine,
    # (|y_i| + |y_j|)^2 <= 2 s_ij, s_ij = |y_i|^2 + |y_j|^2, for euclidean.
    # |Q_ij - A_ij| <= gamma_{8d+32} C_ij at u = 2^-53 with
    # gamma_m = m u / (1 - m u), plus for euclidean 2 g c_i + g^2. That
    # covers with room to spare: the norms of the unit rows (gamma_{3d+6});
    # the centering; the cdist pass (gamma_{4d+6}; gamma_{d+4} on the
    # squared value); the float64 roundings of the norms, of w and of t_i;
    # and, in true units, a euclidean distance rounded to a multiple of
    # 2^-1074, g = 2^(-1074-top-shift) in the units of y, which moves A_ij
    # by at most 2 g c_i + g^2, c_i = |y_i| + max_j |y_j|. A pair computed
    # under a factor of its own only comes nearer the exact value.
    # The float32 value P_ij of the same expression has
    # |P_ij - Q_ij| <= theta_{2d+32} C_ij + (8d + 8) T at u = 2^-24, with
    # theta_m = (1 + u)^m - 1 (m roundings; at most gamma_m where m u < 1,
    # finite for every d) and T = 2^-126 float32's smallest normal. It
    # covers, with room for the roundings of the lowered norms below:
    # - the rounding of y to float32, u |y| + T per entry;
    # - the float32 GEMM, theta_d times the product of the row norms, and
    #   T for each of its 2d operations that underflows, even where
    #   subnormals are flushed to zero; T also covers float64 underflow,
    #   below 6d u 2^-1022 in all;
    # - the squared norms rounded to float32 (euclidean) and the transform,
    #   one or two float32 operations, u each on values below 2 C_ij.
    # Summed this is under (d + 9) u C_ij + (7d + 6) T, second-order terms
    # aside. So with b = gamma_{8d+32} + theta_{2d+32}, |P_ij - A_ij| is
    # at most b C_ij + a_i, a_i = (8d + 8) T + 2 g c_i + g^2. Cosine takes
    # L = P, w = 0 and b in a_i. Euclidean computes L_ij = P_ij - 2 b s_ij
    # from norms lowered to (1 - 2b) |y|^2, and w = 4b |y|^2. A collection
    # whose largest centered magnitude lies outside [2^-63, sqrt(F / 8d)],
    # F float32's maximum, is scaled by the power of two 2^-shift that
    # brings it into [0.5, 1), so every float32 square, sum and value stays
    # finite; rows whose products underflow float32 get wide shortlists,
    # exact all the same.
    mu = (8 * d + 32) * _UNIT_ROUNDOFF
    b = mu / (1.0 - mu) + math.expm1((2 * d + 32) * math.log1p(float(_F32.eps) / 2))
    a = np.full(n, (8 * d + 8) * float(_F32.tiny))
    if metric == "cosine":
        Y, sq = unit_rows(X).astype(np.float32), None
        a += b
        w = np.zeros(n)
    else:
        Y = X - X.mean(axis=0)
        peak, shift = float(np.abs(Y).max()), 0
        if peak and not _F32_SMALLEST <= peak <= math.sqrt(float(_F32.max) / (8 * d)):
            shift = math.frexp(peak)[1]
            Y = np.ldexp(Y, -shift)
        sq = np.einsum("ij,ij->i", Y, Y)
        g = math.ldexp(1.0, -1074 - top - shift)
        a += g * (2.0 * (np.sqrt(sq) + math.sqrt(sq.max())) + g)
        w = 4.0 * b * sq
        Y, sq = Y.astype(np.float32), ((1.0 - 2.0 * b) * sq).astype(np.float32)
    w_up = _float32_ceil(w)

    from concurrent.futures import ThreadPoolExecutor  # ~8 ms of start-up, for a pool only

    k_eff = min(k, n - 1)
    indices = np.empty((n, k_eff), dtype=np.int64)
    distances = np.empty((n, k_eff), dtype=np.float64)
    block = min(max(1, _BLOCK_ENTRIES // n), n)
    # two block buffers, filled in turn and allocated once, so the two live
    # blocks never cost a third one's memory (one block leaves one untouched)
    buffers = np.empty((2, block, n), dtype=np.float32)
    sums = np.empty(n, dtype=np.float32)  # one row's L_ij + w_j, partitioned in place
    approx = _approximate(Y, sq, 0, block, buffers[0])
    # the worker fills the other buffer; a single block starts no thread,
    # and a failed product raises at its result
    with ThreadPoolExecutor(max_workers=1) as pool:
        for s in range(0, n, block):
            e = min(s + block, n)
            ahead = None if e == n else pool.submit(
                _approximate, Y, sq, e, min(e + block, n), buffers[(e // block) % 2]
            )
            kth = np.empty(e - s, dtype=np.float32)
            for r, row in enumerate(approx):
                np.add(row, w_up, out=sums)
                sums.partition(k_eff - 1)
                kth[r] = sums[k_eff - 1]
            # t_i, one float32 ulp above the k-th sum, and each row's bound
            t = np.nextafter(kth, np.float32(np.inf)).astype(np.float64)
            bounds = _float32_ceil(t + w[s:e] + 2.0 * a[s:e])
            for i, row, bound in zip(range(s, e), approx, bounds):
                cand = np.flatnonzero(row <= bound)
                dist = pairs(slice(i, i + 1), cand)[0]
                order = np.argsort(dist, kind="stable")[:k_eff]
                indices[i] = cand[order]
                distances[i] = dist[order]
            approx = ahead.result() if ahead else None
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


def load_graph(
    path, members=(), graph: bool = True
) -> tuple[list[str], NeighborGraph, dict[str, np.ndarray]]:
    """``(ids, graph, extra)`` from a ``.npz`` archive of :func:`save_graph`,
    read in one open: the ids in order, the graph under its stored metric,
    and the arrays of the named ``members``, unchecked, by name. With
    ``graph`` false, ``indices`` and ``distances`` are neither read nor
    checked, and the graph holds the stored metric and no columns (k = 0).

    Any other suffix raises ``ValueError`` before the file is opened (the
    CSV export is not read back), and so does an archive that is damaged,
    lacks a member, needs pickle, or does not hold 1-D unicode ids, a
    metric in :data:`METRICS` and an (n, k) graph of them, n, k >= 1.
    """
    if not _is_npz(path):
        raise ValueError(f"{path}: not a .npz graph archive")
    names = ("ids", "metric", *(("indices", "distances") if graph else ()), *members)
    with open(path, "rb") as fh:  # a file that cannot be opened is an I/O error
        try:
            z = np.load(fh, allow_pickle=False)
            if not isinstance(z, np.lib.npyio.NpzFile):
                raise ValueError("a single array")
            with z:
                ids, metric, *arrays = [z[name] for name in names]
        except _ARCHIVE_DAMAGE as exc:
            raise ValueError(f"{path}: not a readable graph archive ({exc!r})") from exc
    if ids.dtype.kind != "U" or ids.ndim != 1:
        raise ValueError(f"{path}: ids {ids.dtype}, {ids.shape}, expected 1-D unicode")
    metric = metric.tolist()
    if metric not in METRICS:
        raise ValueError(f"{path}: unknown metric {metric!r}, expected one of {METRICS}")
    n = len(ids)
    if graph:
        indices, distances, *arrays = arrays
        if indices.dtype != np.int64 or distances.dtype != np.float64:
            raise ValueError(
                f"{path}: dtypes {indices.dtype}, {distances.dtype}, expected int64, float64"
            )
        shape_ok = indices.ndim == 2 and indices.shape[0] == n and indices.shape[1] >= 1
        if not shape_ok or distances.shape != indices.shape:
            raise ValueError(
                f"{path}: shapes {indices.shape}, {distances.shape}, expected ({n}, k), k >= 1"
            )
    else:  # the stored metric alone, in a graph of no columns
        indices, distances = np.empty((n, 0), dtype=np.int64), np.empty((n, 0))
    if n == 0:
        raise ValueError(f"{path}: no fragments")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ValueError(f"{path}: neighbor index outside [0, {n})")
    g = NeighborGraph(
        k=indices.shape[1],
        metric=metric,
        indices=np.ascontiguousarray(indices),
        distances=np.ascontiguousarray(distances),
    )
    return ids.tolist(), g, dict(zip(members, arrays))

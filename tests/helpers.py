"""Shared test oracles, deliberately independent of the library internals.

Distances are recomputed from their definitions (broadcast differences,
normalized dot products), neighbor lists by full sorts with explicit
index tie keys, subset optima by exhaustive enumeration.
"""

import itertools
import struct

import numpy as np

from hubsel.features import FeatureMatrix


def random_matrix(rng, n, d, prefix="f"):
    return FeatureMatrix(
        ids=[f"{prefix}{i:05d}" for i in range(n)],
        values=rng.standard_normal((n, d)),
    )


def manual_distance(x, y, metric):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if metric == "euclidean":
        return float(np.sqrt(((x - y) ** 2).sum()))
    nx = float(np.sqrt((x**2).sum()))
    ny = float(np.sqrt((y**2).sum()))
    return max(0.0, 1.0 - float((x * y).sum()) / (nx * ny))


def brute_force_knn(X, k, metric):
    """Naive reference: full distance matrix, full sort, index tie key."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if metric == "euclidean":
        D = np.empty((n, n))
        for i in range(n):
            D[i] = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
    else:
        norms = np.sqrt((X**2).sum(axis=1))
        D = np.clip(1.0 - (X @ X.T) / np.outer(norms, norms), 0.0, None)
    np.fill_diagonal(D, np.inf)
    k_eff = min(k, n - 1)
    idx = np.empty((n, k_eff), dtype=np.int64)
    dist = np.empty((n, k_eff), dtype=np.float64)
    for i in range(n):
        order = np.lexsort((np.arange(n), D[i]))[:k_eff]
        idx[i] = order
        dist[i] = D[i][order]
    return idx, dist


def subset_objective(h, d, a, subset, k):
    """Direct evaluation of the selection objective for a binary subset."""
    lin = sum(h[i] for i in subset) / k - sum(d[i] for i in subset) / k
    quad = sum(a[i][j] for i in subset for j in subset if i != j) / (k * (k - 1))
    return lin + quad


def best_subset(h, d, a, k):
    """Exhaustive enumeration over all C(n, k) binary selections."""
    n = len(h)
    best, best_set = -np.inf, None
    for comb in itertools.combinations(range(n), k):
        val = subset_objective(h, d, a, comb, k)
        if val > best:
            best, best_set = val, frozenset(comb)
    return best, best_set


def random_selection_problem(rng, n=None, k=None):
    """Instance with uniform H, D and a random symmetric zero-diag A."""
    from hubsel.selector import SelectionProblem

    n = n if n is not None else int(rng.integers(4, 13))
    k = k if k is not None else int(rng.integers(2, min(5, n + 1)))
    h = rng.uniform(0.0, 1.0, n)
    d = rng.uniform(0.0, 1.0, n)
    a = rng.uniform(0.0, 1.0, (n, n))
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, 0.0)
    return SelectionProblem(h=h, d_risk=d, a=a, k=k)


def ap_reference(items, relevant, depth):
    """Vectorized AP@depth, written independently of the library loop."""
    relevant = set(relevant)
    if not relevant:
        return 0.0
    flags = np.array([1.0 if it in relevant else 0.0 for it in items[:depth]])
    if flags.size == 0 or flags.sum() == 0:
        return 0.0
    precision = np.cumsum(flags) / np.arange(1, flags.size + 1)
    return float((precision * flags).sum() / min(len(relevant), depth))


def write_fbin(path, ids, values):
    """An fbin file written byte by byte, so any id can be stored."""
    values = np.asarray(values, dtype="<f4")
    raw = b"HLF1" + struct.pack("<II", *values.shape) + values.tobytes()
    for ident in ids:
        enc = ident.encode("utf-8")
        raw += struct.pack("<H", len(enc)) + enc
    path.write_bytes(raw)
    return path

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


def reference_solve(p, y0, step_rule="derived", max_iterations=None):
    """Naive pairwise-transfer solver: one full reward vector r, and the
    receiver and donor sets recomputed from y at every iteration, with the
    update arithmetic of ``selector.solve``. The extremes and the budget
    drift come from full scans of y. Returns (y, SolverTrace)."""
    from hubsel.selector import TOLERANCE, SolverTrace, kkt_residual

    y = np.array(y0, dtype=np.float64)
    n, k = y.size, p.k
    denom = max(k * (k - 1), 1)
    ay = p.a @ y
    r = (p.h - p.d_risk) / k + 2.0 * ay / denom
    f = (float(np.add.reduce(y * p.h)) - float(np.add.reduce(y * p.d_risk))) / k
    f += float(np.add.reduce(y * ay)) / denom
    objs, updates, converged = [f], [], False
    y_lo, y_hi, drift = float(y.min()), float(y.max()), abs(float(y.sum()) - k)
    for _ in range(max_iterations if max_iterations is not None else 10 * n):
        receivers = np.flatnonzero(y < 1.0 - TOLERANCE)
        donors = np.flatnonzero(y > TOLERANCE)
        if not receivers.size or not donors.size:
            converged = True
            break
        i = int(receivers[np.argmax(r[receivers])])
        j = int(donors[np.argmin(r[donors])])
        eta = float(r[i] - r[j])
        if eta <= TOLERANCE:
            converged = True
            break
        cap_j, cap_i = float(y[j]), 1.0 - float(y[i])
        box = min(cap_j, cap_i)
        row_i, row_j = p.a[i], p.a[j]
        sigma = float(row_i[i]) + float(row_j[j]) - 2.0 * float(row_i[j])
        if sigma >= 0.0:
            alpha = box
        else:
            span = denom * eta / (-sigma)
            if step_rule == "paper" and span <= box:
                break
            alpha = min(box, span / 2.0 if step_rule == "derived" else span)
        f += eta * alpha + sigma * alpha * alpha / denom
        y[j] = 0.0 if alpha >= cap_j else y[j] - alpha
        y[i] = 1.0 if alpha >= cap_i else y[i] + alpha
        delta = row_i - row_j
        delta *= 2.0 * alpha / denom
        r += delta
        objs.append(f)
        updates.append((eta, j, i, alpha))
        y_lo, y_hi = min(y_lo, float(y.min())), max(y_hi, float(y.max()))
        drift = max(drift, abs(float(y.sum()) - k))
    trace = SolverTrace(
        objective_per_iteration=objs,
        iterations=len(updates),
        kkt_residual=kkt_residual(p, y),
        converged=converged,
        updates=updates,
        max_budget_drift=drift,
        y_min=y_lo,
        y_max=y_hi,
    )
    return y, trace

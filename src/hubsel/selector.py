"""Budgeted selection of popular, low-risk, mutually diverse fragments.

The selection problem asks for k fragments that score high on normalized
hubness H, low on normalized LID risk D, and are pairwise distant under
the affinity matrix A. With a relaxed indicator vector y in [0, 1]^n and
sum(y) = k, the objective is

    f(y) = yH / k - yD / k + yAy / (k (k - 1))

maximized by pairwise budget-preserving updates: each iteration moves
mass alpha from the fragment with the smallest reward (donor) to the one
with the largest reward (receiver), where the reward vector is the exact
gradient of f. The loop stops when no pair improves by more than the
tolerance; the fractional result is rounded to the k largest entries.
A linear problem (k = 1 allowed) is one whose A is zero; its pair
divisor k (k - 1) is taken as at least 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from hubsel import table
from hubsel.neighbors import NeighborGraph, _check_metric, check_cosine_rows, distance_matrix


@dataclass
class SelectionProblem:
    """Normalized inputs of one selection instance.

    Attributes
    ----------
    h : ndarray (n,)
        Hubness term, min-max normalized to [0, 1].
    d_risk : ndarray (n,)
        Risk term, min-max normalized to [0, 1].
    a : ndarray or scipy CSR matrix, (n, n)
        Symmetric non-negative pairwise distances, zero diagonal; all
        zero for a linear problem.
    k : int
        Budget, 2 <= k <= n; k = 1 needs A = 0.
    """

    h: np.ndarray
    d_risk: np.ndarray
    a: object
    k: int

    @property
    def n(self) -> int:
        return self.h.shape[0]


@dataclass
class SolverConfig:
    init: object = "hub_first"  # hub_first | lid_first | uniform | ndarray
    max_iterations: int | None = None  # default 10 n
    tolerance: float = 1e-9
    step_rule: str = "derived"  # derived | paper


@dataclass
class SolverTrace:
    """Per-run diagnostics of the pairwise-update solver.

    ``objective_per_iteration`` holds the objective before the first
    update and after every applied update. ``updates`` holds one
    (eta, donor, receiver, alpha) tuple per applied update.
    """

    objective_per_iteration: list = field(default_factory=list)
    iterations: int = 0
    kkt_residual: float = 0.0
    converged: bool = False
    updates: list = field(default_factory=list)
    max_budget_drift: float = 0.0
    y_min: float = 0.0
    y_max: float = 0.0


def _minmax(v: np.ndarray, what: str) -> np.ndarray:
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        warnings.warn(f"constant {what} vector, normalization yields all zeros")
        return np.zeros_like(v, dtype=np.float64)
    return (v - lo) / (hi - lo)


def build_problem(
    hub,
    lid,
    m,
    metric: str,
    k: int,
    mode: str = "dense",
    graph: NeighborGraph | None = None,
    linear: bool = False,
) -> SelectionProblem:
    """Normalize profiles and materialize the affinity for one instance.

    H is the min-max normalized hubness score vector. D is the min-max
    normalized LID vector computed over non-degenerate estimates, with
    degenerate entries mapped to 1 (maximal risk). In ``dense`` mode A is
    the full pairwise distance matrix; in ``knn_sparse`` mode only graph
    edges are kept and A is symmetrized by the elementwise maximum. With
    ``linear`` A is an all-zero CSR matrix and no distance is computed.

    Parameters
    ----------
    hub : HubnessProfile
    lid : LidProfile
    m : FeatureMatrix
    metric : {'cosine', 'euclidean'}
    k : int
        Budget. Requires 2 <= k <= n, or 1 <= k <= n with ``linear``.
    mode : {'dense', 'knn_sparse'}
    graph : NeighborGraph, required for ``knn_sparse`` unless ``linear``
    linear : bool
        Drop the quadratic term, A = 0 (allows k = 1).
    """
    # imported here: scipy.sparse costs ~0.2 s of start-up, which commands
    # that build no problem (eval, baseline rank, fuse) skip
    from scipy import sparse

    _check_metric(metric)
    if mode not in ("dense", "knn_sparse"):
        raise ValueError(f"unknown affinity mode '{mode}'")
    n = m.n
    if len(hub.scores) != n or len(lid.lids) != n:
        raise ValueError(
            f"profile sizes ({len(hub.scores)}, {len(lid.lids)}) do not match {n} fragments"
        )
    kmin = 1 if linear else 2
    if not (kmin <= k <= n):
        raise ValueError(f"invalid budget k = {k}: need {kmin} <= k <= {n}")

    h = _minmax(np.asarray(hub.scores, dtype=np.float64), "hub score")
    lids = np.asarray(lid.lids, dtype=np.float64)
    deg = np.asarray(lid.degenerate, dtype=bool)
    d_risk = np.ones(n, dtype=np.float64)
    if (~deg).any():
        d_risk[~deg] = _minmax(lids[~deg], "lid risk")
    else:
        warnings.warn("all lid estimates degenerate, risk vector is constant 1")

    if linear:
        a = sparse.csr_matrix((n, n), dtype=np.float64)
    elif mode == "dense":
        if metric == "cosine":
            check_cosine_rows(m)
        a = distance_matrix(m.values, m.values, metric)
        np.fill_diagonal(a, 0.0)
    else:
        if graph is None:
            raise ValueError("knn_sparse mode requires a neighbor graph")
        if graph.n != n:
            raise ValueError(f"graph covers {graph.n} fragments, expected {n}")
        width = graph.indices.shape[1]
        rows = np.repeat(np.arange(n), width)
        mat = sparse.coo_matrix(
            (graph.distances.ravel(), (rows, graph.indices.ravel())), shape=(n, n)
        ).tocsr()
        a = mat.maximum(mat.T).tocsr()
    return SelectionProblem(h=h, d_risk=d_risk, a=a, k=k)


def _row(a, i: int) -> np.ndarray:
    """Row i of A as a dense vector; the one place that tells dense from CSR."""
    if isinstance(a, np.ndarray):
        return a[i]
    row = np.zeros(a.shape[1])
    lo, hi = a.indptr[i], a.indptr[i + 1]
    row[a.indices[lo:hi]] = a.data[lo:hi]
    return row


def _pair_divisor(k: int) -> int:
    """k (k - 1), or 1 at k = 1 where A = 0 and the pair term vanishes."""
    return max(k * (k - 1), 1)


def _objective_at(p: SelectionProblem, v: np.ndarray, av: np.ndarray) -> float:
    return (float(v @ p.h) - float(v @ p.d_risk)) / p.k + float(v @ av) / _pair_divisor(p.k)


def _rewards_at(p: SelectionProblem, av: np.ndarray) -> np.ndarray:
    return (p.h - p.d_risk) / p.k + 2.0 * av / _pair_divisor(p.k)


def objective(p: SelectionProblem, y: np.ndarray) -> float:
    """Objective f(y). No budget check, so perturbed y may be evaluated."""
    return _objective_at(p, y, p.a @ y)


def rewards(p: SelectionProblem, y: np.ndarray) -> np.ndarray:
    """Gradient of the objective: r = H/k - D/k + 2Ay / (k (k - 1))."""
    return _rewards_at(p, p.a @ y)


def reward(p: SelectionProblem, y: np.ndarray, i: int) -> float:
    return float(rewards(p, y)[i])


def _first_k(p: SelectionProblem, key: np.ndarray) -> np.ndarray:
    """Indicator of the k smallest ``key`` entries, ties to the smaller index."""
    y = np.zeros(p.n, dtype=np.float64)
    y[np.argsort(key, kind="stable")[: p.k]] = 1.0
    return y


def init_hub_first(p: SelectionProblem) -> np.ndarray:
    """Indicator of the k largest H entries, ties to the smaller index."""
    return _first_k(p, -p.h)


def init_lid_first(p: SelectionProblem) -> np.ndarray:
    """Indicator of the k smallest D entries, ties to the smaller index."""
    return _first_k(p, p.d_risk)


def init_uniform(p: SelectionProblem) -> np.ndarray:
    return np.full(p.n, p.k / p.n, dtype=np.float64)


_INITS = {
    "hub_first": init_hub_first,
    "lid_first": init_lid_first,
    "uniform": init_uniform,
}


def _initial_vector(p: SelectionProblem, cfg: SolverConfig) -> np.ndarray:
    """A fresh float64 start vector: a named init, or a copy of a custom
    one that meets the budget and the unit box to within 1e-9."""
    if isinstance(cfg.init, str):
        try:
            return _INITS[cfg.init](p)
        except KeyError:
            raise ValueError(f"unknown init '{cfg.init}'") from None
    y = np.array(cfg.init, dtype=np.float64)
    if y.shape != (p.n,):
        raise ValueError(f"custom init has shape {y.shape}, expected ({p.n},)")
    if abs(float(y.sum()) - p.k) > 1e-9:
        raise ValueError(f"budget violated: sum(y) = {float(y.sum())!r}, expected {p.k}")
    if y.min() < -1e-9 or y.max() > 1.0 + 1e-9:
        raise ValueError("y outside the unit box")
    return y


def solve(p: SelectionProblem, cfg: SolverConfig | None = None):
    """Maximize the selection objective by pairwise mass transfers.

    Every iteration picks the receiver i with the largest reward among
    fragments below 1 and the donor j with the smallest reward among
    fragments above 0 and transfers

        alpha = min(y_j, 1 - y_i, alpha_step)

    between them, which preserves the budget exactly. With the
    ``derived`` step rule alpha_step is the exact 1-D maximizer
    k (k - 1) eta / (-2 sigma) of the objective along the transfer
    direction, where eta = r_i - r_j and sigma = A_ii + A_jj - 2 A_ij;
    when sigma >= 0 the objective is convex along the direction and the
    full box step is taken. The ``paper`` rule uses twice that step,
    which lands on the same objective level it started from; when such a
    step makes no progress and is not box-limited the run stops with
    ``converged = False`` since the update direction cannot improve.

    Returns
    -------
    (ndarray, SolverTrace)
        The relaxed indicator y, a fresh float64 array. The KKT residual
        in the trace is recomputed from scratch at the final iterate.
    """
    cfg = cfg or SolverConfig()
    if cfg.step_rule not in ("derived", "paper"):
        raise ValueError(f"unknown step rule '{cfg.step_rule}'")
    tol = cfg.tolerance
    k = p.k
    n = p.n
    max_iter = cfg.max_iterations if cfg.max_iterations is not None else 10 * n

    y = _initial_vector(p, cfg)  # updated in place
    denom = _pair_divisor(k)
    ay = p.a @ y
    r = _rewards_at(p, ay)
    f = _objective_at(p, y, ay)

    objs = [f]
    updates: list[tuple] = []
    drift = abs(float(y.sum()) - k)
    y_lo, y_hi = float(y.min()), float(y.max())
    converged = False

    for _ in range(max_iter):
        recv = y < 1.0 - tol
        don = y > tol
        if not recv.any() or not don.any():
            converged = True
            break
        i = int(np.argmax(np.where(recv, r, -np.inf)))
        j = int(np.argmin(np.where(don, r, np.inf)))
        eta = float(r[i] - r[j])
        if eta <= tol:
            converged = True
            break
        cap_j, cap_i = float(y[j]), 1.0 - float(y[i])
        box = min(cap_j, cap_i)
        row_i, row_j = _row(p.a, i), _row(p.a, j)
        sigma = float(row_i[i]) + float(row_j[j]) - 2.0 * float(row_i[j])
        if sigma >= 0.0:
            alpha = box
        else:
            span = denom * eta / (-sigma)
            step = span / 2.0 if cfg.step_rule == "derived" else span
            alpha = min(box, step)
        gain = eta * alpha + sigma * alpha * alpha / denom
        if gain <= 0.0 and alpha < box:
            # the step lands back on its own level set; no progress is
            # possible along this direction, stop rather than cycle
            break

        # snap to the box exactly so the budget cannot drift
        y[j] = 0.0 if alpha >= cap_j else y[j] - alpha
        y[i] = 1.0 if alpha >= cap_i else y[i] + alpha

        r += (2.0 * alpha / denom) * (row_i - row_j)
        f += gain
        objs.append(f)
        updates.append((eta, j, i, alpha))
        drift = max(drift, abs(float(y.sum()) - k))
        # only y_i and y_j moved, so the running extremes need only them
        y_lo = min(y_lo, float(y[i]), float(y[j]))
        y_hi = max(y_hi, float(y[i]), float(y[j]))

    trace = SolverTrace(
        objective_per_iteration=objs,
        iterations=len(updates),
        kkt_residual=kkt_residual(p, y, tol),
        converged=converged,
        updates=updates,
        max_budget_drift=drift,
        y_min=y_lo,
        y_max=y_hi,
    )
    return y, trace


def kkt_residual(p: SelectionProblem, y: np.ndarray, tol: float = 1e-9) -> float:
    """Stationarity violation of y for the box-and-budget constraints.

    The multiplier is estimated as the midpoint between the largest
    reward of any fragment below 1 and the smallest reward of any
    fragment above 0. Entries at 0 may not exceed it, entries at 1 may
    not fall below it, interior entries must match it; the residual is
    the largest violation, 0 when either candidate set is empty.
    """
    r = rewards(p, y)
    below = y < 1.0 - tol
    above = y > tol
    if not below.any() or not above.any():
        return 0.0
    lam = 0.5 * (float(r[below].max()) + float(r[above].min()))
    gap = r - lam
    # entries at 0 (not above) violate by gap, at 1 (not below) by -gap
    viol = np.where(above, np.where(below, np.abs(gap), -gap), gap)
    return max(0.0, float(viol.max()))


def round_selection(y: np.ndarray, p: SelectionProblem) -> list[int]:
    """Indices of the k largest y entries.

    Ties are broken by the higher reward at y, then by the smaller
    index, so rounding is deterministic.
    """
    return ranking_order(y, p)[: p.k]


def ranking_order(y: np.ndarray, p: SelectionProblem) -> list[int]:
    """All indices by descending y, then descending reward, then index."""
    r = rewards(p, y)
    order = np.lexsort((np.arange(y.size), -r, -y))
    return [int(i) for i in order]


def save_solution(
    path,
    ids: list[str],
    p: SelectionProblem,
    y: np.ndarray,
    trace: SolverTrace,
    init_label: str,
) -> list[int]:
    """Write the solver result as JSON (fresh objective, selected ids) and
    return the selected indices, as :func:`round_selection` gives them."""
    selected = round_selection(y, p)
    payload = {
        "k": p.k,
        "init": init_label,
        "iterations": trace.iterations,
        "converged": trace.converged,
        "kkt_residual": trace.kkt_residual,
        "objective": objective(p, y),
        "selected": [ids[i] for i in selected],
        "y": [float(v) for v in y],
    }
    table.write_json(path, payload)
    return selected


TRACE_HEADER = "iteration,objective,eta,donor,receiver,alpha"


def save_trace(path, trace: SolverTrace) -> None:
    """Write per-iteration rows ``iteration,objective,eta,donor,receiver,alpha``."""
    objs = trace.objective_per_iteration
    rows = (
        (str(t), repr(objs[t]), repr(eta), str(donor), str(receiver), repr(alpha))
        for t, (eta, donor, receiver, alpha) in enumerate(trace.updates, start=1)
    )
    table.write_rows(path, rows, header=TRACE_HEADER)

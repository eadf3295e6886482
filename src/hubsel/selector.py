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

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from hubsel import table
from hubsel.neighbors import (
    NeighborGraph, _check_metric, _extension, _in_range, check_cosine_rows, packed_distances,
    row_starts,
)

TOLERANCE = 1e-9  # y this close to 0 or 1 is at the box; a reward gap this small, no gain

# The share of n past which a dense affinity builds its packed triangle:
# once a product's support, or the count of rows computed on demand,
# passes it, on-demand work would cost more than the one full pass.
_ON_DEMAND_SHARE = 0.25

# Rows a built dense affinity keeps for reread, unpacked: a uniform start
# reads its ~20-40 receivers' rows ~250 times each, and each donor's once.
_ROW_CACHE = 64


@dataclass
class SelectionProblem:
    """Normalized inputs of one selection instance.

    Attributes
    ----------
    h : ndarray (n,)
        Hubness term, min-max normalized to [0, 1].
    d_risk : ndarray (n,)
        Risk term, min-max normalized to [0, 1].
    a : (n, n) affinity
        Symmetric, non-negative, zero diagonal. The solver reads it only
        as ``a[i]``, row i as a float64 vector for 0 <= i < n, and
        ``a @ y``, and takes an ``nnz`` of 0 as an A with no entry. An
        ndarray, :class:`DenseAffinity` and :class:`CsrAffinity` meet
        this; the two objects raise ``IndexError`` for any other i. Dense
        mode: a DenseAffinity of every pairwise distance, which computes
        and keeps the rows the solver and its products read, or, once they
        stop paying, the matrix's upper triangle, each pair held once.
        knn_sparse mode: a CsrAffinity of the kNN edge distances, the
        larger of (i, j) and (j, i), zero off the edges. A linear problem:
        a CsrAffinity with no entry.
    k : int
        Budget, 2 <= k <= n; k = 1 needs A = 0.
    """

    h: np.ndarray
    d_risk: np.ndarray
    a: object
    k: int
    # (y, A@y) of the last y the objective or the rewards were asked for
    _last: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.h.shape[0]


@dataclass
class SolverConfig:
    init: object = "hub_first"  # hub_first | lid_first | uniform | ndarray
    max_iterations: int | None = None  # default 10 n
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


@dataclass(eq=False)
class CsrAffinity:
    """A sparse (n, n) affinity in compressed sparse row form: row i holds
    the values ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``, as scipy's CSR matrices hold
    them. ``a @ y`` is scipy's own CSR product, with its bytes, from
    ``scipy.sparse._sparsetools`` loaded by :func:`_extension`: on its own,
    which skips the 0.22-0.28 s ``scipy.sparse`` import, or through the
    package where that load finds no module."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def __getitem__(self, i: int) -> np.ndarray:
        """Row i as a dense vector."""
        _check_row(self, i)  # indptr[i] would read a wrong row for a negative i
        row = np.zeros(self.shape[1])
        lo, hi = self.indptr[i], self.indptr[i + 1]
        row[self.indices[lo:hi]] = self.data[lo:hi]
        return row

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        y = _checked_vector(self, y)  # the compiled product reads n entries unchecked
        out = np.zeros(self.shape[0], dtype=np.float64)
        tools = _extension("_sparsetools", "sparse")
        tools.csr_matvec(*self.shape, self.indptr, self.indices, self.data, y, out)
        return out


def _check_row(a, i: int) -> None:
    if not 0 <= i < a.shape[0]:
        raise IndexError(f"row {i} of an affinity of {a.shape[0]} rows")


def _checked_vector(a, y) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != a.shape[1:]:
        raise ValueError(f"cannot multiply a {a.shape} affinity by shape {y.shape}")
    return y


class DenseAffinity:
    """Every pairwise distance between the rows of ``values``, as an
    (n, n) affinity with a zero diagonal, computed as it is read.

    ``a[i]`` computes row i and keeps it. ``a @ y`` is the sum of
    y_j a[j] over the support of y in ascending j, from a zero vector, by
    elementwise multiplies and adds: A is symmetric, and every other row
    meets a zero of y. Each distance is the one :func:`distance_matrix`
    gives the pair, whatever the rows computed with it, so on-demand rows
    equal the matrix's rows; a product's bytes depend on those rows alone,
    so both backings give the same bytes under any BLAS and thread count.

    Once a product's support or the count of rows kept passes
    ``_ON_DEMAND_SHARE`` of n, A is built once, by the threaded pass of
    :func:`packed_distances`, as its upper triangle alone: n (n + 1) / 2
    values, each pair held once. A row read then joins row i's contiguous
    tail to its head, gathered from column i of the rows above, and the
    last ``_ROW_CACHE`` rows read are kept. A product past the share reads
    only row tails (:meth:`_tail_product`), with the product rule's bytes.
    ``np.asarray(a)`` unpacks the triangle into a new (n, n) matrix. A
    euclidean collection whose distances are not bounded below the float64
    maximum builds A at once, so a distance that does not fit raises
    ``ValueError`` here, as the full pass does.
    """

    def __init__(self, values: np.ndarray, metric: str):
        values = np.asarray(values, dtype=np.float64)
        n, self._width = values.shape
        self.shape = (n, n)
        # rows computed on demand, or, once A is built, the last rows read
        # in the order read (a dict keeps it)
        self._rows: dict[int, np.ndarray] = {}
        self._packed: np.ndarray | None = None
        xs, top, self._pairs, _ = _in_range(values, values, metric)
        # a distance is at most twice the largest row norm, taken here in
        # the scaled units of xs, with a factor of 2 for rounding
        if top > 0 and 4.0 * float(np.linalg.norm(xs, axis=1).max()) > math.ldexp(
            float(np.finfo(np.float64).max), -top
        ):
            self._built()

    @property
    def nbytes(self) -> int:
        """Bytes of the distances held: the packed triangle once built,
        without the rows it keeps for reread, else the rows kept."""
        if self._packed is not None:
            return self._packed.nbytes
        return sum(row.nbytes for row in self._rows.values())

    def _pays(self, count: int) -> bool:
        return count <= self.shape[0] * _ON_DEMAND_SHARE

    def _built(self) -> np.ndarray:
        if self._packed is None:
            self._rows.clear()
            n = self.shape[0]
            packed = packed_distances(self._pairs, n, self._width)
            self._starts = row_starts(n)
            packed[self._starts] = 0.0  # the diagonal
            # A[j, i] for j < i lies at heads[j] + i
            self._heads = self._starts - np.arange(n)
            self._index = np.empty(n, dtype=np.int64)  # one row's head, reused
            self._packed = packed
        return self._packed

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a dense affinity unpacks into a new array")
        packed, n = self._built(), self.shape[0]
        a = np.empty(self.shape, dtype=np.float64)
        for i, start in enumerate(self._starts.tolist()):
            a[i, i:] = a[i:, i] = packed[start:start + n - i]
        return a if dtype is None else a.astype(dtype, copy=False)

    def __getitem__(self, i: int) -> np.ndarray:
        """Row i: computed on its first read and kept, or, once A is built,
        unpacked from the triangle and kept among the last rows read."""
        _check_row(self, i)  # the packed reads take no other index
        row = self._rows.pop(i, None)
        if row is None:
            if self._packed is None and self._pays(len(self._rows) + 1):
                row = self._pairs(slice(i, i + 1), slice(None))[0]
                row[i] = 0.0
            else:
                row = self._unpacked(i)
                if len(self._rows) >= _ROW_CACHE:
                    del self._rows[next(iter(self._rows))]  # the least recently read
        self._rows[i] = row
        return row

    def _unpacked(self, i: int) -> np.ndarray:
        packed, n = self._built(), self.shape[0]
        row = np.empty(n)
        index = np.add(self._heads[:i], i, out=self._index[:i])
        packed.take(index, out=row[:i], mode="clip")  # every index is in range
        start = int(self._starts[i])
        row[i:] = packed[start:start + n - i]
        return row

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        y = _checked_vector(self, y)
        support = np.flatnonzero(y)
        if not self._pays(support.size):
            return self._tail_product(y)
        out = np.zeros(self.shape[0])
        for j in support.tolist():
            out += y[j] * self[j]
        return out

    def _tail_product(self, y: np.ndarray) -> np.ndarray:
        """A y by the product rule, read from the row tails of the built
        triangle alone. Entry m of the rule's sum takes the terms
        y_j A[j, m] over the support in ascending j, from 0. Walking m
        upwards, out[m] already holds its terms j < m, each added by the
        tail of an earlier support row j as the rule adds it; the terms
        j >= m are row m's own tail, A[m, m:], times y[m:], summed on from
        out[m] in ascending j by one sequential ``np.add.accumulate``. Off
        the support that sum adds y_j A[m, j] = +-0.0, which leaves it as
        it is: A is finite, and no entry of out is ever -0.0, since it
        starts at +0.0 and a round-to-nearest sum is -0.0 only of two -0.0."""
        packed, n = self._built(), self.shape[0]
        out = np.zeros(n)
        sums = np.empty(n + 1)
        for m, start in enumerate(self._starts.tolist()):
            tail = packed[start:start + n - m]
            part = sums[: n - m + 1]
            part[0] = out[m]
            np.multiply(y[m:], tail, out=part[1:])
            out[m] = np.add.accumulate(part, out=part)[-1]
            if y[m]:
                out[m + 1:] += y[m] * tail[1:]
        return out


def _knn_affinity(graph: NeighborGraph) -> CsrAffinity:
    """A on the kNN edges of ``graph``: (i, j) and (j, i) both hold the
    larger of the two edge distances, and zero distances hold no entry.
    These are the arrays scipy gives ``mat.maximum(mat.T)`` for the CSR
    matrix ``mat`` of the graph, computed by the same compiled functions."""
    tools = _extension("_sparsetools", "sparse")
    n, width = graph.indices.shape
    nnz = n * width
    # scipy's index type: 32 bits while the larger result fits them
    idx = np.int32 if 2 * nnz <= np.iinfo(np.int32).max else np.int64
    indptr = np.arange(0, nnz + 1, width, dtype=idx)
    indices = graph.indices.astype(idx).ravel()
    data = graph.distances.astype(np.float64).ravel()
    tools.csr_sort_indices(n, indptr, indices, data)
    t_indptr, t_indices, t_data = np.empty(n + 1, idx), np.empty(nnz, idx), np.empty(nnz)
    tools.csr_tocsc(n, n, indptr, indices, data, t_indptr, t_indices, t_data)
    a_indptr, a_indices, a_data = np.empty(n + 1, idx), np.empty(2 * nnz, idx), np.empty(2 * nnz)
    tools.csr_maximum_csr(
        n, n, indptr, indices, data, t_indptr, t_indices, t_data, a_indptr, a_indices, a_data
    )
    # the edges and their transpose go before the trim, which shrinks the
    # result in place: no copy of it is made, and no view of it exists
    del indptr, indices, data, t_indptr, t_indices, t_data
    size = int(a_indptr[-1])
    a_indices.resize(size, refcheck=False)
    a_data.resize(size, refcheck=False)
    return CsrAffinity(a_indptr, a_indices, a_data, (n, n))


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
    """Normalize profiles and set up the affinity for one instance.

    H is the min-max normalized hubness score vector. D is the min-max
    normalized LID vector computed over non-degenerate estimates, with
    degenerate entries mapped to 1 (maximal risk). In ``dense`` mode A is
    the full pairwise distance matrix, a :class:`DenseAffinity` that
    computes what the solver reads; in ``knn_sparse`` mode only graph
    edges are kept and A is symmetrized by the elementwise maximum, in a
    :class:`CsrAffinity`. With ``linear`` A is a CsrAffinity with no entry
    and no distance is computed.

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

    if mode == "dense" and not linear:
        if metric == "cosine":
            check_cosine_rows(m)
        return SelectionProblem(h=h, d_risk=d_risk, a=DenseAffinity(m.values, metric), k=k)
    if linear:
        a = CsrAffinity(np.zeros(n + 1, np.int32), np.empty(0, np.int32), np.empty(0), (n, n))
    else:
        if graph is None:
            raise ValueError("knn_sparse mode requires a neighbor graph")
        if graph.n != n:
            raise ValueError(f"graph covers {graph.n} fragments, expected {n}")
        a = _knn_affinity(graph)
    return SelectionProblem(h=h, d_risk=d_risk, a=a, k=k)


def _pair_divisor(k: int) -> int:
    """k (k - 1), or 1 at k = 1 where A = 0 and the pair term vanishes."""
    return max(k * (k - 1), 1)


def _product(p: SelectionProblem, y: np.ndarray) -> np.ndarray:
    """A@y, the one product the objective and the rewards read, kept for
    the last y asked for, so the solver's final pass also serves the
    rounding, the objective and the ranking of the same y."""
    if p._last is None or not np.array_equal(p._last[0], y):
        p._last = (np.array(y), p.a @ y)
    return p._last[1]


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """sum(u v) by numpy's own sum of the products, in a fixed order: a
    BLAS dot product splits a long sum over its threads, so its last bits
    follow the BLAS thread count."""
    return float(np.add.reduce(u * v))


def objective(p: SelectionProblem, y: np.ndarray) -> float:
    """Objective f(y). No budget check, so perturbed y may be evaluated."""
    ay = _product(p, y)
    return (_dot(y, p.h) - _dot(y, p.d_risk)) / p.k + _dot(y, ay) / _pair_divisor(p.k)


def rewards(p: SelectionProblem, y: np.ndarray) -> np.ndarray:
    """Gradient of the objective: r = H/k - D/k + 2Ay / (k (k - 1))."""
    return (p.h - p.d_risk) / p.k + 2.0 * _product(p, y) / _pair_divisor(p.k)


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


@np.errstate(over="ignore", invalid="ignore")  # a value that does not fit raises below
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
    which lands on the same objective level it started from; so when
    sigma < 0 and that full step fits the box, the paper rule stops
    before moving, with ``converged = False``, rather than cycle.

    Returns
    -------
    (ndarray, SolverTrace)
        The relaxed indicator y, a fresh float64 array. The KKT residual
        in the trace is recomputed from scratch at the final iterate.
        Rewards or an objective not finite, at the start or at the end (a
        value that overflows on the way stays so), raise ``ValueError``.
    """
    cfg = cfg or SolverConfig()
    if cfg.step_rule not in ("derived", "paper"):
        raise ValueError(f"unknown step rule '{cfg.step_rule}'")
    k = p.k
    n = p.n
    max_iter = cfg.max_iterations if cfg.max_iterations is not None else 10 * n

    y = _initial_vector(p, cfg)  # updated in place
    denom = _pair_divisor(k)
    # an A with no entry moves no reward: a reward is never -0.0, so adding
    # the zero delta would leave its bytes as they are
    paired = getattr(p.a, "nnz", None) != 0
    r = rewards(p, y)
    f = objective(p, y)
    _check_finite(r, f)

    objs = [f]
    updates: list[tuple] = []
    drift = abs(float(y.sum()) - k)
    y_lo, y_hi = float(y.min()), float(y.max())
    converged = False
    # r is held only masked: r_hi is r on the receivers (y below 1), -inf
    # elsewhere, r_lo is r on the donors (y above 0), +inf elsewhere, and
    # each fragment is one or both. An update adds its delta to both, the
    # two rows of one array, and re-masks i and j alone, the only entries
    # of y it moves. No receiver or no donor gives eta = -inf; an overflow
    # stays non-finite in both.
    masked = np.array([np.where(y < 1.0 - TOLERANCE, r, -np.inf),
                       np.where(y > TOLERANCE, r, np.inf)])
    r_hi, r_lo = masked
    delta = np.empty(n)
    # the receiver's row is kept while it stays the receiver (a uniform
    # start moves its mass into few of them); no row read is written to
    receiver = row_i = None

    for _ in range(max_iter):
        i = int(r_hi.argmax())
        j = int(r_lo.argmin())
        eta = float(r_hi[i] - r_lo[j])
        if eta <= TOLERANCE:
            converged = True
            break
        cap_j, cap_i = float(y[j]), 1.0 - float(y[i])
        box = min(cap_j, cap_i)
        if paired:
            if i != receiver:
                receiver, row_i = i, p.a[i]
            row_j = p.a[j]
            sigma = float(row_i[i]) + float(row_j[j]) - 2.0 * float(row_i[j])
        else:
            sigma = 0.0
        if sigma >= 0.0:
            alpha = box
        else:
            span = denom * eta / (-sigma)
            if cfg.step_rule == "paper" and span <= box:
                # the full paper step would gain nothing: stop, not cycle
                break
            alpha = min(box, span / 2.0 if cfg.step_rule == "derived" else span)
        gain = eta * alpha + sigma * alpha * alpha / denom

        # snap to the box exactly so the budget cannot drift
        y[j] = 0.0 if alpha >= cap_j else y[j] - alpha
        y[i] = 1.0 if alpha >= cap_i else y[i] + alpha

        if paired:
            np.subtract(row_i, row_j, out=delta)
            delta *= 2.0 * alpha / denom
            masked += delta
        for t, r_t in ((i, r_hi[i]), (j, r_lo[j])):  # a receiver and a donor
            r_hi[t] = r_t if y[t] < 1.0 - TOLERANCE else -np.inf
            r_lo[t] = r_t if y[t] > TOLERANCE else np.inf
        f += gain
        objs.append(f)
        updates.append((eta, j, i, alpha))
        drift = max(drift, abs(float(y.sum()) - k))
        # only y_i and y_j moved, so the running extremes need only them
        y_lo = min(y_lo, float(y[i]), float(y[j]))
        y_hi = max(y_hi, float(y[i]), float(y[j]))
    _check_finite(np.where(y < 1.0 - TOLERANCE, r_hi, r_lo), f)

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


def _check_finite(r: np.ndarray, f: float) -> None:
    if not (np.isfinite(f) and np.isfinite(r).all()):
        raise ValueError("solver rewards or objective not finite: distances too large")


def kkt_residual(p: SelectionProblem, y: np.ndarray) -> float:
    """Stationarity violation of y for the box-and-budget constraints.

    The multiplier is estimated as the midpoint between the largest
    reward of any fragment below 1 and the smallest reward of any
    fragment above 0. Entries at 0 may not exceed it, entries at 1 may
    not fall below it, interior entries must match it; the residual is
    the largest violation, 0 when either candidate set is empty.
    """
    r = rewards(p, y)
    below = y < 1.0 - TOLERANCE
    above = y > TOLERANCE
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
    order = np.lexsort((np.arange(y.size), -rewards(p, y), -y))
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

"""Per-fragment neighborhood statistics: hubness, skewness, LID, diversity.

The k-occurrence N_k(x) counts how many fragments include x among their
k nearest neighbors. Skewness of the N_k distribution measures how
concentrated neighbor roles are; values above 1 indicate that a few
fragments (hubs) dominate the neighbor lists, following the k-occurrence
analysis of Radovanovic et al. Local intrinsic dimensionality is
estimated per fragment with the maximum-likelihood estimator over
neighbor distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hubsel import table
from hubsel.neighbors import NeighborGraph, group_mean_distances

# Cap for unstable LID estimates. Estimates at or above the cap (and the
# all-equal-distance case, whose raw estimate is infinite) are stored as
# the cap with the degenerate flag set.
LID_CAP = 1.0e6

# the labels hubness_scores gives; the profile loader accepts no other
CATEGORIES = ("hub", "normal", "anti_hub")


@dataclass
class HubnessProfile:
    """k-occurrence scores and hub / anti-hub categories.

    A fragment is a hub when N_k > k, an anti-hub when N_k = 0, and
    normal otherwise.
    """

    k: int
    scores: np.ndarray
    categories: np.ndarray


@dataclass
class SkewnessReport:
    s_nk: float
    mean: float
    stddev: float
    hubness_exists: bool


@dataclass
class LidProfile:
    n_nbr: int
    lids: np.ndarray
    degenerate: np.ndarray


@dataclass
class DiversityProfile:
    m_nbr: int
    values: np.ndarray


@dataclass
class StatProfile:
    """Bundle of all per-fragment statistics for one collection."""

    ids: list[str]
    hubness: HubnessProfile
    lid: LidProfile
    diversity: DiversityProfile


def hubness_scores(g: NeighborGraph) -> HubnessProfile:
    """Count k-occurrences over the neighbor lists of ``g``.

    Returns
    -------
    HubnessProfile
        ``scores[i]`` is the number of neighbor lists containing i.
        The scores always sum to n * min(k, n - 1).
    """
    n = g.n
    scores = np.bincount(g.indices.ravel(), minlength=n).astype(np.int64)
    categories = np.where(
        scores > g.k, "hub", np.where(scores == 0, "anti_hub", "normal")
    )
    return HubnessProfile(k=g.k, scores=scores, categories=categories)


def skewness(profile: HubnessProfile) -> SkewnessReport:
    """Third standardized moment of the N_k distribution.

    Population moments (divide by n). A constant score vector has zero
    standard deviation and is assigned skewness 0 by convention. The
    ``hubness_exists`` flag is set when skewness exceeds 1.
    """
    s = profile.scores.astype(np.float64)
    if s.size < 2:
        raise ValueError(f"need at least 2 fragments, got {s.size}")
    mu = float(s.mean())
    centered = s - mu
    sd = math.sqrt(float(np.mean(centered**2)))
    if sd == 0.0:
        s_nk = 0.0
    else:
        s_nk = float(np.mean(centered**3)) / sd**3
    return SkewnessReport(s_nk=s_nk, mean=mu, stddev=sd, hubness_exists=s_nk > 1.0)


def lid_mle(g: NeighborGraph, n_nbr: int) -> LidProfile:
    """Maximum-likelihood local intrinsic dimensionality per fragment.

    Uses the first ``n_nbr`` neighbor distances of each fragment against
    the (n_nbr + 1)-th distance as the reference radius:

        lid(x) = -(mean_i ln(l_i / omega))^-1

    Zero distances are clamped to the smallest positive normal float64
    before the logarithm. When every distance equals the radius the raw
    estimate diverges; such estimates, and any at or above ``LID_CAP``,
    are stored as ``LID_CAP`` with the degenerate flag set.

    Parameters
    ----------
    g : NeighborGraph
        Must hold at least n_nbr + 1 neighbors per fragment.
    n_nbr : int
        Sample size of the estimator, at least 1.
    """
    if n_nbr < 1:
        raise ValueError(f"n_nbr must be positive, got {n_nbr}")
    width = g.indices.shape[1]
    if width < n_nbr + 1:
        raise ValueError(
            f"graph holds {width} neighbors per fragment, lid needs {n_nbr + 1}"
        )
    tiny = np.finfo(np.float64).tiny
    d = g.distances[:, : n_nbr + 1]
    li = np.maximum(d[:, :-1], tiny)
    omega = np.maximum(d[:, -1], tiny)
    mean_log = np.log(li / omega[:, None]).mean(axis=1)  # <= 0
    with np.errstate(divide="ignore"):
        raw = np.where(mean_log < 0.0, -1.0 / mean_log, np.inf)
    degenerate = raw >= LID_CAP
    lids = np.where(degenerate, LID_CAP, raw)
    return LidProfile(n_nbr=n_nbr, lids=lids, degenerate=degenerate)


def diversity(m, g: NeighborGraph, m_nbr: int = 30) -> DiversityProfile:
    """Mean pairwise distance among each fragment's nearest neighbors.

    For every fragment the first min(m_nbr, available) neighbors are
    taken and the mean of all pairwise distances between them (under the
    graph's metric) is reported. Fragments with fewer than two neighbors
    get diversity 0.
    """
    if m_nbr < 1:
        raise ValueError(f"m_nbr must be positive, got {m_nbr}")
    use = min(m_nbr, g.indices.shape[1])
    if use < 2:
        return DiversityProfile(m_nbr=m_nbr, values=np.zeros(g.n, dtype=np.float64))
    values = group_mean_distances(m.values, g.indices[:, :use], g.metric)
    return DiversityProfile(m_nbr=m_nbr, values=values)


def global_id(profile: LidProfile) -> float:
    """Mean LID over non-degenerate fragments.

    Raises
    ------
    ValueError
        If every estimate is degenerate.
    """
    keep = ~profile.degenerate
    if not keep.any():
        raise ValueError("all lid estimates are degenerate, global id undefined")
    return float(profile.lids[keep].mean())


def hubness_and_lid(g: NeighborGraph, k_hub: int, n_lid: int) -> tuple[HubnessProfile, LidProfile]:
    """Hubness and LID profiles from one graph, the two the selection reads.

    Parameters are capped to what the graph supports: hubness uses
    min(k_hub, width) neighbors, LID min(n_lid, width - 1). When the
    graph is too small for any LID sample (width < 2), every estimate is
    recorded as degenerate at the cap.
    """
    width = g.indices.shape[1]
    hub = hubness_scores(g.truncated(min(k_hub, width)))
    n_eff = min(n_lid, width - 1)
    if n_eff >= 1:
        lid = lid_mle(g, n_eff)
    else:
        n = g.n
        lid = LidProfile(
            n_nbr=0,
            lids=np.full(n, LID_CAP),
            degenerate=np.ones(n, dtype=bool),
        )
    return hub, lid


def compute_profile(
    m,
    g: NeighborGraph,
    k_hub: int = 10,
    n_lid: int = 100,
    m_div: int = 30,
) -> StatProfile:
    """Assemble hubness, LID (see :func:`hubness_and_lid`) and diversity
    profiles from one graph; diversity uses min(m_div, width) neighbors."""
    hub, lid = hubness_and_lid(g, k_hub, n_lid)
    div = diversity(m, g, m_div)
    return StatProfile(ids=list(m.ids), hubness=hub, lid=lid, diversity=div)


def summarize(profile: StatProfile) -> dict:
    """Collection-level summary of a :class:`StatProfile` as a dict."""
    rep = skewness(profile.hubness)
    try:
        gid = global_id(profile.lid)
    except ValueError:
        gid = None
    return {
        "k": profile.hubness.k,
        "n_nbr": profile.lid.n_nbr,
        "m_nbr": profile.diversity.m_nbr,
        "skewness": rep.s_nk,
        "mean": rep.mean,
        "stddev": rep.stddev,
        "hubness_exists": rep.hubness_exists,
        "global_id": gid,
    }


PROFILE_HEADER = "id,N_k,category,lid,degenerate,diversity"
SCATTER_HEADER = "id,lid,N_k,diversity"


def save_profile_csv(profile: StatProfile, path) -> None:
    """Write per-fragment rows ``id,N_k,category,lid,degenerate,diversity``."""
    hub, lid, div = profile.hubness, profile.lid, profile.diversity
    rows = (
        (ident, str(int(hub.scores[i])), str(hub.categories[i]), repr(float(lid.lids[i])),
         str(int(lid.degenerate[i])), repr(float(div.values[i])))
        for i, ident in enumerate(profile.ids)
    )
    table.write_rows(path, rows, header=PROFILE_HEADER)


def load_profile_csv(path) -> StatProfile:
    """Reload a profile written by :func:`save_profile_csv`.

    The CSV carries no parameter metadata, so k, n_nbr and m_nbr read 0.
    A row holding a value no writer produces (an N_k that is not a
    non-negative integer, a category other than hub, normal or anti_hub,
    a non-finite lid or diversity, a degenerate flag other than 0 or 1)
    raises ``ValueError`` naming the path and the row.
    """
    ids: list[str] = []
    scores, cats, lids, degs, divs = [], [], [], [], []
    for lineno, (ident, n_k, cat, lid, deg, div) in table.read_rows(path, 6, PROFILE_HEADER):
        try:
            score, lid_v, div_v = int(n_k), float(lid), float(div)
        except ValueError as exc:
            raise ValueError(f"{path}: row {lineno}: {exc}") from exc
        if score < 0:
            raise ValueError(f"{path}: row {lineno}: N_k {n_k!r} is negative")
        if cat not in CATEGORIES:
            raise ValueError(f"{path}: row {lineno}: category {cat!r} is not one of {CATEGORIES}")
        for name, text, value in (("lid", lid, lid_v), ("diversity", div, div_v)):
            if not math.isfinite(value):
                raise ValueError(f"{path}: row {lineno}: {name} {text!r} is not finite")
        if deg not in ("0", "1"):
            raise ValueError(f"{path}: row {lineno}: degenerate {deg!r} is not 0 or 1")
        ids.append(ident)
        scores.append(score)
        cats.append(cat)
        lids.append(lid_v)
        degs.append(deg == "1")
        divs.append(div_v)
    if not ids:
        raise ValueError(f"{path}: empty profile file")
    return StatProfile(
        ids=ids,
        hubness=HubnessProfile(
            k=0,
            scores=np.array(scores, dtype=np.int64),
            categories=np.array(cats),
        ),
        lid=LidProfile(
            n_nbr=0,
            lids=np.array(lids, dtype=np.float64),
            degenerate=np.array(degs, dtype=bool),
        ),
        diversity=DiversityProfile(m_nbr=0, values=np.array(divs, dtype=np.float64)),
    )


def save_summary_json(profile: StatProfile, path) -> dict:
    """Write :func:`summarize` of ``profile`` as JSON and return that dict."""
    summary = summarize(profile)
    table.write_json(path, summary)
    return summary


def save_scatter_csv(profile: StatProfile, path) -> None:
    """Write ``id,lid,N_k,diversity`` rows for scatter plotting."""
    lid, hub, div = profile.lid, profile.hubness, profile.diversity
    rows = (
        (ident, repr(float(lid.lids[i])), str(int(hub.scores[i])), repr(float(div.values[i])))
        for i, ident in enumerate(profile.ids)
    )
    table.write_rows(path, rows, header=SCATTER_HEADER)

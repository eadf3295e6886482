"""Command-line pipeline: fuse, knn, analyze, select, rank, eval.

``analyze`` keeps one archive per feature file and metric beside its
outputs: the parsed matrix, the kNN graph and the diversity, keyed on the
file's SHA-256. Its reruns, and select and solver-mode rank given that
``profile.csv``, read it in place of the file, with the same outputs.

Each command imports only the layers it runs, when it runs: ``eval`` and
``--help`` load no numpy, only the standard library and ``table``.

Exit codes follow one convention across subcommands: 0 on success
(including a solver run that stops without converging), 1 on domain
errors (mismatched ids, invalid budgets, unknown modes, missing ground
truth) and when memory runs out, 2 on I/O failures; a library warning
is one ``warning:`` line on stderr. All outputs are
deterministic for a fixed configuration and seed. ``--threads`` is
accepted for compatibility and has no effect: the kNN scan computes each
next block's product, and that block's k-th values, on one worker
thread while it reranks the current block, and the dense affinity's
upper triangle, which select and rank build only once a solve reads
more than a quarter of its rows (the uniform start does), is computed
on one thread per CPU in the process's affinity mask, with outputs that
do not depend on either. A value below 1 is still an error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import warnings
from pathlib import Path

from hubsel import METRICS, table

# the layers the commands import as they run; ``cli.<layer>`` still reads
# each, for callers that patch a layer's functions through it
# (perfbench/tracing.py)
_LAYERS = ("evaluation", "features", "neighbors", "selector", "stats")


def __getattr__(name: str):
    if name in _LAYERS:
        return importlib.import_module(f"hubsel.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_INIT_NAMES = {"hub-first": "hub_first", "lid-first": "lid_first", "uniform": "uniform"}
_AFFINITY_NAMES = {"dense": "dense", "knn-sparse": "knn_sparse"}


def _checked_graph_k(args) -> int:
    """Check the count options a command has; return the width of the one
    kNN graph that serves hubness, LID and, on analyze, diversity."""
    names = ("k_hub", "n_lid", "m_div", "threads", "max_iter")
    counts = {name: getattr(args, name, 1) for name in names}
    for name, value in counts.items():
        if value is not None and value < 1:  # max_iter may be None: 10 n
            raise ValueError(f"{name.replace('_', '-')} must be positive")
    return max(counts["k_hub"], counts["n_lid"] + 1, counts["m_div"])


def _build_graph(m, args) -> neighbors.NeighborGraph:
    from hubsel import neighbors

    return neighbors.knn_graph(m, _checked_graph_k(args), metric=args.metric)


# the members of an analyze archive besides the graph: the key of the
# feature bytes (SHA-256 and format) everything in it was derived from,
# the matrix parsed from them, and the diversity with the width it used
_CACHE_MEMBERS = ("sha256", "format", "values", "diversity_width", "diversity")


def _feature_key(path) -> tuple[str, str]:
    """SHA-256 and format of a feature file; a bad suffix fails before the read."""
    import hashlib

    from hubsel import features

    fmt = features.feature_format(path)
    return hashlib.sha256(Path(path).read_bytes()).hexdigest(), fmt


def _inputs(args, digest: str, fmt: str, directory: Path, ids=None, graph=True):
    """``(path, matrix, graph, members)`` of a command on the feature bytes
    keyed ``digest`` and ``fmt``: the path of their analyze archive under
    ``args.metric`` in ``directory``, and what it holds when it is keyed on
    this SHA-256, format and metric, holds float64 values that
    ``FeatureMatrix`` accepts and, given ``ids``, these ids. Any other
    archive is a miss, which parses ``args.features`` and returns no graph
    and no members. A graph narrower than the command's width is None, and
    so is the graph of a caller that reads none (``graph`` false): its
    arrays are then neither read nor checked."""
    import numpy as np

    from hubsel import features, neighbors

    path = directory / f"graph_{digest[:12]}_{args.metric}.npz"
    m = None
    if path.exists():
        try:
            archived, g, stored = neighbors.load_graph(path, _CACHE_MEMBERS, graph)
            key = (stored["sha256"].tolist(), stored["format"].tolist(), g.metric)
            if key == (digest, fmt, args.metric) and stored["values"].dtype == np.float64:
                m = features.FeatureMatrix(archived, np.ascontiguousarray(stored["values"]))
        except ValueError:
            pass
    if m is None or (ids is not None and ids != m.ids):
        return path, features.load_features(args.features), None, None
    if g.k < min(_checked_graph_k(args), g.n - 1):
        g = None
    return path, m, g, stored


def _profile(args, out_dir: Path) -> stats.StatProfile:
    """The profile of ``args.features``. A hit of the archive in ``out_dir``
    parses no features; with a graph as wide as the request and a diversity
    of the requested width it computes nothing else either, and a narrower
    graph or another width is recomputed on the cached matrix. A missing or
    unusable archive is rebuilt from a parse. Either replaces the archive."""
    import numpy as np

    from hubsel import neighbors, stats

    digest, fmt = _feature_key(args.features)
    cache, m, g, stored = _inputs(args, digest, fmt, out_dir)
    if g is not None and stored["diversity_width"].tolist() == min(args.m_div, g.k):
        div = stored["diversity"]
        if div.dtype == np.float64 and div.shape == (g.n,) and np.isfinite(div).all():
            hub, lid = stats.hubness_and_lid(g, args.k_hub, args.n_lid)
            return stats.StatProfile(m.ids, hub, lid, stats.DiversityProfile(args.m_div, div))
    if g is None:
        g = _build_graph(m, args)
    profile = stats.compute_profile(m, g, k_hub=args.k_hub, n_lid=args.n_lid, m_div=args.m_div)
    members = {
        "sha256": np.array(digest),
        "format": np.array(fmt),
        "values": m.values,
        "diversity_width": np.array(min(args.m_div, g.k), dtype=np.int64),
        "diversity": profile.diversity.values,
    }
    # written aside, then renamed, so a killed run leaves no partial cache;
    # the name keeps the suffix that selects the format
    partial = cache.with_suffix(".partial.npz")
    neighbors.save_graph(g, m.ids, partial, members)
    os.replace(partial, cache)
    return profile


def cmd_fuse(args) -> int:
    from hubsel import features

    mats = [features.load_features(p) for p in args.inputs]
    fused = features.fuse(mats)
    features.save_features(fused, args.out)
    print(f"fused {len(mats)} matrices: {fused.n} fragments x {fused.d} dims -> {args.out}")
    return 0


def cmd_knn(args) -> int:
    if args.k < 1:
        raise ValueError(f"invalid neighbor count k = {args.k}")
    from hubsel import features, neighbors

    m = features.load_features(args.features)
    g = neighbors.knn_graph(m, args.k, metric=args.metric)
    neighbors.save_graph(g, m.ids, args.out)
    print(f"knn graph: {g.n} fragments, {g.indices.shape[1]} neighbors -> {args.out}")
    return 0


def cmd_analyze(args) -> int:
    from hubsel import stats

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    profile = _profile(args, out_dir)
    stats.save_profile_csv(profile, out_dir / "profile.csv")
    summary = stats.save_summary_json(profile, out_dir / "summary.json")
    stats.save_scatter_csv(profile, out_dir / "scatter.csv")
    print(json.dumps(summary, indent=2))
    return 0


def _solve(args, affinity_name: str, init: str, linear=False, max_iterations=None):
    """Features, hubness and LID (from --profiles or the graph), affinity and
    solver run. The analyze archive next to --profiles, when it holds these
    feature bytes and the profile's ids, serves the matrix and the graph."""
    from hubsel import features, selector, stats

    affinity = _AFFINITY_NAMES.get(affinity_name)
    if affinity is None:
        raise ValueError(f"unknown affinity mode '{affinity_name}'")
    sparse = affinity == "knn_sparse" and not linear  # the only affinity read from a graph
    if args.profiles:
        digest, fmt = _feature_key(args.features)
        profile = stats.load_profile_csv(args.profiles)
        _, m, graph, _ = _inputs(args, digest, fmt, Path(args.profiles).parent, profile.ids,
                                 sparse)
        if profile.ids != m.ids:
            raise ValueError(f"profile ids do not match feature ids ({args.profiles})")
        hub, lid = profile.hubness, profile.lid
    else:
        m = features.load_features(args.features)
        graph = _build_graph(m, args)
        hub, lid = stats.hubness_and_lid(graph, args.k_hub, args.n_lid)
    if sparse:
        if graph is None:
            graph = _build_graph(m, args)
        graph = graph.truncated(_checked_graph_k(args))  # the first columns of a wider exact graph
    else:
        graph = None  # freed before a dense A is built: no other affinity reads it
    problem = selector.build_problem(
        hub, lid, m,
        metric=args.metric, k=args.k, mode=affinity, graph=graph, linear=linear,
    )
    solver_cfg = selector.SolverConfig(
        init=_INIT_NAMES[init], step_rule=args.step, max_iterations=max_iterations
    )
    y, trace = selector.solve(problem, solver_cfg)
    return m, problem, y, trace


def cmd_select(args) -> int:
    from hubsel import selector

    m, problem, y, trace = _solve(
        args, args.mode, args.init, linear=args.linear, max_iterations=args.max_iter
    )
    selected = selector.save_solution(args.out, m.ids, problem, y, trace, init_label=args.init)
    if args.trace:
        selector.save_trace(args.trace, trace)
    for i in selected:
        print(m.ids[i])
    return 0


def cmd_rank(args) -> int:
    from hubsel import evaluation, selector, stats

    mode = args.mode
    if mode in evaluation.BASELINE_MODES:
        if not args.profiles:
            raise ValueError(f"mode '{mode}' requires --profiles")
        profile = stats.load_profile_csv(args.profiles)
        scores = evaluation.load_scores(args.scores) if args.scores else None
        ranking = evaluation.baseline_rank(
            profile, mode, seed=args.seed, scores=scores, query_id=args.query_id
        )
    elif mode in ("hub-first", "lid-first"):
        if not args.features or args.k is None:
            raise ValueError(f"mode '{mode}' requires --features and --k")
        m, problem, y, _ = _solve(args, args.affinity, mode)
        order = selector.ranking_order(y, problem)
        ranking = evaluation.Ranking(
            query_id=args.query_id, items=[m.ids[i] for i in order]
        )
    else:
        raise ValueError(f"unknown mode '{mode}'")
    evaluation.save_run(args.out, ranking)
    print(f"ranked {len(ranking.items)} fragments ({mode}) -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    from hubsel import evaluation

    runs = evaluation.load_run(args.run)
    if args.kind == "map":
        if not args.gt:
            raise ValueError("kind 'map' requires --gt")
        gt = evaluation.load_ground_truth(args.gt)
        per_query = evaluation.average_precisions(runs, gt, args.depth)
        report = {
            "K": args.depth,
            "per_query": per_query,
            "map": sum(per_query.values()) / len(per_query),
        }
    else:
        if not args.scores:
            raise ValueError("kind 'subjective' requires --scores")
        scores = evaluation.load_scores(args.scores)
        vals = [evaluation.mean_subjective_at_k(r, scores, args.depth) for r in runs]
        report = {"K": args.depth, "mean_subjective": sum(vals) / len(vals)}
    print(json.dumps(report, indent=2))
    if args.out:
        table.write_json(args.out, report)
    return 0


def _add_common(sub) -> None:
    sub.add_argument("--metric", choices=list(METRICS), default="cosine")
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility, no effect: the kNN scan runs one "
                          "worker thread for each next block's product and k-th values, the "
                          "packed triangle of a dense affinity, when one is built, one per "
                          "CPU in the affinity mask, with the same outputs")


def _add_profile_knobs(sub) -> None:
    sub.add_argument("--k-hub", dest="k_hub", type=int, default=10,
                     help="neighbors for hubness scores")
    sub.add_argument("--n-lid", dest="n_lid", type=int, default=100,
                     help="sample size of the lid estimator")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hubsel",
        description="Profile feature collections and select popular, low-risk, diverse fragments.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fuse", help="L2-normalize and concatenate feature matrices")
    p.add_argument("inputs", nargs="+", help="feature files (csv or fbin)")
    p.add_argument("--out", required=True, help="fused output file")
    p.set_defaults(func=cmd_fuse)

    p = subs.add_parser("knn", help="build an exact kNN graph")
    p.add_argument("features")
    p.add_argument("--k", type=int, required=True, help="neighbors per fragment")
    p.add_argument("--out", required=True, help="graph file: .npz archive, else csv")
    _add_common(p)
    p.set_defaults(func=cmd_knn)

    p = subs.add_parser("analyze", help="hubness / lid / diversity profile of a collection")
    p.add_argument("features")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    _add_profile_knobs(p)
    p.add_argument("--m-div", dest="m_div", type=int, default=30,
                   help="neighbors for the diversity score")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("select", help="solve the budgeted selection problem")
    p.add_argument("features")
    p.add_argument("--k", type=int, required=True, help="selection budget")
    p.add_argument("--out", required=True, help="solution json")
    p.add_argument("--profiles", help="profile csv from analyze (else computed on the fly)")
    p.add_argument("--init", choices=sorted(_INIT_NAMES), default="hub-first")
    p.add_argument("--step", choices=["derived", "paper"], default="derived")
    p.add_argument("--mode", default="dense", help="affinity mode: dense or knn-sparse")
    p.add_argument("--trace", help="optional per-iteration trace csv")
    p.add_argument("--linear", action="store_true",
                   help="drop the quadratic term (allows k = 1)")
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    _add_common(p)
    _add_profile_knobs(p)
    p.set_defaults(func=cmd_select)

    p = subs.add_parser("rank", help="rank all fragments with a baseline or the solver")
    p.add_argument("--mode", required=True,
                   help="hub | lid | random | oracle | hub-first | lid-first")
    p.add_argument("--out", required=True, help="run csv")
    p.add_argument("--profiles", help="profile csv (baseline modes)")
    p.add_argument("--scores", help="subjective scores csv (oracle mode)")
    p.add_argument("--features", help="feature file (solver modes)")
    p.add_argument("--k", type=int, default=None, help="budget (solver modes)")
    p.add_argument("--affinity", default="dense", help="dense or knn-sparse (solver modes)")
    p.add_argument("--step", choices=["derived", "paper"], default="derived")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--query-id", dest="query_id", default="all")
    _add_common(p)
    _add_profile_knobs(p)
    p.set_defaults(func=cmd_rank)

    p = subs.add_parser("eval", help="score a run file")
    p.add_argument("--run", required=True, help="run csv to score")
    p.add_argument("--kind", choices=["map", "subjective"], default="map")
    p.add_argument("--gt", help="ground truth csv (map)")
    p.add_argument("--scores", help="subjective scores csv (subjective)")
    p.add_argument("--depth", type=int, default=10, help="evaluation cutoff K")
    p.add_argument("--out", help="optional report json")
    p.set_defaults(func=cmd_eval)

    return parser


def _warning_line(message, *_) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a library warning reaches stderr as one line, like every error
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        _checked_graph_k(args)
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory ({str(exc) or 'allocation failed'})", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())

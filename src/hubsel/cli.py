"""Command-line pipeline: fuse, knn, analyze, select, rank, eval.

Exit codes follow one convention across subcommands: 0 on success
(including a solver run that stops without converging), 1 on domain
errors (mismatched ids, invalid budgets, unknown modes, missing ground
truth) and when memory runs out, 2 on I/O failures. All outputs are
deterministic for a fixed configuration and seed. ``--threads`` is
accepted for compatibility and has no effect: the kNN scan runs in one
thread. A value below 1 is still an error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from hubsel import evaluation, features, neighbors, selector, stats

_INIT_NAMES = {"hub-first": "hub_first", "lid-first": "lid_first", "uniform": "uniform"}
_AFFINITY_NAMES = {"dense": "dense", "knn-sparse": "knn_sparse"}


def _checked_graph_k(args) -> int:
    """Check the count options a command has; return the width of the one
    kNN graph that serves hubness, LID and, on analyze, diversity."""
    counts = {name: getattr(args, name, 1) for name in ("k_hub", "n_lid", "m_div", "threads")}
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name.replace('_', '-')} must be positive")
    return max(counts["k_hub"], counts["n_lid"] + 1, counts["m_div"])


def _build_graph(m, args) -> neighbors.NeighborGraph:
    return neighbors.knn_graph(m, min(_checked_graph_k(args), m.n - 1), metric=args.metric)


def _cached_graph(m, args, out_dir: Path) -> neighbors.NeighborGraph:
    """The graph of ``args.features``, from the cache in ``out_dir`` when it
    reads back; a missing or damaged cache is (re)built and replaced."""
    digest = hashlib.sha256(Path(args.features).read_bytes()).hexdigest()[:12]
    kmax = min(_checked_graph_k(args), m.n - 1)
    cache = out_dir / f"graph_{digest}_{args.metric}_k{kmax}.npz"
    if cache.exists():
        try:
            return neighbors.load_graph(cache, m.ids, args.metric)
        except ValueError:
            pass
    g = _build_graph(m, args)
    # written aside, then renamed, so a killed run leaves no partial cache;
    # the name keeps the suffix that selects the format
    partial = cache.with_suffix(".partial.npz")
    neighbors.save_graph(g, m.ids, partial)
    os.replace(partial, cache)
    return g


def cmd_fuse(args) -> int:
    mats = [features.load_features(p) for p in args.inputs]
    fused = features.fuse(mats)
    features.save_features(fused, args.out)
    print(f"fused {len(mats)} matrices: {fused.n} fragments x {fused.d} dims -> {args.out}")
    return 0


def cmd_knn(args) -> int:
    if args.k < 1:
        raise ValueError(f"invalid neighbor count k = {args.k}")
    m = features.load_features(args.features)
    g = neighbors.knn_graph(m, args.k, metric=args.metric)
    neighbors.save_graph(g, m.ids, args.out)
    print(f"knn graph: {g.n} fragments, {g.indices.shape[1]} neighbors -> {args.out}")
    return 0


def cmd_analyze(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    m = features.load_features(args.features)
    g = _cached_graph(m, args, out_dir)
    profile = stats.compute_profile(m, g, k_hub=args.k_hub, n_lid=args.n_lid, m_div=args.m_div)
    stats.save_profile_csv(profile, out_dir / "profile.csv")
    summary = stats.save_summary_json(profile, out_dir / "summary.json")
    stats.save_scatter_csv(profile, out_dir / "scatter.csv")
    print(json.dumps(summary, indent=2))
    return 0


def _solve(m, args, affinity_name: str, init: str, linear=False, max_iterations=None):
    """Hubness and LID (from --profiles or the graph), affinity, and solver run."""
    graph = None
    if args.profiles:
        profile = stats.load_profile_csv(args.profiles)
        if profile.ids != m.ids:
            raise ValueError(f"profile ids do not match feature ids ({args.profiles})")
        hub, lid = profile.hubness, profile.lid
    else:
        graph = _build_graph(m, args)
        hub, lid = stats.hubness_and_lid(graph, args.k_hub, args.n_lid)
    affinity = _AFFINITY_NAMES.get(affinity_name)
    if affinity is None:
        raise ValueError(f"unknown affinity mode '{affinity_name}'")
    if affinity == "knn_sparse" and graph is None and not linear:
        graph = _build_graph(m, args)
    problem = selector.build_problem(
        hub, lid, m,
        metric=args.metric, k=args.k, mode=affinity, graph=graph, linear=linear,
    )
    solver_cfg = selector.SolverConfig(
        init=_INIT_NAMES[init], step_rule=args.step, max_iterations=max_iterations
    )
    y, trace = selector.solve(problem, solver_cfg)
    return problem, y, trace


def cmd_select(args) -> int:
    m = features.load_features(args.features)
    problem, y, trace = _solve(
        m, args, args.mode, args.init, linear=args.linear, max_iterations=args.max_iter
    )
    selected = selector.save_solution(args.out, m.ids, problem, y, trace, init_label=args.init)
    if args.trace:
        selector.save_trace(args.trace, trace)
    for i in selected:
        print(m.ids[i])
    return 0


def cmd_rank(args) -> int:
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
        m = features.load_features(args.features)
        problem, y, _ = _solve(m, args, args.affinity, mode)
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
        evaluation.save_report(args.out, report)
    return 0


def _add_common(sub) -> None:
    sub.add_argument("--metric", choices=list(neighbors.METRICS), default="cosine")
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility, no effect: the kNN scan runs in one thread")


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())

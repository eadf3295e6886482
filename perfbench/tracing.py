"""Traced in-process run of one benchmark job, and the per-layer metrics.

Run as a script, it imports ``hubsel`` and runs one job through
``hubsel.cli.main`` twice: untraced, then with the layers' public
functions wrapped. Each wrapper patches the name its caller looks up at
call time (``stats.diversity`` for ``compute_profile``,
``selector.kkt_residual`` for ``solve``, ``neighbors.knn_graph`` through
the module reference held by ``cli``) and records a span (name, start,
end, parent) plus counts taken from arguments and results at the same
boundary. Spans stay in memory and are written out once the job ends:

    python3 perfbench/tracing.py SPEC.json RECORD.json

SPEC holds the two job directories, the job's commands and the outputs
it keeps from its first command. The module itself imports nothing from
``hubsel``, so the benchmark can use :func:`layer_metrics` without
loading the program.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

from workloads import keep_cold


def _count_load_features(c, out, a):
    c["input_bytes"] += os.path.getsize(a["path"])


def _count_knn(c, out, a):
    n, d = a["m"].values.shape
    c["knn_entries"] += n * n  # the blocked scan computes every pair
    c["knn_kept"] += out.indices.size
    c["knn_flop"] += 2 * n * n * d


def _count_cache(c, out, a):
    c["cache_bytes"] += os.path.getsize(a["path"])


def _count_lid(c, out, a):
    c["degenerate_lid"] += int(out.degenerate.sum())


def _count_diversity(c, out, a):
    use = min(out.m_nbr, a["g"].indices.shape[1])
    c["diversity_pairs"] += a["g"].n * use * use  # one use x use block per row


def _count_affinity(c, out, a):
    mat = out.a
    parts = (mat,) if hasattr(mat, "nbytes") else (mat.data, mat.indices, mat.indptr)
    # the largest one, since each command's process holds only its own
    c["affinity_bytes"] = max(c["affinity_bytes"], sum(p.nbytes for p in parts))


def _count_solve(c, out, a):
    trace = out[1]
    c["solves"] += 1
    c["iterations"] += trace.iterations
    c["converged"] += int(trace.converged)


# (module as cli names it, function, span name, counter). A span name is a
# layer metric with "_s" appended; several functions may share one span name.
PATCHES = (
    ("features", "load_features", "features.load_features", _count_load_features),
    ("neighbors", "knn_graph", "neighbors.knn_graph", _count_knn),
    ("neighbors", "save_graph", "neighbors.save_graph", _count_cache),
    ("neighbors", "load_graph", "neighbors.load_graph", _count_cache),
    ("stats", "compute_profile", "stats.compute_profile", None),
    ("stats", "hubness_scores", "stats.hubness_scores", None),
    ("stats", "lid_mle", "stats.lid_mle", _count_lid),
    ("stats", "diversity", "stats.diversity", _count_diversity),
    ("stats", "save_profile_csv", "stats.save", None),
    ("stats", "save_summary_json", "stats.save", None),
    ("stats", "save_scatter_csv", "stats.save", None),
    ("stats", "load_profile_csv", "stats.load_profile_csv", None),
    ("selector", "build_problem", "selector.build_problem", _count_affinity),
    ("selector", "solve", "selector.solve", _count_solve),
    ("selector", "kkt_residual", "selector.kkt_residual", None),
    ("selector", "round_selection", "selector.ranking", None),
    ("selector", "ranking_order", "selector.ranking", None),
    ("selector", "save_solution", "selector.save_solution", None),
    ("evaluation", "save_run", "evaluation.save_run", None),
    ("evaluation", "load_run", "evaluation.load_run", None),
    ("evaluation", "load_scores", "evaluation.score", None),
    ("evaluation", "mean_subjective_at_k", "evaluation.score", None),
)
COMMAND_SPAN = "cli.main"  # one per command; its self time is cli self time


class Tracer:
    """Spans and counts of one job, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.counter_s = 0.0  # time spent in counters, part of the overhead
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "name": name, "parent": parent,
               "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, counter) -> None:
        orig = getattr(module, attr)
        sig = inspect.signature(orig)

        def traced(*args, **kwargs):
            with self.span(name):
                out = orig(*args, **kwargs)
                if counter is not None:
                    t0 = time.perf_counter()
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(self.counts, out, bound.arguments)
                    self.counter_s += time.perf_counter() - t0
            return out

        setattr(module, attr, traced)
        self._undo.append((module, attr, orig))

    def unwrap(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds a wrapper without counter adds to one call: a wrapped no-op
    minus a bare one, each timed over ``calls`` calls in a tight loop."""
    probe = types.SimpleNamespace(f=lambda x=0: x)
    took = []
    for wrapped in (False, True):
        tracer = Tracer()
        if wrapped:
            tracer.wrap(probe, "f", "probe", None)
        f = probe.f
        t0 = time.perf_counter()
        for _ in range(calls):
            f()
        took.append(time.perf_counter() - t0)
        tracer.unwrap()
    return max(took[1] - took[0], 0.0) / calls


def _run_job(cli, job_dir: str, commands, kept, tracer: Tracer | None) -> tuple[float, list[int]]:
    """Run the commands in ``job_dir``; job seconds and exit codes.

    The job time is the sum of the commands' times, so copying ``kept``
    after the first command is not timed, as in the subprocess run.
    """
    codes, took = [], 0.0
    here = os.getcwd()
    os.chdir(job_dir)
    try:
        for n, (argv, stdout_name) in enumerate(commands):
            if n == 1:
                keep_cold(Path(job_dir), kept)
            span = tracer.span(COMMAND_SPAN) if tracer else contextlib.nullcontext()
            with open(stdout_name, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                t0 = time.perf_counter()
                with span:
                    try:
                        codes.append(cli.main(list(argv)))
                    except SystemExit as exc:  # argparse rejects its arguments
                        codes.append(exc.code)
                took += time.perf_counter() - t0
            if codes[-1] != 0:
                break
    finally:
        os.chdir(here)
    return took, codes


def main(spec_path: str, record_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from hubsel import cli

    commands, kept = spec["commands"], spec["kept"]
    _, untraced_codes = _run_job(cli, spec["untraced_dir"], commands, kept, None)
    tracer = Tracer()
    for modname, attr, name, counter in PATCHES:
        tracer.wrap(getattr(cli, modname), attr, name, counter)
    try:
        traced_s, traced_codes = _run_job(cli, spec["traced_dir"], commands, kept, tracer)
    finally:
        tracer.unwrap()
    record = {
        "program": os.path.abspath(cli.__file__),
        "traced_s": traced_s,
        # what the wrappers add: span bookkeeping per span, plus the counters
        "overhead_s": wrapper_cost() * len(tracer.spans) + tracer.counter_s,
        "codes": {"untraced": untraced_codes, "traced": traced_codes},
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name: duration minus the time its children cover.

    Spans of one job run in one thread and nest, so children never
    overlap. The self time of the command spans, ``cli.self``, is the part
    of the job that no layer span covers.
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s in spans:
        name = "cli.self" if s["name"] == COMMAND_SPAN else s["name"]
        out[name] += (s["end"] - s["start"]) - child[s["id"]]
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced job (without ``cli.startup_s``).

    Every ``_s`` metric is self time summed over the job's calls. Counts
    marked computed in the layer map come from array sizes, not hardware.
    """
    selfs = self_times(record["spans"])
    c = Counter(record["counts"])
    calls = Counter(s["name"] for s in record["spans"])
    metrics = {f"{name}_s": 0.0 for _, _, name, _ in PATCHES}
    metrics.update({f"{name}_s": t for name, t in selfs.items()})
    metrics.update({
        "cli.graph_cache_hit_ratio": _ratio(
            calls["neighbors.load_graph"],
            calls["neighbors.load_graph"] + calls["neighbors.knn_graph"]),
        "features.input_mb": c["input_bytes"] / 1e6,
        "neighbors.knn_distance_entries": c["knn_entries"],
        "neighbors.knn_kept_ratio": _ratio(c["knn_kept"], c["knn_entries"]),
        "neighbors.knn_gflop": c["knn_flop"] / 1e9,
        "neighbors.cache_mb": c["cache_bytes"] / 1e6,
        "stats.diversity_pair_entries": c["diversity_pairs"],
        "stats.degenerate_lid": c["degenerate_lid"],
        "selector.affinity_mb": c["affinity_bytes"] / 1e6,
        "selector.iterations": c["iterations"],
        "selector.us_per_iteration": _ratio(metrics["selector.solve_s"] * 1e6, c["iterations"]),
        "selector.converged_ratio": _ratio(c["converged"], c["solves"]),
        "trace.job_s": record["traced_s"],
        "trace.overhead_s": record["overhead_s"],
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

#!/usr/bin/env python3
"""Benchmark of the hubsel CLI on seeded synthetic collections.

Run from the repository root:

    python3 perfbench/run.py --workload profile --seed 0 --seconds 20 --trace 0

``--trace 0`` sets the workload up, then runs its job as ``hubsel``
subprocesses in a closed loop (one client, each job starts when the
previous one exits) until about ``--seconds`` of job time has passed (at
least two jobs), checks every output and prints the end-to-end metrics.
Between jobs it sets up again, at least three times in all.
``--trace 1`` sets up once, runs the job untraced and then traced in
one process (``tracing.py``) and prints the per-layer metrics. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; metric names and units are those of
``BENCHMARK.json``. The program runs from ``src/`` of the checkout.
"""

import os

# One BLAS thread in every process, so --threads is the only parallelism.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
from workloads import ANALYZE_OUTPUTS, WORKLOADS, Inputs, Workload, analyze, keep_cold  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
HUBSEL = (sys.executable, "-m", "hubsel.cli")

# setup_s is the median of at least SETUP_REPEATS set-ups, spread over the
# run; cheap set-ups repeat until SETUP_MIN_S, at most SETUP_MAX_REPEATS times
SETUP_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 3, 8.0, 500
MIN_JOBS = 2  # jobs take seconds; a run holds at least this many
STARTUP_REPEATS = 3  # cli.startup_s is the median of these
SAMPLE_ROWS = 16  # profile rows recomputed by the numpy oracle
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# generated input kind -> (file name, writer)
GENERATED = {"csv": ("feats.csv", inputs.write_csv), "fbin": ("feats.fbin", inputs.write_fbin),
             "scores": ("scores.csv", inputs.write_scores)}


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Usage:
    code: int
    wall: float
    cpu: float
    rss_mb: float


def run_process(argv, cwd: Path, stdout_name: str, deadline: float) -> Usage:
    """Run one process to its end; killed at ``deadline`` (monotonic)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(cwd / stdout_name, "wb") as out, open(cwd / f"{stdout_name}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux; this process's own, not all children's
    return Usage(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss * 1024 / 1e6)


def run_job(wl: Workload, job: Path, inp: Inputs, deadline: float) -> tuple[bool, Usage]:
    """The job's commands in order; its wall time is the sum of theirs,
    so copying ``wl.kept`` between them is not timed."""
    total = Usage(0, 0.0, 0.0, 0.0)
    for n, (args, stdout_name) in enumerate(wl.job(inp)):
        if n == 1:
            keep_cold(job, wl.kept)
        u = run_process(HUBSEL + args, job, stdout_name, deadline)
        total.wall += u.wall
        total.cpu += u.cpu
        total.rss_mb = max(total.rss_mb, u.rss_mb)
        if u.code != 0:
            total.code = u.code
            break
    return total.code == 0, total


def setup(wl: Workload, seed: int, root: Path, deadline: float):
    """Generate the inputs and, if the workload needs them, the cold
    ``analyze`` outputs (graph cache, profile.csv). Returns the collection,
    the inputs and the seconds taken."""
    t0 = time.perf_counter()
    root.mkdir(parents=True)
    c = inputs.make_collection(seed)
    inp = Inputs(**{kind: root / name for kind, (name, _) in GENERATED.items()},
                 prepared=root / "out")
    for kind in wl.files:
        name, write = GENERATED[kind]
        write(c, root / name)
    if wl.prepare:
        for args, stdout_name in analyze(inp):
            u = run_process(HUBSEL + args, root, stdout_name, deadline)
            if u.code != 0:
                raise BenchError(f"set-up analyze exited {u.code}: {_tail(root, stdout_name)}")
    return c, inp, time.perf_counter() - t0


def _tail(cwd: Path, stdout_name: str) -> str:
    """The end of a process's stderr, for messages that outlive the work
    directory."""
    return (cwd / f"{stdout_name}.err").read_text(encoding="utf-8", errors="replace")[-2000:]


def _setup_files(wl: Workload) -> list[str]:
    names = [GENERATED[kind][0] for kind in wl.files]
    return names + (list(ANALYZE_OUTPUTS) if wl.prepare else [])


def _sample(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 1])
    return np.sort(rng.choice(inputs.N, size=SAMPLE_ROWS, replace=False))


def _prepared_problems(wl: Workload, c, inp: Inputs, sample) -> list[str]:
    if not wl.prepare:
        return []
    try:
        found = checks.check_profile(inp.prepared, c, sample)
    except (OSError, ValueError, IndexError) as exc:
        found = [f"unreadable output: {exc!r}"]
    return [f"set-up: {p}" for p in found]


def _checked(wl: Workload, job: Path, c, inp: Inputs, sample, full: bool):
    """Digest of the job's outputs and its problems; ``full`` also runs
    the workload's output checks. Unreadable output is a problem too."""
    try:
        return checks.digest(job, wl.outputs), (wl.check(job, c, inp, sample) if full else [])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return None, [f"unreadable output: {exc!r}"]


def measure(wl: Workload, seed: int, seconds: float, work: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    c, inp, took = setup(wl, seed, work / "setup0", deadline)
    setup_s, setup_digests = [took], {checks.digest(work / "setup0", _setup_files(wl))}

    def set_up_until(share: float) -> None:
        """Set up again, each time in a fresh directory, until set-up has
        taken ``share`` of SETUP_MIN_S; at share 1 also SETUP_REPEATS times."""
        while len(setup_s) < SETUP_MAX_REPEATS and (
                sum(setup_s) < share * SETUP_MIN_S or (share >= 1 and len(setup_s) < SETUP_REPEATS)):
            root = work / f"setup{len(setup_s)}"
            setup_s.append(setup(wl, seed, root, deadline)[2])
            setup_digests.add(checks.digest(root, _setup_files(wl)))
            shutil.rmtree(root)

    sample = _sample(seed)
    problems = _prepared_problems(wl, c, inp, sample)

    walls, cpus, rss, attempted = [], [], 0.0, 0
    bad_jobs = {}  # job number -> its problems
    ref, ref_job, same = None, None, []  # first good job's digest and number; jobs equal to it
    while True:
        attempted += 1
        job = work / f"job{attempted}"
        job.mkdir()
        ok, u = run_job(wl, job, inp, deadline)
        walls.append(u.wall)
        cpus.append(u.cpu)
        rss = max(rss, u.rss_mb)
        if not ok:
            bad_jobs[attempted] = [f"exited {u.code}"]
        else:
            d, bad = _checked(wl, job, c, inp, sample, full=False)
            if bad:
                bad_jobs[attempted] = bad
            elif ref is None:
                ref, ref_job = d, attempted
            elif d != ref:
                bad_jobs[attempted] = ["outputs differ from the first job's"]
            else:
                same.append(attempted)
        if attempted != ref_job:
            shutil.rmtree(job)
        # set-ups are spread over the run, so that they see the same
        # changes of machine speed as the jobs
        set_up_until(min(sum(walls) / seconds, 1.0))
        # start another job while it would end nearer to ``seconds`` of
        # job time than stopping now does
        typical = statistics.median(walls)
        if len(walls) >= MIN_JOBS and sum(walls) + typical / 2 > seconds:
            break
        if time.monotonic() + typical > deadline:
            break
    # A child's ru_maxrss includes its parent's peak RSS at exec, so the
    # output checks, which need far more memory than the loop, run only
    # once every job has ended, and the loop must stay below the jobs.
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if own_mb >= rss:
        raise BenchError(f"the benchmark's own peak RSS ({own_mb:.1f} MB) hides the jobs' ({rss:.1f} MB)")
    set_up_until(1.0)
    if ref_job is not None:
        _, bad = _checked(wl, work / f"job{ref_job}", c, inp, sample, full=True)
        if bad:
            bad_jobs[ref_job] = bad
            for j in same:  # jobs identical to a wrong first job are wrong too
                bad_jobs[j] = ["outputs equal the first job's, which failed its checks"]
    if len(setup_digests) != 1:
        problems.append("set-up files differ between repeats")
    failed = len(bad_jobs)
    problems += [f"job {j}: {p}" for j in sorted(bad_jobs) for p in bad_jobs[j]]
    completed = attempted - failed
    return {
        "problems": problems, "attempted": attempted, "failed": failed,
        "notes": [f"{attempted} jobs, {failed} failed; set up {len(setup_s)} times"],
        "metrics": {
            "job_wall_p50_s": statistics.median(walls),
            "job_cpu_p50_s": statistics.median(cpus),
            "fragments_per_s": inputs.N * completed / sum(walls),
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setup_s),
        },
    }


def trace(wl: Workload, seed: int, work: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    c, inp, _ = setup(wl, seed, work / "setup", deadline)
    sample = _sample(seed)
    problems = _prepared_problems(wl, c, inp, sample)

    startup = []
    for _ in range(STARTUP_REPEATS):
        u = run_process(HUBSEL + ("--help",), work, "help.out", deadline)
        if u.code != 0:
            raise BenchError(f"hubsel --help exited {u.code}")
        startup.append(u.wall)

    dirs = {f"{k}_dir": work / k for k in ("untraced", "traced")}
    for d in dirs.values():
        d.mkdir()
    spec = {k: str(v) for k, v in dirs.items()}
    spec["commands"] = [[list(args), name] for args, name in wl.job(inp)]
    spec["kept"] = list(wl.kept)
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    record_path = WORK / f"spans-{wl.name}-{seed}.json"
    u = run_process((sys.executable, str(HERE / "tracing.py"), "spec.json", str(record_path)),
                    work, "tracing.out", deadline)
    if u.code != 0:
        raise BenchError(f"traced run exited {u.code}: {_tail(work, 'tracing.out')}")
    record = json.loads(record_path.read_text(encoding="utf-8"))
    if not Path(record["program"]).is_relative_to(SRC):
        raise BenchError(f"traced run imported {record['program']}, not the checkout's")

    failed = 0
    for label, codes in record["codes"].items():
        if any(code != 0 for code in codes):
            failed += 1
            problems.append(f"{label} job: exit codes {codes}")
    if not failed:
        got, bad = set(), []
        for d in dirs.values():
            digest, found = _checked(wl, d, c, inp, sample, full=d == dirs["traced_dir"])
            got.add(digest)
            bad += found
        if len(got) != 1:
            bad.append("outputs of the traced and untraced runs differ")
        failed += bool(bad)
        problems += bad

    metrics = tracing.layer_metrics(record)
    metrics["cli.startup_s"] = statistics.median(startup)
    covered = 1.0 - metrics["cli.self_s"] / record["traced_s"]
    return {
        "problems": problems, "attempted": len(record["codes"]), "failed": failed,
        "notes": [f"layer spans cover {covered:.1%} of the traced job's {record['traced_s']:.3f} s, "
                  f"cli.self_s is the rest; spans in {record_path.relative_to(ROOT)}"],
        "metrics": metrics,
    }


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found next to {SRC.name}/")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="job time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        if not (SRC / "hubsel" / "cli.py").is_file():
            raise BenchError(f"no program source at {SRC / 'hubsel'}")
        declared = _declared("per_layer" if args.trace else "end_to_end")
        if args.trace and sorted(layers.layer_metric_names()) != sorted(declared):
            raise BenchError("layers.LAYER_MAP and BENCHMARK.json list different layer metrics")
        work = WORK / f"{wl.name}-{args.seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            res = trace(wl, args.seed, work) if args.trace else measure(wl, args.seed, args.seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if set(res["metrics"]) != set(declared):
            raise BenchError(f"metrics differ from BENCHMARK.json: "
                             f"{sorted(set(res['metrics']) ^ set(declared))}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"{wl.name} seed {args.seed}: {'; '.join(res['notes'])}")
    for problem in res["problems"]:
        print(f"  CHECK FAILED {problem}")
    for name, unit in declared.items():
        print(f"  {name} = {res['metrics'][name]:.6g} {unit}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": res["metrics"][name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every metric per workload.

Run from the repository root:

    python3 perfbench/report.py --seeds 10
    python3 perfbench/report.py --seeds 5 --workloads select-dense --trace 1

Each (workload, seed) is one ``run.py`` process, run one after another
with ``run_seconds`` from BENCHMARK.json. For each metric the table shows
the median over seeds, the quartiles (``statistics.quantiles(n=4)``), the
spread (q3 - q1) / median and, for end-to-end metrics, the bound that
BENCHMARK.json fixes. ``--out`` also writes the table as JSON.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import BLAS_ENV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10, help="seeds first-seed .. first-seed + n - 1")
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the table as JSON to this file")
    args = ap.parse_args()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    table, ok = {}, True
    for wl in args.workloads.split(","):
        values = {m["name"]: [] for m in declared}
        took = []
        for seed in seeds:
            t0 = time.monotonic()
            run = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            took.append(time.monotonic() - t0)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                ok = False
                print("\n".join(lines[:-1]), file=sys.stderr)
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
        print(f"{wl}: {len(took)} runs, {statistics.median(took):.1f} s median per run, "
              f"{max(took):.1f} s longest")
        table[wl] = {"run_s": took}
        for m in declared:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = "" if bound is None else f"  bound {bound:.2f}" + (
                "" if spread <= bound / 3 else "  SPREAD ABOVE BOUND/3")
            print(f"  {m['name']:32s} {med:12.6g} {m['unit']:6s} "
                  f"q1 {q1:10.6g} q3 {q3:10.6g} spread {spread:6.3f}{flag}")
            table[wl][m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "values": v}
    if args.out:
        env = {"python": platform.python_version(), "machine": platform.machine(),
               "cpus": os.cpu_count(), "run_seconds": spec["run_seconds"],
               "seeds": list(seeds), "blas_env": BLAS_ENV}
        for mod in ("numpy", "scipy"):
            env[mod] = importlib.metadata.version(mod)
        out = {"environment": env, "workloads": table}
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: one user job each, repeated in a closed loop.

A job is a list of ``hubsel`` commands run one after the other, each in
its own process, with the job directory as working directory. Output
paths are relative, so outputs of different jobs can be compared byte for
byte. All workloads share one seeded collection: n = 5000, d = 128,
cosine unless stated otherwise.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from inputs import Collection

BUDGET = 20  # selection budget k of the select and rank commands
DEPTH = 10  # evaluation cutoff K
THREADS = 2  # the reference machine has 2 cores; only analyze uses them

ANALYZE_FILES = ("out/profile.csv", "out/summary.json", "out/scatter.csv")
ANALYZE_OUTPUTS = ANALYZE_FILES + ("analyze.out",)
COLD = "cold"  # where a job keeps its first command's outputs, see Workload.kept


@dataclass(frozen=True)
class Inputs:
    """Files that set-up leaves for the jobs, all absolute paths."""

    csv: Path
    fbin: Path
    scores: Path
    prepared: Path  # output directory of set-up's cold ``analyze``


Command = tuple[tuple[str, ...], str]  # (hubsel arguments, stdout file name)


def analyze(i: Inputs) -> list[Command]:
    return [(("analyze", str(i.csv), "--out", "out", "--threads", str(THREADS)), "analyze.out")]


def _profile_job(i: Inputs) -> list[Command]:
    # the second analyze reads the graph cache the first one wrote
    (args, _), = analyze(i)
    return [(args, "analyze.out"), (args, "reanalyze.out")]


def _dense_job(i: Inputs) -> list[Command]:
    k, prof = str(BUDGET), str(i.prepared / "profile.csv")
    return [
        (("select", str(i.csv), "--k", k, "--profiles", prof, "--init", "uniform",
          "--out", "selection.json"), "select.out"),
        (("rank", "--mode", "hub-first", "--features", str(i.csv), "--k", k,
          "--profiles", prof, "--out", "run.csv"), "rank.out"),
        (("eval", "--run", "run.csv", "--kind", "subjective", "--depth", str(DEPTH),
          "--scores", str(i.scores)), "eval.out"),
    ]


def _sparse_job(i: Inputs) -> list[Command]:
    return [(("select", str(i.fbin), "--k", str(BUDGET), "--mode", "knn-sparse",
              "--metric", "euclidean", "--init", "uniform", "--out", "selection.json"),
             "select.out")]


def keep_cold(job: Path, names) -> None:
    """Copy the named outputs of a job's first command into ``COLD``."""
    for name in names:
        dst = job / COLD / name
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(job / name, dst)


def _check_profile(job: Path, c: Collection, i: Inputs, sample: np.ndarray) -> list[str]:
    problems = checks.check_profile(job / "out", c, sample)
    for name in ANALYZE_FILES:
        if (job / COLD / name).read_bytes() != (job / name).read_bytes():
            problems.append(f"{name}: the cached re-analyze wrote other bytes than the cold one")
    if (job / "analyze.out").read_bytes() != (job / "reanalyze.out").read_bytes():
        problems.append("the cached re-analyze printed another summary than the cold one")
    return problems


def _check_dense(job: Path, c: Collection, i: Inputs, sample: np.ndarray) -> list[str]:
    return (
        checks.check_selection(job / "selection.json", c, BUDGET,
                               lambda y: checks.dense_objective(c, i.prepared / "profile.csv", y, BUDGET))
        + checks.check_ranking(job / "run.csv", c)
        + checks.check_subjective(job / "eval.out", job / "run.csv", c, DEPTH)
    )


def _check_sparse(job: Path, c: Collection, i: Inputs, sample: np.ndarray) -> list[str]:
    return checks.check_selection(job / "selection.json", c, BUDGET,
                                  lambda y: checks.sparse_objective(c, y, BUDGET))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    files: tuple[str, ...]  # generated inputs: any of "csv", "fbin", "scores"
    prepare: bool  # set-up also runs a cold analyze into Inputs.prepared
    job: Callable[[Inputs], list[Command]]
    outputs: tuple[str, ...]  # files compared byte for byte across jobs
    # outputs of the first command that a later one overwrites: every job
    # copies them into COLD before its second command, outside its timing
    kept: tuple[str, ...]
    check: Callable[[Path, Collection, Inputs, np.ndarray], list[str]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "profile",
            "first profile of a new collection, then a re-run reading the graph cache "
            "it wrote: kNN scan, cache write and cache read; the only workload with program threads",
            ("csv",), False, _profile_job,
            ANALYZE_OUTPUTS + ("reanalyze.out",) + tuple(f"{COLD}/{f}" for f in ANALYZE_FILES),
            ANALYZE_FILES, _check_profile,
        ),
        Workload(
            "select-dense",
            "select, rank and eval from a saved profile: dense n x n affinity and "
            "solver row access, no kNN and no graph cache, the only workload measuring evaluation",
            ("csv", "scores"), True, _dense_job,
            ("selection.json", "select.out", "run.csv", "rank.out", "eval.out"), (), _check_dense,
        ),
        Workload(
            "select-sparse",
            "one-shot select on fbin, euclidean, CSR affinity: every layer in one "
            "process, single-threaded kNN scan, no graph cache",
            ("fbin",), False, _sparse_job, ("selection.json", "select.out"), (), _check_sparse,
        ),
    )
}

"""The benchmark drives the program by name; check the names it uses.

``perfbench/tracing.py`` patches each ``PATCHES`` entry through the module
references held by ``hubsel.cli`` and its counters read arguments and
results of the wrapped functions, and ``perfbench/workloads.py`` runs
``hubsel`` command lines. A rename, a result whose shape a counter no
longer reads, or a dropped option would otherwise only fail when the
benchmark runs.
"""

import inspect
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from hubsel import cli, features
from helpers import random_matrix

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_commands_parse(name, tmp_path):
    inputs = workloads.Inputs(
        csv=tmp_path / "c.csv", fbin=tmp_path / "c.fbin", scores=tmp_path / "s.csv",
        prepared=tmp_path / "prepared",
    )
    for args, _ in workloads.WORKLOADS[name].job(inputs):
        parsed = cli.build_parser().parse_args(list(args))
        assert parsed.command == args[0]


@pytest.mark.parametrize(
    "mod, attr, name, counter", tracing.PATCHES, ids=[f"{m}.{a}" for m, a, _, _ in tracing.PATCHES]
)
def test_patched_function_exists_with_counted_arguments(mod, attr, name, counter):
    func = getattr(getattr(cli, mod), attr)
    assert callable(func)
    if counter is None:
        return
    params = inspect.signature(func).parameters
    for arg in re.findall(r'a\["(\w+)"\]', inspect.getsource(counter)):
        assert arg in params, f"{mod}.{attr} has no parameter '{arg}' read by {counter.__name__}"


def test_counters_record_on_a_real_job(tmp_path, monkeypatch, capsys):
    """Every patched function runs and every counter sees real results."""
    rng = np.random.default_rng(4)
    m = random_matrix(rng, 40, 8)
    features.save_features(m, tmp_path / "feat.csv")
    features.save_features(m, tmp_path / "feat.fbin")
    (tmp_path / "scores.csv").write_text(
        "".join(f"{ident},{i % 16}\n" for i, ident in enumerate(m.ids))
    )
    profiles = ["--profiles", "out/profile.csv"]
    commands = [
        ["analyze", "feat.csv", "--out", "out"],
        ["analyze", "feat.csv", "--out", "out"],  # reads the graph cache
        ["select", "feat.csv", "--k", "5", "--out", "dense.json", *profiles],
        ["select", "feat.fbin", "--k", "5", "--out", "sparse.json",
         "--mode", "knn-sparse", "--metric", "euclidean"],
        ["select", "feat.csv", "--k", "1", "--out", "linear.json", "--linear", *profiles],
        ["rank", "--mode", "hub-first", "--features", "feat.csv", "--k", "5",
         "--out", "run.csv", *profiles],
        ["eval", "--run", "run.csv", "--kind", "subjective", "--scores", "scores.csv"],
    ]
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer()
    try:
        for mod, attr, name, counter in tracing.PATCHES:
            tracer.wrap(getattr(cli, mod), attr, name, counter)
        codes = [cli.main(argv) for argv in commands]
    finally:
        tracer.unwrap()
    assert codes == [0] * len(commands)
    assert {s["name"] for s in tracer.spans} == {name for _, _, name, _ in tracing.PATCHES}
    c = tracer.counts
    for key in ("input_bytes", "knn_entries", "knn_kept", "knn_flop", "cache_bytes",
                "diversity_pairs", "affinity_bytes", "iterations"):
        assert c[key] > 0, key
    assert "degenerate_lid" in c and "converged" in c  # may count 0
    assert c["solves"] == 4  # three selects and one solver rank

"""The benchmark's tracer wraps program functions by name; check the names.

``perfbench/tracing.py`` patches each ``PATCHES`` entry through the module
references held by ``hubsel.cli`` and its counters read arguments of the
wrapped functions by name. A rename here would otherwise only fail when
the benchmark runs with ``--trace 1``.
"""

import inspect
import re
import sys
from pathlib import Path

import pytest

from hubsel import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


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

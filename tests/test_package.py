"""The package's exported names load their layers on first use."""

import os
import subprocess
import sys
from pathlib import Path

_CHECK = """
import sys
import hubsel
assert "numpy" not in sys.modules, "import hubsel loaded numpy"
assert hubsel.stats.hubness_and_lid and hubsel.table.check_id  # layers, as before
names = {}
exec("from hubsel import *", names)
del names["__builtins__"]
assert sorted(names) == sorted(hubsel.__all__), sorted(names)
for name in hubsel.__all__:
    obj = getattr(hubsel, name)
    assert names[name] is obj, name
    home = getattr(obj, "__module__", None) or {"LID_CAP": "hubsel.stats",
                                                 "METRICS": "hubsel.neighbors"}[name]
    assert home.startswith("hubsel."), (name, home)
    assert getattr(sys.modules[home], name) is obj, name
print(len(hubsel.__all__))
"""


def test_names_load_lazily_and_are_their_layers_objects():
    """``import hubsel`` loads no numpy; its layers are its attributes;
    each name of ``__all__``, read from the package or through ``from
    hubsel import *``, is the object its layer defines."""
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run(
        [sys.executable, "-c", _CHECK], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert int(child.stdout) == 43

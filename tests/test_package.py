"""The package's lazy exports and what a `natprod` child loads."""

import importlib
import subprocess
import sys

import pytest

import natprod

LAYERS = ("errors", "matpoly", "matrix", "scalars", "structures", "supermatrix")


def test_every_export_is_its_layers_object():
    for name in natprod.__all__:
        if name in LAYERS:
            assert getattr(natprod, name) is importlib.import_module(f"natprod.{name}")
            continue
        home = natprod._HOME.get(name, "errors")  # the error classes load eagerly
        layer = importlib.import_module(f"natprod.{home}")
        assert getattr(natprod, name) is vars(layer)[name], name


# In a fresh interpreter: after every lazy name is resolved, as an eager
# package would have them, its public globals are what `import *` binds.
_STAR = """
import natprod
star = {}
exec("from natprod import *", star)
star.pop("__builtins__")
public = {name for name in vars(natprod) if not name.startswith("_")}
listed = {name for name in dir(natprod) if not name.startswith("_")}
assert set(star) == public == listed == set(natprod.__all__), set(star) ^ public
print(len(star))
"""


def test_star_import_binds_the_public_names():
    proc = subprocess.run([sys.executable, "-c", _STAR], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["110"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        natprod.no_such_name  # noqa: B018
    assert not hasattr(natprod, "verify_suite")
    assert natprod.__version__ == "0.1.0"


# Runs `python -m natprod ARGS` and prints, at exit, every module it imported.
_PROBE = """
import atexit, runpy, sys
atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))
runpy.run_module("natprod", run_name="__main__", alter_sys=True)
"""


def _loaded(*argv):
    """The module names a `natprod` child has imported when it exits."""
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


_ALL = {"natprod.matpoly", "natprod.structures", "natprod.verify", "dataclasses"}


@pytest.mark.parametrize(
    "argv,used",
    [
        (("eval", "nprod", "[1 2]", "[3 4]"), set()),
        (("poly", "add", "[1 2] + [3 4] * x", "[5 6]"), {"natprod.matpoly"}),
        (("complement", "[1 0]"), {"natprod.structures", "dataclasses"}),
        (("verify", "laws", "--samples", "1"), _ALL),
    ],
    ids=["eval", "poly", "complement", "verify"],
)
def test_a_verb_loads_only_its_layers(argv, used):
    loaded = _loaded(*argv)
    assert {"natprod.cli", "natprod.matrix"} <= loaded
    assert loaded & _ALL == used

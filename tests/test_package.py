"""The package's lazy exports, what a `natprod` child loads, and the
value semantics every exported value shares."""

import copy
import dataclasses
import importlib
import itertools
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import natprod
from natprod import (
    Q,
    Q_PLUS,
    Z,
    Carrier,
    Domain,
    MatPoly,
    Mod,
    Scalar,
    analyze,
    domain_from_code,
    orthogonal_space,
    parse_literal,
    parse_poly,
    solve_binomial,
    support,
)

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
    assert proc.stdout.split() == ["96"]


# one-line function aliases of an operator or method, no longer exported
RETIRED = {
    "scalars": ("dom_add", "dom_mul", "dom_inv", "is_unit"),
    "matrix": ("mat_add", "nproduct", "uproduct"),
    "matpoly": ("poly_add", "poly_mul_natural", "poly_mul_usual", "poly_degree"),
    "supermatrix": ("same_type", "super_add", "super_nproduct"),
    "cli": ("verify_suite",),
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in RETIRED.items() for n in names])
def test_retired_aliases_are_gone(module, name):
    with pytest.raises(AttributeError, match=name):
        getattr(natprod, name)
    assert name not in natprod.__all__
    assert not hasattr(importlib.import_module(f"natprod.{module}"), name)


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


_LAYERS = {"natprod.matpoly", "natprod.structures", "natprod.verify", "dataclasses"}
_ALL = _LAYERS | {"json"}


@pytest.mark.parametrize(
    "argv,used",
    [
        (("eval", "nprod", "[1 2]", "[3 4]"), set()),
        (("poly", "add", "[1 2] + [3 4] * x", "[5 6]"), {"natprod.matpoly"}),
        (("complement", "[1 0]"), set()),
        (("verify", "laws", "--samples", "1"), _LAYERS),
        # only JSON text loads `json`: the output, or an input
        (("eval", "nprod", "[1 2]", "[3 4]", "--format", "json"), {"json"}),
        (
            ("eval", "parse-render", '{"domain": "Q", "rows": 1, "cols": 1, "entries": [["1"]]}'),
            {"json"},
        ),
    ],
    ids=["eval", "poly", "complement", "verify", "eval-json", "eval-json-input"],
)
def test_a_verb_loads_only_its_layers(argv, used):
    loaded = _loaded(*argv)
    assert {"natprod.cli", "natprod.matrix"} <= loaded
    assert loaded & _ALL == used


def _build():
    """One value of each class, every one built afresh on each call."""
    cut = parse_literal("[1 0 | 3;--;4 5 | 0]", Q)
    return {
        "Domain-Q+": Q_PLUS,
        "Domain-Zn6": Mod(6),
        "Scalar-Q": Scalar(Q, Fraction(-1, 3)),
        "Scalar-Zn6": Scalar(Mod(6), 7),
        "PartitionType": cut.partition,
        "Matrix": cut.base,
        "Matrix-partitioned": cut,
        "SupportMask": support(cut),
        "MatPoly": parse_poly("[1 2] + [3 4] * x^2", Z),
        "MatPoly-partitioned": MatPoly.constant(cut) + MatPoly.from_terms([(3, cut)]),
        "RootSet-pair": solve_binomial(parse_literal("[1 1]"), parse_literal("[4 9]"), 2),
        "RootSet-none": solve_binomial(parse_literal("[1]"), parse_literal("[2]"), 2),
        "Carrier-masks": Carrier.masks((1, 2)),
        "Carrier-all": Carrier.all_matrices((1, 2), Mod(3)),
        "Carrier-explicit": Carrier.explicit([parse_literal("[1 0]", Z), parse_literal("[0 0]", Z)]),
        "StructureReport": analyze(Carrier.masks((1, 2))),
        "MaskSubspace": orthogonal_space(cut.base),
    }


_VALUES = _build()
_COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("name", _VALUES)
@pytest.mark.parametrize("how", _COPIES)
def test_values_copy_and_pickle(how, name):
    value = _VALUES[name]
    twin = _COPIES[how](value)
    assert type(twin) is type(value)
    assert twin == value
    assert hash(twin) == hash(value)


@pytest.mark.parametrize("how", _COPIES)
def test_each_domain_is_one_object(how):
    assert Domain("int") is Z
    assert Mod(7) is domain_from_code("Zn:7") is Domain("mod", 7)
    for domain in (Z, Q, Q_PLUS, Mod(6)):
        assert _COPIES[how](domain) is domain
    with pytest.raises(ValueError, match="unknown domain kind"):
        Domain("real")


def test_values_of_different_classes_never_compare_equal():
    for (name, value), (other_name, other) in itertools.product(_VALUES.items(), repeat=2):
        if type(value) is not type(other):
            assert value != other, (name, other_name)


def test_values_built_twice_are_equal_and_hash_equal():
    for name, again in _build().items():
        value = _VALUES[name]
        assert again == value and hash(again) == hash(value), name


@pytest.mark.parametrize("name", _VALUES)
def test_values_refuse_changes(name):
    value = _VALUES[name]
    before = copy.deepcopy(value)
    if dataclasses.is_dataclass(value):
        field, message = dataclasses.fields(value)[0].name, "cannot"
    else:
        field, message = type(value).__slots__[0], f"{type(value).__name__} is immutable"
    with pytest.raises(AttributeError, match=message):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=message):
        delattr(value, field)
    with pytest.raises(AttributeError, match=message):
        value.no_such_field = None
    assert value == before

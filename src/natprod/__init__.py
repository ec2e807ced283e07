"""Exact algebra for the natural (componentwise) matrix product.

Matrices of any one shape multiply entrywise (`A * B`), which extends the
row-vector product to columns, rectangles, squares and partitioned
("super") matrices, and makes matrix-coefficient polynomial rings with a
formal calculus possible.  Everything is exact: integers, rationals,
residues mod n, and the strict nonnegative cones.

The error classes load with the package; every other name loads its
module on first access (PEP 562), so a process pays only for the layers
it touches.
"""

import sys as _sys

from . import errors
from .errors import (
    ConeViolation,
    DomainMismatch,
    NatProdError,
    NoRationalRoot,
    NotAUnit,
    NotClosed,
    NotInvertible,
    NotMember,
    NotMonicizable,
    NotSquare,
    ParseError,
    RaggedCuts,
    ShapeMismatch,
    SingularLead,
    TooLarge,
    TypeMismatch,
    UnsupportedDomain,
    ZeroDivisorEntry,
    ZeroLead,
)

__version__ = "0.1.0"

_EAGER = [name for name in globals() if not name.startswith("_")]

_EXPORTS = {
    "matpoly": (
        "MatPoly",
        "RootSet",
        "monicize_natural",
        "monicize_usual",
        "parse_poly",
        "poly_derivative",
        "poly_evaluate_natural",
        "poly_from_json",
        "poly_integrate",
        "poly_to_json",
        "render_poly",
        "solve_binomial",
        "solve_quadratic",
    ),
    "matrix": (
        "Matrix",
        "PartitionType",
        "Shape",
        "SupportMask",
        "diagonal",
        "divides",
        "identity",
        "is_idempotent",
        "is_orthogonal",
        "is_prime_row",
        "main_complement",
        "matrix_from_json",
        "matrix_to_json",
        "natural_inverse",
        "ones",
        "parse_literal",
        "parse_matrix",
        "render_matrix",
        "support",
        "trivial_idempotent_count",
        "trivial_idempotents",
        "zero_divisor_witness",
        "zeros",
    ),
    "scalars": (
        "Domain",
        "Mod",
        "Q",
        "Q_PLUS",
        "Scalar",
        "Z",
        "Z_PLUS",
        "domain_from_code",
        "kth_root",
    ),
    "structures": (
        "ADDITION",
        "Carrier",
        "DIRECT",
        "MaskSubspace",
        "NATURAL_PRODUCT",
        "NOT_SPANNING",
        "PSEUDO_DIRECT",
        "StructureReport",
        "analyze",
        "check_sum",
        "cone_positivity_check",
        "cone_zero_divisor_pair",
        "ideal_generated",
        "idempotents_in",
        "is_ideal",
        "is_smarandache",
        "is_subsemigroup",
        "orthogonal_space",
        "subspace_complement",
    ),
    "supermatrix": (
        "SuperMatrix",
        "parse_super",
        "render_super",
        "super_from_json",
        "super_inverse",
        "super_ones",
        "super_to_json",
    ),
}

# name -> the module that defines it; a layer's own name maps to itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_HOME.update((module, module) for module in _EXPORTS)

__all__ = sorted([*_EAGER, *_HOME])


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib: -X importtime reports only imports made through it
    __import__(f"{__name__}.{module}")
    layer = _sys.modules[f"{__name__}.{module}"]
    value = layer if name == module else getattr(layer, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})

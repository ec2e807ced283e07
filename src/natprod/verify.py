"""Built-in regression suites: worked examples, algebraic laws, censuses.

Three suites back the `verify` CLI verb.  `paper-examples` replays a
registry of fixed worked computations bit-exactly; `laws` runs the seeded
sampled algebraic-law checks; `census` runs the counting identities (mask
idempotent counts, ideal orders, modular idempotent counts) against
brute-force enumeration.

The worked examples are written in the CLI's own syntax: matrix literals
(`[1 2 | 3;4 5 | 6]`, cuts as `|` and `--`) through `parse_literal`,
polynomials (`[1 2] + [3 4] * x^2`) through `parse_poly`, and masks as the
`support` of a literal.  Each literal is parsed inside its case when the
suite runs, never at import, so every worked example also exercises the
parser the CLI uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, repeat

from . import matpoly as mp
from . import structures as st
from .errors import (
    NatProdError,
    NotClosed,
    NotInvertible,
    NotMonicizable,
    SingularLead,
    ZeroDivisorEntry,
)
from .matpoly import parse_poly
from .matrix import (
    Matrix,
    PartitionType,
    Shape,
    diagonal,
    divides,
    is_idempotent,
    is_orthogonal,
    is_prime_row,
    main_complement,
    natural_inverse,
    ones,
    parse_literal,
    render_matrix,
    support,
    trivial_idempotent_count,
    trivial_idempotents,
    zero_divisor_witness,
)
from .scalars import Mod, Q, Q_PLUS, Scalar, Z, Z_PLUS, _draw, kth_root


@dataclass
class CaseResult:
    name: str
    ok: bool
    detail: str = ""


def _expect(actual, expected, what="value"):
    if actual != expected:
        raise AssertionError(f"{what}: expected {expected}, got {actual}")


def _expect_raises(exc_type, fn, what):
    try:
        fn()
    except exc_type:
        return
    except NatProdError as exc:
        raise AssertionError(f"{what}: raised {type(exc).__name__}, expected {exc_type.__name__}")
    raise AssertionError(f"{what}: no error raised, expected {exc_type.__name__}")


# ---------------------------------------------------------------------------
# fixed worked examples
# ---------------------------------------------------------------------------

_CASES = []


def _case(name):
    def register(fn):
        _CASES.append((name, fn))
        return fn

    return register


@_case("scalar-reciprocal-unit")
def _scalar_reciprocal():
    a = Scalar(Q, "1/8")
    _expect((a * Scalar(Q, 8)).value, 1, "1/8 * 8")
    _expect(a.inv().value, 8, "inv(1/8)")


@_case("scalar-perfect-power-roots")
def _scalar_roots():
    _expect(kth_root(Scalar(Z, 125), 3).value, 5, "cube root of 125")
    _expect(kth_root(Scalar(Z, 4), 2).value, 2, "square root of 4")


@_case("scalar-sign-units")
def _scalar_sign_units():
    _expect(Scalar(Z, -1).is_unit(), True, "-1 a unit over Z")
    _expect(Scalar(Z, 1).is_unit(), True, "1 a unit over Z")


@_case("square-matrix-addition")
def _square_add():
    a = parse_literal("[0 3 -2;1 0 0;0 0 4]")
    b = parse_literal("[1 2 1;0 1 3;-6 1 2]")
    _expect(a + b, parse_literal("[1 5 -1;1 1 3;-6 1 6]"), "3x3 sum")


@_case("column-natural-product")
def _column_nproduct():
    x = parse_literal("[7;2;0;1;5]")
    y = parse_literal("[1;3;5;2;7]")
    _expect(x * y, parse_literal("[7;6;0;2;35]"), "5x1 natural product")


@_case("square-natural-vs-usual-product")
def _square_products():
    a = parse_literal("[6 1 2;0 3 4;2 1 0]")
    b = parse_literal("[3 0 1;2 1 0;0 1 2]")
    _expect(a * b, parse_literal("[18 0 2;0 3 0;0 1 0]"), "natural product")
    _expect(a @ b, parse_literal("[20 3 10;6 7 8;8 1 2]"), "usual product")
    if a * b == a @ b:
        raise AssertionError("the two products should differ here")


@_case("usual-product-noncommutative")
def _usual_noncommutative():
    m = parse_literal("[3 4;2 0]")
    n = parse_literal("[1 2;0 1]")
    _expect(m @ n, parse_literal("[3 10;2 4]"), "M.N")
    _expect(n @ m, parse_literal("[7 4;2 0]"), "N.M")
    _expect(m * n, n * m, "natural product commutes")
    _expect(m * n, parse_literal("[3 8;0 0]"), "M x_n N")


@_case("entrywise-inverse-4x2")
def _entrywise_inverse():
    a = parse_literal("[3 4;5 8;1 9;4 7]")
    b = natural_inverse(a)
    _expect(b, parse_literal("[1/3 1/4;1/5 1/8;1 1/9;1/4 1/7]"), "entrywise inverse")
    j = parse_literal("[1 1;1 1;1 1;1 1]")
    _expect(a * b, j, "a x_n inv(a)")
    _expect(b * a, j, "inv(a) x_n a")


@_case("block-row-idempotent")
def _block_row_idempotent():
    x = parse_literal("[1 1 1;0 0 0;1 1 1;0 0 0;0 0 0]", Z_PLUS)
    _expect(is_idempotent(x), True, "x^2 = x")


@_case("mask-census-2x2")
def _mask_census_2x2():
    masks = trivial_idempotents(Shape(2, 2))
    _expect(len(masks), 16, "2x2 mask count")
    for m in masks:
        _expect(is_idempotent(m.to_matrix(Z_PLUS)), True, f"mask {m} idempotent")


@_case("mask-census-2x4-count")
def _mask_census_2x4():
    _expect(trivial_idempotent_count(Shape(2, 4)), 256, "2x4 mask count")
    _expect(len(trivial_idempotents(Shape(2, 4))), 256, "2x4 enumerated")


@_case("main-complement-left-column")
def _main_complement_left():
    p = parse_literal("[2 0;3 0]")
    _expect(main_complement(p), support(parse_literal("[0 1;0 1]")), "main complement")


@_case("main-complement-extremes")
def _main_complement_extremes():
    z = parse_literal("[0 0 0;0 0 0]")
    full = parse_literal("[1 1 1;1 1 1]")
    _expect(main_complement(z), support(full), "zero -> full")
    _expect(main_complement(full), support(z), "full -> zero")


@_case("column-orthogonality")
def _column_orthogonality():
    x = parse_literal("[1;2;3;0;0;0]")
    y = parse_literal("[0;0;0;0;1;2]")
    _expect(is_orthogonal(x, y), True, "disjoint supports")


@_case("row-orthogonality")
def _row_orthogonality():
    x = parse_literal("[0 4 -5 0 7]")
    y = parse_literal("[1 0 0 8 0]")
    _expect(is_orthogonal(x, y), True, "disjoint supports")


@_case("entrywise-division")
def _entrywise_division():
    x = parse_literal("[5 7 2 8]", Z)
    y = parse_literal("[10 14 8 8]", Z)
    _expect(divides(x, y), parse_literal("[2 2 4 1]", Z), "quotient")
    bad = parse_literal("[0 2 3 5 7 8]", Z)
    tgt = parse_literal("[5 4 6 10 21 24]", Z)
    _expect_raises(ZeroDivisorEntry, lambda: divides(bad, tgt), "zero divisor entry")


@_case("prime-rows")
def _prime_rows():
    _expect(is_prime_row(parse_literal("[3 5 11 13]", Z)), True, "(3,5,11,13)")
    _expect(is_prime_row(parse_literal("[7 5 2 19 23 31]", Z)), True, "(7,5,2,...)")
    _expect(is_prime_row(parse_literal("[4 5]", Z)), False, "(4,5)")


@_case("zero-set-annihilator")
def _zero_set_annihilator():
    a = parse_literal("[3 0 4]", Z_PLUS)
    w = zero_divisor_witness(a)
    _expect(w, parse_literal("[0 1 0]", Z_PLUS), "canonical witness")
    _expect((a * w).is_zero(), True, "a x_n w = 0")
    _expect((a * parse_literal("[0 7 0]", Z_PLUS)).is_zero(), True, "a x_n (0,7,0) = 0")


@_case("super-addition-cellwise")
def _super_addition():
    x = parse_literal(
        "[ 1  2 |  3  4 |  5  6 |  7;"
        "  8  9 | 10 11 | 12 13 | 14; --;"
        " 15 16 | 17 18 | 19 20 | 21;"
        " 22 23 | 24 25 | 26 27 | 28; --;"
        " 29 30 | 31 32 | 33 34 | 35]"
    )
    y = parse_literal(
        "[100 101 | 102 103 | 104 105 | 106;"
        " 107 108 | 109 110 | 111 112 | 113; --;"
        " 114 115 | 116 117 | 118 119 | 120;"
        " 121 122 | 123 124 | 125 126 | 127; --;"
        " 128 129 | 130 131 | 132 133 | 134]"
    )
    total = x + y
    expected = parse_literal(
        "[101 103 | 105 107 | 109 111 | 113;"
        " 115 117 | 119 121 | 123 125 | 127; --;"
        " 129 131 | 133 135 | 137 139 | 141;"
        " 143 145 | 147 149 | 151 153 | 155; --;"
        " 157 159 | 161 163 | 165 167 | 169]"
    )
    _expect(total, expected, "cellwise sums")
    _expect(total.partition, x.partition, "partition preserved")


@_case("super-natural-product-3x5")
def _super_nproduct():
    x = parse_literal("[1 2 | 3 4 | 5;9 8 | 7 6 | 5;0 1 | 2 7 | 1]")
    y = parse_literal("[0 1 | 2 3 | 5;9 0 | 1 3 | 4;7 2 | 3 1 | 2]")
    expected = parse_literal("[0 2 | 6 12 | 25;81 0 | 7 18 | 20;0 2 | 6 7 | 2]")
    _expect(x * y, expected, "3x5 super natural product")


@_case("super-zero-divisor-6x6")
def _super_zero_divisor():
    x = parse_literal(
        "[7 8 0 | 9 4 2; --;"
        " 0 1 2 | 5 7 8;"
        " 1 2 3 | 0 1 0; --;"
        " 5 7 0 | 9 2 0;"
        " 1 2 3 | 0 2 3;"
        " 0 8 7 | 0 5 4]"
    )
    y = parse_literal(
        "[0 0 9 | 0 0 0; --;"
        " 7 0 0 | 0 0 0;"
        " 0 0 0 | 6 0 8; --;"
        " 0 0 6 | 0 0 2;"
        " 0 0 0 | 6 0 0;"
        " 5 0 0 | 7 0 0]"
    )
    _expect((x * y).is_zero(), True, "6x6 zero divisor")


@_case("super-identity-all-ones")
def _super_identity():
    x = parse_literal("[1 2 | 3 4 | 5;9 8 | 7 6 | 5;0 1 | 2 7 | 1]")
    j = parse_literal("[1 1 | 1 1 | 1;1 1 | 1 1 | 1;1 1 | 1 1 | 1]")
    _expect(x * j, x, "x x_n J = x")
    _expect(j * x, x, "J x_n x = x")


@_case("super-inverse-mixed-row")
def _super_inverse_row():
    x = parse_literal("[1/8 | 7 5 | 3 2 4 -1]")
    inv = natural_inverse(x)
    _expect(inv, parse_literal("[8 | 1/7 1/5 | 1/3 1/2 1/4 -1]"), "entrywise inverse row")
    _expect(x * inv, parse_literal("[1 | 1 1 | 1 1 1 1]"), "x x_n inv = ones")


@_case("super-inverse-zero-entry")
def _super_inverse_blocked():
    x = parse_literal("[1 0 | 5 7 2 | 1 5 7 -1 2]")
    _expect_raises(NotInvertible, lambda: natural_inverse(x), "zero entry")


@_case("super-sign-self-inverse")
def _super_self_inverse():
    x = parse_literal("[1 -1 | 1 1 -1 | -1 -1]", Z)
    _expect(x * x, parse_literal("[1 1 | 1 1 1 | 1 1]", Z), "x x_n x = ones")
    _expect(natural_inverse(x), x, "x is its own inverse")


@_case("super-literal-round-trip")
def _super_literal():
    text = "[9 0 2 | 0 1 ; 0 1 0 | 5 0 ; 1 0 0 | 2 0]"
    s = parse_literal(text, Q)
    _expect(s.shape, Shape(3, 5), "shape")
    _expect(s.partition.col_cuts, (3,), "column cuts")
    _expect(s.partition.row_cuts, (), "row cuts")
    _expect(s.rows()[0], [9, 0, 2, 0, 1], "first row")
    _expect(parse_literal(render_matrix(s), Q), s, "round trip")


@_case("row-poly-addition")
def _row_poly_add():
    p = parse_poly("[0 2 1 0] + [7 0 1 2] * x + [1 1 1 1] * x^3 + [0 1 2 0] * x^5")
    q = parse_poly(
        "[7 8 9 10] + [3 1 0 7] * x + [3 0 1 4] * x^3 + [-4 -2 -3 -4] * x^4"
        " + [7 1 0 0] * x^5 + [1 2 3 4] * x^8"
    )
    expected = parse_poly(
        "[7 10 10 10] + [10 1 1 9] * x + [4 1 2 5] * x^3 + [-4 -2 -3 -4] * x^4"
        " + [7 2 2 0] * x^5 + [1 2 3 4] * x^8"
    )
    _expect(p + q, expected, "row polynomial sum")


@_case("row-poly-natural-product")
def _row_poly_nproduct():
    p = parse_poly("[0 1 2] + [3 4 0] * x + [2 1 5] * x^2 + [3 0 2] * x^3")
    q = parse_poly("[6 0 2] + [0 1 4] * x + [3 1 0] * x^2 + [1 2 3] * x^4")
    expected = parse_poly(
        "[0 0 4] + [18 1 8] * x + [12 5 10] * x^2 + [27 5 24] * x^3"
        " + [6 3 14] * x^4 + [12 8 0] * x^5 + [2 2 15] * x^6 + [3 0 6] * x^7"
    )
    _expect(p * q, expected, "row polynomial natural product")


@_case("super-square-poly-natural-product")
def _super_poly_nproduct():
    p = parse_poly(
        "[3 2 | 0;1 0 | 1;0 2 | 3]"
        " + [7 5 | 1;0 1 | 2;0 0 | 3] * x"
        " + [1 2 | 3;0 0 | 7;0 1 | 2] * x^2"
        " + [0 0 | 9;1 0 | 3;2 7 | 2] * x^4"
    )
    q = parse_poly(
        "[4 0 | 2;1 5 | 6;7 0 | 2]"
        " + [1 2 | 3;4 5 | 6;7 8 | 9] * x^2"
        " + [0 3 | 1;2 1 | 0;3 4 | 5] * x^3"
    )
    expected = parse_poly(
        "[12 0 | 0;1 0 | 6;0 0 | 6]"
        " + [28 0 | 2;0 5 | 12;0 0 | 6] * x"
        " + [7 4 | 6;4 0 | 48;0 16 | 31] * x^2"
        " + [7 16 | 3;2 5 | 12;0 8 | 42] * x^3"
        " + [1 19 | 28;1 1 | 60;14 8 | 37] * x^4"
        " + [0 6 | 3;0 0 | 0;0 4 | 10] * x^5"
        " + [0 0 | 27;4 0 | 18;14 56 | 18] * x^6"
        " + [0 0 | 9;2 0 | 0;6 28 | 10] * x^7"
    )
    product = p * q
    _expect(product, expected, "super square polynomial product")
    _expect(product.coeff(0), parse_literal("[12 0 0;1 0 6;0 0 6]"), "constant term")


@_case("square-poly-usual-product")
def _square_poly_uproduct():
    p = parse_poly("[1 2;0 4] + [0 1;2 3] * x + [1 2;3 0] * x^2")
    q = parse_poly("[0 1;2 0] + [1 0;2 3] * x + [1 2;3 4] * x^3")
    expected = parse_poly(
        "[4 1;8 0] + [7 6;14 14] * x + [6 4;8 12] * x^2 + [12 16;15 16] * x^3"
        " + [3 4;11 16] * x^4 + [7 10;3 6] * x^5"
    )
    _expect(p @ q, expected, "square polynomial usual product")


@_case("constant-poly-usual-noncommutative")
def _constant_poly_noncommutative():
    p = parse_poly("[3 4;2 0]")
    q = parse_poly("[1 2;0 1]")
    if p @ q == q @ p:
        raise AssertionError("usual product should not commute here")


@_case("row-poly-derivative")
def _row_poly_derivative():
    p = parse_poly(
        "[2 0 1 0 1 5] + [3 2 1 0 0 0] * x + [0 1 0 2 0 4] * x^2"
        " + [0 -2 -3 0 0 0] * x^3 + [8 0 7 0 1 0] * x^5",
        Z,
    )
    expected = parse_poly(
        "[3 2 1 0 0 0] + [0 2 0 4 0 8] * x + [0 -6 -9 0 0 0] * x^2"
        " + [40 0 35 0 5 0] * x^4",
        Z,
    )
    _expect(mp.poly_derivative(p), expected, "row polynomial derivative")


@_case("square-poly-derivative")
def _square_poly_derivative():
    p = parse_poly(
        "[3 0;1 2] + [2 6;1 5] * x + [7 0;0 8] * x^2 + [-3 -1;0 0] * x^3"
        " + [8 1;0 1] * x^4 + [0 -4;2 0] * x^5"
    )
    expected = parse_poly(
        "[2 6;1 5] + [14 0;0 16] * x + [-9 -3;0 0] * x^2 + [32 4;0 4] * x^3"
        " + [0 -20;10 0] * x^4"
    )
    _expect(mp.poly_derivative(p), expected, "square polynomial derivative")


@_case("row-poly-integral")
def _row_poly_integral():
    p = parse_poly(
        "[1 2 3 4 5] + [0 1 0 3 -1] * x + [5 0 8 1 7] * x^2 + [1 2 0 4 5] * x^3"
        " + [-2 1 4 3 0] * x^4"
    )
    expected = parse_poly(
        "[1 2 3 4 5] * x + [0 1/2 0 3/2 -1/2] * x^2 + [5/3 0 8/3 1/3 7/3] * x^3"
        " + [1/4 1/2 0 1 5/4] * x^4 + [-2/5 1/5 4/5 3/5 0] * x^5"
    )
    _expect(mp.poly_integrate(p), expected, "row polynomial integral")


@_case("integer-poly-integral-not-closed")
def _integral_not_closed():
    text = (
        "[3 8 4 0] + [2 0 4 9] * x + [1 2 1 1] * x^2 + [1 0 1 1] * x^3"
        " + [3 4 8 9] * x^5"
    )
    p_int = parse_poly(text, Z)
    _expect_raises(NotClosed, lambda: mp.poly_integrate(p_int), "integral over Z")
    p_rat = parse_poly(text)
    integral = mp.poly_integrate(p_rat)
    _expect(mp.poly_derivative(integral), p_rat, "derivative of integral over Q")


@_case("poly-degrees")
def _poly_degrees():
    p = parse_poly(
        "[3 0;-1 2] + [1 0;0 2] * x^2 + [0 1;0 3] * x^3 + [1 0;4 0] * x^5"
        " + [1 4;0 0] * x^8 + [0 0;1 2] * x^9 + [0 1;5 0] * x^10"
    )
    _expect(p.degree(), 10, "degree of the 2x2 example")
    q = parse_poly(
        "[3 1 2;0 1 5;0 0 1] + [7 2 1;0 5 7;6 1 2] * x^2"
        " + [2 0 1;0 7 4;0 1 0] * x^4 + [2 1 5;6 7 8;0 1 2] * x^8"
    )
    _expect(q.degree(), 8, "degree of the 3x3 example")
    _expect(parse_poly("[0 0]").degree(), None, "zero polynomial")


@_case("row-poly-monicize")
def _row_poly_monicize():
    q = parse_poly("[5 7 8 -4] * x^5 + [1 2 3 0] * x^3 + [7 0 1 5] * x + [8 9 0 2]")
    expected = parse_poly(
        "[1 1 1 1] * x^5 + [1/5 2/7 3/8 0] * x^3 + [7/5 0 1/8 -5/4] * x"
        " + [8/5 9/7 0 -1/2]"
    )
    _expect(mp.monicize_natural(q), expected, "monic under the natural product")


@_case("row-poly-monicize-blocked")
def _row_poly_monicize_blocked():
    p = parse_poly("[0 3 0 0] * x^4 + [1 2 3 4] * x^3 + [2 0 0 1] * x + [1 2 0 5]")
    _expect_raises(NotMonicizable, lambda: mp.monicize_natural(p), "zero in the lead")


@_case("square-poly-monicize-usual")
def _square_poly_monicize_usual():
    p = parse_poly(
        "[7 0;0 8] * x^5 + [1 8;7 5] * x^4 + [0 1;2 0] * x^3 + [0 1;1 0] * x^2"
        " + [1 0;2 5]"
    )
    expected = parse_poly(
        "[1 0;0 1] * x^5 + [1/7 8/7;7/8 5/8] * x^4 + [0 1/7;1/4 0] * x^3"
        " + [0 1/7;1/8 0] * x^2 + [1/7 0;1/4 5/8]"
    )
    _expect(mp.monicize_usual(p), expected, "monic under the usual product")


@_case("square-poly-monicize-singular")
def _square_poly_monicize_singular():
    p = parse_poly(
        "[3 0;1 0] * x^7 + [2 1;5 7] * x^3 + [8 1;0 5] * x^2 + [18 7;0 2] * x"
        " + [1 2;3 4]"
    )
    _expect_raises(SingularLead, lambda: mp.monicize_usual(p), "singular lead")


@_case("cube-root-equation")
def _cube_root_equation():
    roots = mp.solve_binomial(parse_literal("[1 1 1]"), parse_literal("[27 8 125]"), 3)
    _expect(tuple(roots), (parse_literal("[3 2 5]"),), "cube roots")


@_case("square-root-equation")
def _square_root_equation():
    roots = mp.solve_binomial(parse_literal("[1 1 1 1]"), parse_literal("[4 9 25 4]"), 2)
    pair = (parse_literal("[2 3 5 2]"), parse_literal("[-2 -3 -5 -2]"))
    _expect(tuple(roots), pair, "aligned root pair")
    _expect(roots.componentwise_signs, True, "componentwise flag")


@_case("imaginary-root-rejected")
def _imaginary_root():
    roots = mp.solve_binomial(parse_literal("[1 1 1 1]"), parse_literal("[-4 -9 -25 -4]"), 2)
    _expect(len(roots), 0, "no real root")
    if not roots.reason or "NoRationalRoot" not in roots.reason:
        raise AssertionError(f"expected a NoRationalRoot reason, got {roots.reason!r}")


@_case("coincident-quadratic-roots")
def _coincident_quadratic():
    four = parse_literal("[4 4 4 4]")
    roots = mp.solve_quadratic(parse_literal("[1 1 1 1]"), four, four)
    _expect(tuple(roots), (parse_literal("[-2 -2 -2 -2]"),), "double root")


@_case("difference-of-squares-quadratic")
def _difference_of_squares():
    roots = mp.solve_quadratic(
        parse_literal("[1 1 1 1 1]"),
        parse_literal("[0 0 0 0 0]"),
        parse_literal("[-4 -9 -16 -25 -81]"),
    )
    pair = (parse_literal("[2 3 4 5 9]"), parse_literal("[-2 -3 -4 -5 -9]"))
    _expect(tuple(roots), pair, "aligned root pair")


@_case("triple-root-evaluation")
def _triple_root_evaluation():
    p = parse_poly("[1 1 1] * x^3 + [-6 -3 -9] * x^2 + [12 3 27] * x + [-8 -1 -27]")
    value = mp.poly_evaluate_natural(p, parse_literal("[2 1 3]"))
    _expect(value, parse_literal("[0 0 0]"), "triple root evaluates to zero")


@_case("row-poly-zero-divisor")
def _row_poly_zero_divisor():
    p = parse_poly("[3 2 0 0 0] + [6 3 0 0 0] * x + [7 0 0 0 0] * x^2 + [8 1 0 0 0] * x^4")
    q = parse_poly(
        "[0 0 1 2 3] + [0 0 0 4 2] * x^2 + [0 0 0 1 4] * x^3 + [0 0 0 3 4] * x^4"
        " + [0 0 0 5 2] * x^7"
    )
    _expect((p * q).is_zero(), True, "disjoint supports annihilate")


@_case("mask-carrier-analysis")
def _mask_carrier_analysis():
    carrier = st.Carrier.masks(Shape(2, 2))
    report = st.analyze(carrier)
    _expect(report.closed, True, "closed under x_n")
    _expect(report.associative, True, "associative")
    _expect(report.commutative, True, "commutative")
    _expect(report.identity, parse_literal("[1 1;1 1]", Z_PLUS), "identity J")
    _expect(len(report.idempotents), 16, "every mask idempotent")
    additive = st.analyze(st.Carrier.masks(Shape(2, 2), op=st.ADDITION))
    _expect(additive.closed, False, "masks are not closed under +")


@_case("sign-vector-group")
def _sign_vector_group():
    vectors = [
        parse_literal(text, Z)
        for text in (
            "[1;1;1]", "[1;1;-1]", "[1;-1;1]", "[1;-1;-1]",
            "[-1;1;1]", "[-1;1;-1]", "[-1;-1;1]", "[-1;-1;-1]",
        )
    ]
    report = st.analyze(st.Carrier.explicit(vectors))
    _expect(report.closed, True, "closed")
    _expect(report.identity, parse_literal("[1;1;1]", Z), "identity")
    groups = dict(report.max_subgroups)
    _expect(len(groups[report.identity]), 8, "a group of order 8")


@_case("mask-ideal-orders")
def _mask_ideal_orders():
    carrier = st.Carrier.masks(Shape(2, 4))
    x = parse_literal("[1 1 1 1;0 0 0 0]", Z_PLUS)
    _expect(st.ideal_generated(carrier, x).cardinality, 16, "order 16 ideal")
    y = parse_literal("[1 1 1 0;1 1 1 0]", Z_PLUS)
    _expect(st.ideal_generated(carrier, y).cardinality, 64, "order 2^6 ideal")
    zero = parse_literal("[0 0 0 0;0 0 0 0]", Z_PLUS)
    _expect(st.ideal_generated(carrier, zero).members, (zero,), "zero ideal")
    j = parse_literal("[1 1 1 1;1 1 1 1]", Z_PLUS)
    _expect(st.ideal_generated(carrier, j).cardinality, 256, "total ideal")


@_case("sign-pair-smarandache")
def _sign_pair_smarandache():
    j = parse_literal("[1;1;1]", Z)
    minus_j = parse_literal("[-1;-1;-1]", Z)
    carrier = st.Carrier.explicit(
        [parse_literal("[0;0;0]", Z), j, minus_j, parse_literal("[2;2;2]", Z)]
    )
    witness = st.is_smarandache(carrier)
    if witness is None:
        raise AssertionError("expected a subgroup witness")
    _expect(set(witness), {j, minus_j}, "subgroup of order 2")


@_case("diagonal-support-orthogonal-space")
def _diag_orthogonal_space():
    x = parse_literal("[3 0;0 5]")
    space = st.orthogonal_space(x)
    _expect(space.mask, support(parse_literal("[0 1;1 0]")), "anti-diagonal mask")
    member = parse_literal("[0 4;7 0]")
    _expect(space.contains(member), True, "membership")
    _expect((x * member).is_zero(), True, "orthogonality")


@_case("orthogonal-space-extremes")
def _orthogonal_space_extremes():
    z = parse_literal("[0 0 0;0 0 0]")
    _expect(st.orthogonal_space(z).mask.is_full(), True, "zero -> everything")
    full = parse_literal("[1 1 1;1 1 1]")
    _expect(st.orthogonal_space(full).mask.is_zero(), True, "full support -> only zero")


@_case("bottom-row-complement")
def _bottom_row_complement():
    bottom = st.MaskSubspace(support(parse_literal("[0 0 0;0 0 0;1 1 1]")), Q)
    top = st.subspace_complement(bottom)
    _expect(top.mask, support(parse_literal("[1 1 1;1 1 1;0 0 0]")), "complement mask")
    _expect(bottom.dim + top.dim, 9, "dimensions add up")


@_case("direct-sum-classification")
def _direct_sum_classification():
    parts = [
        st.MaskSubspace(support(parse_literal(text)), Q)
        for text in (
            "[1 1 0;0 0 0;0 0 1]",
            "[0 0 1;0 1 0;0 0 0]",
            "[0 0 0;1 0 1;0 1 0]",
            "[0 0 0;0 0 0;1 0 0]",
        )
    ]
    _expect(st.check_sum(parts).kind, st.DIRECT, "disjoint cover")


@_case("pseudo-direct-sum-classification")
def _pseudo_direct_classification():
    parts = [
        st.MaskSubspace(support(parse_literal(text)), Q)
        for text in (
            "[1;1;0;0;0;0;0;0;0;0;0;0]",
            "[0;1;1;1;0;0;0;0;0;0;0;0]",
            "[0;0;1;1;1;1;1;0;0;0;0;0]",
            "[0;0;0;0;0;0;0;1;1;1;1;1]",
        )
    ]
    report = st.check_sum(parts)
    _expect(report.kind, st.PSEUDO_DIRECT, "overlapping cover")
    if not report.overlaps:
        raise AssertionError("expected overlap witnesses")


@_case("cone-semifield-behaviour")
def _cone_semifield():
    report = st.cone_positivity_check(Shape(1, 4), Q_PLUS, samples=200, seed=0)
    _expect(report.positive_products_ok, True, "no zero divisors among positives")
    _expect(report.additive_strictness_ok, True, "strict addition")
    a, b = st.cone_zero_divisor_pair(Shape(1, 3), Z_PLUS)
    _expect(a, parse_literal("[3 0 4]", Z_PLUS), "canonical a")
    _expect(b, parse_literal("[0 7 0]", Z_PLUS), "canonical b")
    _expect((a * b).is_zero(), True, "pair annihilates")


def run_paper_examples():
    """Replay every fixed worked computation; exact equality throughout."""
    results = []
    for name, fn in _CASES:
        try:
            fn()
            results.append(CaseResult(name, True))
        except AssertionError as exc:
            results.append(CaseResult(name, False, str(exc)))
        except NatProdError as exc:
            results.append(CaseResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results


# ---------------------------------------------------------------------------
# seeded samplers
# ---------------------------------------------------------------------------


def rand_fraction(rng: random.Random, lo=-9, hi=9, max_den=9) -> Fraction:
    return _draw(rng, Q, lo, hi, max_den)


def rand_matrix(rng: random.Random, shape, domain=Q, lo=-9, hi=9) -> Matrix:
    shape = Shape(*shape)
    values = [_draw(rng, domain, lo, hi) for _ in range(shape.size)]
    return Matrix._make(shape, domain, tuple(values))


def rand_shape(rng: random.Random, max_rows=5, max_cols=5) -> Shape:
    return Shape(rng.randint(1, max_rows), rng.randint(1, max_cols))


def rand_poly(rng: random.Random, shape, domain=Q, max_degree=4, lo=-9, hi=9) -> mp.MatPoly:
    terms = {}
    for deg in range(max_degree + 1):
        if rng.random() < 0.6:
            terms[deg] = rand_matrix(rng, shape, domain, lo, hi)
    if not terms:
        terms[0] = rand_matrix(rng, shape, domain, lo, hi)
    return mp.MatPoly(Shape(*shape), domain, terms)


def rand_partition(rng: random.Random, shape) -> PartitionType:
    shape = Shape(*shape)
    row_cuts = [c for c in range(1, shape.rows) if rng.random() < 0.4]
    col_cuts = [c for c in range(1, shape.cols) if rng.random() < 0.4]
    return PartitionType(shape, row_cuts, col_cuts)


# ---------------------------------------------------------------------------
# sampled law suite
# ---------------------------------------------------------------------------


def _law_case(results, name, count, law, *fixed):
    """Append case `name`: `law()` run `count` times, then each of `fixed`
    once; every call returns the witnesses of the laws it broke."""
    failures = 0
    witness = None
    for check in chain(repeat(law, count), fixed):
        broken = check()
        failures += len(broken)
        if broken and witness is None:
            witness = broken[0]
    detail = f"{count + len(fixed)} samples"
    if failures:
        detail += f", {failures} failures; first: {witness}"
    results.append(CaseResult(name, not failures, detail))


def _ring_laws(rng):
    shape = rand_shape(rng)
    a = rand_matrix(rng, shape)
    b = rand_matrix(rng, shape)
    c = rand_matrix(rng, shape)
    j = ones(shape, Q)
    ok = (
        a * b == b * a
        and (a * b) * c == a * (b * c)
        and a * (b + c) == a * b + a * c
        and a * j == a
    )
    return [] if ok else [(a, b, c)]


def _poly_ring_laws(rng):
    shape = rand_shape(rng, 3, 3)
    p = rand_poly(rng, shape)
    q = rand_poly(rng, shape)
    r = rand_poly(rng, shape)
    jconst = mp.MatPoly.constant(ones(shape, Q))
    ok = (
        p * q == q * p
        and (p * q) * r == p * (q * r)
        and p * (q + r) == p * q + p * r
        and p * jconst == p
        and (p + q) + r == p + (q + r)
    )
    return [] if ok else [(p, q)]


def _diagonal_laws(rng):
    n = rng.randint(1, 6)
    a = diagonal([rand_fraction(rng) for _ in range(n)], Q)
    b = diagonal([rand_fraction(rng) for _ in range(n)], Q)
    return [] if a @ b == a * b else [(a, b)]


def _worked_diagonal_laws():
    m = diagonal([7, 8, 2, 4], Q)
    n = diagonal([1, 2, 3, 4], Q)
    ok = m @ n == m * n == diagonal([7, 16, 6, 16], Q)
    return [] if ok else [(m, n)]


def _partition_laws(rng):
    shape = rand_shape(rng)
    pt = rand_partition(rng, shape)
    s = rand_matrix(rng, shape).with_partition(pt)
    t = rand_matrix(rng, shape).with_partition(pt)
    broken = []
    if (s * t).base != s.base * t.base or (s + t).base != s.base + t.base:
        broken.append((s, t))
    if (s * t).ptype != pt or (s + t).ptype != pt:
        broken.append((s, t))
    return broken


def _leibniz_rule(rng):
    shape = rand_shape(rng, 3, 3)
    p = rand_poly(rng, shape, max_degree=3)
    q = rand_poly(rng, shape, max_degree=3)
    dp, dq = mp.poly_derivative(p), mp.poly_derivative(q)
    return [] if mp.poly_derivative(p * q) == dp * q + p * dq else [(p, q)]


def _calculus_laws(rng):
    shape = rand_shape(rng, 3, 3)
    p = rand_poly(rng, shape)
    c = rand_matrix(rng, shape)
    broken = []
    if mp.poly_derivative(mp.poly_integrate(p, c)) != p:
        broken.append((p, c))
    p_int = rand_poly(rng, shape, domain=Z)
    d = mp.poly_derivative(p_int)
    if d.domain is not Z or any(
        not isinstance(v, int) for _, coeff in d.terms for v in coeff.values
    ):
        broken.append((p_int,))
    return broken


def run_laws(seed=0, samples=10000):
    """Seeded random algebraic-law checks; zero failures expected."""
    results = []
    rng = random.Random(seed)
    few = max(1, samples // 10)
    _law_case(results, "natural-product-ring-laws", samples, partial(_ring_laws, rng))
    _law_case(results, "polynomial-ring-laws", few, partial(_poly_ring_laws, rng))
    _law_case(
        results, "diagonal-products-coincide", few, partial(_diagonal_laws, rng),
        _worked_diagonal_laws,
    )
    _law_case(results, "partition-flattening-homomorphism", few, partial(_partition_laws, rng))
    _law_case(results, "derivative-leibniz-rule", few, partial(_leibniz_rule, rng))
    _law_case(results, "calculus-closure-and-round-trip", few, partial(_calculus_laws, rng))

    cone = st.cone_positivity_check(Shape(2, 3), Q_PLUS, samples=few, seed=seed)
    results.append(
        CaseResult(
            "cone-strict-semifield-sampling",
            cone.positive_products_ok and cone.additive_strictness_ok,
            f"{cone.samples} samples",
        )
    )
    return results


# ---------------------------------------------------------------------------
# counting censuses
# ---------------------------------------------------------------------------


def _shapes_up_to(max_size):
    for rows in range(1, max_size + 1):
        for cols in range(1, max_size + 1):
            if rows * cols <= max_size:
                yield Shape(rows, cols)


def _census_case(results, name, counts, summary, shown=None):
    """Append case `name`: `counts` yields (label, count, expected); the
    detail lists the first `shown` mismatches (all when None), or is
    `summary` when there are none."""
    detail = [f"{label}: {n} != {expected}" for label, n, expected in counts if n != expected]
    results.append(CaseResult(name, not detail, "; ".join(detail[:shown]) or summary))


def _mask_idempotent_counts():
    for shape in _shapes_up_to(12):
        count = len(st.idempotents_in(st.Carrier.masks(shape)))
        yield shape, count, trivial_idempotent_count(shape)


def _modular_idempotent_counts():
    for shape in _shapes_up_to(4):
        count = len(st.idempotents_in(st.Carrier.all_matrices(shape, Mod(6))))
        yield shape, count, 4**shape.size


def _ideal_orders():
    for rows in (1, 2):
        for cols in (1, 2, 3, 4):
            carrier = st.Carrier.masks((rows, cols))
            for mask_bits, x in enumerate(carrier.elements()):
                order = st.ideal_generated(carrier, x).cardinality
                yield f"{x.shape} mask {mask_bits}", order, 1 << x.values.count(1)


def run_census():
    """Brute-force counting identities for idempotents and generated ideals."""
    results = []
    _census_case(
        results, "mask-idempotent-census", _mask_idempotent_counts(),
        "all shapes with <= 12 cells",
    )
    _census_case(
        results, "modular-idempotent-census", _modular_idempotent_counts(),
        "Z6 shapes with <= 4 cells",
    )
    _census_case(
        results, "ideal-order-law", _ideal_orders(), "shapes up to 2x4, exhaustive", shown=3
    )
    return results


SUITES = {
    "paper-examples": run_paper_examples,
    "laws": run_laws,
    "census": run_census,
}

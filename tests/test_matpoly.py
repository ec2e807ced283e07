import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import row, sq
from natprod import (
    MatPoly,
    Mod,
    Matrix,
    NoRationalRoot,
    NotClosed,
    NotMonicizable,
    NotSquare,
    ParseError,
    Q,
    Shape,
    ShapeMismatch,
    SuperMatrix,
    TypeMismatch,
    UnsupportedDomain,
    Z,
    ZeroLead,
    identity,
    monicize_natural,
    monicize_usual,
    ones,
    parse_literal,
    parse_poly,
    poly_derivative,
    poly_evaluate_natural,
    poly_from_json,
    poly_integrate,
    poly_to_json,
    render_poly,
    solve_binomial,
    solve_quadratic,
)
from natprod.verify import rand_matrix, rand_poly, rand_shape


def _poly(*terms, domain=Q):
    return MatPoly.from_terms([(d, row(v, domain)) for d, v in terms])


def test_add_identities():
    p = _poly((0, [1, 2]), (3, [4, 5]))
    zero = MatPoly.zero(Shape(1, 2), Q)
    assert p + zero == p
    assert p + (-p) == zero


def test_zero_coefficients_dropped():
    p = _poly((0, [1, 1]), (2, [1, -1]))
    q = _poly((0, [0, 0]), (2, [-1, 1]))
    assert (p + q).terms == ((0, row([1, 1])),)


def test_mixed_shape_and_type_errors():
    p = _poly((0, [1, 2]))
    with pytest.raises(ShapeMismatch):
        p + MatPoly.constant(row([1, 2, 3]))
    partitioned = MatPoly.from_terms(
        [(0, SuperMatrix.from_rows([[1, 2]], Q, col_cuts=(1,)))]
    )
    with pytest.raises(TypeMismatch):
        p + partitioned
    with pytest.raises(TypeMismatch):
        p * partitioned


def test_nproduct_constant_identity():
    p = _poly((0, [1, 2]), (4, [3, -5]))
    j = MatPoly.constant(ones(Shape(1, 2), Q))
    assert p * j == p


def test_uproduct_constant_identity_and_contract():
    p = MatPoly.from_terms([(0, sq([[1, 2], [3, 4]])), (2, sq([[0, 1], [1, 0]]))])
    i = MatPoly.constant(identity(2, Q))
    assert p @ i == p
    with pytest.raises(NotSquare):
        _poly((0, [1, 2])) @ _poly((0, [1, 2]))
    partitioned = MatPoly.from_terms(
        [(0, SuperMatrix.from_rows([[1, 2], [3, 4]], Q, col_cuts=(1,)))]
    )
    with pytest.raises(TypeMismatch):
        partitioned @ partitioned


def test_derivative_of_constant():
    p = MatPoly.constant(sq([[1, 2], [3, 4]]))
    assert poly_derivative(p).is_zero()


def test_derivative_int_closure(rng):
    for _ in range(200):
        p = rand_poly(rng, rand_shape(rng, 3, 3), domain=Z)
        d = poly_derivative(p)
        assert d.domain == Z
        assert all(isinstance(v, int) for _, c in d.terms for v in c.values)


def test_integrate_zero_gives_constant():
    c = sq([[1, 2], [3, 4]])
    zero = MatPoly.zero(Shape(2, 2), Q)
    assert poly_integrate(zero, c) == MatPoly.constant(c)


def test_integrate_modular():
    # division by deg+1 demands a unit mod n
    p = MatPoly.from_terms([(1, Matrix.from_rows([[1, 2]], Mod(4)))])
    with pytest.raises(NotClosed):
        poly_integrate(p)
    q = MatPoly.from_terms([(1, Matrix.from_rows([[1, 2]], Mod(3)))])
    integral = poly_integrate(q)
    assert poly_derivative(integral) == q


def test_integrate_int_exact_divisions_are_closed():
    p = MatPoly.from_terms([(1, row([2, 4], Z)), (3, row([4, 8], Z))])
    integral = poly_integrate(p)
    assert integral == MatPoly.from_terms([(2, row([1, 2], Z)), (4, row([1, 2], Z))])


def test_fundamental_round_trip(rng):
    for _ in range(200):
        shape = rand_shape(rng, 3, 3)
        p = rand_poly(rng, shape)
        c = rand_matrix(rng, shape)
        assert poly_derivative(poly_integrate(p, c)) == p


def test_leibniz_rule(rng):
    for _ in range(200):
        shape = rand_shape(rng, 3, 3)
        p = rand_poly(rng, shape, max_degree=3)
        q = rand_poly(rng, shape, max_degree=3)
        assert poly_derivative(p * q) == poly_derivative(p) * q + p * poly_derivative(q)


def test_degree_law_both_directions():
    p = _poly((1, [1, 0]), (0, [0, 1]))
    q = _poly((1, [2, 3]))
    assert (p * q).degree() == p.degree() + q.degree()
    # leads with disjoint supports drop the top degree
    r = _poly((1, [0, 1]), (0, [1, 0]))
    assert (p * r).degree() == 1 < 2


def test_degree_of_zero_poly():
    assert MatPoly.zero(Shape(2, 2), Q).degree() is None


def test_monicize_already_monic():
    p = _poly((2, [1, 1]), (0, [5, -7]))
    assert monicize_natural(p) == p
    q = MatPoly.from_terms([(3, identity(2, Q)), (0, sq([[1, 2], [3, 4]]))])
    assert monicize_usual(q) == q


def test_monicize_int_sign_leads():
    p = MatPoly.from_terms([(2, row([-1, 1], Z)), (0, row([3, 4], Z))])
    assert monicize_natural(p).lead() == ones(Shape(1, 2), Z)
    bad = MatPoly.from_terms([(2, row([2, 1], Z))])
    with pytest.raises(NotMonicizable):
        monicize_natural(bad)


def test_solve_binomial_contracts():
    with pytest.raises(ZeroLead):
        solve_binomial(row([1, 0]), row([1, 1]), 2)
    with pytest.raises(UnsupportedDomain):
        solve_binomial(
            Matrix.from_rows([[1, 1]], Mod(5)), Matrix.from_rows([[1, 1]], Mod(5)), 2
        )
    # integer equation whose root is not integral
    roots = solve_binomial(row([4], Z), row([9], Z), 2)
    assert not roots and "NoRationalRoot" in roots.reason
    # same equation over Q has the aligned pair
    roots = solve_binomial(row([4]), row([9]), 2)
    assert set(roots) == {row([Fraction(3, 2)]), row([Fraction(-3, 2)])}


def test_solve_binomial_roots_satisfy_equation(rng):
    for _ in range(100):
        k = rng.randint(1, 4)
        shape = rand_shape(rng, 1, 4)
        r = Matrix(
            shape, Q, [Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(shape.size)]
        )
        a = Matrix(
            shape, Q, [Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(shape.size)]
        )
        c = a * r.npow(k)
        roots = solve_binomial(a, c, k)
        assert roots
        p = MatPoly.from_terms([(k, a), (0, -c)])
        for root in roots:
            assert poly_evaluate_natural(p, root).is_zero()
        assert any(root == r for root in roots)


def test_solve_quadratic_contracts():
    with pytest.raises(ZeroLead):
        solve_quadratic(row([0, 1]), row([1, 1]), row([1, 1]))
    with pytest.raises(UnsupportedDomain):
        solve_quadratic(row([1], Z), row([2], Z), row([1], Z))
    with pytest.raises(NoRationalRoot) as info:
        solve_quadratic(row([1, 1]), row([1, 2]), row([1, 1]))
    assert info.value.component == 0
    # discriminant positive but irrational
    with pytest.raises(NoRationalRoot):
        solve_quadratic(row([1]), row([3]), row([1]))


def test_solve_quadratic_roots_satisfy_equation(rng):
    for _ in range(100):
        shape = rand_shape(rng, 1, 3)
        r1 = rand_matrix(rng, shape, lo=-4, hi=4)
        r2 = rand_matrix(rng, shape, lo=-4, hi=4)
        # (x - r1)(x - r2) componentwise
        a = ones(shape, Q)
        b = -(r1 + r2)
        c = r1 * r2
        roots = solve_quadratic(a, b, c)
        assert roots
        p = MatPoly.from_terms([(2, a), (1, b), (0, c)])
        for root in roots:
            assert poly_evaluate_natural(p, root).is_zero()


def test_evaluate_trivials(rng):
    shape = Shape(2, 2)
    p = MatPoly.from_terms([(0, sq([[1, 2], [3, 4]])), (2, sq([[5, 6], [7, 8]]))])
    total = sq([[1, 2], [3, 4]]) + sq([[5, 6], [7, 8]])
    assert poly_evaluate_natural(p, ones(shape, Q)) == total
    zero = MatPoly.zero(shape, Q)
    assert poly_evaluate_natural(zero, rand_matrix(rng, shape)).is_zero()


def test_evaluate_partitioned_polynomial():
    p = parse_poly("[1 2 | 3] + [1 1 | 1] * x")
    value = parse_literal("[3 4 | 5]")  # == compares the cuts too
    assert poly_evaluate_natural(p, parse_literal("[2 2 | 2]")) == value
    assert poly_evaluate_natural(p, parse_literal("[2 2 2]")) == value
    with pytest.raises(TypeMismatch):
        poly_evaluate_natural(p, parse_literal("[2 | 2 2]"))
    plain = parse_poly("[1 2 3] + [1 1 1] * x")
    assert poly_evaluate_natural(plain, parse_literal("[2 2 2]")) == value.base
    with pytest.raises(TypeMismatch):
        poly_evaluate_natural(plain, parse_literal("[2 2 | 2]"))


def test_constant_units_and_idempotents_spot():
    j = MatPoly.constant(ones(Shape(1, 3), Z))
    signs = MatPoly.constant(row([1, -1, 1], Z))
    assert signs * signs == j
    mask = MatPoly.constant(row([1, 0, 1], Z))
    assert mask * mask == mask
    lifted = _poly((0, [1, 1, 1]), (1, [1, 1, 1]))
    assert lifted * lifted != lifted
    assert lifted * lifted != MatPoly.constant(ones(Shape(1, 3), Q))


def test_render_parse_round_trip():
    p = _poly((0, [8, 9, 0, 2]), (1, [7, 0, 1, 5]), (5, [5, 7, 8, -4]))
    text = render_poly(p)
    assert text == "[8 9 0 2] + [7 0 1 5] * x + [5 7 8 -4] * x^5"
    assert parse_poly(text, Q) == p


def test_render_parse_partitioned():
    coeff = SuperMatrix.from_rows([[1, 2], [3, 4]], Q, row_cuts=(1,))
    p = MatPoly.from_terms([(0, coeff), (2, coeff)])
    text = render_poly(p)
    assert parse_poly(text, Q) == p


def test_cut_free_partition_is_no_partition():
    plain = SuperMatrix.from_rows([[1, 2]], Q)
    p = MatPoly.from_terms([(0, plain)])
    assert p.ptype is None
    assert p == MatPoly.constant(row([1, 2]))


def test_parse_poly_errors():
    with pytest.raises(ParseError):
        parse_poly("x^2 + [1]", Q)
    with pytest.raises(ParseError):
        parse_poly("[1 2] * y", Q)


def test_json_round_trip():
    p = _poly((0, [1, 2]), (3, [0, Fraction(5, 3)]))
    obj = poly_to_json(p)
    assert [t["deg"] for t in obj["terms"]] == [0, 3]
    assert poly_from_json(obj) == p
    coeff = SuperMatrix.from_rows([[1, 2], [3, 4]], Q, col_cuts=(1,))
    partitioned = MatPoly.from_terms([(1, coeff)])
    assert poly_from_json(poly_to_json(partitioned)) == partitioned


def test_json_repeated_degrees_add_up_like_text():
    text = parse_poly("[1] * x + [2] * x", Q)
    coeff = {"domain": "Q", "rows": 1, "cols": 1}
    obj = {
        "shape": {"rows": 1, "cols": 1},
        "domain": "Q",
        "terms": [
            {"deg": 1, "coeff": dict(coeff, entries=[["1"]])},
            {"deg": 1, "coeff": dict(coeff, entries=[["2"]])},
        ],
    }
    assert poly_from_json(obj) == text == MatPoly.from_terms([(1, row([3]))])


@settings(max_examples=50)
@given(st.data())
def test_ring_laws_property(data):
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    shape = rand_shape(rng, 2, 2)
    p = rand_poly(rng, shape, max_degree=3, lo=-4, hi=4)
    q = rand_poly(rng, shape, max_degree=3, lo=-4, hi=4)
    r = rand_poly(rng, shape, max_degree=3, lo=-4, hi=4)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r

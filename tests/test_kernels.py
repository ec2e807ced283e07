"""The integer kernels of `@`, `usual_inverse` and the MatPoly convolutions
against the plain Fraction/int loops they replaced (kept here, test-only,
as `_ref_*`).  Results must agree exactly, value types included."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natprod import (
    MatPoly,
    Matrix,
    Mod,
    NotInvertible,
    Q,
    Q_PLUS,
    Shape,
    SingularLead,
    Z,
    Z_PLUS,
    identity,
    monicize_usual,
    parse_poly,
    zeros,
)
from natprod.matrix import _lift, usual_inverse

DOMAINS = [Z, Q, Z_PLUS, Q_PLUS, Mod(7), Mod(12)]
PRIMES = [10007, 1000003, 2**31 - 1, 2**61 - 1]
DENOMINATORS = [1, 2, 3, 7, *PRIMES]


# -- references ------------------------------------------------------------


def _ref_matmul(a, b):
    """The triple-loop usual product, one domain operation per term."""
    n, k, m = a.shape.rows, a.shape.cols, b.shape.cols
    modulus = a.domain.modulus if a.domain.is_modular else None
    out = []
    for i in range(n):
        for j in range(m):
            acc = sum(a.values[i * k + t] * b.values[t * m + j] for t in range(k))
            out.append(acc % modulus if modulus else acc)
    return Matrix(Shape(n, m), a.domain, out)


def _ref_usual_inverse(a):
    """Gauss-Jordan over Fractions, first nonzero pivot."""
    n = a.shape.rows
    one, zero = a.domain.one, a.domain.zero
    aug = [
        list(a.values[i * n : (i + 1) * n]) + [one if j == i else zero for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise NotInvertible("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        factor = aug[col][col]
        aug[col] = [v / factor for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return Matrix.from_rows([row[n:] for row in aug], a.domain)


def _ref_convolve(p, q, product):
    """One Matrix product per pair of coefficients, summed by degree."""
    terms = {}
    for i, a in p._terms.items():
        for j, b in q._terms.items():
            c = product(a, b)
            terms[i + j] = terms[i + j] + c if i + j in terms else c
    return MatPoly(p.shape, p.domain, terms, p.ptype)


def _ref_nmul(p, q):
    return _ref_convolve(p, q, lambda a, b: a * b)


def _ref_umul(p, q):
    return _ref_convolve(p, q, _ref_matmul)


def _ref_monicize_usual(p):
    try:
        t = _ref_usual_inverse(p.lead())
    except NotInvertible as exc:
        raise SingularLead(str(exc)) from exc
    return MatPoly(p.shape, p.domain, {d: _ref_matmul(t, c) for d, c in p._terms.items()})


# -- comparison --------------------------------------------------------------


def _types(m):
    return [type(v) for v in m.values]


def _assert_same(got, want):
    """Equal values of equal types (Fraction stays Fraction, int stays int)."""
    assert got == want
    if isinstance(want, Matrix):
        assert _types(got) == _types(want)
    else:
        for (dg, cg), (dw, cw) in zip(got.terms, want.terms):
            assert dg == dw and _types(cg) == _types(cw)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotInvertible, SingularLead) as exc:
        return (type(exc).__name__, str(exc))


def _assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_same(got, want)


# -- inputs --------------------------------------------------------------------


def _values(domain):
    if domain.is_modular:
        return st.integers(0, domain.modulus - 1)
    lo = 0 if domain.is_cone else -40
    if domain.is_rational:
        return st.builds(Fraction, st.integers(lo, 40), st.sampled_from(DENOMINATORS))
    return st.integers(lo, 40)


@st.composite
def matrices(draw, domain, rows, cols):
    if draw(st.integers(0, 9)) == 0:
        return zeros(Shape(rows, cols), domain)
    size = rows * cols
    values = draw(st.lists(st.one_of(st.just(0), _values(domain)), min_size=size, max_size=size))
    return Matrix(Shape(rows, cols), domain, values)


@st.composite
def polys(draw, domain, rows, cols):
    if draw(st.integers(0, 9)) == 0:
        return MatPoly.zero(Shape(rows, cols), domain)
    degrees = draw(st.lists(st.integers(0, 5), max_size=4, unique=True))
    return MatPoly(
        Shape(rows, cols), domain, {d: draw(matrices(domain, rows, cols)) for d in degrees}
    )


def _mat(rows, domain=Q):
    return Matrix.from_rows(rows, domain)


# -- usual product ---------------------------------------------------------------


@settings(max_examples=300)
@given(st.data())
def test_matmul_matches_reference(data):
    domain = data.draw(st.sampled_from(DOMAINS))
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = data.draw(matrices(domain, n, k))
    b = data.draw(matrices(domain, k, m))
    _assert_same(a @ b, _ref_matmul(a, b))


@pytest.mark.parametrize("domain", DOMAINS + [Mod(2), Mod(97)], ids=lambda d: d.code)
@pytest.mark.parametrize("n,k,m", [(1, 4, 1), (4, 1, 4), (1, 1, 1), (1, 3, 5), (5, 3, 1)])
def test_matmul_rows_columns_and_zeros(domain, n, k, m):
    top = domain.modulus - 1 if domain.is_modular else 9
    a = Matrix(Shape(n, k), domain, [(3 * i + 1) % (top + 1) for i in range(n * k)])
    b = Matrix(Shape(k, m), domain, [(5 * i + 2) % (top + 1) for i in range(k * m)])
    _assert_same(a @ b, _ref_matmul(a, b))
    zero_a, zero_b = zeros(a.shape, domain), zeros(b.shape, domain)
    _assert_same(zero_a @ b, _ref_matmul(zero_a, b))
    _assert_same(a @ zero_b, _ref_matmul(a, zero_b))
    assert (zero_a @ b).is_zero()


def test_matmul_distinct_prime_denominators():
    a = _mat([[Fraction(1, p) for p in PRIMES[:3]], [Fraction(-2, PRIMES[3]), 1, Fraction(5, 3)]])
    b = _mat([[Fraction(p, 7)] for p in PRIMES[:3]])
    product = a @ b
    _assert_same(product, _ref_matmul(a, b))
    assert product.values[0] == Fraction(3, 7)


def test_lift_clears_each_line_on_its_own():
    lines = [[Fraction(1, 2), Fraction(3, 4)], [Fraction(5, PRIMES[2]), 7], [1, -2]]
    assert _lift(lines) == ([[2, 3], [5, 7 * PRIMES[2]], [1, -2]], [4, PRIMES[2], 1])


def _prime_per_line(n, shift):
    """Invertible n x n over Q, Vandermonde numerators; entry (i, j) has
    denominator PRIMES[i] times a small prime that depends on j."""
    small = [2, 3, 5, 7]
    return _mat(
        [
            [Fraction((i + 2 + shift) ** j, PRIMES[i] * small[(j + shift) % 4]) for j in range(n)]
            for i in range(n)
        ]
    )


def test_kernels_with_a_prime_per_row_and_column():
    a, b = _prime_per_line(4, 0), _prime_per_line(4, 1)
    _assert_same(a @ b, _ref_matmul(a, b))
    _assert_same(b @ a, _ref_matmul(b, a))
    _assert_same(usual_inverse(a), _ref_usual_inverse(a))
    p = MatPoly.from_terms([(0, a), (1, b)])
    q = MatPoly.from_terms([(0, b), (2, a)])
    _assert_same(p * q, _ref_nmul(p, q))
    _assert_same(p @ q, _ref_umul(p, q))
    _assert_same(q @ p, _ref_umul(q, p))


# -- usual inverse -----------------------------------------------------------------


@settings(max_examples=200)
@given(st.data())
def test_usual_inverse_matches_reference(data):
    n = data.draw(st.integers(1, 5))
    a = data.draw(matrices(Q, n, n))
    if n > 1 and data.draw(st.booleans()):
        # repeat a row: singular
        values = list(a.values)
        values[n : 2 * n] = values[:n]
        a = Matrix(a.shape, Q, values)
    _assert_same_outcome(_outcome(usual_inverse, a), _outcome(_ref_usual_inverse, a))


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1], [1, 0]],
        [[0, 0, 3], [0, 2, 0], [1, 0, 0]],
        [[0, Fraction(1, 3)], [Fraction(1, 10007), 5]],
        [[1, 2, 3], [2, 4, 7], [1, 1, 1]],  # zero pivot after the first step
        [
            [Fraction(1, p) for p in PRIMES],
            [1, 0, 0, 0],
            [0, Fraction(1, PRIMES[0]), 0, 0],
            [0, 0, 0, Fraction(7, PRIMES[2])],
        ],
    ],
    ids=["swap2", "swap3", "swap_primes", "late_swap", "prime_denominators"],
)
def test_usual_inverse_with_row_swaps(rows):
    a = _mat(rows)
    inverse = usual_inverse(a)
    _assert_same(inverse, _ref_usual_inverse(a))
    assert a @ inverse == identity(a.shape.rows, Q)


def test_usual_inverse_of_prime_diagonal():
    def diagonal(entries):
        return _mat([[entries[i] if i == j else 0 for j in range(4)] for i in range(4)])

    a = diagonal([Fraction(1, p) for p in PRIMES])
    _assert_same(usual_inverse(a), diagonal(PRIMES))


@pytest.mark.parametrize(
    "rows",
    [
        [[0]],
        [[0, 0], [0, 0]],
        [[1, 2], [2, 4]],
        [[0, 1], [0, 1]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    ],
)
def test_usual_inverse_singular(rows):
    with pytest.raises(NotInvertible, match="singular matrix"):
        usual_inverse(_mat(rows))
    with pytest.raises(NotInvertible, match="singular matrix"):
        _ref_usual_inverse(_mat(rows))


# -- MatPoly convolutions ---------------------------------------------------------


@settings(max_examples=150)
@given(st.data())
def test_natural_convolution_matches_reference(data):
    domain = data.draw(st.sampled_from(DOMAINS))
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    p, q = data.draw(polys(domain, rows, cols)), data.draw(polys(domain, rows, cols))
    _assert_same(p * q, _ref_nmul(p, q))


@settings(max_examples=150)
@given(st.data())
def test_usual_convolution_matches_reference(data):
    domain = data.draw(st.sampled_from(DOMAINS))
    n = data.draw(st.integers(1, 3))
    p, q = data.draw(polys(domain, n, n)), data.draw(polys(domain, n, n))
    _assert_same(p @ q, _ref_umul(p, q))


def test_natural_convolution_keeps_the_partition():
    p = parse_poly("[1 | 2/3] + [3 | 4] * x", Q)
    q = parse_poly("[5/10007 | 0] * x^2 + [1 | 1]", Q)
    _assert_same(p * q, _ref_nmul(p, q))
    assert (p * q).ptype == p.ptype


def test_convolutions_with_zero_polynomials():
    for domain in DOMAINS:
        zero = MatPoly.zero(Shape(2, 2), domain)
        p = MatPoly.constant(identity(2, domain))
        assert (zero * p).is_zero() and (p * zero).is_zero()
        assert (zero @ p).is_zero() and (p @ zero).is_zero()


@settings(max_examples=100)
@given(st.data())
def test_monicize_usual_matches_reference(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(polys(Q, n, n))
    if p.is_zero():
        return
    _assert_same_outcome(_outcome(monicize_usual, p), _outcome(_ref_monicize_usual, p))


def test_monicize_usual_needs_a_row_swap():
    lead = _mat([[0, Fraction(2, PRIMES[0])], [Fraction(3, PRIMES[1]), 1]])
    p = MatPoly.from_terms([(2, lead), (0, _mat([[1, 2], [3, 4]]))])
    monic = monicize_usual(p)
    _assert_same(monic, _ref_monicize_usual(p))
    assert monic.lead() == identity(2, Q)

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import col, row, sq
from natprod import (
    DomainMismatch,
    Matrix,
    Mod,
    NotInvertible,
    ParseError,
    Q,
    Shape,
    ShapeMismatch,
    SupportMask,
    TooLarge,
    Z,
    Z_PLUS,
    ZeroDivisorEntry,
    diagonal,
    divides,
    identity,
    is_idempotent,
    is_orthogonal,
    is_prime_row,
    main_complement,
    matrix_from_json,
    matrix_to_json,
    natural_inverse,
    ones,
    parse_matrix,
    render_matrix,
    support,
    trivial_idempotent_count,
    trivial_idempotents,
    zero_divisor_witness,
    zeros,
)
from natprod.matrix import DEFAULT_MAX_ELEMENTS
from natprod.verify import rand_matrix, rand_shape


def test_add_identity_and_inverse():
    a = sq([[1, -2], [3, 4]], Z)
    assert a + zeros(a.shape, Z) == a
    assert a + (-a) == zeros(a.shape, Z)


def test_add_contract_errors():
    with pytest.raises(ShapeMismatch):
        row([1, 2]) + row([1, 2, 3])
    with pytest.raises(DomainMismatch):
        row([1, 2]) + row([1, 2], Z)


def test_getitem_bounds_each_axis_on_its_own():
    a = sq([[1, 2, 3], [4, 5, 6]], Z)
    assert [a[i, j].value for i in range(2) for j in range(3)] == [1, 2, 3, 4, 5, 6]
    assert a[0, -1].value == 3  # row 0's last entry, not the matrix's
    assert a[-1, 0].value == 4
    assert a[-2, -3].value == 1
    for key in [(0, 3), (2, 0), (0, -4), (-3, 0), (1, 3)]:
        with pytest.raises(IndexError):
            a[key]


def test_nproduct_ones_identity():
    a = sq([[5, -1, 2], [0, 7, 3]], Q)
    assert a * ones(a.shape, Q) == a
    assert ones(a.shape, Q) * a == a


def test_uproduct_identity_and_shapes():
    a = sq([[1, 2, 3], [4, 5, 6]], Q)
    assert identity(2, Q) @ a == a
    with pytest.raises(ShapeMismatch):
        a @ a


def test_natural_inverse_trivial():
    j = ones(Shape(2, 2), Q)
    assert natural_inverse(j) == j
    with pytest.raises(NotInvertible):
        natural_inverse(sq([[1, 0], [1, 1]], Q))
    with pytest.raises(NotInvertible):
        natural_inverse(sq([[2, 1], [1, 1]], Z))
    assert natural_inverse(sq([[-1, 1], [1, -1]], Z)) == sq([[-1, 1], [1, -1]], Z)


def test_is_idempotent_examples():
    assert is_idempotent(zeros(Shape(3, 2), Q))
    # oracle: brute-force squaring
    assert (4 * 4) % 6 == 4
    assert is_idempotent(Matrix.from_rows([[4]], Mod(6)))
    assert not is_idempotent(sq([[2]], Q))


def test_trivial_idempotents_small():
    masks = trivial_idempotents(Shape(1, 1))
    assert [m.bits for m in masks] == [(0,), (1,)]
    assert trivial_idempotent_count(Shape(1, 1)) == 2
    with pytest.raises(TooLarge):
        trivial_idempotents(Shape(5, 5))
    assert trivial_idempotent_count(Shape(5, 5)) == 2**25
    # the enumeration bound: 2^12 masks are built, 2^13 are refused
    assert len(trivial_idempotents(Shape(3, 4))) == DEFAULT_MAX_ELEMENTS == 4096
    with pytest.raises(TooLarge, match="bound is 4096"):
        trivial_idempotents(Shape(1, 13))


def test_trivial_idempotents_lexicographic():
    masks = trivial_idempotents(Shape(1, 2))
    assert [m.bits for m in masks] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_support_and_complement():
    a = sq([[3, 0], [0, Fraction(1, 2)]], Q)
    assert support(a).bits == (1, 0, 0, 1)
    assert main_complement(a).bits == (0, 1, 1, 0)
    full = ones(Shape(2, 2), Q)
    assert main_complement(full).is_zero()


def test_orthogonality_with_zero():
    a = sq([[1, 2], [3, 4]], Q)
    assert is_orthogonal(a, zeros(a.shape, Q))


def test_divides_examples():
    j = ones(Shape(1, 4), Z)
    b = row([10, -14, 8, 9], Z)
    assert divides(j, b) == b
    assert divides(row([5, 7, 2, 8], Z), row([10, 14, 8, 8], Z)) == row([2, 2, 4, 1], Z)
    assert divides(row([2, 3], Z), row([3, 3], Z)) is None
    assert divides(row([-2, 3], Z), row([4, -3], Z)) == row([-2, -1], Z)
    with pytest.raises(ZeroDivisorEntry):
        divides(row([0, 1], Z), row([1, 1], Z))
    with pytest.raises(DomainMismatch):
        divides(row([1, 1]), row([1, 1]))


def test_is_prime_row_examples():
    assert not is_prime_row(row([4, 5], Z))
    assert not is_prime_row(col([2, 3], Z))  # not a row
    assert not is_prime_row(row([2, 3]))  # wrong domain
    assert not is_prime_row(row([2, 0], Z))
    assert is_prime_row(row([2], Z))


def test_zero_divisor_witness():
    assert zero_divisor_witness(ones(Shape(2, 2), Q)) is None
    z = zeros(Shape(2, 3), Q)
    assert zero_divisor_witness(z) == ones(Shape(2, 3), Q)
    a = sq([[3, 0], [0, 4]], Q)
    w = zero_divisor_witness(a)
    assert (a * w).is_zero()
    assert not w.is_zero()


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=12))
def test_zero_divisor_witness_iff_zero_entry(values):
    a = row(values, Z)
    witness = zero_divisor_witness(a)
    assert (witness is not None) == (0 in values)


def test_sampled_ring_laws(rng):
    for _ in range(300):
        shape = rand_shape(rng)
        a, b, c = (rand_matrix(rng, shape) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * ones(shape, Q) == a


def test_diagonal_equivalence_sampled(rng):
    for _ in range(100):
        n = rng.randint(1, 6)
        a = diagonal([rng.randint(-9, 9) for _ in range(n)], Q)
        b = diagonal([rng.randint(-9, 9) for _ in range(n)], Q)
        assert a @ b == a * b


def test_products_distinct_witness():
    a = sq([[6, 1, 2], [0, 3, 4], [2, 1, 0]], Q)
    b = sq([[3, 0, 1], [2, 1, 0], [0, 1, 2]], Q)
    assert a @ b != a * b


def test_integer_inverse_characterization_small():
    for shape in (Shape(1, 1), Shape(1, 2), Shape(2, 1), Shape(2, 2)):
        for values in itertools.product(range(-2, 3), repeat=shape.size):
            m = Matrix(shape, Z, values)
            try:
                inv = natural_inverse(m)
                exists = True
            except NotInvertible:
                exists = False
            assert exists == all(v in (1, -1) for v in values)
            if exists:
                assert m * inv == ones(shape, Z)


def test_idempotent_characterization_small():
    # over Z / Q / cones: exactly the {0,1} matrices
    for domain in (Z, Q, Z_PLUS):
        for values in itertools.product(range(0, 3), repeat=4):
            m = Matrix(Shape(2, 2), domain, values)
            assert is_idempotent(m) == all(v in (0, 1) for v in values)
    # over Z_n: exactly the entrywise idempotents
    for n in (4, 6, 12):
        per_entry = {x for x in range(n) if (x * x) % n == x}
        for values in itertools.product(range(n), repeat=2):
            m = Matrix(Shape(1, 2), Mod(n), values)
            assert is_idempotent(m) == all(v in per_entry for v in values)


def test_npow():
    a = sq([[2, -1], [0, 3]], Q)
    assert a.npow(0) == ones(a.shape, Q)
    assert a.npow(1) == a
    assert a.npow(3) == a * a * a


def test_parse_render_round_trip():
    text = "[3 0;1 2/5]"
    m = parse_matrix(text, Q)
    assert render_matrix(m) == text
    assert parse_matrix(render_matrix(m), Q) == m
    assert m[1, 1].value == Fraction(2, 5)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_matrix("3 0; 1 2", Q)
    with pytest.raises(ParseError):
        parse_matrix("[1 2; 3]", Q)
    with pytest.raises(ParseError):
        parse_matrix("[1 a]", Q)
    with pytest.raises(ParseError):
        parse_matrix("[1 | 2]", Q)


def test_json_round_trip():
    m = sq([[3, 0], [1, Fraction(2, 5)]], Q)
    obj = matrix_to_json(m)
    assert obj == {
        "domain": "Q",
        "rows": 2,
        "cols": 2,
        "entries": [["3", "0"], ["1", "2/5"]],
    }
    assert matrix_from_json(obj) == m
    modular = Matrix.from_rows([[5, 11]], Mod(12))
    assert matrix_from_json(matrix_to_json(modular)) == modular
    # a dict built in Python may give its rows as tuples; a string is never an array
    rows = {"domain": "Q", "rows": 2, "cols": 2, "entries": (("3", "0"), ("1", "2/5"))}
    assert matrix_from_json(rows) == m
    for entries in ("3012/5", ("30", "12/5"), {"0": ["3", "0"]}, None):
        with pytest.raises(ParseError, match="must be a JSON array"):
            matrix_from_json({**rows, "entries": entries})


def test_mask_operations():
    m = SupportMask(Shape(2, 2), [1, 0, 1, 1])
    assert m.popcount == 3
    assert m.complement().bits == (0, 1, 0, 0)
    assert m.to_int() == 0b1011
    assert SupportMask.from_int(Shape(2, 2), 0b1011) == m
    assert m.positions() == [(0, 0), (1, 0), (1, 1)]
    sub = SupportMask(Shape(2, 2), [1, 0, 0, 1])
    assert sub <= m
    assert not (m <= sub)


def test_matrix_entries_accessors():
    m = sq([[1, 2], [3, 4]], Z)
    assert m[0, 1].value == 2
    assert [s.value for s in m.entries] == [1, 2, 3, 4]
    assert m.rows() == [[1, 2], [3, 4]]

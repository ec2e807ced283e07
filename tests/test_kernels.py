"""The integer kernels of `@` (plain and packed), `usual_inverse` and the
MatPoly convolutions, the Q/Q+ entrywise kernels of `+`, `-`, `*` and
`scale`, the per-entry paths of parse, JSON, render and
`natural_inverse`, and the bulk entry parse of whole literals, JSON
matrices and polynomials, against the plain Fraction/int code they
replaced (kept here, test-only, as `_ref_*`).
Results must agree exactly, value types included; so must the type and
message of every exception, and the line and column of a parse error."""

import operator
import random
import re
import sys
import unicodedata
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import natprod.matpoly
from natprod import (
    ConeViolation,
    Domain,
    MatPoly,
    Matrix,
    Mod,
    NotAUnit,
    NotInvertible,
    ParseError,
    PartitionType,
    Q,
    Q_PLUS,
    RaggedCuts,
    Shape,
    SingularLead,
    TooLarge,
    Z,
    Z_PLUS,
    identity,
    matrix_from_json,
    matrix_to_json,
    monicize_usual,
    natural_inverse,
    parse_literal,
    parse_poly,
    poly_from_json,
    render_matrix,
    zeros,
)
from natprod.errors import shorten
from natprod.scalars import domain_from_code
from natprod.matrix import (
    _PACK_MIN,
    _field_size,
    _from_rows,
    _lift,
    _location,
    _lower,
    _pack,
    _unpack,
    usual_inverse,
)
from natprod.scalars import _parse_int, _past_digit_limit

DOMAINS = [Z, Q, Z_PLUS, Q_PLUS, Mod(7), Mod(12)]
PRIMES = [10007, 1000003, 2**31 - 1, 2**61 - 1]
DENOMINATORS = [1, 2, 3, 7, *PRIMES]
RATIONAL = [Q, Q_PLUS]
BOUND = 10**7
# pairwise coprime, the largest the greatest prime below BOUND
COPRIME = [2, 3, 7, 10007, 1000003, 9999991]


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


def _ref_parse(domain, text):
    """Domain.parse as a round trip: strip, match, split, Fraction, coerce."""
    if not isinstance(text, str):  # a JSON number, array, object, boolean or null
        raise ParseError(f"a scalar literal must be a string, got {shorten(repr(text))}")
    text = text.strip()
    if not re.match(r"^[+-]?\d+(/\d+)?$", text):
        raise ParseError(f"bad scalar literal {shorten(text)!r}")
    if "/" in text:
        num, den = map(_parse_int, text.split("/"))
        if den == 0:
            raise ParseError(f"zero denominator in {shorten(text)!r}")
        value = Fraction(num, den)
        if value.denominator != 1 and not domain.is_rational:
            raise ParseError(f"{shorten(text)} is not an integer in {domain.code}")
    else:
        value = _parse_int(text)
    return domain.coerce(value)


def _ref_render(a):
    """The canonical literal, one Domain.render-style call per entry."""

    def render(v):
        try:
            if isinstance(v, Fraction) and v.denominator != 1:
                return f"{v.numerator}/{v.denominator}"
            return str(int(v))
        except ValueError:
            raise TooLarge(_past_digit_limit("an integer to print")) from None

    c = a.shape.cols
    row_cuts, col_cuts = a.ptype.row_cuts, a.ptype.col_cuts
    rows = []
    for i in range(a.shape.rows):
        if i in row_cuts:
            rows.append("--")
        cells = [render(v) for v in a.values[i * c : (i + 1) * c]]
        for j in reversed(col_cuts):
            cells.insert(j, "|")
        rows.append(" ".join(cells))
    return "[" + ";".join(rows) + "]"


def _ref_natural_inverse(a):
    """Entrywise inverse: a unit test, then Fraction(1) / v on Q and Q+."""
    domain, values = a.domain, []
    for v in a.values:
        if not domain.is_unit(v):
            raise NotInvertible(f"{v} is not a unit in {domain.code}")
        if domain.is_modular:
            values.append(pow(v, -1, domain.modulus))
        elif domain.is_rational:
            values.append(Fraction(1) / v)
        else:
            values.append(v)
    return Matrix(a.shape, domain, values).with_partition(a.partition)


def _ref_entrywise(op, a, b):
    """`op` (+, - or *) on each pair of entries, one Fraction operation
    each; in a cone the first difference below 0 raises."""
    domain, values = a.domain, []
    for x, y in zip(a.values, b.values):
        v = op(x, y)
        if domain.is_cone and v < 0:
            raise ConeViolation(f"{x} - {y} leaves the cone {domain.code}")
        values.append(v)
    return Matrix(a.shape, domain, values).with_partition(a.partition)


def _ref_scale(a, c):
    """c * v for every entry v, one Fraction product each."""
    c = a.domain.coerce(c)
    return Matrix(a.shape, a.domain, [c * v for v in a.values]).with_partition(a.partition)


def _ref_matrix_from_json(obj):
    """The matrix of a JSON object, one `_ref_parse` per entry."""
    domain = domain_from_code(obj["domain"])
    rows = [[_ref_parse(domain, v) for v in row] for row in obj["entries"]]
    return Matrix.from_rows(rows, domain, obj.get("row_cuts", ()), obj.get("col_cuts", ()))


def _ref_parse_span(text, start, end, domain):
    """The literal text[start:end] read a row at a time, one `Domain.parse`
    per token as each is met."""
    stripped = text[start:end].strip()
    if not stripped:
        raise ParseError("empty literal")
    start = text.index(stripped[0], start)
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise ParseError("matrix literal must be bracketed", *_location(text, start))

    raw_rows = []
    pos = start + 1
    for chunk in stripped[1:-1].split(";"):
        raw_rows.append((chunk, pos))
        pos += len(chunk) + 1

    rows = []
    cut_layouts = []
    row_cuts = []
    pending_cut = False
    for chunk, pos in raw_rows:
        tokens = chunk.replace("|", " | ").split()
        if tokens == ["--"]:
            if not rows or pending_cut:
                raise RaggedCuts("misplaced -- row cut", *_location(text, pos))
            pending_cut = True
            continue
        entries = []
        cuts_here = []
        for tok in tokens:
            if tok == "|":
                if not entries:
                    raise RaggedCuts("column cut before any entry", *_location(text, pos))
                cuts_here.append(len(entries))
            elif tok == "--":
                raise RaggedCuts("-- must stand alone as a pseudo-row", *_location(text, pos))
            else:
                try:
                    entries.append(domain.parse(tok))
                except ParseError as exc:
                    # the same tokens as `tokens`, with where each starts
                    starts = [t.start() for t in re.finditer(r"\||[^\s|]+", chunk)]
                    at = pos + starts[len(entries) + len(cuts_here)]
                    raise ParseError(f"bad entry: {exc.reason}", *_location(text, at)) from None
        if not entries:
            raise ParseError("empty row", *_location(text, pos))
        if pending_cut:
            row_cuts.append(len(rows))
            pending_cut = False
        rows.append(entries)
        cut_layouts.append(cuts_here)

    if pending_cut:
        raise RaggedCuts("trailing -- row cut", *_location(text, start))
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("ragged rows", *_location(text, start))
    if any(layout != cut_layouts[0] for layout in cut_layouts):
        raise RaggedCuts("column cuts differ between rows", *_location(text, start))
    if any(c >= len(rows[0]) for c in cut_layouts[0]):
        raise RaggedCuts("column cut after the last entry", *_location(text, start))
    return _from_rows(rows, domain, row_cuts, cut_layouts[0])


def _ref_parse_literal(text, domain):
    return _ref_parse_span(text, 0, len(text), domain)


def _ref_parse_poly(text, domain):
    """parse_poly with each coefficient read by `_ref_parse_span`."""
    with mock.patch.object(natprod.matpoly, "_parse_span", _ref_parse_span):
        return parse_poly(text, domain)


def _ref_poly_from_json(obj):
    """poly_from_json with each coefficient read by `_ref_matrix_from_json`."""
    with mock.patch.object(natprod.matpoly, "matrix_from_json", _ref_matrix_from_json):
        return poly_from_json(obj)


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
    except (NotInvertible, SingularLead, ConeViolation, ParseError) as exc:
        return (type(exc).__name__, str(exc))


def _typed_outcome(fn, *args):
    """(type, value) of fn(*args), or (exception type, message)."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value


def _assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_same(got, want)


def _located(fn, *args):
    """fn(*args), or the type, message, line and column of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def _assert_parsed_alike(fn, ref, *args):
    """fn and ref give equal values of equal types, or raise alike."""
    _assert_same_outcome(_located(fn, *args), _located(ref, *args))


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


def _random_value(rng, domain):
    """What `_values(domain)` draws, or 0 one time in four, from `rng`."""
    if rng.randrange(4) == 0:
        return 0
    if domain.is_modular:
        return rng.randrange(domain.modulus)
    value = rng.randint(0 if domain.is_cone else -40, 40)
    return Fraction(value, rng.choice(DENOMINATORS)) if domain.is_rational else value


@st.composite
def dense_polys(draw, domain, rows, cols, ptype=None):
    """A run of up to 12 degrees from a drawn lowest one, with holes: dense
    enough to pack over degrees, or, with up to half of its inner degrees
    left out, not.  Coefficients come from one drawn seed, which keeps
    drawing cheap, and are nonzero."""
    low = draw(st.sampled_from([0, 1, 3, 2**70]))
    count = draw(st.one_of(st.integers(1, 12), st.integers(10, 12)))
    most = draw(st.sampled_from([count // 3, count // 2]))  # each side of the density gate
    holes = draw(st.sets(st.integers(1, count - 2), max_size=most)) if count > 2 else ()
    rng = random.Random(draw(st.integers(0, 2**32)))
    terms = {}
    for k in range(count):
        if k not in holes:
            values = [_random_value(rng, domain) for _ in range(rows * cols)]
            if not any(values):
                values[rng.randrange(rows * cols)] = 1
            terms[low + k] = Matrix(Shape(rows, cols), domain, values)
    return MatPoly(Shape(rows, cols), domain, terms, ptype)


def _mat(rows, domain=Q):
    return Matrix.from_rows(rows, domain)


# -- usual product ---------------------------------------------------------------


@settings(max_examples=300)
@given(st.data())
def test_matmul_matches_reference(data):
    # rows and columns up to 12 reach both sides of the packing threshold
    domain = data.draw(st.sampled_from(DOMAINS))
    n, m = (data.draw(st.integers(1, 12)) for _ in range(2))
    k = data.draw(st.integers(1, 6))
    a = data.draw(matrices(domain, n, k))
    b = data.draw(matrices(domain, k, m))
    _assert_same(a @ b, _ref_matmul(a, b))


@pytest.mark.parametrize("domain", DOMAINS + [Mod(2), Mod(97)], ids=lambda d: d.code)
@pytest.mark.parametrize(
    "n,k,m",
    # the last four straddle the packing threshold
    [(1, 4, 1), (4, 1, 4), (1, 1, 1), (1, 3, 5), (5, 3, 1)]
    + [(7, 3, 8), (8, 3, 7), (8, 1, 8), (9, 4, 12)],
)
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


def test_packing_depends_on_the_shape_only():
    for rows in range(1, 12):
        for fields in range(1, 12):
            for entry in (0, 1, -(2**20)):
                size = _field_size([[entry] * 3] * rows, [[entry] * 3] * fields, fields, 3)
                assert bool(size) == (min(rows, fields) >= _PACK_MIN)


# -- packed kernel: field widths -------------------------------------------------


@pytest.mark.parametrize("size", [1, 2, 4, 8])
def test_pack_round_trip_at_each_field_width(size):
    half = 1 << 8 * size - 1
    values = [half - 1, -(half - 1), 0, -half, 1, -1]
    for line in (values, [half - 1], [-half], [0]):  # six fields, then a single one
        cols = [[v, w] for v, w in zip(line, reversed(line))]  # two right rows
        packed = _pack(cols, size)
        assert packed == [sum(v << 8 * size * j for j, v in enumerate(row)) for row in zip(*cols)]
        assert list(_unpack(packed[:1], len(line), size)) == line
        assert list(_unpack(packed, len(line), size)) == line + line[::-1]


def _packed_size(a, b):
    """The field size `a @ b` packs with; 0 when it takes the plain kernel."""
    n, k, m = a.shape.rows, a.shape.cols, b.shape.cols
    rows, _ = _lift(a.values[i * k : (i + 1) * k] for i in range(n))
    cols, _ = _lift(b.values[j::m] for j in range(m))
    return _field_size(rows, cols, m, k)


@pytest.mark.parametrize("sign", [1, -1], ids=["negative", "positive"])
@pytest.mark.parametrize("size", [1, 2, 4, 8])
def test_field_width_holds_the_extreme_sums(size, sign):
    """Every entry of `a` is -M and every entry of `b` is sign * M, so every
    field is -sign * k * M^2; sign 1 gives the worst negative case."""
    half = 1 << 8 * size - 1
    # k * M^2 one below 2^(8 * size - 1), which `size` bytes hold, then at it
    at = half >> 4 * size  # 2 * at^2 == half
    for k, m_a, m_b, want in ((1, half - 1, 1, size), (2, at, at, 2 * size)):
        a = Matrix(Shape(8, k), Z, [-m_a] * (8 * k))
        b = Matrix(Shape(k, 9), Z, [sign * m_b] * (9 * k))
        assert _packed_size(a, b) == (want if want <= 8 else 0)
        assert (a @ b).values == (-sign * k * m_a * m_b,) * 72
        _assert_same(a @ b, _ref_matmul(a, b))
    # packed over degrees, eight terms a side: field 7 of `*` adds 8
    # products and field 7 of a 2 x 2 `@` adds 2 * 8, `terms` in each case
    for terms, product, ref in ((8, operator.mul, _ref_nmul), (16, operator.matmul, _ref_umul)):
        exponent = 8 * size - terms.bit_length()  # half == terms * 2^exponent
        for m_a, m_b, want in (
            (half // terms - 1, 1, size),
            (1 << (exponent + 1) // 2, 1 << exponent // 2, 2 * size),
        ):
            p = MatPoly(Shape(2, 2), Z, {d: Matrix(Shape(2, 2), Z, [-m_a] * 4) for d in range(8)})
            q = MatPoly(Shape(2, 2), Z, {d: Matrix(Shape(2, 2), Z, [sign * m_b] * 4) for d in range(8)})
            assert _degree_sizes(product, p, q) == ([want] if want <= 8 else [])
            assert product(p, q).coeff(7).values == (-sign * terms * m_a * m_b,) * 4
            _assert_same(product(p, q), ref(p, q))


def _degree_sizes(product, p, q):
    """The field sizes `product(p, q)` packs over degrees with: [] when it
    takes the plain convolution."""
    with mock.patch.object(natprod.matpoly, "_unpack", wraps=natprod.matpoly._unpack) as unpack:
        product(p, q)
    return [call.args[2] for call in unpack.call_args_list]


def test_wide_fields_take_the_plain_kernel():
    """A distinct prime denominator per line clears to small numerators and
    packs; Z entries near 2^40, or a distinct prime per entry, need fields
    past 8 bytes and take the plain kernel."""
    z_left = Matrix(Shape(8, 5), Z, [(-1) ** i * (2**40 - i) for i in range(40)])
    z_right = Matrix(Shape(5, 8), Z, [(-1) ** i * (2**40 + i) for i in range(40)])
    primes = [p for p in range(10007, 10800) if all(p % d for d in range(2, 104))]
    line_left = _mat([[Fraction(i - j, primes[i]) for j in range(64)] for i in range(8)])
    line_right = _mat([[Fraction(i + j + 1, primes[8 + j]) for j in range(9)] for i in range(64)])
    entry_left = _mat([[Fraction(i - j, primes[i + j]) for j in range(64)] for i in range(8)])
    entry_right = _mat([[Fraction(i + j + 1, primes[i + j]) for j in range(9)] for i in range(64)])
    for a, b, packs in [
        (line_left, line_right, True),
        (z_left, z_right, False),
        (entry_left, entry_right, False),
    ]:
        assert bool(_packed_size(a, b)) == packs
        _assert_same(a @ b, _ref_matmul(a, b))


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
    # 8 x 8 and 9 x 9 coefficients pack; zero and one-term polynomials come up
    domain = data.draw(st.sampled_from(DOMAINS))
    n = data.draw(st.sampled_from([1, 2, 3, 8, 9]))
    p, q = data.draw(polys(domain, n, n)), data.draw(polys(domain, n, n))
    _assert_same(p @ q, _ref_umul(p, q))


@pytest.mark.parametrize("n", [2, 8], ids=["plain", "packed"])
@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.code)
def test_usual_convolution_of_sparse_polynomials(domain, n):
    top = domain.modulus if domain.is_modular else 10

    def coeff(seed):
        return Matrix(Shape(n, n), domain, [(seed * i + 1) % top for i in range(n * n)])

    p = MatPoly.from_terms([(0, coeff(3)), (1000, coeff(5))])
    q = MatPoly.from_terms([(0, coeff(7)), (1000, coeff(2))])
    huge = MatPoly.from_terms([(10**40, coeff(4))])
    for x, y in [(p, q), (q, p), (p, huge), (huge, huge), (huge, MatPoly.zero(p.shape, domain))]:
        _assert_same(x @ y, _ref_umul(x, y))
    assert sorted(d for d, _ in (p @ q).terms) == [0, 1000, 2000]


@settings(max_examples=150)
@given(st.sampled_from(DOMAINS), st.data())
def test_dense_convolutions_match_reference(domain, data):
    # runs of up to 12 terms, with holes, reach both sides of the
    # degree-packing gate; `*` also on partitioned coefficients
    n = data.draw(st.integers(1, 3))
    p, q = (data.draw(dense_polys(domain, n, n)) for _ in range(2))
    _assert_same(p @ q, _ref_umul(p, q))
    shape = Shape(n, data.draw(st.integers(1, 3)))
    ptype = data.draw(_partitions(shape))
    p, q = (data.draw(dense_polys(domain, *shape, ptype)) for _ in range(2))
    _assert_same(p * q, _ref_nmul(p, q))


def _poly_at(domain, n, degrees, seed):
    """n x n coefficients at `degrees`, none of them zero."""
    top = domain.modulus if domain.is_modular else 10
    return MatPoly(
        Shape(n, n),
        domain,
        {d: Matrix(Shape(n, n), domain, [(seed * d + i + 1) % top for i in range(n * n)]) for d in degrees},
    )


@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.code)
def test_degree_packing_gate(domain, n):
    """`*` packs from 64 pairs of terms and `@` from 16, when each factor
    spans at most 3/2 of its term count of degrees."""
    dense8 = range(8)
    holed8 = [0, 1, 2, 3, 4, 5, 6, 11]  # 8 terms over 12 degrees
    sparse8 = [0, 1, 2, 3, 4, 5, 6, 12]  # 8 terms over 13
    cases = [
        (operator.mul, dense8, dense8, True),
        (operator.mul, range(7), range(9), False),
        (operator.mul, holed8, dense8, True),
        (operator.mul, sparse8, dense8, False),
        (operator.matmul, range(4), range(4), True),
        (operator.matmul, range(3), range(5), False),
        (operator.matmul, [1, 2, 4, 5, 7], range(10**40, 10**40 + 4), True),  # 5 over 7
        (operator.matmul, [0, 1, 2, 6], range(4), False),  # 4 over 7
    ]
    for product, left, right, packs in cases:
        if n == 8 and product is operator.mul:
            continue  # the entry count does not enter the gate
        p, q = _poly_at(domain, n, left, 3), _poly_at(domain, n, right, 5)
        assert bool(_degree_sizes(product, p, q)) == packs
        _assert_same(product(p, q), (_ref_nmul if product is operator.mul else _ref_umul)(p, q))


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


# -- scalar parse, render and entrywise inverse ----------------------------------

# Unicode decimal digits other than 0-9, which int() and the grammar accept
_DIGITS = "0123456789" + "\u0663\u0967\uff17\u0e52"
_SPACE = ["", " ", "\t", "\n", "\u00a0", "\u2003"]
_PAST_LIMIT = "7" * 4301  # one digit past the default int/str conversion limit
_EDGE_TOKENS = [
    "-0", "+0", "0/5", "-0/5", "4/2", "-4/2", "1/2", "-1/2", "2/4", "-2/4", "1/0", "0/0",
    "007", "-007/014", "+12", " 3 ", "1/-2", "--1", "1.5", "1e3", "", " ", "/2", "1/",
    "1 2", "1_000", "0x10", "\u0663/\u0967", _PAST_LIMIT, "-" + _PAST_LIMIT,
    "1/" + _PAST_LIMIT, _PAST_LIMIT + "/0", "0" * 4300 + "1", "x" * 100,
]


@st.composite
def _scalar_tokens(draw):
    """A sign, digits (leading zeros and non-ASCII ones too), an optional
    `/q` (q may be 0), surrounded by whitespace."""
    digits = st.text(_DIGITS, min_size=1, max_size=6)
    token = draw(st.sampled_from(["", "+", "-"])) + draw(st.sampled_from(["", "0", "00"]))
    token += draw(digits)
    if draw(st.booleans()):
        token += "/" + draw(st.one_of(st.just("0"), digits))
    return draw(st.sampled_from(_SPACE)) + token + draw(st.sampled_from(_SPACE))


_TOKENS = st.one_of(
    _scalar_tokens(),
    st.sampled_from(_EDGE_TOKENS),
    st.text(_DIGITS + "+-/ .xe\t", max_size=8),
)


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.code)
def test_parse_matches_reference_on_edge_tokens(domain):
    for token in _EDGE_TOKENS:
        got, want = _typed_outcome(domain.parse, token), _typed_outcome(_ref_parse, domain, token)
        assert got == want, shorten(token)


@settings(max_examples=400)
@given(st.sampled_from(DOMAINS), _TOKENS)
def test_parse_matches_reference(domain, token):
    assert _typed_outcome(domain.parse, token) == _typed_outcome(_ref_parse, domain, token)


def _rendered(a):
    """render_matrix(a), after checking that the JSON entries and each
    Domain.render agree with it."""
    text = render_matrix(a)
    entries = [cell for row in matrix_to_json(a)["entries"] for cell in row]
    assert entries == [a.domain.render(v) for v in a.values]
    return text


@settings(max_examples=300)
@given(st.data())
def test_render_matches_reference(data):
    domain = data.draw(st.sampled_from(DOMAINS))
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    a = data.draw(matrices(domain, rows, cols))
    row_cuts = data.draw(st.lists(st.integers(1, rows), max_size=2))
    col_cuts = data.draw(st.lists(st.integers(1, cols), max_size=2))
    row_cuts, col_cuts = [c for c in row_cuts if c < rows], [c for c in col_cuts if c < cols]
    a = a.with_partition(PartitionType(a.shape, row_cuts, col_cuts))
    text = _rendered(a)
    assert text == _ref_render(a)
    round_trip = parse_literal(text, domain)
    _assert_same(round_trip, a)
    assert round_trip.partition == a.partition
    _assert_same(matrix_from_json(matrix_to_json(a)), a)


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.code)
def test_render_past_the_digit_limit_matches_reference(domain):
    big = 10**4300  # 4301 digits
    value = Fraction(big, 3) if domain.is_rational else big
    a = Matrix._make(Shape(1, 2), domain, (domain.one, value))
    renders = (render_matrix, _ref_render, matrix_to_json, lambda m: domain.render(m.values[1]))
    for render in renders:
        assert _typed_outcome(render, a) == (TooLarge, _past_digit_limit("an integer to print"))
    assert render_matrix(Matrix._make(Shape(1, 1), domain, (10**4299,))) == f"[{10**4299}]"


def _units(domain):
    if domain.is_modular:
        return st.integers(0, domain.modulus - 1)
    if domain.is_rational:
        lo = 0 if domain.is_cone else -(PRIMES[-1])
        return st.builds(Fraction, st.integers(lo, PRIMES[-1]), st.sampled_from(DENOMINATORS))
    return st.sampled_from([1] if domain.is_cone else [1, -1])


@settings(max_examples=300)
@given(st.data())
def test_natural_inverse_matches_reference(data):
    domain = data.draw(st.sampled_from(DOMAINS))
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    values = data.draw(st.lists(_units(domain), min_size=rows * cols, max_size=rows * cols))
    if data.draw(st.integers(0, 4)) == 0:
        values[data.draw(st.integers(0, len(values) - 1))] = data.draw(_values(domain))
    a = Matrix(Shape(rows, cols), domain, values)
    if cols > 1 and data.draw(st.booleans()):
        a = a.with_partition(PartitionType(a.shape, (), [1]))
    _assert_same_outcome(_outcome(natural_inverse, a), _outcome(_ref_natural_inverse, a))


@pytest.mark.parametrize(
    "domain, value",
    [(d, d.zero) for d in DOMAINS] + [(Z_PLUS, -1), (Q_PLUS, Fraction(-1, 2))],
    ids=[f"{d.code}-zero" for d in DOMAINS] + ["Z+-negative", "Q+-negative"],
)
def test_inv_refuses_what_is_not_a_unit(domain, value):
    with pytest.raises(NotAUnit) as info:
        domain.inv(value)
    assert str(info.value) == f"{value} is not a unit in {domain.code}"


# -- Q and Q+ entrywise kernels, parse and JSON -------------------------------


def _rationals(domain):
    """0, and n/d with |n| <= BOUND (n >= 0 in a cone) and 1 <= d <= BOUND,
    d often one of COPRIME."""
    lo = 0 if domain.is_cone else -BOUND
    den = st.one_of(st.sampled_from(COPRIME), st.integers(1, BOUND))
    return st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(lo, BOUND), den))


@st.composite
def _partitions(draw, shape):
    """A partition of `shape`, cut-free about one time in four."""
    row_cuts = draw(st.sets(st.integers(1, shape.rows - 1), max_size=2)) if shape.rows > 1 else ()
    col_cuts = draw(st.sets(st.integers(1, shape.cols - 1), max_size=2)) if shape.cols > 1 else ()
    return PartitionType(shape, row_cuts, col_cuts)


@st.composite
def _rational_pairs(draw, domain):
    """Two matrices of `domain` with one shape and one partition."""
    shape = Shape(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    entries = st.lists(_rationals(domain), min_size=shape.size, max_size=shape.size)
    ptype = draw(_partitions(shape))
    return tuple(Matrix(shape, domain, draw(entries)).with_partition(ptype) for _ in range(2))


_ENTRYWISE = [operator.add, operator.sub, operator.mul]


@settings(max_examples=300)
@given(st.sampled_from(RATIONAL), st.data())
def test_rational_entrywise_kernels_match_reference(domain, data):
    a, b = data.draw(_rational_pairs(domain))
    # entrywise at most a: a difference that stays in the cone
    low = Matrix(a.shape, domain, list(map(min, a.values, b.values))).with_partition(a.partition)
    for x, y in [(a, b), (b, a), (a, low), (a, a)]:
        for op in _ENTRYWISE:
            _assert_same_outcome(_outcome(op, x, y), _outcome(_ref_entrywise, op, x, y))
    _assert_same(a - low, _ref_entrywise(operator.sub, a, low))


@settings(max_examples=200)
@given(st.sampled_from(RATIONAL), st.data())
def test_rational_scale_and_natural_inverse_match_reference(domain, data):
    a, _ = data.draw(_rational_pairs(domain))
    c = data.draw(st.one_of(_rationals(Q), st.integers(-BOUND, BOUND)))
    _assert_same_outcome(_outcome(a.scale, c), _outcome(_ref_scale, a, c))
    _assert_same_outcome(_outcome(natural_inverse, a), _outcome(_ref_natural_inverse, a))


def test_rational_kernels_on_a_partitioned_operand():
    a = parse_literal("[1/2 | -3/10007 ; -- ; 0 | 9999991/6]", Q)
    b = parse_literal("[-2/3 | 5/1000003 ; -- ; 7 | 1/9999991]", Q)
    for op in _ENTRYWISE:
        got = op(a, b)
        _assert_same(got, _ref_entrywise(op, a, b))
        assert got.partition == a.partition
    _assert_same(a.scale("-6/7"), _ref_scale(a, Fraction(-6, 7)))
    _assert_same(natural_inverse(b), _ref_natural_inverse(b))
    assert render_matrix(a * b) == "[-1/3 | -15/10007030021;--;0 | 1/6]"


def test_cone_difference_refuses_at_the_first_entry_below_zero():
    a = parse_literal("[1/2 | 1 ; -- ; 3 | 1/7]", Q_PLUS)
    b = parse_literal("[1/3 | 2 ; -- ; 3 | 1/5]", Q_PLUS)
    with pytest.raises(ConeViolation) as got:
        a - b
    with pytest.raises(ConeViolation) as want:
        Q_PLUS.sub(a.values[1], b.values[1])
    assert str(got.value) == str(want.value) == "1 - 2 leaves the cone Q+"
    assert _outcome(_ref_entrywise, operator.sub, a, b) == ("ConeViolation", str(want.value))


@st.composite
def _rational_tokens(draw):
    """`n/d` or `n` as text: any sign, not reduced, d sometimes 0."""
    n = draw(st.integers(-BOUND, BOUND))
    d = draw(st.one_of(st.none(), st.just(0), st.sampled_from(COPRIME), st.integers(1, BOUND)))
    return str(n) if d is None else f"{n}/{d}"


@settings(max_examples=200)
@given(st.sampled_from(RATIONAL), st.data())
def test_rational_parse_and_json_match_reference(domain, data):
    shape = Shape(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)))
    tokens = data.draw(st.lists(_rational_tokens(), min_size=shape.size, max_size=shape.size))
    for token in tokens:
        assert _typed_outcome(domain.parse, token) == _typed_outcome(_ref_parse, domain, token)
    ptype = data.draw(_partitions(shape))
    obj = {
        "domain": domain.code,
        "rows": shape.rows,
        "cols": shape.cols,
        "entries": [tokens[i : i + shape.cols] for i in range(0, shape.size, shape.cols)],
        "row_cuts": list(ptype.row_cuts),
        "col_cuts": list(ptype.col_cuts),
    }
    _assert_same_outcome(_outcome(matrix_from_json, obj), _outcome(_ref_matrix_from_json, obj))


# -- whole literals and JSON documents ------------------------------------------
#
# parse_literal and matrix_from_json parse each distinct entry text once
# (scalars.plain_entries), and fall back to one Domain.parse per entry; the
# references parse every entry as it is met.

_MARKS = ["|", "--"]
_LITERAL_TOKENS = st.one_of(
    st.integers(-12, 12).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 9)),
    _scalar_tokens(),
    st.sampled_from(_EDGE_TOKENS),
)


@st.composite
def _literals(draw):
    """A matrix literal of a few distinct tokens, most of them repeated,
    with a column cut in each row or none, and now and then a mark `|` or
    `--` that may be misplaced."""
    pool = draw(st.lists(_LITERAL_TOKENS, min_size=1, max_size=4))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cut = draw(st.integers(0, cols))
    lines = []
    for _ in range(rows):
        cells = [draw(st.sampled_from(pool)) for _ in range(cols)]
        if cut:
            cells.insert(cut, "|")
        if draw(st.integers(0, 4)) == 0:
            cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from(_MARKS)))
        lines.append(" ".join(cells))
        if draw(st.integers(0, 5)) == 0:
            lines.append("--")
    return "[" + draw(st.sampled_from([";", " ; ", ";\n"])).join(lines) + "]"


@settings(max_examples=400)
@given(st.sampled_from(DOMAINS), _literals())
def test_literal_parse_matches_reference(domain, text):
    _assert_parsed_alike(parse_literal, _ref_parse_literal, text, domain)


_EDGE_LITERALS = [
    # a bad token repeated: the error names its first occurrence
    "[1 x 2;x 3 4]", "[1 2 x x;3 4 x x]", "[1 2;3 x;x x]", "[1/0 1/0;1 1/0]",
    # a bad entry before, and after, a misplaced mark in the same row or a later one
    "[1 x | | 2]", "[| 1 x]", "[x | 1;| 2 3]", "[1 x -- 2]", "[1 -- x]", "[x -- 1]",
    "[1 2;x 3;| 4 5]", "[1 2;| 3 4;x 5]", "[1 2;3 4 -- x]", "[1 x;3 4 -- 5]",
    "[1 2;--;--;x 4]", "[x;--;--]", "[--;x]", "[1 ;; x]", "[x ;; 1]", "[1 2;--]",
    "[1 x | 2;3 4 | 5]", "[1 | 2;3 4 | x]", "[1 2 |;3 4 |]", "[1 2;3 4 5;x 6]",
    # Unicode digits, `_`, signs, -0, and the int/str digit limit
    "[٣ १/๒ ７;-٣ +१ 0]", "[1_000 1]", "[1 1_000]",
    "[-0 +0 -0/5;0 -0 +0]", "[-0 -1;-0 -0]", "[+1/+2 1]", "[1/-2 1]", "[-1 -1 1]",
    f"[1 {_PAST_LIMIT}]", f"[{_PAST_LIMIT} {_PAST_LIMIT}]", f"[1/{_PAST_LIMIT} 2]",
    f"[{'0' * 4300}1 1]", "[0/0 1]", "[1/2/3]", "[1//2]", "[1/ 2]", "[1 /2]", "[/2]",
    # literals that are not plain: a whole quotient, commas, no entry at all
    "[4/2 2;-6/3 4/2]", "[1,2 3]", "[1, 2]", "[ ]", "[;]", "[|]", "[--]", "1 2",
]


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.code)
def test_edge_literals_match_reference(domain):
    for text in _EDGE_LITERALS:
        _assert_parsed_alike(parse_literal, _ref_parse_literal, text, domain)


def test_a_repeated_bad_entry_is_named_at_its_first_occurrence():
    with pytest.raises(ParseError) as info:
        parse_literal("[1 x 2;x 3 4]", Q)
    assert str(info.value) == "bad entry: bad scalar literal 'x' (line 1, column 4)"
    with pytest.raises(ParseError) as info:
        parse_literal("[1 2 | 3;\n4 5 | 1/0;\n1/0 7 | 8]", Z)
    assert (info.value.line, info.value.column) == (2, 7)


# JSON entries: texts (some with whitespace), and values that are not text
_JSON_ENTRIES = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 9)),
    st.sampled_from(_EDGE_TOKENS),
    st.sampled_from([" 3 ", "-0", [1], {}, 1, True, 1.0, None, ["1"]]),
)


@st.composite
def _json_matrices(draw, domain):
    """A JSON matrix of one shape whose entries come from a few, most of
    them repeated."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pool = draw(st.lists(_JSON_ENTRIES, min_size=1, max_size=4))
    entries = [[draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)]
    return {"domain": domain.code, "rows": rows, "cols": cols, "entries": entries}


@settings(max_examples=400)
@given(st.sampled_from(DOMAINS), st.data())
def test_json_matrix_matches_reference(domain, data):
    obj = data.draw(_json_matrices(domain))
    _assert_parsed_alike(matrix_from_json, _ref_matrix_from_json, obj)


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.code)
def test_json_rows_of_mixed_values_match_reference(domain):
    rows = [
        ["1", 1, True], [True, 1, "1"], ["2", "x", "x"], [" 3 ", "3", "1.0"], ["1", 1.0, "1"],
        ["1", [1], {}], ["4/2", "-0", "1/0"], [_PAST_LIMIT, "1", "1"], ["1_0", "1", "٣"],
    ]
    for row in rows:
        obj = {"domain": domain.code, "rows": 1, "cols": 3, "entries": [row]}
        _assert_parsed_alike(matrix_from_json, _ref_matrix_from_json, obj)


@settings(max_examples=200)
@given(st.sampled_from(DOMAINS), st.data())
def test_parsed_polynomials_match_reference(domain, data):
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    pool = data.draw(st.lists(_LITERAL_TOKENS, min_size=1, max_size=3))
    degrees = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    coeffs = [
        [[data.draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)]
        for _ in degrees
    ]
    text = " + ".join(
        "[" + ";".join(map(" ".join, c)) + f"] * x^{d}" for d, c in zip(degrees, coeffs)
    )
    _assert_parsed_alike(parse_poly, _ref_parse_poly, text, domain)
    obj = {
        "shape": {"rows": rows, "cols": cols},
        "domain": domain.code,
        "terms": [
            {"deg": d, "coeff": {"domain": domain.code, "rows": rows, "cols": cols, "entries": c}}
            for d, c in zip(degrees, coeffs)
        ],
    }
    _assert_parsed_alike(poly_from_json, _ref_poly_from_json, obj)


def _benchmark_shaped(domain, n):
    """An n x n matrix with entries as the algebra benchmark draws them:
    -9..9, over 1..9 in Q."""
    rng = random.Random(n)
    if domain.is_rational:
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n * n)]
    else:
        values = [rng.randint(-9, 9) for _ in range(n * n)]
    return Matrix(Shape(n, n), domain, values)


@pytest.mark.parametrize("domain", [Z, Q], ids=lambda d: d.code)
def test_plain_entries_are_parsed_in_bulk_and_the_rest_one_at_a_time(domain, monkeypatch):
    parsed = []
    parse = Domain.parse

    def counted(self, text):
        parsed.append(text)
        return parse(self, text)

    monkeypatch.setattr(Domain, "parse", counted)
    a = _benchmark_shaped(domain, 8)
    text, obj = render_matrix(a), matrix_to_json(a)
    _assert_same(parse_literal(text, domain), a)
    _assert_same(matrix_from_json(obj), a)
    assert parsed == []
    # outside Q a whole quotient is no plain entry, but parses all the same
    assert parse_literal("[4/2 1]", domain) == parse_literal("[2 1]", domain)
    assert parsed == ([] if domain.is_rational else ["4/2", "1"])
    cells = [cell for row in obj["entries"] for cell in row]
    for bad in _EDGE_TOKENS + [[1], {}, 1, True, 1.0, None]:
        if isinstance(bad, str) and _typed_outcome(parse, domain, bad)[0] is not ParseError:
            continue
        entries = cells[:37] + [bad] + cells[38:]
        obj["entries"] = [entries[i : i + 8] for i in range(0, 64, 8)]
        parsed.clear()
        _assert_parsed_alike(matrix_from_json, _ref_matrix_from_json, obj)
        assert parsed[-1] == bad
        if isinstance(bad, str) and bad and not any(map(str.isspace, bad)):
            literal = "[" + ";".join(" ".join(entries[i : i + 8]) for i in range(0, 64, 8)) + "]"
            parsed.clear()
            _assert_parsed_alike(parse_literal, _ref_parse_literal, literal, domain)
            assert parsed[-1] == bad


def test_int_reads_the_digits_and_whitespace_of_the_scalar_grammar():
    """plain_entries lets int() check the grammar _SCALAR_RE states with
    \\d and \\s, and str.split find the whitespace: all of them agree on
    every code point."""
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    digits = "".join(filter(str.isdecimal, chars))
    assert "".join(re.findall(r"\d", chars)) == digits
    assert "".join(re.findall(r"\s", chars)) == "".join(filter(str.isspace, chars))
    assert chars.split() == [c for c in re.split(r"\s+", chars) if c]
    assert [int(c) for c in digits] == [unicodedata.decimal(c) for c in digits]
    for c in filter(str.isnumeric, chars):
        if not c.isdecimal():
            with pytest.raises(ValueError):
                int(c)


@settings(max_examples=200)
@given(st.data())
def test_lower_takes_negative_denominators(data):
    size = data.draw(st.integers(1, 6))
    ints = data.draw(st.lists(st.integers(-BOUND, BOUND), min_size=size, max_size=size))
    nonzero = st.integers(-BOUND, BOUND).filter(bool)
    dens = data.draw(st.lists(nonzero, min_size=size, max_size=size))
    want = Matrix(Shape(1, size), Q, list(map(Fraction, ints, dens)))
    _assert_same(_lower(Shape(1, size), Q, ints, dens), want)


def test_lower_moves_the_sign_of_a_negative_pivot():
    # usual_inverse divides by its last pivot, which may be negative
    lowered = _lower(Shape(2, 2), Q, [1, -2, 0, 6], [-1, -4, -5, -6])
    _assert_same(lowered, _mat([[-1, Fraction(1, 2)], [0, -1]]))
    assert [v.denominator for v in lowered.values] == [1, 2, 1, 1]
    a = _mat([[0, 1], [1, 0]])  # one row swap: the last pivot is -1
    _assert_same(usual_inverse(a), _ref_usual_inverse(a))

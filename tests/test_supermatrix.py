from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natprod import (
    DomainMismatch,
    Matrix,
    NotInvertible,
    ParseError,
    PartitionType,
    Q,
    RaggedCuts,
    Shape,
    ShapeMismatch,
    SuperMatrix,
    TypeMismatch,
    Z,
    Z_PLUS,
    parse_literal,
    parse_poly,
    parse_super,
    render_super,
    super_from_json,
    super_inverse,
    super_ones,
    super_to_json,
)
from natprod.cli import run_command
from natprod.verify import rand_matrix, rand_partition, rand_shape


def _super(rows, domain=Q, **cuts):
    return SuperMatrix.from_rows(rows, domain, **cuts)


def test_same_type_examples():
    # same type: identical shape, domain and both cut sets, as +, - and * demand
    a = _super([[1, 2, 3, 4, 5]], col_cuts=(2,))
    b = _super([[5, 4, 3, 2, 1]], col_cuts=(2,))
    c = _super([[5, 4, 3, 2, 1]], col_cuts=(3,))
    z = _super([[1, 2, 3, 4, 5]], Z, col_cuts=(2,))
    assert a.ptype == b.ptype and a.domain is b.domain
    assert a.ptype != c.ptype
    assert a.ptype == a.ptype and a.domain is a.domain
    assert a.ptype == z.ptype and a.domain is not z.domain
    assert (a + b).ptype == a.ptype
    with pytest.raises(TypeMismatch):
        a + c
    with pytest.raises(DomainMismatch):
        a * z


def test_partition_validation():
    with pytest.raises(ValueError):
        PartitionType(Shape(2, 2), row_cuts=(2,))
    with pytest.raises(ValueError):
        PartitionType(Shape(2, 2), col_cuts=(0,))
    pt = PartitionType(Shape(3, 4), row_cuts=(2, 1), col_cuts=(3,))
    assert pt.row_cuts == (1, 2)


def test_add_contract():
    a = _super([[1, 2], [3, 4]], row_cuts=(1,))
    b = _super([[5, 6], [7, 8]], row_cuts=(1,))
    total = a + b
    assert total.base.rows() == [[6, 8], [10, 12]]
    assert total.ptype == a.ptype
    zero = SuperMatrix.from_rows([[0, 0], [0, 0]], Q, row_cuts=(1,))
    assert a + zero == a
    different = _super([[5, 6], [7, 8]], col_cuts=(1,))
    with pytest.raises(TypeMismatch):
        a + different
    with pytest.raises(ShapeMismatch):
        a + _super([[1, 2]])


def test_nproduct_contract():
    a = _super([[1, 2], [3, 4]], col_cuts=(1,))
    b = _super([[5, 6], [7, 8]], col_cuts=(1,))
    prod = a * b
    assert prod.base.rows() == [[5, 12], [21, 32]]
    with pytest.raises(TypeMismatch):
        a * _super([[5, 6], [7, 8]], row_cuts=(1,))
    assert a * super_ones(a.ptype, Q) == a


def test_inverse_examples():
    x = _super([[1, -1], [1, 1]], Z, row_cuts=(1,))
    assert super_inverse(x) == x
    with pytest.raises(NotInvertible):
        super_inverse(_super([[1, 0], [1, 1]], Q, row_cuts=(1,)))
    y = _super([[2, 4], [8, 16]], Q, col_cuts=(1,))
    assert (y * super_inverse(y)) == super_ones(y.ptype, Q)


def test_parse_row_and_column_cuts():
    s = parse_super("[1 2 | 3 ; -- ; 4 5 | 6]", Q)
    assert s.shape == Shape(2, 3)
    assert s.ptype.row_cuts == (1,)
    assert s.ptype.col_cuts == (2,)
    assert s.base.rows() == [[1, 2, 3], [4, 5, 6]]
    assert parse_super(render_super(s), Q) == s


def test_parse_ragged_cuts():
    with pytest.raises(RaggedCuts):
        parse_super("[1 | 2 ; 3 4]", Q)
    with pytest.raises(RaggedCuts):
        parse_super("[1 | 2 ; 3 | 4 | ]", Q)
    with pytest.raises(RaggedCuts):
        parse_super("[-- ; 1 2]", Q)
    with pytest.raises(RaggedCuts):
        parse_super("[1 2 ; --]", Q)
    with pytest.raises(RaggedCuts):
        parse_super("[1 2 ; -- ; -- ; 3 4]", Q)


def test_parse_errors_have_positions(tmp_path):
    with pytest.raises(ParseError) as info:
        parse_super("[1 2 ; 3 oops]", Q)
    assert info.value.line == 1
    assert info.value.column > 1
    with pytest.raises(ParseError):
        parse_super("1 2", Q)
    # a bad entry is located at the token, any other error at its row
    for text, domain, column in (
        ("[1 3/2]", Z_PLUS, 4),
        ("[1 2;3 x]", Z, 8),
        ("[1 2;| 3 4]", Z, 6),
    ):
        with pytest.raises(ParseError) as info:
            parse_literal(text, domain)
        assert (info.value.line, info.value.column) == (1, column)
    with pytest.raises(ParseError) as info:
        parse_literal("[1 2;\n 3 y]", Z)
    assert (info.value.line, info.value.column) == (2, 4)
    # positions count in the whole input, not in the term or line parsed
    for parse, text, position in (
        (parse_literal, "\n\n[1 2;\n 3 q]", (4, 4)),
        (parse_literal, "  [1 2;3 y]", (1, 10)),
        (parse_literal, " [1 2;3]", (1, 2)),
        (parse_poly, "[1 2] + [3 y]", (1, 12)),
        (parse_poly, "[1 2]\n + [3 4] * y", (2, 4)),
        (parse_poly, "[1 2] +", (1, 8)),
    ):
        with pytest.raises(ParseError) as info:
            parse(text, Z)
        assert (info.value.line, info.value.column) == position, text
    # the CLI reports them in what the user typed or the file holds
    carrier = tmp_path / "carrier.txt"
    carrier.write_text("\n[1 2]\n[1 q]\n")
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("\n\n[1 2;\n 3 q]\n")
    for argv, position in (
        (["analyze", "idempotents", str(carrier)], "line 3, column 4"),
        (["eval", "parse-render", str(matrix)], "line 4, column 4"),
        (["eval", "parse-render", "  [1 2;3 y]"], "line 1, column 10"),
        (["poly", "degree", "[1 2] + [3 y]"], "line 1, column 12"),
        (["poly", "degree", "[1 2] + [3 4] * y"], "line 1, column 9"),
    ):
        report = run_command(argv)
        assert (report.exit_code, report.payload) == (2, "")
        assert f"({position})" in report.diagnostics, argv


def test_render_round_trip_with_fractions():
    s = _super([[Fraction(1, 8), 7], [3, -1]], Q, row_cuts=(1,), col_cuts=(1,))
    assert render_super(s) == "[1/8 | 7;--;3 | -1]"
    assert parse_super(render_super(s), Q) == s


def test_json_round_trip():
    s = _super([[9, 0, 2, 0, 1]], Q, col_cuts=(3,))
    obj = super_to_json(s)
    assert obj["col_cuts"] == [3]
    assert super_from_json(obj) == s


@settings(max_examples=60)
@given(st.data())
def test_round_trip_random_supermatrices(data):
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    row_cuts = data.draw(st.sets(st.integers(1, rows - 1)) if rows > 1 else st.just(set()))
    col_cuts = data.draw(st.sets(st.integers(1, cols - 1)) if cols > 1 else st.just(set()))
    entries = data.draw(
        st.lists(
            st.fractions(min_value=-99, max_value=99, max_denominator=9),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    s = SuperMatrix(
        Matrix(Shape(rows, cols), Q, entries),
        PartitionType(Shape(rows, cols), row_cuts, col_cuts),
    )
    assert parse_super(render_super(s), Q) == s
    assert super_from_json(super_to_json(s)) == s


def test_flattening_homomorphism_sampled(rng):
    for _ in range(400):
        shape = rand_shape(rng, 4, 4)
        pt = rand_partition(rng, shape)
        s = SuperMatrix(rand_matrix(rng, shape), pt)
        t = SuperMatrix(rand_matrix(rng, shape), pt)
        assert (s * t).base == s.base * t.base
        assert (s + t).base == s.base + t.base
        assert (s * t).ptype == pt and (s + t).ptype == pt


def test_group_and_monoid_laws_sampled(rng):
    for _ in range(200):
        shape = rand_shape(rng, 3, 3)
        pt = rand_partition(rng, shape)
        s, t, u = (SuperMatrix(rand_matrix(rng, shape), pt) for _ in range(3))
        assert (s + t) + u == s + (t + u)
        assert s + t == t + s
        assert s + SuperMatrix(rand_matrix(rng, shape).scale(0), pt) == s
        assert s + (-s) == SuperMatrix((s.base - s.base), pt)
        assert s * t == t * s
        assert (s * t) * u == s * (t * u)
        assert s * super_ones(pt, Q) == s


def test_integer_unit_characterization_small():
    import itertools

    pt_kwargs = dict(col_cuts=(1,))
    for values in itertools.product(range(-2, 3), repeat=3):
        s = SuperMatrix.from_rows([list(values)], Z, **pt_kwargs)
        try:
            inv = super_inverse(s)
            exists = True
        except NotInvertible:
            exists = False
        assert exists == all(v in (1, -1) for v in values)
        if exists:
            assert s * inv == super_ones(s.ptype, Z)

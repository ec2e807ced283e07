"""Dense exact matrices under the natural (componentwise) product.

`A * B` is the natural product, `A @ B` the usual matrix product, `A + B`
entrywise addition.  Matrices are immutable and hashable; every entry
lives in one coefficient domain (see scalars).  A matrix may carry a
partition ("super" matrix): row and column cut lines that split it into
blocks.  Dropping the partition is a homomorphism, so the partition is
just one more field that `+`, `-` and `*` demand to agree and carry over.

The usual product and the usual inverse run on integers: `_lift` turns
each row or column into integer numerators over that line's least common
denominator, the integer kernels work on those, and `_lower` reduces the
result once per entry.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import mul
from typing import NamedTuple

from .errors import (
    DomainMismatch,
    NotAUnit,
    NotInvertible,
    ParseError,
    RaggedCuts,
    ShapeMismatch,
    TooLarge,
    TypeMismatch,
    ZeroDivisorEntry,
    shorten,
)
from .scalars import Domain, Q, Scalar, Z, _Value, domain_from_code


class Shape(NamedTuple):
    rows: int
    cols: int

    def __str__(self):
        return f"{self.rows}x{self.cols}"

    @property
    def size(self):
        return self.rows * self.cols


def _shape(value) -> Shape:
    shape = Shape(*value)
    if shape.rows < 1 or shape.cols < 1:
        raise ValueError(f"invalid shape {shape}")
    return shape


class PartitionType(_Value):
    """Row-cut and column-cut boundary sets for one shape.

    A cut at index k separates row/column k-1 from row/column k, so valid
    cuts lie strictly inside the dimension: 1 <= k <= dim-1.  Empty cut
    sets describe a plain (unpartitioned) matrix.
    """

    __slots__ = ("shape", "row_cuts", "col_cuts")

    def __init__(self, shape, row_cuts=(), col_cuts=()):
        shape = _shape(shape)
        row_cuts = tuple(sorted(set(int(c) for c in row_cuts)))
        col_cuts = tuple(sorted(set(int(c) for c in col_cuts)))
        for c in row_cuts:
            if not 1 <= c <= shape.rows - 1:
                raise ValueError(f"row cut {c} outside (0, {shape.rows})")
        for c in col_cuts:
            if not 1 <= c <= shape.cols - 1:
                raise ValueError(f"column cut {c} outside (0, {shape.cols})")
        self._fill(shape, row_cuts, col_cuts)

    # bound here, not inherited: bench/tracing.py wraps __eq__ found in this
    # class's own __dict__
    __eq__ = _Value.__eq__
    __hash__ = _Value.__hash__

    def __repr__(self):
        return (
            f"PartitionType({self.shape}, rows={list(self.row_cuts)}, "
            f"cols={list(self.col_cuts)})"
        )

    @property
    def is_plain(self):
        return not self.row_cuts and not self.col_cuts


class Matrix(_Value):
    """An immutable rows x cols matrix over one exact domain.

    `partition` is None for a plain matrix and a PartitionType with at
    least one cut otherwise; a cut-free partition counts as none.
    """

    __slots__ = ("shape", "domain", "values", "partition")

    def __init__(self, shape, domain: Domain, values):
        shape = _shape(shape)
        values = tuple(domain.coerce(v) for v in values)
        if len(values) != shape.size:
            raise ValueError(
                f"{shape} needs {shape.size} entries, got {len(values)}"
            )
        self._fill(shape, domain, values, None)

    @classmethod
    def _make(cls, shape, domain, values, partition=None):
        # internal: values already canonical for the domain, partition
        # already checked against the shape and None when cut-free
        self = _new(cls)
        _set_shape(self, shape)
        _set_domain(self, domain)
        _set_values(self, values)
        _set_partition(self, partition)
        return self

    @classmethod
    def from_rows(cls, rows, domain: Domain, row_cuts=(), col_cuts=()):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one entry")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        flat = [v for r in rows for v in r]
        m = cls(Shape(len(rows), cols), domain, flat)
        if row_cuts or col_cuts:
            m = m.with_partition(PartitionType(m.shape, row_cuts, col_cuts))
        return m

    # -- partition -------------------------------------------------------

    def with_partition(self, ptype):
        """The same entries cut by `ptype` (None or cut-free: plain)."""
        if ptype is not None:
            if ptype.shape != self.shape:
                raise ShapeMismatch(
                    f"partition is for {ptype.shape}, matrix is {self.shape}"
                )
            if ptype.is_plain:
                ptype = None
        if ptype is self.partition:
            return self
        return Matrix._make(self.shape, self.domain, self.values, ptype)

    @property
    def base(self):
        """The same entries without a partition."""
        return self.with_partition(None)

    @property
    def ptype(self):
        """The partition; the cut-free PartitionType of the shape when plain."""
        if self.partition is None:
            return PartitionType(self.shape)
        return self.partition

    # -- basic access ----------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return Scalar(self.domain, self.values[i * self.shape.cols + j])

    @property
    def entries(self):
        """Row-major tuple of Scalars."""
        return tuple(Scalar(self.domain, v) for v in self.values)

    def rows(self):
        c = self.shape.cols
        return [list(self.values[i * c : (i + 1) * c]) for i in range(self.shape.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self.domain == other.domain
            and self.values == other.values
            and (self.partition is other.partition or self.partition == other.partition)
        )

    def __hash__(self):
        return hash((self.shape, self.domain, self.values))

    def __repr__(self):
        return f"Matrix({render_matrix(self)!r}, {self.domain.code})"

    def __str__(self):
        return render_matrix(self)

    # -- arithmetic ------------------------------------------------------

    def _check_peer(self, other, same_shape=True):
        """Shape (unless `same_shape` is false), then domain, then partition."""
        if not isinstance(other, Matrix):
            raise TypeError(f"expected a Matrix, got {type(other).__name__}")
        if same_shape and self.shape != other.shape:
            raise ShapeMismatch(f"shapes differ: {self.shape} vs {other.shape}")
        if self.domain != other.domain:
            raise DomainMismatch(
                f"domains differ: {self.domain.code} vs {other.domain.code}"
            )
        if self.partition is not other.partition and self.partition != other.partition:
            raise TypeMismatch(
                f"partitions differ: {self.ptype!r} vs {other.ptype!r}"
            )

    def __add__(self, other):
        self._check_peer(other)
        if self.domain.is_modular:
            n = self.domain.modulus
            values = tuple((a + b) % n for a, b in zip(self.values, other.values))
        else:
            values = tuple(a + b for a, b in zip(self.values, other.values))
        return Matrix._make(self.shape, self.domain, values, self.partition)

    def __neg__(self):
        neg = self.domain.neg
        return Matrix._make(
            self.shape, self.domain, tuple(neg(a) for a in self.values), self.partition
        )

    def __sub__(self, other):
        self._check_peer(other)
        sub = self.domain.sub
        return Matrix._make(
            self.shape,
            self.domain,
            tuple(sub(a, b) for a, b in zip(self.values, other.values)),
            self.partition,
        )

    def __mul__(self, other):
        """Natural product: entrywise multiplication."""
        self._check_peer(other)
        if self.domain.is_modular:
            n = self.domain.modulus
            values = tuple((a * b) % n for a, b in zip(self.values, other.values))
        else:
            values = tuple(a * b for a, b in zip(self.values, other.values))
        return Matrix._make(self.shape, self.domain, values, self.partition)

    def __matmul__(self, other):
        """Usual matrix product; undefined on partitioned matrices."""
        self._check_peer(other, same_shape=False)
        if self.partition is not None:
            raise TypeMismatch("the usual product is undefined on partitioned matrices")
        if self.shape.cols != other.shape.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        n, k, m = self.shape.rows, self.shape.cols, other.shape.cols
        rows, rd = _lift(self.values[i * k : (i + 1) * k] for i in range(n))
        cols, cd = _lift(other.values[j::m] for j in range(m))
        dens = [r * c for r in rd for c in cd]
        return _lower(Shape(n, m), self.domain, _int_matmul(rows, cols), dens)

    def npow(self, k):
        """k-th power under the natural product (k >= 0)."""
        if k < 0:
            raise ValueError("negative power")
        result = ones(self.shape, self.domain).with_partition(self.partition)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def is_zero(self):
        zero = self.domain.zero
        return all(v == zero for v in self.values)

    def scale(self, c):
        """Multiply every entry by the scalar c (same domain)."""
        c = self.domain.coerce(c)
        mul = self.domain.mul
        return Matrix._make(
            self.shape, self.domain, tuple(mul(c, v) for v in self.values), self.partition
        )


# Matrix refuses __setattr__; its slot descriptors are the cheapest way in.
_new = object.__new__
_set_shape, _set_domain, _set_values, _set_partition = (
    Matrix.__dict__[name].__set__ for name in Matrix.__slots__
)


# -- integer kernels -------------------------------------------------------
#
# A FLINT fmpq_mat-style representation with denominators cleared line by
# line (as fmpq_mat_mul_cleared does): each row of the left factor and each
# column of the right one becomes integer numerators over its own least
# common denominator, so entry (i, j) of a product is an integer over
# r_i * c_j.  One denominator for the whole matrix would be the lcm of every
# entry's, which grows without bound when denominators are coprime.  Z, Z+
# and Z_n values are ints already, so their denominators are 1 and the same
# kernels serve every domain.


def _lift(lines):
    """(ints, dens): each line of values as integer numerators over dens[t],
    the least common denominator of line t."""
    ints, dens = [], []
    for line in lines:
        den = lcm(*{v.denominator for v in line})
        if den == 1:
            ints.append([v.numerator for v in line])
        else:
            ints.append([v.numerator * (den // v.denominator) for v in line])
        dens.append(den)
    return ints, dens


def _int_matmul(rows, cols):
    """Row-major product of int rows and int columns: every row . column."""
    return [sum(map(mul, row, col)) for row in rows for col in cols]


def _lower(shape, domain, ints, dens):
    """The plain matrix of `domain` whose entries are ints[i] / dens[i].

    Every den is 1 unless the domain is Q or Q+.
    """
    if domain.is_modular:
        n = domain.modulus
        values = tuple(v % n for v in ints)
    elif domain.is_rational:
        values = tuple(map(Fraction, ints, dens))
    else:
        values = tuple(ints)
    return Matrix._make(shape, domain, values)


def zeros(shape, domain: Domain) -> Matrix:
    shape = _shape(shape)
    return Matrix(shape, domain, [domain.zero] * shape.size)


def ones(shape, domain: Domain) -> Matrix:
    """The all-ones matrix: the identity of the natural product."""
    shape = _shape(shape)
    return Matrix(shape, domain, [domain.one] * shape.size)


def identity(n, domain: Domain) -> Matrix:
    return Matrix(
        Shape(n, n),
        domain,
        [domain.one if i == j else domain.zero for i in range(n) for j in range(n)],
    )


def diagonal(values, domain: Domain) -> Matrix:
    values = list(values)
    n = len(values)
    out = zeros(Shape(n, n), domain).rows()
    for i, v in enumerate(values):
        out[i][i] = v
    return Matrix.from_rows(out, domain)


# -- spec operation surface ----------------------------------------------


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return a + b


def nproduct(a: Matrix, b: Matrix) -> Matrix:
    return a * b


def uproduct(a: Matrix, b: Matrix) -> Matrix:
    return a @ b


def natural_inverse(a: Matrix) -> Matrix:
    """The entrywise inverse: B with A * B = all-ones, carrying A's partition.

    Exists exactly when every entry is a unit of the domain (so never for
    an integer matrix with an entry outside {1, -1}, and never with a 0).
    """
    inv = a.domain.inv
    try:
        values = tuple(inv(v) for v in a.values)
    except NotAUnit as exc:
        raise NotInvertible(str(exc)) from exc
    return Matrix._make(a.shape, a.domain, values, a.partition)


def is_idempotent(a: Matrix) -> bool:
    return a * a == a


def support(a: Matrix) -> "SupportMask":
    zero = a.domain.zero
    return SupportMask(a.shape, [0 if v == zero else 1 for v in a.values])


def main_complement(a: Matrix) -> "SupportMask":
    """The support pattern of the unique largest matrices orthogonal to a."""
    return support(a).complement()


def is_orthogonal(a: Matrix, b: Matrix) -> bool:
    return (a * b).is_zero()


def divides(a: Matrix, b: Matrix):
    """Entrywise divisibility over Z: the quotient matrix, or None.

    Every entry of `a` must be nonzero; negative entries divide as usual
    in Z.  The operands must share their partition, which the quotient
    carries.
    """
    if a.domain != Z or b.domain != Z:
        raise DomainMismatch("divides is defined over Z")
    a._check_peer(b)
    quotient = []
    for x, y in zip(a.values, b.values):
        if x == 0:
            raise ZeroDivisorEntry("divisor matrix has a zero entry")
        q, r = divmod(y, x)
        if r != 0:
            return None
        quotient.append(q)
    return Matrix._make(a.shape, Z, tuple(quotient), a.partition)


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def is_prime_row(a: Matrix) -> bool:
    """True iff a is a 1 x n integer row with every entry a positive prime."""
    if a.domain != Z or a.shape.rows != 1:
        return False
    return all(_is_prime(v) for v in a.values)


def zero_divisor_witness(a: Matrix):
    """A canonical annihilator of `a`, or None when a has full support.

    Returns the {0,1} matrix supported exactly on the zero-set of `a`;
    any matrix supported there works equally well.
    """
    if a.domain.is_modular:
        raise DomainMismatch("witness construction expects a zero-divisor-free scalar domain")
    zero, one = a.domain.zero, a.domain.one
    bits = [one if v == zero else zero for v in a.values]
    if all(b == zero for b in bits):
        return None
    return Matrix(a.shape, a.domain, bits)


# -- support masks ---------------------------------------------------------


class SupportMask(_Value):
    """A {0,1} pattern of positions of one shape.

    Doubles as a trivial idempotent (over Z, Q and the cones these are
    the only idempotents) and as the description of a coordinate
    subspace.
    """

    __slots__ = ("shape", "bits")

    def __init__(self, shape, bits):
        shape = _shape(shape)
        bits = tuple(int(b) for b in bits)
        if len(bits) != shape.size:
            raise ValueError(f"{shape} needs {shape.size} bits")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("mask bits must be 0 or 1")
        self._fill(shape, bits)

    @classmethod
    def from_int(cls, shape, n):
        shape = _shape(shape)
        bits = [(n >> (shape.size - 1 - i)) & 1 for i in range(shape.size)]
        return cls(shape, bits)

    def to_int(self):
        n = 0
        for b in self.bits:
            n = (n << 1) | b
        return n

    def __le__(self, other):
        """Containment of supports."""
        if self.shape != other.shape:
            raise ShapeMismatch(f"shapes differ: {self.shape} vs {other.shape}")
        return all(a <= b for a, b in zip(self.bits, other.bits))

    def __and__(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch(f"shapes differ: {self.shape} vs {other.shape}")
        return SupportMask(self.shape, [a & b for a, b in zip(self.bits, other.bits)])

    def __or__(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch(f"shapes differ: {self.shape} vs {other.shape}")
        return SupportMask(self.shape, [a | b for a, b in zip(self.bits, other.bits)])

    def complement(self):
        return SupportMask(self.shape, [1 - b for b in self.bits])

    @property
    def popcount(self):
        return sum(self.bits)

    def is_zero(self):
        return self.popcount == 0

    def is_full(self):
        return self.popcount == self.shape.size

    def positions(self):
        """Sorted (row, col) pairs of the set bits."""
        c = self.shape.cols
        return [(i // c, i % c) for i, b in enumerate(self.bits) if b]

    def to_matrix(self, domain: Domain) -> Matrix:
        one, zero = domain.one, domain.zero
        return Matrix._make(
            self.shape, domain, tuple(one if b else zero for b in self.bits)
        )

    def __repr__(self):
        return f"SupportMask({self.shape}, {''.join(map(str, self.bits))})"

    def __str__(self):
        return render_matrix(self.to_matrix(Z))


# The most elements `trivial_idempotents`, and by default `Carrier.elements`
# in `structures`, enumerate.
DEFAULT_MAX_ELEMENTS = 4096


def trivial_idempotent_count(shape) -> int:
    """2^(rows*cols); no enumeration, so no size bound."""
    return 1 << _shape(shape).size


def trivial_idempotents(shape):
    """All {0,1} masks of the shape in row-major lexicographic order."""
    shape = _shape(shape)
    # 2^size > DEFAULT_MAX_ELEMENTS, decided without computing the power
    if shape.size >= DEFAULT_MAX_ELEMENTS.bit_length():
        raise TooLarge(
            f"{shape} has 2^{shape.size} trivial idempotents; "
            f"bound is {DEFAULT_MAX_ELEMENTS}"
        )
    return [SupportMask.from_int(shape, n) for n in range(1 << shape.size)]


# -- text and JSON forms ---------------------------------------------------
#
#   [9 0 2 | 0 1 ; 0 1 0 | 5 0 ; 1 0 0 | 2 0]   column cuts via `|`
#   [1 2 ; -- ; 3 4]                            row cut via a `--` pseudo-row
#
# `|` positions must agree across all rows, `--` rows must contain nothing
# else; both violations raise RaggedCuts.


def render_matrix(a: Matrix) -> str:
    """Canonical literal: `[a b c;d e f]`, cuts shown as `|` and `--`."""
    c = a.shape.cols
    render = a.domain.render
    row_cuts, col_cuts = (), ()
    if a.partition is not None:
        row_cuts, col_cuts = a.partition.row_cuts, a.partition.col_cuts
    rows = []
    for i in range(a.shape.rows):
        if i in row_cuts:
            rows.append("--")
        cells = [render(v) for v in a.values[i * c : (i + 1) * c]]
        for j in reversed(col_cuts):
            cells.insert(j, "|")
        rows.append(" ".join(cells))
    return "[" + ";".join(rows) + "]"


def parse_literal(text: str, domain: Domain = Q) -> Matrix:
    """Parse a matrix literal, partition marks included.

    Errors carry the line and column of the bad entry, else of its row,
    else of the literal.
    """
    return _parse_span(text, 0, len(text), domain)


def _location(text, pos):
    """(line, column) of index `pos` of `text`, both counted from 1."""
    return text.count("\n", 0, pos) + 1, pos - (text.rfind("\n", 0, pos) + 1) + 1


def _parse_span(text, start, end, domain):
    """Parse the literal text[start:end]; error positions count in all of `text`."""
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
    return Matrix.from_rows(rows, domain, row_cuts=row_cuts, col_cuts=cut_layouts[0])


def parse_matrix(text: str, domain: Domain = Q) -> Matrix:
    """Parse a plain literal `[a b c ; d e f]`; partition marks are refused."""
    m = parse_literal(text, domain)
    if m.partition is not None:
        raise ParseError("plain matrix literal cannot carry partition marks")
    return m


# What decoding malformed JSON input raises before any check of ours can:
# bad syntax, a missing key, a number or list where text belongs.
JSON_INPUT_ERRORS = (ValueError, KeyError, TypeError, AttributeError)


def _json_int(value, what):
    """`value` if it is a JSON integer; floats, strings and booleans are refused."""
    if type(value) is not int:
        raise ParseError(f"{what} must be a JSON integer, got {shorten(repr(value))}")
    return value


def _json_cuts(obj):
    """(row_cuts, col_cuts) of a JSON object, each cut a JSON integer."""
    return tuple(
        [_json_int(c, key) for c in obj.get(key, ())] for key in ("row_cuts", "col_cuts")
    )


def matrix_to_json(a: Matrix) -> dict:
    """Canonical JSON form; cut lists only when the matrix is partitioned."""
    render = a.domain.render
    c = a.shape.cols
    obj = {
        "domain": a.domain.code,
        "rows": a.shape.rows,
        "cols": a.shape.cols,
        "entries": [
            [render(v) for v in a.values[i * c : (i + 1) * c]]
            for i in range(a.shape.rows)
        ],
    }
    if a.partition is not None:
        obj["row_cuts"] = list(a.partition.row_cuts)
        obj["col_cuts"] = list(a.partition.col_cuts)
    return obj


def matrix_from_json(obj) -> Matrix:
    """Inverse of matrix_to_json, from a dict or JSON text."""
    try:
        if isinstance(obj, str):
            obj = json.loads(obj)
        domain = domain_from_code(obj["domain"])
        rows = [[domain.parse(v) for v in row] for row in obj["entries"]]
        m = Matrix.from_rows(rows, domain, *_json_cuts(obj))
        declared = Shape(_json_int(obj["rows"], "rows"), _json_int(obj["cols"], "cols"))
    except JSON_INPUT_ERRORS as exc:
        raise ParseError(f"malformed matrix JSON: {exc!r}") from None
    if m.shape != declared:
        raise ParseError("declared shape disagrees with entries")
    return m


def usual_inverse(a: Matrix) -> Matrix:
    """Exact inverse of a square rational matrix by Bareiss elimination.

    Fraction-free Gauss-Jordan (Bareiss 1968) on [D*A | D], where D is
    the diagonal of row denominators that makes D*A integral: every step
    divides exactly by the previous pivot, so all intermediate values stay
    integers; each entry is divided by the final pivot (the determinant of
    D*A, up to sign) once at the end.
    Only what monicization of usual-product polynomials needs; raises
    NotInvertible on singular input.
    """
    if a.partition is not None:
        raise TypeMismatch("the usual inverse is undefined on partitioned matrices")
    if a.shape.rows != a.shape.cols:
        raise ShapeMismatch("only square matrices have a usual inverse")
    if not a.domain.is_rational or a.domain.is_cone:
        raise DomainMismatch("usual inverse is computed over Q")
    n = a.shape.rows
    rows, dens = _lift(a.values[i * n : (i + 1) * n] for i in range(n))
    aug = [
        row + [d if j == i else 0 for j in range(n)]
        for i, (row, d) in enumerate(zip(rows, dens))
    ]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise NotInvertible("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        p = top[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * v - f * w) // prev for v, w in zip(aug[r], top)]
        prev = p
    # the left half is now prev * I
    return _lower(a.shape, a.domain, [v for row in aug for v in row[n:]], repeat(prev))

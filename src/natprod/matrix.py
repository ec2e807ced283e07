"""Dense exact matrices under the natural (componentwise) product.

`A * B` is the natural product, `A @ B` the usual matrix product, `A + B`
entrywise addition.  Matrices are immutable and hashable; every entry
lives in one coefficient domain (see scalars).  A matrix may carry a
partition ("super" matrix): row and column cut lines that split it into
blocks.  Dropping the partition is a homomorphism, so the partition is
just one more field that `+`, `-` and `*` demand to agree and carry over.

Every Q/Q+ result is built once per entry from its integer numerator and
denominator by `scalars._ratio`; no operator between two Fractions runs on
a per-entry path.  `+`, `-`, `*` and `scale` share one entrywise kernel,
`Matrix._entrywise`: on Q and Q+ it forms those integers entry by entry, on
Z, Z+ and Z_n it maps the int operator over the entries.  The usual
product and the usual inverse run on integers: `_lift` turns each row or
column into integer numerators over that line's least common denominator,
the integer kernels work on those, and `_lower` reduces the result once
per entry.  Past a shape threshold the kernels pack each row of the right
factor into one int (Kronecker substitution), so one big-int multiply
serves a whole output row; see "integer kernels" below.
"""

from __future__ import annotations

import re
import struct
from itertools import chain, repeat
from math import lcm
from operator import add, attrgetter, mod, mul, sub
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
    UnsupportedDomain,
    ZeroDivisorEntry,
    shorten,
)
from .scalars import (
    Domain,
    Q,
    Scalar,
    Z,
    _ratio,
    _Value,
    domain_from_code,
    plain_entries,
    render_values,
)


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
        return _from_rows(rows, domain, row_cuts, col_cuts, domain.coerce)

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
        """Entry (i, j); each index counts from the end when negative and
        raises IndexError when outside its own axis."""
        i, j = key
        rows, cols = self.shape
        return Scalar(self.domain, self.values[range(rows)[i] * cols + range(cols)[j]])

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
            and self.domain is other.domain
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
        if self.domain is not other.domain:
            raise DomainMismatch(
                f"domains differ: {self.domain.code} vs {other.domain.code}"
            )
        if self.partition is not other.partition and self.partition != other.partition:
            raise TypeMismatch(
                f"partitions differ: {self.ptype!r} vs {other.ptype!r}"
            )

    def _entrywise(self, ys, op):
        """`op` (`add`, `sub` or `mul`) of each entry and the matching item
        of `ys`, in self's shape, domain and partition: `+`, `-`, `*` and
        `scale` in one loop.  On Q and Q+ each result is built once by
        `_ratio` from the two entries' integers; Z_n reduces each result;
        on a cone the first difference below zero raises through
        `domain.sub`, with its message."""
        domain, xs = self.domain, self.values
        if domain.is_rational and op is mul:
            values = tuple(
                _ratio(a._numerator * b._numerator, a._denominator * b._denominator)
                for a, b in zip(xs, ys)
            )
        elif domain.is_rational:
            values = tuple(
                _ratio(
                    op(a._numerator * b._denominator, b._numerator * a._denominator),
                    a._denominator * b._denominator,
                )
                for a, b in zip(xs, ys)
            )
        elif domain.is_modular:
            values = tuple(map(mod, map(op, xs, ys), repeat(domain.modulus)))
        else:
            values = tuple(map(op, xs, ys))
        if op is sub and domain.is_cone:
            sign = attrgetter("_numerator") if domain.is_rational else None
            if min(values, key=sign) < 0:
                for a, b, v in zip(xs, ys, values):
                    if v < 0:
                        domain.sub(a, b)  # raises the cone's ConeViolation for a - b
        return Matrix._make(self.shape, domain, values, self.partition)

    def __add__(self, other):
        """Entrywise sum."""
        self._check_peer(other)
        return self._entrywise(other.values, add)

    def __neg__(self):
        neg = self.domain.neg
        return Matrix._make(
            self.shape, self.domain, tuple(neg(a) for a in self.values), self.partition
        )

    def __sub__(self, other):
        """Entrywise difference; over a cone a negative entry raises."""
        self._check_peer(other)
        return self._entrywise(other.values, sub)

    def __mul__(self, other):
        """Natural product: entrywise multiplication."""
        self._check_peer(other)
        return self._entrywise(other.values, mul)

    def __matmul__(self, other):
        """Usual matrix product; undefined on partitioned matrices."""
        if self.partition is not None or isinstance(other, Matrix) and other.partition is not None:
            raise TypeMismatch("the usual product is undefined on partitioned matrices")
        self._check_peer(other, same_shape=False)
        if self.shape.cols != other.shape.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        n, k, m = self.shape.rows, self.shape.cols, other.shape.cols
        rows, rd = _lift((self.values[i * k : (i + 1) * k] for i in range(n)), self.domain)
        cols, cd = _lift((other.values[j::m] for j in range(m)), self.domain)
        dens = [r * c for r in rd for c in cd] if self.domain.is_rational else None
        size = _field_size(rows, cols, m, k)
        right = _pack(cols, size) if size else cols
        return _lower(Shape(n, m), self.domain, _int_matmul(rows, right, m, size), dens)

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
        # every domain's zero, 0 or Fraction(0), is the one falsy value
        return not any(self.values)

    def scale(self, c):
        """Multiply every entry by the scalar c (same domain): the natural
        product with c in every position."""
        return self._entrywise(repeat(self.domain.coerce(c)), mul)


# Matrix refuses __setattr__; its slot descriptors are the cheapest way in.
_new = object.__new__
_set_shape, _set_domain, _set_values, _set_partition = (
    Matrix.__dict__[name].__set__ for name in Matrix.__slots__
)


def _from_rows(rows, domain, row_cuts, col_cuts, coerce=None):
    """The matrix of `rows` cut by the given cuts: entries canonical for
    `domain` already, or made so by `coerce` once the rows are checked."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        raise ValueError("matrix needs at least one entry")
    cols = len(rows[0])
    if any(len(r) != cols for r in rows):
        raise ValueError("ragged rows")
    values = [v for r in rows for v in r]
    values = values if coerce is None else map(coerce, values)
    return _from_values(Shape(len(rows), cols), domain, values, row_cuts, col_cuts)


def _from_values(shape, domain, values, row_cuts, col_cuts):
    """The matrix of the row-major `values`, canonical for `domain`, cut
    by the given cuts."""
    # a cut list that is not empty names a cut, or PartitionType refuses it
    ptype = PartitionType(shape, row_cuts, col_cuts) if row_cuts or col_cuts else None
    return Matrix._make(shape, domain, tuple(values), ptype)


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
#
# Kronecker substitution (Kronecker 1882; Harvey, J. Symb. Comput. 2009):
# `_pack` turns each row of the right factor into one int, entry j in a
# signed field of `size` bytes at bit 8 * size * j, so row i of the product
# is sum(map(mul, row_i, packed)) and CPython's C big-int multiply runs the
# inner loop.  Each field of that sum adds `terms` products a * b, so
# |field| <= terms * max|a| * max|b| < 2^(8 * size - 1) by the choice of
# size: no field reaches its neighbour.  A negative field borrows from the
# one above, so `_unpack` adds 2^(8 * size - 1) to every field first; then
# each is unsigned, and int.to_bytes and struct split them exactly.
#
# Packing pays once per right row and splitting once per output entry, so
# it wins only with enough left rows and enough fields.  Kernel time packed
# / plain, Z entries in -9..9, 32 terms, Python 3.11:
#
#   rows \ fields   4     6     8    12    16    32    64
#        4        2.0   1.6   1.2   1.0   0.8   0.7   0.6
#        8        1.4   1.1   0.9   0.6   0.5   0.4   0.3
#       16        1.0   0.8   0.6   0.4   0.4   0.3   0.2
#       64        0.7   0.6   0.5   0.3   0.3   0.2   0.1
#
# Sums of 8 or 64 terms read alike, so a product packs when its left rows
# and its fields both reach _PACK_MIN.  A field wider than 8 bytes doubles
# the limbs the packed multiply walks (8x128 @ 128x8 over Q, denominators
# up to 10^7: plain 50 ms, packed 140 ms), so such a product stays plain.
_PACK_MIN = 8
# the signed little-endian struct formats by byte size
_FIELD_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}

# Kronecker substitution over degrees (`matpoly`, in its classical form): a
# polynomial packs each entry position into one int with a field per degree,
# lowest first, 0 for a missing degree.  For `*` the two ints of an entry
# position multiply once, and field k of the product is the sum over
# i + j = k of a_i * b_j: at most min(ta, tb) products for factors of ta and
# tb terms, so |field| <= min(ta, tb) * max|a| * max|b|.  For `@` each left
# entry A[r][t] packs over its la degrees, and each right row t packs column
# by column, each column's run of lb degrees padded to la + lb - 1 fields:
# field c * (la + lb - 1) + k of sum_t A[r][t] * B[t] is entry (r, c) of
# degree k, no two columns overlap, and each field adds n times the
# products of `*`.  `_width` sizes both bounds; `_pack` and `_unpack` move
# the fields as above.
#
# Packing pays per term and splits per output field, so it wins when the
# pairs of terms are many and the spans hold few holes.  Time packed /
# plain, t terms a side spread over t or 1.5t degrees, entries as the
# `algebra` benchmark draws them, Python 3.11:
#
#             * Z 3x3     * Q 3x3     @ Z 3x3     @ Q 3x3     @ Q 8x8
#      t     t   1.5t    t   1.5t    t   1.5t    t   1.5t    t   1.5t
#      2   1.05  1.82  1.51  1.50  1.02  1.11  0.98  1.05  0.97  1.14
#      3   1.29  2.32  1.28  1.35  0.78  0.74  0.90  0.87  0.88  0.85
#      4   0.79  1.30  0.99  1.16  0.78  0.61  0.77  0.79  0.82  0.94
#      8   0.72  0.83  0.90  0.94  0.42  0.42  0.57  0.66  0.79  1.00
#     16   0.37  0.46  0.64  0.71  0.28  0.55  0.50  0.59  0.69  0.85
#     31   0.25  0.24  0.41  0.53  0.17  0.21  0.37  0.44  0.64  0.80
#
# Over 2t degrees `@` Q 8x8 reads 1.08 to 1.21 from t = 3 on.  So a factor
# packs only when it spans at most 3/2 of its term count of degrees, and a
# product packs from 64 pairs of terms for `*` and 16 for `@`: t = 8 is the
# first row that wins in every `*` column, and t = 3 of `@` read 1.02 on
# 2x2 and 1.16 on 3x3 Z in a second run.  A field past 8 bytes stays
# plain, as for columns.


def _lift(lines, domain):
    """(ints, dens): each line of `domain` values as integer numerators over
    dens[t], the least common denominator of line t.  Off Q and Q+ the
    values are ints and every den is 1."""
    if not domain.is_rational:
        ints = list(map(list, lines))
        return ints, [1] * len(ints)
    ints, dens = [], []
    for line in lines:
        den = lcm(*{v._denominator for v in line})
        if den == 1:
            ints.append([v._numerator for v in line])
        else:
            ints.append([v._numerator * (den // v._denominator) for v in line])
        dens.append(den)
    return ints, dens


def _field_size(left, right, fields, terms):
    """Bytes per field for packing a product with `fields` columns whose
    entries each add `terms` products of a `left` by a `right` int (both
    lists of int lines, the packed int reused by every left line); 0, for
    the plain kernel, when the left lines or the fields are fewer than
    _PACK_MIN or a field would need more than 8 bytes."""
    if min(len(left), fields) < _PACK_MIN:
        return 0
    # at least one left factor of 1 bounds every right entry, which _pack stores
    return _width(terms * max(1, _max_abs(left)) * _max_abs(right))


def _max_abs(lines):
    """The largest absolute value in the int lines `lines`; 0 if none."""
    return max(map(abs, chain.from_iterable(lines)), default=0)


def _width(bound):
    """The least field size in bytes, 1, 2, 4 or 8, whose signed fields hold
    every int of absolute value at most `bound`; 0 past 8 bytes."""
    # bound < 2^(8 * size - 1)
    bits = bound.bit_length() + 1
    return next((size for size in _FIELD_FORMATS if 8 * size >= bits), 0)


def _bias(fields, size):
    """2^(8 * size - 1) in each of `fields` fields of `size` bytes."""
    return int.from_bytes((1 << 8 * size - 1).to_bytes(size, "little") * fields, "little")


def _pack(cols, size):
    """The rows of the int matrix with columns `cols`, each one int whose
    signed field j of `size` bytes holds entry j."""
    values = list(chain.from_iterable(zip(*cols)))
    data = struct.pack(f"<{len(values)}{_FIELD_FORMATS[size]}", *values)
    # two's complement fields read as one unsigned int: flipping each top bit
    # turns field v into v + 2^(8 * size - 1), from which the bias subtracts
    step, bias = size * len(cols), _bias(len(cols), size)
    return [
        (int.from_bytes(data[i : i + step], "little") ^ bias) - bias
        for i in range(0, len(data), step)
    ]


def _unpack(sums, fields, size):
    """The signed fields of `size` bytes of every packed row sum in `sums`,
    row-major; each field must lie in [-2^(8 * size - 1), 2^(8 * size - 1))."""
    bias = _bias(fields, size)
    # with the bias every field is a digit in [0, 2^(8 * size)), so the bytes
    # of the sum are the fields' own; flipping each top bit back leaves the
    # field in two's complement
    data = b"".join([((s + bias) ^ bias).to_bytes(size * fields, "little") for s in sums])
    return struct.unpack(f"<{len(sums) * fields}{_FIELD_FORMATS[size]}", data)


def _int_matmul(rows, right, fields, size):
    """Row-major product of int rows and the right factor: its columns when
    `size` is 0, else its rows packed by _pack(columns, size)."""
    if size:
        return _unpack([sum(map(mul, row, right)) for row in rows], fields, size)
    return [sum(map(mul, row, col)) for row in rows for col in right]


def _lower(shape, domain, ints, dens):
    """The plain matrix of `domain` whose entries are ints[i] / dens[i].

    `dens` is read on Q and Q+ only (None elsewhere, where every den is 1);
    a den may be negative.
    """
    if domain.is_modular:
        n = domain.modulus
        values = tuple(v % n for v in ints)
    elif domain.is_rational:
        values = tuple(map(_ratio, ints, dens))
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


# -- entrywise questions ---------------------------------------------------


def natural_inverse(a: Matrix) -> Matrix:
    """The entrywise inverse: B with A * B = all-ones, carrying A's partition.

    Exists exactly when every entry is a unit of the domain (so never for
    an integer matrix with an entry outside {1, -1}, and never with a 0).
    """
    try:
        values = tuple(map(a.domain.inv, a.values))
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


def _orthogonal_mask(x: Matrix) -> "SupportMask":
    """The support of {y : x *n y = 0}: x's main complement, over
    zero-divisor-free scalars only; over Z_n the annihilator of x is
    generally larger than a coordinate pattern."""
    if x.domain.is_modular:
        raise UnsupportedDomain("the annihilator over Z_n is not a support pattern")
    return main_complement(x)


def is_orthogonal(a: Matrix, b: Matrix) -> bool:
    return (a * b).is_zero()


def divides(a: Matrix, b: Matrix):
    """Entrywise divisibility over Z: the quotient matrix, or None.

    Every entry of `a` must be nonzero; negative entries divide as usual
    in Z.  The operands must share their partition, which the quotient
    carries.
    """
    if a.domain is not Z or b.domain is not Z:
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
    if a.domain is not Z or a.shape.rows != 1:
        return False
    return all(_is_prime(v) for v in a.values)


def zero_divisor_witness(a: Matrix):
    """A canonical annihilator of `a`, or None when a has full support.

    Returns the {0,1} matrix supported exactly on the zero-set of `a`;
    any matrix supported there works equally well.
    """
    if a.domain.is_modular:
        raise DomainMismatch("witness construction expects a zero-divisor-free scalar domain")
    mask = main_complement(a)
    return None if mask.is_zero() else mask.to_matrix(a.domain)


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
    lines = _text_rows(a)
    if a.partition is None:
        return "[" + ";".join(map(" ".join, lines)) + "]"
    rows = []
    for i, cells in enumerate(lines):
        if i in a.partition.row_cuts:
            rows.append("--")
        for j in reversed(a.partition.col_cuts):
            cells.insert(j, "|")
        rows.append(" ".join(cells))
    return "[" + ";".join(rows) + "]"


def _text_rows(a: Matrix) -> list:
    """The entries of `a` as text, one list per row."""
    texts = render_values(a.values)
    c = a.shape.cols
    return [texts[i : i + c] for i in range(0, len(texts), c)]


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

    # Every row's entries up to the first misplaced mark or empty row, then
    # one parse of them all: an entry's error comes before a later row's.
    texts = []  # the entries, row after row
    rows = []  # (chunk, pos, index in `texts` of its first entry, column cuts)
    row_cuts = []
    pending_cut = False
    refusal = None
    for chunk, pos in raw_rows:
        tokens = chunk.replace("|", " | ").split()
        if tokens == ["--"]:
            if not rows or pending_cut:
                refusal = RaggedCuts("misplaced -- row cut", *_location(text, pos))
                break
            pending_cut = True
            continue
        first, cuts = len(texts), []
        rows.append((chunk, pos, first, cuts))
        if "|" not in chunk and "--" not in tokens:
            texts += tokens  # a row without marks: every token is an entry
        else:
            for tok in tokens:
                if tok == "|":
                    if len(texts) == first:
                        refusal = RaggedCuts("column cut before any entry", *_location(text, pos))
                        break
                    cuts.append(len(texts) - first)
                elif tok == "--":
                    refusal = RaggedCuts(
                        "-- must stand alone as a pseudo-row", *_location(text, pos)
                    )
                    break
                else:
                    texts.append(tok)
        if refusal is None and len(texts) == first:
            refusal = ParseError("empty row", *_location(text, pos))
        if refusal is not None:
            break
        if pending_cut:
            row_cuts.append(len(rows) - 1)
            pending_cut = False

    values = plain_entries(domain, texts)
    if values is None:  # one at a time: the first entry refused raises
        values = []
        for tok in texts:
            try:
                values.append(domain.parse(tok))
            except ParseError as exc:
                # entry k of its row is its row's token k plus the cuts before it
                k = len(values)
                chunk, pos, first, cuts = next(row for row in reversed(rows) if row[2] <= k)
                k -= first
                starts = [t.start() for t in re.finditer(r"\||[^\s|]+", chunk)]
                at = pos + starts[k + sum(c <= k for c in cuts)]
                raise ParseError(f"bad entry: {exc.reason}", *_location(text, at)) from None
    if refusal is not None:
        raise refusal
    if pending_cut:
        raise RaggedCuts("trailing -- row cut", *_location(text, start))
    bounds = [first for _, _, first, _ in rows] + [len(texts)]
    if any(j - i != bounds[1] for i, j in zip(bounds, bounds[1:])):
        raise ParseError("ragged rows", *_location(text, start))
    col_cuts = rows[0][3]
    if any(cuts != col_cuts for _, _, _, cuts in rows):
        raise RaggedCuts("column cuts differ between rows", *_location(text, start))
    if any(c >= bounds[1] for c in col_cuts):
        raise RaggedCuts("column cut after the last entry", *_location(text, start))
    return _from_values(Shape(len(rows), bounds[1]), domain, values, row_cuts, col_cuts)


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


def _json_array(value, what):
    """`value` if it is a JSON array (a list or tuple from Python); a string,
    number, object or null is refused."""
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{what} must be a JSON array, got {shorten(repr(value))}")
    return value


def _json_cuts(obj):
    """(row_cuts, col_cuts) of a JSON object, each cut a JSON integer."""
    return tuple(
        [_json_int(c, key) for c in obj.get(key, ())] for key in ("row_cuts", "col_cuts")
    )


def matrix_to_json(a: Matrix) -> dict:
    """Canonical JSON form; cut lists only when the matrix is partitioned."""
    obj = {
        "domain": a.domain.code,
        "rows": a.shape.rows,
        "cols": a.shape.cols,
        "entries": _text_rows(a),
    }
    if a.partition is not None:
        obj["row_cuts"] = list(a.partition.row_cuts)
        obj["col_cuts"] = list(a.partition.col_cuts)
    return obj


def matrix_from_json(obj) -> Matrix:
    """Inverse of matrix_to_json, from a dict or JSON text."""
    try:
        if isinstance(obj, str):
            import json

            obj = json.loads(obj)
        domain = domain_from_code(obj["domain"])
        entries = _json_array(obj["entries"], "entries")
        # every row's entries up to the first that is not an array, then
        # one parse of them all
        texts, bounds, refusal = [], [0], None
        for row in entries:
            try:
                texts += _json_array(row, "a row of entries")
            except ParseError as exc:
                refusal = exc
                break
            bounds.append(len(texts))
        values = plain_entries(domain, texts)
        if values is None:
            values = [domain.parse(v) for v in texts]
        if refusal is not None:
            raise refusal
        rows = [values[i:j] for i, j in zip(bounds, bounds[1:])]
        m = _from_rows(rows, domain, *_json_cuts(obj))
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
    rows, dens = _lift((a.values[i * n : (i + 1) * n] for i in range(n)), a.domain)
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

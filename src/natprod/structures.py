"""Finite-structure analysis and the support-mask subspace lattice.

A Carrier is a finite, enumerable family of same-shape matrices with one
binary operation (natural product or addition).  `analyze` produces a
full report: closure, associativity, commutativity, identity,
idempotents, zero divisors, maximal subgroups at idempotents, and a
Smarandache witness (a proper subset forming a group of size >= 2).

Every finite-structure question reads its products from one private
dense product table, `_Table`: `rows[a][b]` is the index of a·b, and a
product that leaves the family is an index past its end.  The questions
read whole rows, with no method call per product.  Both operations act
entrywise, so an enumerated carrier S^k is a direct power of its
one-cell carrier S, and its table (`_Power`) reads every product from
the table of the cell's scalar values under the domain's own `*` or `+`,
with no matrix product, even when the products leave the members.  Its
idempotents, the ideal of a member and its maximal subgroups are products
of the cell's, and a member's matrix is built only when an answer
reports it.  An explicit carrier answers them by walking its rows.

Subspaces here are coordinate subspaces described by support masks: the
matrices orthogonal to x under the natural product are exactly those
supported on the complement of x's support.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

from .errors import DomainMismatch, NotMember, ShapeMismatch, TooLarge, UnsupportedDomain
from .matrix import (
    DEFAULT_MAX_ELEMENTS,
    Matrix,
    Shape,
    SupportMask,
    _orthogonal_mask,
    _shape,
    render_matrix,
    support,
)
from .scalars import Domain, Z_PLUS, _Value

NATURAL_PRODUCT = "nproduct"
ADDITION = "add"

ASSOC_EXHAUSTIVE_LIMIT = 64
ANALYZE_MAX_ELEMENTS = 1024

_BYTES = bytes(range(256))  # the identity `bytes.translate` table


class Carrier(_Value):
    """A finite family of same-shape, same-domain matrices plus one operation."""

    __slots__ = ("kind", "shape", "domain", "members", "op")

    def __init__(self, kind, shape, domain, members, op):
        if op not in (NATURAL_PRODUCT, ADDITION):
            raise ValueError(f"unknown operation {op!r}")
        self._fill(kind, shape, domain, members, op)

    @classmethod
    def masks(cls, shape, domain: Domain = Z_PLUS, op=NATURAL_PRODUCT):
        """All {0,1} matrices of the shape (the trivial idempotents)."""
        return cls("masks", _shape(shape), domain, None, op)

    @classmethod
    def all_matrices(cls, shape, domain: Domain, op=NATURAL_PRODUCT):
        """Every matrix of the shape over a finite modular domain."""
        if not domain.is_modular:
            raise UnsupportedDomain("full enumeration needs a finite domain Z_n")
        return cls("all", _shape(shape), domain, None, op)

    @classmethod
    def explicit(cls, matrices, op=NATURAL_PRODUCT):
        matrices = tuple(matrices)
        if not matrices:
            raise ValueError("explicit carrier needs at least one member")
        shape, domain = matrices[0].shape, matrices[0].domain
        for m in matrices:
            if m.shape != shape or m.domain is not domain:
                raise ShapeMismatch("explicit members must share shape and domain")
        if len(set(matrices)) != len(matrices):
            raise ValueError("explicit members must be pairwise distinct")
        return cls("explicit", shape, domain, matrices, op)

    @property
    def cell(self):
        """The values one entry takes, zero first, or None for an explicit
        carrier: an enumerated carrier holds every row-major tuple of them."""
        if self.kind == "masks":
            return (self.domain.zero, self.domain.one)
        if self.kind == "all":
            return range(self.domain.modulus)
        return None

    def cardinality(self):
        cell = self.cell
        if cell is None:
            return len(self.members)
        # len() of a range stops at sys.maxsize; a modulus may be larger
        return (cell.stop if isinstance(cell, range) else len(cell)) ** self.shape.size

    def elements(self, max_elements=DEFAULT_MAX_ELEMENTS):
        """Members in canonical (row-major lexicographic) order."""
        self._enumerable(max_elements)
        cell = self.cell
        if cell is None:
            return tuple(sorted(self.members, key=lambda m: m.values))
        return _matrices(self.shape, self.domain, [cell] * self.shape.size)

    def _enumerable(self, max_elements):
        """The number of members, or TooLarge past `max_elements`.  An
        enumerated carrier has at least 2^size members: sizes from the
        bound's bit length up are refused before any power is computed."""
        if self.cell is None or self.shape.size < max_elements.bit_length():
            n = self.cardinality()
            if n <= max_elements:
                return n
        raise TooLarge(
            f"{self.kind} carrier of shape {self.shape} has more than {max_elements} elements"
        )

    def __contains__(self, m):
        """Membership without enumerating the carrier.  An enumerated
        carrier holds no partitioned matrix; an explicit one holds its
        members, partitioned or not."""
        cell = self.cell
        if cell is None:
            return m in self.members
        return (
            isinstance(m, Matrix)
            and m.shape == self.shape
            and m.domain is self.domain
            and m.partition is None
            and all(v in cell for v in m.values)
        )

    def apply(self, a: Matrix, b: Matrix) -> Matrix:
        return a * b if self.op == NATURAL_PRODUCT else a + b

    def __repr__(self):
        return f"Carrier({self.kind}, {self.shape}, {self.domain.code}, op={self.op})"


@dataclass(frozen=True)
class StructureReport:
    carrier: Carrier
    closed: bool
    closure_witness: tuple | None
    associative: bool
    associativity_mode: str  # "exhaustive" or "sampled(N)"
    associativity_witness: tuple | None
    commutative: bool
    commutativity_witness: tuple | None
    identity: Matrix | None
    idempotents: tuple
    zero_divisor_pairs: tuple
    max_subgroups: tuple  # ((idempotent, members), ...)
    smarandache: tuple | None

    def to_json(self) -> dict:
        lit = cache(render_matrix)  # a member recurs in many pairs: render it once

        def lits(seq):
            return None if seq is None else [lit(m) for m in seq]

        return {
            "carrier": {
                "kind": self.carrier.kind,
                "shape": [self.carrier.shape.rows, self.carrier.shape.cols],
                "domain": self.carrier.domain.code,
                "op": self.carrier.op,
                "cardinality": self.carrier.cardinality(),
            },
            "closed": self.closed,
            "closure_witness": lits(self.closure_witness),
            "associative": self.associative,
            "associativity_mode": self.associativity_mode,
            "associativity_witness": lits(self.associativity_witness),
            "commutative": self.commutative,
            "commutativity_witness": lits(self.commutativity_witness),
            "identity": lit(self.identity) if self.identity is not None else None,
            "idempotent_count": len(self.idempotents),
            "idempotents": lits(self.idempotents),
            "zero_divisor_pairs": [lits(p) for p in self.zero_divisor_pairs],
            "max_subgroups": [
                {"idempotent": lit(e), "order": len(h), "members": lits(h)}
                for e, h in self.max_subgroups
            ],
            "smarandache": lits(self.smarandache),
        }

    def table(self) -> str:
        rows = [
            ("carrier", f"{self.carrier.kind} {self.carrier.shape} over "
             f"{self.carrier.domain.code} under {self.carrier.op} "
             f"({self.carrier.cardinality()} elements)"),
            ("closed", _yesno(self.closed, self.closure_witness)),
            ("associative", f"{_yesno(self.associative, self.associativity_witness)}"
             f" [{self.associativity_mode}]"),
            ("commutative", _yesno(self.commutative, self.commutativity_witness)),
            ("identity", render_matrix(self.identity) if self.identity else "none"),
            ("idempotents", str(len(self.idempotents))),
            ("zero divisor pairs", str(len(self.zero_divisor_pairs))),
            ("smarandache", f"yes, subgroup of order {len(self.smarandache)}"
             if self.smarandache else "no"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _yesno(flag, witness):
    if flag:
        return "yes"
    parts = ", ".join(render_matrix(m) for m in witness) if witness else ""
    return f"no ({parts})" if parts else "no"


class _Table:
    """The product table of a finite family, over indices (Froidure & Pin 1997).

    Members keep their given order as indices 0..n-1 and `rows[a][b]` is
    the index of a·b.  A product outside the members is interned with an
    index >= n: an entry >= n witnesses that the family is not closed, and
    index equality stays exact.  Here a product is `apply` on two elements,
    interned by its value, and a member's row is kept once computed;
    `mul` memoises the products of indices >= n.  An enumerated carrier's
    table is a `_Power`, which multiplies no matrix, only its cell values,
    and builds no member matrix up front.

    The exhaustive associativity check compares a whole n×n table per
    member, on `bytes` while every interned index fits one byte (at most
    256 elements) and on lists past that; see `unassociative_triples`.
    """

    __slots__ = ("elements", "n", "index", "rows", "_apply", "_memo")

    def __init__(self, elements, apply):
        self.elements = list(elements)
        self.n = len(self.elements)
        self.index = {m: i for i, m in enumerate(self.elements)}
        self.rows = [None] * self.n
        self._apply = apply
        self._memo = {}

    @staticmethod
    def of(carrier, max_elements=DEFAULT_MAX_ELEMENTS):
        """The table of the carrier's members."""
        cell = carrier.cell
        if cell is None:
            return _Table(carrier.elements(max_elements), carrier.apply)
        n = carrier._enumerable(max_elements)
        domain = carrier.domain
        apply = domain.mul if carrier.op == NATURAL_PRODUCT else domain.add
        return _Power(carrier, n, _Table(cell, apply))

    def intern(self, m: Matrix) -> int:
        k = self.index.get(m)
        if k is None:
            k = self.index[m] = len(self.elements)
            self.elements.append(m)
        return k

    def product(self, a: int, b: int) -> int:
        return self.intern(self._apply(self.elements[a], self.elements[b]))

    def row(self, a: int) -> list:
        """The index of a·b for every member b; a member's row is kept."""
        if a >= self.n:
            return [self.mul(a, b) for b in range(self.n)]
        row = self.rows[a]
        if row is None:
            row = self.rows[a] = [self.product(a, b) for b in range(self.n)]
        return row

    def column(self, b: int) -> list:
        """The index of a·b for every member a."""
        return [self.mul(a, b) for a in range(self.n)]

    def fill(self):
        """Keep every row (n² entries); returns the table."""
        self.rows = [self.row(a) for a in range(self.n)]
        return self

    def mul(self, a: int, b: int) -> int:
        """The index of a·b, also when a or b is an index >= n."""
        if a < self.n and b < self.n:
            return self.row(a)[b]
        k = self._memo.get((a, b))
        if k is None:
            k = self._memo[a, b] = self.product(a, b)
        return k

    def closure_witness(self):
        """The first pair (a, b) whose product leaves the members, or None."""
        n = self.n
        for a in range(n):
            row = self.row(a)
            if max(row) >= n:
                return a, next(b for b, k in enumerate(row) if k >= n)
        return None

    def commutativity_witness(self):
        """The first pair a < b with a·b != b·a, or None, on the filled table.
        Each row is compared with its column, of the rows' own type: a
        `bytes` table is joined once and column a is the slice `flat[a::n]`;
        a list table is transposed, as slicing a joined list of n² entries
        costs more.  The first row that differs from its column differs
        past the diagonal."""
        n, rows = self.n, self.rows
        if isinstance(rows[0], bytes):
            flat = b"".join(rows)
            columns = (flat[a::n] for a in range(n))
        else:
            columns = map(list, zip(*rows))
        for a, (row, col) in enumerate(zip(rows, columns)):
            if row != col:
                return a, next(b for b, k in enumerate(row) if k != col[b])
        return None

    def unassociative_triples(self):
        """The triples with (a·b)·c != a·(b·c) in order, on a filled table.

        Each member a compares its whole n×n table at once (Light's test,
        Clifford & Preston 1961): the member table T holds b·c at offset
        b·n + c, a·(b·c) is T mapped through row a, and (a·b)·c joins the
        rows that row a picks.  The rows are first extended by every
        product with those outside the members, so the compare reads the
        final element count: up to 256 every index is one byte, T is one
        `bytes` and the map is `bytes.translate`; past that the same
        compare runs on lists.  Offset i of a difference is (b, c) =
        divmod(i, n).
        """
        n, outside = self.n, range(self.n, len(self.elements))
        rows = self.rows + [self.row(k) for k in outside]
        columns = [self.column(k) for k in outside]
        picks = self.rows
        if columns:
            picks = [ra + [col[a] for col in columns] for a, ra in enumerate(picks)]
        if len(self.elements) <= 256:  # every index is one byte
            lines, join = list(map(bytes, rows)), b"".join

            def image(ra):
                return table.translate(bytes(ra).ljust(256, b"\0"))

        else:
            lines, join = rows, lambda picked: list(itertools.chain.from_iterable(picked))

            def image(ra):
                return [ra[k] for k in table]

        table = join(lines[:n])
        for a, ra in enumerate(picks):
            left, right = join(map(lines.__getitem__, ra[:n])), image(ra)
            if left != right:
                yield from ((a, *divmod(i, n)) for i, k in enumerate(left) if k != right[i])

    def idempotents(self):
        """The a with a·a = a, in order: read from kept rows, or else computed."""
        diagonal = [self.product(a, a) if r is None else r[a] for a, r in enumerate(self.rows)]
        return [a for a, d in enumerate(diagonal) if a == d]

    def members(self, indices):
        return None if indices is None else tuple(map(self.elements.__getitem__, indices))

    def ideal(self, g: int) -> tuple:
        """The members of the smallest ideal holding g, in order.  The walk
        reads the row of each ideal member once; NotMember when a product
        leaves the members."""
        elements, n = self.elements, self.n
        inside, todo = {g}, [g]
        for f in todo:
            row = self.row(f)
            if max(row) >= n:
                s = next(s for s, k in enumerate(row) if k >= n)
                raise NotMember(
                    f"{render_matrix(elements[f])} * {render_matrix(elements[s])} = "
                    f"{render_matrix(elements[row[s]])} is not a carrier member"
                )
            fresh = [k for k in dict.fromkeys(row) if k not in inside]
            inside.update(fresh)
            todo += fresh
        return self.members(sorted(inside))

    def h_classes(self):
        """(e, maximal subgroup at e) per idempotent, full support first and
        then in index order, which the stable sort keeps from `groups`."""
        return sorted(self.groups(), key=lambda eh: self.elements[eh[0]].values.count(0))

    def groups(self):
        """(e, maximal subgroup at e) per idempotent e, in index order.

        Both operations commute, so the group at e holds the a with a·e = a
        that have an inverse relative to e among those: the H-class of e
        (Clifford & Preston 1961).  Only member rows are read, so a table
        whose products leave the members is searched alike.
        """
        n, row = self.n, self.row

        def group(e):
            candidates = [a for a in range(n) if row(a)[e] == a]
            return [a for a in candidates if e in map(row(a).__getitem__, candidates)]

        return [(e, group(e)) for e in self.idempotents()]

    def smarandache(self, subgroups):
        """The first proper subgroup of order >= 2, or None; when a subgroup
        is the whole carrier, its first proper cyclic subgroup <a> instead."""
        n = self.n
        for e, h in subgroups:
            if 2 <= len(h) < n:
                return h
            if len(h) < n:
                continue
            for a in range(n):
                powers, cycle, current = self.row(a), [e], a
                while current != e and current < n and current not in cycle:
                    cycle.append(current)
                    current = powers[current]  # a·current: both operations commute
                if current == e and 2 <= len(cycle) < n:
                    return sorted(cycle)
        return None


class _Digits(dict):
    """Digit tuple -> index in a `_Power` table, filled on first sight: a
    member's base-k value, or else the next index, with the digits kept in
    `outside` and the matrix appended to the table's `elements`.  It holds
    no reference to the table, so dropping a table frees it at once."""

    __slots__ = ("cell", "shape", "domain", "elements", "outside")

    def __init__(self, cell, shape, domain, elements):
        super().__init__()
        self.cell, self.shape, self.domain = cell, shape, domain
        self.elements, self.outside = elements, []

    def __missing__(self, digits):
        base = self.cell.n
        if max(digits) < base:
            k = 0
            for d in digits:
                k = k * base + d
        else:
            self.outside.append(digits)
            self.elements.append(self.matrix(digits))
            k = len(self.elements) - 1
        self[digits] = k
        return k

    def matrix(self, digits):
        """The element whose entries are the cell values of these digits."""
        values = self.cell.elements
        return Matrix._make(self.shape, self.domain, tuple([values[d] for d in digits]))


class _Power(_Table):
    """The table of an enumerated carrier: a direct power of its one-cell table.

    Both operations act entrywise, and member a is the base-k value of its
    digits, first entry most significant, a value's digit being its
    position in `Carrier.cell`, so digit 0 is the zero.  So every product
    comes from the one-cell table `cell` over those scalar values, whose
    `mul` interns a value outside the k as a digit >= k; an element outside
    the members is interned by its digits.  The row of a is the product of
    the cell rows of its digits: base-k arithmetic when `cell` is closed,
    computed afresh on each read unless `fill` has kept the table (n²
    entries); otherwise digit tuples mapped to indices, kept.  A filled
    closed table of at most 256 members keeps each row as `bytes`, one byte
    per index; every reader takes either form.

    An answer that is a product of cell answers, one digit set per
    position, is read from `cell`: the idempotents (`idempotents_in`), the
    ideal of a member and the maximal subgroups.  A member's matrix is
    built only when reported: `members` builds the indices it is given,
    `matrices` a product of digit sets, and `fill` all n at once.
    """

    __slots__ = ("cell", "size", "closed")

    def __init__(self, carrier, n, cell):
        self.elements = [None] * n
        self.n = n
        self.index = _Digits(cell, carrier.shape, carrier.domain, self.elements)
        self.rows = [None] * n
        self._memo = {}
        self.cell, self.size = cell, carrier.shape.size
        self.closed = cell.closure_witness() is None

    def digits(self, a: int):
        """Element a's digits, first entry first."""
        if a >= self.n:
            return self.index.outside[a - self.n]
        digits, k = [], self.cell.n
        for _ in range(self.size):
            a, d = divmod(a, k)
            digits.append(d)
        return digits[::-1]

    def intern(self, m: Matrix) -> int:
        """The index of m, whose entries are cell values."""
        return self.index[tuple(map(self.cell.intern, m.values))]

    def product(self, a: int, b: int) -> int:
        return self.index[tuple(map(self.cell.mul, self.digits(a), self.digits(b)))]

    def row(self, a: int) -> list:
        row = self.rows[a] if a < self.n else None
        if row is not None:
            return row
        cell = self.cell
        lines = [cell.row(d) for d in self.digits(a)]
        if not self.closed:
            row = [self.index[t] for t in itertools.product(*lines)]
            if a < self.n:
                self.rows[a] = row
            return row
        row, size = [0], 1
        for line in reversed(lines):
            row = [c * size + x for c in line for x in row]
            size *= cell.n
        return row

    def column(self, b: int) -> list:
        cell = self.cell
        lines = [[cell.mul(e, d) for e in range(cell.n)] for d in self.digits(b)]
        return [self.index[t] for t in itertools.product(*lines)]

    def members(self, indices):
        """Builds the members it is given, unless `fill` has built all n."""
        if indices is not None and self.elements[0] is None:
            return tuple(map(self.index.matrix, map(self.digits, indices)))
        return _Table.members(self, indices)

    def matrices(self, sets) -> tuple:
        """The members whose digit at each position lies in that position's
        set, in order."""
        values = self.cell.elements
        return _matrices(
            self.index.shape, self.index.domain, [[values[d] for d in sorted(s)] for s in sets]
        )

    def fill(self):
        """Keep every row and build all n members.  A closed table is the
        Kronecker power of the cell's rows: up to 256 members each row is
        `bytes`, joined from rows one position shorter shifted by
        `bytes.translate`, so no index is a Python int; past 256 the same
        recurrence runs on lists."""
        self.elements[: self.n] = self.matrices([range(self.cell.n)] * self.size)
        if not self.closed:
            return super().fill()
        # rows[a_hi·K + a_lo][b_hi·K + b_lo] = cell[a_hi][b_hi]·K + rows[a_lo][b_lo]
        cell, size = self.cell.rows, 1
        if self.n <= 256:  # every index is one byte: translating by shift[c] adds c·K
            rows = [b"\0"]
            while size < self.n:
                shift = [_BYTES[c * size :].ljust(256, b"\0") for c in range(len(cell))]
                shifts = [[shift[c] for c in hi] for hi in cell]
                rows = [b"".join(map(lo.translate, hi)) for hi in shifts for lo in rows]
                size *= len(cell)
        else:
            rows = [[0]]
            while size < self.n:
                scaled = [[c * size for c in hi] for hi in cell]
                rows = [[c + x for c in hi for x in lo] for hi in scaled for lo in rows]
                size *= len(cell)
        self.rows = rows
        return self

    def closure_witness(self):
        # a direct power of a closed table is closed
        return None if self.closed else super().closure_witness()

    def ideal(self, g: int) -> tuple:
        """S^k·g, the product over g's digits d of the cell ideals S·d.  Each
        cell holds 1, so S·d holds d, and the cell is closed under `*`, so
        no product leaves the carrier."""
        row = self.cell.row
        return self.matrices([set(row(d)) for d in self.digits(g)])

    def h_classes(self):
        """The group at e is the product of the cell groups at e's digits,
        which the cell's inverse search (`groups`) finds for a closed cell
        and an open one alike.  Each idempotent e is built digit by digit,
        last position first, as the key (zero digits)·n + e, so sorting the
        keys gives the order; its group is built alongside as offsets from
        e, and a position whose cell group is its digit alone adds no work
        there."""
        cell, n = self.cell, self.n
        groups = [(d, n if d == 0 else 0, [c - d for c in h]) for d, h in cell.groups()]
        classes, size = [(0, [0])], 1  # (key, offsets from e) over a suffix
        for _ in range(self.size):
            classes = [
                (
                    key + zeros + d * size,
                    tail if len(shift) == 1 else [s * size + x for s in shift for x in tail],
                )
                for d, zeros, shift in groups
                for key, tail in classes
            ]
            size *= cell.n
        classes.sort()
        subgroups = []
        for key, tail in classes:
            e = key % n
            subgroups.append((e, [e] if len(tail) == 1 else [e + x for x in tail]))
        return subgroups


def _matrices(shape, domain, values):
    """The matrices whose entry at each position ranges over that
    position's values (canonical for the domain), in row-major
    lexicographic order."""
    return tuple(map(partial(Matrix._make, shape, domain), itertools.product(*values)))


def analyze(carrier: Carrier, *, seed=0, samples=400) -> StructureReport:
    """Full structural census of a finite carrier.

    Associativity is exhaustive up to 64 elements and seeded-sampled
    above; every negative finding carries a concrete counterexample.
    Every law reads the filled table, n² entries; an enumerated carrier
    reads its idempotents and maximal subgroups from its cell.
    """
    table = _Table.of(carrier, ANALYZE_MAX_ELEMENTS).fill()
    elements, rows, n, mul, members = table.elements, table.rows, table.n, table.mul, table.members
    idx = range(n)

    closure_witness = table.closure_witness()
    closed = closure_witness is None
    commutativity_witness = table.commutativity_witness()

    if n > ASSOC_EXHAUSTIVE_LIMIT:
        rng = random.Random(seed)
        mode = f"sampled({samples})"
        draws = rng.choices(idx, k=3 * samples)
        triples = zip(draws[::3], draws[1::3], draws[2::3])
    else:
        mode = "exhaustive"
        triples = table.unassociative_triples()
    if closed:  # every product is a member: read it from the rows
        broken = ((a, b, c) for a, b, c in triples if rows[rows[a][b]][c] != rows[a][rows[b][c]])
    else:
        broken = ((a, b, c) for a, b, c in triples if mul(mul(a, b), c) != mul(a, mul(b, c)))
    associativity_witness = next(broken, None)

    every = type(rows[0])(idx)  # 0..n-1 as a row: bytes or list, as the rows are
    identity = next(
        (e for e in idx if rows[e] == every and all(row[e] == a for a, row in enumerate(rows))),
        None,
    )
    subgroups = table.h_classes()
    # each idempotent is the identity of exactly one maximal subgroup
    idempotents = sorted(e for e, _ in subgroups)

    zero_divisor_pairs = ()
    if carrier.op == NATURAL_PRODUCT:
        shape, domain = carrier.shape, carrier.domain
        zero = table.intern(Matrix._make(shape, domain, (domain.zero,) * shape.size))
        zero_divisor_pairs = tuple(
            (elements[a], elements[b])
            for a, row in enumerate(rows)
            if a != zero
            for b in _positions(row, zero)
            if b != zero
        )

    return StructureReport(
        carrier=carrier,
        closed=closed,
        closure_witness=members(closure_witness),
        associative=associativity_witness is None,
        associativity_mode=mode,
        associativity_witness=members(associativity_witness),
        commutative=commutativity_witness is None,
        commutativity_witness=members(commutativity_witness),
        identity=None if identity is None else elements[identity],
        idempotents=members(idempotents),
        zero_divisor_pairs=zero_divisor_pairs,
        max_subgroups=tuple((elements[e], members(h)) for e, h in subgroups),
        smarandache=members(table.smarandache(subgroups)),
    )


def _positions(row, value):
    """Every index of `value` in `row`, ascending."""
    at = -1
    try:
        while True:
            at = row.index(value, at + 1)
            yield at
    except ValueError:
        return


def idempotents_in(carrier: Carrier):
    """All e with e ∘ e = e, in canonical order: on an enumerated carrier,
    every matrix of the cell's idempotents."""
    table = _Table.of(carrier)
    if carrier.cell is None:
        return table.members(table.idempotents())
    return table.matrices([table.cell.idempotents()] * table.size)


@dataclass(frozen=True)
class GeneratedIdeal:
    members: tuple
    cardinality: int


def ideal_generated(carrier: Carrier, x: Matrix):
    """Smallest ideal of the carrier semigroup containing x.

    The carrier must be a semigroup under the natural product; for mask
    carriers the result is the down-set of x's support, of size
    2^popcount(support(x)).  An enumerated carrier reads it from its cell:
    every matrix whose entries lie in the cell ideals of x's entries.  An
    explicit carrier walks it, reading the row of each ideal member once,
    and a product that leaves the carrier raises NotMember.
    """
    if carrier.op != NATURAL_PRODUCT:
        raise UnsupportedDomain("ideals are computed under the natural product")
    table = _Table.of(carrier)
    if x not in carrier:
        raise NotMember(f"{render_matrix(x)} is not a carrier member")
    members = table.ideal(table.intern(x))
    return GeneratedIdeal(members, len(members))


def is_smarandache(carrier: Carrier):
    """A proper subset forming a group of order >= 2, or None.

    Searches the maximal subgroup at each idempotent, full-support
    idempotents first (the largest subgroup sits at the identity when
    there is one); singleton groups never certify.  On an enumerated
    carrier each subgroup is a product of cell groups, and only the
    witness's matrices are built.
    """
    table = _Table.of(carrier)
    return table.members(table.smarandache(table.h_classes()))


def _members(carrier: Carrier, subset):
    """The subset's distinct elements, in order; NotMember for the first
    that is not a carrier member."""
    members = dict.fromkeys(subset)
    for m in members:
        if m not in carrier:
            raise NotMember(f"{render_matrix(m)} is not a carrier member")
    return members


def is_subsemigroup(carrier: Carrier, subset):
    """Is the subset of carrier members closed under the carrier operation?

    Only the subset's products are computed, with the carrier operation,
    so a carrier too large to enumerate is answered too.
    """
    return _Table(_members(carrier, subset), carrier.apply).closure_witness() is None


def is_ideal(carrier: Carrier, subset):
    """Does the subset of carrier members absorb multiplication by every member?"""
    table = _Table.of(carrier)
    inside = {table.intern(m) for m in _members(carrier, subset)}
    return all(inside.issuperset(table.row(a)) for a in inside)


# -- support-mask subspaces ---------------------------------------------------


@dataclass(frozen=True)
class MaskSubspace:
    """The coordinate subspace {A : support(A) ⊆ mask} over one domain."""

    mask: SupportMask
    domain: Domain

    @property
    def shape(self):
        return self.mask.shape

    @property
    def dim(self):
        return self.mask.popcount

    def contains(self, m: Matrix) -> bool:
        if m.shape != self.shape:
            raise ShapeMismatch(f"shapes differ: {m.shape} vs {self.shape}")
        return support(m) <= self.mask

    def sample_member(self, rng: random.Random, lo=-9, hi=9) -> Matrix:
        """A random member; entries on the mask, zero elsewhere."""
        values = []
        for bit in self.mask.bits:
            if not bit:
                values.append(self.domain.zero)
            elif self.domain.is_rational:
                num = rng.randint(lo, hi)
                den = rng.randint(1, 9)
                values.append(self.domain.coerce(Fraction(abs(num) if self.domain.is_cone else num, den)))
            else:
                v = rng.randint(lo, hi)
                values.append(self.domain.coerce(abs(v) if self.domain.is_cone else v))
        return Matrix(self.shape, self.domain, values)

    def __repr__(self):
        return f"MaskSubspace({self.mask!r}, {self.domain.code})"


def orthogonal_space(x: Matrix) -> MaskSubspace:
    """{y : x *n y = 0}: the subspace supported off x's support.

    Only meaningful over zero-divisor-free scalars (Z, Q and the cones);
    UnsupportedDomain over Z_n.
    """
    return MaskSubspace(_orthogonal_mask(x), x.domain)


def subspace_complement(w: MaskSubspace) -> MaskSubspace:
    return MaskSubspace(w.mask.complement(), w.domain)


@dataclass(frozen=True)
class SumReport:
    kind: str  # "direct" | "pseudo-direct" | "not-spanning"
    overlaps: tuple  # ((i, j, positions), ...)
    gaps: tuple  # uncovered (row, col) positions

    def __str__(self):
        return self.kind


DIRECT = "direct"
PSEUDO_DIRECT = "pseudo-direct"
NOT_SPANNING = "not-spanning"


def check_sum(subspaces) -> SumReport:
    """Classify a family of mask subspaces as a (pseudo) direct sum.

    Direct: pairwise disjoint masks covering everything.  Pseudo-direct:
    covering, but some pair overlaps.  Not spanning otherwise.
    """
    subspaces = list(subspaces)
    if not subspaces:
        raise ValueError("need at least one subspace")
    shape = subspaces[0].shape
    for w in subspaces:
        if w.shape != shape:
            raise ShapeMismatch("subspaces must share one shape")
        if w.domain is not subspaces[0].domain:
            raise DomainMismatch("subspaces must share one domain")
    union = SupportMask(shape, [0] * shape.size)
    overlaps = []
    for i, w in enumerate(subspaces):
        for j in range(i + 1, len(subspaces)):
            inter = w.mask & subspaces[j].mask
            if not inter.is_zero():
                overlaps.append((i, j, tuple(inter.positions())))
        union = union | w.mask
    gaps = tuple(union.complement().positions())
    if gaps:
        kind = NOT_SPANNING
    elif overlaps:
        kind = PSEUDO_DIRECT
    else:
        kind = DIRECT
    return SumReport(kind, tuple(overlaps), gaps)


@dataclass(frozen=True)
class ConeReport:
    shape: Shape
    domain: Domain
    samples: int
    positive_products_ok: bool
    additive_strictness_ok: bool
    zero_divisor_pair: tuple | None

    def to_json(self):
        pair = None
        if self.zero_divisor_pair:
            pair = [render_matrix(m) for m in self.zero_divisor_pair]
        return {
            "shape": [self.shape.rows, self.shape.cols],
            "domain": self.domain.code,
            "samples": self.samples,
            "positive_products_ok": self.positive_products_ok,
            "additive_strictness_ok": self.additive_strictness_ok,
            "zero_divisor_pair": pair,
        }


def _strictly_positive_sample(rng, shape, domain):
    values = []
    for _ in range(shape.size):
        if domain.is_rational:
            values.append(Fraction(rng.randint(1, 99), rng.randint(1, 99)))
        else:
            values.append(rng.randint(1, 99))
    return Matrix(shape, domain, values)


def cone_zero_divisor_pair(shape, domain: Domain):
    """A canonical annihilating pair with complementary supports, or None.

    Follows the alternating pattern (3,0,4,...) against (0,7,0,...);
    one-cell shapes admit no zero divisors.
    """
    shape = _shape(shape)
    if shape.size < 2:
        return None
    a_vals, b_vals = [], []
    for i in range(shape.size):
        if i % 2 == 0:
            a_vals.append(3 if i % 4 == 0 else 4)
            b_vals.append(0)
        else:
            a_vals.append(0)
            b_vals.append(7)
    return Matrix(shape, domain, a_vals), Matrix(shape, domain, b_vals)


def cone_positivity_check(shape, domain: Domain, samples=1000, seed=0) -> ConeReport:
    """Sample the semifield behaviour of strictly positive cone matrices.

    Strictly positive samples never produce a zero under the natural
    product and addition is strict; the report also carries the canonical
    zero-divisor pair that appears once zero entries are permitted.
    """
    if not domain.is_cone:
        raise UnsupportedDomain("positivity check expects a cone domain")
    shape = _shape(shape)
    rng = random.Random(seed)
    zero = domain.zero
    products_ok = True
    strict_ok = True
    for _ in range(samples):
        x = _strictly_positive_sample(rng, shape, domain)
        y = _strictly_positive_sample(rng, shape, domain)
        if any(v == zero for v in (x * y).values):
            products_ok = False
        total = x + y
        if total.is_zero() and not (x.is_zero() and y.is_zero()):
            strict_ok = False
    return ConeReport(
        shape=shape,
        domain=domain,
        samples=samples,
        positive_products_ok=products_ok,
        additive_strictness_ok=strict_ok,
        zero_divisor_pair=cone_zero_divisor_pair(shape, domain),
    )

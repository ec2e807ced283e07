"""Finite-structure analysis and the support-mask subspace lattice.

A Carrier is a finite, enumerable family of same-shape matrices with one
binary operation (natural product or addition).  `analyze` produces a
full report: closure, associativity, commutativity, identity,
idempotents, zero divisors, maximal subgroups at idempotents, and a
Smarandache witness (a proper subset forming a group of size >= 2).

Every finite-structure question reads its products from one private
dense product table, `_Table`: `rows[a][b]` is the index of a·b, and a
product that leaves the family is an index past its end.  Both
operations act entrywise, so an enumerated carrier's table is a direct
power of its one-cell table and is expanded from it by index arithmetic;
the questions then read whole rows, with no method call per product.

Subspaces here are coordinate subspaces described by support masks: the
matrices orthogonal to x under the natural product are exactly those
supported on the complement of x's support.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import DomainMismatch, NotMember, ShapeMismatch, TooLarge, UnsupportedDomain
from .matrix import (
    DEFAULT_MAX_ELEMENTS,
    Matrix,
    Shape,
    SupportMask,
    _shape,
    render_matrix,
    support,
    zeros,
)
from .scalars import Domain, Z_PLUS, _Value

NATURAL_PRODUCT = "nproduct"
ADDITION = "add"

ASSOC_EXHAUSTIVE_LIMIT = 64
ANALYZE_MAX_ELEMENTS = 1024


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
        """The values one entry takes, or None for an explicit carrier: an
        enumerated carrier holds every row-major tuple of them."""
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
        cell, shape = self.cell, self.shape
        # An enumerated carrier has at least 2^size members: sizes from the
        # bound's bit length up are refused before any power is computed.
        if (
            cell is not None and shape.size >= max_elements.bit_length()
        ) or self.cardinality() > max_elements:
            raise TooLarge(
                f"{self.kind} carrier of shape {shape} has more than "
                f"{max_elements} elements"
            )
        if cell is None:
            return tuple(sorted(self.members, key=lambda m: m.values))
        values = itertools.product(cell, repeat=shape.size)
        return tuple(Matrix._make(shape, self.domain, v) for v in values)

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
    index equality stays exact.

    Both operations act entrywise, and an enumerated carrier numbers its
    members by their base-k digits, first entry most significant.  So it
    is a direct power of its one-cell carrier: when that k-element table
    `cell` is closed, every row is expanded from it with no matrix
    product, afresh on each read unless `fill` has kept the whole table
    (n² entries).  Without `cell`, a row is computed by `apply` once and
    kept.  `mul` memoises the products of indices >= n.

    The exhaustive associativity check compares a whole n×n table per
    member, on `bytes` while every interned index fits one byte (at most
    256 elements) and on lists past that; see `unassociative_triples`.
    """

    __slots__ = ("elements", "n", "index", "rows", "cell", "_apply", "_memo")

    def __init__(self, elements, apply, cell=None):
        self.elements = list(elements)
        self.n = len(self.elements)
        self.index = {m: i for i, m in enumerate(self.elements)}
        self.rows = [None] * self.n
        self.cell = cell
        self._apply = apply
        self._memo = {}

    @classmethod
    def of(cls, carrier, max_elements=DEFAULT_MAX_ELEMENTS):
        """The table of the carrier's members; an enumerated carrier's
        one-cell table becomes `cell` when it is closed."""
        elements, cell = carrier.elements(max_elements), carrier.cell
        if cell is not None:
            one = cls([Matrix._make(Shape(1, 1), carrier.domain, (v,)) for v in cell], carrier.apply)
            cell = one.rows if one.closure_witness() is None else None
        return cls(elements, carrier.apply, cell)

    def intern(self, m: Matrix) -> int:
        k = self.index.get(m)
        if k is None:
            k = self.index[m] = len(self.elements)
            self.elements.append(m)
        return k

    def product(self, a: int, b: int) -> int:
        return self.intern(self._apply(self.elements[a], self.elements[b]))

    def row(self, a: int) -> list:
        """The index of a·b for every member b."""
        row, cell = self.rows[a], self.cell
        if row is not None:
            return row
        if cell is None:
            row = self.rows[a] = [self.product(a, b) for b in range(self.n)]
            return row
        # the digits of a, least significant first, pick the cell rows
        row, size = [0], 1
        while size < self.n:
            a, d = divmod(a, len(cell))
            row = [c * size + x for c in cell[d] for x in row]
            size *= len(cell)
        return row

    def fill(self):
        """Keep every row (n² entries); returns the table."""
        cell = self.cell
        if cell is None:
            self.rows = [self.row(a) for a in range(self.n)]
            return self
        # rows[a_hi·K + a_lo][b_hi·K + b_lo] = cell[a_hi][b_hi]·K + rows[a_lo][b_lo]
        rows, size = [[0]], 1
        while size < self.n:
            scaled = [[c * size for c in hi] for hi in cell]
            rows = [[c + x for c in hi for x in lo] for hi in scaled for lo in rows]
            size *= len(cell)
        self.rows = rows
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
        if self.cell is not None:
            return None  # a direct power of a closed table is closed
        n = self.n
        for a in range(n):
            row = self.row(a)
            if max(row) >= n:
                return a, next(b for b, k in enumerate(row) if k >= n)
        return None

    def commutativity_witness(self):
        """The first pair a < b with a·b != b·a, or None, on the filled table.
        The first row that differs from its column differs past the diagonal."""
        for a, (row, col) in enumerate(zip(self.rows, zip(*self.rows))):
            if tuple(row) != col:
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
        rows = self.rows + [[self.mul(k, c) for c in range(n)] for k in outside]
        picks = [ra + [self.mul(a, k) for k in outside] for a, ra in enumerate(self.rows)]
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
            left, right = join([lines[k] for k in ra[:n]]), image(ra)
            if left != right:
                yield from ((a, *divmod(i, n)) for i, k in enumerate(left) if k != right[i])

    def idempotents(self):
        """The a with a·a = a, in order: read from the cell table's diagonal,
        from kept rows, or else computed."""
        cell = self.cell
        if cell is None:
            diagonal = [self.product(a, a) if r is None else r[a] for a, r in enumerate(self.rows)]
        else:
            diagonal, size = [0], 1
            while size < self.n:
                diagonal = [cell[d][d] * size + x for d in range(len(cell)) for x in diagonal]
                size *= len(cell)
        return [a for a, d in enumerate(diagonal) if a == d]

    def members(self, indices):
        return None if indices is None else tuple(self.elements[i] for i in indices)

    def h_classes(self, idempotents, closed):
        """(e, maximal subgroup at e) per idempotent, full support first.

        Both operations commute, so the group at e holds the a with a·e = a
        that have an inverse relative to e among those: the H-class of e.
        On a closed table that is the a with a·e = a whose powers a, a², …
        reach e (Clifford & Preston 1961), and a^(i+1) = a·a^i reads row a
        only.  Powers may leave a table that is not closed, so there the
        inverses are searched for.
        """
        n, row = self.n, self.row
        order = sorted(idempotents, key=lambda i: (self.elements[i].values.count(0), i))
        if closed:
            groups = {e: [] for e in idempotents}
            for a in range(n):
                powers, e = row(a), a
                while e not in groups:
                    e = powers[e]
                if powers[e] == a:
                    groups[e].append(a)
            return [(e, groups[e]) for e in order]

        def group(e):
            candidates = [a for a in range(n) if row(a)[e] == a]
            return [a for a in candidates if any(row(a)[b] == e for b in candidates)]

        return [(e, group(e)) for e in order]

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


def analyze(carrier: Carrier, *, seed=0, samples=400) -> StructureReport:
    """Full structural census of a finite carrier.

    Associativity is exhaustive up to 64 elements and seeded-sampled
    above; every negative finding carries a concrete counterexample.
    Every question reads the filled table, n² entries.
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
        triples = (tuple(rng.choice(idx) for _ in range(3)) for _ in range(samples))
    else:
        mode = "exhaustive"
        triples = table.unassociative_triples()
    associativity_witness = next(
        ((a, b, c) for a, b, c in triples if mul(mul(a, b), c) != mul(a, mul(b, c))), None
    )

    every = list(idx)
    identity = next(
        (e for e in idx if rows[e] == every and all(row[e] == a for a, row in enumerate(rows))),
        None,
    )
    idempotents = table.idempotents()

    zero_divisor_pairs = ()
    if carrier.op == NATURAL_PRODUCT:
        zero = table.intern(zeros(carrier.shape, carrier.domain))
        zero_divisor_pairs = tuple(
            (elements[a], elements[b])
            for a, row in enumerate(rows)
            if a != zero
            for b in _positions(row, zero)
            if b != zero
        )
    subgroups = table.h_classes(idempotents, closed)

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
    """All e with e ∘ e = e, in canonical order."""
    table = _Table.of(carrier)
    return table.members(table.idempotents())


@dataclass(frozen=True)
class GeneratedIdeal:
    members: tuple
    cardinality: int


def ideal_generated(carrier: Carrier, x: Matrix):
    """Smallest ideal of the carrier semigroup containing x.

    The carrier must be a semigroup under the natural product; for mask
    carriers the result is the down-set of x's support, of size
    2^popcount(support(x)).  A product that leaves the carrier raises
    NotMember.  The walk reads the row of each ideal member once.
    """
    if carrier.op != NATURAL_PRODUCT:
        raise UnsupportedDomain("ideals are computed under the natural product")
    table = _Table.of(carrier)
    elements, n = table.elements, table.n
    g = table.index.get(x)
    if g is None:
        raise NotMember(f"{render_matrix(x)} is not a carrier member")
    inside, todo = {g}, [g]
    for f in todo:
        row = table.row(f)
        if max(row) >= n:
            s = next(s for s, k in enumerate(row) if k >= n)
            raise NotMember(
                f"{render_matrix(elements[f])} * {render_matrix(elements[s])} = "
                f"{render_matrix(elements[row[s]])} is not a carrier member"
            )
        fresh = [k for k in dict.fromkeys(row) if k not in inside]
        inside.update(fresh)
        todo += fresh
    members = table.members(sorted(inside))
    return GeneratedIdeal(members, len(members))


def is_smarandache(carrier: Carrier):
    """A proper subset forming a group of order >= 2, or None.

    Searches the maximal subgroup at each idempotent, full-support
    idempotents first (the largest subgroup sits at the identity when
    there is one); singleton groups never certify.
    """
    table = _Table.of(carrier)
    closed = table.closure_witness() is None
    return table.members(table.smarandache(table.h_classes(table.idempotents(), closed)))


def _members(carrier: Carrier, subset):
    """The subset's distinct elements, in order; NotMember for the first
    that is not a carrier member."""
    members = dict.fromkeys(subset)
    for m in members:
        if m not in carrier:
            raise NotMember(f"{render_matrix(m)} is not a carrier member")
    return members


def is_subsemigroup(carrier: Carrier, subset):
    """Is the subset of carrier members closed under the carrier operation?"""
    return _Table(_members(carrier, subset), carrier.apply).closure_witness() is None


def is_ideal(carrier: Carrier, subset):
    """Does the subset of carrier members absorb multiplication by every member?"""
    table = _Table.of(carrier)
    inside = {table.index[m] for m in _members(carrier, subset)}
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
    over Z_n the annihilator of x is generally larger than a coordinate
    pattern.
    """
    if x.domain.is_modular:
        raise UnsupportedDomain("the annihilator over Z_n is not a support pattern")
    return MaskSubspace(support(x).complement(), x.domain)


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
    pair = cone_zero_divisor_pair(shape, domain)
    if pair is not None and not (pair[0] * pair[1]).is_zero():
        pair = None  # construction failed; never expected
    return ConeReport(
        shape=shape,
        domain=domain,
        samples=samples,
        positive_products_ok=products_ok,
        additive_strictness_ok=strict_ok,
        zero_divisor_pair=pair,
    )

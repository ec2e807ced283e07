"""Finite-structure analysis and the support-mask subspace lattice.

A Carrier is a finite, enumerable family of same-shape matrices with one
binary operation (natural product or addition).  `analyze` produces a
full report: closure, associativity, commutativity, identity,
idempotents, zero divisors, maximal subgroups at idempotents, and a
Smarandache witness (a proper subset forming a group of size >= 2).

Every finite-structure question reads its products from one private
product table, `_Table`, where a product that leaves the family is an
index past its end.

Subspaces here are coordinate subspaces described by support masks: the
matrices orthogonal to x under the natural product are exactly those
supported on the complement of x's support.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotMember, ShapeMismatch, TooLarge, UnsupportedDomain
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
            if m.shape != shape or m.domain != domain:
                raise ShapeMismatch("explicit members must share shape and domain")
        if len(set(matrices)) != len(matrices):
            raise ValueError("explicit members must be pairwise distinct")
        return cls("explicit", shape, domain, matrices, op)

    def cardinality(self):
        if self.kind == "masks":
            return 1 << self.shape.size
        if self.kind == "all":
            return self.domain.modulus**self.shape.size
        return len(self.members)

    def elements(self, max_elements=DEFAULT_MAX_ELEMENTS):
        """Members in canonical (row-major lexicographic) order."""
        # An enumerated carrier has at least 2^size members: sizes from the
        # bound's bit length up are refused before any power is computed.
        if (
            self.kind != "explicit" and self.shape.size >= max_elements.bit_length()
        ) or self.cardinality() > max_elements:
            raise TooLarge(
                f"{self.kind} carrier of shape {self.shape} has more than "
                f"{max_elements} elements"
            )
        n = self.cardinality()
        if self.kind == "masks":
            return tuple(
                SupportMask.from_int(self.shape, i).to_matrix(self.domain)
                for i in range(n)
            )
        if self.kind == "all":
            mod = self.domain.modulus
            return tuple(
                Matrix(self.shape, self.domain, values)
                for values in itertools.product(range(mod), repeat=self.shape.size)
            )
        return tuple(sorted(self.members, key=lambda m: m.values))

    def __contains__(self, m):
        """Membership without enumerating the carrier.  An enumerated
        carrier holds no partitioned matrix; an explicit one holds its
        members, partitioned or not."""
        if self.kind == "explicit":
            return m in self.members
        if not (
            isinstance(m, Matrix)
            and m.shape == self.shape
            and m.domain == self.domain
            and m.partition is None
        ):
            return False
        if self.kind == "masks":
            return all(v == self.domain.zero or v == self.domain.one for v in m.values)
        return True

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
        lit = render_matrix

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
    """The multiplication table over indices (Froidure & Pin 1997).

    Elements keep their given order as indices 0..n-1; a product outside
    them is interned with an index >= n, so `product(a, b) < n` is closure
    and index equality stays exact on families that are not closed.
    `product` computes by `apply` afresh, for walks that read each product
    once; `mul` memoises it, for questions that read products again.
    """

    __slots__ = ("elements", "n", "index", "_apply", "_memo")

    def __init__(self, elements, apply):
        self.elements = list(elements)
        self.n = len(self.elements)
        self.index = {m: i for i, m in enumerate(self.elements)}
        self._apply = apply
        self._memo = {}

    def intern(self, m: Matrix) -> int:
        k = self.index.get(m)
        if k is None:
            k = self.index[m] = len(self.elements)
            self.elements.append(m)
        return k

    def product(self, a: int, b: int) -> int:
        return self.intern(self._apply(self.elements[a], self.elements[b]))

    def mul(self, a: int, b: int) -> int:
        k = self._memo.get((a, b))
        if k is None:
            k = self._memo[a, b] = self.product(a, b)
        return k

    def closure_witness(self):
        """The first pair (a, b) whose product leaves the elements, or None."""
        idx = range(self.n)
        return next(((a, b) for a in idx for b in idx if self.mul(a, b) >= self.n), None)

    def idempotents(self):
        return [a for a in range(self.n) if self.mul(a, a) == a]

    def members(self, indices):
        return None if indices is None else tuple(self.elements[i] for i in indices)

    def h_classes(self, idempotents):
        """(e, maximal subgroup at e) per idempotent, full support first.

        Members are the a with a.e = a possessing an inverse relative to e
        among those candidates; in a commutative semigroup this is the
        H-class of e.  Lazy: a caller that stops early computes no more.
        """
        mul, elements = self.mul, self.elements
        for e in sorted(idempotents, key=lambda i: (-support(elements[i]).popcount, i)):
            candidates = [a for a in range(self.n) if mul(a, e) == a]
            yield e, [a for a in candidates if any(mul(a, b) == e for b in candidates)]

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
                cycle, current = [e], a
                while current != e and current < n and current not in cycle:
                    cycle.append(current)
                    current = self.mul(current, a)
                if current == e and 2 <= len(cycle) < n:
                    return sorted(cycle)
        return None


def analyze(carrier: Carrier, *, seed=0, samples=400) -> StructureReport:
    """Full structural census of a finite carrier.

    Associativity is exhaustive up to 64 elements and seeded-sampled
    above; every negative finding carries a concrete counterexample.
    """
    table = _Table(carrier.elements(ANALYZE_MAX_ELEMENTS), carrier.apply)
    mul, n, members = table.mul, table.n, table.members
    idx = range(n)

    closure_witness = table.closure_witness()
    commutativity_witness = next(
        ((a, b) for a, b in itertools.combinations(idx, 2) if mul(a, b) != mul(b, a)),
        None,
    )

    if n <= ASSOC_EXHAUSTIVE_LIMIT:
        mode = "exhaustive"
        triples = ((a, b, c) for a in idx for b in idx for c in idx)
    else:
        rng = random.Random(seed)
        mode = f"sampled({samples})"
        triples = (tuple(rng.choice(idx) for _ in range(3)) for _ in range(samples))
    associativity_witness = next(
        ((a, b, c) for a, b, c in triples if mul(mul(a, b), c) != mul(a, mul(b, c))), None
    )

    identity = next(
        (e for e in idx if all(mul(e, a) == a and mul(a, e) == a for a in idx)), None
    )
    idempotents = table.idempotents()

    zero_divisor_pairs = ()
    if carrier.op == NATURAL_PRODUCT:
        zero = table.intern(zeros(carrier.shape, carrier.domain))
        zero_divisor_pairs = tuple(
            members((a, b))
            for a in idx
            for b in idx
            if a != zero and b != zero and mul(a, b) == zero
        )
    subgroups = list(table.h_classes(idempotents))

    return StructureReport(
        carrier=carrier,
        closed=closure_witness is None,
        closure_witness=members(closure_witness),
        associative=associativity_witness is None,
        associativity_mode=mode,
        associativity_witness=members(associativity_witness),
        commutative=commutativity_witness is None,
        commutativity_witness=members(commutativity_witness),
        identity=None if identity is None else table.elements[identity],
        idempotents=members(idempotents),
        zero_divisor_pairs=zero_divisor_pairs,
        max_subgroups=tuple((table.elements[e], members(h)) for e, h in subgroups),
        smarandache=members(table.smarandache(subgroups)),
    )


def idempotents_in(carrier: Carrier):
    """All e with e ∘ e = e, in canonical order."""
    table = _Table(carrier.elements(), carrier.apply)
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
    NotMember.  No product is read twice, so none is memoised.
    """
    if carrier.op != NATURAL_PRODUCT:
        raise UnsupportedDomain("ideals are computed under the natural product")
    table = _Table(carrier.elements(), carrier.apply)
    elements, n = table.elements, table.n
    g = table.index.get(x)
    if g is None:
        raise NotMember(f"{render_matrix(x)} is not a carrier member")
    inside, todo = {g}, [g]
    for f in todo:
        for s in range(n):
            k = table.product(f, s)
            if k >= n:
                raise NotMember(
                    f"{render_matrix(elements[f])} * {render_matrix(elements[s])} = "
                    f"{render_matrix(elements[k])} is not a carrier member"
                )
            if k not in inside:
                inside.add(k)
                todo.append(k)
    members = table.members(sorted(inside))
    return GeneratedIdeal(members, len(members))


def is_smarandache(carrier: Carrier):
    """A proper subset forming a group of order >= 2, or None.

    Searches the maximal subgroup at each idempotent, full-support
    idempotents first (the largest subgroup sits at the identity when
    there is one); singleton groups never certify.
    """
    table = _Table(carrier.elements(), carrier.apply)
    return table.members(table.smarandache(table.h_classes(table.idempotents())))


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
    table = _Table(carrier.elements(), carrier.apply)
    inside = {table.index[m] for m in _members(carrier, subset)}
    return all(table.product(a, s) in inside for a in inside for s in range(table.n))


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
        if w.domain != subspaces[0].domain:
            raise ShapeMismatch("subspaces must share one domain")
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

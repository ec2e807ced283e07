"""Exact coefficient domains and their scalars.

Five domains are supported: the integers Z, the rationals Q, the modular
rings Z_n (n >= 2), and the nonnegative cones Z+u{0} and Q+u{0}.  Every
value is exact: arbitrary-precision ints, reduced Fractions, or residues
in [0, n).  The cones are strict -- any operation whose result would be
negative raises ConeViolation rather than saturating.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

from .errors import (
    ConeViolation,
    DomainMismatch,
    NotAUnit,
    ParseError,
    TooLarge,
    UnsupportedDomain,
    shorten,
)

INT_KIND = "int"
RAT_KIND = "rat"
MOD_KIND = "mod"
NONNEG_INT_KIND = "nonneg_int"
NONNEG_RAT_KIND = "nonneg_rat"
_KINDS = (INT_KIND, RAT_KIND, MOD_KIND, NONNEG_INT_KIND, NONNEG_RAT_KIND)

_SCALAR_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class _Value:
    """Base of the value classes: a value's fields are its class's
    `__slots__`, in order, set once by `_fill` and never changed or
    deleted.  Two values are equal when they are of one class and their
    fields are equal; copies and pickles rebuild a value from its fields."""

    __slots__ = ()

    def _fill(self, *fields):
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _rebuild, (type(self), self._fields())


def _rebuild(cls, fields):
    """The `cls` value whose slots hold `fields` (the inverse of `__reduce__`)."""
    self = object.__new__(cls)
    self._fill(*fields)
    return self


# kind -> code of every kind but MOD_KIND, whose code names its modulus
_CODES = {INT_KIND: "Z", RAT_KIND: "Q", NONNEG_INT_KIND: "Z+", NONNEG_RAT_KIND: "Q+"}

# (kind, modulus) -> the one Domain of that kind and modulus
_DOMAINS: dict[tuple, Domain] = {}


class Domain(_Value):
    """A coefficient domain tag plus its raw arithmetic.

    There is one Domain object per domain: `Domain(kind, modulus)`, `Mod`,
    `domain_from_code`, copies and pickles all return it, so `==` is `is`.
    Raw values are plain ints (Z, Z_n, Z+) or Fractions (Q, Q+); the
    arithmetic methods keep them canonical (residues reduced, fractions in
    lowest terms with positive denominator, cone values >= 0).
    """

    __slots__ = (
        "kind", "modulus", "code", "is_cone", "is_modular", "is_rational", "zero", "one", "_hash"
    )

    def __new__(cls, kind, modulus=None):
        self = _DOMAINS.get((kind, modulus))
        if self is not None:
            return self
        if kind not in _KINDS:
            raise ValueError(f"unknown domain kind {kind!r}")
        modular = kind == MOD_KIND
        if modular:
            if modulus is None or modulus < 2:
                raise ValueError("modulus must be an integer >= 2")
        elif modulus is not None:
            raise ValueError("only modular domains carry a modulus")
        rational = kind in (RAT_KIND, NONNEG_RAT_KIND)
        self = object.__new__(cls)
        self._fill(
            kind,
            modulus,
            f"Zn:{modulus}" if modular else _CODES[kind],  # also the CLI --domain flag
            kind in (NONNEG_INT_KIND, NONNEG_RAT_KIND),
            modular,
            rational,
            Fraction(0) if rational else 0,
            Fraction(1) if rational else 1,
            # ints only: hashes of str and None differ from process to process
            hash((_KINDS.index(kind), modulus or 0)),
        )
        # a thread that lost a race to build the same domain takes the winner's
        return _DOMAINS.setdefault((kind, modulus), self)

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return domain_from_code, (self.code,)

    def __repr__(self):
        return f"Domain({self.code!r})"

    # -- raw value arithmetic -------------------------------------------

    def coerce(self, value):
        """Normalize `value` into this domain, validating its constraints."""
        if isinstance(value, Scalar):
            if value.domain != self:
                raise DomainMismatch(
                    f"scalar of domain {value.domain.code} used in {self.code}"
                )
            return value.value
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, bool):
            raise ValueError("booleans are not scalars")
        # a Fraction is kept as it is: Fractions are immutable and reduced
        if self.kind == RAT_KIND:
            if isinstance(value, (int, Fraction)):
                return value if type(value) is Fraction else Fraction(value)
        elif self.kind == NONNEG_RAT_KIND:
            if isinstance(value, (int, Fraction)):
                if type(value) is not Fraction:
                    value = Fraction(value)
                if value < 0:
                    raise ConeViolation(f"{value} is negative in {self.code}")
                return value
        elif isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError(f"{value} is not an integer in {self.code}")
            value = int(value)
        if not isinstance(value, int):
            raise ValueError(f"cannot coerce {value!r} into {self.code}")
        if self.kind == MOD_KIND:
            return value % self.modulus
        if self.kind == NONNEG_INT_KIND and value < 0:
            raise ConeViolation(f"{value} is negative in {self.code}")
        return value

    def add(self, a, b):
        if self.kind == MOD_KIND:
            return (a + b) % self.modulus
        return a + b

    def neg(self, a):
        if self.kind == MOD_KIND:
            return (-a) % self.modulus
        if self.is_cone:
            if a != 0:
                raise ConeViolation(f"{a} has no additive inverse in {self.code}")
            return a
        return -a

    def sub(self, a, b):
        if self.kind == MOD_KIND:
            return (a - b) % self.modulus
        result = a - b
        if self.is_cone and result < 0:
            raise ConeViolation(f"{a} - {b} leaves the cone {self.code}")
        return result

    def mul(self, a, b):
        if self.kind == MOD_KIND:
            return (a * b) % self.modulus
        return a * b

    def is_unit(self, a):
        if self.kind == INT_KIND:
            return a in (1, -1)
        if self.kind == RAT_KIND:
            return a != 0
        if self.kind == MOD_KIND:
            return gcd(a, self.modulus) == 1
        if self.kind == NONNEG_INT_KIND:
            return a == 1
        return a > 0  # Q+: every strictly positive rational has an inverse

    def inv(self, a):
        if not self.is_unit(a):
            raise NotAUnit(f"{self.render(a)} is not a unit in {self.code}")
        if self.kind == MOD_KIND:
            return pow(a, -1, self.modulus)
        if self.is_rational:
            return Fraction(1) / a
        return a  # 1 and -1 are self-inverse

    # -- text form ------------------------------------------------------

    def render(self, a):
        try:
            if isinstance(a, Fraction) and a.denominator != 1:
                return f"{a.numerator}/{a.denominator}"
            return str(int(a))
        except ValueError:  # only an int past the int/str digit limit fails here
            raise TooLarge(_past_digit_limit("an integer to print")) from None

    def parse(self, text):
        text = text.strip()
        if not _SCALAR_RE.match(text):
            raise ParseError(f"bad scalar literal {shorten(text)!r}")
        if "/" in text:
            num, den = map(_parse_int, text.split("/"))
            if den == 0:
                raise ParseError(f"zero denominator in {shorten(text)!r}")
            value = Fraction(num, den)
            if value.denominator != 1 and not self.is_rational:
                raise ParseError(f"{shorten(text)} is not an integer in {self.code}")
        else:
            value = _parse_int(text)
        return self.coerce(value)


def _past_digit_limit(what):
    """Message for an int too long for Python's int/str conversion limit."""
    limit = sys.get_int_max_str_digits()
    return f"{what} has more than sys.get_int_max_str_digits() = {limit} digits"


def _parse_int(digits):
    """int(digits), or ParseError past the int/str digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(_past_digit_limit("an integer literal")) from None


Z = Domain(INT_KIND)
Q = Domain(RAT_KIND)
Z_PLUS = Domain(NONNEG_INT_KIND)
Q_PLUS = Domain(NONNEG_RAT_KIND)

def Mod(n):
    """The ring of integers modulo n (n >= 2)."""
    return Domain(MOD_KIND, n)


def domain_from_code(code):
    """Inverse of Domain.code; accepts Z, Q, Z+, Q+, Zn:<n>."""
    code = code.strip()
    for kind, known in _CODES.items():
        if code == known:
            return Domain(kind)
    m = re.match(r"^Zn?:(\d+)$", code)
    if m:
        n = _parse_int(m.group(1))
        if n < 2:
            raise ParseError(f"modulus must be >= 2 in {shorten(code)!r}")
        return Mod(n)
    raise ParseError(f"unknown domain {shorten(code)!r}")


class Scalar(_Value):
    """One exact value tagged with its domain."""

    __slots__ = ("domain", "value")

    def __init__(self, domain: Domain, value):
        self._fill(domain, domain.coerce(value))

    def _peer(self, other):
        if not isinstance(other, Scalar):
            return Scalar(self.domain, other)
        if other.domain != self.domain:
            raise DomainMismatch(
                f"domains differ: {self.domain.code} vs {other.domain.code}"
            )
        return other

    def __add__(self, other):
        other = self._peer(other)
        return Scalar(self.domain, self.domain.add(self.value, other.value))

    def __sub__(self, other):
        other = self._peer(other)
        return Scalar(self.domain, self.domain.sub(self.value, other.value))

    def __mul__(self, other):
        other = self._peer(other)
        return Scalar(self.domain, self.domain.mul(self.value, other.value))

    def __neg__(self):
        return Scalar(self.domain, self.domain.neg(self.value))

    def inv(self):
        return Scalar(self.domain, self.domain.inv(self.value))

    def is_unit(self):
        return self.domain.is_unit(self.value)

    def is_zero(self):
        return self.value == self.domain.zero

    def __str__(self):
        return self.domain.render(self.value)

    def __repr__(self):
        return f"Scalar({self.domain.code}, {self})"


def dom_add(a: Scalar, b: Scalar) -> Scalar:
    return a + b


def dom_mul(a: Scalar, b: Scalar) -> Scalar:
    return a * b


def dom_inv(a: Scalar) -> Scalar:
    return a.inv()


def is_unit(a: Scalar) -> bool:
    return a.is_unit()


def _int_root(n, k):
    """Exact nonnegative k-th root of n >= 0, or None."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n
    if k >= n.bit_length():  # a root r >= 2 would need 2**k <= r**k = n
        return None
    lo, hi = 0, 1
    while hi**k < n:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == n else None


def kth_root(a: Scalar, k: int):
    """The exact k-th root of `a`, or None when no rational root exists.

    Odd k takes the sign of `a`; even k demands a nonnegative perfect
    power and returns the nonnegative root.  Modular scalars have no
    canonical root and are rejected.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if a.domain.is_modular:
        raise UnsupportedDomain(f"no canonical k-th root in {a.domain.code}")
    value = Fraction(a.value)
    negative = value < 0
    if negative and k % 2 == 0:
        return None
    if negative:
        value = -value
    num = _int_root(value.numerator, k)
    den = _int_root(value.denominator, k)
    if num is None or den is None:
        return None
    root = Fraction(num, den)
    if negative:
        root = -root
    try:
        return Scalar(a.domain, root)
    except (ConeViolation, ValueError):
        return None

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
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    ConeViolation,
    DomainMismatch,
    NotAUnit,
    ParseError,
    TooLarge,
    UnsupportedDomain,
)

INT_KIND = "int"
RAT_KIND = "rat"
MOD_KIND = "mod"
NONNEG_INT_KIND = "nonneg_int"
NONNEG_RAT_KIND = "nonneg_rat"
_KINDS = (INT_KIND, RAT_KIND, MOD_KIND, NONNEG_INT_KIND, NONNEG_RAT_KIND)

_SCALAR_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class Domain:
    """A coefficient domain tag plus its raw arithmetic.

    Raw values are plain ints (Z, Z_n, Z+) or Fractions (Q, Q+); the
    arithmetic methods keep them canonical (residues reduced, fractions in
    lowest terms with positive denominator, cone values >= 0).
    """

    __slots__ = ("kind", "modulus", "_hash")

    def __init__(self, kind, modulus=None):
        if kind == MOD_KIND:
            if modulus is None or modulus < 2:
                raise ValueError("modulus must be an integer >= 2")
        elif modulus is not None:
            raise ValueError("only modular domains carry a modulus")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "modulus", modulus)
        # ints only: hashes of str and None differ from process to process
        object.__setattr__(self, "_hash", hash((_KINDS.index(kind), modulus or 0)))

    def __setattr__(self, name, value):
        raise AttributeError("Domain is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Domain)
            and self.kind == other.kind
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Domain({self.code!r})"

    @property
    def code(self):
        """Canonical textual name, also used by the CLI --domain flag."""
        return {
            INT_KIND: "Z",
            RAT_KIND: "Q",
            NONNEG_INT_KIND: "Z+",
            NONNEG_RAT_KIND: "Q+",
            MOD_KIND: f"Zn:{self.modulus}",
        }[self.kind]

    @property
    def is_cone(self):
        return self.kind in (NONNEG_INT_KIND, NONNEG_RAT_KIND)

    @property
    def is_modular(self):
        return self.kind == MOD_KIND

    @property
    def is_rational(self):
        return self.kind in (RAT_KIND, NONNEG_RAT_KIND)

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

    @property
    def zero(self):
        return Fraction(0) if self.is_rational else 0

    @property
    def one(self):
        return Fraction(1) if self.is_rational else 1

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
            raise ParseError(f"bad scalar literal {text!r}")
        if "/" in text:
            num, den = map(_parse_int, text.split("/"))
            if den == 0:
                raise ParseError(f"zero denominator in {text!r}")
            value = Fraction(num, den)
            if value.denominator != 1 and not self.is_rational:
                raise ParseError(f"{text} is not an integer in {self.code}")
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

_mod_cache: dict[int, Domain] = {}


def Mod(n):
    """The ring of integers modulo n (n >= 2)."""
    if n not in _mod_cache:
        _mod_cache[n] = Domain(MOD_KIND, n)
    return _mod_cache[n]


def domain_from_code(code):
    """Inverse of Domain.code; accepts Z, Q, Z+, Q+, Zn:<n>."""
    code = code.strip()
    table = {"Z": Z, "Q": Q, "Z+": Z_PLUS, "Q+": Q_PLUS}
    if code in table:
        return table[code]
    m = re.match(r"^Zn?:(\d+)$", code)
    if m:
        n = _parse_int(m.group(1))
        if n < 2:
            raise ParseError(f"modulus must be >= 2 in {code!r}")
        return Mod(n)
    raise ParseError(f"unknown domain {code!r}")


@dataclass(frozen=True)
class Scalar:
    """One exact value tagged with its domain."""

    domain: Domain
    value: object

    def __post_init__(self):
        object.__setattr__(self, "value", self.domain.coerce(self.value))

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


def scalar(domain, value):
    return Scalar(domain, value)


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

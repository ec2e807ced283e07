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
from itertools import repeat
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

# The scalar grammar: an optional sign and decimal digits, then optionally
# `/` and decimal digits, with whitespace around.  re's \s and \d take as
# whitespace and digits exactly what str.strip() and int() do.
_SCALAR_RE = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")

# Fraction's constructor checks and converts its arguments; its slot
# descriptors set an already reduced value directly.
_new = object.__new__
_set_numerator, _set_denominator = (
    Fraction.__dict__[name].__set__ for name in ("_numerator", "_denominator")
)


def _ratio(n, d):
    """The Fraction n/d for ints n and d != 0: equal, in every respect, to
    Fraction(n, d) -- lowest terms, the sign on the numerator."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    if g != 1:
        n //= g
        d //= g
    value = _new(Fraction)
    _set_numerator(value, n)
    _set_denominator(value, d)
    return value


def _draw(rng, domain, lo, hi, max_den=9):
    """A seeded random value, canonical for `domain`: randint(lo, hi), over
    Q and Q+ divided by randint(1, max_den), absolute in a cone."""
    n = rng.randint(lo, hi)
    n = abs(n) if domain.is_cone else n
    if domain.is_rational:
        return _ratio(n, rng.randint(1, max_den))
    return n % domain.modulus if domain.is_modular else n


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
        # hash(None) is an address before Python 3.12: 0 stands in for it,
        # so a value hashes the same in every process
        return hash(tuple(0 if f is None else f for f in self._fields()))

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
            _ratio(0, 1) if rational else 0,
            _ratio(1, 1) if rational else 1,
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
            if value.domain is not self:
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
                return value if type(value) is Fraction else _ratio(value, 1)
        elif self.kind == NONNEG_RAT_KIND:
            if isinstance(value, (int, Fraction)):
                if type(value) is not Fraction:
                    value = _ratio(value, 1)
                if value.numerator < 0:
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
        if self.is_rational:
            # a is reduced, so its inverse is den/num; the sign is num's
            num, den = a.as_integer_ratio()
            if num > 0 or num and not self.is_cone:
                return _ratio(den, num)
        elif self.is_unit(a):
            # over Z and Z+ the units 1 and -1 are their own inverses
            return pow(a, -1, self.modulus) if self.is_modular else a
        raise NotAUnit(f"{self.render(a)} is not a unit in {self.code}")

    # -- text form ------------------------------------------------------

    def render(self, a):
        return render_values((a,))[0]

    def parse(self, text):
        """The value of the literal `text` (see _SCALAR_RE), built for this domain."""
        match = _SCALAR_RE.fullmatch(text) if isinstance(text, str) else None
        if match is None:
            if not isinstance(text, str):  # a JSON number, array, object or null
                raise ParseError(f"a scalar literal must be a string, got {shorten(repr(text))}")
            raise ParseError(f"bad scalar literal {shorten(text.strip())!r}")
        num, den = match.groups()
        value = num = _parse_int(num)
        if den is not None:
            den = _parse_int(den)
            if not den:
                raise ParseError(f"zero denominator in {shorten(text.strip())!r}")
            if self.is_rational:
                value = _ratio(num, den)
            else:
                value, rest = divmod(num, den)
                if rest:
                    raise ParseError(f"{shorten(text.strip())} is not an integer in {self.code}")
        elif self.is_rational:
            value = _ratio(num, 1)
        if self.is_modular:
            return value % self.modulus
        if self.is_cone and num < 0:
            raise ConeViolation(f"{value} is negative in {self.code}")
        return value


def plain_entries(domain, texts):
    """[domain.parse(t) for t in texts] with each distinct text parsed once,
    or None unless each is a plain literal: no whitespace, integers within
    the digit limit, a nonzero denominator, a whole number outside Q and
    Q+, no negative numerator in a cone.  On None a caller parses the
    texts one at a time, so `domain.parse` stays the one grammar and names
    the first text it refuses.

    `int` checks the grammar here: on a text without whitespace or `_`,
    int(t) succeeds exactly when t is an optional sign and decimal digits
    (Unicode ones too, as _SCALAR_RE reads them), so it refuses any `/`.
    A denominator is unsigned when no `/` is followed by a sign."""
    try:
        distinct = list(dict.fromkeys(texts))
        joined = ",".join(distinct)
    except TypeError:  # a JSON number, array, object, boolean or null
        return None
    if len(joined.split(None, 1)) != 1 or "_" in joined or "/+" in joined or "/-" in joined:
        return None
    try:
        if domain.is_rational:
            parts = list(map(str.partition, distinct, repeat("/")))
            nums = [int(n) for n, _, _ in parts]
            dens = [int(d) if slash else 1 for _, slash, d in parts]
        else:
            nums = list(map(int, distinct))
    except ValueError:  # not an integer, or past the int/str digit limit
        return None
    if domain.is_cone and min(nums) < 0 or domain.is_rational and 0 in dens:
        return None
    if domain.is_rational:
        values = list(map(_ratio, nums, dens))
    elif domain.is_modular:
        values = [v % domain.modulus for v in nums]
    else:
        values = nums
    if len(values) == len(texts):
        return values
    table = dict(zip(distinct, values))
    return list(map(table.__getitem__, texts))


def render_values(values):
    """The text of each of `values`: an integer, or `p/q` in lowest terms
    (which is what str gives of a Fraction), from the Fraction's integers."""
    try:
        return [
            str(v) if v.__class__ is not Fraction
            else str(v._numerator) if v._denominator == 1
            else f"{v._numerator}/{v._denominator}"
            for v in values
        ]
    except ValueError:  # only an int past the int/str digit limit fails here
        raise TooLarge(_past_digit_limit("an integer to print")) from None


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
    if not isinstance(code, str):  # a JSON number, array, object or null
        raise ParseError(f"a domain code must be a string, got {shorten(repr(code))}")
    code = code.strip()
    for kind, known in _CODES.items():
        if code == known:
            return Domain(kind)
    m = re.match(r"^Zn:(\d+)$", code)
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
        if other.domain is not self.domain:
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
    num, den = a.value.numerator, a.value.denominator
    negative = num < 0
    if negative and k % 2 == 0:
        return None
    num = _int_root(abs(num), k)
    den = _int_root(den, k)
    if num is None or den is None:
        return None
    root = _ratio(-num if negative else num, den)
    try:
        return Scalar(a.domain, root)
    except (ConeViolation, ValueError):
        return None

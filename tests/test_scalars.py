import copy
import os
import pickle
import random
import re
import subprocess
import sys
import threading
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from natprod import (
    ConeViolation,
    Mod,
    NotAUnit,
    ParseError,
    Q,
    Q_PLUS,
    Scalar,
    UnsupportedDomain,
    Z,
    Z_PLUS,
    domain_from_code,
    kth_root,
)
from natprod.scalars import _ratio


def test_add_examples():
    assert (Scalar(Z, 2) + Scalar(Z, 3)).value == 5
    assert (Scalar(Mod(12), 7) + Scalar(Mod(12), 8)).value == 3
    assert (Scalar(Q, Fraction(1, 2)) + Scalar(Q, Fraction(1, 3))).value == Fraction(5, 6)


def test_mul_examples():
    assert (Scalar(Z, 7) * Scalar(Z, 1)).value == 7
    # oracle: the full multiplication table of Z_12
    table = {(a, b): (a * b) % 12 for a in range(12) for b in range(12)}
    assert table[(5, 5)] == 1
    assert (Scalar(Mod(12), 5) * Scalar(Mod(12), 5)).value == 1
    assert (Scalar(Q, Fraction(1, 8)) * Scalar(Q, 8)).value == 1


def test_domain_mismatch():
    from natprod import DomainMismatch

    with pytest.raises(DomainMismatch):
        Scalar(Z, 1) + Scalar(Q, 1)
    with pytest.raises(DomainMismatch):
        Scalar(Mod(5), 1) * Scalar(Mod(7), 1)


def test_inv_examples():
    assert Scalar(Q, Fraction(1, 8)).inv().value == 8
    with pytest.raises(NotAUnit):
        Scalar(Z, 2).inv()
    # oracle: brute force over residues
    assert [b for b in range(12) if (5 * b) % 12 == 1] == [5]
    assert Scalar(Mod(12), 5).inv().value == 5
    with pytest.raises(NotAUnit):
        Scalar(Q, 0).inv()


def test_is_unit_examples():
    assert Scalar(Z, -1).is_unit()
    assert not Scalar(Q, 0).is_unit()
    assert gcd(4, 12) == 4
    assert not Scalar(Mod(12), 4).is_unit()
    assert Scalar(Z_PLUS, 1).is_unit()
    assert not Scalar(Z_PLUS, 2).is_unit()
    assert Scalar(Q_PLUS, Fraction(2, 3)).is_unit()
    assert not Scalar(Q_PLUS, 0).is_unit()


def test_kth_root_examples():
    assert kth_root(Scalar(Z, 125), 3).value == 5
    assert kth_root(Scalar(Z, 4), 2).value == 2
    assert kth_root(Scalar(Z, 2), 2) is None
    assert kth_root(Scalar(Z, -27), 3).value == -3
    assert kth_root(Scalar(Z, -4), 2) is None
    assert kth_root(Scalar(Q, Fraction(9, 4)), 2).value == Fraction(3, 2)
    assert kth_root(Scalar(Q, Fraction(9, 5)), 2) is None
    assert kth_root(Scalar(Q_PLUS, Fraction(8, 27)), 3).value == Fraction(2, 3)
    with pytest.raises(UnsupportedDomain):
        kth_root(Scalar(Mod(7), 4), 2)


@given(st.integers(-10**6, 10**6), st.integers(1, 6))
def test_kth_root_round_trip(n, k):
    power = Scalar(Z, n**k)
    root = kth_root(power, k)
    if k % 2 == 0 and n < 0:
        assert root.value == -n  # nonnegative root for even k
    else:
        assert root.value == n


def test_ring_axioms_sampled():
    rng = random.Random(1)
    domains = {
        Z: lambda: Scalar(Z, rng.randint(-50, 50)),
        Q: lambda: Scalar(Q, Fraction(rng.randint(-50, 50), rng.randint(1, 20))),
        Mod(12): lambda: Scalar(Mod(12), rng.randint(0, 11)),
    }
    for domain, sample in domains.items():
        zero, one = Scalar(domain, 0), Scalar(domain, 1)
        for _ in range(10_000):
            a, b, c = sample(), sample(), sample()
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a


@given(st.integers(0, 100), st.integers(0, 100))
def test_cone_strictness(a, b):
    total = Scalar(Z_PLUS, a) + Scalar(Z_PLUS, b)
    if total.value == 0:
        assert a == 0 and b == 0


def test_cone_violations():
    with pytest.raises(ConeViolation):
        Scalar(Z_PLUS, -1)
    with pytest.raises(ConeViolation):
        Scalar(Z_PLUS, 2) - Scalar(Z_PLUS, 3)
    with pytest.raises(ConeViolation):
        -Scalar(Q_PLUS, Fraction(1, 2))
    assert (-Scalar(Q_PLUS, 0)).value == 0
    assert (Scalar(Z_PLUS, 3) - Scalar(Z_PLUS, 2)).value == 1


def test_coerce_keeps_a_fraction_as_it_is():
    half = Fraction(1, 2)
    assert Q.coerce(half) is half
    assert Q_PLUS.coerce(half) is half
    assert Q.coerce(-half) == -half
    with pytest.raises(ConeViolation, match=r"^-1/2 is negative in Q\+$"):
        Q_PLUS.coerce(-half)
    assert type(Q.coerce(3)) is Fraction and type(Q_PLUS.coerce("3")) is Fraction
    assert Z.coerce(Fraction(4, 2)) == 2 and type(Z.coerce(Fraction(4, 2))) is int


@given(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4))
def test_rational_normalization(q):
    s = Scalar(Q, q)
    assert s.value.denominator > 0
    assert gcd(abs(s.value.numerator), s.value.denominator) == 1
    rendered = str(s)
    assert Scalar(Q, Q.parse(rendered)) == s


def test_modular_inverse_exhaustive():
    for n in range(2, 101):
        domain = Mod(n)
        for a in range(n):
            if gcd(a, n) == 1:
                inv = Scalar(domain, a).inv()
                assert (Scalar(domain, a) * inv).value == 1
            else:
                assert not Scalar(domain, a).is_unit()


def test_domain_codes_round_trip():
    for domain in (Z, Q, Z_PLUS, Q_PLUS, Mod(7), Mod(100)):
        assert domain_from_code(domain.code) == domain
    with pytest.raises(ParseError):
        domain_from_code("R")
    # one spelling per domain: Z_n is Zn:<n> only
    with pytest.raises(ParseError, match=re.escape("unknown domain 'Z:4'")):
        domain_from_code("Z:4")
    with pytest.raises(ValueError):
        Mod(1)


def test_scalar_parse_errors():
    with pytest.raises(ParseError):
        Q.parse("1.5")
    with pytest.raises(ParseError):
        Q.parse("1/0")
    assert Mod(12).parse("-1") == 11
    assert Q.parse("-3/6") == Fraction(-1, 2)


def test_hashes_do_not_depend_on_the_hash_seed():
    code = (
        "from natprod import Mod, Z, parse_literal; "
        "print(hash(Z), hash(Mod(6)), hash(parse_literal('[1;1;1]', Z)))"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("1", "2")
    }
    assert len(outputs) == 1


def test_values_with_a_none_field_hash_alike_in_every_process():
    # an enumerated carrier has no members and a plain polynomial no partition
    code = (
        "from natprod import Carrier, Z, parse_poly; "
        "print(hash(Carrier.masks((1, 2))), hash(parse_poly('[1 2] + [3 4] * x', Z)))"
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": "0"},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]


def test_racing_threads_share_one_domain():
    # moduli no other test builds, so every thread races to create each one
    moduli = range(10**9, 10**9 + 2000)
    built = [[] for _ in range(8)]
    start = threading.Barrier(len(built))

    def build(out):
        start.wait()
        out.extend(map(Mod, moduli))

    threads = [threading.Thread(target=build, args=(out,)) for out in built]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for n, domains in zip(moduli, zip(*built)):
        assert all(d is Mod(n) for d in domains)


_BIG = 2**64 + 13
_RATIOS = [
    (0, 1), (0, -7), (0, _BIG), (5, 1), (-5, 1), (6, 4), (-6, 4), (6, -4), (-6, -4),
    (1, -1), (3, 9999991), (-9999991 * 7, 9999991), (_BIG, 3), (3, -_BIG), (-_BIG, _BIG * 6),
    (2**200, 2**190 * 5), (-(3**90), 3**41 * -2),
]


def _same_fraction(got, want):
    """`got` behaves as `want` in every way a caller can see."""
    assert type(got) is type(want) is Fraction
    assert got == want and not got != want
    assert hash(got) == hash(want)
    assert str(got) == str(want) and repr(got) == repr(want)
    assert got.as_integer_ratio() == want.as_integer_ratio()
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    if want.denominator == 1:
        assert got == want.numerator and hash(got) == hash(want.numerator)


@pytest.mark.parametrize("n, d", _RATIOS)
def test_ratio_is_fraction(n, d):
    want = Fraction(n, d)
    got = _ratio(n, d)
    _same_fraction(got, want)
    for round_trip in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        _same_fraction(round_trip(got), want)
    _same_fraction(got * 1, want)  # Fraction's own operators read the slots


@given(st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70).filter(bool))
def test_ratio_matches_fraction(n, d):
    _same_fraction(_ratio(n, d), Fraction(n, d))

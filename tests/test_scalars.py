import os
import random
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
    dom_add,
    dom_inv,
    dom_mul,
    domain_from_code,
    is_unit,
    kth_root,
)


def test_add_examples():
    assert dom_add(Scalar(Z, 2), Scalar(Z, 3)).value == 5
    assert dom_add(Scalar(Mod(12), 7), Scalar(Mod(12), 8)).value == 3
    assert dom_add(Scalar(Q, Fraction(1, 2)), Scalar(Q, Fraction(1, 3))).value == Fraction(5, 6)


def test_mul_examples():
    assert dom_mul(Scalar(Z, 7), Scalar(Z, 1)).value == 7
    # oracle: the full multiplication table of Z_12
    table = {(a, b): (a * b) % 12 for a in range(12) for b in range(12)}
    assert table[(5, 5)] == 1
    assert dom_mul(Scalar(Mod(12), 5), Scalar(Mod(12), 5)).value == 1
    assert dom_mul(Scalar(Q, Fraction(1, 8)), Scalar(Q, 8)).value == 1


def test_domain_mismatch():
    from natprod import DomainMismatch

    with pytest.raises(DomainMismatch):
        dom_add(Scalar(Z, 1), Scalar(Q, 1))
    with pytest.raises(DomainMismatch):
        dom_mul(Scalar(Mod(5), 1), Scalar(Mod(7), 1))


def test_inv_examples():
    assert dom_inv(Scalar(Q, Fraction(1, 8))).value == 8
    with pytest.raises(NotAUnit):
        dom_inv(Scalar(Z, 2))
    # oracle: brute force over residues
    assert [b for b in range(12) if (5 * b) % 12 == 1] == [5]
    assert dom_inv(Scalar(Mod(12), 5)).value == 5
    with pytest.raises(NotAUnit):
        dom_inv(Scalar(Q, 0))


def test_is_unit_examples():
    assert is_unit(Scalar(Z, -1))
    assert not is_unit(Scalar(Q, 0))
    assert gcd(4, 12) == 4
    assert not is_unit(Scalar(Mod(12), 4))
    assert is_unit(Scalar(Z_PLUS, 1))
    assert not is_unit(Scalar(Z_PLUS, 2))
    assert is_unit(Scalar(Q_PLUS, Fraction(2, 3)))
    assert not is_unit(Scalar(Q_PLUS, 0))


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
            assert dom_add(a, b) == dom_add(b, a)
            assert dom_add(dom_add(a, b), c) == dom_add(a, dom_add(b, c))
            assert dom_mul(a, b) == dom_mul(b, a)
            assert dom_mul(dom_mul(a, b), c) == dom_mul(a, dom_mul(b, c))
            assert dom_mul(a, dom_add(b, c)) == dom_add(dom_mul(a, b), dom_mul(a, c))
            assert dom_add(a, zero) == a
            assert dom_mul(a, one) == a


@given(st.integers(0, 100), st.integers(0, 100))
def test_cone_strictness(a, b):
    total = dom_add(Scalar(Z_PLUS, a), Scalar(Z_PLUS, b))
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
                inv = dom_inv(Scalar(domain, a))
                assert dom_mul(Scalar(domain, a), inv).value == 1
            else:
                assert not is_unit(Scalar(domain, a))


def test_domain_codes_round_trip():
    for domain in (Z, Q, Z_PLUS, Q_PLUS, Mod(7), Mod(100)):
        assert domain_from_code(domain.code) == domain
    with pytest.raises(ParseError):
        domain_from_code("R")
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

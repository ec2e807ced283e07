import itertools
import random
import re
from fractions import Fraction
from functools import partial

import pytest

from conftest import col, row, sq
from natprod import (
    ADDITION,
    Carrier,
    DIRECT,
    Domain,
    DomainMismatch,
    MaskSubspace,
    Matrix,
    Mod,
    NOT_SPANNING,
    NotMember,
    PSEUDO_DIRECT,
    PartitionType,
    Q,
    Q_PLUS,
    Shape,
    ShapeMismatch,
    SupportMask,
    TooLarge,
    UnsupportedDomain,
    Z,
    Z_PLUS,
    analyze,
    check_sum,
    cone_positivity_check,
    cone_zero_divisor_pair,
    domain_from_code,
    ideal_generated,
    idempotents_in,
    is_ideal,
    is_smarandache,
    is_subsemigroup,
    ones,
    orthogonal_space,
    parse_literal,
    render_matrix,
    subspace_complement,
    support,
    zeros,
)
from natprod.structures import (
    ASSOC_EXHAUSTIVE_LIMIT,
    DEFAULT_MAX_ELEMENTS,
    StructureReport,
    _Table,
)
from natprod.verify import rand_fraction, rand_matrix


def test_analyze_mod3_pairs():
    report = analyze(Carrier.all_matrices(Shape(1, 2), Mod(3)))
    assert report.closed and report.associative and report.commutative
    assert report.identity == Matrix.from_rows([[1, 1]], Mod(3))
    # oracle: entrywise idempotents of Z_3 are {0, 1}
    expected = sorted(
        (Matrix.from_rows([[a, b]], Mod(3)) for a in (0, 1) for b in (0, 1)),
        key=lambda m: m.values,
    )
    assert list(report.idempotents) == expected
    assert report.associativity_mode == "exhaustive"


def test_analyze_sampled_associativity_mode():
    report = analyze(Carrier.all_matrices(Shape(2, 1), Mod(9)), samples=50)
    assert report.carrier.cardinality() == 81
    assert report.associativity_mode == "sampled(50)"
    assert report.associative


def test_analyze_explicit_not_closed():
    carrier = Carrier.explicit([row([2], Z), row([4], Z)])
    report = analyze(carrier)
    assert not report.closed
    assert report.closure_witness is not None
    a, b = report.closure_witness
    assert a * b not in {row([2], Z), row([4], Z)}


def test_carrier_too_large():
    with pytest.raises(TooLarge):
        Carrier.masks(Shape(5, 5)).elements()
    with pytest.raises(TooLarge):
        analyze(Carrier.all_matrices(Shape(2, 2), Mod(12)))


def test_huge_carrier_refused_before_counting():
    for carrier in (Carrier.masks(Shape(300, 300)), Carrier.all_matrices(Shape(300, 300), Mod(7))):
        with pytest.raises(TooLarge) as info:
            analyze(carrier)
        assert "300x300" in str(info.value) and "1024" in str(info.value)


def _ref_elements(carrier):
    """The enumeration the cell alphabet replaced: a SupportMask per mask,
    a coerced Matrix(...) per tuple of residues."""
    shape, domain = carrier.shape, carrier.domain
    if carrier.kind == "masks":
        return tuple(
            SupportMask.from_int(shape, i).to_matrix(domain) for i in range(1 << shape.size)
        )
    values = itertools.product(range(domain.modulus), repeat=shape.size)
    return tuple(Matrix(shape, domain, v) for v in values)


def _enumerated_up_to_the_bound():
    """Masks over six domains and every matrix over Z_2..Z_7, in one- and
    two-row shapes, up to DEFAULT_MAX_ELEMENTS members."""
    for domain in (Z, Z_PLUS, Q, Q_PLUS, Mod(2), Mod(6)):
        for shape in ((1, 1), (1, 3), (2, 3), (2, 5), (3, 4)):
            yield Carrier.masks(Shape(*shape), domain)
    for n in range(2, 8):
        for size in itertools.count(1):
            if n**size > DEFAULT_MAX_ELEMENTS:
                break
            yield Carrier.all_matrices(Shape(1, size), Mod(n))
            if size % 2 == 0:
                yield Carrier.all_matrices(Shape(2, size // 2), Mod(n))


def test_enumeration_from_the_cell_matches_the_reference():
    for carrier in _enumerated_up_to_the_bound():
        want = _ref_elements(carrier)
        got = carrier.elements()
        assert got == want, carrier
        assert [type(v) for m in got for v in m.values] == [
            type(v) for m in want for v in m.values
        ]
        assert carrier.cardinality() == len(want)
        assert all(m in carrier for m in want)
        shape, domain, size = carrier.shape, carrier.domain, carrier.shape.size
        outsiders = [
            Matrix(shape, Mod(3) if domain is Z else Z, [0] * size),
            Matrix(Shape(shape.rows + 1, shape.cols), domain, [0] * (size + shape.cols)),
        ]
        if shape.cols > 1:  # a member's entries, but partitioned
            outsiders.append(want[-1].with_partition(PartitionType(shape, (), (1,))))
        if carrier.kind == "masks" and domain is not Mod(2):
            outsiders.append(Matrix(shape, domain, [0] * (size - 1) + [2]))
        assert not any(m in carrier for m in outsiders), carrier


def test_enumeration_refusals_keep_their_messages(monkeypatch):
    for carrier, message in (
        (Carrier.masks(Shape(1, 13)), "masks carrier of shape 1x13 has more than 4096 elements"),
        (
            Carrier.all_matrices(Shape(2, 2), Mod(9)),
            "all carrier of shape 2x2 has more than 4096 elements",
        ),
    ):
        with pytest.raises(TooLarge, match=f"^{message}$"):
            carrier.elements()
    # a modulus past sys.maxsize is counted exactly, and refused by that count
    huge = Carrier.all_matrices(Shape(1, 1), Mod(2**70))
    assert huge.cardinality() == 2**70 and row([2**69], Mod(2**70)) in huge
    with pytest.raises(TooLarge, match="^all carrier of shape 1x1 has more than 4096"):
        huge.elements()

    # 2^60000 masks: refused from the shape alone, before any count
    def no_count(self):
        raise AssertionError("counted")

    monkeypatch.setattr(Carrier, "cardinality", no_count)
    with pytest.raises(TooLarge, match="^masks carrier of shape 200x300 has more than 4096"):
        Carrier.masks(Shape(200, 300)).elements()


def test_idempotents_examples():
    # oracle: brute-force squaring over Z_6
    per_entry = sorted(x for x in range(6) if (x * x) % 6 == x)
    assert per_entry == [0, 1, 3, 4]
    singles = idempotents_in(Carrier.all_matrices(Shape(1, 1), Mod(6)))
    assert [m.values[0] for m in singles] == per_entry
    pairs = idempotents_in(Carrier.all_matrices(Shape(1, 2), Mod(6)))
    assert len(pairs) == 16
    masks = idempotents_in(Carrier.masks(Shape(2, 2)))
    assert len(masks) == 16


def test_ideal_examples_and_contracts():
    carrier = Carrier.masks(Shape(2, 4))
    x = Matrix.from_rows([[1, 1, 1, 1], [0, 0, 0, 0]], Z_PLUS)
    ideal = ideal_generated(carrier, x)
    assert ideal.cardinality == 16
    # down-set semantics: exactly the masks supported inside x
    assert all(support(m) <= support(x) for m in ideal.members)
    with pytest.raises(NotMember):
        ideal_generated(carrier, Matrix.from_rows([[2, 0, 0, 0], [0, 0, 0, 0]], Z_PLUS))
    with pytest.raises(UnsupportedDomain):
        ideal_generated(Carrier.masks(Shape(1, 2), op=ADDITION), ones(Shape(1, 2), Z_PLUS))


def test_ideal_refuses_a_product_outside_the_carrier():
    # {1, 2} in Z_6 is not closed: 2 * 2 = 4 must not be reported as a member
    carrier = Carrier.explicit([row([1], Mod(6)), row([2], Mod(6))])
    with pytest.raises(NotMember) as info:
        ideal_generated(carrier, row([1], Mod(6)))
    assert "[2] * [2] = [4]" in str(info.value)


def test_ideal_is_ideal_and_subsemigroup():
    carrier = Carrier.masks(Shape(1, 2))
    x = Matrix.from_rows([[1, 0]], Z_PLUS)
    ideal = ideal_generated(carrier, x)
    assert is_subsemigroup(carrier, ideal.members)
    assert is_ideal(carrier, ideal.members)
    # a subsemigroup that is not an ideal
    j = ones(Shape(1, 2), Z_PLUS)
    assert is_subsemigroup(carrier, [j])
    assert not is_ideal(carrier, [j])


def test_smarandache_examples():
    j = ones(Shape(3, 1), Z)
    carrier = Carrier.explicit([zeros(Shape(3, 1), Z), j, -j, j.scale(2)])
    witness = is_smarandache(carrier)
    assert witness is not None and set(witness) == {j, -j}

    units = is_smarandache(Carrier.all_matrices(Shape(1, 2), Mod(5)))
    assert units is not None and len(units) == 16
    assert all(all(v != 0 for v in m.values) for m in units)

    assert is_smarandache(Carrier.masks(Shape(1, 2))) is None


def test_smarandache_lifts_from_subsemigroup():
    # if a sub-carrier has a group witness, so does every carrier containing it
    j = ones(Shape(2, 1), Z)
    inner = Carrier.explicit([zeros(Shape(2, 1), Z), j, -j])
    assert is_smarandache(inner) is not None
    outer = Carrier.explicit(
        [zeros(Shape(2, 1), Z), j, -j, j.scale(2), j.scale(3), -j.scale(2)]
    )
    assert is_smarandache(outer) is not None


def test_smarandache_whole_group_uses_proper_subgroup():
    vectors = [
        Matrix.from_rows([[a], [b]], Z) for a in (1, -1) for b in (1, -1)
    ]
    witness = is_smarandache(Carrier.explicit(vectors))
    assert witness is not None
    assert 2 <= len(witness) < 4


def test_orthogonal_space_rejects_modular():
    # 2*3 = 0 mod 6 although both supports are full, so no mask describes
    # the annihilator there
    with pytest.raises(UnsupportedDomain):
        orthogonal_space(Matrix.from_rows([[2]], Mod(6)))


def test_orthogonal_space_examples():
    x = sq([[3, 0], [0, 5]])
    space = orthogonal_space(x)
    assert space.mask == SupportMask(Shape(2, 2), [0, 1, 1, 0])
    assert space.dim == 2
    assert orthogonal_space(zeros(Shape(2, 2), Q)).mask.is_full()
    assert orthogonal_space(ones(Shape(2, 2), Q)).mask.is_zero()


def test_orthogonal_space_membership_characterization(rng):
    for _ in range(60):
        shape = Shape(rng.randint(1, 3), rng.randint(1, 4))
        x = rand_matrix(rng, shape)
        space = orthogonal_space(x)
        for _ in range(20):
            y = rand_matrix(rng, shape)
            assert ((x * y).is_zero()) == space.contains(y)
        # closure under + and scalars within the subspace
        a = space.sample_member(rng)
        b = space.sample_member(rng)
        assert space.contains(a + b)
        assert space.contains(-a)
        assert space.contains(a.scale(7))
        assert (x * (a + b)).is_zero()


def test_subspace_complement_extremes():
    full = MaskSubspace(SupportMask(Shape(2, 2), [1, 1, 1, 1]), Q)
    assert subspace_complement(full).mask.is_zero()
    zero = MaskSubspace(SupportMask(Shape(2, 2), [0, 0, 0, 0]), Q)
    assert subspace_complement(zero).mask.is_full()


def test_subspace_complement_dims(rng):
    for _ in range(100):
        shape = Shape(rng.randint(1, 4), rng.randint(1, 4))
        bits = [rng.randint(0, 1) for _ in range(shape.size)]
        w = MaskSubspace(SupportMask(shape, bits), Q)
        wp = subspace_complement(w)
        assert w.dim + wp.dim == shape.size
        a = w.sample_member(rng)
        b = wp.sample_member(rng)
        assert (a * b).is_zero()


def test_check_sum_trivials():
    full = MaskSubspace(SupportMask(Shape(2, 2), [1, 1, 1, 1]), Q)
    assert check_sum([full]).kind == DIRECT
    half = MaskSubspace(SupportMask(Shape(2, 2), [1, 1, 0, 0]), Q)
    report = check_sum([half])
    assert report.kind == NOT_SPANNING
    assert report.gaps == ((1, 0), (1, 1))
    overlapping = check_sum([full, half])
    assert overlapping.kind == PSEUDO_DIRECT
    assert overlapping.overlaps[0][:2] == (0, 1)


def test_check_sum_refuses_mixed_domains():
    mask = SupportMask(Shape(2, 2), [1, 1, 1, 1])
    with pytest.raises(DomainMismatch, match="share one domain"):
        check_sum([MaskSubspace(mask, Q), MaskSubspace(mask, Z)])
    with pytest.raises(ShapeMismatch, match="share one shape"):
        check_sum([MaskSubspace(mask, Q), MaskSubspace(SupportMask(Shape(1, 4), [1] * 4), Q)])


def test_cone_positivity():
    report = cone_positivity_check(Shape(1, 4), Q_PLUS, samples=300, seed=1)
    assert report.positive_products_ok
    assert report.additive_strictness_ok
    a, b = report.zero_divisor_pair
    assert (a * b).is_zero()
    assert cone_zero_divisor_pair(Shape(1, 1), Z_PLUS) is None
    single = cone_positivity_check(Shape(1, 1), Z_PLUS, samples=50)
    assert single.zero_divisor_pair is None
    with pytest.raises(UnsupportedDomain):
        cone_positivity_check(Shape(1, 2), Q)


# Seed 3, as drawn by the per-sampler loops that the one seeded draw
# `scalars._draw` replaced: a 2x3 and then a 1x2 `rand_matrix` (entries in
# -4..4), a member of the mask [1 0 1;0 1 1], and in a cone the pairs of
# `cone_positivity_check(2x2, samples=2, seed=3)`.
SEEDED_DRAWS = [
    ("Z", "[-2 9 8;-5 2 6]", "[-3 -4]", "[6 0 -1;0 8 -2]", None),
    ("Q", "[-2/9 -5/6 3;-9/8 -1/9 -1/2]", "[1/3 1/2]", "[1 0 -2/3;0 1 -9/2]", None),
    ("Z+", "[2 9 8;5 2 6]", "[3 4]", "[6 0 1;0 8 2]",
     ["[31 76;70 17]", "[48 78;61 81]", "[75 9;78 2]", "[61 34;71 30]"]),
    ("Q+", "[2/9 5/6 3;9/8 1/9 1/2]", "[1/3 1/2]", "[1 0 2/3;0 1 9/2]",
     ["[31/76 70/17;8/13 61/81]", "[25/3 39;61/34 71/30]", "[25/92 61/70;71/61 51/82]",
      "[2/3 41/10;67/50 95/2]"]),
    ("Zn:7", "[5 2 1;2 2 6]", "[4 3]", "[6 0 6;0 1 5]", None),
]


@pytest.mark.parametrize("code,first,second,member,cone", SEEDED_DRAWS)
def test_seeded_draws_keep_their_streams(code, first, second, member, cone, monkeypatch):
    domain = domain_from_code(code)
    rng = random.Random(3)
    mask = SupportMask(Shape(2, 3), [1, 0, 1, 0, 1, 1])
    drawn = [
        rand_matrix(rng, (2, 3), domain),
        rand_matrix(rng, (1, 2), domain, lo=-4, hi=4),
        MaskSubspace(mask, domain).sample_member(rng),
    ]
    if cone is not None:
        pairs, product = [], Matrix.__mul__
        monkeypatch.setattr(Matrix, "__mul__", lambda x, y: pairs.append((x, y)) or product(x, y))
        cone_positivity_check(Shape(2, 2), domain, samples=2, seed=3)
        drawn += [m for pair in pairs for m in pair]
    assert [render_matrix(m) for m in drawn] == [first, second, member, *(cone or [])]
    # every value is canonical for the domain: a reduced Fraction over Q and
    # Q+, a residue over Z_n, an int otherwise
    assert {type(v) for m in drawn for v in m.values} == {Fraction if domain.is_rational else int}
    assert drawn == [Matrix(m.shape, domain, m.values) for m in drawn]


def test_seeded_fractions_keep_their_stream():
    rng = random.Random(3)
    assert [str(rand_fraction(rng)) for _ in range(4)] == ["-2/9", "-5/6", "3", "-9/8"]
    assert rand_fraction(rng, 1, 99, 99) == Fraction(34, 71)


@pytest.mark.parametrize("domain", [Z_PLUS, Q_PLUS], ids=lambda d: d.code)
def test_cone_zero_divisor_pair_has_complementary_supports(domain):
    for rows, cols in itertools.product(range(1, 5), repeat=2):
        pair = cone_zero_divisor_pair(Shape(rows, cols), domain)
        assert cone_positivity_check(Shape(rows, cols), domain, samples=1).zero_divisor_pair == pair
        if rows * cols == 1:
            assert pair is None
            continue
        a, b = pair
        assert a.domain is b.domain is domain
        # every position is in exactly one support
        assert [v != 0 for v in a.values] == [v == 0 for v in b.values]
        assert (a * b).is_zero()


def test_carrier_explicit_validation():
    with pytest.raises(ValueError):
        Carrier.explicit([])
    with pytest.raises(ValueError):
        Carrier.explicit([row([1], Z), row([1], Z)])
    with pytest.raises(ShapeMismatch):
        Carrier.explicit([row([1], Z), row([1, 2], Z)])


def test_analyze_zero_divisors_reported():
    report = analyze(Carrier.all_matrices(Shape(1, 2), Mod(3)))
    for a, b in report.zero_divisor_pairs:
        assert not a.is_zero() and not b.is_zero()
        assert (a * b).is_zero()
    assert len(report.zero_divisor_pairs) == 8


@pytest.mark.parametrize(
    "carrier",
    [
        Carrier.all_matrices(Shape(1, 4), Mod(4)),
        Carrier.masks(Shape(2, 3)),
        # no zero member: [1 0] * [0 1] leaves the carrier for the zero matrix
        Carrier.explicit(row(v, Z) for v in ([1, 0], [0, 1], [2, 0], [1, 1], [0, 3])),
    ],
    ids=["all:1x4:Zn:4", "masks:2x3", "explicit:no-zero"],
)
def test_zero_divisor_pairs_match_a_double_loop(carrier):
    elements = carrier.elements()
    want = tuple(
        (a, b)
        for a in elements
        for b in elements
        if not a.is_zero() and not b.is_zero() and (a * b).is_zero()
    )
    assert want
    assert analyze(carrier).zero_divisor_pairs == want


def test_max_subgroups_are_groups():
    report = analyze(Carrier.all_matrices(Shape(1, 2), Mod(5)))
    for e, members in report.max_subgroups:
        member_set = set(members)
        assert e in member_set
        for a in members:
            assert a * e == a
            assert any(a * b == e for b in members)
            for b in members:
                assert a * b in member_set


def test_report_serialization_deterministic():
    import json

    report = analyze(Carrier.masks(Shape(1, 2)))
    first = json.dumps(report.to_json(), sort_keys=True)
    second = json.dumps(analyze(Carrier.masks(Shape(1, 2))).to_json(), sort_keys=True)
    assert first == second
    assert "idempotent_count" in report.to_json()
    assert report.table()


# -- reference: the direct-product loops the product table replaced ----------


def _ref_support_key(m):
    return (-support(m).popcount, m.values)


def _ref_maximal_subgroup(elements, op, e):
    candidates = [a for a in elements if op(a, e) == a]
    members = [a for a in candidates if any(op(a, b) == e for b in candidates)]
    return sorted(members, key=lambda m: m.values)


def _ref_cyclic_subgroup(elements, op, e, a):
    seen = [e]
    current = a
    element_set = set(elements)
    while current != e:
        if current not in element_set or current in seen:
            return None
        seen.append(current)
        current = op(current, a)
    return sorted(seen, key=lambda m: m.values)


def _ref_smarandache_witness(elements, op, subgroups):
    whole = len(elements)
    for e, h in subgroups:
        if len(h) < 2:
            continue
        if len(h) < whole:
            return tuple(h)
        for a in elements:
            if a == e:
                continue
            cyc = _ref_cyclic_subgroup(elements, op, e, a)
            if cyc is not None and 2 <= len(cyc) < whole:
                return tuple(cyc)
    return None


def _ref_is_smarandache(carrier):
    elements = carrier.elements()
    op = carrier.apply
    idempotents = [a for a in elements if op(a, a) == a]
    subgroups = [
        (e, tuple(_ref_maximal_subgroup(elements, op, e)))
        for e in sorted(idempotents, key=_ref_support_key)
    ]
    return _ref_smarandache_witness(elements, op, subgroups)


def _ref_analyze(carrier, seed, samples=400):
    elements = carrier.elements(1024)
    element_set = set(elements)
    op = carrier.apply
    n = len(elements)

    closed, closure_witness = True, None
    commutative, commutativity_witness = True, None
    products = {}
    for a in elements:
        for b in elements:
            ab = op(a, b)
            products[(a, b)] = ab
            if closed and ab not in element_set:
                closed, closure_witness = False, (a, b)
    for a, b in itertools.combinations(elements, 2):
        if products[(a, b)] != products[(b, a)]:
            commutative, commutativity_witness = False, (a, b)
            break

    associative, associativity_witness = True, None
    if n <= ASSOC_EXHAUSTIVE_LIMIT:
        mode = "exhaustive"
        for a, b, c in itertools.product(elements, repeat=3):
            if op(products[(a, b)], c) != op(a, products[(b, c)]):
                associative, associativity_witness = False, (a, b, c)
                break
    else:
        rng = random.Random(seed)
        mode = f"sampled({samples})"
        draws = rng.choices(elements, k=3 * samples)
        for a, b, c in zip(draws[::3], draws[1::3], draws[2::3]):
            if op(op(a, b), c) != op(a, op(b, c)):
                associative, associativity_witness = False, (a, b, c)
                break

    identity = None
    for e in elements:
        if all(products[(e, a)] == a and products[(a, e)] == a for a in elements):
            identity = e
            break
    idempotents = tuple(a for a in elements if products[(a, a)] == a)
    zero_divisor_pairs = ()
    if carrier.op != ADDITION:
        zero = zeros(carrier.shape, carrier.domain)
        zero_divisor_pairs = tuple(
            (a, b)
            for a in elements
            for b in elements
            if not a.is_zero() and not b.is_zero() and products[(a, b)] == zero
        )
    subgroups = [
        (e, tuple(_ref_maximal_subgroup(elements, op, e)))
        for e in sorted(idempotents, key=_ref_support_key)
    ]
    return StructureReport(
        carrier=carrier,
        closed=closed,
        closure_witness=closure_witness,
        associative=associative,
        associativity_mode=mode,
        associativity_witness=associativity_witness,
        commutative=commutative,
        commutativity_witness=commutativity_witness,
        identity=identity,
        idempotents=idempotents,
        zero_divisor_pairs=zero_divisor_pairs,
        max_subgroups=tuple(subgroups),
        smarandache=_ref_smarandache_witness(elements, op, subgroups),
    )


def _ref_ideal(carrier, x):
    elements = carrier.elements()
    ideal, frontier = {x}, [x]
    while frontier:
        frontier = [p for p in {f * s for f in frontier for s in elements} if p not in ideal]
        ideal.update(frontier)
    return tuple(sorted(ideal, key=lambda m: m.values))


def _ref_idempotents_in(carrier):
    op = carrier.apply
    return tuple(a for a in carrier.elements() if op(a, a) == a)


def _ref_is_subsemigroup(carrier, subset):
    subset = set(subset)
    op = carrier.apply
    return all(op(a, b) in subset for a in subset for b in subset)


def _ref_is_ideal(carrier, subset):
    subset = set(subset)
    op = carrier.apply
    elements = carrier.elements()
    return all(op(a, s) in subset for a in subset for s in elements)


def _sign_group(k):
    return Carrier.explicit(col(signs, Z) for signs in itertools.product((1, -1), repeat=k))


def _random_explicit(seed, members=8, n=6):
    rng = random.Random(seed)
    values = set()
    while len(values) < members:
        values.add(tuple(rng.randrange(n) for _ in range(4)))
    return Carrier.explicit(sq([list(v[:2]), list(v[2:])], Mod(n)) for v in values)


REFERENCE_CARRIERS = {
    "masks:2x2": Carrier.masks(Shape(2, 2)),
    "masks:2x2:add": Carrier.masks(Shape(2, 2), op=ADDITION),
    "all:1x2:Zn:6": Carrier.all_matrices(Shape(1, 2), Mod(6)),
    "all:1x2:Zn:4:add": Carrier.all_matrices(Shape(1, 2), Mod(4), op=ADDITION),
    "all:1x3:Zn:3": Carrier.all_matrices(Shape(1, 3), Mod(3)),
    # 64 elements: the last exhaustive size; 81: sampled
    "masks:1x6": Carrier.masks(Shape(1, 6)),
    "all:1x2:Zn:5:add": Carrier.all_matrices(Shape(1, 2), Mod(5), op=ADDITION),
    "all:2x2:Zn:3": Carrier.all_matrices(Shape(2, 2), Mod(3)),
    "all:1x4:Zn:3:add": Carrier.all_matrices(Shape(1, 4), Mod(3), op=ADDITION),
    "explicit:2,4:Z": Carrier.explicit([row([2], Z), row([4], Z)]),
    "explicit:1,2:Zn:6": Carrier.explicit([row([1], Mod(6)), row([2], Mod(6))]),
    "explicit:random:Zn:6": _random_explicit(3),
    "explicit:random:Zn:6:add": Carrier.explicit(_random_explicit(4).members, op=ADDITION),
    # the whole carrier is its unit group, but <-2> leaves it before <-1> closes
    "explicit:-2,-1,-1/2,1:Q": Carrier.explicit(row([v]) for v in (-2, -1, Fraction(-1, 2), 1)),
    "signs:2": _sign_group(2),
    "signs:3": _sign_group(3),
    "signs:3:add": Carrier.explicit(_sign_group(3).members, op=ADDITION),
    # units of order 36 with cyclic subgroups of order 3 and 6: the inverse
    # search finds the whole unit group at the identity
    "all:1x2:Zn:7": Carrier.all_matrices(Shape(1, 2), Mod(7)),
    # 2 * 2 = 0: [2 x] lies in no maximal subgroup, as 2 has an inverse
    # relative to no idempotent of Z_4
    "all:1x2:Zn:4": Carrier.all_matrices(Shape(1, 2), Mod(4)),
    # a closed one-cell table under addition, and one that is not (1 + 1 = 2)
    "masks:1x3:Zn:2:add": Carrier.masks(Shape(1, 3), Mod(2), op=ADDITION),
    "masks:1x3:add": Carrier.masks(Shape(1, 3), op=ADDITION),
    # an open one-cell table over Z, and one past 64 members: sampled triples
    # whose products leave the members
    "masks:1x3:Z:add": Carrier.masks(Shape(1, 3), Z, op=ADDITION),
    "masks:1x7:add": Carrier.masks(Shape(1, 7), op=ADDITION),
    # Fraction cell values, closed under the natural product and open under addition
    "masks:2x2:Q": Carrier.masks(Shape(2, 2), Q),
    "masks:2x2:Q:add": Carrier.masks(Shape(2, 2), Q, op=ADDITION),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CARRIERS))
def test_product_table_matches_direct_products(name):
    carrier = REFERENCE_CARRIERS[name]
    # the seed drives sampled associativity only
    for seed in (0, 1) if carrier.cardinality() > ASSOC_EXHAUSTIVE_LIMIT else (0,):
        got, want = analyze(carrier, seed=seed), _ref_analyze(carrier, seed)
        assert got.to_json() == want.to_json()
        # at every idempotent, the group `_ref_maximal_subgroup` finds: on an
        # enumerated carrier a product of cell groups, open cells included
        assert got.max_subgroups == want.max_subgroups
        assert got.table() == want.table()
        assert got.smarandache == want.smarandache
    assert is_smarandache(carrier) == _ref_is_smarandache(carrier)
    if carrier.op != ADDITION and want.closed:
        for x in carrier.elements():
            assert ideal_generated(carrier, x).members == _ref_ideal(carrier, x)


def _outsider(carrier):
    """A constant matrix of the carrier's shape and domain outside it, or None."""
    elements = carrier.elements()
    size = carrier.shape.size
    candidates = (Matrix(carrier.shape, carrier.domain, [v] * size) for v in range(2, 10))
    return next((m for m in candidates if m not in elements), None)


@pytest.mark.parametrize("name", sorted(REFERENCE_CARRIERS))
def test_subset_questions_match_direct_products(name):
    carrier = REFERENCE_CARRIERS[name]
    elements = carrier.elements()
    assert all(m in carrier for m in elements)
    assert idempotents_in(carrier) == _ref_idempotents_in(carrier)
    subsets = [[m] for m in elements] + [elements, elements[::2]]
    if carrier.op != ADDITION and _ref_is_subsemigroup(carrier, elements):
        subsets += [ideal_generated(carrier, x).members for x in elements[::7]]
    for subset in subsets:
        assert is_subsemigroup(carrier, subset) == _ref_is_subsemigroup(carrier, subset)
        assert is_ideal(carrier, subset) == _ref_is_ideal(carrier, subset)
    outsider = _outsider(carrier)
    if outsider is not None:
        for subset in ([outsider], [elements[0], outsider], [*elements, outsider]):
            for question in (is_subsemigroup, is_ideal):
                with pytest.raises(NotMember, match=re.escape(render_matrix(outsider))):
                    question(carrier, subset)


@pytest.mark.parametrize("question", [is_ideal, is_subsemigroup])
def test_subset_questions_refuse_a_non_member(question):
    carrier = Carrier.masks((1, 1))
    # [2] over Z+ and [0] over Z: neither is a member of the Z+ masks {[0], [1]}
    for subset, outsider in (
        ([row([0], Z_PLUS), row([2], Z_PLUS)], "[2]"),
        ([Matrix.from_rows([[0]], Z)], "[0]"),
    ):
        with pytest.raises(NotMember, match=re.escape(f"{outsider} is not a carrier member")):
            question(carrier, subset)


def test_explicit_carriers_hold_their_partitioned_members():
    a, b, z = (parse_literal(text, Z) for text in ("[1 | 0]", "[0 | 1]", "[0 | 0]"))
    carrier = Carrier.explicit([a, b, z])
    assert a in carrier and z in carrier
    assert a.base not in carrier  # equal entries, but no partition
    assert is_subsemigroup(carrier, [a]) and is_subsemigroup(carrier, [a, b, z])
    assert is_ideal(carrier, [z]) and not is_ideal(carrier, [a])
    with pytest.raises(NotMember, match=re.escape("[1 0] is not a carrier member")):
        is_subsemigroup(carrier, [a.base])
    # an enumerated carrier still holds no partitioned matrix
    assert parse_literal("[1 | 0]", Z_PLUS) not in Carrier.masks((1, 2))
    assert parse_literal("[1 | 0]", Mod(2)) not in Carrier.all_matrices((1, 2), Mod(2))


def test_is_subsemigroup_answers_past_the_enumeration_bound():
    # 2^16 masks and 10^4 matrices over Z_10: neither carrier is enumerated
    masks, residues = Carrier.masks(Shape(4, 4)), Carrier.all_matrices(Shape(2, 2), Mod(10))
    assert min(masks.cardinality(), residues.cardinality()) > DEFAULT_MAX_ELEMENTS
    assert is_subsemigroup(masks, [ones(Shape(4, 4), Z_PLUS)])
    # [1 1 0 0] * [0 1 1 0] = [0 1 0 0] in the first row
    pair = [
        Matrix(Shape(4, 4), Z_PLUS, [1, 1] + [0] * 14),
        Matrix(Shape(4, 4), Z_PLUS, [0, 1, 1] + [0] * 13),
    ]
    assert not is_subsemigroup(masks, pair)
    assert is_subsemigroup(residues, [sq([[5, 6], [1, 0]], Mod(10))])
    assert not is_subsemigroup(residues, [sq([[2, 0], [0, 0]], Mod(10))])
    with pytest.raises(NotMember, match=re.escape("[2 2 2 2")):
        is_subsemigroup(masks, [ones(Shape(4, 4), Z_PLUS).scale(2)])


@pytest.mark.parametrize(
    "name", sorted(name for name, c in REFERENCE_CARRIERS.items() if c.kind != "explicit")
)
def test_index_filled_rows_match_products_pair_by_pair(name):
    carrier = REFERENCE_CARRIERS[name]
    # the zero is digit 0: the maximal subgroups are ordered by it
    assert carrier.cell[0] == carrier.domain.zero
    n = carrier.cardinality()
    want = _ref_rows(carrier)
    closed = all(k < n for row in want for k in row)
    fresh = _Table.of(carrier)
    # the carrier, a direct power of its one-cell table, is closed exactly when that table is
    assert (fresh.cell.closure_witness() is None) == fresh.closed == closed
    assert [fresh.row(a) for a in range(n)] == want
    assert fresh.idempotents() == [a for a in range(n) if want[a][a] == a]
    rows = _Table.of(carrier).fill().rows
    assert list(map(list, rows)) == want
    # a filled closed table of at most 256 members keeps one byte per index
    assert {type(row) for row in rows} == {bytes if closed and n <= 256 else list}


def _ref_rows(carrier):
    """The filled table, one `apply` per pair; a product outside the
    members is indexed past them in order of first sight."""
    elements = carrier.elements()
    index = {m: i for i, m in enumerate(elements)}
    return [[index.setdefault(carrier.apply(a, b), len(index)) for b in elements] for a in elements]


@pytest.mark.parametrize(
    "carrier,form",
    [
        (Carrier.masks(Shape(2, 4)), bytes),
        (Carrier.all_matrices(Shape(1, 4), Mod(4)), bytes),
        (Carrier.masks(Shape(3, 3)), list),
    ],
    ids=["masks:2x4", "all:1x4:Zn:4", "masks:3x3"],
)
def test_filled_rows_either_side_of_the_one_byte_bound(carrier, form):
    # 256 members: the last index is 255, one byte; 512 members: lists
    rows = _Table.of(carrier).fill().rows
    assert {type(row) for row in rows} == {form}
    assert list(map(list, rows)) == _ref_rows(carrier)


def _times_square(x, y):
    """x·y·y: two members commute under it exactly when x·y·(y - x) is 0."""
    return x * y * y


@pytest.mark.parametrize("form", [bytes, list])
@pytest.mark.parametrize(
    "members,op,first",
    [
        (Carrier.all_matrices(Shape(1, 2), Mod(3)).elements(), _times_square, (1, 2)),
        # the 0/1 members commute: row 1 first differs from its column at [0 2]
        (
            [row(v, Z) for v in ([0, 0], [0, 1], [1, 0], [1, 1], [0, 2], [2, 2])],
            _times_square,
            (1, 4),
        ),
        (Carrier.masks(Shape(1, 3), Z).elements(), Matrix.__sub__, (0, 1)),
        (Carrier.all_matrices(Shape(1, 2), Mod(3)).elements(), Matrix.__mul__, None),
    ],
    ids=["closed", "not-closed", "not-closed-subtraction", "commutative"],
)
def test_commutativity_witness_is_the_first_pair_a_brute_force_search_finds(
    members, op, first, form
):
    want = next(
        (
            (a, b)
            for a, b in itertools.combinations(range(len(members)), 2)
            if op(members[a], members[b]) != op(members[b], members[a])
        ),
        None,
    )
    assert want == first
    table = _Table(members, op).fill()
    # every index fits one byte, so the same table can be read as bytes
    assert len(table.elements) <= 256
    table.rows = list(map(form, table.rows))
    assert table.commutativity_witness() == want


@pytest.mark.parametrize(
    "members,interned",
    [
        (Carrier.all_matrices(Shape(1, 2), Mod(3)).elements(), 9),
        (Carrier.masks(Shape(1, 2), Z).elements(), 23),
        # 8 members and 101 elements: every index is one byte
        (Carrier.masks(Shape(1, 3), Z).elements(), 101),
        # 16 members and 431 elements: past one byte, the same compare on lists
        (Carrier.masks(Shape(1, 4), Z).elements(), 431),
    ],
    ids=["closed", "not-closed", "bytes", "lists"],
)
def test_unassociative_triples_match_a_brute_force_search(members, interned):
    # subtraction is not associative, and on masks over Z it leaves the members
    want = [
        (a, b, c)
        for a, b, c in itertools.product(range(len(members)), repeat=3)
        if (members[a] - members[b]) - members[c] != members[a] - (members[b] - members[c])
    ]
    assert want
    table = _Table(members, Matrix.__sub__).fill()
    assert list(table.unassociative_triples()) == want
    assert len(table.elements) == interned


@pytest.mark.parametrize(
    "carrier,interned",
    [(Carrier.masks(Shape(2, 3)), 64), (Carrier.masks(Shape(2, 2), op=ADDITION), 256)],
    ids=["masks:2x3", "masks:2x2:add"],
)
def test_exhaustive_associativity_up_to_the_one_byte_bound(carrier, interned):
    # masks:2x2:add reaches the entries 0..3 outside the members: 4^4 elements,
    # the last of them index 255
    got, want = analyze(carrier), _ref_analyze(carrier, 0)
    assert got.associativity_mode == "exhaustive"
    assert got.to_json() == want.to_json() and got.table() == want.table()
    table = _Table.of(carrier, 1024).fill()
    assert list(table.unassociative_triples()) == []
    assert len(table.elements) == interned


def test_single_read_walks_compute_each_product_once(monkeypatch):
    calls, scalar_calls = [], []
    natural_product, scalar_product = Matrix.__mul__, Domain.mul

    def counting(a, b):
        calls.append((a, b))
        return natural_product(a, b)

    def counting_scalars(domain, a, b):
        scalar_calls.append((a, b))
        return scalar_product(domain, a, b)

    monkeypatch.setattr(Matrix, "__mul__", counting)
    monkeypatch.setattr(Domain, "mul", counting_scalars)
    # an enumerated carrier computes only its k x k one-cell table, with the
    # domain's scalar product: no matrix product at all
    enumerated = ((Carrier.masks(Shape(2, 3)), 2), (Carrier.all_matrices(Shape(1, 3), Mod(3)), 3))
    for carrier, k in enumerated:
        questions = [partial(ideal_generated, carrier, x) for x in carrier.elements()[::9]]
        for question in [*questions, partial(idempotents_in, carrier)]:
            calls.clear()
            scalar_calls.clear()
            question()
            assert 0 < len(scalar_calls) <= k * k
            assert calls == []
    # an explicit carrier computes a product at most once: the ideal walk
    # reads one row per member, the idempotents one diagonal
    for name in ("signs:3", "explicit:1,2:Zn:6", "explicit:random:Zn:6"):
        carrier = REFERENCE_CARRIERS[name]
        n = carrier.cardinality()
        for x in carrier.elements():
            calls.clear()
            try:
                rows = ideal_generated(carrier, x).cardinality
            except NotMember:
                rows = None
            assert len(set(calls)) == len(calls)
            assert rows is None or len(calls) == rows * n
        calls.clear()
        idempotents_in(carrier)
        assert len(calls) == n and len(set(calls)) == n


def test_cell_questions_compute_only_the_cell_products_they_read(monkeypatch):
    scalar_calls, scalar_product = [], Domain.mul

    def counting(domain, a, b):
        scalar_calls.append((a, b))
        return scalar_product(domain, a, b)

    monkeypatch.setattr(Domain, "mul", counting)
    # the idempotents read the k cell squares and the ideal of [2] one cell
    # row, never the whole k x k table
    carrier = Carrier.all_matrices(Shape(1, 1), Mod(97))
    two = sq([[2]], Mod(97))
    for question in (partial(idempotents_in, carrier), partial(ideal_generated, carrier, two)):
        scalar_calls.clear()
        question()
        assert len(scalar_calls) == 97


def test_enumerated_carriers_compute_no_product_past_one_cell(monkeypatch):
    matrix_calls, scalar_calls = [], []

    def counting(calls, op):
        def wrapped(*args):
            calls.append(args)
            return op(*args)

        return wrapped

    monkeypatch.setattr(Matrix, "__add__", counting(matrix_calls, Matrix.__add__))
    monkeypatch.setattr(Matrix, "__mul__", counting(matrix_calls, Matrix.__mul__))
    monkeypatch.setattr(Domain, "add", counting(scalar_calls, Domain.add))
    monkeypatch.setattr(Domain, "mul", counting(scalar_calls, Domain.mul))
    # masks:2x2:add leaves its members (1 + 1 = 2) and interns 256 elements;
    # is_subsemigroup multiplies the subset's members and is not asked here
    carrier = Carrier.masks(Shape(2, 2), op=ADDITION)
    elements = carrier.elements()
    questions = [
        lambda: analyze(carrier),
        lambda: idempotents_in(carrier),
        lambda: is_smarandache(carrier),
        lambda: is_ideal(carrier, elements[:1]),
    ]
    closed = Carrier.masks(Shape(2, 3))
    questions += [lambda: analyze(closed), lambda: ideal_generated(closed, closed.elements()[9])]
    for question in questions:
        matrix_calls.clear()
        scalar_calls.clear()
        question()
        assert scalar_calls and matrix_calls == []


def test_enumerated_answers_build_only_the_matrices_they_return(monkeypatch):
    # the ideal, the idempotents and the Smarandache witness are products of
    # cell answers: no member matrix is built that the answer does not hold
    questions = []
    for carrier, x in (
        (Carrier.all_matrices(Shape(2, 2), Mod(6)), sq([[2, 0], [3, 1]], Mod(6))),
        (Carrier.masks(Shape(2, 4)), Matrix.from_rows([[1, 0, 1, 1], [0, 1, 0, 0]], Z_PLUS)),
    ):
        questions += [
            lambda carrier=carrier, x=x: ideal_generated(carrier, x).members,
            lambda carrier=carrier: idempotents_in(carrier),
            lambda carrier=carrier: is_smarandache(carrier) or (),
        ]
    built = []
    make = Matrix._make.__func__

    def counting(cls, shape, domain, values, partition=None):
        if shape != Shape(1, 1):
            built.append(values)
        return make(cls, shape, domain, values, partition)

    monkeypatch.setattr(Matrix, "_make", classmethod(counting))
    for question in questions:
        built.clear()
        got = question()
        assert sorted(built) == sorted(m.values for m in got)


def test_enumerated_answers_keep_their_refusals():
    # past the enumeration bound, refused before the generator is checked
    huge = Carrier.all_matrices(Shape(1, 1), Mod(10**20))
    message = "^all carrier of shape 1x1 has more than 4096 elements$"
    for x in (row([3], Mod(10**20)), row([3], Z)):
        with pytest.raises(TooLarge, match=message):
            ideal_generated(huge, x)
    outsider = Matrix.from_rows([[2, 0, 0], [0, 0, 0]], Z_PLUS)
    with pytest.raises(NotMember, match=re.escape("[2 0 0;0 0 0] is not a carrier member")):
        ideal_generated(Carrier.masks(Shape(2, 3)), outsider)

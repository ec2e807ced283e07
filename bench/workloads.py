"""Seeded operation blocks for the three benchmark workloads.

A block is a list of `Op`s with a fixed composition: only the inputs and
the order change with the seed.  Runs measure whole blocks, so every run
of a workload executes the same mix and throughput, the median and the
tail percentile compare across seeds and commits.

* ``algebra``: in-process exact matrix algebra over Z, Q, Zn:7 and Q+.
* ``structures``: in-process finite-structure queries.
* ``cli``: one ``natprod`` child process per operation.

Every input is generated here from the caller's `random.Random`; the
library sees only those inputs.  Each op's `check` compares its result
with `reference`, which never calls the library.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import natprod as np
import natprod.matrix

import reference as ref
from reference import expect

DOMAINS = ("Z", "Q", "Zn:7", "Q+")
CHILD_TIMEOUT_S = 60


class Op:
    """One timed call into the program plus its reference check.

    `check(result)` raises `reference.Mismatch` when the result is wrong.
    CLI ops keep their `argv` so the traced run can replay them in-process.
    """

    __slots__ = ("name", "call", "check", "argv")

    def __init__(self, name, call, check, argv=None):
        self.name, self.call, self.check, self.argv = name, call, check, argv


# -- seeded values --------------------------------------------------------------


def rand_value(rng, code, unit=False):
    """One entry; `unit` asks for an invertible entry of the domain."""
    n = ref.modulus(code)
    if n:
        return rng.randint(1, n - 1) if unit else rng.randint(0, n - 1)
    if code == "Z":
        return rng.choice((-1, 1)) if unit else rng.randint(-9, 9)
    if code == "Q+":
        num = rng.randint(1 if unit else 0, 9)
    elif unit:
        num = rng.choice((-1, 1)) * rng.randint(1, 9)
    else:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 9))


def rand_values(rng, code, size, unit=False):
    return [rand_value(rng, code, unit) for _ in range(size)]


def rand_nonzero(rng, code, size):
    """Nonzero entries (units only over fields and Z_7)."""
    if code == "Z":
        return [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(size)]
    return rand_values(rng, code, size, unit=True)


def rand_cuts(rng, dim):
    if dim < 2:
        return ()
    return tuple(sorted(rng.sample(range(1, dim), rng.randint(1, min(2, dim - 1)))))


def domain(code):
    return np.domain_from_code(code)


def matrix(code, r, c, values):
    return np.Matrix((r, c), domain(code), values)


def same_matrix(m, code, r, c, values, what):
    expect(tuple(m.shape) == (r, c), f"{what}: shape {tuple(m.shape)}, expected {(r, c)}")
    expect(m.domain.code == code, f"{what}: domain {m.domain.code}, expected {code}")
    expect(list(m.values) == list(values), f"{what}: entries differ from the reference")


def poly_terms(p):
    return {d: list(c.values) for d, c in p.terms}


# -- algebra ----------------------------------------------------------------------


SIZES = {
    # small, mid, large, usual-inverse size, (size, degree, domains) of polynomials
    "full": (3, 32, 64, 16, ((3, 30, ("Z", "Q", "Q+")), (8, 10, ("Z", "Q")))),
    "tiny": (2, 4, 5, 3, ((2, 3, ("Z", "Q", "Q+")), (3, 2, ("Z", "Q")))),
}


def _binary(name, code, r, c, rng, fn_lib, fn_ref):
    a_vals = rand_values(rng, code, r * c)
    b_vals = rand_values(rng, code, r * c)
    a, b = matrix(code, r, c, a_vals), matrix(code, r, c, b_vals)

    def check(out):
        same_matrix(out, code, r, c, fn_ref(code, a_vals, b_vals), name)

    return Op(name, lambda: fn_lib(a, b), check)


def _matmul(name, code, n, rng):
    a_vals, b_vals = rand_values(rng, code, n * n), rand_values(rng, code, n * n)
    a, b = matrix(code, n, n, a_vals), matrix(code, n, n, b_vals)

    def check(out):
        same_matrix(out, code, n, n, ref.matmul(code, n, n, n, a_vals, b_vals), name)

    return Op(name, lambda: a @ b, check)


def _inverse(name, code, n, rng):
    vals = rand_values(rng, code, n * n, unit=True)
    a = matrix(code, n, n, vals)

    def check(out):
        same_matrix(out, code, n, n, ref.entrywise_inverse(code, vals), name)

    return Op(name, lambda: np.natural_inverse(a), check)


def _parse(name, code, n, rng):
    vals = rand_values(rng, code, n * n)
    text = ref.render(n, n, vals)
    dom = domain(code)

    def check(out):
        same_matrix(out, code, n, n, vals, name)

    return Op(name, lambda: np.parse_matrix(text, dom), check)


def _render(name, code, n, rng):
    vals = rand_values(rng, code, n * n)
    a = matrix(code, n, n, vals)
    expected = ref.render(n, n, vals)

    def check(out):
        expect(out == expected, f"{name}: text differs from the canonical form")

    return Op(name, lambda: np.render_matrix(a), check)


def _json(name, code, n, rng):
    vals = rand_values(rng, code, n * n)
    a = matrix(code, n, n, vals)

    def call():
        obj = np.matrix_to_json(a)
        return obj, np.matrix_from_json(json.loads(json.dumps(obj)))

    def check(out):
        obj, back = out
        expect(obj == ref.to_json(code, n, n, vals), f"{name}: JSON form differs")
        same_matrix(back, code, n, n, vals, name)

    return Op(name, call, check)


def _super(rng, code, n):
    vals = rand_values(rng, code, n * n)
    cuts = (rand_cuts(rng, n), rand_cuts(rng, n))
    return vals, cuts


def _super_ops(code, n, rng):
    dom = domain(code)
    ops = []
    vals_a, cuts = _super(rng, code, n)
    vals_b = rand_values(rng, code, n * n)
    ptype = np.PartitionType((n, n), *cuts)
    sa = np.SuperMatrix(matrix(code, n, n, vals_a), ptype)
    sb = np.SuperMatrix(matrix(code, n, n, vals_b), ptype)
    for opname, fn_lib, fn_ref in (
        ("nprod", lambda: sa * sb, ref.nprod),
        ("add", lambda: sa + sb, ref.add),
    ):
        name = f"algebra.super.{code}.{n}.{opname}"

        def check(out, name=name, fn_ref=fn_ref):
            same_matrix(out.base, code, n, n, fn_ref(code, vals_a, vals_b), name)
            expect((out.ptype.row_cuts, out.ptype.col_cuts) == cuts, f"{name}: partition lost")

        ops.append(Op(name, fn_lib, check))

    text_vals, text_cuts = _super(rng, code, n)
    text = ref.render(n, n, text_vals, *text_cuts)
    name = f"algebra.super.{code}.{n}.parse"

    def check_parse(out):
        same_matrix(out.base, code, n, n, text_vals, name)
        expect((out.ptype.row_cuts, out.ptype.col_cuts) == text_cuts, f"{name}: cuts differ")

    ops.append(Op(name, lambda: np.parse_super(text, dom), check_parse))

    expected = ref.render(n, n, vals_a, *cuts)
    name_r = f"algebra.super.{code}.{n}.render"

    def check_render(out):
        expect(out == expected, f"{name_r}: text differs from the canonical form")

    ops.append(Op(name_r, lambda: np.render_super(sa), check_render))
    return ops


def _usual_inverse(n, rng):
    vals = rand_values(rng, "Q", n * n)
    for i in range(n):
        vals[i * n + i] += 100  # strictly diagonally dominant, so invertible
    a = matrix("Q", n, n, vals)
    name = f"algebra.Q.{n}.usual_inverse"

    def check(out):
        expect(tuple(out.shape) == (n, n), f"{name}: wrong shape")
        product = ref.matmul("Q", n, n, n, vals, list(out.values))
        expect(product == ref.identity_values(n, "Q"), f"{name}: A @ inverse is not I")

    return Op(name, lambda: natprod.matrix.usual_inverse(a), check)


def _poly(rng, code, n, degree):
    terms = {d: rand_values(rng, code, n * n) for d in range(degree + 1)}
    p = np.MatPoly.from_terms([(d, matrix(code, n, n, v)) for d, v in terms.items()])
    return ref.poly_clean(terms), p


def _poly_ops(code, n, degree, rng):
    (tp, p), (tq, q) = _poly(rng, code, n, degree), _poly(rng, code, n, degree)
    ops = []
    for opname, fn_lib, fn_ref in (
        ("nmul", lambda: p * q, lambda: ref.poly_nmul(code, tp, tq)),
        ("umul", lambda: p @ q, lambda: ref.poly_umul(code, n, tp, tq)),
    ):
        name = f"algebra.poly.{code}.{n}x{n}.deg{degree}.{opname}"

        def check(out, name=name, fn_ref=fn_ref):
            expect(poly_terms(out) == fn_ref(), f"{name}: coefficients differ")

        ops.append(Op(name, fn_lib, check))
    return ops


def _solve_binomial(code, rng, k):
    size = 9
    a_vals = rand_nonzero(rng, code, size)
    r_vals = rand_values(rng, code, size)
    c_vals = ref.nprod(code, a_vals, [v**k for v in r_vals])
    a, c = matrix(code, 3, 3, a_vals), matrix(code, 3, 3, c_vals)
    name = f"algebra.solve.binomial.{code}.k{k}"

    def check(out):
        roots = sorted(tuple(m.values) for m in out)
        if k % 2:
            expected = [tuple(r_vals)]
        else:
            pos = tuple(abs(v) for v in r_vals)
            expected = sorted({pos, tuple(-v for v in pos)})
        expect(roots == expected, f"{name}: roots differ")
        for m in out:
            expect(ref.satisfies(code, {k: a_vals, 0: [-v for v in c_vals]}, list(m.values)),
                   f"{name}: a root does not solve the equation")

    return Op(name, lambda: np.solve_binomial(a, c, k), check)


def _solve_quadratic(rng):
    size = 9
    a_vals = rand_nonzero(rng, "Q", size)
    r1, r2 = rand_values(rng, "Q", size), rand_values(rng, "Q", size)
    b_vals = [-a * (x + y) for a, x, y in zip(a_vals, r1, r2)]
    c_vals = [a * x * y for a, x, y in zip(a_vals, r1, r2)]
    a, b, c = (matrix("Q", 3, 3, v) for v in (a_vals, b_vals, c_vals))
    name = "algebra.solve.quadratic.Q"

    def check(out):
        roots = [list(m.values) for m in out]
        expect(len(roots) == (1 if r1 == r2 else 2), f"{name}: wrong number of roots")
        if len(roots) == 2:
            for i in range(size):
                expect(sorted((roots[0][i], roots[1][i])) == sorted((r1[i], r2[i])),
                       f"{name}: component {i} roots differ")
        for x in roots:
            expect(ref.satisfies("Q", {2: a_vals, 1: b_vals, 0: c_vals}, x),
                   f"{name}: a root does not solve the equation")

    return Op(name, lambda: np.solve_quadratic(a, b, c), check)


def algebra_block(rng, scale="full"):
    small, mid, large, uinv, polys = SIZES[scale]
    ops = []
    nprod, add = (lambda a, b: a * b), (lambda a, b: a + b)
    for code in DOMAINS:
        # Most operations are small, and the Q and Q+ ones hold the median:
        # per-call overhead sets it, inside one class of similar cost.
        for n, reps in ((small, 18 if code.startswith("Q") else 16), (mid, 1), (large, 1)):
            base = f"algebra.{code}.{n}"
            for _ in range(reps):
                ops.append(_binary(f"{base}.nprod", code, n, n, rng, nprod, ref.nprod))
                ops.append(_binary(f"{base}.add", code, n, n, rng, add, ref.add))
            # Q and Q+ usual products stop at 32x32: 64x64 takes seconds.
            if n != large or not code.startswith("Q"):
                for _ in range(2 if n == small else 1):
                    ops.append(_matmul(f"{base}.matmul", code, n, rng))
            ops.append(_inverse(f"{base}.inverse", code, n, rng))
            ops.append(_parse(f"{base}.parse", code, n, rng))
            ops.append(_render(f"{base}.render", code, n, rng))
            ops.append(_json(f"{base}.json", code, n, rng))
        ops += _super_ops(code, small, rng)
        if code in ("Z", "Q"):
            ops += _super_ops(code, mid, rng)
    ops.append(_usual_inverse(uinv, rng))
    for n, degree, codes in polys:
        for code in codes:
            ops += _poly_ops(code, n, degree, rng)
    for code in ("Z", "Q"):
        ops.append(_solve_binomial(code, rng, rng.randint(1, 4)))
    ops += [_solve_quadratic(rng), _solve_quadratic(rng)]
    return ops


# -- structures -------------------------------------------------------------------


def carrier(kind, shape, n, op):
    if kind == "masks":
        return np.Carrier.masks(shape, op=op)
    return np.Carrier.all_matrices(shape, np.Mod(n), op=op)


def spec_name(kind, shape, n, op):
    text = f"{kind}:{shape[0]}x{shape[1]}" + (f":Zn{n}" if kind == "all" else "")
    return text + (":add" if op == "add" else "")


def _values(ms):
    return [tuple(m.values) for m in ms]


def _check_group(code, op, members, whole, what):
    expect(2 <= len(members) < whole, f"{what}: subgroup order {len(members)} out of range")
    expect(ref.is_group(code, op, members), f"{what}: witness is not a group")


def _smarandache_expected(kind, size, n, op):
    if kind == "masks":
        return False
    if op == "nproduct":
        return ref.unit_count(n) ** size >= 2
    order = n**size
    return not (size == 1 and all(order % d for d in range(2, order)))


def _check_smarandache(witness, kind, size, n, op, what):
    code = "Z+" if kind == "masks" else f"Zn:{n}"
    if not _smarandache_expected(kind, size, n, op):
        expect(witness is None, f"{what}: unexpected Smarandache witness")
        return
    expect(witness is not None, f"{what}: missing Smarandache witness")
    _check_group(code, op, _values(witness), n**size, what)
    if op == "nproduct":
        expect(len(witness) == ref.unit_count(n) ** size, f"{what}: not the unit group")


def _analyze_op(kind, shape, n, op, rng):
    size = shape[0] * shape[1]
    n = 2 if kind == "masks" else n
    seed = rng.randrange(1 << 30)
    name = f"structures.analyze.{spec_name(kind, shape, n, op)}"
    card, closed, identity, idem, zero_pairs = ref.carrier_facts(kind, size, n, op)

    def check(rep):
        expect(rep.closed == closed, f"{name}: closed is {rep.closed}")
        if not closed:
            a, b = rep.closure_witness
            expect(any(v > 1 for v in ref.add("Z", a.values, b.values)), f"{name}: bad closure witness")
        expect(rep.associative and rep.commutative, f"{name}: laws reported false")
        mode = "exhaustive" if card <= 64 else "sampled(400)"
        expect(rep.associativity_mode == mode, f"{name}: mode {rep.associativity_mode}")
        expect(rep.identity is not None and list(rep.identity.values) == identity, f"{name}: identity")
        expect(len(rep.idempotents) == idem, f"{name}: {len(rep.idempotents)} idempotents, expected {idem}")
        expect(len(rep.zero_divisor_pairs) == zero_pairs, f"{name}: zero-divisor pair count")
        expect(len(rep.max_subgroups) == idem, f"{name}: one maximal subgroup per idempotent")
        if op == "nproduct":
            units = 1 if kind == "masks" else ref.unit_count(n)
            for e, h in rep.max_subgroups:
                expect(len(h) == units ** sum(e.values), f"{name}: H-class order at {list(e.values)}")
        _check_smarandache(rep.smarandache, kind, size, n, op, name)

    return Op(name, lambda: np.analyze(carrier(kind, shape, n, op), seed=seed, samples=400), check)


def _ideal_op(kind, shape, n, rng):
    """Generator with half its entries set (units over Z_n), at seeded places.

    A fixed number of nonzero unit entries fixes the ideal's order, so the
    cost of each query does not depend on the seed.
    """
    size = shape[0] * shape[1]
    places = set(rng.sample(range(size), size // 2))
    if kind == "masks":
        gen = [1 if i in places else 0 for i in range(size)]
        expected = ref.mask_submasks(gen)
        code = "Z+"
    else:
        units = [v for v in range(1, n) if gcd(v, n) == 1]
        gen = [rng.choice(units) if i in places else 0 for i in range(size)]
        expected = sorted(itertools.product(*[range(n) if v else [0] for v in gen]))
        code = f"Zn:{n}"
    x = matrix(code, shape[0], shape[1], gen)
    name = f"structures.ideal.{spec_name(kind, shape, n, 'nproduct')}"

    def check(out):
        expect(out.cardinality == len(expected), f"{name}: order {out.cardinality}, expected {len(expected)}")
        expect(_values(out.members) == expected, f"{name}: members differ")

    return Op(name, lambda: np.ideal_generated(carrier(kind, shape, n, "nproduct"), x), check)


def _idempotents_op(kind, shape, n):
    size = shape[0] * shape[1]
    n = 2 if kind == "masks" else n
    code = "Z+" if kind == "masks" else f"Zn:{n}"
    count = ref.carrier_facts(kind, size, n, "nproduct")[3]
    name = f"structures.idempotents.{spec_name(kind, shape, n, 'nproduct')}"

    def check(out):
        vals = _values(out)
        expect(len(vals) == count, f"{name}: {len(vals)} idempotents, expected {count}")
        expect(vals == sorted(vals), f"{name}: not in canonical order")
        expect(all(tuple(ref.nprod(code, e, e)) == e for e in vals), f"{name}: a member is not idempotent")

    return Op(name, lambda: np.idempotents_in(carrier(kind, shape, n, "nproduct")), check)


def _smarandache_op(kind, shape, n, op):
    size = shape[0] * shape[1]
    n = 2 if kind == "masks" else n
    name = f"structures.smarandache.{spec_name(kind, shape, n, op)}"

    def check(out):
        _check_smarandache(out, kind, size, n, op, name)

    return Op(name, lambda: np.is_smarandache(carrier(kind, shape, n, op)), check)


def _explicit_op(rng, members=8, n=6):
    code = f"Zn:{n}"
    values = set()
    while len(values) < members:
        values.add(tuple(rng.randrange(n) for _ in range(4)))
    values = sorted(values)
    ms = [matrix(code, 2, 2, list(v)) for v in values]
    closed, comm, identity, idems = ref.brute_report(code, "nproduct", values)
    name = "structures.analyze.explicit:2x2:Zn6"

    def check(rep):
        expect(rep.closed == closed, f"{name}: closed is {rep.closed}")
        expect(rep.commutative == comm, f"{name}: commutative is {rep.commutative}")
        got = None if rep.identity is None else tuple(rep.identity.values)
        expect(got == identity, f"{name}: identity differs")
        expect(_values(rep.idempotents) == idems, f"{name}: idempotents differ")

    return Op(name, lambda: np.analyze(np.Carrier.explicit(ms)), check)


# (kind, shape, modulus, op).  Carriers of 16 to 256 elements on both sides of
# the 64-element limit between exhaustive and sampled associativity.
ANALYZE = {
    "full": [
        ("masks", (2, 2), 2, "nproduct"),
        ("masks", (2, 2), 2, "add"),
        ("all", (2, 2), 2, "nproduct"),
        ("all", (2, 2), 2, "add"),
        ("masks", (1, 5), 2, "nproduct"),
        ("all", (1, 3), 3, "nproduct"),
        ("all", (1, 3), 3, "add"),
        ("masks", (2, 3), 2, "nproduct"),
        ("all", (2, 2), 3, "nproduct"),
        ("all", (2, 2), 3, "add"),
        ("all", (1, 3), 5, "nproduct"),
        ("all", (1, 4), 4, "nproduct"),
    ],
    "tiny": [
        ("masks", (1, 2), 2, "nproduct"),
        ("masks", (1, 2), 2, "add"),
        ("all", (1, 2), 3, "nproduct"),
        ("all", (1, 2), 3, "add"),
    ],
}
# (kind, shape, modulus, queries per block).  The two 81-element carriers
# cost the same per query and hold the workload's median.
IDEALS = {
    "full": [("masks", (1, 5), 2, 10), ("all", (2, 2), 3, 7), ("all", (1, 4), 3, 7)],
    "tiny": [("masks", (1, 3), 2, 2), ("all", (1, 2), 4, 2)],
}
IDEMPOTENTS = {
    "full": [("masks", (2, 4), 2), ("masks", (1, 5), 2), ("all", (2, 2), 6), ("all", (1, 3), 4)],
    "tiny": [("masks", (1, 2), 2), ("all", (1, 2), 6)],
}
SMARANDACHE = {
    "full": [("all", (2, 2), 3, "nproduct"), ("all", (1, 3), 5, "nproduct"),
             ("masks", (2, 2), 2, "nproduct"), ("all", (1, 2), 4, "add")],
    "tiny": [("all", (1, 2), 3, "nproduct"), ("all", (1, 1), 5, "add")],
}


def structures_block(rng, scale="full"):
    ops = [_analyze_op(kind, shape, n, op, rng) for kind, shape, n, op in ANALYZE[scale]]
    for kind, shape, n, count in IDEALS[scale]:
        ops += [_ideal_op(kind, shape, n, rng) for _ in range(count)]
    ops += [_idempotents_op(kind, shape, n) for kind, shape, n in IDEMPOTENTS[scale]]
    ops += [_smarandache_op(kind, shape, n, op) for kind, shape, n, op in SMARANDACHE[scale]]
    ops.append(_explicit_op(rng))
    return ops


# -- cli ------------------------------------------------------------------------------


class ChildRunner:
    """Runs `natprod` as a child process, one at a time, from the checkout."""

    def __init__(self, root, workdir):
        self.root, self.workdir = root, workdir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.files = 0

    def __call__(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "natprod", *argv],
            cwd=self.root, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, _text(proc.stdout), proc.stderr.decode("utf-8", "replace")

    def bare(self):
        """Wall time of a child interpreter that does nothing (calibration)."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=self.root, env=self.env,
                       capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
        return time.perf_counter() - start

    def file(self, content):
        """Write an input file; bytes are written as they are."""
        self.files += 1
        path = os.path.join(self.workdir, f"in{self.files}.txt")
        with open(path, "wb") as handle:
            handle.write(content if isinstance(content, bytes) else content.encode())
        return path


def _text(raw):
    out = raw.decode("utf-8", "replace")
    return out[:-1] if out.endswith("\n") else out


def check_cli(name, expected_exit, expected_out=None):
    """Check (exit, stdout, stderr) against the README contract.

    `expected_out` is the exact stdout, a predicate on it, or None when the
    contract fixes only the exit code.
    """

    def check(result):
        code, out, err = result
        ref.check_exit(expected_exit, code, out, err)
        if callable(expected_out):
            expected_out(out)
        elif expected_out is not None:
            expect(out == expected_out, f"{name}: output differs from the reference")

    return check


def _mat_text(rng, code, r, c, unit=False):
    vals = rand_values(rng, code, r * c, unit)
    return vals, ref.render(r, c, vals)


def _poly_text(rng, code, r, c, degree, lead_unit=False):
    terms = {d: rand_values(rng, code, r * c) for d in range(degree + 1)}
    if lead_unit:
        terms[degree] = rand_values(rng, code, r * c, unit=True)
    terms = ref.poly_clean(terms)
    return terms, ref.poly_render(r, c, terms)


def _suite_ok(out):
    last = out.splitlines()[-1] if out else ""
    parts = last.split()[0].split("/") if last.endswith("cases passed") else []
    expect(len(parts) == 2 and parts[0] == parts[1], "suite did not pass every case")


def _roots_ok(code, equation, count):
    def check(out):
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        expect(len(lines) == count, f"{len(lines)} roots, expected {count}")
        for line in lines:
            x = ref.parse(line, code)[2]
            expect(ref.satisfies(code, equation, x), "a printed root does not solve the equation")

    return check


def cli_ops(rng, runner, tiny=False):
    """One block of CLI operations: (name, argv, expected exit, stdout check)."""
    specs = []

    def add(name, argv, code, out=None):
        specs.append((f"cli.{name}", argv, code, out))

    # -- eval -------------------------------------------------------------------------
    a, ta = _mat_text(rng, "Q", 3, 3)
    b, tb = _mat_text(rng, "Q", 3, 3)
    add("eval.nprod.inline_text", ["eval", "nprod", ta, tb], 0, ref.render(3, 3, ref.nprod("Q", a, b)))

    a, _ = _mat_text(rng, "Zn:7", 2, 3)
    b, _ = _mat_text(rng, "Zn:7", 2, 3)
    fa = runner.file(ref.dumps(ref.to_json("Zn:7", 2, 3, a)))
    fb = runner.file(ref.dumps(ref.to_json("Zn:7", 2, 3, b)))
    add("eval.add.file_json", ["eval", "add", fa, fb, "--format", "json"], 0,
        ref.dumps(ref.to_json("Zn:7", 2, 3, ref.add("Zn:7", a, b))))

    a, ta = _mat_text(rng, "Z", 3, 3)
    b, tb = _mat_text(rng, "Z", 3, 3)
    add("eval.uprod.inline_text", ["eval", "uprod", ta, tb, "--domain", "Z"], 0,
        ref.render(3, 3, ref.matmul("Z", 3, 3, 3, a, b)))

    a = rand_values(rng, "Q", 8, unit=True)
    cuts = (rand_cuts(rng, 2), rand_cuts(rng, 4))
    add("eval.inv.inline_super", ["eval", "inv", ref.render(2, 4, a, *cuts)], 0,
        ref.render(2, 4, ref.entrywise_inverse("Q", a), *cuts))

    a = rand_nonzero(rng, "Q", 6)
    b = rand_nonzero(rng, "Q", 6)
    mask = [rng.randint(0, 1) for _ in range(6)]
    orthogonal = rng.random() < 0.5
    a = [v if m else 0 for v, m in zip(a, mask)]
    b = [0 if m and orthogonal else v for v, m in zip(b, mask)]
    flag = all(x * y == 0 for x, y in zip(a, b))
    add("eval.orth.inline_text", ["eval", "orth", ref.render(2, 3, a), ref.render(2, 3, b)],
        0 if flag else 1, "true" if flag else "false")

    d = rand_nonzero(rng, "Z", 6)
    q = rand_values(rng, "Z", 6)
    m = ref.nprod("Z", d, q)
    divisible = rng.random() < 0.5
    if not divisible:
        i = rng.randrange(6)
        d[i] = rng.choice((-1, 1)) * rng.randint(2, 9)
        m[i] = d[i] * rng.randint(-9, 9) + rng.randint(1, abs(d[i]) - 1)
    add("eval.divides.file_text",
        ["eval", "divides", runner.file(ref.render(2, 3, d)), runner.file(ref.render(2, 3, m)), "--domain", "Z"],
        0 if divisible else 1, ref.render(2, 3, q) if divisible else "none")

    a = rand_values(rng, "Q", 12)
    cuts = (rand_cuts(rng, 3), rand_cuts(rng, 4))
    add("eval.parse_render.file_super",
        ["eval", "parse-render", runner.file(ref.render(3, 4, a, *cuts)), "--format", "json"], 0,
        ref.dumps(ref.to_json("Q", 3, 4, a, cuts)))

    # -- poly -------------------------------------------------------------------------
    p, tp = _poly_text(rng, "Q", 1, 3, 3)
    q, tq = _poly_text(rng, "Q", 1, 3, 3)
    add("poly.add.inline_text", ["poly", "add", tp, tq], 0, ref.poly_render(1, 3, ref.poly_add("Q", p, q)))

    p, _ = _poly_text(rng, "Z", 2, 2, 2)
    q, _ = _poly_text(rng, "Z", 2, 2, 2)
    fp = runner.file(ref.dumps(ref.poly_json("Z", 2, 2, p)))
    fq = runner.file(ref.dumps(ref.poly_json("Z", 2, 2, q)))
    add("poly.nmul.file_json", ["poly", "nmul", fp, fq, "--format", "json"], 0,
        ref.dumps(ref.poly_json("Z", 2, 2, ref.poly_nmul("Z", p, q))))

    p, tp = _poly_text(rng, "Q", 2, 2, 2)
    q, tq = _poly_text(rng, "Q", 2, 2, 2)
    add("poly.umul.inline_text", ["poly", "umul", tp, tq], 0, ref.poly_render(2, 2, ref.poly_umul("Q", 2, p, q)))

    p, tp = _poly_text(rng, "Z", 1, 3, 4)
    add("poly.diff.inline_text", ["poly", "diff", tp, "--domain", "Z"], 0, ref.poly_render(1, 3, ref.poly_diff("Z", p)))

    p, tp = _poly_text(rng, "Q", 2, 1, 3)
    add("poly.int.inline_text", ["poly", "int", tp], 0, ref.poly_render(2, 1, ref.poly_int(p)))

    p, _ = _poly_text(rng, "Q", 1, 2, rng.randint(0, 5), lead_unit=True)
    add("poly.degree.inline_json", ["poly", "degree", ref.dumps(ref.poly_json("Q", 1, 2, p)), "--format", "json"],
        0, json.dumps({"degree": max(p)}))

    p, tp = _poly_text(rng, "Q", 1, 3, 3, lead_unit=True)
    add("poly.monic.inline_text", ["poly", "monic", tp], 0, ref.poly_render(1, 3, ref.poly_monic("Q", p)))

    lead = rand_nonzero(rng, "Q", 3)
    root = rand_values(rng, "Q", 3)
    const = [-v for v in ref.nprod("Q", lead, [x**3 for x in root])]
    equation = {3: lead, 0: const}
    add("poly.solve.inline_text", ["poly", "solve", ref.poly_render(1, 3, equation)], 0,
        ref.render(1, 3, root))

    # A two-term quadratic over Z: a x^2 + c with c = -a r^2 has the roots +-|r|.
    lead = rand_nonzero(rng, "Z", 2)
    root = [rng.randint(1, 9) for _ in range(2)]
    equation = {2: lead, 0: [-x * r * r for x, r in zip(lead, root)]}
    add("poly.solve.z_two_term", ["poly", "solve", ref.poly_render(1, 2, equation), "--domain", "Z"], 0,
        _roots_ok("Z", equation, 2))

    # -- analyze ------------------------------------------------------------------------
    shape = rng.choice(((1, 2), (2, 1), (1, 3), (2, 2), (1, 4)))
    size = shape[0] * shape[1]
    card, _, identity, idem, zero_pairs = ref.carrier_facts("masks", size, 2, "nproduct")

    def carrier_ok(out, shape=shape, card=card, identity=identity, idem=idem, zero_pairs=zero_pairs):
        rep = json.loads(out)
        expect(rep["carrier"]["cardinality"] == card, "cardinality")
        expect(rep["closed"] and rep["associative"] and rep["commutative"], "laws")
        expect(rep["identity"] == ref.render(shape[0], shape[1], identity), "identity")
        expect(rep["idempotent_count"] == idem, "idempotent count")
        expect(len(rep["zero_divisor_pairs"]) == zero_pairs, "zero-divisor pairs")

    add("analyze.carrier.masks_json", ["analyze", "carrier", f"masks:{shape[0]}x{shape[1]}", "--format", "json"],
        0, carrier_ok)

    n = rng.choice((3, 4, 5, 6))
    idems = sorted(itertools.product(ref.idempotent_entries(n), repeat=2))
    add("analyze.idempotents.all", ["analyze", "idempotents", f"all:1x2:Zn:{n}"], 0,
        "\n".join([f"count {len(idems)}"] + [ref.render(1, 2, list(e)) for e in idems]))

    gen = [rng.randint(0, 1) for _ in range(6)]
    members = ref.mask_submasks(gen)
    add("analyze.ideal.masks", ["analyze", "ideal", "masks:2x3", ref.render(2, 3, gen)], 0,
        "\n".join([f"cardinality {len(members)}"] + [ref.render(2, 3, list(v)) for v in members]))

    n = rng.choice((3, 5))

    def smarandache_ok(out, n=n):
        rep = json.loads(out)
        group = [tuple(ref.parse(t, f"Zn:{n}")[2]) for t in rep["subgroup"]]
        expect(rep["smarandache"] and len(group) == ref.unit_count(n) ** 2, "subgroup order")
        expect(ref.is_group(f"Zn:{n}", "nproduct", group), "witness is not a group")

    add("analyze.smarandache.all", ["analyze", "smarandache", f"all:1x2:Zn:{n}", "--format", "json"], 0,
        smarandache_ok)
    add("analyze.smarandache.masks", ["analyze", "smarandache", "masks:1x2"], 1, "none")

    a = rand_values(rng, "Q", 6)
    comp = [1 if v == 0 else 0 for v in a]
    add("complement.inline_text", ["complement", ref.render(2, 3, a)], 0,
        f"{ref.render(2, 3, comp)}\ndimension {sum(comp)}")

    # -- second instances: other domains, formats and sources ------------------------
    a, ta = _mat_text(rng, "Z", 2, 2)
    b, tb = _mat_text(rng, "Z", 2, 2)
    add("eval.nprod.inline_json_out", ["eval", "nprod", ta, tb, "--domain", "Z", "--format", "json"], 0,
        ref.dumps(ref.to_json("Z", 2, 2, ref.nprod("Z", a, b))))

    a, b = rand_values(rng, "Q", 9), rand_values(rng, "Q", 9)
    cuts = (rand_cuts(rng, 3), rand_cuts(rng, 3))
    add("eval.add.inline_super", ["eval", "add", ref.render(3, 3, a, *cuts), ref.render(3, 3, b, *cuts)], 0,
        ref.render(3, 3, ref.add("Q", a, b), *cuts))

    a = rand_values(rng, "Zn:7", 4, unit=True)
    add("eval.inv.file_json", ["eval", "inv", runner.file(ref.dumps(ref.to_json("Zn:7", 2, 2, a)))], 0,
        ref.render(2, 2, ref.entrywise_inverse("Zn:7", a)))

    a, ta = _mat_text(rng, "Q", 3, 3)
    add("eval.parse_render.inline_text", ["eval", "parse-render", ta], 0, ta)

    a, _ = _mat_text(rng, "Zn:7", 3, 3)
    b, _ = _mat_text(rng, "Zn:7", 3, 3)
    add("eval.uprod.file_json",
        ["eval", "uprod", runner.file(ref.dumps(ref.to_json("Zn:7", 3, 3, a))),
         runner.file(ref.dumps(ref.to_json("Zn:7", 3, 3, b))), "--format", "json"], 0,
        ref.dumps(ref.to_json("Zn:7", 3, 3, ref.matmul("Zn:7", 3, 3, 3, a, b))))

    p, tp = _poly_text(rng, "Q", 1, 2, 2)
    q, tq = _poly_text(rng, "Q", 1, 2, 2)
    add("poly.nmul.inline_text", ["poly", "nmul", tp, tq], 0, ref.poly_render(1, 2, ref.poly_nmul("Q", p, q)))

    p, tp = _poly_text(rng, "Z", 2, 2, 2)
    q, tq = _poly_text(rng, "Z", 2, 2, 2)
    add("poly.add.file_text", ["poly", "add", runner.file(tp), runner.file(tq), "--domain", "Z"], 0,
        ref.poly_render(2, 2, ref.poly_add("Z", p, q)))

    p, _ = _poly_text(rng, "Q", 2, 1, 3)
    add("poly.diff.file_json", ["poly", "diff", runner.file(ref.dumps(ref.poly_json("Q", 2, 1, p))), "--format", "json"],
        0, ref.dumps(ref.poly_json("Q", 2, 1, ref.poly_diff("Q", p))))

    p, _ = _poly_text(rng, "Q", 1, 2, 2)
    add("poly.int.inline_json", ["poly", "int", ref.dumps(ref.poly_json("Q", 1, 2, p)), "--format", "json"], 0,
        ref.dumps(ref.poly_json("Q", 1, 2, ref.poly_int(p))))

    shape = rng.choice(((1, 3), (3, 1), (2, 2)))
    masks = sorted(itertools.product((0, 1), repeat=shape[0] * shape[1]))
    add("analyze.idempotents.masks_json",
        ["analyze", "idempotents", f"masks:{shape[0]}x{shape[1]}", "--format", "json"], 0,
        ref.dumps({"count": len(masks), "idempotents": [ref.render(shape[0], shape[1], list(m)) for m in masks]}))

    gen = [rng.choice((0, 1, 3)) for _ in range(3)]
    members = sorted(itertools.product(*[range(4) if v else [0] for v in gen]))
    add("analyze.ideal.all_json", ["analyze", "ideal", "all:1x3:Zn:4", ref.render(1, 3, gen), "--format", "json"], 0,
        ref.dumps({"cardinality": len(members), "members": [ref.render(1, 3, list(m)) for m in members]}))

    a = rand_values(rng, "Z", 6)
    comp = [1 if v == 0 else 0 for v in a]
    add("complement.inline_json", ["complement", ref.render(3, 2, a), "--domain", "Z", "--format", "json"], 0,
        ref.dumps({"dimension": sum(comp), "mask": ref.render(3, 2, comp)}))

    # -- verify -------------------------------------------------------------------------
    add("verify.paper_examples", ["verify", "paper-examples"], 0, _suite_ok)
    add("verify.laws", ["verify", "laws", "--samples", "2" if tiny else "20", "--seed", str(rng.randrange(1000))],
        0, _suite_ok)

    # -- malformed or contract-violating input: exit 2, nothing on stdout ------------
    _, t2 = _mat_text(rng, "Q", 1, 2)
    _, t3 = _mat_text(rng, "Q", 1, 3)
    add("bad.shape_mismatch", ["eval", "nprod", t2, t3], 2)
    a, b = rand_values(rng, "Q", 3), rand_values(rng, "Q", 3)
    add("bad.partition_mismatch", ["eval", "add", ref.render(1, 3, a, (), (1,)), ref.render(1, 3, b, (), (2,))], 2)
    add("bad.ragged_literal", ["eval", "nprod", "[1 2;3]", t2], 2)
    add("bad.unknown_subverb", ["eval", "frobnicate", t2], 2)
    a, _ = _mat_text(rng, "Zn:7", 1, 2)
    add("bad.domain_mismatch", ["eval", "add", runner.file(ref.dumps(ref.to_json("Zn:7", 1, 2, a))), t2], 2)
    add("bad.usual_on_partitioned", ["eval", "uprod", ref.render(2, 2, rand_values(rng, "Q", 4), (), (1,)),
                                     ref.render(2, 2, rand_values(rng, "Q", 4))], 2)
    _, p1 = _poly_text(rng, "Q", 2, 3, 1)
    _, p2 = _poly_text(rng, "Q", 2, 3, 1)
    add("bad.poly_not_square", ["poly", "umul", p1, p2], 2)
    add("bad.json_syntax", ["eval", "nprod", "{bad", "[1]"], 2)
    add("bad.json_number_entries",
        ["eval", "parse-render", runner.file(ref.dumps({"domain": "Q", "rows": 1, "cols": 1, "entries": [[rng.randint(1, 9)]]}))], 2)
    obj = ref.to_json("Q", 1, 2, rand_values(rng, "Q", 2))
    del obj[rng.choice(("rows", "cols", "entries", "domain"))]
    add("bad.json_missing_key", ["eval", "parse-render", runner.file(ref.dumps(obj))], 2)
    add("bad.directory_path", ["eval", "parse-render", runner.workdir], 2)
    add("bad.non_utf8_file", ["eval", "parse-render", runner.file(b"[1 \xff\xfe 2]")], 2)
    add("bad.oversized_carrier", ["analyze", "carrier", f"masks:{rng.randint(200, 400)}x300"], 2)
    a = rand_values(rng, "Q", 2)
    add("bad.mixed_partition_poly",
        ["poly", "add", f"{ref.render(1, 2, a)} + {ref.render(1, 2, a, (), (1,))} * x", ref.render(1, 2, a, (), (1,))], 2)

    return [Op(name, (lambda argv=argv: runner(argv)), check_cli(name, code, out), argv)
            for name, argv, code, out in specs]

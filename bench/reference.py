"""Independent references for the benchmark's correctness checks.

Nothing here imports natprod.  Matrices are plain ``(rows, cols, values)``
triples with ``values`` a row-major list of ``int`` or ``Fraction``, and a
domain is its textual code (``Z``, ``Q``, ``Z+``, ``Q+``, ``Zn:<n>``).
Library results are compared through their plain attributes (``shape``,
``values``, ``domain.code``), so a check never calls the code under test.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd


class Mismatch(AssertionError):
    """A library result disagrees with its reference."""


class Refusal(Mismatch):
    """The program crashed or broke the exit-code contract."""


def expect(ok, what):
    if not ok:
        raise Mismatch(what)


def modulus(code):
    return int(code.split(":")[1]) if code.startswith("Zn:") else None


def reduce(code, v):
    n = modulus(code)
    return v % n if n else v


# -- matrix arithmetic ------------------------------------------------------


def nprod(code, a, b):
    n = modulus(code)
    if n:
        return [(x * y) % n for x, y in zip(a, b)]
    return [x * y for x, y in zip(a, b)]


def add(code, a, b):
    n = modulus(code)
    if n:
        return [(x + y) % n for x, y in zip(a, b)]
    return [x + y for x, y in zip(a, b)]


def _lift(values):
    """Integer numerators over one common denominator."""
    den = 1
    for v in values:
        d = v.denominator if isinstance(v, Fraction) else 1
        den = den * d // gcd(den, d)
    return [int(v * den) for v in values], den


def matmul(code, rows, inner, cols, a, b):
    """Usual product by schoolbook int loops (rationals lifted first)."""
    ai, da = _lift(a)
    bi, db = _lift(b)
    bt = [bi[j::cols] for j in range(cols)]
    n = modulus(code)
    out = []
    for i in range(rows):
        row = ai[i * inner : (i + 1) * inner]
        for col in bt:
            acc = 0
            for x, y in zip(row, col):
                acc += x * y
            out.append(acc % n if n else acc)
    if da * db == 1 and not code.startswith("Q"):
        return out
    return [Fraction(v, da * db) for v in out]


def entry_inverse(code, v):
    n = modulus(code)
    if n:
        for w in range(1, n):
            if (v * w) % n == 1:
                return w
        raise Mismatch(f"{v} is not a unit mod {n}")
    if code in ("Z", "Z+"):
        return v
    return 1 / Fraction(v)


def entrywise_inverse(code, a):
    return [entry_inverse(code, v) for v in a]


def identity_values(n, code):
    one = Fraction(1) if code.startswith("Q") else 1
    zero = one - one
    return [one if i == j else zero for i in range(n) for j in range(n)]


# -- canonical text and JSON forms -------------------------------------------


def render_entry(v):
    if isinstance(v, Fraction) and v.denominator != 1:
        return f"{v.numerator}/{v.denominator}"
    return str(int(v))


def render(rows, cols, values, row_cuts=(), col_cuts=()):
    """Canonical literal; cuts give the partitioned form."""
    out = []
    for i in range(rows):
        if i in row_cuts:
            out.append("--")
        cells = []
        for j in range(cols):
            if j in col_cuts:
                cells.append("|")
            cells.append(render_entry(values[i * cols + j]))
        out.append(" ".join(cells))
    return "[" + ";".join(out) + "]"


def parse_entry(token, code):
    if "/" in token:
        num, den = token.split("/")
        v = Fraction(int(num), int(den))
    else:
        v = int(token)
    if code.startswith("Q"):
        return Fraction(v)
    return reduce(code, int(v))


def parse(text, code):
    """Inverse of `render`: (rows, cols, values, row_cuts, col_cuts)."""
    body = text.strip()[1:-1]
    rows, row_cuts, col_cuts = [], [], None
    for chunk in body.split(";"):
        tokens = chunk.split()
        if tokens == ["--"]:
            row_cuts.append(len(rows))
            continue
        cuts, entries = [], []
        for tok in tokens:
            if tok == "|":
                cuts.append(len(entries))
            else:
                entries.append(parse_entry(tok, code))
        col_cuts = cuts if col_cuts is None else col_cuts
        rows.append(entries)
    flat = [v for r in rows for v in r]
    return len(rows), len(rows[0]), flat, tuple(row_cuts), tuple(col_cuts)


def to_json(code, rows, cols, values, cuts=None):
    obj = {
        "domain": code,
        "rows": rows,
        "cols": cols,
        "entries": [
            [render_entry(v) for v in values[i * cols : (i + 1) * cols]]
            for i in range(rows)
        ],
    }
    if cuts is not None:
        obj["row_cuts"], obj["col_cuts"] = list(cuts[0]), list(cuts[1])
    return obj


def dumps(obj):
    """The CLI's JSON text for an object."""
    return json.dumps(obj, sort_keys=True)


# -- matrix-coefficient polynomials -------------------------------------------
#
# A polynomial is a dict degree -> values; zero coefficients are dropped.


def _is_zero(values):
    return all(v == 0 for v in values)


def poly_clean(terms):
    return {d: c for d, c in terms.items() if not _is_zero(c)}


def poly_add(code, p, q):
    out = dict(p)
    for d, c in q.items():
        out[d] = add(code, out[d], c) if d in out else c
    return poly_clean(out)


def poly_mul(code, p, q, coeff_product):
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            prod = coeff_product(a, b)
            out[i + j] = add(code, out[i + j], prod) if i + j in out else prod
    return poly_clean(out)


def poly_nmul(code, p, q):
    return poly_mul(code, p, q, lambda a, b: nprod(code, a, b))


def poly_umul(code, n, p, q):
    return poly_mul(code, p, q, lambda a, b: matmul(code, n, n, n, a, b))


def poly_diff(code, p):
    return poly_clean(
        {d - 1: [reduce(code, v * d) for v in c] for d, c in p.items() if d >= 1}
    )


def poly_int(p):
    """Integral over Q with a zero constant."""
    return poly_clean({d + 1: [v / (d + 1) for v in c] for d, c in p.items()})


def poly_monic(code, p):
    lead = p[max(p)]
    t = entrywise_inverse(code, lead)
    return poly_clean({d: nprod(code, t, c) for d, c in p.items()})


def poly_render(rows, cols, p, cuts=((), ())):
    if not p:
        return render(rows, cols, [0] * (rows * cols), *cuts)
    parts = []
    for d in sorted(p):
        lit = render(rows, cols, p[d], *cuts)
        parts.append(lit if d == 0 else f"{lit} * x" if d == 1 else f"{lit} * x^{d}")
    return " + ".join(parts)


def poly_json(code, rows, cols, p, cuts=None):
    obj = {
        "shape": {"rows": rows, "cols": cols},
        "domain": code,
        "terms": [
            {"deg": d, "coeff": to_json(code, rows, cols, p[d])} for d in sorted(p)
        ],
    }
    if cuts is not None:
        obj["row_cuts"], obj["col_cuts"] = list(cuts[0]), list(cuts[1])
    return obj


def satisfies(code, equation, x):
    """Does x solve sum_k coeff_k *n x^k = 0 (equation: degree -> values)?"""
    total = [0] * len(x)
    for k, c in equation.items():
        power = [v**k for v in x]
        total = add(code, total, nprod(code, c, power))
    return _is_zero(total)


# -- finite structures (closed forms and brute force) ------------------------


def unit_count(n):
    return sum(1 for v in range(1, n) if gcd(v, n) == 1)


def idempotent_entries(n):
    return [e for e in range(n) if (e * e) % n == e]


def zero_product_entries(n):
    return sum(1 for x in range(n) for y in range(n) if (x * y) % n == 0)


def carrier_facts(kind, size, n, op):
    """Closed forms for `masks` (n=2 on {0,1}) and `all` Z_n carriers.

    Returns cardinality, closed, identity (values), idempotent count and
    nonzero zero-divisor pair count.
    """
    card = n**size
    if op == "add":
        zero = [0] * size
        if kind == "masks":
            return card, False, zero, 1, 0
        return card, True, zero, 1, 0
    ones = [1] * size
    if kind == "masks":
        return card, True, ones, 2**size, 3**size - 2 * 2**size + 1
    idem = len(idempotent_entries(n)) ** size
    z = zero_product_entries(n)
    return card, True, ones, idem, z**size - 2 * card + 1


def mask_submasks(bits):
    """All 0/1 vectors below `bits` (the ideal a mask generates)."""
    positions = [i for i, b in enumerate(bits) if b]
    out = []
    for k in range(1 << len(positions)):
        v = [0] * len(bits)
        for t, pos in enumerate(positions):
            if (k >> t) & 1:
                v[pos] = 1
        out.append(tuple(v))
    return sorted(out)


def is_group(code, op, members):
    """Brute-force group check on value tuples under `op` (nprod or add)."""
    fn = nprod if op == "nproduct" else add
    table = {a: {b: tuple(fn(code, a, b)) for b in members} for a in members}
    mset = set(members)
    if any(v not in mset for row in table.values() for v in row.values()):
        return False
    idents = [e for e in members if all(table[e][a] == a for a in members)]
    if not idents:
        return False
    e = idents[0]
    return all(any(table[a][b] == e for b in members) for a in members)


def brute_report(code, op, members):
    """Closed, commutative, identity and idempotents of an explicit carrier."""
    fn = nprod if op == "nproduct" else add
    mset = set(members)
    closed = all(tuple(fn(code, a, b)) in mset for a in members for b in members)
    comm = all(fn(code, a, b) == fn(code, b, a) for a in members for b in members)
    identity = next(
        (
            e
            for e in sorted(members)
            if all(tuple(fn(code, e, a)) == a and tuple(fn(code, a, e)) == a for a in members)
        ),
        None,
    )
    idems = sorted(a for a in members if tuple(fn(code, a, a)) == a)
    return closed, comm, identity, idems


# -- CLI contract --------------------------------------------------------------

EXIT_CONTRACT = 2


def check_exit(expected, code, stdout, stderr):
    if code != expected:
        raise Refusal(f"exit {code}, contract says {expected}")
    if "Traceback" in stderr:
        raise Refusal("traceback on stderr")
    if expected == EXIT_CONTRACT and stdout:
        raise Refusal("output on a contract error")

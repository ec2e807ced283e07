"""Polynomials in one variable with matrix coefficients.

Coefficients all share one shape, domain and partition; the polynomial
stores them plain and keeps the partition once, as `ptype` (None when
plain).  Multiplication comes in two flavours: the natural-product
convolution, which is commutative for every shape, and the usual-product
convolution, defined for square unpartitioned coefficients only and
noncommutative.  Both convolutions lift each polynomial once to integers
(one denominator per entry position for the natural product, per row of
the left and per column of the right factor for the usual one) and lower
each output coefficient once (the kernels of `matrix`).  In between, dense
factors pack each entry's coefficients over their degrees into one int, so
one big-int multiply per entry position, or per pair of entries for the
usual product, does the whole convolution; sparse or wide ones add one
integer product per pair of terms.  Formal derivative and integral act
coefficientwise.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import add, mul

from .errors import (
    ConeViolation,
    DomainMismatch,
    NoRationalRoot,
    NotClosed,
    NotMonicizable,
    NotInvertible,
    NotSquare,
    ParseError,
    ShapeMismatch,
    SingularLead,
    TypeMismatch,
    UnsupportedDomain,
    ZeroLead,
    shorten,
)
from .matrix import (
    JSON_INPUT_ERRORS,
    Matrix,
    PartitionType,
    Shape,
    _field_size,
    _int_matmul,
    _json_array,
    _json_cuts,
    _json_int,
    _lift,
    _location,
    _lower,
    _max_abs,
    _pack,
    _parse_span,
    _unpack,
    _width,
    matrix_from_json,
    matrix_to_json,
    natural_inverse,
    ones,
    render_matrix,
    usual_inverse,
    zeros,
)
from .scalars import Domain, Q, Scalar, Z, _parse_int, _ratio, _Value, domain_from_code, kth_root

# the fewest pairs of terms with which `*` and `@` pack over degrees
# (crossover table in `matrix`)
_PACK_PAIRS_MUL = 64
_PACK_PAIRS_MATMUL = 16


class MatPoly(_Value):
    """A finite sum of (degree, coefficient) terms; zero terms are dropped."""

    __slots__ = ("shape", "domain", "ptype", "_terms")

    def __init__(self, shape, domain: Domain, terms, ptype: PartitionType | None = None):
        if ptype is not None and ptype.is_plain:
            ptype = None  # a cut-free partition is no partition
        if ptype is not None and ptype.shape != shape:
            raise ShapeMismatch("partition shape disagrees with coefficient shape")
        cleaned = {}
        for deg, coeff in dict(terms).items():
            deg = int(deg)
            if deg < 0:
                raise ValueError("degrees must be nonnegative")
            if not isinstance(coeff, Matrix):
                raise TypeError("coefficients must be Matrix values")
            if coeff.shape != shape:
                raise ShapeMismatch(
                    f"coefficient at degree {deg} has shape {coeff.shape}, expected {shape}"
                )
            if coeff.domain is not domain:
                raise DomainMismatch(
                    f"coefficient at degree {deg} is over {coeff.domain.code}"
                )
            if coeff.partition is not None:
                if coeff.partition != ptype:
                    raise TypeMismatch(
                        f"coefficient at degree {deg} carries another partition"
                    )
                coeff = coeff.base
            if not coeff.is_zero():
                cleaned[deg] = coeff
        self._fill(shape, domain, ptype, cleaned)

    @classmethod
    def from_terms(cls, terms):
        """Build from (degree, Matrix) pairs; repeated degrees add up.

        Every coefficient must match the first in shape, domain and
        partition, and that partition becomes the polynomial's.
        """
        terms = list(terms)
        if not terms:
            raise ValueError("from_terms needs at least one term; use MatPoly.zero")
        first = terms[0][1]
        for _, coeff in terms:
            first._check_peer(coeff)
        return cls(first.shape, first.domain, _sum_by_degree(terms), first.partition)

    @classmethod
    def zero(cls, shape, domain, ptype=None):
        return cls(shape, domain, {}, ptype)

    @classmethod
    def constant(cls, coeff):
        return cls.from_terms([(0, coeff)])

    # -- access ----------------------------------------------------------

    @property
    def terms(self):
        """Terms sorted by degree."""
        return tuple(sorted(self._terms.items()))

    def coeff(self, deg) -> Matrix:
        return self._terms.get(deg, zeros(self.shape, self.domain))

    def degree(self):
        """Highest stored degree, or None for the zero polynomial."""
        return max(self._terms) if self._terms else None

    def lead(self) -> Matrix:
        deg = self.degree()
        if deg is None:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self._terms[deg]

    def is_zero(self):
        return not self._terms

    def __eq__(self, other):
        return (
            isinstance(other, MatPoly)
            and self.shape == other.shape
            and self.domain is other.domain
            and self.ptype == other.ptype
            and self._terms == other._terms
        )

    def __hash__(self):
        ptype = 0 if self.ptype is None else self.ptype  # as in _Value.__hash__
        return hash((self.shape, self.domain, ptype, tuple(sorted(self._terms.items()))))

    def __repr__(self):
        return f"MatPoly({render_poly(self)!r})"

    def __str__(self):
        return render_poly(self)

    # -- ring operations ---------------------------------------------------

    def _check_peer(self, other):
        if not isinstance(other, MatPoly):
            raise TypeError(f"expected a MatPoly, got {type(other).__name__}")
        if self.shape != other.shape:
            raise ShapeMismatch(f"shapes differ: {self.shape} vs {other.shape}")
        if self.domain is not other.domain:
            raise DomainMismatch(
                f"domains differ: {self.domain.code} vs {other.domain.code}"
            )
        if self.ptype != other.ptype:
            raise TypeMismatch("partition types differ")

    def __add__(self, other):
        self._check_peer(other)
        terms = _sum_by_degree(chain(self._terms.items(), other._terms.items()))
        return MatPoly(self.shape, self.domain, terms, self.ptype)

    def __neg__(self):
        return MatPoly(
            self.shape, self.domain, {d: -c for d, c in self._terms.items()}, self.ptype
        )

    def __sub__(self, other):
        """Coefficientwise `Matrix.__sub__`, in ascending degree, with a
        missing degree read as zero; over a cone a negative entry raises."""
        self._check_peer(other)
        zero = zeros(self.shape, self.domain)
        degrees = sorted(self._terms.keys() | other._terms.keys())
        terms = {d: self._terms.get(d, zero) - other._terms.get(d, zero) for d in degrees}
        return MatPoly(self.shape, self.domain, terms, self.ptype)

    def __mul__(self, other):
        """Cauchy convolution with the natural product on coefficients.

        Dense factors are packed over their degrees (see `_dense`), so each
        entry position is one big-int multiply; otherwise each pair of
        degrees adds one entrywise product.
        """
        self._check_peer(other)
        a, da = _lift_entries(self)
        b, db = _lift_entries(other)
        dens = list(map(mul, da, db)) if self.domain.is_rational else None
        if _dense(self, other, _PACK_PAIRS_MUL):
            zero = (0,) * len(da)
            left, right = _degrees(a, zero), _degrees(b, zero)
            size = _width(min(len(a), len(b)) * _max_abs(left) * _max_abs(right))
            if size:
                fields = len(left) + len(right) - 1
                sums = list(map(mul, _pack(left, size), _pack(right, size)))
                return _lowered(self, min(a) + min(b), _unpack(sums, fields, size), fields, dens)
        return _convolve(self, a, b, dens, lambda x, y: list(map(mul, x, y)))

    def __matmul__(self, other):
        """Convolution with the usual matrix product; square, unpartitioned.

        Dense factors are packed over their degrees (see `_dense`): each
        left entry A[r][t] becomes one int with a field per degree, and
        each right row t one int with a run of fields per column, padded
        so that two columns' products never overlap.  Output row r is then
        the sum over t of n big-int multiplies, and one unpack gives every
        degree of it.  Otherwise each pair of degrees adds one integer
        product a_i @ b_j, with every right coefficient packed over its
        columns once past the shape threshold of `matrix`.  Either way each
        output coefficient is lowered once.
        """
        self._check_peer(other)
        if self.shape.rows != self.shape.cols:
            raise NotSquare("usual product needs square coefficients")
        if self.ptype is not None:
            raise TypeMismatch("usual product is undefined on partitioned coefficients")
        n = self.shape.rows
        a, rd = _lift_lines(self, lambda values, i: values[i * n : (i + 1) * n])
        b, cd = _lift_lines(other, lambda values, j: values[j::n])
        dens = [r * c for r in rd for c in cd] if self.domain.is_rational else None
        if _dense(self, other, _PACK_PAIRS_MATMUL):
            zero = [[0] * n] * n
            left = [list(chain.from_iterable(rows)) for rows in _degrees(a, zero)]
            fields = len(left) + max(b) - min(b)
            right = [cols[c] for c in range(n) for cols in _degrees(b, zero, fields)]
            size = _width(n * min(len(a), len(b)) * _max_abs(left) * _max_abs(right))
            if size:
                left, right = _pack(left, size), _pack(right, size)
                sums = [sum(map(mul, left[r * n : (r + 1) * n], right)) for r in range(n)]
                flat = _unpack(sums, n * fields, size)
                return _lowered(self, min(a) + min(b), flat, fields, dens)
        left = [row for rows in a.values() for row in rows]
        size = _field_size(left, [col for cols in b.values() for col in cols], n, n)
        if size:
            b = {j: _pack(cols, size) for j, cols in b.items()}
        return _convolve(self, a, b, dens, lambda x, y: _int_matmul(x, y, n, size))


def _lift_entries(p):
    """({degree: ints}, dens): p's coefficients entry by entry, with one
    denominator per entry position shared by every degree."""
    ints, dens = _lift(zip(*(c.values for c in p._terms.values())), p.domain)
    return dict(zip(p._terms, zip(*ints))), dens


def _lift_lines(p, line):
    """({degree: int lines}, dens): p's square coefficients line by line.

    `line(values, t)` is row or column t of a coefficient; line t of every
    degree shares one denominator, dens[t].
    """
    n = p.shape.rows
    ints, dens = _lift(
        ([v for c in p._terms.values() for v in line(c.values, t)] for t in range(n)), p.domain
    )
    cut = {d: [x[k * n : (k + 1) * n] for x in ints] for k, d in enumerate(p._terms)}
    return cut, dens


def _dense(p, q, pairs):
    """Whether the product of p and q packs over degrees: each spans at
    most 3/2 of its term count of degrees, and they have at least `pairs`
    pairs of terms (crossover measured in `matrix`)."""
    return len(p._terms) * len(q._terms) >= pairs and all(
        2 * (max(t) - min(t) + 1) <= 3 * len(t) for t in (p._terms, q._terms)
    )


def _degrees(lifted, zero, fields=0):
    """lifted[d] for each degree d from the lowest on, `zero` where there is
    no term, up to the highest degree or to `fields` items if more."""
    low = min(lifted)
    return [lifted.get(d, zero) for d in range(low, low + max(fields, max(lifted) - low + 1))]


def _lowered(p, low, flat, fields, dens):
    """The polynomial in p's shape, domain and partition whose coefficient
    of degree low + k has the ints flat[k::fields] over `dens`."""
    out = {}
    for k in range(fields):
        ints = flat[k::fields]
        if any(ints):
            out[low + k] = _lower(p.shape, p.domain, ints, dens)
    return MatPoly(p.shape, p.domain, out, p.ptype)


def _convolve(p, a, b, dens, product):
    """The convolution of two lifted polynomials, one `product(a_i, b_j)` of
    integer coefficients per pair of terms, added by degree; every output
    coefficient is lowered once, over `dens`, in p's shape and domain."""
    sums = {}
    for i, x in a.items():
        for j, y in b.items():
            ints = product(x, y)
            acc = sums.get(i + j)
            sums[i + j] = ints if acc is None else list(map(add, acc, ints))
    out = {d: _lower(p.shape, p.domain, ints, dens) for d, ints in sums.items()}
    return MatPoly(p.shape, p.domain, out, p.ptype)


def _sum_by_degree(terms):
    """{degree: coefficient} from (degree, coefficient) pairs, summing repeats."""
    out = {}
    for deg, coeff in terms:
        out[deg] = out[deg] + coeff if deg in out else coeff
    return out


# -- calculus, evaluation and roots ------------------------------------------


def poly_derivative(p: MatPoly) -> MatPoly:
    """Formal derivative; closed in every coefficient domain."""
    terms = {}
    for deg, coeff in p._terms.items():
        if deg >= 1:
            terms[deg - 1] = coeff.scale(deg)
    return MatPoly(p.shape, p.domain, terms, p.ptype)


def poly_integrate(p: MatPoly, constant: Matrix | None = None) -> MatPoly:
    """Formal integral with an additive constant of integration.

    Closed over Q and Q+; over Z, Z+ and Z_n it exists only when every
    required division by deg+1 is exact (otherwise NotClosed).
    """
    domain = p.domain
    if constant is None:
        constant = zeros(p.shape, domain)
    if constant.shape != p.shape:
        raise ShapeMismatch("integration constant has the wrong shape")
    if constant.domain is not domain:
        raise DomainMismatch("integration constant has the wrong domain")
    terms = {}
    for deg, coeff in p._terms.items():
        k = deg + 1
        if domain.is_rational:
            terms[k] = coeff.scale(_ratio(1, k))
        elif domain.is_modular:
            kk = k % domain.modulus
            if not domain.is_unit(kk):
                raise NotClosed(
                    f"degree-{deg} term needs division by {k}, not a unit mod {domain.modulus}"
                )
            terms[k] = coeff.scale(domain.inv(kk))
        else:
            divided = []
            for v in coeff.values:
                q, r = divmod(v, k)
                if r != 0:
                    raise NotClosed(
                        f"degree-{deg} term needs {domain.render(v)}/{k}, "
                        f"which leaves {domain.code}"
                    )
                divided.append(q)
            terms[k] = Matrix(p.shape, domain, divided)
    terms[0] = constant
    return MatPoly(p.shape, domain, terms, p.ptype)


def poly_evaluate_natural(p: MatPoly, x: Matrix) -> Matrix:
    """Substitute x for the variable, with powers under the natural product.

    x is plain or carries p's partition; the value carries p's partition.
    """
    if x.shape != p.shape:
        raise ShapeMismatch(f"argument shape {x.shape} differs from {p.shape}")
    if x.domain is not p.domain:
        raise DomainMismatch("argument domain differs")
    if x.partition is not None:
        if x.partition != p.ptype:
            raise TypeMismatch("argument carries another partition")
        x = x.base
    total = zeros(p.shape, p.domain)
    power = ones(p.shape, p.domain)
    last_deg = 0
    for deg, coeff in sorted(p._terms.items()):
        if deg > last_deg:
            power = power * x.npow(deg - last_deg)
        last_deg = deg
        total = total + coeff * power
    return total.with_partition(p.ptype)


def monicize_natural(p: MatPoly) -> MatPoly:
    """Scale by the entrywise inverse of the lead so the lead becomes all-ones."""
    if p.is_zero():
        raise NotMonicizable("the zero polynomial has no leading coefficient")
    try:
        t = natural_inverse(p.lead())
    except NotInvertible as exc:
        raise NotMonicizable(str(exc)) from exc
    return MatPoly(
        p.shape, p.domain, {d: t * c for d, c in p._terms.items()}, p.ptype
    )


def monicize_usual(p: MatPoly) -> MatPoly:
    """Premultiply by the usual inverse of the lead so the lead becomes I."""
    if p.is_zero():
        raise NotMonicizable("the zero polynomial has no leading coefficient")
    if p.shape.rows != p.shape.cols:
        raise NotSquare("usual monicization needs square coefficients")
    if p.ptype is not None:
        raise TypeMismatch("usual monicization is undefined on partitioned coefficients")
    try:
        t = usual_inverse(p.lead())
    except NotInvertible as exc:
        raise SingularLead(str(exc)) from exc
    return MatPoly(
        p.shape, p.domain, {d: t @ c for d, c in p._terms.items()}, p.ptype
    )


class RootSet(_Value):
    """Roots of a componentwise equation.

    `componentwise_signs` notes that beyond the aligned pair listed here,
    independent per-component sign flips give further roots (2^m of them
    when m components admit a nonzero square root); they are not
    enumerated.
    """

    __slots__ = ("roots", "componentwise_signs", "reason")

    def __init__(self, roots=(), componentwise_signs=False, reason=None):
        self._fill(roots, componentwise_signs, reason)

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"RootSet({fields})"

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)

    def __bool__(self):
        return bool(self.roots)


def _require_entrywise_nonzero(a: Matrix):
    if any(v == a.domain.zero for v in a.values):
        raise ZeroLead("leading coefficient has a zero entry")


def solve_binomial(a: Matrix, c: Matrix, k: int) -> RootSet:
    """All aligned solutions x of a *n x^k = c over Z or Q.

    Odd k has at most one root; even k yields the aligned pair +-r when
    every component c_i/a_i is a nonnegative perfect k-th power.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if a.domain is not Z and a.domain is not Q:
        raise UnsupportedDomain("componentwise roots are taken over Z or Q")
    a._check_peer(c)
    _require_entrywise_nonzero(a)
    root_vals = []
    for i, (ai, ci) in enumerate(zip(a.values, c.values)):
        t = _ratio(ci.numerator * ai.denominator, ci.denominator * ai.numerator)
        if k % 2 == 0 and t < 0:
            return RootSet(reason=f"NoRationalRoot: component {i} needs an even root of {Q.render(t)}")
        r = kth_root(Scalar(Q, t), k)
        if r is None:
            return RootSet(reason=f"NoRationalRoot: component {i}: {Q.render(t)} is not a perfect {k}-th power")
        root_vals.append(r.value)
    try:
        root = Matrix(a.shape, a.domain, root_vals)
    except (ValueError, ConeViolation):
        return RootSet(reason=f"NoRationalRoot: root leaves {a.domain.code}")
    if k % 2 == 1:
        return RootSet((root,))
    if root.is_zero():
        return RootSet((root,))
    nonzero = sum(1 for v in root.values if v != 0)
    return RootSet((root, -root), componentwise_signs=nonzero > 1)


def solve_quadratic(a: Matrix, b: Matrix, c: Matrix) -> RootSet:
    """Componentwise quadratic formula over Q; aligned root pair.

    Every component's discriminant must be a perfect rational square,
    otherwise NoRationalRoot (carrying the first offending component).
    """
    if a.domain is not Q:
        raise UnsupportedDomain("the quadratic formula is applied over Q")
    a._check_peer(b)
    a._check_peer(c)
    _require_entrywise_nonzero(a)
    plus, minus = [], []
    nonzero_disc = 0
    for i, (ai, bi, ci) in enumerate(zip(a.values, b.values, c.values)):
        disc = bi * bi - 4 * ai * ci
        if disc < 0:
            raise NoRationalRoot(
                f"component {i} has negative discriminant {Q.render(disc)}", component=i
            )
        s = kth_root(Scalar(Q, disc), 2)
        if s is None:
            raise NoRationalRoot(
                f"component {i}: discriminant {Q.render(disc)} is not a rational square",
                component=i,
            )
        s = s.value
        if s != 0:
            nonzero_disc += 1
        plus.append((-bi + s) / (2 * ai))
        minus.append((-bi - s) / (2 * ai))
    r_plus = Matrix(a.shape, Q, plus)
    r_minus = Matrix(a.shape, Q, minus)
    if r_plus == r_minus:
        return RootSet((r_plus,))
    return RootSet((r_plus, r_minus), componentwise_signs=nonzero_disc > 1)


# -- text and JSON forms -----------------------------------------------------

_TERM_RE = re.compile(r"\s*(\[.*\])\s*(?:(\*\s*x)(?:\^(\d+))?)?\s*", re.S)


def render_poly(p: MatPoly) -> str:
    """Canonical form: terms ascending by degree, `COEFF * x^K` each."""
    if p.is_zero():
        return render_matrix(zeros(p.shape, p.domain).with_partition(p.ptype))
    parts = []
    for deg, coeff in p.terms:
        lit = render_matrix(coeff.with_partition(p.ptype))
        if deg == 0:
            parts.append(lit)
        elif deg == 1:
            parts.append(f"{lit} * x")
        else:
            parts.append(f"{lit} * x^{Z.render(deg)}")
    return " + ".join(parts)


def _split_terms(text):
    """(start, end) of each term: `text` split on '+' at bracket depth zero."""
    spans, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "+" and depth == 0:
            spans.append((start, i))
            start = i + 1
    spans.append((start, len(text)))
    return spans


def parse_poly(text: str, domain: Domain = Q) -> MatPoly:
    """Parse `COEFF * x^K + ...`; error positions count in all of `text`."""
    terms = []
    for start, end in _split_terms(text):
        m = _TERM_RE.fullmatch(text, start, end)
        if not m:
            term = text[start:end].strip()
            at = text.find(term[:1], start) if term else start
            raise ParseError(
                f"bad polynomial term {shorten(term)!r}", *_location(text, at)
            )
        xmark, power = m.group(2, 3)
        deg = 0 if xmark is None else (1 if power is None else _parse_int(power))
        terms.append((deg, _parse_span(text, m.start(1), m.end(1), domain)))
    return MatPoly.from_terms(terms)


def poly_to_json(p: MatPoly) -> dict:
    obj = {
        "shape": {"rows": p.shape.rows, "cols": p.shape.cols},
        "domain": p.domain.code,
        "terms": [
            {"deg": deg, "coeff": matrix_to_json(coeff)} for deg, coeff in p.terms
        ],
    }
    if p.ptype is not None:
        obj["row_cuts"] = list(p.ptype.row_cuts)
        obj["col_cuts"] = list(p.ptype.col_cuts)
    return obj


def poly_from_json(obj) -> MatPoly:
    """Inverse of poly_to_json; repeated degrees add up, as in parse_poly."""
    try:
        if isinstance(obj, str):
            import json

            obj = json.loads(obj)
        shape = Shape(*(_json_int(obj["shape"][k], f"shape.{k}") for k in ("rows", "cols")))
        domain = domain_from_code(obj["domain"])
        ptype = PartitionType(shape, *_json_cuts(obj))
        terms = [
            (_json_int(t["deg"], "deg"), matrix_from_json(t["coeff"]))
            for t in _json_array(obj["terms"], "terms")
        ]
        return MatPoly(shape, domain, _sum_by_degree(terms), ptype)
    except JSON_INPUT_ERRORS as exc:
        raise ParseError(f"malformed polynomial JSON: {exc!r}") from None

"""Command-line front end.

Grammar: natprod <verb> <subverb?> [flags] <inputs...>

Verbs: eval {add|nprod|uprod|inv|orth|divides|parse-render},
poly {add|nmul|umul|diff|int|degree|monic|solve},
analyze {carrier|idempotents|ideal|smarandache},
complement <matrix>, verify {paper-examples|laws|census}.

Each verb takes only the flags its handler reads; any other flag exits 2.
Each handler imports the layers it runs, so a child process loads only
what its verb needs.  `--samples` is bounded per verb: LAWS_MAX_SAMPLES
for `verify laws`, ANALYZE_MAX_SAMPLES for `analyze carrier`.

Exit codes: 0 success, 1 negative finding (false predicate, no roots,
failed suite case), 2 usage or parse errors, 3 internal error (any other
exception).  Output is deterministic for fixed inputs and seed; every
payload goes through _emit, whose JSON has sorted keys.
"""

from __future__ import annotations

import argparse
import collections
import io
import json
import os
import sys
from contextlib import redirect_stderr

from .errors import (
    TOKEN_SHOWN,
    NatProdError,
    NoRationalRoot,
    ParseError,
    TooLarge,
    shorten,
)
from .matrix import (
    Matrix,
    _parse_span,
    _shape,
    divides,
    is_orthogonal,
    main_complement,
    matrix_from_json,
    matrix_to_json,
    natural_inverse,
    parse_literal,
    render_matrix,
)
from .scalars import Q, _past_digit_limit, domain_from_code

LAWS_MAX_SAMPLES = 100_000
ANALYZE_MAX_SAMPLES = 100_000


# One command's outcome: exit code, stdout payload, stderr diagnostics.
RunReport = collections.namedtuple("RunReport", "exit_code payload diagnostics", defaults=("", ""))


_FLAGS = {
    "format": dict(choices=("text", "json"), default="text"),
    "seed": dict(type=int, default=0),
    "samples": dict(type=int, default=None),
    "domain": dict(default="Q"),
    "const": dict(default=None, metavar="MATRIX"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="natprod",
        description="Exact natural-product matrix algebra tool",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    def verb(name, help_text, *flags):
        sub = verbs.add_parser(name, help=help_text)
        for flag in flags:
            sub.add_argument(f"--{flag}", **_FLAGS[flag])
        return sub

    p_eval = verb("eval", "matrix operations", "format", "domain")
    p_eval.add_argument(
        "subverb",
        choices=("add", "nprod", "uprod", "inv", "orth", "divides", "parse-render"),
    )
    p_eval.add_argument("inputs", nargs="+", metavar="MATRIX")

    p_poly = verb("poly", "polynomial operations", "format", "domain", "const")
    p_poly.add_argument(
        "subverb",
        choices=("add", "nmul", "umul", "diff", "int", "degree", "monic", "solve"),
    )
    p_poly.add_argument("inputs", nargs="+", metavar="POLY")

    p_an = verb("analyze", "finite-structure analysis", "format", "seed", "samples", "domain")
    p_an.add_argument("subverb", choices=("carrier", "idempotents", "ideal", "smarandache"))
    p_an.add_argument("inputs", nargs="+", metavar="CARRIER")

    p_comp = verb("complement", "support complement", "format", "domain")
    p_comp.add_argument("inputs", nargs=1, metavar="MATRIX")

    p_verify = verb("verify", "built-in suites", "format", "seed", "samples")
    p_verify.add_argument("suite")
    return parser


def _read_source(token):
    """Inline literal / JSON text, or the contents of a file path, as given,
    so that parse errors count lines and columns in the user's input."""
    if token.lstrip().startswith(("[", "{")):
        return token
    if os.path.exists(token):
        try:
            with open(token, "r", encoding="utf-8") as handle:
                return handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {shorten(token)}: {exc}") from None
    raise ParseError(f"no such file: {shorten(token)}")


def _load_matrix(token, domain) -> Matrix:
    text = _read_source(token)
    if text.lstrip().startswith("{"):
        return matrix_from_json(text)
    return parse_literal(text, domain)


def _load_poly(token, domain):
    from . import matpoly as mp

    text = _read_source(token)
    if text.lstrip().startswith("{"):
        return mp.poly_from_json(text)
    return mp.parse_poly(text, domain)


def _emit(fmt, value, to_json, to_text):
    """The payload for `value`: canonical JSON with sorted keys, or text."""
    if fmt == "json":
        obj = to_json(value)
        try:
            return json.dumps(obj, sort_keys=True)
        except ValueError:  # only an int past the int/str digit limit fails here
            raise TooLarge(_past_digit_limit("an output integer")) from None
    return to_text(value)


def _emit_matrix(m: Matrix, fmt):
    return _emit(fmt, m, matrix_to_json, render_matrix)


def _emit_poly(p, fmt):
    from . import matpoly as mp

    return _emit(fmt, p, mp.poly_to_json, mp.render_poly)


def _cmd_eval(args):
    fmt = args.format
    domain = domain_from_code(args.domain)
    operands = [_load_matrix(tok, domain) for tok in args.inputs]

    if args.subverb == "parse-render":
        return RunReport(0, "\n".join(_emit_matrix(m, fmt) for m in operands))

    if args.subverb == "inv":
        results = [_emit_matrix(natural_inverse(m), fmt) for m in operands]
        return RunReport(0, "\n".join(results))

    if len(operands) != 2:
        raise ParseError(f"eval {args.subverb} takes exactly two operands")
    a, b = operands

    if args.subverb == "add":
        return RunReport(0, _emit_matrix(a + b, fmt))
    if args.subverb == "nprod":
        return RunReport(0, _emit_matrix(a * b, fmt))
    if args.subverb == "uprod":
        return RunReport(0, _emit_matrix(a @ b, fmt))
    if args.subverb == "orth":
        flag = is_orthogonal(a, b)
        payload = _emit(fmt, flag, lambda f: {"orthogonal": f}, lambda f: str(f).lower())
        return RunReport(0 if flag else 1, payload)
    quotient = divides(a, b)
    if quotient is None:
        return RunReport(1, _emit(fmt, None, lambda _: {"divides": False}, lambda _: "none"))
    return RunReport(0, _emit_matrix(quotient, fmt))


def _solve(p, fmt):
    from . import matpoly as mp

    degree = p.degree()
    if degree is None:
        raise ParseError("cannot solve the zero polynomial")
    if degree == 0:
        raise ParseError("cannot solve a constant polynomial")
    supported = set(p._terms)
    # Q keeps the quadratic formula even for a*x^2 + c: its root order and
    # failure text differ from solve_binomial's.
    if degree == 2 and (1 in supported or p.domain is Q):
        try:
            roots = mp.solve_quadratic(p.coeff(2), p.coeff(1), p.coeff(0))
        except NoRationalRoot as exc:
            roots = mp.RootSet(reason=str(exc))
    elif supported <= {0, degree}:
        # a x^k + c = 0  ->  a x^k = -c
        roots = mp.solve_binomial(p.coeff(degree), -p.coeff(0), degree)
    else:
        raise ParseError(
            "solve handles quadratics and two-term equations a*x^k + c only"
        )
    if not roots:
        payload = _emit(
            fmt, roots.reason, lambda r: {"roots": [], "reason": r}, lambda r: f"no roots: {r}"
        )
        return RunReport(1, payload)

    def text(roots):
        lines = [render_matrix(r) for r in roots]
        if roots.componentwise_signs:
            lines.append("# further componentwise sign choices are also roots")
        return "\n".join(lines)

    def to_json(roots):
        return {
            "roots": [matrix_to_json(r) for r in roots],
            "componentwise_signs": roots.componentwise_signs,
        }

    return RunReport(0, _emit(fmt, roots, to_json, text))


def _cmd_poly(args):
    from . import matpoly as mp

    fmt = args.format
    domain = domain_from_code(args.domain)
    polys = [_load_poly(tok, domain) for tok in args.inputs]

    if args.subverb in ("add", "nmul", "umul"):
        if len(polys) != 2:
            raise ParseError(f"poly {args.subverb} takes exactly two operands")
        p, q = polys
        result = {"add": lambda: p + q, "nmul": lambda: p * q, "umul": lambda: p @ q}[
            args.subverb
        ]()
        return RunReport(0, _emit_poly(result, fmt))

    if len(polys) != 1:
        raise ParseError(f"poly {args.subverb} takes exactly one operand")
    p = polys[0]
    if args.subverb == "diff":
        return RunReport(0, _emit_poly(mp.poly_derivative(p), fmt))
    if args.subverb == "int":
        constant = None
        if args.const is not None:
            constant = _load_matrix(args.const, p.domain)
        return RunReport(0, _emit_poly(mp.poly_integrate(p, constant), fmt))
    if args.subverb == "degree":
        payload = _emit(
            fmt, p.degree(), lambda d: {"degree": d}, lambda d: "none" if d is None else str(d)
        )
        return RunReport(0, payload)
    if args.subverb == "monic":
        return RunReport(0, _emit_poly(mp.monicize_natural(p), fmt))
    return _solve(p, fmt)


def _parse_carrier(spec, domain):
    """masks:RxC[:add] | all:RxC:Zn:N[:add] | file of matrix literals."""
    from . import structures as st

    if spec.startswith("masks:") or spec.startswith("all:"):
        parts = spec.split(":")
        op = st.NATURAL_PRODUCT
        if parts[-1] == "add":
            op = st.ADDITION
            parts = parts[:-1]
        if parts[0] == "masks" and len(parts) > 2:
            raise ParseError(f"bad carrier spec {shorten(spec)!r}: expected masks:RxC[:add]")
        try:
            rows, cols = parts[1].lower().split("x")
            shape = _shape((int(rows), int(cols)))
        except (ValueError, IndexError):
            raise ParseError(f"bad carrier shape in {shorten(spec)!r}") from None
        if parts[0] == "masks":
            return st.Carrier.masks(shape, op=op)
        mod = domain_from_code(":".join(parts[2:]))
        return st.Carrier.all_matrices(shape, mod, op=op)
    text = _read_source(spec)
    members, start = [], 0
    for line in text.splitlines(keepends=True):
        if line.strip():
            members.append(_parse_span(text, start, start + len(line), domain).base)
        start += len(line)
    try:
        return st.Carrier.explicit(members)
    except ValueError as exc:  # no members, or a member listed twice
        raise ParseError(f"bad carrier file {shorten(spec)}: {exc}") from None


def _samples(args, default, bound):
    """The --samples value (default when absent); at least 1, at most `bound`."""
    if args.samples is None:
        return default
    got = shorten(str(args.samples))
    if args.samples < 1:
        raise ParseError(f"--samples must be at least 1, got {got}")
    if args.samples > bound:
        raise TooLarge(f"--samples must be at most {bound}, got {got}")
    return args.samples


def _listing(fmt, head_json, head_text, key, members):
    """A head line (or JSON keys) followed by one rendered matrix per member."""
    rendered = [render_matrix(m) for m in members]
    return _emit(
        fmt, rendered, lambda r: {**head_json, key: r}, lambda r: "\n".join([head_text, *r])
    )


def _cmd_analyze(args):
    from . import structures as st

    fmt = args.format
    domain = domain_from_code(args.domain)
    carrier = _parse_carrier(args.inputs[0], domain)

    if args.subverb == "carrier":
        samples = _samples(args, 400, ANALYZE_MAX_SAMPLES)
        report = st.analyze(carrier, seed=args.seed, samples=samples)
        return RunReport(0, _emit(fmt, report, lambda r: r.to_json(), lambda r: r.table()))
    if args.subverb == "idempotents":
        idems = st.idempotents_in(carrier)
        n = len(idems)
        return RunReport(0, _listing(fmt, {"count": n}, f"count {n}", "idempotents", idems))
    if args.subverb == "ideal":
        if len(args.inputs) != 2:
            raise ParseError("analyze ideal takes a carrier and a generator")
        x = _load_matrix(args.inputs[1], carrier.domain).base
        ideal = st.ideal_generated(carrier, x)
        n = ideal.cardinality
        payload = _listing(fmt, {"cardinality": n}, f"cardinality {n}", "members", ideal.members)
        return RunReport(0, payload)
    witness = st.is_smarandache(carrier)
    if witness is None:
        return RunReport(1, _emit(fmt, None, lambda _: {"smarandache": False}, lambda _: "none"))
    head = f"subgroup of order {len(witness)}"
    return RunReport(0, _listing(fmt, {"smarandache": True}, head, "subgroup", witness))


def _cmd_complement(args):
    from . import structures as st

    domain = domain_from_code(args.domain)
    m = _load_matrix(args.inputs[0], domain).base
    mask = str(main_complement(m))
    dim = st.orthogonal_space(m).dim
    payload = _emit(
        args.format,
        mask,
        lambda mask: {"mask": mask, "dimension": dim},
        lambda mask: f"{mask}\ndimension {dim}",
    )
    return RunReport(0, payload)


def _cmd_verify(args):
    from . import verify as vf

    if args.suite not in vf.SUITES:
        raise ParseError(f"unknown suite {shorten(args.suite)!r}")
    if args.suite == "laws":
        samples = _samples(args, 10000, LAWS_MAX_SAMPLES)
        results = vf.run_laws(seed=args.seed, samples=samples)
    else:
        results = vf.SUITES[args.suite]()
    failed = sum(1 for r in results if not r.ok)

    def to_json(results):
        return {
            "suite": args.suite,
            "cases": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
            "passed": len(results) - failed,
            "failed": failed,
        }

    def text(results):
        lines = [
            f"{'ok  ' if r.ok else 'FAIL'} {r.name}" + (f" -- {r.detail}" if r.detail else "")
            for r in results
        ]
        lines.append(f"{len(results) - failed}/{len(results)} cases passed")
        return "\n".join(lines)

    return RunReport(1 if failed else 0, _emit(args.format, results, to_json, text))


_DISPATCH = {
    "eval": _cmd_eval,
    "poly": _cmd_poly,
    "analyze": _cmd_analyze,
    "complement": _cmd_complement,
    "verify": _cmd_verify,
}


def verify_suite(name, seed=0, samples=None, fmt="text") -> RunReport:
    """Run one built-in suite by name; exit code 0 iff every case passed."""
    argv = ["verify", name, "--seed", str(seed), "--format", fmt]
    if samples is not None:
        argv += ["--samples", str(samples)]
    return run_command(argv)


def _shorten_tokens(message, argv):
    """argparse's message with each long argv token shortened, as it is
    shown raw or inside a repr."""
    for token in argv:
        if len(token) > TOKEN_SHOWN:
            for shown in (token, repr(token)[1:-1]):
                message = message.replace(shown, shorten(token))
    return message


def run_command(argv) -> RunReport:
    """Parse argv and run one command; never raises, never exits."""
    parser = _build_parser()
    captured = io.StringIO()
    try:
        with redirect_stderr(captured):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return RunReport(2 if code != 0 else 0, "", _shorten_tokens(captured.getvalue(), argv))
    try:
        return _DISPATCH[args.verb](args)
    except NatProdError as exc:
        return RunReport(2, "", f"error: {type(exc).__name__}: {exc}")
    except Exception as exc:  # a defect, not a contract error: exit 3, never a traceback
        return RunReport(3, "", f"internal error: {type(exc).__name__}: {exc}")


def main(argv=None) -> int:
    report = run_command(sys.argv[1:] if argv is None else list(argv))
    if report.payload:
        print(report.payload)
    if report.diagnostics:
        print(report.diagnostics, file=sys.stderr, end="")
        if not report.diagnostics.endswith("\n"):
            print(file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Grammar: natprod <verb> <subverb?> [flags] <inputs...>

Verbs: eval {add|nprod|uprod|inv|orth|divides|parse-render},
poly {add|nmul|umul|diff|int|degree|monic|solve},
analyze {carrier|idempotents|ideal|smarandache},
complement <matrix>, verify {paper-examples|laws|census}.

Exit codes: 0 success, 1 negative finding (false predicate, no roots,
failed suite case), 2 usage or parse errors.  Output is deterministic for
fixed inputs and seed; --format json emits the canonical JSON forms.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import redirect_stderr
from dataclasses import dataclass

from . import matpoly as mp
from . import structures as st
from . import verify as vf
from .errors import NatProdError, NoRationalRoot, ParseError, TypeMismatch
from .matrix import (
    Matrix,
    _shape,
    divides,
    main_complement,
    matrix_from_json,
    matrix_to_json,
    natural_inverse,
    parse_literal,
    render_matrix,
)
from .scalars import Q, domain_from_code


@dataclass
class RunReport:
    exit_code: int
    payload: str = ""
    diagnostics: str = ""


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="natprod",
        description="Exact natural-product matrix algebra tool",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--samples", type=int, default=None)
    common.add_argument("--domain", default="Q")
    common.add_argument("--const", default=None, metavar="MATRIX")

    verbs = parser.add_subparsers(dest="verb", required=True)

    p_eval = verbs.add_parser("eval", parents=[common], help="matrix operations")
    p_eval.add_argument(
        "subverb",
        choices=("add", "nprod", "uprod", "inv", "orth", "divides", "parse-render"),
    )
    p_eval.add_argument("inputs", nargs="+", metavar="MATRIX")

    p_poly = verbs.add_parser("poly", parents=[common], help="polynomial operations")
    p_poly.add_argument(
        "subverb",
        choices=("add", "nmul", "umul", "diff", "int", "degree", "monic", "solve"),
    )
    p_poly.add_argument("inputs", nargs="+", metavar="POLY")

    p_an = verbs.add_parser("analyze", parents=[common], help="finite-structure analysis")
    p_an.add_argument("subverb", choices=("carrier", "idempotents", "ideal", "smarandache"))
    p_an.add_argument("inputs", nargs="+", metavar="CARRIER")

    p_comp = verbs.add_parser("complement", parents=[common], help="support complement")
    p_comp.add_argument("inputs", nargs=1, metavar="MATRIX")

    p_verify = verbs.add_parser("verify", parents=[common], help="built-in suites")
    p_verify.add_argument("suite")
    return parser


def _read_source(token):
    """Inline literal / JSON text, or the contents of a file path."""
    stripped = token.strip()
    if stripped.startswith("[") or stripped.startswith("{"):
        return stripped
    if os.path.exists(token):
        try:
            with open(token, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {token}: {exc}") from None
    raise ParseError(f"no such file: {token}")


def _load_matrix(token, domain) -> Matrix:
    text = _read_source(token)
    if text.startswith("{"):
        return matrix_from_json(text)
    return parse_literal(text, domain)


def _load_poly(token, domain) -> mp.MatPoly:
    text = _read_source(token)
    if text.startswith("{"):
        return mp.poly_from_json(text)
    return mp.parse_poly(text, domain)


def _emit_matrix(m: Matrix, fmt):
    if fmt == "json":
        return json.dumps(matrix_to_json(m), sort_keys=True)
    return render_matrix(m)


def _emit_poly(p: mp.MatPoly, fmt):
    if fmt == "json":
        return json.dumps(mp.poly_to_json(p), sort_keys=True)
    return mp.render_poly(p)


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
        if a.partition is not None or b.partition is not None:
            raise ParseError("the usual product is undefined on partitioned matrices")
        return RunReport(0, _emit_matrix(a @ b, fmt))
    if args.subverb == "orth":
        if a.partition != b.partition:
            raise TypeMismatch("operands carry different partitions")
        flag = (a * b).is_zero()
        payload = json.dumps({"orthogonal": flag}) if fmt == "json" else str(flag).lower()
        return RunReport(0 if flag else 1, payload)
    if args.subverb == "divides":
        quotient = divides(a, b)
        if quotient is None:
            payload = json.dumps({"divides": False}) if fmt == "json" else "none"
            return RunReport(1, payload)
        return RunReport(0, _emit_matrix(quotient, fmt))
    raise ParseError(f"unknown eval subverb {args.subverb}")


def _solve(p: mp.MatPoly, fmt):
    degree = p.degree()
    if degree is None:
        raise ParseError("cannot solve the zero polynomial")
    if degree == 0:
        raise ParseError("cannot solve a constant polynomial")
    supported = set(p._terms)
    # Q keeps the quadratic formula even for a*x^2 + c: its root order and
    # failure text differ from solve_binomial's.
    if degree == 2 and (1 in supported or p.domain == Q):
        try:
            roots = mp.solve_quadratic(p.coeff(2), p.coeff(1), p.coeff(0))
        except NoRationalRoot as exc:
            payload = (
                json.dumps({"roots": [], "reason": str(exc)}, sort_keys=True)
                if fmt == "json"
                else f"no roots: {exc}"
            )
            return RunReport(1, payload)
    elif supported <= {0, degree}:
        # a x^k + c = 0  ->  a x^k = -c
        roots = mp.solve_binomial(p.coeff(degree), -p.coeff(0), degree)
    else:
        raise ParseError(
            "solve handles quadratics and two-term equations a*x^k + c only"
        )
    if not roots:
        payload = (
            json.dumps({"roots": [], "reason": roots.reason}, sort_keys=True)
            if fmt == "json"
            else f"no roots: {roots.reason}"
        )
        return RunReport(1, payload)
    if fmt == "json":
        payload = json.dumps(
            {
                "roots": [matrix_to_json(r) for r in roots],
                "componentwise_signs": roots.componentwise_signs,
            },
            sort_keys=True,
        )
    else:
        lines = [render_matrix(r) for r in roots]
        if roots.componentwise_signs:
            lines.append("# further componentwise sign choices are also roots")
        payload = "\n".join(lines)
    return RunReport(0, payload)


def _cmd_poly(args):
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
        degree = p.degree()
        if fmt == "json":
            return RunReport(0, json.dumps({"degree": degree}))
        return RunReport(0, "none" if degree is None else str(degree))
    if args.subverb == "monic":
        return RunReport(0, _emit_poly(mp.monicize_natural(p), fmt))
    if args.subverb == "solve":
        return _solve(p, fmt)
    raise ParseError(f"unknown poly subverb {args.subverb}")


def _parse_carrier(spec, domain):
    """masks:RxC[:add] | all:RxC:Zn:N[:add] | file of matrix literals."""
    if spec.startswith("masks:") or spec.startswith("all:"):
        parts = spec.split(":")
        op = st.NATURAL_PRODUCT
        if parts[-1] == "add":
            op = st.ADDITION
            parts = parts[:-1]
        if parts[0] == "masks" and len(parts) > 2:
            raise ParseError(f"bad carrier spec {spec!r}: expected masks:RxC[:add]")
        try:
            rows, cols = parts[1].lower().split("x")
            shape = _shape((int(rows), int(cols)))
        except (ValueError, IndexError):
            raise ParseError(f"bad carrier shape in {spec!r}") from None
        if parts[0] == "masks":
            return st.Carrier.masks(shape, op=op)
        mod = domain_from_code(":".join(parts[2:]))
        return st.Carrier.all_matrices(shape, mod, op=op)
    text = _read_source(spec)
    members = [
        parse_literal(line, domain).base
        for line in text.splitlines()
        if line.strip()
    ]
    return st.Carrier.explicit(members)


def _samples(args, default):
    """The --samples value (default when absent); at least 1."""
    if args.samples is None:
        return default
    if args.samples < 1:
        raise ParseError(f"--samples must be at least 1, got {args.samples}")
    return args.samples


def _cmd_analyze(args):
    fmt = args.format
    domain = domain_from_code(args.domain)
    carrier = _parse_carrier(args.inputs[0], domain)

    if args.subverb == "carrier":
        report = st.analyze(carrier, seed=args.seed, samples=_samples(args, 400))
        if fmt == "json":
            return RunReport(0, json.dumps(report.to_json(), sort_keys=True))
        return RunReport(0, report.table())
    if args.subverb == "idempotents":
        idems = st.idempotents_in(carrier)
        if fmt == "json":
            payload = json.dumps(
                {"count": len(idems), "idempotents": [render_matrix(m) for m in idems]},
                sort_keys=True,
            )
        else:
            payload = "\n".join([f"count {len(idems)}"] + [render_matrix(m) for m in idems])
        return RunReport(0, payload)
    if args.subverb == "ideal":
        if len(args.inputs) != 2:
            raise ParseError("analyze ideal takes a carrier and a generator")
        x = _load_matrix(args.inputs[1], carrier.domain).base
        ideal = st.ideal_generated(carrier, x)
        if fmt == "json":
            payload = json.dumps(
                {
                    "cardinality": ideal.cardinality,
                    "members": [render_matrix(m) for m in ideal.members],
                },
                sort_keys=True,
            )
        else:
            payload = "\n".join(
                [f"cardinality {ideal.cardinality}"]
                + [render_matrix(m) for m in ideal.members]
            )
        return RunReport(0, payload)
    if args.subverb == "smarandache":
        witness = st.is_smarandache(carrier)
        if witness is None:
            payload = json.dumps({"smarandache": False}) if fmt == "json" else "none"
            return RunReport(1, payload)
        if fmt == "json":
            payload = json.dumps(
                {"smarandache": True, "subgroup": [render_matrix(m) for m in witness]},
                sort_keys=True,
            )
        else:
            payload = "\n".join(
                [f"subgroup of order {len(witness)}"] + [render_matrix(m) for m in witness]
            )
        return RunReport(0, payload)
    raise ParseError(f"unknown analyze subverb {args.subverb}")


def _cmd_complement(args):
    domain = domain_from_code(args.domain)
    m = _load_matrix(args.inputs[0], domain).base
    mask = main_complement(m)
    space = st.orthogonal_space(m)
    if args.format == "json":
        payload = json.dumps(
            {
                "mask": str(mask),
                "dimension": space.dim,
            },
            sort_keys=True,
        )
    else:
        payload = f"{mask}\ndimension {space.dim}"
    return RunReport(0, payload)


def _cmd_verify(args):
    if args.suite not in vf.SUITES:
        raise ParseError(f"unknown suite {args.suite!r}")
    if args.suite == "laws":
        results = vf.run_laws(seed=args.seed, samples=_samples(args, 10000))
    else:
        results = vf.SUITES[args.suite]()
    failures = [r for r in results if not r.ok]
    if args.format == "json":
        payload = json.dumps(
            {
                "suite": args.suite,
                "cases": [
                    {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
                ],
                "passed": len(results) - len(failures),
                "failed": len(failures),
            },
            sort_keys=True,
        )
    else:
        lines = [
            f"{'ok  ' if r.ok else 'FAIL'} {r.name}" + (f" -- {r.detail}" if r.detail else "")
            for r in results
        ]
        lines.append(f"{len(results) - len(failures)}/{len(results)} cases passed")
        payload = "\n".join(lines)
    return RunReport(0 if not failures else 1, payload)


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


def run_command(argv) -> RunReport:
    """Parse argv and run one command; never raises, never exits."""
    parser = _build_parser()
    captured = io.StringIO()
    try:
        with redirect_stderr(captured):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return RunReport(2 if code != 0 else 0, "", captured.getvalue())
    try:
        return _DISPATCH[args.verb](args)
    except NatProdError as exc:
        return RunReport(2, "", f"error: {type(exc).__name__}: {exc}")


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

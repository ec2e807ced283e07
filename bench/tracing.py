"""Span tracing of natprod's layers, installed from outside the package.

`Tracer.install()` rebinds each layer's public entry points to timing
wrappers.  A module-level function is rebound where it is defined, in
every natprod module that imported it, and in the `verify.SUITES`
registry, so calls inside the package go through the wrapper too.
Methods are rebound on their class.  `uninstall()` restores everything.

Spans are aggregated per (name, parent): calls, total time, self time
(total minus the time of child spans) and calls that raised an exception
other than a `NatProdError` contract error.  Wrappers only record while
`active` is set, so input generation and reference checks stay out of
the trace.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("scalars", "matrix", "supermatrix", "matpoly", "structures", "verify", "cli")

# (module, attribute path, span name).  A span name ending in ".<D>" is
# completed with the domain of the first argument.
ENTRY_POINTS = [
    ("scalars", "Domain.coerce", "scalars.coerce"),
    ("scalars", "Domain.__eq__", "scalars.domain_eq"),
    ("scalars", "Domain.__hash__", "scalars.domain_hash"),
    ("scalars", "Domain.parse", "scalars.parse"),
    ("scalars", "Domain.render", "scalars.render"),
    ("scalars", "Domain.add", "scalars.arith"),
    ("scalars", "Domain.sub", "scalars.arith"),
    ("scalars", "Domain.neg", "scalars.arith"),
    ("scalars", "Domain.mul", "scalars.arith"),
    ("scalars", "Domain.inv", "scalars.arith"),
    ("scalars", "Domain.is_unit", "scalars.arith"),
    ("scalars", "domain_from_code", "scalars.domain_from_code"),
    ("scalars", "kth_root", "scalars.kth_root"),
    ("scalars", "Mod", "scalars.mod"),
    ("matrix", "Matrix.__init__", "matrix.construct"),
    ("matrix", "Matrix.__mul__", "matrix.nprod.<D>"),
    ("matrix", "Matrix.__matmul__", "matrix.matmul.<D>"),
    ("matrix", "Matrix.__add__", "matrix.add"),
    ("matrix", "Matrix.__sub__", "matrix.add"),
    ("matrix", "Matrix.__neg__", "matrix.add"),
    ("matrix", "Matrix.__eq__", "matrix.eq_hash"),
    ("matrix", "Matrix.__hash__", "matrix.eq_hash"),
    ("matrix", "Matrix.is_zero", "matrix.other"),
    ("matrix", "Matrix.scale", "matrix.other"),
    ("matrix", "SupportMask.from_int", "matrix.other"),
    ("matrix", "SupportMask.to_matrix", "matrix.other"),
    ("matrix", "usual_inverse", "matrix.usual_inverse"),
    ("matrix", "natural_inverse", "matrix.inverse"),
    ("matrix", "parse_matrix", "matrix.parse"),
    ("matrix", "render_matrix", "matrix.render"),
    ("matrix", "matrix_to_json", "matrix.json"),
    ("matrix", "matrix_from_json", "matrix.json"),
    ("matrix", "divides", "matrix.other"),
    ("matrix", "support", "matrix.other"),
    ("matrix", "main_complement", "matrix.other"),
    ("matrix", "zeros", "matrix.other"),
    ("matrix", "ones", "matrix.other"),
    ("supermatrix", "parse_super", "supermatrix.parse"),
    ("supermatrix", "render_super", "supermatrix.render"),
    ("supermatrix", "super_to_json", "supermatrix.json"),
    ("supermatrix", "super_from_json", "supermatrix.json"),
    ("supermatrix", "SuperMatrix.__add__", "supermatrix.ops"),
    ("supermatrix", "SuperMatrix.__sub__", "supermatrix.ops"),
    ("supermatrix", "SuperMatrix.__mul__", "supermatrix.ops"),
    ("supermatrix", "SuperMatrix.__neg__", "supermatrix.ops"),
    ("supermatrix", "super_inverse", "supermatrix.ops"),
    ("supermatrix", "PartitionType.__init__", "supermatrix.ptype"),
    ("supermatrix", "PartitionType.__eq__", "supermatrix.ptype"),
    ("matpoly", "MatPoly.__init__", "matpoly.construct"),
    ("matpoly", "MatPoly.__mul__", "matpoly.nmul"),
    ("matpoly", "MatPoly.__matmul__", "matpoly.umul"),
    ("matpoly", "MatPoly.__add__", "matpoly.add"),
    ("matpoly", "MatPoly.__sub__", "matpoly.add"),
    ("matpoly", "MatPoly.__neg__", "matpoly.add"),
    ("matpoly", "solve_binomial", "matpoly.solve"),
    ("matpoly", "solve_quadratic", "matpoly.solve"),
    ("matpoly", "parse_poly", "matpoly.parse_render"),
    ("matpoly", "render_poly", "matpoly.parse_render"),
    ("matpoly", "poly_to_json", "matpoly.parse_render"),
    ("matpoly", "poly_from_json", "matpoly.parse_render"),
    ("matpoly", "poly_derivative", "matpoly.calculus"),
    ("matpoly", "poly_integrate", "matpoly.calculus"),
    ("matpoly", "monicize_natural", "matpoly.calculus"),
    ("matpoly", "monicize_usual", "matpoly.calculus"),
    ("matpoly", "poly_evaluate_natural", "matpoly.calculus"),
    ("structures", "analyze", "structures.analyze"),
    ("structures", "ideal_generated", "structures.ideal"),
    ("structures", "is_smarandache", "structures.smarandache"),
    ("structures", "idempotents_in", "structures.idempotents"),
    ("structures", "Carrier.elements", "structures.elements"),
    ("structures", "is_subsemigroup", "structures.other"),
    ("structures", "is_ideal", "structures.other"),
    ("structures", "orthogonal_space", "structures.other"),
    ("structures", "check_sum", "structures.other"),
    ("structures", "cone_positivity_check", "structures.other"),
    ("verify", "run_paper_examples", "verify.paper_examples"),
    ("verify", "run_laws", "verify.laws"),
    ("verify", "run_census", "verify.census"),
    ("cli", "run_command", "cli.run_command"),
]

# Natural products and sums issued beneath a structures span.
PRODUCT_SPANS = ("matrix.nprod.<D>", "matrix.add")


def domain_key(domain):
    """Z, Q, Zp (Z+), Qp (Q+), Zn7 for Z_7, and Zn for every other modulus."""
    if domain.modulus is not None:
        return "Zn7" if domain.modulus == 7 else "Zn"
    return {"int": "Z", "rat": "Q", "nonneg_int": "Zp", "nonneg_rat": "Qp"}[domain.kind]


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []  # frames: [span name, child time]
        self.spans = {}  # (name, parent) -> [calls, total_s, self_s, failed]
        self.pairs = set()  # distinct (op, a, b) products of the current operation
        self.distinct_pairs = 0
        self._undo = []

    # -- spans ------------------------------------------------------------------

    def end_operation(self):
        """Close the distinct-product count of one benchmark operation."""
        self.distinct_pairs += len(self.pairs)
        self.pairs.clear()

    def _wrap(self, name, fn, contract_error):
        tracer = self
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        per_domain = name.endswith(".<D>")
        prefix = name[: -len("<D>")]
        product = name in PRODUCT_SPANS
        pairs = self.pairs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = prefix + domain_key(args[0].domain) if per_domain else name
            parent = stack[-1][0] if stack else ""
            if product and parent.startswith("structures."):
                a, b = args[0], args[1]
                pairs.add((name, a.domain.modulus, a.shape, a.values, b.values))
            frame = [span, 0.0]
            stack.append(frame)
            failed = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                failed = 0 if isinstance(exc, contract_error) else 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = spans.get((span, parent))
                if rec is None:
                    rec = spans[(span, parent)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                rec[3] += failed

        return wrapper

    # -- installation -------------------------------------------------------------

    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"natprod.{layer}")
        from natprod import verify
        from natprod.errors import NatProdError

        modules = [m for k, m in sys.modules.items() if k == "natprod" or k.startswith("natprod.")]
        for module_name, path, span in ENTRY_POINTS:
            module = sys.modules[f"natprod.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span, raw.__func__, NatProdError))
                else:
                    wrapped = self._wrap(span, raw, NatProdError)
                self._rebind(cls, attr, raw, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self._wrap(span, original, NatProdError)
            for mod in modules:
                if mod.__dict__.get(path) is original:
                    self._rebind(mod, path, original, wrapped)
            for key, fn in list(verify.SUITES.items()):
                if fn is original:
                    verify.SUITES[key] = wrapped
                    self._undo.append((verify.SUITES.__setitem__, key, original))

    def _rebind(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((functools.partial(setattr, owner), attr, original))

    def uninstall(self):
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)

    # -- per-layer metrics ----------------------------------------------------------

    def aggregate(self):
        """Spans as JSON-ready records, heaviest self time first."""
        rows = [
            {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s, "failed": f}
            for (n, p), (c, t, s, f) in self.spans.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])

    def metrics(self):
        """The per-layer metrics listed in BENCHMARK.json (tracing part)."""
        calls, self_s, failed = {}, {}, {}
        coeff_products = products = 0
        for (name, parent), (c, _total, s, f) in self.spans.items():
            calls[name] = calls.get(name, 0) + c
            self_s[name] = self_s.get(name, 0.0) + s
            layer = name.split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + s
            failed[layer] = failed.get(layer, 0) + f
            is_product = name.startswith(("matrix.nprod.", "matrix.matmul."))
            if is_product and parent in ("matpoly.nmul", "matpoly.umul"):
                coeff_products += c
            if (name.startswith("matrix.nprod.") or name == "matrix.add") and parent.startswith("structures."):
                products += c

        def total(prefix, table):
            return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

        out = {
            "scalars.coerce.calls": (calls.get("scalars.coerce", 0), "count"),
            "scalars.domain_eq.calls": (calls.get("scalars.domain_eq", 0), "count"),
            "matrix.nprod.calls": (total("matrix.nprod", calls), "count"),
            "matrix.construct.calls": (calls.get("matrix.construct", 0), "count"),
            "matrix.construct.self_s": (self_s.get("matrix.construct", 0.0), "s"),
            "matrix.eq_hash.calls": (calls.get("matrix.eq_hash", 0), "count"),
            "matpoly.coeff_products.calls": (coeff_products, "count"),
            "structures.products.calls": (products, "count"),
            "structures.products.distinct": (self.distinct_pairs, "count"),
            "structures.useful_product_ratio": (self.distinct_pairs / products if products else 0.0, "ratio"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
            out[f"{layer}.failed.calls"] = (failed.get(layer, 0), "count")
        for d in ("Z", "Q", "Zn7", "Qp", "Zp", "Zn"):
            out[f"matrix.nprod.{d}.self_s"] = (self_s.get(f"matrix.nprod.{d}", 0.0), "s")
            out[f"matrix.matmul.{d}.self_s"] = (self_s.get(f"matrix.matmul.{d}", 0.0), "s")
        for span in (
            "matrix.usual_inverse", "matrix.parse", "matrix.render", "matrix.json",
            "supermatrix.parse", "supermatrix.render", "supermatrix.ops",
            "matpoly.nmul", "matpoly.umul", "matpoly.solve", "matpoly.parse_render",
            "structures.analyze", "structures.ideal", "structures.smarandache",
            "structures.idempotents", "structures.elements",
            "verify.paper_examples", "verify.laws",
        ):
            out[f"{span}.self_s"] = (self_s.get(span, 0.0), "s")
        return out

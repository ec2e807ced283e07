"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q bench/selftest.py

They check that every emitted metric name is well formed and listed in
BENCHMARK.json, that every reference accepts the program's known-good
results, that every reference rejects a deliberately corrupted result,
and that the benchmark refuses to run without the program's sources.
The file is not named test_*.py, so the repository's own test run does
not collect it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import natprod as np  # noqa: E402
from natprod import cli  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, under the ignored bench/out/."""
    path = os.path.join(BENCH_DIR, "out", f"selftest-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def runner(workdir):
    return workloads.ChildRunner(ROOT, workdir)


def tiny(workload, runner):
    if workload == "cli":
        return lambda rng, scale="tiny": workloads.cli_ops(rng, runner, tiny=True)
    block = getattr(workloads, f"{workload}_block")
    return lambda rng, scale="tiny": block(rng, "tiny")


# -- metric names ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["algebra", "structures", "cli"])
def test_emitted_names_match_benchmark_json(workload, runner):
    build = tiny(workload, runner)
    emitted = {}
    for trace in (0, 1):
        args = argparse.Namespace(seed=1, seconds=0.0, trace=trace)
        res = worker.run_phases(args, build, runner if workload == "cli" else None)
        if trace:
            emitted[trace] = {k: m["unit"] for k, m in res["per_layer"].items()}
            names = {s["name"] for s in res["spans"]}
            assert all(NAME.fullmatch(n) for n in names)
        else:
            emitted[trace] = {k: unit for k, (_, unit, _) in run.end_to_end(res, [0.1]).items()}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert all(NAME.fullmatch(n) for n in emitted[trace])
        assert emitted[trace] == {m["name"]: m["unit"] for m in SPEC[key]}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert worker.tail(list(range(100))) == (89, 90, 10)
    assert worker.tail(list(range(99)))[1:] == (50, 49)
    assert worker.tail(list(range(1000))) == (989, 99, 10)
    assert worker.tail([5.0])[1:] == (100.0, 0)


# -- references accept good results and reject corrupted ones ---------------------


def corrupt_text(text):
    for i, ch in enumerate(text):
        if ch.isdigit():
            return text[:i] + str((int(ch) + 1) % 10) + text[i + 1:]
    return text + "x"


def corrupt_matrix(m):
    n = m.domain.modulus
    values = list(m.values)
    values[0] = (values[0] + 1) % n if n else values[0] + 1
    return np.Matrix(m.shape, m.domain, values)


def corrupt(out):
    """The same kind of result with one entry, member or character changed."""
    if isinstance(out, np.Matrix):
        return corrupt_matrix(out)
    if isinstance(out, np.SuperMatrix):
        return np.SuperMatrix(corrupt_matrix(out.base), out.ptype)
    if isinstance(out, str):
        return corrupt_text(out)
    if isinstance(out, np.MatPoly):
        (deg, coeff), *rest = out.terms
        return np.MatPoly.from_terms([(deg, corrupt_matrix(coeff))] + list(rest))
    if isinstance(out, np.RootSet):
        return np.RootSet(tuple(corrupt_matrix(r) for r in out.roots), out.componentwise_signs)
    if isinstance(out, np.StructureReport):
        return dataclasses.replace(out, idempotents=out.idempotents[1:])
    if dataclasses.is_dataclass(out):  # a generated ideal
        return dataclasses.replace(out, members=out.members[1:])
    if out is None:  # no Smarandache witness
        return (np.Matrix((1, 1), np.Z, [1]),)
    if isinstance(out, tuple) and isinstance(out[0], dict):  # JSON round trip
        obj = json.loads(corrupt_text(json.dumps(out[0])))
        return obj, out[1]
    return out[1:]  # a tuple of matrices: drop one


@pytest.mark.parametrize("workload", ["algebra", "structures"])
def test_references_judge_library_results(workload):
    ops = getattr(workloads, f"{workload}_block")(random.Random(7), "tiny")
    for op in ops:
        out = op.call()
        op.check(out)
        with pytest.raises(ref.Mismatch):
            op.check(corrupt(out))


def test_cli_references_judge_contract_results(runner):
    checked = 0
    for op in workloads.cli_ops(random.Random(7), runner, tiny=True):
        try:
            report = cli.run_command(list(op.argv))
        except Exception:  # a crash at the boundary: the contract check rejects it
            continue
        result = (report.exit_code, report.payload, report.diagnostics)
        try:
            op.check(result)
        except ref.Refusal:
            continue  # the program breaks the exit-code contract here
        checked += 1
        with pytest.raises(ref.Refusal):
            op.check((report.exit_code + 1, report.payload, report.diagnostics))
        with pytest.raises(ref.Refusal):
            op.check((report.exit_code, report.payload, "Traceback (most recent call last):"))
        if report.payload:  # truncated output
            with pytest.raises(Exception):
                op.check((report.exit_code, report.payload[: len(report.payload) // 2], report.diagnostics))
    assert checked >= 30


def test_exit_contract_reference():
    ref.check_exit(2, 2, "", "error: ParseError: bad")
    for args in ((2, 1, "", "Traceback"), (0, 2, "", ""), (2, 2, "[1]", ""), (0, 0, "[1]", "Traceback")):
        with pytest.raises(ref.Refusal):
            ref.check_exit(*args)


# -- refusing to run without sources ----------------------------------------------------


def test_refuses_without_program_sources(workdir):
    checkout = os.path.join(workdir, "checkout")
    shutil.copytree(BENCH_DIR, os.path.join(checkout, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), checkout)
    cmd = SPEC["command"] + ["--workload", "algebra", "--seed", "1", "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

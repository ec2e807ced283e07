"""natprod benchmark: one seeded workload, measured end to end or traced.

    python3 bench/run.py --workload {algebra,structures,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The run starts SETUPS fresh worker interpreters one after the
other; each imports natprod and runs the untimed warm-up pass, and the
time until it reports ready is one ``setup_s`` sample.  The last worker
then measures the workload (see worker.py).

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced block, with the tracing
overhead.  The lines before the last are a human-readable report and
the path of the result record written under ``bench/out/``; the last
line is one JSON object: correct, attempted, failed, metrics.

``correct`` is false when any operation returned a wrong answer.  An
operation that raises, crashes or breaks the exit-code contract is
``failed`` but not wrong, so the known boundary defects stay visible in
``failed`` (and in the record's failure list) without voiding the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import speed

SETUPS = 5
DEADLINE_S = 170
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("algebra", "structures", "cli")


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "natprod")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def start_worker(args, setup_only, deadline):
    """Start a worker; return (process, seconds until it reported ready)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    before = speed.burst()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, deadline)
        fail(f"worker did not become ready (exit {proc.returncode})")
    return proc, ready * speed.scale(before, speed.burst())


def finish(proc, deadline):
    """Wait for a worker within the deadline; return its last stdout line."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("worker exceeded the deadline")
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def summarize(values):
    return {"median": statistics.median(values), "min": min(values), "samples": len(values)}


def end_to_end(res, setups):
    """name -> (value, unit, provenance: median and minimum behind the value)."""
    return {
        "ops_per_s": (res["attempted"] / res["busy_s"], "ops/s", summarize(res["block_ops_per_s"])),
        "latency_p50_ms": (res["latency_p50_s"] * 1e3, "ms",
                           {"median": res["latency_p50_s"] * 1e3, "min": res["latency_min_s"] * 1e3}),
        "latency_tail_ms": (res["latency_tail_s"] * 1e3, "ms",
                            {"percentile": res["tail_percentile"], "samples_beyond": res["tail_beyond"],
                             "samples": res["attempted"]}),
        "setup_s": (statistics.median(setups), "s", summarize(setups)),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", {"median": res["peak_rss_mb"], "min": res["peak_rss_mb"]}),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "natprod", "__init__.py")):
        fail(f"no natprod sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + DEADLINE_S

    setups = []
    for _ in range(SETUPS - 1):
        proc, ready = start_worker(args, True, deadline)
        finish(proc, deadline)
        setups.append(ready)
    proc, ready = start_worker(args, False, deadline)
    setups.append(ready)
    last = finish(proc, deadline)
    if proc.returncode != 0 or not last.startswith("{"):
        fail(f"worker failed (exit {proc.returncode})")
    res = json.loads(last)

    if args.trace:
        phases = (res["untraced"], res["traced"])
        metrics = {k: (m["value"], m["unit"], None) for k, m in res["per_layer"].items()}
    else:
        phases = (res,)
        metrics = end_to_end(res, setups)
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    wrong = sum(p["wrong"] for p in phases)
    failures = {}
    for phase in phases:
        for name, entry in phase["failures"].items():
            failures.setdefault(name, {"count": 0, "reason": entry["reason"]})["count"] += entry["count"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "operations": attempted,
        "blocks": [p["blocks"] for p in phases],
        "busy_s": {"scaled": [p["busy_s"] for p in phases], "raw": [p["raw_busy_s"] for p in phases]},
        "failed": failed,
        "failed_ratio": failed / attempted,
        "wrong": wrong,
        "failures": failures,
        "setup_s_samples": setups,
        "metrics": {k: {"value": v, "unit": u, **(extra or {})} for k, (v, u, extra) in metrics.items()},
    }
    if args.trace:
        record["spans"] = res["spans"]
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{args.workload}_seed{args.seed}_{'traced' if args.trace else 'untraced'}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  {'traced' if args.trace else 'untraced'}  "
          f"operations {attempted}  blocks {record['blocks']}")
    print(f"  {'failed_ratio':32s} {failed / attempted:14.6f} failed/attempted ({failed}/{attempted})")
    for name, (value, unit, _) in sorted(metrics.items()):
        print(f"  {name:32s} {value:14.6f} {unit}")
    if not args.trace:
        tail = metrics["latency_tail_ms"][2]
        print(f"  latency_tail_ms is p{tail['percentile']:g} with {tail['samples_beyond']} of "
              f"{attempted} samples beyond it")
    for name, entry in sorted(failures.items()):
        print(f"  FAILED {name} x{entry['count']}: {entry['reason']}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

"""Run the benchmark over several seeds and write one BENCH_*.json record.

    python3 bench/collect.py [--workloads algebra,structures,cli]
                             [--seeds 1-10] [--seconds S] [--trace 0|1|both]
                             [--out bench/results/BENCH_<label>.json]

For every end-to-end metric of every workload it prints the median, the
minimum and the spread between the first and third quartile as a share
of the median (Python's ``statistics.quantiles(values, n=4)``), beside
the bound from BENCHMARK.json.  With traced runs it adds the per-layer
medians and the tracing overhead.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import commit, source_digest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec, workload, seed, seconds, trace):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    failed = [line.strip() for line in proc.stdout.splitlines() if line.strip().startswith("FAILED ")]
    return result, wall, failed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", default="0", choices=("0", "1", "both"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "seeds": seeds(args.seeds),
        "workloads": {},
    }
    for workload in workloads:
        entry = report["workloads"][workload] = {}
        for trace in traces:
            values, walls, attempted, failed, correct, failures = {}, [], [], [], True, set()
            for seed in seeds(args.seeds):
                result, wall, failed_lines = run_once(spec, workload, seed, seconds, trace)
                walls.append(wall)
                attempted.append(result["attempted"])
                failed.append(result["failed"])
                correct = correct and result["correct"]
                failures.update(line.split(" x")[0][len("FAILED "):] for line in failed_lines)
                for name, metric in result["metrics"].items():
                    values.setdefault(name, ([], metric["unit"]))[0].append(metric["value"])
                print(f"{workload} trace={trace} seed={seed} wall={wall:.1f}s "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            metrics = {}
            for name, (vals, unit) in values.items():
                metrics[name] = {
                    "unit": unit,
                    "median": statistics.median(vals),
                    "min": min(vals),
                    "quartile_spread": spread(vals) if len(vals) >= 2 else None,
                    "values": vals,
                }
            entry["traced" if trace else "untraced"] = {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "failed_ratio": sum(failed) / sum(attempted),
                "failed_operations": sorted(failures),
                "wall_s": walls,
                "metrics": metrics,
            }
            print(f"\n{workload} ({'traced' if trace else 'untraced'}): failed_ratio "
                  f"{sum(failed) / sum(attempted):.4f} failed/attempted; "
                  f"max wall {max(walls):.1f} s; correct={correct}")
            for name, m in sorted(metrics.items()):
                bound = bounds.get(name)
                note = ""
                if bound is not None and m["quartile_spread"] is not None:
                    ok = name == "setup_s" or m["quartile_spread"] < bound / 3
                    note = f"  bound {bound:.2f}  {'ok' if ok else 'TOO WIDE'}"
                qs = m["quartile_spread"]
                print(f"  {name:34s} median {m['median']:14.6f} {m['unit']:6s} min {m['min']:14.6f}"
                      + (f"  spread {qs:7.4f}" if qs is not None else "") + note)
            print(flush=True)
        if len(traces) == 2:
            untraced = entry["untraced"]["metrics"]["ops_per_s"]["median"]
            traced = entry["traced"]["metrics"]["trace.traced_ops_per_s"]["median"]
            entry["trace_overhead"] = {"untraced_ops_per_s": untraced, "traced_ops_per_s": traced,
                                       "ratio": untraced / traced}
            print(f"{workload}: tracing overhead {untraced / traced:.3f}x "
                  f"(untraced {untraced:.3f} ops/s, traced {traced:.3f} ops/s)\n")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

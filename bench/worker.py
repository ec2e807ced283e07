"""One benchmark worker: a fresh interpreter that sets up, then measures.

Started by `run.py`.  It imports natprod, runs the untimed warm-up pass,
prints ``ready``, and (unless ``--setup-only``) measures whole blocks of
the workload for ``--seconds``, checking every output against the
references outside the timed region.  The last stdout line is a JSON
summary for `run.py`.

The loop is closed with one client: an operation starts only after the
previous one has returned and been checked.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import reference as ref
import speed
import workloads

# Percentile ladder as (percentile, k): the tail is the highest percentile
# whose beyond-share 1/k still leaves at least TAIL_BEYOND samples.
LADDER = ((99.99, 10000), (99.9, 1000), (99, 100), (90, 10), (50, 2))
TAIL_BEYOND = 10
IMPORT_SAMPLES = 5


def tail(latencies):
    """(value, percentile, samples beyond it) by the nearest-rank rule."""
    s = sorted(latencies)
    n = len(s)
    for pct, k in LADDER:
        if n // k >= TAIL_BEYOND:
            return s[n - n // k - 1], pct, n // k
    return s[-1], 100.0, 0


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Run:
    """Operation intervals, failures and block boundaries of one phase.

    Intervals are raw wall-clock (`perf_counter`) times; `summary` scales
    them to nominal seconds with a speed trace (see speed.py).
    """

    def __init__(self):
        self.intervals = []  # (start, end) per operation
        self.block_ends = []  # number of operations after each block
        self.samples = []  # in-loop speed samples (t, seconds), for cli
        self.failures = {}  # op name -> [count, first reason]
        self.wrong = 0

    def record(self, op, start, end, out, err):
        self.intervals.append((start, end))
        reason = None
        if err is not None:
            reason = f"raised {type(err).__name__}: {err}"
        else:
            try:
                op.check(out)
            except ref.Refusal as exc:
                reason = str(exc)
            except Exception as exc:  # a wrong answer, whatever the check tripped on
                reason = f"wrong result: {exc}"
                self.wrong += 1
        if reason is not None:
            entry = self.failures.setdefault(op.name, [0, reason[:300]])
            entry[0] += 1

    def summary(self, samples, nominal):
        latencies = speed.scaled(self.intervals, samples or self.samples, nominal)
        rates, first = [], 0
        for last in self.block_ends:
            rates.append((last - first) / sum(latencies[first:last]))
            first = last
        value, pct, beyond = tail(latencies)
        return {
            "attempted": len(latencies),
            "failed": sum(c for c, _ in self.failures.values()),
            "wrong": self.wrong,
            "failures": {k: {"count": c, "reason": r} for k, (c, r) in sorted(self.failures.items())},
            "busy_s": sum(latencies),
            "raw_busy_s": sum(end - start for start, end in self.intervals),
            "blocks": len(rates),
            "block_ops_per_s": rates,
            "latency_p50_s": statistics.median(latencies),
            "latency_min_s": min(latencies),
            "latency_tail_s": value,
            "tail_percentile": pct,
            "tail_beyond": beyond,
        }


def measure(build, rng, seconds=None, blocks=None, tracer=None, in_process=None, calibrate=None):
    """Run whole blocks until `seconds` of wall time have passed, or `blocks`.

    Each output is checked right after its operation, outside the timed
    interval.  `calibrate`, when given, is sampled before each block and
    after each operation into `Run.samples`.
    """
    run = Run()
    clock = time.perf_counter
    begin = clock()
    while True:
        done = len(run.block_ends)
        if blocks is not None and done >= blocks:
            break
        if blocks is None and done and clock() - begin >= seconds:
            break
        ops = build(rng)
        rng.shuffle(ops)
        if calibrate is not None:
            run.samples.append(speed.sample(calibrate))
        for op in ops:
            if tracer is not None and in_process is None:
                tracer.active = True
            start = clock()
            try:
                out, err = op.call(), None
            except Exception as exc:  # the program's failure is a measurement, not a crash
                out, err = None, exc
            end = clock()
            if tracer is not None:
                tracer.active = False
                if in_process is not None:
                    in_process(op.argv)
                tracer.end_operation()
            if calibrate is not None:
                run.samples.append(speed.sample(calibrate))
            run.record(op, start, end, out, err)
        run.block_ends.append(len(run.intervals))
    return run


def import_seconds(runner):
    """Median time of `import natprod` in fresh child interpreters."""
    code = "import time; t = time.perf_counter(); import natprod; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=runner.root, env=runner.env,
                              capture_output=True, check=True, timeout=60)
        times.append(float(proc.stdout))
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = os.path.join(args.root, "bench", "out", f"work-{os.getpid()}")
    runner = None
    if args.workload == "cli":
        os.makedirs(workdir, exist_ok=True)
        runner = workloads.ChildRunner(args.root, workdir)
        build = lambda rng, scale="full": workloads.cli_ops(rng, runner, tiny=scale == "tiny")  # noqa: E731
    else:
        build = getattr(workloads, f"{args.workload}_block")
    try:
        # Warm-up: every code path once at tiny sizes (one child for cli).
        warm = random.Random(args.seed ^ 0x5EED)
        if runner is not None:
            runner(["eval", "nprod", "[1 2]", "[3 4]"])
        else:
            measure(lambda rng: build(rng, "tiny"), warm, blocks=1)
        print("ready", flush=True)
        if args.setup_only:
            return
        print(json.dumps(run_phases(args, build, runner)), flush=True)
    finally:
        if runner is not None:
            shutil.rmtree(workdir, ignore_errors=True)


def run_phases(args, build, runner):
    """Measure the workload; in-process workloads run beside a speed monitor.

    Child processes (cli) are calibrated by a bare child interpreter after
    every operation instead (see speed.py).
    """
    rng = random.Random(args.seed)
    if runner is not None:
        cal, nominal, monitor = {"calibrate": runner.bare}, speed.NOMINAL_CHILD_S, None
    else:
        cal, nominal, monitor = {}, speed.NOMINAL_S, speed.Monitor()
    try:
        if not args.trace:
            run = measure(build, rng, seconds=args.seconds, **cal)
            samples = monitor.stop() if monitor else None
            result = run.summary(samples, nominal)
            result["peak_rss_mb"] = peak_rss_mb(children=runner is not None)
            return result
        return traced_phases(args, build, runner, rng, cal, nominal, monitor)
    finally:
        if monitor:
            monitor.stop()


def traced_phases(args, build, runner, rng, cal, nominal, monitor):
    from tracing import Tracer

    # Untraced phase first, then one traced block of the same composition.
    untraced_run = measure(build, rng, seconds=args.seconds / 2, **cal)
    tracer = Tracer()
    tracer.install()
    in_process = None
    command_times = []
    if runner is not None:
        from natprod import cli

        def in_process(argv):
            tracer.active = True
            start = time.perf_counter()
            try:
                cli.run_command(list(argv))
            except Exception:  # counted through the span's failed flag
                pass
            finally:
                command_times.append(time.perf_counter() - start)
                tracer.active = False

    try:
        traced_run = measure(build, rng, blocks=1, tracer=tracer, in_process=in_process, **cal)
    finally:
        tracer.uninstall()
    samples = monitor.stop() if monitor else None
    untraced = untraced_run.summary(samples, nominal)
    traced = traced_run.summary(samples, nominal)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
    untraced_rate = untraced["attempted"] / untraced["busy_s"]
    traced_rate = traced["attempted"] / traced["busy_s"]
    metrics["trace.untraced_ops_per_s"] = {"value": untraced_rate, "unit": "ops/s"}
    metrics["trace.traced_ops_per_s"] = {"value": traced_rate, "unit": "ops/s"}
    metrics["trace.overhead"] = {"value": untraced_rate / traced_rate, "unit": "x"}
    cli_metrics = (0.0, 0.0, 0.0)
    if runner is not None:
        cli_metrics = (
            traced["raw_busy_s"] / traced["attempted"],
            sum(command_times) / len(command_times),
            import_seconds(runner),
        )
    # Raw wall-clock seconds, comparable with each other.
    for name, value in zip(("cli.process_s", "cli.run_command_s", "cli.import_s"), cli_metrics):
        metrics[name] = {"value": value, "unit": "s"}
    if runner is not None:
        # A CLI operation fails in the child, where no span reaches.
        metrics["cli.failed.calls"]["value"] = traced["failed"]
    return {
        "untraced": untraced,
        "traced": traced,
        "per_layer": metrics,
        "spans": tracer.aggregate(),
        "peak_rss_mb": peak_rss_mb(children=runner is not None),
    }


if __name__ == "__main__":
    main()

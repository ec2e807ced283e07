"""Machine-speed calibration for a shared, noisy host.

On a shared two-core host the same pure-Python computation takes up to
twice as long in some stretches of time as in others, for seconds at a
time, in wall time and in CPU time alike, on both cores at once.  The
benchmark therefore records a speed trace beside its timings and scales
every timed interval to a reference speed: an interval becomes
``raw * nominal / mean(speed samples around it)``, in seconds on a machine
where one sample takes ``nominal``.  A change to natprod moves the scaled
times; a change in the host's speed mostly cancels.

* In-process workloads run beside a `Monitor`: a separate process that
  times a fixed pure-Python burst (never touching natprod) every
  PERIOD_S on the other core.
* Child processes slow down differently (start-up is exec, loading and
  unmarshalling), so the cli workload samples a bare child interpreter
  (`ChildRunner.bare` in workloads.py) after every operation instead.
* Set-up time is bracketed by two bursts in the parent.

Run as a script, this module is the monitor: it samples until a line
arrives on stdin, then prints the samples as JSON.
"""

from __future__ import annotations

import bisect
import json
import select
import subprocess
import sys
import time
from fractions import Fraction

# One burst, and one bare child interpreter, on the machine the bounds were
# tuned on (Python 3.11, 2 cores) in its faster stretches; only ratios matter.
NOMINAL_S = 300e-6
NOMINAL_CHILD_S = 40e-3
REPEATS = 3
PERIOD_S = 0.02
STOP_TIMEOUT_S = 30

_FRACTIONS = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(96)]
_INTS = list(range(1, 320))


def _work():
    acc = Fraction(0)
    for x in _FRACTIONS:
        acc += x * x
    table = {}
    s = 0
    for i in _INTS:
        s += (i * i) % 97
        table[i] = (i, s)
    return acc, tuple(sorted(table.values()))


def burst():
    """Seconds for one unit of fixed work: the fastest of REPEATS tries."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def sample(measure=burst):
    """(time at the middle of the measurement, its value)."""
    start = time.perf_counter()
    value = measure()
    return (start + time.perf_counter()) / 2, value


def scale(before, after, nominal=NOMINAL_S):
    """Factor that turns a raw interval between two samples into nominal seconds."""
    return nominal / ((before + after) / 2)


def scaled(intervals, samples, nominal):
    """Scale each (start, end) by the samples inside it and the nearest on each side."""
    samples = sorted(samples)
    times = [t for t, _ in samples]
    out = []
    for start, end in intervals:
        lo = max(bisect.bisect_left(times, start) - 1, 0)
        hi = min(bisect.bisect_right(times, end) + 1, len(samples))
        around = [v for _, v in samples[lo:hi]]
        out.append((end - start) * nominal * len(around) / sum(around))
    return out


class Monitor:
    """The speed trace of the host, sampled by a separate process."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        self._samples = None

    def stop(self):
        """Stop the sampler (once) and return its samples."""
        if self._samples is None:
            try:
                out, _ = self._proc.communicate("stop\n", timeout=STOP_TIMEOUT_S)
                self._samples = [tuple(s) for s in json.loads(out)]
            finally:
                if self._proc.poll() is None:
                    self._proc.kill()
                    self._proc.wait()
        return self._samples


def _sample_until_stopped():
    samples = []
    while True:
        samples.append(sample())
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    _sample_until_stopped()

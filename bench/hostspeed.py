"""How fast the host runs the benchmark right now, sampled through a run.

On a shared host the speed a process gets changes by up to two times, in
phases that last from a second to minutes, while the process stays on the
CPU the whole time: neighbours contend for the core, its caches and memory.
A pass timed in one phase cannot be compared with a pass timed in another.

So the runner samples the host's speed while it measures.  A `Sampler`
fires a real-time interval timer every `INTERVAL_S` seconds; its handler
times one run of a fixed piece of pure-Python work, the probe, in the
middle of whatever the job is doing.  The runner takes the probe time out
of the job's time and scales each job by the reference probe time over the
mean probe time near that job (run.py), which gives the job's time at the
reference speed.

The probe does the kinds of work zflab does -- small-integer loops,
Fraction arithmetic on growing integers, dict and set traffic, row
elimination over lists -- and none of it calls zflab, so a change to the
program cannot change the probe.  Its work is fixed; only its time varies.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# The probe's time in the host's fast phase on a 2-core Xeon KVM guest
# (Python 3.11).  It only sets the scale of the reported times: runs of two
# commits are compared by ratio.
REFERENCE_S = 0.001

INTERVAL_S = 0.1


def _work():
    acc = 0
    for i in range(8_000):
        acc = (acc * 31 + i) % 1_000_003
    x = Fraction(0)
    for i in range(1, 45):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
    seen = set()
    table = {}
    for i in range(1_600):
        key = (i * 7919) % 613
        if key in seen:
            table[key] = table.get(key, 0) + i
        else:
            seen.add(key)
    p = 10_007
    n = 14
    rows = [[(r * 17 + c * 31 + r * c) % p for c in range(n)] for r in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], p - 2, p)
        for r in range(col + 1, n):
            f = rows[r][col] * inv % p
            if f:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[col])]
    return acc, x.denominator.bit_length(), len(table), rows[-1][-1]


def probe():
    """(start, end) perf_counter times of one run of the fixed work."""
    t0 = time.perf_counter()
    _work()
    return t0, time.perf_counter()


class Sampler:
    """Runs the probe every INTERVAL_S seconds of wall time, in the main
    thread, between two bytecodes of whatever runs there; `samples` holds
    the (start, end) of each."""

    def __init__(self):
        self.samples = []
        self.probe_s = 0.0  # time spent in probes so far
        self._old = None

    def clock(self):
        """perf_counter time that stands still while a probe runs."""
        return time.perf_counter() - self.probe_s

    def _fire(self, signum, frame):
        start, end = probe()
        self.samples.append((start, end))
        self.probe_s += end - start

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

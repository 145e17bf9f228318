"""How fast the host runs right now, from a fixed probe sampled by a timer.

On a shared host the same benchmark pass ran up to 1.8x slower from one
minute to the next, with no steal time: other tenants slow the CPU itself.
The probe is a fixed piece of pure-Python work that does not touch the
program.  While ``sampling`` is active, a timer signal runs it every
INTERVAL_S seconds in the main thread, between the program's own bytecodes,
so the samples see the host as the program saw it; timing a probe between
commands tracked the program far worse.  The handler runs the probe twice
and times the second run: with its code and data back in cache, the probe's
time depends on the host and little on what the program left in the cache.

A measured time t with median probe time p over the same interval is
reported as t * REFERENCE_S / p: the time it would have taken on a host
where the probe takes REFERENCE_S.

Only the standard library is imported here, so that a fresh interpreter
can start sampling before it imports numpy.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

INTERVAL_S = 0.02
# About the median probe time on an uncontended 2-vCPU Intel Xeon VM at 2.0 GHz.
REFERENCE_S = 60e-6


def probe() -> float:
    acc = 0.0
    slots = {}
    for i in range(300):
        x = i * 0.01
        acc += (x * x + 1.0) ** 0.5 / (1.0 + x)
        slots[i & 31] = acc
    return acc


@contextlib.contextmanager
def sampling():
    """Yield the list that probe times are appended to while active."""
    samples: list = []

    def on_timer(signum, frame):
        probe()
        t0 = time.perf_counter()
        probe()
        samples.append(time.perf_counter() - t0)

    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)


def scale(samples) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return REFERENCE_S / statistics.median(samples)

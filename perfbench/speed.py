"""Host-speed probe: scales a measured time to a fixed reference speed.

The benchmark runs on a few cores of a shared host.  There the speed of
the same Python code changes by up to 1.8x from one minute to the next:
it flips between a fast and a slow mode as other tenants load the host,
and a fixed pure-Python loop slows down with the program.  A raw time
taken in one minute cannot be compared with one taken in another.

While an interval is timed, an interval timer interrupts the process
every PERIOD_S seconds of wall time, and the signal handler times one
fixed piece of work (the probe) in the measuring process itself.  So
the probes sample the host's speed at evenly spaced moments of the very
interval being timed.  The time spent in probes is taken out of the
interval.  The scaled time is

    raw seconds x mean over probes of (NOMINAL_PROBE_S / probe seconds),

the seconds the same work takes on a host where one probe takes
NOMINAL_PROBE_S, about the fast mode of a 2-core Xeon VM.  It depends on
the program's work, not on the host's mode at the time.

Code of different kinds slows down by different factors in the slow
mode, so each workload has the probe that does its kind of work (see
workloads.PROBE).  The "loop" probe is a pure-Python loop.  The "mixed"
probe is half that loop and half tiny numpy calls.  Over 120 to 150 s of
repeated units, the coefficient of variation of the unit times was:

    workload     raw    loop   mixed
    gl-check     0.147  0.068  0.04   (0.125 raw, 0.022 mixed in a 2nd run)
    sweep        0.064  0.036  0.038
    large-order  0.050  0.052  0.096

so gl-check takes the mixed probe and the other two the loop probe; the
tiny calls over-correct large-order, whose time goes to large numpy
kernels.

The program under test uses no signals; a signal that arrives inside a
long C call runs its handler when the call returns.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
NOMINAL_PROBE_S = 0.0003


def _loop(iterations: int) -> None:
    acc = 0
    for i in range(iterations):
        acc += i * i % 7


def _tiny_numpy_calls(rounds: int) -> None:
    v = np.arange(8)
    for _ in range(rounds):
        v = (v * 3 + 1) % 5


# each takes about NOMINAL_PROBE_S in the fast mode
PROBES = {
    "loop": lambda: _loop(4000),
    "mixed": lambda: (_loop(2000), _tiny_numpy_calls(60)),
}


class SpeedProbe:
    """Time an interval in raw and in scaled seconds.

        with SpeedProbe("loop") as probe:
            work()
        probe.raw_s, probe.scaled_s
    """

    def __init__(self, kind: str):
        self._work = PROBES[kind]
        self.samples: list[float] = []
        self.spent = 0.0
        self.raw_s = self.scaled_s = None

    def _probe(self) -> float:
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        took = self._probe()
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> SpeedProbe:
        self.samples.append(self._probe())  # one probe on each side of the interval
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()  # every tick falls after the start ...
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        elapsed = time.perf_counter() - self._start  # ... and before the end
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(self._probe())
        self.raw_s = elapsed - self.spent
        self.scaled_s = self.raw_s * statistics.fmean(NOMINAL_PROBE_S / s for s in self.samples)

"""The host's speed, sampled while a worker runs.

The benchmark runs on a few cores of a shared host whose speed drifts in
stretches of seconds to minutes: on a 2-core share of a Xeon host a fixed
loop took from 0.21 to 0.37 s within minutes, and one benchmark repetition
read 1.3 to 2.3 s.  Raw times of one commit then spread between runs by
more than any bound worth having, and a calibration run before and after a
repetition misses changes during it.

So a worker samples the speed while it works: every ``INTERVAL_S`` of wall
time a timer signal runs a fixed probe in the worker's own thread and
records how long it took.  The probe is what tsrk spends its time on:
numpy calls on a 3-vector (the stage loop and the small-system reference
solver) and a dense LU factorization (the Burgers starter).  Over 3 s
windows of a 150 s trace, such a probe left log-time residuals of 0.04
(Rober reference steps), 0.04 (500x500 LU) and 0.05 (stability scan),
against raw log-time spreads of 0.17, 0.11 and 0.11; a pure-Python loop
left 0.10, 0.08 and 0.08.  A phase's time is then reported as

    (wall time of the phase - time spent in probes) * mean(REFERENCE_S / probe)

the time the phase would have taken on a host that runs the probe in
``REFERENCE_S``: the speed is averaged over time, weighted as the work is.
The probe uses only numpy and scipy, loaded before the timer starts, and
nothing of tsrk, so no change to ``src/`` moves it.  It costs 2 to 3 % of
the wall time, which the formula removes again.  ``python3 speed.py``
prints five probe durations, to compare with ``REFERENCE_S``.
"""
from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.2
MIN_PROBES = 3
REFERENCE_S = 0.005
_SMALL_OPS = 1500
_LU_N = 400


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Sampler:
    """Probe timings (start, duration) taken every ``INTERVAL_S`` of wall time."""

    def __init__(self):
        start = now()
        import numpy as np
        import scipy.linalg

        self._lu_factor = scipy.linalg.lu_factor
        self._vector = np.ones(3)
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((_LU_N, _LU_N)) + _LU_N * np.eye(_LU_N)
        self.probe()  # the first probe of a process runs cold, about 1.5x slower
        self.samples = []
        # Time the sampler spent outside probes (its set-up): not busy, but
        # no measure of speed either.
        self.overhead = [(start, now() - start)]

    def probe(self) -> None:
        y = self._vector
        for _ in range(_SMALL_OPS):
            y = 0.5 * (y + 1.0)
        self._lu_factor(self._matrix)

    def sample(self, *_signal_args) -> None:
        start = now()
        self.probe()
        self.samples.append((start, now() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Disarm the timer; the process must not exit with it armed.

        The handler stays: a signal already raised must still find it.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)

    def phase(self, begin: float, end: float) -> dict:
        """Probe statistics over [begin, end]; the sampler's own time is not busy.

        ``slowdown`` is the time-weighted slowdown against the reference
        host; a phase's normalized time is ``busy_s / slowdown``.  A phase
        too short to hold a probe (the set-up of a cold workload, which is
        over before the timer first fires) gets ``MIN_PROBES`` now.
        """
        inside = [d for t, d in self.samples if begin <= t < end]
        idle = sum(inside) + sum(d for t, d in self.overhead if begin <= t < end)
        if not inside:
            for _ in range(MIN_PROBES):
                self.sample()
            inside = [d for _, d in self.samples[-MIN_PROBES:]]
        speed = statistics.fmean(REFERENCE_S / d for d in inside)
        return {"busy_s": end - begin - idle, "idle_s": idle, "slowdown": 1.0 / speed,
                "probes": len(inside)}


if __name__ == "__main__":
    sampler = Sampler()
    for _ in range(5):
        sampler.sample()
    print(" ".join(f"{d:.6f}" for _, d in sampler.samples))

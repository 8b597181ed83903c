"""Machine-speed calibration for the benchmark's time metrics.

The benchmark runs on small shared machines.  Their speed drifts by tens of
percent within seconds, and the drift is charged to the process as CPU
time too, so neither wall nor CPU time is steady from run to run.  Every
timed repetition is therefore bracketed by a short, fixed probe -- a frozen
random-walk Metropolis loop over a 100 x 6 design, the same kind of work
the package does -- and each time is reported on a nominal machine, on
which one probe takes NOMINAL_S:

    reported = measured * NOMINAL_S / mean(probe before, probe after)

The probe does not use gibbsinf, so no change to the package can move it.
The raw times are printed in the run's report line.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

NOMINAL_S = 0.02

_rng = np.random.default_rng(20240801)
_X = _rng.standard_normal((100, 6))
_Y = _rng.random(100) < 0.5
_Z = 0.3 * _rng.standard_normal((1200, 6))
_U = _rng.random(1200)


def _probe() -> None:
    theta, logp = np.zeros(6), -math.inf
    for z, u in zip(_Z, _U):
        prop = theta + z
        risk = float(np.mean((_X @ prop > 0.0) != _Y))
        lp = -100.0 * risk - float(np.dot(prop, prop)) / 72.0
        if lp >= logp or u < math.exp(lp - logp):
            theta, logp = prop, lp


def probe_seconds(cpus=None) -> float:
    """Duration of one probe; with `cpus`, the mean over one probe pinned to
    each of them (for work spread over several CPUs, whose speeds drift
    independently).  The process's CPU affinity is restored afterwards."""
    if not cpus:
        t0 = time.perf_counter()
        _probe()
        return time.perf_counter() - t0
    saved = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(probe_seconds())
    finally:
        os.sched_setaffinity(0, saved)
    return sum(times) / len(times)


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two probes to the nominal
    machine."""
    return NOMINAL_S / (0.5 * (before + after))

"""The host's speed, sampled while the benchmark works.

The benchmark runs on a shared host whose speed drifts: a fixed piece of
pure-Python work takes 1.15 - 1.9 ms from one second to the next, and rounds
of the same ``ladder`` sweep take 3 - 5.7 s.  It is slower execution, not
waiting (the worker's CPU time tracks its wall time, and the kernel reports
no steal time), and the slow stretches last from seconds to minutes, so a
longer run does not average it out.

``SpeedSampler`` runs fixed reference units from a ``SIGALRM`` timer in the
measured process itself, so they run on the same CPU, in the same seconds,
as the work they are set against.  The mean time of the units over a span of
work says how fast the host ran in that span; ``normalise`` rescales the
span's wall time to the host's nominal speed.  The slowdown does not hit all
code alike, so each workload is set against the units that resemble its own
hot path (``workloads.SPEED_UNITS``):

- ``python``: a Python loop and small NumPy operations, like the array-API
  wrappers around the scalar Bessel calls and the quadrature callbacks that
  ``kernels`` spends its time in;
- ``shooting``: three steps of SciPy's RK45 on a Python right-hand side,
  like the shooting integrations of ``ladder``.

Measured over 2 - 3 minutes of back-to-back rounds, the rescaled round time
varied 3 - 4 % (coefficient of variation) where the raw round time varied
11 - 16 %; ``kernels`` set against both units tracked worse across runs
(quartile spread 0.11 over five runs) than against ``python`` alone (0.02 -
0.04).

The units read no program state, so they cannot change what the program
computes.  They take about ``OVERHEAD`` of the time they sample, and their
own time is subtracted from the span.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.integrate import RK45

# Share of the time the units take: the timer interval is set from it.
OVERHEAD = 0.025


def python_unit() -> None:
    s = 0
    for i in range(2000):
        s += i * i % 7
    y = np.array([1.0, 0.5])
    for _ in range(30):
        y = np.array([y[1], -2.0 / 0.3 * y[1] - float(y[0]) ** 3]) * 0.1 + 0.5


def _lane_emden(r, y):
    return np.array([y[1], -2.0 / r * y[1] - y[0] ** 5])


def shooting_unit() -> None:
    rk = RK45(_lane_emden, 0.1, np.array([1.0, 0.0]), 2.0, rtol=1e-10, atol=1e-12,
              first_step=1e-3)
    for _ in range(3):
        rk.step()


# Each unit and its time when sampled at this host's typical speed (a
# 2.1 GHz Xeon vCPU); the nominal times only set the scale of the rescaled
# times.
UNITS = {"python": (python_unit, 2.4e-4), "shooting": (shooting_unit, 3.3e-4)}


class SpeedSampler:
    """Times the named units, one after the other, every ``interval`` s
    while started."""

    def __init__(self, names):
        self.units = [UNITS[n][0] for n in names]
        self.nominal = sum(UNITS[n][1] for n in names)
        self.interval = self.nominal / OVERHEAD
        self.count = 0
        self.total = 0.0
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            for unit in self.units:
                unit()
            self.total += time.perf_counter() - t0
            self.count += 1
        finally:
            self._busy = False

    def start(self) -> "SpeedSampler":
        for unit in self.units:  # the first call is cold; keep it out of the samples
            unit()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple:
        """A point to measure from: (samples so far, their total time)."""
        return self.count, self.total

    def since(self, mark: tuple) -> dict:
        """Samples taken since ``mark``: their number, the time they took,
        the mean time of one and its nominal time."""
        n, spent = self.count - mark[0], self.total - mark[1]
        return {"samples": n, "sampler_s": spent, "unit_s": spent / n if n else None,
                "nominal_s": self.nominal}


def normalise(wall_s: float, speed: dict) -> float:
    """``wall_s`` less the sampler's own time, at the nominal host speed."""
    if not speed["samples"]:
        raise ValueError("no host-speed samples in the span")
    return (wall_s - speed["sampler_s"]) * speed["nominal_s"] / speed["unit_s"]

"""Workload inputs of the benchmark.

Every config is written out in full, so a change of the program's
``RunConfig`` defaults does not change what a workload runs.  The ladders
are the same for every seed: a jitter of the rungs by 0.5 % changed the
shooting work of a ``ladder`` sweep by up to 16 % from seed to seed, far
more than any bound could hold.  The seed drives the coercivity probe's
samples (see ``worker.py``).
"""

from __future__ import annotations

WORKLOADS = ("ladder", "kernels")

# The canonical witness ladder: lam ~ 4e2 .. 3e3 at V = -1, R = 1.
LADDER = [0.04, 0.02, 0.01, 0.005]
# Off-ladder radii: every closed form of the kernels scales with R.
# bubbletest runs at a = -1, whose phi_a(0) = cot(R) vanishes at R = pi/2,
# so radii near 1.57 leave nothing to recover; its fixed lam range
# (1e2 .. 1e4) misses its own 1% gate at R = 0.5.
RADII = [1.0, 1.25, 2.0]
# Coercivity probe scale, as lam * R, so the probe scales with the ball.
PROBE_LAM_R = 1e3
PROBE_SAMPLES = 200
# The host-speed reference units each workload's times are rescaled by
# (``hostspeed.py``): those that resemble its hot path.
SPEED_UNITS = {"ladder": ("python", "shooting"), "kernels": ("python",)}


def run_config(R: float, eps_ladder: list) -> dict:
    """A complete ``RunConfig`` document: critical a, V = -1, radius R."""
    return {
        "R": R,
        "a": {"critical": True},
        "V": {"constant": -1.0},
        "eps_ladder": eps_ladder,
        "tolerances": {"quad": 1e-10, "ode": 1e-12, "shoot": 1e-7, "series": 1e-12},
        "lmax": 40,
        "probes": [0.3 * R, 0.5 * R, 0.7 * R, 0.9 * R],
    }


def configs(workload: str) -> dict:
    """Config documents of one workload by name: the ladder for ``ladder``,
    one per radius for ``kernels``."""
    if workload == "ladder":
        return {"ladder": run_config(1.0, LADDER)}
    if workload == "kernels":
        return {f"R{R:g}": run_config(R, LADDER) for R in RADII}
    raise ValueError(f"unknown workload {workload!r}")

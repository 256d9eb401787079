#!/usr/bin/env python3
"""Print rescaled solution profiles along the canonical epsilon ladder next to
the limiting bubble, as a quick convergence picture in plain text.

For each rung the solution is rescaled by its fitted height and concentration
scale; the table shows the rescaled values against (1 + t^2)^{-1/2} at a few
inner radii, and the far-field ratio u(r) / (lambda^{-1/2} G_a(0, r)) at a few
outer radii.
"""

import math
import sys

import numpy as np

from ballblowup.asympt import fit_bubble
from ballblowup.cli import RunConfig
from ballblowup.solver import solve_ladder


def run():
    cfg = RunConfig()
    sols = []
    for _, s in solve_ladder([cfg.problem(eps) for eps in cfg.eps_ladder]):
        if isinstance(s, Exception):
            raise s
        sols.append(s)
    lams = [fit_bubble(s)[1] for s in sols]
    cg = sols[0].laws.cg  # a's center Green's data, built once by the ladder
    ts = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
    print("inner region: sqrt(lam)^-1 u(t/lam) vs (1+t^2)^-1/2")
    print(f"{'eps':>8} " + " ".join(f"{t:>9.1f}" for t in ts))
    print(f"{'bubble':>8} " + " ".join(f"{(1+t*t)**-0.5:>9.5f}" for t in ts))
    for s, lam in zip(sols, lams):
        vals = s.u_at(ts / lam) / math.sqrt(lam)
        print(f"{s.config.eps:>8.3f} " + " ".join(f"{v:>9.5f}" for v in vals))
    print()
    rs = np.array(cfg.probes)
    print("outer region: u(r) / (lam^-1/2 G_a(0, r))")
    print(f"{'eps':>8} " + " ".join(f"{r:>9.2f}" for r in rs))
    for s, lam in zip(sols, lams):
        ratio = s.u_at(rs) / (np.asarray(cg.g(rs)) / math.sqrt(lam))
        print(f"{s.config.eps:>8.3f} " + " ".join(f"{v:>9.5f}" for v in ratio))
    return 0


if __name__ == "__main__":
    sys.exit(run())

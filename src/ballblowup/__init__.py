"""Numerical verification of blow-up asymptotics for the critical-exponent
problem -Delta u + (a + eps V) u = 3 u^5 on the three-dimensional ball.

The library is organized as:

- ``numkit``: Bessel, quadrature, ODE and extrapolation utilities.
- ``greenfn``: Green's function of -Delta + a, its regular part, the
  criticality threshold, and the speed functional Q_V.
- ``bubble``: the standard bubble family, its projection to the ball, and
  the bubble-against-regular-part integral calculus.
- ``solver``: radial shooting solver for the ground states of an eps ladder,
  solved in lockstep, or of one rung.
- ``asympt``: bubble fitting, zero-mode decomposition, and extrapolation of
  the blow-up laws over an eps ladder.
- ``cli``: command-line driver (``ballblowup`` entry point).
"""

from .asympt import (
    SweepRecord,
    TheoremReport,
    beta_gamma_limits,
    build_report,
    coercivity_probe,
    decompose,
    fit_bubble,
    records_from_sweep,
)
from .bubble import CenterProjectedBubble
from .greenfn import (
    CenterGreens,
    RadialCoefficient,
    critical_a,
    ga_center,
    na_scan,
    qv_center,
)
from .solver import (
    SOBOLEV_CONSTANT,
    ProblemConfig,
    RadialSolution,
    solve_ladder,
    solve_profile,
)

__version__ = "0.1.0"

__all__ = [
    "CenterGreens",
    "CenterProjectedBubble",
    "ProblemConfig",
    "RadialCoefficient",
    "RadialSolution",
    "SOBOLEV_CONSTANT",
    "SweepRecord",
    "TheoremReport",
    "beta_gamma_limits",
    "build_report",
    "coercivity_probe",
    "critical_a",
    "decompose",
    "fit_bubble",
    "ga_center",
    "na_scan",
    "qv_center",
    "records_from_sweep",
    "solve_ladder",
    "solve_profile",
]

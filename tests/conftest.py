"""Shared fixtures: the expensive eps-ladder sweeps are computed once per
session and reused by the per-module and acceptance tests."""

import math

import pytest
from scipy import integrate

from ballblowup.asympt import records_from_sweep
from ballblowup.greenfn import BallDomain, RadialCoefficient, ga_center
from ballblowup.solver import ProblemConfig, solve_ladder

CRITICAL_A = -math.pi**2 / 4.0
EPS_LADDER = [0.04, 0.02, 0.01, 0.005]


def quad_oracle(f, a, b):
    """Adaptive quadrature (scipy's ``quad``, tolerance 1e-12) of the scalar
    function f on (a, b), b possibly math.inf: the reference the package's
    one radial rule is checked against."""
    return integrate.quad(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)[0]


def const(c):
    return RadialCoefficient.constant_coeff(c)


def make_config(eps, V_const=-1.0, a_const=CRITICAL_A, R=1.0):
    return ProblemConfig(
        domain=BallDomain(R),
        a=const(a_const),
        V=const(V_const),
        eps=eps,
    )


def ladder(**kw):
    """Ground states over the standard eps ladder for ``make_config(eps,
    **kw)``; a failed rung raises its error."""
    sols = []
    for _, s in solve_ladder([make_config(eps, **kw) for eps in EPS_LADDER]):
        if isinstance(s, Exception):
            raise s
        sols.append(s)
    return sols


@pytest.fixture(scope="session")
def critical_cg():
    """Center Green's data of the critical a on the unit ball, which
    ``build_report`` takes for the canonical ladders."""
    return ga_center(const(CRITICAL_A), 1.0)


@pytest.fixture(scope="session")
def canonical_solutions():
    """Ground states for V = -1, critical a, over the standard eps ladder."""
    return ladder()


@pytest.fixture(scope="session")
def canonical_records(canonical_solutions):
    return records_from_sweep(canonical_solutions)


@pytest.fixture(scope="session")
def v2_records():
    """Records for V = -2, used to check linearity of the rate in Q_V."""
    return records_from_sweep(ladder(V_const=-2.0))

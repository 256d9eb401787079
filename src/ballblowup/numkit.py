"""Foundation numerics: bubble moments, spherical Bessel functions, adaptive
quadrature on radial domains, ODE integration with dense output, bracketed
root finding and linear/quadratic limit extrapolation.

Everything here is pure and reentrant; no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, optimize, special

__all__ = [
    "QuadratureResult",
    "OdeTrajectory",
    "RootResult",
    "DivergentMomentError",
    "NoSignChangeError",
    "bubble_moment",
    "sph_bessel",
    "quad_radial",
    "ode_solve",
    "brent_root",
    "richardson_fit",
    "geometric_panels",
    "radial_quadrature_rule",
]


class DivergentMomentError(ValueError):
    """Raised when a requested bubble moment does not converge."""


class NoSignChangeError(ValueError):
    """Raised when a root bracket does not enclose a sign change."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool = True

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class RootResult:
    root: float
    bracket: tuple[float, float]
    iterations: int


class OdeTrajectory:
    """Adaptive ODE solution with a dense evaluator over its span.

    Wraps the integrator output; ``nodes`` are the accepted step endpoints
    (strictly increasing) and ``states[i]`` is the state at ``nodes[i]``.
    """

    def __init__(self, sol) -> None:
        self._sol = sol
        self.nodes = sol.t
        self.states = sol.y.T

    @property
    def span(self) -> tuple[float, float]:
        return float(self.nodes[0]), float(self.nodes[-1])

    def __call__(self, t):
        return self._sol.sol(t)


def bubble_moment(p: int, q: float | Fraction) -> float:
    """Closed-form moment integral(0, inf) t^p (1+t^2)^(-q) dt.

    Equals (1/2) B((p+1)/2, q-(p+1)/2), evaluated via log-gamma for
    stability.  Requires q > (p+1)/2 for convergence.
    """
    if p < 0 or p != int(p):
        raise ValueError(f"p must be a nonnegative integer, got {p!r}")
    q = float(q)
    x = (p + 1) / 2.0
    y = q - x
    if y <= 0:
        raise DivergentMomentError(
            f"moment diverges: need q > (p+1)/2, got p={p}, q={q}"
        )
    return 0.5 * math.exp(
        math.lgamma(x) + math.lgamma(y) - math.lgamma(q)
    )


def sph_bessel(kind: str, ell, x):
    """Spherical Bessel function j_ell or y_ell at x.

    Backed by scipy's stable evaluations (downward recurrence for j below
    the turning point, upward for y).  ``ell`` and ``x`` may be arrays and
    broadcast against each other; one call over all orders costs about as
    much as one scalar call.  Scalar inputs give a float, and an overflowed
    scalar y_ell raises OverflowError.  Array inputs give an array in which
    an overflowed y_ell is left non-finite, so the caller truncates there.
    y_ell blows up as x -> 0 and needs x > 0.
    """
    scalar = np.ndim(ell) == 0 and np.ndim(x) == 0
    if kind == "j":
        val = special.spherical_jn(ell, x)
    elif kind == "y":
        if np.any(np.asarray(x) <= 0):
            raise ValueError("y_ell requires x > 0")
        val = special.spherical_yn(ell, x)
        if scalar and not math.isfinite(val):
            raise OverflowError(f"y_{ell}({x}) overflowed")
    else:
        raise ValueError(f"kind must be 'j' or 'y', got {kind!r}")
    return float(val) if scalar else val


def quad_radial(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_subdiv: int = 200,
) -> QuadratureResult:
    """Adaptive quadrature of f on (a, b); b may be math.inf.

    Improper upper endpoints are mapped to (0, 1) by t = s/(1-s), which
    keeps adaptivity effective for polynomially decaying bubble tails.
    Refines until error_estimate <= tol * max(1, |value|).
    """
    evals = [0]

    def counted(t: float) -> float:
        evals[0] += 1
        return f(t)

    if math.isinf(b):
        def mapped(s: float) -> float:
            t = a + s / (1.0 - s)
            return counted(t) / (1.0 - s) ** 2

        val, err = integrate.quad(
            mapped, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=max_subdiv
        )
    else:
        val, err = integrate.quad(
            counted, a, b, epsabs=tol, epsrel=tol, limit=max_subdiv
        )
    converged = err <= tol * max(1.0, abs(val)) * 10
    return QuadratureResult(val, err, evals[0], converged)


def ode_solve(
    rhs: Callable,
    y0: Sequence[float],
    span: tuple[float, float],
    tol: float = 1e-12,
    events=None,
    max_step: float = np.inf,
) -> OdeTrajectory:
    """Adaptive high-order Runge-Kutta integration with dense output.

    Local error per step is controlled at ``tol`` (relative and absolute).
    The caller is responsible for starting away from any left-endpoint
    singularity of ``rhs``.
    """
    sol = integrate.solve_ivp(
        rhs,
        span,
        np.asarray(y0, dtype=float),
        method="DOP853",
        rtol=max(tol, 1e-13),
        atol=tol,
        dense_output=True,
        events=events,
        max_step=max_step,
    )
    if not sol.success and sol.status != 1:
        raise RuntimeError(f"integration failed: {sol.message}")
    traj = OdeTrajectory(sol)
    traj.events = sol.t_events
    traj.status = sol.status
    return traj


def brent_root(
    f: Callable[[float], float],
    bracket: tuple[float, float],
    tol: float = 1e-12,
) -> RootResult:
    """Brent's method on a sign-changing bracket."""
    a, b = bracket
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return RootResult(a, bracket, 0)
    if fb == 0.0:
        return RootResult(b, bracket, 0)
    if fa * fb > 0:
        raise NoSignChangeError(
            f"f({a})={fa:g} and f({b})={fb:g} have the same sign"
        )
    root, res = optimize.brentq(
        f, a, b, xtol=tol, rtol=4 * np.finfo(float).eps, full_output=True
    )
    return RootResult(float(root), bracket, res.iterations)


def richardson_fit(
    pairs: Sequence[tuple[float, float]],
    quadratic: bool = False,
) -> tuple[float, float, float]:
    """Least-squares fit y = L + c*eps (+ d*eps^2) and return (L, c, rms).

    Used to extract eps -> 0 limits from ladder data.  Requires at least
    one more point than the number of fitted coefficients.
    """
    pairs = list(pairs)
    ncoef = 3 if quadratic else 2
    if len(pairs) < ncoef:
        raise ValueError(f"need >= {ncoef} pairs, got {len(pairs)}")
    eps = np.array([p[0] for p in pairs], dtype=float)
    y = np.array([p[1] for p in pairs], dtype=float)
    if len(np.unique(eps)) < ncoef:
        raise ValueError("abscissae are not distinct enough for the model")
    cols = [np.ones_like(eps), eps]
    if quadratic:
        cols.append(eps**2)
    A = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return float(coef[0]), float(coef[1]), rms


def geometric_panels(r_min: float, r_max: float, n_panels: int) -> np.ndarray:
    """Panel edges [0, r_min, ..., r_max] with geometric interior spacing."""
    edges = np.geomspace(r_min, r_max, n_panels)
    return np.concatenate(([0.0], edges))


def radial_quadrature_rule(
    r_min: float,
    r_max: float,
    n_panels: int = 200,
    n_gauss: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on a geometrically graded grid.

    Resolves integrands with features down to scale ``r_min`` while covering
    [0, r_max]; returns (nodes, weights) for plain 1d integration in r.
    """
    xg, wg = np.polynomial.legendre.leggauss(n_gauss)
    edges = geometric_panels(r_min, r_max, n_panels)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights

"""Foundation numerics: bubble moments, spherical Bessel functions, the
package's one radial quadrature rule, ODE integration with dense output,
bracketed root finding and linear/quadratic limit extrapolation.

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
    "OdeTrajectory",
    "RootResult",
    "DivergentMomentError",
    "NoSignChangeError",
    "bubble_moment",
    "sph_bessel",
    "ode_solve",
    "brent_root",
    "richardson_fit",
    "radial_quadrature_rule",
]


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(12)


class DivergentMomentError(ValueError):
    """Raised when a requested bubble moment does not converge."""


class NoSignChangeError(ValueError):
    """Raised when a root bracket does not enclose a sign change."""


@dataclass(frozen=True)
class RootResult:
    root: float
    bracket: tuple[float, float]
    iterations: int


class OdeTrajectory:
    """DOP853 solution of ``solve_ivp(..., dense_output=True)``, or its
    ``rows`` of the state, with one vectorised dense evaluator.

    ``nodes`` are the accepted step endpoints (strictly increasing) and
    ``states[i]`` is the state at ``nodes[i]``, so ``states[:-1]`` are the
    steps' start states y_old.  The steps' interpolant coefficients are
    stacked by power as ``F`` (7, steps, states).  A call gives each point
    the step scipy's ``OdeSolution`` gives it and the same seven alternating
    updates in the same order, gathering one coefficient row per point and
    update, so the values are scipy's bit for bit: (states,) at a scalar t,
    (states,) + t.shape otherwise.
    """

    def __init__(self, sol, rows=slice(None)) -> None:
        self.nodes, self.states = sol.t, np.ascontiguousarray(sol.y[rows].T)
        self.y_old = self.states[:-1]
        F = np.array([p.F[:, rows] for p in sol.sol.interpolants])
        self.F = np.ascontiguousarray(F.transpose(1, 0, 2))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        # on the interior nodes: scipy's searchsorted(ts, t, "left") - 1, clipped
        seg = np.searchsorted(self.nodes[1:-1], t, side="left")
        t_old = self.nodes[seg]
        x = ((t - t_old) / (self.nodes[seg + 1] - t_old))[..., None]
        x1 = 1 - x
        y = np.zeros(t.shape + self.y_old.shape[1:])
        for i, f in enumerate(self.F[::-1]):
            y += f.take(seg, axis=0)
            y *= x1 if i % 2 else x
        y += self.y_old.take(seg, axis=0)
        return np.moveaxis(y, -1, 0) if t.ndim else y


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


def ode_solve(
    rhs: Callable,
    y0: Sequence[float],
    span: tuple[float, float],
    tol: float = 1e-12,
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
    )
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    return OdeTrajectory(sol)


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


def radial_quadrature_rule(lam: float, R: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integral_0^R f(r) dr, for radial integrands
    with features down to the bubble scale 1/lam.

    Composite 12-point Gauss-Legendre on 260 panels: [0, r_min] and 259
    geometric panels from r_min = min(1e-8, 0.02/lam) to R.  Every radial
    integral of the package is taken on this rule, so for lam <= 2e6 a
    rung's fit, decomposition and Green representation share its nodes.
    """
    edges = np.concatenate(([0.0], np.geomspace(min(1e-8, 0.02 / lam), R, 260)))
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * _GAUSS_X[None, :]).ravel()
    weights = (half[:, None] * _GAUSS_W[None, :]).ravel()
    return nodes, weights

"""Foundation numerics: spherical Bessel functions, the package's one radial
quadrature rule, a DOP853 stepper whose dense output ``densify`` adds, and
linear/quadratic limit extrapolation.

Everything here is pure and reentrant; no shared mutable state.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy import special
from scipy.integrate._ivp import dop853_coefficients as _dop

__all__ = [
    "OdeTrajectory",
    "sph_bessel",
    "ode_solve",
    "densify",
    "richardson_fit",
    "radial_quadrature_rule",
]


def _unit_rule():
    """``radial_quadrature_rule``'s nodes and weights at R = 1."""
    edges = np.concatenate(([0.0], np.geomspace(1e-8, 1.0, 260)))
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    x, w = np.polynomial.legendre.leggauss(12)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


_UNIT_NODES, _UNIT_WEIGHTS = _unit_rule()

# scipy's DOP853 tableau as (index, row of A cut to the stages before it, node)
# for each stage after the first and each of the three interpolant stages
_STAGES = [(s, _dop.A[s, :s], float(_dop.C[s])) for s in range(1, 12)]
_EXTRA = [(s, _dop.A[s, :s], float(_dop.C[s])) for s in range(13, 16)]
_B, _E3, _E5, _D = _dop.B, _dop.E3, _dop.E5, _dop.D
_EPS = np.finfo(float).eps


class OdeTrajectory:
    """A DOP853 solution from ``ode_solve``, or its ``rows`` of the state.

    ``nodes`` are the accepted step endpoints (strictly increasing) and
    ``states[i]`` is the state at ``nodes[i]``, so ``states[:-1]`` are the
    steps' start states y_old.  The steps' interpolant coefficients are
    stacked by power as ``F`` (7, steps, states), or None for a trajectory
    without dense output, which keeps each step's 13 stages as ``K`` (steps,
    13, states) for ``densify``.  A call gives each point the step scipy's
    ``OdeSolution`` gives it and the same seven alternating updates in the
    same order, gathering one coefficient row per point and update, so the
    values are scipy's bit for bit: (states,) at a scalar t, (states,) +
    t.shape otherwise.  ``derivative`` gives dy/dt of the same interpolant.
    """

    def __init__(self, nodes, states, F, K=None) -> None:
        self.nodes, self.states, self.F, self.K = nodes, states, F, K
        self.y_old = states[:-1]

    def rows(self, rows) -> OdeTrajectory:
        """The same trajectory for ``rows`` of the state only."""
        return OdeTrajectory(self.nodes, np.ascontiguousarray(self.states[:, rows]),
                             np.ascontiguousarray(self.F[:, :, rows]))

    def _locate(self, t):
        """t as an array, each point's step, and its step length and x in [0, 1]."""
        t = np.asarray(t, dtype=float)
        # on the interior nodes: scipy's searchsorted(ts, t, "left") - 1, clipped
        seg = np.searchsorted(self.nodes[1:-1], t, side="left")
        t_old = self.nodes[seg]
        h = (self.nodes[seg + 1] - t_old)[..., None]
        return t, seg, h, (t - t_old)[..., None] / h

    def __call__(self, t):
        t, seg, _, x = self._locate(t)
        x1 = 1 - x
        y = np.zeros(t.shape + self.y_old.shape[1:])
        for i, f in enumerate(self.F[::-1]):
            y += f.take(seg, axis=0)
            y *= x1 if i % 2 else x
        y += self.y_old.take(seg, axis=0)
        return np.moveaxis(y, -1, 0) if t.ndim else y

    def derivative(self, t):
        """dy/dt, shaped as a call's value: forward mode through the call's
        updates, dy/dx carried beside y, over the step length."""
        t, seg, h, x = self._locate(t)
        y, dy = np.zeros((2,) + t.shape + self.y_old.shape[1:])
        for i, f in enumerate(self.F[::-1]):
            y += f.take(seg, axis=0)
            s, sign = (1 - x, -1.0) if i % 2 else (x, 1.0)
            dy = dy * s + sign * y
            y *= s
        return np.moveaxis(dy / h, -1, 0) if t.ndim else dy / h


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
    tol,
    atol=None,
) -> OdeTrajectory:
    """Integrate y' = rhs(t, y) from span[0] to span[1] > span[0] by DOP853,
    taking scipy's first step, step control and error norm operation for
    operation, so nodes, states and interpolants are those of scipy's DOP853
    bit for bit.  rtol is ``tol`` (floored at 100 eps, as scipy does), atol
    ``atol`` (default ``tol``), either per state.  The trajectory is lean: it
    keeps each step's stages, and ``densify`` gives the dense output of all
    or some states from them (three more ``rhs`` calls a step).  The caller starts away from any left-endpoint singularity of
    ``rhs``, which gets t as a float and the state as a float64 array,
    returns a sequence of len(y) floats and is called exactly as often as
    scipy's ``nfev``.
    """
    t, t1 = map(float, span)
    y = np.asarray(y0, dtype=float)
    rtol = np.maximum(tol, 100 * _EPS)
    atol = np.asarray(tol if atol is None else atol, dtype=float)
    n = y.size

    def rms(x):  # np.linalg.norm's sqrt(x.dot(x)), over sqrt(n)
        return math.sqrt(x.dot(x)) / n**0.5

    # the first step (Hairer, Norsett and Wanner, II.4), for an order-7 error
    f = np.asarray(rhs(t, y), dtype=float)
    scale = atol + np.abs(y) * rtol
    d0, d1 = rms(y / scale), rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t)
    d2 = rms((np.asarray(rhs(t + h0, y + h0 * f), dtype=float) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * h0, h1, t1 - t)
    K = np.empty((13, n))  # the stages
    # the stage table: index, the stages before it as K[:s].T, row of A, node
    stages = [(s, K[:s].T, a, c) for s, a, c in _STAGES]
    K12, K13 = K[:12].T, K.T
    nodes, states, kept = [t], [y], []
    while t < t1:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:  # shrink the step until its error estimate passes
            if h_abs < min_step:
                raise RuntimeError(f"integration failed: step below {min_step:.3g} at t={t:g}")
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, prior, a, c in stages:
                K[s] = rhs(t + c * h, y + prior.dot(a) * h)
            y_new = y + h * K12.dot(_B)
            K[12] = rhs(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            x5, x3 = K13.dot(_E5) / scale, K13.dot(_E3) / scale
            e5, e3 = math.sqrt(x5.dot(x5)) ** 2, math.sqrt(x3.dot(x3)) ** 2
            err = abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * n) if e5 or e3 else 0.0
            if err < 1:
                factor = min(10, 0.9 * err**-0.125) if err else 10
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err**-0.125)
            rejected = True
        kept.append(K.copy())
        nodes.append(t_new)
        states.append(y_new)
        t, y, f = t_new, y_new, K[12].copy()
    return OdeTrajectory(np.array(nodes), np.array(states), None, np.array(kept))


def densify(traj: OdeTrajectory, rhs: Callable, cols=slice(None)) -> OdeTrajectory:
    """The lean ``traj``'s states ``cols`` with dense output: each step's
    three interpolant stages and its seven coefficients, operation for
    operation as scipy's DOP853 takes them, so bit for bit scipy's.  ``rhs``
    takes and gives the states ``cols`` alone, so they must evolve on their
    own, as a stacked rung does.  The steps go together: each stage sum and
    coefficient product is the same gemv or gemm per step as scipy's, and a
    state's entry of it reads only that state's column."""
    t, h = traj.nodes[:-1], np.diff(traj.nodes)
    y, dy = traj.y_old, traj.states[1:] - traj.y_old
    K = np.zeros((len(h), 16, y.shape[1]))
    K[:, :13] = traj.K
    for s, a, c in _EXTRA:
        x = (y + np.matmul(K[:, :s].transpose(0, 2, 1), a) * h[:, None])[:, cols]
        K[:, s, cols] = [rhs(ts + c * hs, xs) for ts, hs, xs in zip(t, h, x)]
    F = [dy, h[:, None] * K[:, 0] - dy, 2 * dy - h[:, None] * (K[:, 12] + K[:, 0]),
         *np.moveaxis(h[:, None, None] * np.matmul(_D, K), 1, 0)]
    return OdeTrajectory(traj.nodes, np.ascontiguousarray(traj.states[:, cols]),
                         np.ascontiguousarray(np.stack(F)[:, :, cols]))


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


def radial_quadrature_rule(R: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights and ball measure 4 pi r^2 w of the package's one
    radial rule on [0, R]: the unit rule scaled by R.

    Composite 12-point Gauss-Legendre on [0, 1e-8 R] and on 259 geometric
    panels from 1e-8 R to R.  It resolves a center bubble of any lam with
    lam R <= 1e7: there int_B U^q, q = 2, 3, 6, match their closed forms to
    1e-14.  Every radial integral of the package is taken on it.
    """
    nodes, weights = R * _UNIT_NODES, R * _UNIT_WEIGHTS
    return nodes, weights, 4.0 * math.pi * weights * nodes**2

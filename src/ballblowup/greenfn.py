"""Green's functions on the ball with coefficient a, their regular parts,
the diagonal function phi_a, criticality detection and the Q_V functional.

Conventions: the Green's function satisfies (-Delta + a) G_a(.,y) = 4 pi
delta_y with Dirichlet boundary values, so G_0(x,y) = 1/|x-y| - image term
and H_a(x,y) = 1/|x-y| - G_a(x,y).  The diagonal phi_a off the center is
supported for constant a < 0 through a spherical Bessel series; nonconstant
radial a is supported for center quantities only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numkit import brent_root, ode_solve, radial_quadrature_rule, sph_bessel

__all__ = [
    "BallDomain",
    "RadialCoefficient",
    "CenterGreens",
    "HelmholtzSeries",
    "CriticalityReport",
    "CoercivityError",
    "ResonanceError",
    "phi0_ball",
    "ga_center",
    "critical_a",
    "phia_profile",
    "phia_hessian",
    "qv_center",
    "na_scan",
]


class CoercivityError(ValueError):
    """Coefficient violates the coercivity guard a > -pi^2/R^2."""


class ResonanceError(ValueError):
    """The operator -Delta + a is resonant (boundary solve degenerate)."""


@dataclass(frozen=True)
class BallDomain:
    """Ball of radius R centered at the origin."""

    R: float = 1.0

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class RadialCoefficient:
    """Constant or cubic-interpolated radial coefficient on [0, R].

    ``values`` given without ``abscissae`` means a constant coefficient.
    """

    values: float | Sequence[float]
    abscissae: Sequence[float] | None = None

    def __post_init__(self):
        if self.abscissae is not None:
            absc = np.asarray(self.abscissae, dtype=float)
            vals = np.asarray(self.values, dtype=float)
            if absc.ndim != 1 or absc.shape != vals.shape:
                raise ValueError("abscissae/values shape mismatch")
            if np.any(np.diff(absc) <= 0):
                raise ValueError("abscissae must be strictly increasing")
            # imported here: only tables need it, and it is slow to import
            from scipy.interpolate import CubicSpline

            object.__setattr__(self, "_spline", CubicSpline(absc, vals))

    @property
    def is_constant(self) -> bool:
        return self.abscissae is None

    @property
    def constant(self) -> float:
        if not self.is_constant:
            raise ValueError("coefficient is not constant")
        return float(self.values)

    def at(self, r: float) -> float:
        """The coefficient at one radius, unchecked (see ``check_span``)."""
        return float(self.values) if self.abscissae is None else float(self._spline(r))

    def center_polynomial(self) -> tuple[list[float], float]:
        """Taylor coefficients f^(k)(0)/k!, k = 0..3, and the radius up to
        which their cubic is the coefficient: a table's first knot interval."""
        if self.is_constant:
            return [float(self.values), 0.0, 0.0, 0.0], math.inf
        return ([float(self._spline(0.0, k)) / math.factorial(k) for k in range(4)],
                float(self.abscissae[1] - self.abscissae[0]))

    def check_span(self, R: float) -> None:
        """Raise ValueError unless the coefficient covers [0, R]."""
        lo, hi = (0.0, R) if self.is_constant else (self.abscissae[0], self.abscissae[-1])
        if lo > 1e-12 or hi < R - 1e-12:
            raise ValueError(f"table spans [{lo:g}, {hi:g}], not [0, R] = [0, {R:g}]")

    def __call__(self, r):
        if self.is_constant:
            return np.full(np.shape(r), float(self.values)) if np.ndim(r) else float(self.values)
        absc = np.asarray(self.abscissae, dtype=float)
        if np.any(np.asarray(r) < absc[0] - 1e-12) or np.any(np.asarray(r) > absc[-1] + 1e-12):
            raise ValueError("evaluation outside tabulated range")
        return self._spline(r)

    @staticmethod
    def constant_coeff(c: float) -> "RadialCoefficient":
        return RadialCoefficient(values=float(c))


def check_coercivity(m: Callable, R: float) -> None:
    """Guard against non-coercive -Delta + m on the ball: refuse unless the
    least value of m on 257 equispaced radii of [0, R] lies above minus the
    first Dirichlet eigenvalue, -pi^2/R^2.  Exact for a constant; for a table
    it reads the spline between the knots, where it can dip below them."""
    m_min = float(np.min(m(np.linspace(0.0, R, 257))))
    lam1 = math.pi**2 / R**2
    if m_min <= -lam1:
        raise CoercivityError(f"coefficient min {m_min:g} <= -pi^2/R^2 = {-lam1:g}")


# phi_a(0) R at or below this counts as zero, i.e. a as critical.  ga_center
# integrates at tol 1e-12; at R = 0.5, 1, 1.25 and 2 it reads at most 3.8e-13
# at the closed form a* = -pi^2/(4R^2) and 3.2e-13 at critical_a(R), so the
# bound sits three orders above that noise; since d phi_a(0)/da = R/2 at a*,
# it admits only constants within ~2e-9 / R^2 of a*.
_CRITICAL_PHI = 1e-9


@dataclass(frozen=True)
class CenterGreens:
    """Center-source Green's data: G_a(0, y) = v(|y|)/|y| with v(0)=1,
    v(R)=0 and -v'' + a v = 0.  phi_a(0) = -v'(0).  With z1 the other
    homogeneous solution, regular with data (0, 1) at the center (so
    z1 v' - z1' v = -1), ``homogeneous_pair`` gives (z1, v)."""

    R: float
    phi_a_at_0: float
    a_at_0: float
    _state: Callable = field(repr=False)  # r -> (z1, v, v') from one trajectory evaluation

    @property
    def is_critical(self) -> bool:
        """phi_a(0) = 0 up to integration noise: |phi_a(0)| R <= 1e-9."""
        return abs(self.phi_a_at_0) * self.R <= _CRITICAL_PHI

    def v(self, r):
        return self._state(r)[1]

    def homogeneous_pair(self, r):
        """(z1, v) at r from one evaluation of the stored trajectory."""
        return self._state(r)[:2]

    def g(self, r):
        """G_a(0, r)."""
        r = np.asarray(r, dtype=float)
        return self.v(r) / r

    def h(self, r):
        """H_a(0, r) = (1 - v(r))/r.  Below r = 1e-5, where that quotient
        cancels, its Taylor series phi - (a/2) r + (a phi/6) r^2 takes over
        (phi = phi_a(0), a = a(0))."""
        phi, a0 = self.phi_a_at_0, self.a_at_0
        return _taylor_bridged(
            r, lambda s: phi - 0.5 * a0 * s + (a0 * phi / 6.0) * s**2,
            lambda s: (1.0 - self.v(s)) / s,
        )

    def dh(self, r):
        """The radial derivative of H_a(0, r): -v'/r - (1 - v)/r^2, and the
        derivative of ``h``'s Taylor series below r = 1e-5."""
        phi, a0 = self.phi_a_at_0, self.a_at_0

        def exact(s):
            _, v, vp = self._state(s)
            return -vp / s - (1.0 - v) / s**2

        return _taylor_bridged(r, lambda s: -0.5 * a0 + (a0 * phi / 3.0) * s, exact)


def _taylor_bridged(r, series, exact):
    """``series`` at the radii below 1e-5 and ``exact`` at the others; a
    float at a scalar r."""
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    small = r < 1e-5
    out[small] = series(r[small])
    out[~small] = exact(r[~small])
    return float(out[0]) if scalar else out


def phi0_ball(x, R: float = 1.0) -> float:
    """Diagonal of the regular part for a = 0: R/(R^2 - |x|^2)."""
    nx = float(np.linalg.norm(np.asarray(x, dtype=float)))
    if nx >= R:
        raise ValueError("point must be interior")
    return R / (R**2 - nx**2)


def _solve_v(a: RadialCoefficient, R: float):
    """Integrate -v'' + a(r) v = 0 for the (1,0) and (0,1) initial data."""
    def rhs(r, y):
        v1, v1p, v2, v2p = y
        ar = a.at(r)
        return [v1p, ar * v1, v2p, ar * v2]

    return ode_solve(rhs, [1.0, 0.0, 0.0, 1.0], (0.0, R), tol=1e-12)


def ga_center(a: RadialCoefficient, R: float = 1.0) -> CenterGreens:
    """Center Green's profile v and phi_a(0) for radial coefficient a.

    v = v_p + c v_h with the combination chosen so v(R) = 0; for constant
    a = -k^2 this reproduces v = cos(kr) + c sin(kr)/k and
    phi_a(0) = k cot(kR).
    """
    a.check_span(R)
    check_coercivity(a, R)
    traj = _solve_v(a, R)
    vp_R, _, vh_R, _ = traj(R)
    if abs(vh_R) < 1e-13 * R:
        raise ResonanceError("homogeneous solution vanishes at R")
    c = -vp_R / vh_R

    def state(r):
        s = traj(np.asarray(r, dtype=float))
        return s[2], s[0] + c * s[2], s[1] + c * s[3]

    return CenterGreens(R=R, phi_a_at_0=float(-c), a_at_0=a.at(0.0), _state=state)


def critical_a(R: float = 1.0) -> float:
    """Constant coefficient at which phi_a(0) vanishes; analytically
    -pi^2/(4R^2), located here by Newton on v1(R; a), the endpoint of the
    (1, 0) center solution of v'' = a v: phi_a(0) = v1(R)/v2(R) vanishes
    where v1(R) does.  The slope dv1(R)/da is w(R) of the variational
    equation w'' = a w + v1, w(0) = w'(0) = 0, two more states of the same
    lean integration (tol 1e-12, no dense output).  Newton starts at the
    midpoint of the bracket (-0.9 pi^2/R^2, -1e-6/R^2), on which v1(R)
    rises with a; the sign of v1(R) narrows the bracket, a step that leaves
    it is replaced by its midpoint, and a step of at most 1e-12 |a| ends the
    solve: six integrations at R = 0.5, 1, 1.25 and 2.
    """
    lo, hi = -0.9 * math.pi**2 / R**2, -1e-6 / R**2
    a = 0.5 * (lo + hi)

    def rhs(r, y):
        v, vp, w, wp = y
        return [vp, a * v, wp, a * w + v]

    for _ in range(100):
        v, _, w, _ = ode_solve(rhs, [1.0, 0.0, 0.0, 0.0], (0.0, R), tol=1e-12,
                               dense=False).states[-1]
        lo, hi = (lo, a) if v > 0 else (a, hi)
        step = -v / w
        if abs(step) <= 1e-12 * abs(a):
            return a + step
        a = a + step if lo < a + step < hi else 0.5 * (lo + hi)
    raise RuntimeError(f"critical_a: Newton did not converge at R = {R:g}")


# Bessel orders the phi_a series is evaluated at: past order 188, where
# y_l(kR) overflows as kR -> pi, the largest kR coercivity allows.
_SERIES_ORDERS = np.arange(200)
# Finite-difference step and relative tolerance of phia_hessian's cross-check.
HESSIAN_STEP = 1e-3
HESSIAN_CROSS_TOL = 1e-6
# na_scan: grid points on [0, 0.9 R], and the |phi_a| that counts as a zero.
SCAN_POINTS = 46
ZERO_TOL = 1e-9


@dataclass(frozen=True)
class HelmholtzSeries:
    """Spherical Bessel series for the diagonal of H_a, constant a = -k^2 < 0.

    H_a(x,y) = -k sum (2l+1) (y_l(kR)/j_l(kR)) j_l(k|x|) j_l(k|y|) P_l(cos t)
    with t the angle between x and y, which is 0 on the diagonal.  Stores
    j_l(kR) and y_l(kR), each kind from one Bessel call, for every order
    before the first non-finite y_l(kR) or subnormal j_l(kR): 161 terms at
    kR = pi/2, 185 as kR -> pi.  Every radius sums all of them.
    """

    k: float
    j_R: np.ndarray = field(repr=False)
    y_R: np.ndarray = field(repr=False)

    @staticmethod
    def build(a_const: float, R: float) -> "HelmholtzSeries":
        if a_const >= 0:
            raise ValueError("series form requires constant a < 0")
        k = math.sqrt(-a_const)
        x = k * R
        js = sph_bessel("j", _SERIES_ORDERS, x)
        ys = sph_bessel("y", _SERIES_ORDERS, x)
        # past here y overflows and j has lost its digits; the dropped tail
        # is below the (rho/R)^(2 ell) envelope at this order
        bad = ~np.isfinite(ys) | (np.abs(js) < np.finfo(float).tiny)
        n = int(np.argmax(bad)) if bad.any() else len(js)
        # j_ell has no zeros below x ~ ell; a tiny value there is just the
        # small-argument decay x^ell/(2 ell + 1)!!, not a resonance.
        resonant = np.flatnonzero((np.abs(js[:n]) < 1e-13) & (x > _SERIES_ORDERS[:n]))
        if resonant.size:
            raise ResonanceError(f"j_{resonant[0]}(kR) vanishes at kR={x:g}")
        return HelmholtzSeries(k=k, j_R=js[:n], y_R=ys[:n])

    def h_diag(self, rho):
        """phi_a(rho) = H_a at coincident points |x| = |y| = rho, angle 0.

        ``rho`` is one radius or an array of them.  Each term is evaluated
        as (2l+1) y_l(kR) j_l(kR) (j_l(k rho)/j_l(kR))^2 so that the
        decaying j ratios never meet the growing y values.
        """
        k, j_R = self.k, self.j_R
        rhos = np.ravel(np.asarray(rho, dtype=float))
        ells = np.arange(len(j_R))
        jr = sph_bessel("j", ells, k * rhos[:, None])
        terms = (2 * ells + 1) * self.y_R * j_R * (jr / j_R) ** 2
        out = -k * np.sum(terms, axis=1)
        return float(out[0]) if np.ndim(rho) == 0 else out.reshape(np.shape(rho))


def phia_profile(rho, a_const: float, R: float = 1.0):
    """phi_a at radius rho for constant a < 0 via the Bessel series.

    ``rho`` is one radius (giving a float) or an array of radii (giving an
    array); every radius sums the whole series, so an array call equals the
    per-radius calls exactly.
    """
    if np.any(np.asarray(rho) >= R):
        raise ValueError("rho must be interior")
    return HelmholtzSeries.build(a_const, R).h_diag(rho)


def phia_hessian(a_const: float, R: float = 1.0) -> float:
    """Second radial derivative of phi_a at the center.

    Computed two ways: Richardson finite differences on the profile, and
    the rho^2 coefficient of the series (l = 0 and l = 1 terms).  The two
    must agree to ``HESSIAN_CROSS_TOL``; by radial symmetry the Hessian
    matrix is this value times the identity.
    """
    # Finite-difference route (Richardson on central differences of the
    # even profile, phi(-h) = phi(h)), from one series.
    step = HESSIAN_STEP
    series = HelmholtzSeries.build(a_const, R)
    p0, p_h, p_h2 = series.h_diag(np.array([0.0, step, step / 2]))
    d_h = (p_h - 2 * p0 + p_h) / step**2
    d_h2 = (p_h2 - 2 * p0 + p_h2) / (step / 2) ** 2
    fd = (4 * d_h2 - d_h) / 3

    # Series route: the rho^2 coefficient comes from l=0 and l=1 terms.
    k = series.k
    ratios = series.y_R[:2] / series.j_R[:2]
    # j_0(x)^2 = 1 - x^2/3 + ..., j_1(x)^2 = x^2/9 + ...
    c2 = -k * (ratios[0] * (-(k**2) / 3.0) + 3 * ratios[1] * (k**2 / 9.0))
    series_val = 2.0 * c2

    if abs(fd - series_val) > HESSIAN_CROSS_TOL * max(1.0, abs(series_val)):
        raise RuntimeError(
            f"hessian cross-check failed: fd={fd:.8g} series={series_val:.8g}"
        )
    return series_val


def qv_center(
    V: RadialCoefficient,
    a: RadialCoefficient,
    R: float = 1.0,
    cg: CenterGreens | None = None,
) -> float:
    """Q_V(0) = int V(y) G_a(0,y)^2 dy = 4 pi int_0^R V(r) v(r)^2 dr, with v
    from the center Green's data ``cg`` (built for a when not given)."""
    cg = cg or ga_center(a, R)
    nodes, wts = radial_quadrature_rule(1.0, R)  # v varies on the scale R: no bubble
    return 4.0 * math.pi * float(wts @ (V(nodes) * cg.v(nodes) ** 2))


@dataclass(frozen=True)
class CriticalityReport:
    zeros: list
    hessian: float | None
    critical: bool
    negative_on_zeros: bool
    nondegenerate: bool
    phi_at_0: float


def na_scan(a_const: float, R: float = 1.0) -> CriticalityReport:
    """Scan the radial profile of phi_a for zeros and report the
    criticality / negativity / nondegeneracy flags.

    One Bessel series gives the whole grid in one evaluation and every step
    of the Brent refinement of a sign change.
    """
    grid = np.linspace(0.0, 0.9 * R, SCAN_POINTS)
    series = HelmholtzSeries.build(a_const, R)
    vals = series.h_diag(grid)
    zeros: list[float] = []
    if abs(vals[0]) <= ZERO_TOL:
        zeros.append(0.0)
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0:
            rr = brent_root(series.h_diag, (float(grid[i]), float(grid[i + 1])), tol=1e-12)
            zeros.append(rr.root)

    hess = None
    nondeg = False
    if zeros and zeros[0] == 0.0:
        hess = phia_hessian(a_const, R)
        nondeg = abs(hess) > 1e-10

    return CriticalityReport(
        zeros=zeros,
        hessian=hess,
        critical=bool(zeros) and all(v >= -ZERO_TOL for v in vals),
        negative_on_zeros=bool(zeros) and a_const < 0,
        nondegenerate=nondeg,
        phi_at_0=float(vals[0]),
    )

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
from scipy import optimize

from .numkit import densify, ode_solve, radial_quadrature_rule, sph_bessel

__all__ = [
    "RadialCoefficient",
    "CenterGreens",
    "HelmholtzSeries",
    "CriticalityReport",
    "BlowupLaws",
    "CoercivityError",
    "ResonanceError",
    "ga_center",
    "critical_a",
    "qv_center",
    "blowup_laws",
    "na_scan",
]


class CoercivityError(ValueError):
    """Coefficient violates the coercivity guard a > -pi^2/R^2."""


class ResonanceError(ValueError):
    """The operator -Delta + a is resonant (boundary solve degenerate)."""


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

    def slope(self, r):
        """The radial derivative at the radii r, unchecked (0 for a constant)."""
        return np.zeros(np.shape(r)) if self.is_constant else self._spline(r, 1)

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


# |phi_a| R at or below this counts as zero (at the center: a is critical),
# and so does |Hessian| R^3 in na_scan.  At R = 0.5, 1, 1.25 and 2 ga_center
# reads at most 3.8e-13 at a* = -pi^2/(4R^2) and 3.2e-13 at critical_a(R),
# three orders below; since d phi_a(0)/da = R/2 at a*, it admits only
# constants within ~2e-9 / R^2 of a*.
_CRITICAL_PHI = 1e-9


@dataclass(frozen=True)
class CenterGreens:
    """Center-source Green's data: G_a(0, y) = v(|y|)/|y| with v(0)=1,
    v(R)=0 and -v'' + a v = 0.  phi_a(0) = -v'(0).  With z1 the other
    homogeneous solution, regular with data (0, 1) at the center (so
    z1 v' - z1' v = -1), ``homogeneous_pair`` gives (z1, v).  ``_state``
    gives (z1, v, v') on the nodes of the ball's radial rule as the
    read-only arrays ``ga_center`` evaluated once, and at other r from the
    trajectory."""

    R: float
    phi_a_at_0: float
    a_at_0: float
    _state: Callable = field(repr=False)  # r -> (z1, v, v')

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
        """H_a(0, r) = (1 - v(r))/r.  Below r = 1e-5 R, where that quotient
        cancels, its Taylor series phi - (a/2) r + (a phi/6) r^2 takes over
        (phi = phi_a(0), a = a(0))."""
        phi, a0 = self.phi_a_at_0, self.a_at_0
        return self._taylor_bridged(
            r, lambda s: phi - 0.5 * a0 * s + (a0 * phi / 6.0) * s**2,
            lambda s, v, vp: (1.0 - v) / s,
        )

    def dh(self, r):
        """The radial derivative of H_a(0, r): -v'/r - (1 - v)/r^2, and the
        derivative of ``h``'s Taylor series below r = 1e-5 R."""
        phi, a0 = self.phi_a_at_0, self.a_at_0
        return self._taylor_bridged(r, lambda s: -0.5 * a0 + (a0 * phi / 3.0) * s,
                                    lambda s, v, vp: -vp / s - (1.0 - v) / s**2)

    def _taylor_bridged(self, r, series, exact):
        """``series`` at the radii below 1e-5 R and ``exact`` of (r, v, v') at
        the others, the state read at all r; a float at a scalar r."""
        scalar = np.ndim(r) == 0
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.empty_like(r)
        small = r < 1e-5 * self.R
        out[small] = series(r[small])
        out[~small] = exact(r[~small], *(x[~small] for x in self._state(r)[1:]))
        return float(out[0]) if scalar else out


def _solve_v(a: RadialCoefficient, R: float):
    """Integrate -v'' + a(r) v = 0 for the (1,0) and (0,1) initial data,
    with dense output."""
    def rhs(r, y):
        v1, v1p, v2, v2p = y
        ar = a.at(r)
        return [v1p, ar * v1, v2p, ar * v2]

    return densify(ode_solve(rhs, [1.0, 0.0, 0.0, 1.0], (0.0, R), tol=1e-12), rhs)


def ga_center(a: RadialCoefficient, R: float) -> CenterGreens:
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

    def evaluate(r):
        s = traj(r)
        return s[2], s[0] + c * s[2], s[1] + c * s[3]

    nodes = radial_quadrature_rule(R)[0]
    on_rule = evaluate(nodes)
    for x in on_rule:  # shared by every reader: read-only
        x.flags.writeable = False

    def state(r):
        return on_rule if np.array_equal(r, nodes) else evaluate(r)

    return CenterGreens(R=R, phi_a_at_0=float(-c), a_at_0=a.at(0.0), _state=state)


def critical_a(R: float) -> float:
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
        v, _, w, _ = ode_solve(rhs, [1.0, 0.0, 0.0, 0.0], (0.0, R), tol=1e-12).states[-1]
        lo, hi = (lo, a) if v > 0 else (a, hi)
        step = -v / w
        if abs(step) <= 1e-12 * abs(a):
            return a + step
        a = a + step if lo < a + step < hi else 0.5 * (lo + hi)
    raise RuntimeError(f"critical_a: Newton did not converge at R = {R:g}")


# Bessel orders the phi_a series is evaluated at: past order 188, where
# y_l(kR) overflows as kR -> pi, the largest kR coercivity allows.
_SERIES_ORDERS = np.arange(200)
# Finite-difference step, in units of R, and relative tolerance of the
# Hessian's cross-check.
HESSIAN_STEP = 1e-3
HESSIAN_CROSS_TOL = 1e-6
# na_scan: grid points on [0, 0.9 R].
SCAN_POINTS = 46


@dataclass(frozen=True)
class HelmholtzSeries:
    """Spherical Bessel series for the diagonal of H_a, constant a = -k^2 < 0
    on the ball of radius R: the one object for phi_a off the center.

    H_a(x,y) = -k sum (2l+1) (y_l(kR)/j_l(kR)) j_l(k|x|) j_l(k|y|) P_l(cos t)
    with t the angle between x and y, which is 0 on the diagonal.  Stores
    j_l(kR) and y_l(kR), each kind from one Bessel call, for every order
    before the first non-finite y_l(kR) or subnormal j_l(kR): 161 terms at
    kR = pi/2, 185 as kR -> pi.  Every radius sums all of them.
    """

    k: float
    R: float
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
        return HelmholtzSeries(k=k, R=R, j_R=js[:n], y_R=ys[:n])

    def h_diag(self, rho):
        """phi_a(rho) = H_a at coincident points |x| = |y| = rho, angle 0.

        ``rho`` is one interior radius (giving a float) or an array of them
        (giving an array); every radius sums the whole series, so an array
        call equals the per-radius calls exactly.  Each term is evaluated
        as (2l+1) y_l(kR) j_l(kR) (j_l(k rho)/j_l(kR))^2 so that the
        decaying j ratios never meet the growing y values.
        """
        if np.any(np.asarray(rho) >= self.R):
            raise ValueError("rho must be interior")
        k, j_R = self.k, self.j_R
        rhos = np.ravel(np.asarray(rho, dtype=float))
        ells = np.arange(len(j_R))
        jr = sph_bessel("j", ells, k * rhos[:, None])
        terms = (2 * ells + 1) * self.y_R * j_R * (jr / j_R) ** 2
        out = -k * np.sum(terms, axis=1)
        return float(out[0]) if np.ndim(rho) == 0 else out.reshape(np.shape(rho))

    @property
    def hessian(self) -> float:
        """Second radial derivative of phi_a at the center.

        Computed two ways: Richardson finite differences on the profile, and
        the rho^2 coefficient of the series (l = 0 and l = 1 terms).  The two
        must agree to ``HESSIAN_CROSS_TOL`` max(|Hessian|, R^-3); by radial
        symmetry the Hessian matrix is this value times the identity.
        """
        # Finite-difference route (Richardson on central differences of the
        # even profile, phi(-h) = phi(h)), its step a fixed share of R, so
        # the check is the same on every ball
        step = HESSIAN_STEP * self.R
        p0, p_h, p_h2 = self.h_diag(np.array([0.0, step, step / 2]))
        d_h = (p_h - 2 * p0 + p_h) / step**2
        d_h2 = (p_h2 - 2 * p0 + p_h2) / (step / 2) ** 2
        fd = (4 * d_h2 - d_h) / 3

        # Series route: the rho^2 coefficient comes from l=0 and l=1 terms.
        k = self.k
        ratios = self.y_R[:2] / self.j_R[:2]
        # j_0(x)^2 = 1 - x^2/3 + ..., j_1(x)^2 = x^2/9 + ...
        c2 = -k * (ratios[0] * (-(k**2) / 3.0) + 3 * ratios[1] * (k**2 / 9.0))
        series_val = 2.0 * c2

        if abs(fd - series_val) > HESSIAN_CROSS_TOL * max(self.R**-3, abs(series_val)):
            raise RuntimeError(
                f"hessian cross-check failed: fd={fd:.8g} series={series_val:.8g}"
            )
        return series_val


def qv_center(V: RadialCoefficient, cg: CenterGreens) -> float:
    """Q_V(0) = int V(y) G_a(0,y)^2 dy = 4 pi int_0^R V(r) v(r)^2 dr, with v
    from a's center Green's data ``cg``."""
    nodes, wts, _ = radial_quadrature_rule(cg.R)
    return 4.0 * math.pi * float(wts @ (V(nodes) * cg.v(nodes) ** 2))


@dataclass(frozen=True)
class BlowupLaws:
    """The paper's blow-up laws for a and V on the ball, from a's center
    Green's data ``cg`` and ``qv0`` = Q_V(0): the one regime decision
    (``outside``) and the target of every law."""

    cg: CenterGreens
    qv0: float

    @property
    def outside(self) -> str | None:
        """Why the laws do not hold, or None: they need a critical a
        (``CenterGreens.is_critical``), a(0) < 0 and Q_V(0) < 0."""
        cg, qv0 = self.cg, self.qv0
        if not cg.is_critical:
            return (f"the blow-up laws need a critical a, phi_a(0) = 0, "
                    f"not phi_a(0) = {cg.phi_a_at_0:.6g}")
        if cg.a_at_0 >= 0 or qv0 >= 0:
            return (f"the blow-up laws need a(0) < 0 and Q_V(0) < 0, "
                    f"not a(0) = {cg.a_at_0:.6g}, Q_V(0) = {qv0:.6g}")
        return None

    @property
    def rate(self) -> float:
        """The limit of eps lam, 4 pi^2 |a(0)| / |Q_V(0)|."""
        return 4.0 * math.pi**2 * abs(self.cg.a_at_0) / abs(self.qv0)

    @property
    def alpha_slope(self) -> float:
        """The eps-slope of alpha - 1, (4/3 pi^3) phi_0(0) |Q_V(0)| / |a(0)|."""
        phi0 = 1.0 / self.cg.R  # the a = 0 diagonal R/(R^2 - |x|^2) at x = 0
        return 4.0 / (3.0 * math.pi**3) * phi0 * abs(self.qv0) / abs(self.cg.a_at_0)

    @property
    def beta(self) -> float:
        """The limit of beta, (16/3 pi)(phi_a(0) - phi_0(0)) at phi_a(0) = 0."""
        return -16.0 * (1.0 / self.cg.R) / (3.0 * math.pi)

    @property
    def gamma(self) -> float:
        """The limit of gamma, -(8/5) beta."""
        return -(8.0 / 5.0) * self.beta


def blowup_laws(a: RadialCoefficient, V: RadialCoefficient, R: float) -> BlowupLaws:
    """The blow-up laws of a and V on the ball of radius R: a's center
    Green's data from one ``ga_center``, and Q_V(0) from it."""
    cg = ga_center(a, R)
    return BlowupLaws(cg, qv_center(V, cg))


@dataclass(frozen=True)
class CriticalityReport:
    zeros: list
    hessian: float | None
    critical: bool
    negative_on_zeros: bool
    nondegenerate: bool
    phi_at_0: float


def na_scan(series: HelmholtzSeries) -> CriticalityReport:
    """Scan the radial profile of phi_a, from its Bessel ``series``, for
    zeros and report the criticality / negativity / nondegeneracy flags.

    The series gives the whole grid on [0, 0.9 R] in one evaluation, every
    step of the Brent refinement of a sign change (scipy's ``brentq`` to
    xtol 1e-12) and the Hessian at a zero at the center.  A grid value with
    |phi_a| R <= ``_CRITICAL_PHI`` is a zero, and a sign change next to it
    is not a second one.
    """
    R = series.R
    grid = np.linspace(0.0, 0.9 * R, SCAN_POINTS)
    vals = series.h_diag(grid)
    at_zero = np.abs(vals) * R <= _CRITICAL_PHI
    zeros: list[float] = grid[at_zero].tolist()
    for i in np.flatnonzero((vals[:-1] * vals[1:] < 0) & ~at_zero[:-1] & ~at_zero[1:]):
        zeros.append(optimize.brentq(series.h_diag, float(grid[i]), float(grid[i + 1]),
                                     xtol=1e-12, rtol=4 * np.finfo(float).eps))
    zeros.sort()
    hess = series.hessian if zeros and zeros[0] == 0.0 else None
    return CriticalityReport(
        zeros=zeros,
        hessian=hess,
        critical=bool(zeros) and bool(np.all(vals * R >= -_CRITICAL_PHI)),
        negative_on_zeros=bool(zeros),  # a = -k^2 < 0 everywhere
        nondegenerate=hess is not None and abs(hess) * R**3 > _CRITICAL_PHI,
        phi_at_0=float(vals[0]),
    )

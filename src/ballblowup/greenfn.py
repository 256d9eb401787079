"""Green's functions on the ball with coefficient a, their regular parts,
the diagonal function phi_a, criticality detection and the Q_V functional.

Conventions: the Green's function satisfies (-Delta + a) G_a(.,y) = 4 pi
delta_y with Dirichlet boundary values, so G_0(x,y) = 1/|x-y| - image term
and H_a(x,y) = 1/|x-y| - G_a(x,y).  Off-center evaluation is supported for
constant a < 0 through a spherical Bessel series; nonconstant radial a is
supported for center quantities only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numkit import brent_root, ode_solve, quad_radial, sph_bessel

__all__ = [
    "BallDomain",
    "RadialCoefficient",
    "CenterGreens",
    "HelmholtzSeries",
    "CriticalityReport",
    "CoercivityError",
    "ResonanceError",
    "g0_ball",
    "phi0_ball",
    "ga_center",
    "critical_a",
    "phia_profile",
    "phia_hessian",
    "qv_center",
    "na_scan",
    "ha_center",
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

    def boundary_distance(self, x) -> float:
        return self.R - float(np.linalg.norm(x))


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

    def __call__(self, r):
        if self.is_constant:
            return np.full_like(np.asarray(r, dtype=float), float(self.values)) \
                if np.ndim(r) else float(self.values)
        absc = np.asarray(self.abscissae, dtype=float)
        if np.any(np.asarray(r) < absc[0] - 1e-12) or np.any(np.asarray(r) > absc[-1] + 1e-12):
            raise ValueError("evaluation outside tabulated range")
        return self._spline(r)

    @staticmethod
    def constant_coeff(c: float) -> "RadialCoefficient":
        return RadialCoefficient(values=float(c))


def check_coercivity(a: RadialCoefficient, R: float) -> None:
    """Guard against non-coercive -Delta + a on the ball.

    Exact for constants (first Dirichlet eigenvalue pi^2/R^2); for tables
    the guard is applied to the minimum value, which is conservative.
    """
    lam1 = math.pi**2 / R**2
    if a.is_constant:
        amin = a.constant
    else:
        amin = float(np.min(np.asarray(a.values, dtype=float)))
    if amin <= -lam1:
        raise CoercivityError(
            f"coefficient min {amin:g} <= -pi^2/R^2 = {-lam1:g}"
        )


@dataclass(frozen=True)
class CenterGreens:
    """Center-source Green's data: G_a(0, y) = v(|y|)/|y| with v(0)=1,
    v(R)=0 and -v'' + a v = 0.  phi_a(0) = -v'(0)."""

    R: float
    phi_a_at_0: float
    _v: Callable = field(repr=False)
    _vp: Callable = field(repr=False)

    def v(self, r):
        return self._v(r)

    def vprime(self, r):
        return self._vp(r)

    def g(self, r):
        """G_a(0, r)."""
        r = np.asarray(r, dtype=float)
        return self._v(r) / r

    def h(self, r):
        """H_a(0, r) = (1 - v(r))/r, continuous up to r -> 0."""
        scalar = np.ndim(r) == 0
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.empty_like(r)
        small = r < 1e-8
        out[small] = self.phi_a_at_0
        out[~small] = (1.0 - self._v(r[~small])) / r[~small]
        return float(out[0]) if scalar else out


def g0_ball(x, y, R: float = 1.0) -> float:
    """Laplace Green's function of the ball (4 pi delta normalization)
    by the method of images."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = float(np.linalg.norm(x - y))
    if d == 0.0:
        raise ValueError("coincident points")
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        return 1.0 / float(np.linalg.norm(y)) - 1.0 / R
    ximg = (R**2 / nx**2) * x
    return 1.0 / d - (R / nx) / float(np.linalg.norm(y - ximg))


def phi0_ball(x, R: float = 1.0) -> float:
    """Diagonal of the regular part for a = 0: R/(R^2 - |x|^2)."""
    nx = float(np.linalg.norm(np.asarray(x, dtype=float)))
    if nx >= R:
        raise ValueError("point must be interior")
    return R / (R**2 - nx**2)


def _solve_v(a: RadialCoefficient, R: float, tol: float = 1e-12):
    """Integrate -v'' + a(r) v = 0 for the (1,0) and (0,1) initial data."""
    def rhs(r, y):
        v1, v1p, v2, v2p = y
        ar = a(r)
        return [v1p, ar * v1, v2p, ar * v2]

    return ode_solve(rhs, [1.0, 0.0, 0.0, 1.0], (0.0, R), tol=tol)


def ga_center(a: RadialCoefficient, R: float = 1.0, tol: float = 1e-12) -> CenterGreens:
    """Center Green's profile v and phi_a(0) for radial coefficient a.

    v = v_p + c v_h with the combination chosen so v(R) = 0; for constant
    a = -k^2 this reproduces v = cos(kr) + c sin(kr)/k and
    phi_a(0) = k cot(kR).
    """
    check_coercivity(a, R)
    traj = _solve_v(a, R, tol=tol)
    vp_R, _, vh_R, _ = traj(R)
    if abs(vh_R) < 1e-13 * R:
        raise ResonanceError("homogeneous solution vanishes at R")
    c = -vp_R / vh_R

    def v(r):
        s = traj(np.asarray(r, dtype=float))
        return s[0] + c * s[2]

    def vprime(r):
        s = traj(np.asarray(r, dtype=float))
        return s[1] + c * s[3]

    return CenterGreens(R=R, phi_a_at_0=float(-c), _v=v, _vp=vprime)


def critical_a(R: float = 1.0) -> float:
    """Constant coefficient at which phi_a(0) vanishes; analytically
    -pi^2/(4R^2), located here by root finding on the center profile."""
    lo, hi = -0.9 * math.pi**2 / R**2, -1e-6 / R**2

    def f(c):
        return ga_center(RadialCoefficient.constant_coeff(c), R).phi_a_at_0

    return brent_root(f, (lo, hi), tol=1e-13).root


@dataclass(frozen=True)
class HelmholtzSeries:
    """Spherical Bessel series for H_a with constant a = -k^2 < 0.

    H_a(x,y) = -k sum (2l+1) (y_l(kR)/j_l(kR)) j_l(k|x|) j_l(k|y|) P_l(cos t)
    with t the angle between x and y.  Stores the boundary ratios, all
    orders of which come from one Bessel call per kind.  A series built at
    a higher order has the lower one's terms as its prefix, so one series
    serves every radius and each sum is cut at its own order.
    """

    k: float
    R: float
    lmax: int
    ratios: np.ndarray
    _j_R: np.ndarray = field(repr=False, default=None)
    _y_R: np.ndarray = field(repr=False, default=None)

    @staticmethod
    def build(a_const: float, R: float, lmax: int) -> "HelmholtzSeries":
        if a_const >= 0:
            raise ValueError("series form requires constant a < 0")
        k = math.sqrt(-a_const)
        x = k * R
        ells = np.arange(lmax + 1)
        js = sph_bessel("j", ells, x)
        ys = sph_bessel("y", ells, x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratios = ys / js
        # y or y/j overflowing: truncate there; the dropped tail is below
        # the (rho/R)^(2 ell) envelope at this order
        bad = ~(np.isfinite(ys) & np.isfinite(ratios))
        n = int(np.argmax(bad)) if bad.any() else lmax + 1
        # j_ell has no zeros below x ~ ell; a tiny value there is just the
        # small-argument decay x^ell/(2 ell + 1)!!, not a resonance.
        resonant = np.flatnonzero((np.abs(js[: n + 1]) < 1e-13) & (x > ells[: n + 1]))
        if resonant.size:
            raise ResonanceError(f"j_{resonant[0]}(kR) vanishes at kR={x:g}")
        return HelmholtzSeries(
            k=k, R=R, lmax=n - 1, ratios=ratios[:n], _j_R=js[:n], _y_R=ys[:n]
        )

    def _term_scales(self):
        """(2l+1) y_l(kR) j_l(kR), the overflow-safe part of each term."""
        ells = np.arange(self.lmax + 1)
        return (2 * ells + 1) * self._y_R * self._j_R

    def h_diag(self, rho, lmax=None):
        """phi_a(rho) = H_a at coincident points |x| = |y| = rho, angle 0.

        ``rho`` is one radius or an array of them; ``lmax`` (one order, or
        one per radius, capped at the series' order) cuts each sum.  Each
        term is evaluated as (2l+1) y_l(kR) j_l(kR) (j_l(k rho)/j_l(kR))^2 so
        that the decaying j ratios never meet the growing y values.
        """
        k = self.k
        rhos = np.ravel(np.asarray(rho, dtype=float))
        orders = self.lmax if lmax is None else lmax
        counts = np.minimum(np.broadcast_to(orders, rhos.shape), self.lmax) + 1
        m = int(counts.max())
        jr = sph_bessel("j", np.arange(m), k * rhos[:, None])
        terms = self._term_scales()[:m] * (jr / self._j_R[:m]) ** 2
        # each sum runs over its own contiguous slice: the same summation
        # as a series built at that radius' order
        out = np.array([-k * np.sum(t[:n]) for t, n in zip(terms, counts)])
        return float(out[0]) if np.ndim(rho) == 0 else out.reshape(np.shape(rho))

    def h(self, x, y) -> float:
        """H_a(x, y) for interior points x, y."""
        from scipy.special import eval_legendre

        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        rx, ry = np.linalg.norm(x), np.linalg.norm(y)
        if rx == 0 or ry == 0:
            ct = 1.0
        else:
            ct = float(np.dot(x, y) / (rx * ry))
        k = self.k
        ells = np.arange(self.lmax + 1)
        jx = sph_bessel("j", ells, k * rx) / self._j_R
        jy = sph_bessel("j", ells, k * ry) / self._j_R
        return float(-k * np.sum(self._term_scales() * (jx * jy) * eval_legendre(ells, ct)))


def _lmax_for(rho: float, R: float, tol: float) -> int:
    """Truncation order from the geometric tail bound (rho/R)^(2 lmax) < tol."""
    if rho <= 0:
        return 2
    ratio = min(rho / R, 0.999)
    lmax = int(math.ceil(0.5 * math.log(tol) / math.log(ratio))) + 2
    return max(4, min(lmax, 200))


def _profile_series(rho, a_const: float, R: float, tol: float, lmax=None):
    """One series at the highest order any of ``rho`` needs, and each
    radius' own order (``lmax`` for all of them when given)."""
    if np.any(np.asarray(rho) >= R):
        raise ValueError("rho must be interior")
    if lmax is None:
        lmax = np.array([_lmax_for(float(r), R, tol) for r in np.ravel(rho)])
    return HelmholtzSeries.build(a_const, R, int(np.max(lmax))), lmax


def phia_profile(
    rho,
    a_const: float,
    R: float = 1.0,
    lmax: int | None = None,
    tol: float = 1e-12,
):
    """phi_a at radius rho for constant a < 0 via the Bessel series.

    ``rho`` is one radius (giving a float) or an array of radii (giving an
    array).  Each radius keeps its own truncation order; all are read from
    one series, so an array call equals the per-radius calls exactly.
    """
    series, orders = _profile_series(rho, a_const, R, tol, lmax)
    return series.h_diag(rho, orders)


def phia_hessian(
    a_const: float,
    R: float = 1.0,
    step: float = 1e-3,
    cross_tol: float = 1e-6,
) -> float:
    """Second radial derivative of phi_a at the center.

    Computed two ways: Richardson finite differences on the profile, and
    the rho^2 coefficient of the series (l = 0 and l = 1 terms).  The two
    must agree to ``cross_tol``; by radial symmetry the Hessian matrix is
    this value times the identity.
    """
    # Finite-difference route (Richardson on central differences of the
    # even profile, phi(-h) = phi(h)), from one series.
    rhos = np.array([0.0, step, step / 2])
    series, orders = _profile_series(rhos, a_const, R, 1e-14)
    p0, p_h, p_h2 = series.h_diag(rhos, orders)
    d_h = (p_h - 2 * p0 + p_h) / step**2
    d_h2 = (p_h2 - 2 * p0 + p_h2) / (step / 2) ** 2
    fd = (4 * d_h2 - d_h) / 3

    # Series route: the rho^2 coefficient comes from l=0 and l=1 terms.
    k = math.sqrt(-a_const)
    # j_0(x)^2 = 1 - x^2/3 + ..., j_1(x)^2 = x^2/9 + ...
    c2 = -k * (series.ratios[0] * (-(k**2) / 3.0) + 3 * series.ratios[1] * (k**2 / 9.0))
    series_val = 2.0 * c2

    if abs(fd - series_val) > cross_tol * max(1.0, abs(series_val)):
        raise RuntimeError(
            f"hessian cross-check failed: fd={fd:.8g} series={series_val:.8g}"
        )
    return series_val


def qv_center(
    V: RadialCoefficient,
    a: RadialCoefficient,
    R: float = 1.0,
    tol: float = 1e-11,
) -> float:
    """Q_V(0) = int V(y) G_a(0,y)^2 dy = 4 pi int_0^R V(r) v(r)^2 dr."""
    cg = ga_center(a, R)
    res = quad_radial(lambda r: V(r) * cg.v(r) ** 2, 0.0, R, tol=tol)
    return 4.0 * math.pi * res.value


@dataclass(frozen=True)
class CriticalityReport:
    a_star: float
    zeros: list
    a_on_zeros: list
    hessian: float | None
    critical: bool
    negative_on_zeros: bool
    nondegenerate: bool
    phi_at_0: float


def na_scan(
    a_const: float,
    R: float = 1.0,
    grid: Sequence[float] | None = None,
    tol: float = 1e-9,
) -> CriticalityReport:
    """Scan the radial profile of phi_a for zeros and report the
    criticality / negativity / nondegeneracy flags.

    One Bessel series, built at the order the outermost grid radius needs,
    gives the whole grid in one evaluation and every step of the Brent
    refinement of a sign change (each radius at its own order, as
    ``phia_profile`` would take it).
    """
    a_star = critical_a(R)
    if grid is None:
        grid = np.linspace(0.0, 0.9 * R, 46)
    grid = np.asarray(grid, dtype=float)

    series, orders = _profile_series(grid, a_const, R, 1e-12)
    vals = series.h_diag(grid, orders)
    zeros: list[float] = []
    if abs(vals[0]) <= tol:
        zeros.append(0.0)
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0:
            rr = brent_root(
                lambda rho: series.h_diag(rho, _lmax_for(rho, R, 1e-12)),
                (float(grid[i]), float(grid[i + 1])),
                tol=1e-12,
            )
            zeros.append(rr.root)

    a_on_zeros = [a_const for _ in zeros]
    hess = None
    nondeg = False
    if zeros and zeros[0] == 0.0:
        hess = phia_hessian(a_const, R)
        nondeg = abs(hess) > 1e-10

    critical = bool(zeros) and all(v >= -tol for v in vals)
    negative = all(av < 0 for av in a_on_zeros) if zeros else False
    return CriticalityReport(
        a_star=a_star,
        zeros=zeros,
        a_on_zeros=a_on_zeros,
        hessian=hess,
        critical=critical,
        negative_on_zeros=negative,
        nondegenerate=nondeg,
        phi_at_0=float(vals[0]),
    )


def ha_center(r: float, a: RadialCoefficient, R: float = 1.0) -> float:
    """H_a(0, r) = (1 - v(r))/r, with the r -> 0 limit phi_a(0)."""
    if not 0 <= r < R:
        raise ValueError("need 0 <= r < R")
    cg = ga_center(a, R)
    return float(cg.h(r))

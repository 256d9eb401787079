"""Bubble calculus on the three-dimensional ball.

The bubble U_{x,lam}(y) = lam^{1/2} (1 + lam^2 |y-x|^2)^{-1/2} solves the
whole-space equation -Delta U = 3 U^5.  This module provides its closed-form
derivatives, the boundary-corrected (projected) bubble for a center bubble,
the improved approximation field psi, the auxiliary tail function g, and a
machine-checkable suite for the L^q-norm rates and the bubble-against-H
integral identities used throughout the asymptotic analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .greenfn import CenterGreens, RadialCoefficient, ga_center, phi0_ball
from .numkit import bubble_moment, quad_radial, radial_quadrature_rule, richardson_fit

__all__ = [
    "Bubble",
    "CenterProjectedBubble",
    "u_val",
    "du_dlambda",
    "du_dx",
    "u_prime",
    "dlam_u_prime",
    "pu_center",
    "psi_center",
    "g_fun",
    "lemma_b1_check",
    "lemma_b3_suite",
    "grad_dlambda_pu_norm",
    "calculus_verdict",
]


@dataclass(frozen=True)
class Bubble:
    """Concentration profile with center x and scale lam > 0."""

    x: tuple[float, float, float] = (0.0, 0.0, 0.0)
    lam: float = 1.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")


def u_val(b: Bubble, y) -> float:
    d2 = float(np.sum((np.asarray(y, dtype=float) - np.asarray(b.x)) ** 2))
    return math.sqrt(b.lam) / math.sqrt(1.0 + b.lam**2 * d2)


def du_dlambda(b: Bubble, y) -> float:
    d2 = float(np.sum((np.asarray(y, dtype=float) - np.asarray(b.x)) ** 2))
    s = 1.0 + b.lam**2 * d2
    return 0.5 / math.sqrt(b.lam) / math.sqrt(s) - b.lam**1.5 * d2 / s**1.5


def du_dx(b: Bubble, y, i: int) -> float:
    dy = np.asarray(y, dtype=float) - np.asarray(b.x)
    s = 1.0 + b.lam**2 * float(np.sum(dy**2))
    return b.lam**2.5 * float(dy[i]) / s**1.5


def _u(lam, r):
    return np.sqrt(lam) / np.sqrt(1.0 + lam**2 * np.asarray(r, dtype=float) ** 2)


def u_prime(lam, r):
    """Radial derivative of the center bubble."""
    r = np.asarray(r, dtype=float)
    s = 1.0 + lam**2 * r**2
    return -(lam**2.5) * r / s**1.5


def _du_dlam(lam, r):
    r = np.asarray(r, dtype=float)
    s = 1.0 + lam**2 * r**2
    return 0.5 / np.sqrt(lam) / np.sqrt(s) - lam**1.5 * r**2 / s**1.5


def dlam_u_prime(lam, r):
    """Mixed derivative d/dr d/dlam of the center bubble."""
    r = np.asarray(r, dtype=float)
    s = 1.0 + lam**2 * r**2
    return -2.5 * lam**1.5 * r / s**1.5 + 3.0 * lam**3.5 * r**3 / s**2.5


@dataclass(frozen=True)
class CenterProjectedBubble:
    """Projected bubble PU for a bubble centered at the origin of the ball.

    The harmonic correction matching the bubble's boundary values is the
    constant U(R), so PU(r) = U(r) - lam^{1/2} (1 + lam^2 R^2)^{-1/2} and
    the gradient of PU coincides with that of U inside the ball.
    """

    lam: float
    R: float

    @property
    def correction(self) -> float:
        return math.sqrt(self.lam) / math.sqrt(1.0 + self.lam**2 * self.R**2)

    @property
    def dlam_correction(self) -> float:
        lam, R = self.lam, self.R
        s = 1.0 + lam**2 * R**2
        return 0.5 / math.sqrt(lam) / math.sqrt(s) - lam**1.5 * R**2 / s**1.5

    def u(self, r):
        return _u(self.lam, r)

    def pu(self, r):
        return _u(self.lam, r) - self.correction

    def pu_prime(self, r):
        return u_prime(self.lam, r)

    def dlam_pu(self, r):
        return _du_dlam(self.lam, r) - self.dlam_correction

    def dlam_pu_prime(self, r):
        return dlam_u_prime(self.lam, r)

    def f_residual(self) -> float:
        """correction - lam^{-1/2}/R; decays like lam^{-5/2}."""
        return self.correction - 1.0 / (math.sqrt(self.lam) * self.R)

    def grad_norm_sq(self, tol: float = 1e-12) -> float:
        """int_ball |grad PU|^2, approaching 3 pi^2 / 4 as lam grows."""
        res = quad_radial(
            lambda r: u_prime(self.lam, r) ** 2 * r**2, 0.0, self.R, tol=tol
        )
        return 4.0 * math.pi * res.value


def pu_center(lam: float, R: float = 1.0) -> CenterProjectedBubble:
    return CenterProjectedBubble(lam=lam, R=R)


def psi_center(lam: float, a: RadialCoefficient | CenterGreens, R: float = 1.0):
    """Improved approximation psi(r) = PU(r) - lam^{-1/2}(H_a(0,r) - H_0(0,r)).

    For the center, H_0(0,r) = 1/R is constant.  Returns a callable radial
    field vanishing at r = R.
    """
    cg = a if isinstance(a, CenterGreens) else ga_center(a, R)
    pb = pu_center(lam, R)

    def psi(r):
        return pb.pu(r) - (cg.h(r) - 1.0 / R) / math.sqrt(lam)

    return psi


def g_fun(b: Bubble, y) -> float:
    """g_{x,lam}(y) = lam^{-1/2}/|x-y| - U_{x,lam}(y); positive, with
    scaling g_{x,lam}(y) = lam^{1/2} g_{0,1}(lam (y - x))."""
    d = float(np.linalg.norm(np.asarray(y, dtype=float) - np.asarray(b.x)))
    if d == 0.0:
        raise ValueError("g is singular at the bubble center")
    return 1.0 / (math.sqrt(b.lam) * d) - u_val(b, y)


def lemma_b1_check(q: float, lams, R: float = 1.0) -> dict:
    """L^q norm of the center bubble over the ball against its stated rate.

    Rates: lam^{-1/2} for q < 3, lam^{-1/2} ln(lam) for q = 3, and
    lam^{1/2 - 3/q} for q > 3.  Returns the raw norms and the ratio to the
    rate across the lam ladder; the ratios must stay within fixed bounds.
    """
    if q < 1:
        raise ValueError("q >= 1 required")
    lams = np.asarray(lams, dtype=float)
    norms = []
    for lam in lams:
        res = quad_radial(lambda r: _u(lam, r) ** q * r**2, 0.0, R, tol=1e-12)
        norms.append((4.0 * math.pi * res.value) ** (1.0 / q))
    norms = np.array(norms)
    if q < 3:
        rate = lams**-0.5
    elif q == 3:
        rate = lams**-0.5 * np.log(lams)
    else:
        rate = lams ** (0.5 - 3.0 / q)
    ratios = norms / rate
    return {
        "q": q,
        "lams": lams,
        "norms": norms,
        "rate": rate,
        "ratios": ratios,
        "bounded": bool(np.max(ratios) < np.inf and np.min(ratios) > 0),
    }


def _b3_integrals(lam: float, h, R: float) -> dict:
    """The five bubble-against-H integrals at the center, by graded radial
    quadrature (polar quadrature for the odd translation-derivative case)."""
    nodes, wts = radial_quadrature_rule(min(1e-7, 0.01 / lam), R, n_panels=240, n_gauss=12)
    hv = h(nodes)
    u = _u(lam, nodes)
    du = _du_dlam(lam, nodes)
    r2 = nodes**2

    def rad(f):
        return 4.0 * math.pi * float(np.sum(wts * f * r2))

    out = {
        "U5_H": rad(u**5 * hv),
        "U4_dlamU_H": rad(u**4 * du * hv),
        "U4_H2": rad(u**4 * hv**2),
        "U3_dlamU_H2": rad(u**3 * du * hv**2),
    }

    # Translation-derivative identity: polar quadrature in (r, theta); the
    # integrand is odd in cos(theta) for a center bubble, so this must
    # come out as numerical zero.
    xth, wth = np.polynomial.legendre.leggauss(16)
    ct = xth  # cos(theta) on [-1, 1]
    s = 1.0 + lam**2 * r2
    dxu = lam**2.5 * (nodes[:, None] * ct[None, :]) / s[:, None] ** 1.5
    integrand = (u**4 * hv * r2)[:, None] * dxu
    out["U4_dxU_H"] = 2.0 * math.pi * float(
        np.sum(wts[:, None] * wth[None, :] * integrand)
    )
    return out


def lemma_b3_suite(
    a_const: float,
    R: float = 1.0,
    lams=None,
) -> dict:
    """Coefficient recovery for the five bubble-against-H integral identities.

    For constant coefficient b the predictions at the center are
        int U^5 H          =  (4 pi/3) phi lam^{-1/2} - (4 pi/3) b lam^{-3/2}
        int U^4 dlamU H    = -(2 pi/15) phi lam^{-3/2} + (2 pi/5) b lam^{-5/2}
        int U^4 dxU H      =  (2 pi/15) grad phi lam^{-1/2}   (= 0 at center)
        int U^4 H^2        =  pi^2 phi^2 lam^{-1}
        int U^3 dlamU H^2  = -(pi^2/4) phi^2 lam^{-2}
    and each coefficient is recovered by a ladder fit.
    """
    if lams is None:
        lams = np.geomspace(1e2, 1e4, 9)
    lams = np.asarray(lams, dtype=float)
    a = RadialCoefficient.constant_coeff(a_const)
    cg = ga_center(a, R)
    phi = cg.phi_a_at_0

    raw = {k: [] for k in ("U5_H", "U4_dlamU_H", "U4_dxU_H", "U4_H2", "U3_dlamU_H2")}
    for lam in lams:
        vals = _b3_integrals(float(lam), cg.h, R)
        for k in raw:
            raw[k].append(vals[k])
    for k in raw:
        raw[k] = np.array(raw[k])

    x_lin = lams**-1.0
    x_log = np.log(lams) / lams

    def fit(y, x):
        c0, c1, rms = richardson_fit(list(zip(x, y)), quadratic=True)
        return c0, c1, rms

    results = {}

    c0, c1, rms = fit(raw["U5_H"] * lams**0.5, x_lin)
    results["U5_H"] = {
        "leading": c0,
        "leading_target": 4.0 * math.pi / 3.0 * phi,
        "subleading": c1,
        "subleading_target": -4.0 * math.pi / 3.0 * a_const,
        "rms": rms,
    }

    c0, c1, rms = fit(raw["U4_dlamU_H"] * lams**1.5, x_lin)
    results["U4_dlamU_H"] = {
        "leading": c0,
        "leading_target": -2.0 * math.pi / 15.0 * phi,
        "subleading": c1,
        "subleading_target": 2.0 * math.pi / 5.0 * a_const,
        "rms": rms,
    }

    # Gradient identity: target is (2 pi/15) grad phi = 0 at the center.
    results["U4_dxU_H"] = {
        "leading": float(np.max(np.abs(raw["U4_dxU_H"] * lams**0.5))),
        "leading_target": 0.0,
        "scale": 4.0 * math.pi / 3.0 * max(abs(phi), 1.0),
    }

    c0, c1, rms = fit(raw["U4_H2"] * lams, x_log)
    results["U4_H2"] = {
        "leading": c0,
        "leading_target": math.pi**2 * phi**2,
        "rms": rms,
    }

    c0, c1, rms = fit(raw["U3_dlamU_H2"] * lams**2.0, x_log)
    results["U3_dlamU_H2"] = {
        "leading": c0,
        "leading_target": -math.pi**2 / 4.0 * phi**2,
        "rms": rms,
    }

    results["phi"] = phi
    results["lams"] = lams
    results["raw"] = raw
    return results


def grad_dlambda_pu_norm(lam: float, R: float = 1.0) -> float:
    """int_ball |grad dlam PU|^2; approaches (15 pi^2/64) lam^{-2}."""
    res = quad_radial(
        lambda r: dlam_u_prime(lam, r) ** 2 * r**2, 0.0, R, tol=1e-12
    )
    return 4.0 * math.pi * res.value


def grad_dlambda_pu_dot_pu(lam: float, R: float = 1.0) -> float:
    """int_ball grad dlam PU . grad PU; decays like lam^{-2}."""
    res = quad_radial(
        lambda r: dlam_u_prime(lam, r) * u_prime(lam, r) * r**2, 0.0, R, tol=1e-13
    )
    return 4.0 * math.pi * res.value


def calculus_verdict(a_const: float, R: float = 1.0) -> tuple[list, bool]:
    """The bubble-calculus verdict at constant coefficient a_const.

    Rows (name, kind, value, target, rel_err): the B3 coefficients of
    ``lemma_b3_suite``, the sharp constants (the last three extrapolated in
    lam^{-1} from five rungs), and the L^q ratio ranges of ``lemma_b1_check``
    (reported with rel_err 0, not judged).  Passes when every rel_err is
    within 1%.
    """
    suite = lemma_b3_suite(a_const, R)
    rows = []
    for key in ("U5_H", "U4_dlamU_H", "U4_H2", "U3_dlamU_H2"):
        for kind in ("leading", "subleading"):
            if kind in suite[key]:
                val, tgt = suite[key][kind], suite[key][f"{kind}_target"]
                rows.append((key, kind, val, tgt, abs(val - tgt) / max(abs(tgt), 1e-12)))
    ent = suite["U4_dxU_H"]
    rows.append(("U4_dxU_H", "leading", ent["leading"], 0.0, ent["leading"] / ent["scale"]))

    lams = np.geomspace(1e2, 1e4, 5)

    def g_dlam_u(r):
        return (4 * math.pi * (1 / r - (1 + r * r) ** -0.5)
                * ((1 - r * r) / (2 * (1 + r * r) ** 1.5)) * r * r)

    def limit(vals):
        return richardson_fit(list(zip(1 / lams, vals)))[0]

    u4dl = [
        l**2 * 4.0 * math.pi
        * quad_radial(lambda r: _u(l, r) ** 4 * _du_dlam(l, r) ** 2 * r * r,
                      0.0, R, 1e-13).value
        for l in lams
    ]
    for name, val, tgt in (
        ("moment t^4 (1+t^2)^-3", bubble_moment(4, 3), 3 * math.pi / 16),
        ("int g dlam U", quad_radial(g_dlam_u, 0.0, math.inf, 1e-12).value,
         2 * math.pi * (3 - math.pi)),
        ("lam^2 int U^4 (dlam U)^2", limit(u4dl), math.pi**2 / 64),
        ("int |grad PU|^2", limit([pu_center(l, R).grad_norm_sq() for l in lams]),
         3 * math.pi**2 / 4),
        ("lam^2 int |grad dlam PU|^2",
         limit([grad_dlambda_pu_norm(l, R) * l**2 for l in lams]), 15 * math.pi**2 / 64),
    ):
        rows.append((name, "constant", val, tgt, abs(val - tgt) / abs(tgt)))

    for q in (2.0, 3.0, 6.0):
        ratios = lemma_b1_check(q, lams, R)["ratios"]
        rows.append((f"L^{q:g} rate", "ratio range",
                     float(np.min(ratios)), float(np.max(ratios)), 0.0))
    return rows, all(err <= 0.01 for *_, err in rows)

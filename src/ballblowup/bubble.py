"""Bubble calculus on the three-dimensional ball.

The bubble U_{x,lam}(y) = lam^{1/2} (1 + lam^2 |y-x|^2)^{-1/2} solves the
whole-space equation -Delta U = 3 U^5.  This module provides its closed-form
derivatives, the boundary-corrected (projected) bubble for a center bubble,
the auxiliary tail function g, and a machine-checkable suite for the L^q-norm
rates and the bubble-against-H integral identities used throughout the
asymptotic analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .greenfn import RadialCoefficient, ga_center
from .numkit import bubble_moment, radial_quadrature_rule, richardson_fit

__all__ = [
    "CenterProjectedBubble",
    "u_prime",
    "dlam_u_prime",
    "pu_center",
    "g",
    "lemma_b1_check",
    "lemma_b3_suite",
    "grad_dlambda_pu_norm",
    "calculus_verdict",
]

# lam ladder of lemma_b3_suite's coefficient fits (read-only: the suite
# returns it)
B3_LAMS = np.geomspace(1e2, 1e4, 9)
B3_LAMS.flags.writeable = False


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


def _ball_integral(lam: float, R: float, f) -> float:
    """4 pi int_0^R f(r) r^2 dr, the integral over the ball of a radial
    field f (a function of the node array) with bubble scale 1/lam."""
    r, w = radial_quadrature_rule(lam, R)
    return 4.0 * math.pi * float(w @ (f(r) * r * r))


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

    def grad_norm_sq(self) -> float:
        """int_ball |grad PU|^2, approaching 3 pi^2 / 4 as lam grows."""
        return _ball_integral(self.lam, self.R, lambda r: u_prime(self.lam, r) ** 2)


def pu_center(lam: float, R: float = 1.0) -> CenterProjectedBubble:
    return CenterProjectedBubble(lam=lam, R=R)


def g(lam, r):
    """Tail function g_{0,lam}(r) = lam^{-1/2}/r - U_{0,lam}(r); positive,
    with scaling g_{0,lam}(r) = lam^{1/2} g_{0,1}(lam r).  Written as
    lam^{1/2} / (t q (q + t)), t = lam r, q = (1 + t^2)^{1/2}, which keeps
    the r^{-3} tail free of the cancellation between the two terms."""
    t = lam * np.asarray(r, dtype=float)
    q = np.sqrt(1.0 + t * t)
    return np.sqrt(lam) / (t * q * (q + t))


def lemma_b1_check(q: float, lams, R: float = 1.0) -> dict:
    """L^q norm of the center bubble over the ball against its stated rate.

    Rates: lam^{-1/2} for q < 3, lam^{-1/2} ln(lam) for q = 3, and
    lam^{1/2 - 3/q} for q > 3.  Returns the raw norms and the ratio to the
    rate across the lam ladder; the ratios must stay within fixed bounds.
    """
    if q < 1:
        raise ValueError("q >= 1 required")
    lams = np.asarray(lams, dtype=float)
    norms = np.array(
        [_ball_integral(lam, R, lambda r: _u(lam, r) ** q) ** (1.0 / q) for lam in lams]
    )
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
    nodes, wts = radial_quadrature_rule(lam, R)
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


def lemma_b3_suite(a_const: float, R: float = 1.0) -> dict:
    """Coefficient recovery for the five bubble-against-H integral identities.

    For constant coefficient b the predictions at the center are
        int U^5 H          =  (4 pi/3) phi lam^{-1/2} - (4 pi/3) b lam^{-3/2}
        int U^4 dlamU H    = -(2 pi/15) phi lam^{-3/2} + (2 pi/5) b lam^{-5/2}
        int U^4 dxU H      =  (2 pi/15) grad phi lam^{-1/2}   (= 0 at center)
        int U^4 H^2        =  pi^2 phi^2 lam^{-1}
        int U^3 dlamU H^2  = -(pi^2/4) phi^2 lam^{-2}
    and each coefficient is recovered by a fit over the ladder ``B3_LAMS``.
    """
    lams = B3_LAMS
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
    return _ball_integral(lam, R, lambda r: dlam_u_prime(lam, r) ** 2)


def grad_dlambda_pu_dot_pu(lam: float, R: float = 1.0) -> float:
    """int_ball grad dlam PU . grad PU; decays like lam^{-2}."""
    return _ball_integral(lam, R, lambda r: dlam_u_prime(lam, r) * u_prime(lam, r))


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

    def limit(vals):
        return richardson_fit(list(zip(1 / lams, vals)))[0]

    u4dl = [l**2 * _ball_integral(l, R, lambda r: _u(l, r) ** 4 * _du_dlam(l, r) ** 2)
            for l in lams]
    # int over R^3 of g dlam U at lam = 1, on the rule for [0, 1] after r = s/(1-s)
    s, w = radial_quadrature_rule(1.0, 1.0)
    r = s / (1.0 - s)
    g_dlam_u = 4.0 * math.pi * float(w @ (g(1.0, r) * _du_dlam(1.0, r) * (r / (1.0 - s)) ** 2))
    for name, val, tgt in (
        ("moment t^4 (1+t^2)^-3", bubble_moment(4, 3), 3 * math.pi / 16),
        ("int g dlam U", g_dlam_u, 2 * math.pi * (3 - math.pi)),
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

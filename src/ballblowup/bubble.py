"""Bubble calculus on the three-dimensional ball.

The bubble U_{x,lam}(y) = lam^{1/2} (1 + lam^2 |y-x|^2)^{-1/2} solves the
whole-space equation -Delta U = 3 U^5.  This module provides its closed-form
derivatives, the boundary-corrected (projected) bubble for a center bubble,
the auxiliary tail function g, and one verdict table for the bubble calculus
used throughout the asymptotic analysis: the bubble-against-H integral
identities, the sharp constants and the L^q norms of U over the ball, each
row against its target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .greenfn import RadialCoefficient, ga_center
from .numkit import radial_quadrature_rule, richardson_fit

__all__ = [
    "CenterProjectedBubble",
    "u_prime",
    "dlam_u_prime",
    "pu_center",
    "g",
    "lemma_b3_suite",
    "grad_dlambda_pu_norm",
    "calculus_verdict",
]

# lam ladder of lemma_b3_suite's coefficient fits (read-only)
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


# 16-point Gauss rule in cos(theta) on [-1, 1] of the odd B3 row
_THETA_X, _THETA_W = np.polynomial.legendre.leggauss(16)


def _b3_integrals(lams, h, R: float) -> dict:
    """The five bubble-against-H integrals at the center for every lam of
    ``lams``, each an array over lams, on one radial rule (that of the
    largest lam, which resolves every smaller bubble) with H evaluated once.
    The odd translation-derivative integral is the polar sum in (r, theta)
    with the 16-point theta rule, factorized into its radial and theta sums;
    it is odd in cos(theta) for a center bubble, so it comes out as
    numerical zero."""
    lams = np.asarray(lams, dtype=float)[:, None]
    nodes, wts = radial_quadrature_rule(float(lams.max()), R)
    hv = h(nodes)
    u, du = _u(lams, nodes), _du_dlam(lams, nodes)
    u4h = u**4 * hv
    w = 4.0 * math.pi * wts * nodes**2
    return {
        "U5_H": (u4h * u) @ w,
        "U4_dlamU_H": (u4h * du) @ w,
        "U4_H2": (u4h * hv) @ w,
        "U3_dlamU_H2": (u**3 * du * hv**2) @ w,
        # dx U = -U'(r) cos(theta): the radial sum times the theta sum
        "U4_dxU_H": -0.5 * float(_THETA_X @ _THETA_W) * ((u4h * u_prime(lams, nodes)) @ w),
    }


# The even B3 identities at the center for constant coefficient b,
#     int (integrand) = lam^{-power} (c0 + c1 x + c2 x^2 + ...),
# as (integrand, power, fit abscissa x, c0 per phi^n, n, c1 per b or None
# when only c0 is judged):
#     int U^5 H          =  (4 pi/3) phi lam^{-1/2} - (4 pi/3) b lam^{-3/2}
#     int U^4 dlamU H    = -(2 pi/15) phi lam^{-3/2} + (2 pi/5) b lam^{-5/2}
#     int U^4 H^2        =  pi^2 phi^2 lam^{-1}         (+ ln lam / lam^2 terms)
#     int U^3 dlamU H^2  = -(pi^2/4) phi^2 lam^{-2}     (+ ln lam / lam^3 terms)
_B3_IDENTITIES = (
    ("U5_H", 0.5, "1/lam", 4.0 * math.pi / 3.0, 1, -4.0 * math.pi / 3.0),
    ("U4_dlamU_H", 1.5, "1/lam", -2.0 * math.pi / 15.0, 1, 2.0 * math.pi / 5.0),
    ("U4_H2", 1.0, "ln lam/lam", math.pi**2, 2, None),
    ("U3_dlamU_H2", 2.0, "ln lam/lam", -math.pi**2 / 4.0, 2, None),
)


def lemma_b3_suite(a_const: float, R: float = 1.0) -> list:
    """Coefficient recovery for the five bubble-against-H integral identities
    at constant coefficient a_const, as verdict rows (name, kind, value,
    target, rel_err).

    The integrals over the whole ladder ``B3_LAMS`` come from one
    ``_b3_integrals`` call: one radial rule and one evaluation of H_a(0, .).
    Each even identity of ``_B3_IDENTITIES`` is scaled by its lam power and
    fitted quadratically in its abscissa over the ladder, giving a
    ``leading`` row and, where judged, a ``subleading`` row.  The odd
    translation-derivative identity int U^4 dxU H = (2 pi/15) grad phi
    lam^{-1/2} vanishes at the center: its ``leading`` row carries the
    largest lam^{1/2} |int U^4 dxU H| on the ladder, relative to the scale
    (4 pi/3) max(|phi|, 1).
    """
    cg = ga_center(RadialCoefficient.constant_coeff(a_const), R)
    phi = cg.phi_a_at_0
    vals = _b3_integrals(B3_LAMS, cg.h, R)
    abscissae = {"1/lam": B3_LAMS**-1.0, "ln lam/lam": np.log(B3_LAMS) / B3_LAMS}
    rows = []
    for name, power, x, lead, n, sub in _B3_IDENTITIES:
        y = vals[name] * B3_LAMS**power
        c0, c1, _ = richardson_fit(list(zip(abscissae[x], y)), quadratic=True)
        judged = [("leading", c0, lead * phi**n)]
        if sub is not None:
            judged.append(("subleading", c1, sub * a_const))
        for kind, val, tgt in judged:
            rows.append((name, kind, val, tgt, abs(val - tgt) / max(abs(tgt), 1e-12)))
    odd = float(np.max(np.abs(vals["U4_dxU_H"] * B3_LAMS**0.5)))
    rows.append(("U4_dxU_H", "leading", odd, 0.0, odd / (4.0 * math.pi / 3.0 * max(abs(phi), 1.0))))
    return rows


def grad_dlambda_pu_norm(lam: float, R: float = 1.0) -> float:
    """int_ball |grad dlam PU|^2; approaches (15 pi^2/64) lam^{-2}."""
    return _ball_integral(lam, R, lambda r: dlam_u_prime(lam, r) ** 2)


# int_B U^q over the ball of radius R in closed form, as a function of lam
# and s = lam R; the L^q norm is its q-th root
_LQ_CLOSED_FORMS = {
    2: lambda lam, s: 4.0 * math.pi * lam**-2 * (s - math.atan(s)),
    3: lambda lam, s: 4.0 * math.pi * lam**-1.5 * (math.asinh(s) - s / math.sqrt(1.0 + s * s)),
    6: lambda lam, s: math.pi / 2.0 * (math.atan(s) + s * (s * s - 1.0) / (1.0 + s * s) ** 2),
}
# rel_err bound of a row judged against a closed form of the integral the
# rule takes (the rule's own accuracy), and of every other row
CLOSED_FORM_TOL = 1e-12
VERDICT_TOL = 0.01


def calculus_verdict(a_const: float, R: float = 1.0) -> tuple[list, bool]:
    """The bubble-calculus verdict at constant coefficient a_const.

    Rows (name, kind, value, target, rel_err): the B3 coefficients of
    ``lemma_b3_suite``; the sharp constants (kind ``constant``, the last
    three extrapolated in lam^{-1} from five rungs); and the L^q norms of U
    over the ball for q = 2, 3, 6 (kind ``closed form``), each the rule's
    norm and its closed form at the largest of those rungs, with the largest
    rel_err over all five.  Passes when every ``closed form`` rel_err is
    within ``CLOSED_FORM_TOL`` and every other one within ``VERDICT_TOL``.
    """
    rows = lemma_b3_suite(a_const, R)
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
        ("int g dlam U", g_dlam_u, 2 * math.pi * (3 - math.pi)),
        ("lam^2 int U^4 (dlam U)^2", limit(u4dl), math.pi**2 / 64),
        ("int |grad PU|^2", limit([pu_center(l, R).grad_norm_sq() for l in lams]),
         3 * math.pi**2 / 4),
        ("lam^2 int |grad dlam PU|^2",
         limit([grad_dlambda_pu_norm(l, R) * l**2 for l in lams]), 15 * math.pi**2 / 64),
    ):
        rows.append((name, "constant", val, tgt, abs(val - tgt) / abs(tgt)))

    for q, closed in _LQ_CLOSED_FORMS.items():
        norms = [_ball_integral(l, R, lambda r: _u(l, r) ** q) ** (1.0 / q) for l in lams]
        exact = [closed(l, l * R) ** (1.0 / q) for l in lams]
        err = max(abs(v - e) / e for v, e in zip(norms, exact))
        rows.append((f"L^{q} norm", "closed form", norms[-1], exact[-1], err))
    passed = all(err <= (CLOSED_FORM_TOL if kind == "closed form" else VERDICT_TOL)
                 for _, kind, _, _, err in rows)
    return rows, passed

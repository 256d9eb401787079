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
    "g",
    "calculus_verdict",
    "failed_rows",
]

# lam ladder of calculus_verdict, in units of its length L: the B3 fits read
# every rung, the constant and L^q rows every other one (read-only)
B3_LAMS = np.geomspace(1e2, 1e4, 9)
B3_LAMS.flags.writeable = False


def _u(lam, r):
    return np.sqrt(lam) / np.sqrt(1.0 + lam**2 * np.asarray(r, dtype=float) ** 2)


def u_prime(lam, r):
    """Radial derivative of the center bubble, -lam^{5/2} r s^{-3/2}, s = 1 + lam^2 r^2."""
    r = np.asarray(r, dtype=float)
    s = 1.0 + lam**2 * r**2
    return -(lam**2.5) * (r / s) / np.sqrt(s)


def _du_dlam(lam, r):
    r = np.asarray(r, dtype=float)
    s = 1.0 + lam**2 * r**2
    return 0.5 / np.sqrt(lam) / np.sqrt(s) - lam**1.5 * r**2 / s**1.5


def dlam_u_prime(lam, r):
    """Mixed derivative d/dr d/dlam of the center bubble,
    lam^{3/2} r s^{-3/2} (3 lam^2 r^2 / s - 5/2), s = 1 + lam^2 r^2."""
    r = np.asarray(r, dtype=float)
    t2 = lam**2 * r**2
    s = 1.0 + t2
    return (lam**1.5 * (r / s) / np.sqrt(s)) * (3.0 * t2 / s - 2.5)


@dataclass(frozen=True)
class CenterProjectedBubble:
    """Projected bubble PU for a bubble centered at the origin of the ball.

    The harmonic correction matching the bubble's boundary values is the
    constant U(R), so PU(r) = U(r) - lam^{1/2} (1 + lam^2 R^2)^{-1/2} and
    the gradient of PU coincides with that of U inside the ball.
    """

    lam: float
    R: float

    def u(self, r):
        return _u(self.lam, r)

    def pu(self, r):
        return _u(self.lam, r) - _u(self.lam, self.R)

    def dlam_pu(self, r):
        return _du_dlam(self.lam, r) - _du_dlam(self.lam, self.R)


def g(lam, r):
    """Tail function g_{0,lam}(r) = lam^{-1/2}/r - U_{0,lam}(r); positive,
    with scaling g_{0,lam}(r) = lam^{1/2} g_{0,1}(lam r).  Written as
    lam^{1/2} / (t q (q + t)), t = lam r, q = (1 + t^2)^{1/2}, which keeps
    the r^{-3} tail free of the cancellation between the two terms."""
    t = lam * np.asarray(r, dtype=float)
    q = np.sqrt(1.0 + t * t)
    return np.sqrt(lam) / (t * q * (q + t))


# int_B U^q over the ball of radius R in closed form, as a function of lam
# and s = lam R; the L^q norm is its q-th root
_LQ_CLOSED_FORMS = {
    2: lambda lam, s: 4.0 * math.pi * lam**-2 * (s - math.atan(s)),
    3: lambda lam, s: 4.0 * math.pi * lam**-1.5 * (math.asinh(s) - s / math.sqrt(1.0 + s * s)),
    6: lambda lam, s: math.pi / 2.0 * (math.atan(s) + s * (s * s - 1.0) / (1.0 + s * s) ** 2),
}


def _ladder_integrals(h, R: float, lams) -> dict:
    """Every ball integral calculus_verdict reads, 4 pi int_0^R f(r) r^2 dr
    for each of the ``lams``, as arrays over the ladder: all on the ball's
    radial rule, with H_a(0, .) (``h``) evaluated once on its nodes and U,
    dlam U, U' and dlam U' as (lam, node) arrays."""
    nodes, _, w = radial_quadrature_rule(R)
    lams = lams[:, None]
    hv = h(nodes)
    u, du = _u(lams, nodes), _du_dlam(lams, nodes)
    u4 = u**4
    u4h = u4 * hv
    return {
        "U5_H": (u4h * u) @ w,
        "U4_dlamU_H": (u4h * du) @ w,
        "U4_H2": (u4h * hv) @ w,
        "U3_dlamU_H2": (u**3 * du * hv**2) @ w,
        "U4_dlamU2": (u4 * du**2) @ w,
        "grad_PU2": u_prime(lams, nodes) ** 2 @ w,
        "grad_dlamPU2": dlam_u_prime(lams, nodes) ** 2 @ w,
        **{f"U{q}": u**q @ w for q in _LQ_CLOSED_FORMS},
    }


# The B3 identities at the center for constant coefficient b,
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


# rel_err bound of a row judged against a closed form of the integral the
# rule takes (the rule's own accuracy), and of every other row
CLOSED_FORM_TOL = 1e-12
VERDICT_TOL = 0.01


def calculus_verdict(a_const: float, R: float) -> tuple[list, bool]:
    """The bubble-calculus verdict at constant coefficient a_const.

    Rows (name, kind, value, target, rel_err), every ball integral from one
    ``_ladder_integrals`` pass with H_a(0, .) of a_const over the ladder
    lam = ``B3_LAMS`` / L, L = min(R, |a_const|^{-1/2}) (R at a_const = 0):
    the B3 coefficients, each identity of ``_B3_IDENTITIES`` scaled by
    its lam power and fitted quadratically in its abscissa over the ladder
    (a ``leading`` row and, where judged, a ``subleading`` row); the sharp
    constants (kind ``constant``, the last three extrapolated in lam^{-1}
    from every other rung); and the L^q norms of U over the ball for
    q = 2, 3, 6 (kind ``closed form``), each the rule's norm and its closed
    form at the largest of those rungs, with the largest rel_err over them.
    A row's rel_err is taken against its target, or, where that is 0 (a
    subleading row at a_const = 0), against its identity's leading target.
    Passes when ``failed_rows`` names none.  The abscissa ln lam/lam is
    read as ln(lam L)/lam, so the verdict on the ball s R with a_const/s^2
    is the one on R with a_const.
    """
    cg = ga_center(RadialCoefficient.constant_coeff(a_const), R)
    phi = cg.phi_a_at_0
    lams = B3_LAMS / (min(R, abs(a_const) ** -0.5) if a_const else R)
    vals = _ladder_integrals(cg.h, R, lams)
    abscissae = {"1/lam": lams**-1.0, "ln lam/lam": np.log(B3_LAMS) / lams}
    rows = []
    for name, power, x, lead, n, sub in _B3_IDENTITIES:
        y = vals[name] * lams**power
        c0, c1, _ = richardson_fit(list(zip(abscissae[x], y)), quadratic=True)
        lead_tgt = lead * phi**n
        judged = [("leading", c0, lead_tgt)]
        if sub is not None:
            judged.append(("subleading", c1, sub * a_const))
        for kind, val, tgt in judged:
            rows.append((name, kind, val, tgt,
                         abs(val - tgt) / max(abs(tgt) or abs(lead_tgt), 1e-12)))

    every_other = lams[::2]

    def limit(per_lam):
        return richardson_fit(list(zip(1 / every_other, per_lam[::2])))[0]

    # int over R^3 of g dlam U at lam = 1, on the rule for [0, 1] after r = s/(1-s)
    s, w, _ = radial_quadrature_rule(1.0)
    r = s / (1.0 - s)
    g_dlam_u = 4.0 * math.pi * float(w @ (g(1.0, r) * _du_dlam(1.0, r) * (r / (1.0 - s)) ** 2))
    for name, val, tgt in (
        ("int g dlam U", g_dlam_u, 2 * math.pi * (3 - math.pi)),
        ("lam^2 int U^4 (dlam U)^2", limit(lams**2 * vals["U4_dlamU2"]), math.pi**2 / 64),
        ("int |grad PU|^2", limit(vals["grad_PU2"]), 3 * math.pi**2 / 4),
        ("lam^2 int |grad dlam PU|^2", limit(vals["grad_dlamPU2"] * lams**2),
         15 * math.pi**2 / 64),
    ):
        rows.append((name, "constant", val, tgt, abs(val - tgt) / abs(tgt)))

    for q, closed in _LQ_CLOSED_FORMS.items():
        norms = vals[f"U{q}"][::2] ** (1.0 / q)
        exact = [closed(l, l * R) ** (1.0 / q) for l in every_other]
        err = max(abs(v - e) / e for v, e in zip(norms, exact))
        rows.append((f"L^{q} norm", "closed form", norms[-1], exact[-1], err))
    return rows, not failed_rows(rows)


def failed_rows(rows) -> list[str]:
    """"name kind" of every verdict row whose rel_err is above its bound:
    ``CLOSED_FORM_TOL`` for a ``closed form`` row, else ``VERDICT_TOL``."""
    return [f"{name} {kind}" for name, kind, _, _, err in rows
            if not err <= (CLOSED_FORM_TOL if kind == "closed form" else VERDICT_TOL)]

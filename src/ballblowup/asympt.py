"""Blow-up parameter extraction and verification of the quantitative laws.

A converged radial profile u is matched against the projected bubble:
u = alpha (PU_{0,lam} + w) with (alpha, lam) from a gradient-norm least
squares fit, then refined through q = w + lam^{-1/2}(H_a - H_0)(0, .) and its
split q = s + r into the zero-mode span {PU, dlam PU} and its orthogonal
complement (the translation modes drop out by radial symmetry).  Ladder
records feed limit extrapolations for the blow-up speed eps*lam, the
amplitude slope of alpha, the far-field law and the remainder bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bubble as bb
from .greenfn import BlowupLaws, CenterGreens, RadialCoefficient
from .numkit import brent_root, radial_quadrature_rule, richardson_fit
from .solver import RadialSolution, greens_rep_residual

__all__ = [
    "Decomposition",
    "SweepRecord",
    "TheoremReport",
    "fit_bubble",
    "decompose",
    "beta_gamma_limits",
    "verify_farfield",
    "coercivity_probe",
    "records_from_sweep",
]

LAMBDA_TRUST = 1e2  # asymptotic trust region: verdicts use rungs with lam >= this
# Verdict bounds.  Rate, alpha slope, beta and gamma: relative error of the
# extrapolated limit, and the largest rms of its fit, as a share of |slope| *
# max(abscissa).  Far field: its last value.  Remainder bounds: max/median of
# the scaled norms over the trust-region rungs.
RATE_TOL = 0.02
ALPHA_TOL = 0.05
FARFIELD_TOL = 0.1
BOUND_FACTOR = 3.0
# gamma carries ~300x the solver noise of lam, so no tighter than this
ZERO_MODE_TOL = 0.01
FIT_RMS_FACTOR = 0.1


class RegimeError(ValueError):
    """Inputs outside the asymptotic/critical regime of the analysis."""


def _ip(wts, nodes, fp, gp):
    """Gradient inner product 4 pi int f' g' r^2 dr for radial fields."""
    return 4.0 * math.pi * float(np.sum(wts * fp * gp * nodes**2))


def fit_bubble(u: RadialSolution) -> tuple[float, float, float]:
    """Least-squares projection of u onto the projected-bubble family.

    Minimizes the gradient norm of u - alpha PU_{0,lam}; alpha is eliminated
    in closed form per lam, and lam is the root, on a log axis, of the
    stationarity condition <u', dlam U'><U', U'> - <u', U'><U', dlam U'> = 0
    (gradient inner products), found to rounding, where a minimizer of the
    flat misfit is good only to its square root.  The misfit's
    lam-derivative is -2 <u', U'> / <U', U'>^2 times the condition, and
    <u', U'> > 0, so its sign brackets the root: from (0.9, 1.1) u(0)^2,
    each factor squared until it is > 0 below and < 0 above.  There
    w = u/alpha - PU is gradient-orthogonal to PU and dlam PU.  The inner
    products are taken on the rung's sample.  Returns (alpha, lam,
    residual_norm).
    """
    lam0 = u.M**2
    nodes, wts, _, upv = u.sample
    wn = 4.0 * math.pi * wts * nodes**2  # <f', g'> = (wn f') @ g'
    wu = wn * upv
    gn_u = float(wu @ upv)

    def stationarity(loglam):
        lam = math.exp(loglam)
        pup, dpup = bb.u_prime(lam, nodes), bb.dlam_u_prime(lam, nodes)
        wp = wn * pup
        return float(wu @ dpup) * float(wp @ pup) - float(wu @ pup) * float(wp @ dpup)

    ends = []
    for factor, sign in ((0.9, 1.0), (1.1, -1.0)):
        while sign * stationarity(math.log(lam0 * factor)) <= 0:
            factor *= factor
            if not 1e-3 <= factor <= 1e3:
                raise RegimeError("fit_bubble: no minimum within 3 decades of u(0)^2")
        ends.append(math.log(lam0 * factor))
    lam = math.exp(brent_root(stationarity, tuple(ends), tol=1e-12).root)
    pup = bb.u_prime(lam, nodes)
    cross, gn_pu = float(wu @ pup), float(wn * pup @ pup)
    return cross / gn_pu, lam, math.sqrt(max(gn_u - cross**2 / gn_pu, 0.0))


@dataclass
class Decomposition:
    """Blow-up parameters and remainder norms of one profile: what its
    record reads."""

    alpha: float
    lam: float
    eps: float
    beta: float
    gamma: float
    norm_grad_w: float
    norm_grad_r: float
    sup_w: float

    @property
    def sup_w_ratio(self) -> float:
        return self.sup_w / math.sqrt(self.lam)


def decompose(u: RadialSolution, alpha: float, lam: float, cg: CenterGreens) -> Decomposition:
    """Split u/alpha - PU into zero modes and orthogonal remainder.

    Builds w, q = w + lam^{-1/2}(H_a - H_0), with (H_a - H_0)(0, .) from a's
    center Green's data ``cg``, solves the 2x2 Gram system over
    span{PU, dlam PU} in the gradient inner product (radial symmetry
    annihilates the translation modes), and extracts beta, gamma with the
    normalization s = beta lam^{-1} PU + gamma dlam PU.

    Its integrals are taken on the rung's sample, the rule at M^2 rather
    than at the fitted lam; the two rules have the same nodes for lam,
    M^2 <= 2e6, where both start their panels at r_min = 1e-8.

    ``fit_bubble`` leaves w' orthogonal to PU' and lam dlam PU' (to 1.3e-15
    on the canonical rungs), so beta and gamma depend on the profile only
    through lam: they are the zero-mode projection of lam^{-1/2}(H_a - H_0)'
    alone, to all 12 printed digits on those rungs.
    """
    R = u.R
    nodes, wts, uv, upv = u.sample
    pb = bb.CenterProjectedBubble(lam, R)
    w = uv / alpha - pb.pu(nodes)
    wp = upv / alpha - pb.pu_prime(nodes)

    # the radial derivative of q = w + lam^{-1/2} (H_a - H_0)(0, .), H_0(0, .) = 1/R
    qp = wp + cg.dh(nodes) / math.sqrt(lam)

    # Gram system over {PU, lam dlam PU}: both have gradient norms of order
    # one, so the condition number stays near 3.2 at every lam (on the
    # unscaled basis it grows like lam^2).
    pup = pb.pu_prime(nodes)
    dpup = pb.dlam_pu_prime(nodes)
    ldpup = lam * dpup
    g11 = _ip(wts, nodes, pup, pup)
    g12 = _ip(wts, nodes, pup, ldpup)
    g22 = _ip(wts, nodes, ldpup, ldpup)
    b1 = _ip(wts, nodes, qp, pup)
    b2 = _ip(wts, nodes, qp, ldpup)
    G = np.array([[g11, g12], [g12, g22]])
    cond = np.linalg.cond(G)
    if cond > 1e8:
        raise RegimeError(f"ill-conditioned Gram system (cond={cond:.2e})")
    c_pu, c_ldl = np.linalg.solve(G, [b1, b2])
    c_dl = c_ldl * lam

    rp = qp - (c_pu * pup + c_dl * dpup)  # r' = q' - s'
    return Decomposition(
        alpha=alpha,
        lam=lam,
        eps=u.config.eps,
        beta=float(c_pu * lam),
        gamma=float(c_dl),
        norm_grad_w=math.sqrt(max(_ip(wts, nodes, wp, wp), 0.0)),
        norm_grad_r=math.sqrt(max(_ip(wts, nodes, rp, rp), 0.0)),
        sup_w=float(np.max(np.abs(w))),
    )


@dataclass
class SweepRecord:
    """One rung of the eps ladder with everything the verifiers consume."""

    eps: float
    lam: float
    alpha: float
    M: float
    beta: float
    gamma: float
    norm_grad_w: float
    norm_grad_r: float
    sup_w_ratio: float
    farfield_error: float
    sobolev_quotient: float
    gradient_quotient: float
    energy_residual: float
    pohozaev_residual: float
    greens_residual: float
    fit_residual: float

    @property
    def eps_lambda(self) -> float:
        return self.eps * self.lam

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["eps_lambda"] = self.eps_lambda
        return d

    @staticmethod
    def from_dict(d: dict) -> "SweepRecord":
        keys = SweepRecord.__dataclass_fields__
        return SweepRecord(**{k: d[k] for k in keys})


def records_from_sweep(solutions, probes) -> list[SweepRecord]:
    """Full per-rung pipeline: fit, decompose, far field at the radii
    ``probes``, diagnostics.  a's center Green's data is read off each
    profile's ``laws``; a profile that carries the error a failed with
    raises it.  Every quadrature reads a rung's sample; only the far field
    and the Green representation's probes evaluate its dense output."""
    out = []
    for u in solutions:
        if isinstance(u.laws, Exception):
            raise u.laws
        cg = u.laws.cg
        alpha, lam, fit_res = fit_bubble(u)
        dec = decompose(u, alpha, lam, cg)
        ff = verify_farfield(u, lam, cg, probes)
        out.append(
            SweepRecord(
                eps=u.config.eps,
                lam=lam,
                alpha=alpha,
                M=u.M,
                beta=dec.beta,
                gamma=dec.gamma,
                norm_grad_w=dec.norm_grad_w,
                norm_grad_r=dec.norm_grad_r,
                sup_w_ratio=dec.sup_w_ratio,
                farfield_error=ff,
                sobolev_quotient=u.sobolev_quotient,
                gradient_quotient=u.gradient_quotient,
                energy_residual=u.energy_identity_residual,
                pohozaev_residual=u.diagnostics["pohozaev_residual"],
                greens_residual=greens_rep_residual(u),
                fit_residual=fit_res,
            )
        )
    return out


# The extrapolated laws, one row each: the report field, which is also the
# BlowupLaws property holding its target; the printed check; the abscissa
# the record value is fitted in, and whether the fit takes its square too
# (where there are >= 4 rungs); the record value; and the name of the module
# constant bounding the relative error of its limit.
_LIMIT_LAWS = (
    ("rate", "rate eps*lam", "eps", True, lambda r: r.eps_lambda, "RATE_TOL"),
    ("alpha_slope", "alpha slope", "eps", True, lambda r: (r.alpha - 1.0) / r.eps, "ALPHA_TOL"),
    ("beta", "beta limit", "1/lam", False, lambda r: r.beta, "ZERO_MODE_TOL"),
    ("gamma", "gamma limit", "1/lam", False, lambda r: r.gamma, "ZERO_MODE_TOL"),
)
_ABSCISSAE = {"eps": lambda r: r.eps, "1/lam": lambda r: 1.0 / r.lam}


@dataclass
class BoundEntry:
    values: list
    max_over_median: float
    passed: bool


@dataclass
class TrendEntry:
    values: list
    decreasing: bool


@dataclass
class LimitEntry:
    limit: float
    target: float
    rel_err: float
    residual: float
    passed: bool


def _limit_entry(law, recs, target: float) -> LimitEntry:
    """Fit the law's record value over ``recs`` in its abscissa x and judge
    the limit against ``target``.  The row fails where the limit is off by
    more than its tolerance or the fit's rms residual is above
    FIT_RMS_FACTOR |c| max(x), c the fit's slope."""
    _, _, x, quadratic, value, tol = law
    xs = [_ABSCISSAE[x](r) for r in recs]
    L, c, rms = richardson_fit(zip(xs, map(value, recs)), quadratic=quadratic and len(recs) >= 4)
    rel = abs(L - target) / abs(target)
    poor = c != 0 and rms > FIT_RMS_FACTOR * abs(c) * max(xs)
    return LimitEntry(limit=L, target=target, rel_err=rel, residual=rms,
                      passed=rel <= globals()[tol] and not poor)


def beta_gamma_limits(decomps) -> tuple[float, float]:
    """The beta and gamma limits of ``decomps`` (records or
    decompositions), fitted as ``build_report`` fits them.

    Targets: beta -> (16/3 pi)(phi_a(0) - phi_0(0)) and gamma -> -(8/5) beta.
    """
    if len(decomps) < 3:
        raise ValueError("need at least 3 rungs")
    b, g = (_limit_entry(law, decomps, math.nan).limit
            for law in _LIMIT_LAWS if law[0] in ("beta", "gamma"))
    return b, g


@dataclass
class TheoremReport:
    """Every ladder law's verdict, on the trust-region rungs at ``rungs``
    (their eps).  ``rows`` lists them, one row per law, and ``all_passed``
    is the AND of those rows."""

    rate: LimitEntry
    alpha_slope: LimitEntry
    farfield: TrendEntry
    grad_w_bound: BoundEntry
    grad_r_bound: BoundEntry
    sup_w_trend: TrendEntry
    beta: LimitEntry
    gamma: LimitEntry
    rungs: list
    all_passed: bool = field(init=False)

    def __post_init__(self):
        self.all_passed = all(passed for *_, passed in self.rows())

    def rows(self):
        """Yield (check, value, target, passed) for every law in field
        order, value and target as printed."""
        checks = {name: check for name, check, *_ in _LIMIT_LAWS}
        for name, e in vars(self).items():
            if name in checks:
                yield checks[name], f"{e.limit:.6g}", f"{e.target:.6g}", e.passed
            elif isinstance(e, BoundEntry):
                yield (name.replace("_bound", " bound"), f"{e.max_over_median:.3f}",
                       f"max/median <= {BOUND_FACTOR:g}", e.passed)
            elif name == "farfield":
                yield ("farfield trend", f"{e.values[-1]:.3g}",
                       f"decreasing, <= {FARFIELD_TOL:g}", e.decreasing)
            elif name == "sup_w_trend":
                yield "sup_w trend", f"{e.values[-1]:.3g}", "decreasing", e.decreasing


def verify_farfield(
    u: RadialSolution,
    lam: float,
    cg: CenterGreens,
    probes,
) -> float:
    """max over probe radii of |lam^{1/2} u(r)/G_a(0,r) - 1|."""
    worst = 0.0
    for rp in probes:
        g = float(cg.g(rp))
        val = math.sqrt(lam) * float(u.u_at(rp)) / g
        worst = max(worst, abs(val - 1.0))
    return worst


def _bound_entry(values) -> BoundEntry:
    vals = list(values)
    med = float(np.median(vals))
    mx = float(np.max(vals))
    ratio = mx / med if med > 0 else float("inf")
    return BoundEntry(values=vals, max_over_median=ratio, passed=ratio <= BOUND_FACTOR)


def _decreasing(vals) -> bool:
    return all(b < a for a, b in zip(vals, vals[1:]))


def build_report(records, laws: BlowupLaws) -> TheoremReport:
    """Assemble the full verification report from ladder records, every
    target taken from the blow-up ``laws``.  Raises RegimeError, naming
    ``laws.outside``, before any fit where the laws do not hold, and where
    fewer than 3 rungs have lam >= LAMBDA_TRUST; every row reads those
    rungs."""
    if laws.outside is not None:
        raise RegimeError(laws.outside)
    recs = sorted((r for r in records if r.lam >= LAMBDA_TRUST), key=lambda r: -r.eps)
    if len(recs) < 3:
        raise RegimeError("need >= 3 rungs inside the asymptotic trust region")
    limits = {law[0]: _limit_entry(law, recs, getattr(laws, law[0])) for law in _LIMIT_LAWS}
    ff = [r.farfield_error for r in recs]
    sw = [r.sup_w_ratio for r in recs]
    return TheoremReport(
        farfield=TrendEntry(ff, _decreasing(ff[-3:]) and ff[-1] <= FARFIELD_TOL),
        grad_w_bound=_bound_entry([r.norm_grad_w * math.sqrt(r.lam) for r in recs]),
        grad_r_bound=_bound_entry([r.norm_grad_r / (r.eps / math.sqrt(r.lam)) for r in recs]),
        sup_w_trend=TrendEntry(sw, _decreasing(sw)),
        rungs=[r.eps for r in recs],
        **limits,
    )


def coercivity_probe(
    lam: float,
    a: RadialCoefficient | None,
    R: float,
    samples: int,
    seed: int,
) -> float:
    """Empirical coercivity constant of the linearized form.

    Draws random radial fields v = sum c_i m_i from eight modes vanishing
    on the boundary, with the zero-mode span {PU, dlam PU} removed in the
    gradient inner product, and returns the minimum of

        int(|grad v|^2 + a v^2 - 15 U^4 v^2) / int |grad v|^2

    over the samples.  Both integrals are quadratic forms in c: the modes
    are projected once, the two 8 x 8 Gram matrices are formed once, and
    each sample costs two small quadratic forms.  With a = None
    the coefficient term is dropped (whole-space control, where the bound
    4/7 applies for radial fields).
    """
    rng = np.random.default_rng(seed)
    nodes, wts = radial_quadrature_rule(lam, R)
    r2w = 4.0 * math.pi * wts * nodes**2

    pb = bb.CenterProjectedBubble(lam, R)
    basis_p = np.array([pb.pu_prime(nodes), pb.dlam_pu_prime(nodes)])
    basis_v = np.array([pb.pu(nodes), pb.dlam_pu(nodes)])

    n_modes = 8
    ks = np.array([j * math.pi / R for j in range(1, n_modes + 1)])
    # modes sin(k r)/(k r): regular at 0, vanishing at R
    mode_v = np.sinc(ks[:, None] * nodes[None, :] / math.pi)
    kr = ks[:, None] * nodes[None, :]
    mode_p = (np.cos(kr) - np.sinc(kr / math.pi)) / nodes[None, :]

    # project every mode off the zero-mode span
    G = (basis_p * r2w) @ basis_p.T
    coef = np.linalg.solve(G, (basis_p * r2w) @ mode_p.T)
    mode_v = mode_v - coef.T @ basis_v
    mode_p = mode_p - coef.T @ basis_p

    weight = -15.0 * pb.u(nodes) ** 4
    if a is not None:
        weight = weight + np.asarray(a(nodes))
    A_grad = (mode_p * r2w) @ mode_p.T
    A_rest = (mode_v * (weight * r2w)) @ mode_v.T

    C = rng.standard_normal((samples, n_modes))
    grad = np.einsum("si,ij,sj->s", C, A_grad, C)
    rest = np.einsum("si,ij,sj->s", C, A_rest, C)
    return float(np.min((grad + rest) / grad))

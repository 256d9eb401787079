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
from .greenfn import CenterGreens, RadialCoefficient, ga_center
from .numkit import brent_root, radial_quadrature_rule, richardson_fit
from .solver import RadialSolution, greens_rep_residual

__all__ = [
    "Decomposition",
    "SweepRecord",
    "TheoremReport",
    "fit_bubble",
    "decompose",
    "beta_gamma_limits",
    "verify_rate",
    "verify_alpha",
    "verify_farfield",
    "sup_w_check",
    "coercivity_probe",
    "records_from_sweep",
]

LAMBDA_TRUST = 1e2  # asymptotic trust region: verdicts use rungs with lam >= this
# Verdict bounds.  Rate and alpha slope: relative error of the extrapolated
# limit.  Far field: its last value.  Remainder bounds: max/median of the
# scaled norms over the trust-region rungs.
RATE_TOL = 0.02
ALPHA_TOL = 0.05
FARFIELD_TOL = 0.1
BOUND_FACTOR = 3.0
# gamma carries ~300x the solver noise of lam, so no tighter than this
ZERO_MODE_TOL = 0.01


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
    (gradient inner products; proportional to the misfit's derivative),
    between the outer ends of a bracket of the misfit's minimum around
    u(0)^2.  The root is found to rounding, where a minimizer of the flat
    misfit is good only to its square root.  There w = u/alpha - PU is
    gradient-orthogonal to PU and dlam PU.  The inner products are taken on
    the rung's sample.  Returns (alpha, lam, residual_norm).
    """
    lam0 = u.M**2
    nodes, wts, _, upv = u.sample
    wn = 4.0 * math.pi * wts * nodes**2  # <f', g'> = (wn f') @ g'
    wu = wn * upv
    gn_u = float(wu @ upv)

    def misfit(loglam):
        pup = bb.u_prime(math.exp(loglam), nodes)
        return gn_u - float(wu @ pup) ** 2 / float(wn * pup @ pup)

    def stationarity(loglam):
        lam = math.exp(loglam)
        pup, dpup = bb.u_prime(lam, nodes), bb.dlam_u_prime(lam, nodes)
        wp = wn * pup
        return float(wu @ dpup) * float(wp @ pup) - float(wu @ pup) * float(wp @ dpup)

    lo, _, hi = _log_bracket(misfit, lam0)
    lam = math.exp(brent_root(stationarity, (lo, hi), tol=1e-12).root)
    pup = bb.u_prime(lam, nodes)
    cross, gn_pu = float(wu @ pup), float(wn * pup @ pup)
    return cross / gn_pu, lam, math.sqrt(max(gn_u - cross**2 / gn_pu, 0.0))


def _log_bracket(f, lam0: float):
    """Bracket (lo, mid, hi) in log lam of a minimum of f around lam0.

    Starts at the logs of (0.9, 1, 1.1) lam0 and squares each outer factor
    in turn until f(mid) lies below f at both ends.  At low lam the fit's
    minimum can sit well below u(0)^2, outside the starting triple.
    """
    mid = math.log(lam0)
    f_mid = f(mid)
    ends = []
    for factor in (0.9, 1.1):
        while f(math.log(lam0 * factor)) <= f_mid:
            factor *= factor
            if not 1e-3 <= factor <= 1e3:
                raise RegimeError("fit_bubble: no minimum within 3 decades of u(0)^2")
        ends.append(math.log(lam0 * factor))
    return ends[0], mid, ends[1]


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
    """
    R = u.R
    nodes, wts, uv, upv = u.sample
    pb = bb.pu_center(lam, R)
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


def records_from_sweep(
    solutions,
    probes=(0.3, 0.5, 0.7, 0.9),
    cg: CenterGreens | None = None,
) -> list[SweepRecord]:
    """Full per-rung pipeline: fit, decompose, far field, diagnostics, for
    the rungs of one ladder, which share a and R.  ``cg`` is their a's
    center Green's data, built from the first rung's config when not given.
    Every quadrature reads a rung's sample; only the far field and the Green
    representation's probes evaluate its dense output."""
    out = []
    for u in solutions:
        cg = cg or ga_center(u.config.a, u.R)
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
                pohozaev_residual=u.diagnostics.get("pohozaev_residual", float("nan")),
                greens_residual=greens_rep_residual(u, cg=cg),
                fit_residual=fit_res,
            )
        )
    return out


def beta_gamma_limits(decomps) -> tuple[float, float]:
    """Extrapolate the zero-mode coefficients in lam^{-1}.

    Targets: beta -> (16/3 pi)(phi_a(0) - phi_0(0)) and gamma -> -(8/5) beta.
    """
    if len(decomps) < 3:
        raise ValueError("need at least 3 rungs")
    xs = [1.0 / d.lam for d in decomps]
    b, _, _ = richardson_fit(list(zip(xs, [d.beta for d in decomps])))
    g, _, _ = richardson_fit(list(zip(xs, [d.gamma for d in decomps])))
    return b, g


@dataclass
class RateEntry:
    limit: float
    slope: float
    residual: float
    target: float
    rel_err: float
    passed: bool


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
    passed: bool


@dataclass
class TheoremReport:
    """Every ladder law's verdict.  ``rows`` lists them, one row per law,
    and ``all_passed`` is the AND of those rows."""

    rate: RateEntry
    alpha_slope: RateEntry
    farfield: TrendEntry
    grad_w_bound: BoundEntry
    grad_r_bound: BoundEntry
    sup_w_trend: TrendEntry
    zero_modes: dict[str, LimitEntry]
    center_pinned_by_symmetry: bool = True
    all_passed: bool = field(init=False)

    def __post_init__(self):
        self.all_passed = all(passed for *_, passed in self.rows())

    def rows(self):
        """Yield (check, value, target, passed) for every law, value and
        target as printed."""
        for name, r in (("rate eps*lam", self.rate), ("alpha slope", self.alpha_slope)):
            yield name, f"{r.limit:.6g}", f"{r.target:.6g}", r.passed
        yield ("farfield trend", f"{self.farfield.values[-1]:.3g}",
               f"decreasing, <= {FARFIELD_TOL:g}", self.farfield.decreasing)
        for name, b in (("grad_w bound", self.grad_w_bound),
                        ("grad_r bound", self.grad_r_bound)):
            yield (name, f"{b.max_over_median:.3f}", f"max/median <= {BOUND_FACTOR:g}",
                   b.passed)
        yield ("sup_w trend", f"{self.sup_w_trend.values[-1]:.3g}",
               "decreasing", self.sup_w_trend.decreasing)
        for name, z in self.zero_modes.items():
            yield f"{name} limit", f"{z.limit:.6g}", f"{z.target:.6g}", z.passed


def _trust(records):
    recs = [r for r in records if r.lam >= LAMBDA_TRUST]
    if len(recs) < 3:
        raise RegimeError("need >= 3 rungs inside the asymptotic trust region")
    return sorted(recs, key=lambda r: -r.eps)


def _check_regime(a0: float, qv0: float, cg: CenterGreens | None = None) -> None:
    """Raise RegimeError unless a is critical (``cg.is_critical``, when a's
    center Green's data ``cg`` is given), a(0) < 0 and Q_V(0) < 0, where the
    laws hold (with V = 0 at critical a no rung has a solution to judge)."""
    if cg is not None and not cg.is_critical:
        raise RegimeError(f"the blow-up laws need a critical a, phi_a(0) = 0, "
                          f"not phi_a(0) = {cg.phi_a_at_0:.6g}")
    if a0 >= 0 or qv0 >= 0:
        raise RegimeError(f"the blow-up laws need a(0) < 0 and Q_V(0) < 0, "
                          f"not a(0) = {a0:.6g}, Q_V(0) = {qv0:.6g}")


def verify_rate(records, a0: float, qv0: float) -> RateEntry:
    """Extrapolate eps*lam to eps -> 0 and compare with 4 pi^2 |a(0)|/|Q_V(0)|."""
    _check_regime(a0, qv0)
    recs = _trust(records)
    pairs = [(r.eps, r.eps_lambda) for r in recs]
    L, c, rms = richardson_fit(pairs, quadratic=len(pairs) >= 4)
    target = 4.0 * math.pi**2 * abs(a0) / abs(qv0)
    rel = abs(L - target) / target
    poor = rms > 0.1 * abs(c) * max(r.eps for r in recs) if c != 0 else False
    return RateEntry(
        limit=L,
        slope=c,
        residual=rms,
        target=target,
        rel_err=rel,
        passed=(rel <= RATE_TOL) and not poor,
    )


def verify_alpha(records, a0: float, qv0: float, phi0: float) -> RateEntry:
    """Fit the eps-slope of alpha - 1 and compare with
    (4/3 pi^3) phi_0(0) |Q_V(0)| / |a(0)|."""
    _check_regime(a0, qv0)
    recs = _trust(records)
    pairs = [(r.eps, (r.alpha - 1.0) / r.eps) for r in recs]
    slope, _, rms = richardson_fit(pairs, quadratic=len(pairs) >= 4)
    target = 4.0 / (3.0 * math.pi**3) * phi0 * abs(qv0) / abs(a0)
    rel = abs(slope - target) / target
    return RateEntry(
        limit=slope,
        slope=float("nan"),
        residual=rms,
        target=target,
        rel_err=rel,
        passed=rel <= ALPHA_TOL,
    )


def verify_farfield(
    u: RadialSolution,
    lam: float,
    cg: CenterGreens,
    probes=(0.3, 0.5, 0.7, 0.9),
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


def sup_w_check(records) -> TrendEntry:
    recs = _trust(records)
    vals = [r.sup_w_ratio for r in recs]
    dec = all(b < a for a, b in zip(vals, vals[1:]))
    return TrendEntry(values=vals, decreasing=dec)


def build_report(records, cg: CenterGreens, qv0: float, phi0: float) -> TheoremReport:
    """Assemble the full verification report from ladder records, given a's
    center Green's data ``cg``, Q_V(0) and phi_0(0); the zero-mode targets
    take phi_a(0) = 0.  Raises RegimeError before any fit unless a is
    critical, a(0) < 0 and Q_V(0) < 0."""
    a0 = cg.a_at_0
    _check_regime(a0, qv0, cg)
    rate = verify_rate(records, a0, qv0)
    alpha = verify_alpha(records, a0, qv0, phi0)
    recs = _trust(records)
    ff_vals = [r.farfield_error for r in recs]
    ff_tail = ff_vals[-3:]
    ff = TrendEntry(
        values=ff_vals,
        decreasing=all(b < a for a, b in zip(ff_tail, ff_tail[1:]))
        and ff_vals[-1] <= FARFIELD_TOL,
    )
    gw = _bound_entry([r.norm_grad_w * math.sqrt(r.lam) for r in recs])
    gr = _bound_entry([r.norm_grad_r / (r.eps / math.sqrt(r.lam)) for r in recs])
    sw = sup_w_check(records)
    beta_t = -16.0 * phi0 / (3.0 * math.pi)
    zero_modes = {}
    for name, lim, tgt in zip(("beta", "gamma"), beta_gamma_limits(recs),
                              (beta_t, -(8.0 / 5.0) * beta_t)):
        rel = abs(lim - tgt) / abs(tgt)
        zero_modes[name] = LimitEntry(lim, tgt, rel, rel <= ZERO_MODE_TOL)
    return TheoremReport(
        rate=rate,
        alpha_slope=alpha,
        farfield=ff,
        grad_w_bound=gw,
        grad_r_bound=gr,
        sup_w_trend=sw,
        zero_modes=zero_modes,
    )


def coercivity_probe(
    lam: float,
    a: RadialCoefficient | None,
    R: float = 1.0,
    samples: int = 200,
    seed: int = 7,
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

    pb = bb.pu_center(lam, R)
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

"""Positive radial solutions of -Delta u + (a + eps V) u = 3 u^5 on the ball
by shooting on the center height, with continuation in eps and identity-based
diagnostics (energy identity, dilation Pohozaev identity, Green representation,
Sobolev quotient).

The center height is found by Newton on the endpoint map u(R; M), its
derivative carried by the variational equation as two extra states of a lean
shooting integration (shooting with sensitivities); a bracket scan and Brent
remain as the fallback.  Without a continuation seed, Newton starts from the
blow-up rate law eps lam -> 4 pi^2 |a(0)| / |Q_V(0)| with lam ~ M^2.  The
quadrature integrals ride only on the single final integration of the
converged profile.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import integrate

from .greenfn import (
    BallDomain,
    CenterGreens,
    CoercivityError,
    RadialCoefficient,
    ResonanceError,
    check_coercivity,
    ga_center,
    qv_center,
)
from .numkit import brent_root, radial_quadrature_rule

__all__ = [
    "ProblemConfig",
    "ShootOutcome",
    "RadialSolution",
    "NoBracketError",
    "taylor_start",
    "shoot",
    "solve_profile",
    "sweep",
    "pohozaev_residual",
    "greens_rep_residual",
]

SOBOLEV_CONSTANT = 3.0 * (math.pi / 2.0) ** (4.0 / 3.0)


class NoBracketError(RuntimeError):
    """The shooting scan found no sign change in the endpoint map."""


@dataclass(frozen=True)
class ProblemConfig:
    domain: BallDomain = field(default_factory=BallDomain)
    a: RadialCoefficient = field(
        default_factory=lambda: RadialCoefficient.constant_coeff(-math.pi**2 / 4)
    )
    V: RadialCoefficient = field(
        default_factory=lambda: RadialCoefficient.constant_coeff(-1.0)
    )
    eps: float = 0.0
    shoot_tol: float = 1e-7
    ode_tol: float = 1e-12

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        check_coercivity(self.effective_coefficient(), self.domain.R)

    def effective_coefficient(self) -> RadialCoefficient:
        """a + eps V as a single radial coefficient."""
        a, V, eps = self.a, self.V, self.eps
        if a.is_constant and V.is_constant:
            return RadialCoefficient.constant_coeff(a.constant + eps * V.constant)
        grid = np.linspace(0.0, self.domain.R, 257)
        return RadialCoefficient(
            values=np.asarray(a(grid)) + eps * np.asarray(V(grid)),
            abscissae=grid,
        )

    def m(self, r):
        return np.asarray(self.a(r)) + self.eps * np.asarray(self.V(r))


@dataclass(frozen=True)
class ShootOutcome:
    M: float
    endpoint: float
    first_zero: Optional[float]
    positive: bool


@dataclass
class RadialSolution:
    """Converged positive radial profile with diagnostics.

    ``dense`` evaluates (u, u') at any radius in [delta, R]; below delta the
    Taylor start applies.  Quadrature integrals are carried as augmented
    integrator states for integrator-level accuracy.

    ``diagnostics`` also says how the profile was found: ``seed`` is
    ``"caller"``, ``"rate_law"`` or ``"scan"`` and ``shoot_integrations``
    counts the shooting integrations by phase (bracket, root, finalize).
    """

    config: ProblemConfig
    M: float
    nodes: np.ndarray
    u: np.ndarray
    uprime: np.ndarray
    dense: object
    delta: float
    grad_norm_sq: float
    int_m_u2: float
    int_u6: float
    int_u2: float
    diagnostics: dict = field(default_factory=dict)
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def R(self) -> float:
        return self.config.domain.R

    def _state_at(self, r):
        """(u, u') at r, vectorized over any shape; below delta the Taylor
        start applies.

        The last multi-point evaluation is remembered: the same radii again
        give the same read-only array without a dense evaluation, so the fit,
        the decomposition and the Green representation of a rung sample the
        profile once on their shared quadrature rule.  Single-point calls
        neither use nor replace it.
        """
        r = np.asarray(r, dtype=float)
        if r.size > 1:
            if self._memo is not None and np.array_equal(self._memo[0], r):
                return self._memo[1]
            out = self._evaluate(r)
            out.flags.writeable = False
            self._memo = (r.copy(), out)
            return out
        return self._evaluate(r)

    def _evaluate(self, r):
        out = np.empty((2,) + r.shape)
        small = r <= self.delta
        if np.any(small):
            out[:, small] = taylor_start(self.M, float(self.config.m(0.0)), r[small])
        if np.any(~small):
            out[:, ~small] = self.dense(r[~small])[:2]
        return out

    def u_at(self, r):
        """Dense evaluation of u; vectorized."""
        out = self._state_at(np.atleast_1d(r))[0]
        return float(out[0]) if np.ndim(r) == 0 else out

    def uprime_at(self, r):
        out = self._state_at(np.atleast_1d(r))[1]
        return float(out[0]) if np.ndim(r) == 0 else out

    @property
    def sobolev_quotient(self) -> float:
        """Coefficient-weighted Sobolev quotient
        int(|grad u|^2 + (a + eps V) u^2) / (int u^6)^{1/3}.

        Strictly below the sharp constant in the existence regime and
        increasing toward it as eps decreases; the plain gradient quotient
        (available as ``gradient_quotient``) approaches the sharp constant
        from above."""
        return (self.grad_norm_sq + self.int_m_u2) / self.int_u6 ** (1.0 / 3.0)

    @property
    def gradient_quotient(self) -> float:
        return self.grad_norm_sq / self.int_u6 ** (1.0 / 3.0)

    @property
    def energy_identity_residual(self) -> float:
        """|int(|grad u|^2 + (a + eps V) u^2) - 3 int u^6| / int |grad u|^2.

        The sign of the eps V term follows from integrating the equation
        against u.
        """
        return abs(self.grad_norm_sq + self.int_m_u2 - 3.0 * self.int_u6) / self.grad_norm_sq


def taylor_start(M: float, m: float, delta):
    """Series start at the regular singular point r = 0:
    u = M + (mM - 3M^5) r^2/6 + O(r^4), u' = (mM - 3M^5) r/3 + O(r^3)."""
    delta = np.asarray(delta, dtype=float)
    c = m * M - 3.0 * M**5
    u = M + c * delta**2 / 6.0
    up = c * delta / 3.0
    if np.ndim(delta) == 0:
        return float(u), float(up)
    return u, up


def _coefficient(cfg: ProblemConfig):
    """m = a + eps V for the right-hand sides: a float when constant (hoisted
    out of the integrand), otherwise the effective coefficient's spline."""
    m = cfg.effective_coefficient()
    return m.constant if m.is_constant else m._spline


def _shooting_rhs(m):
    """Lean shooting system (u, u', w, w') with w = du/dM from the
    variational equation w'' = (m - 15 u^4) w - 2 w'/r."""
    const = not callable(m)

    def rhs(r, y):
        u, up, w, wp = y.tolist()
        mr = m if const else float(m(r))
        u4 = u**4
        return [
            up,
            mr * u - 3.0 * u4 * u - 2.0 * up / r,
            wp,
            (mr - 15.0 * u4) * w - 2.0 * wp / r,
        ]

    return rhs


def _finalize_rhs(m):
    """(u, u') with the four quadrature integrals as augmented states."""
    const = not callable(m)

    def rhs(r, y):
        u, up = y[:2].tolist()
        mr = m if const else float(m(r))
        upp = mr * u - 3.0 * u**5 - 2.0 * up / r
        u2 = u * u
        fourpi_r2 = 4.0 * math.pi * r * r
        return [
            up,
            upp,
            fourpi_r2 * up * up,      # int |grad u|^2
            fourpi_r2 * mr * u2,      # int (a + eps V) u^2
            fourpi_r2 * u2**3,        # int u^6
            fourpi_r2 * u2,           # int u^2
        ]

    return rhs


def _zero_event(r, y):
    return y[0]


_zero_event.terminal = True
_zero_event.direction = -1


def _integrate(M: float, cfg: ProblemConfig, finalize: bool = False, events=True):
    """Integrate from the Taylor start at center height M to R: the shooting
    system, or with ``finalize`` the integrals and dense output."""
    R = cfg.domain.R
    delta = 1e-6 * min(1.0, M**-2) if M > 0 else 1e-6
    m = _coefficient(cfg)
    m0 = float(m(0.0)) if callable(m) else m
    u0, up0 = taylor_start(M, m0, delta)
    if finalize:
        rhs, y0 = _finalize_rhs(m), [u0, up0, 0.0, 0.0, 0.0, 0.0]
    else:
        # (w, w') start: the M-derivative of the Taylor start
        c = m0 - 15.0 * M**4
        rhs, y0 = _shooting_rhs(m), [u0, up0, 1.0 + c * delta**2 / 6.0, c * delta / 3.0]
    sol = integrate.solve_ivp(
        rhs,
        (delta, R),
        y0,
        method="DOP853",
        rtol=cfg.ode_tol,
        atol=cfg.ode_tol * max(1.0, M) * 1e-2,
        dense_output=finalize,
        events=_zero_event if events else None,
    )
    if not sol.success and sol.status != 1:
        raise RuntimeError(f"integration failed at M={M:g}: {sol.message}")
    return sol, delta


def shoot(M: float, cfg: ProblemConfig) -> ShootOutcome:
    """Integrate the radial equation from the center height M and report the
    boundary value or the first interior zero crossing."""
    if M <= 0:
        raise ValueError("M must be positive")
    sol, _ = _integrate(M, cfg)
    if sol.status == 1:  # crossed zero
        r0 = float(sol.t_events[0][0])
        return ShootOutcome(M=M, endpoint=float(sol.y[0, -1]), first_zero=r0, positive=False)
    return ShootOutcome(M=M, endpoint=float(sol.y[0, -1]), first_zero=None, positive=True)


def _endpoint_map(M: float, cfg: ProblemConfig) -> float:
    """Continuous shooting functional: u(R) when positive throughout, and a
    negative continuation -u'(r0) (R - r0) past the first interior zero."""
    sol, _ = _integrate(M, cfg)
    if sol.status == 1:
        r0 = float(sol.t_events[0][0])
        up0 = float(sol.y_events[0][0][1])
        return up0 * (cfg.domain.R - r0)
    return float(sol.y[0, -1])


def _find_bracket(
    cfg: ProblemConfig,
    M_lo: float,
    M_hi: float,
    factor: float = 1.3,
    tally: Counter | None = None,
):
    """Geometric scan from M_lo for a sign change of the endpoint map; each
    integration is counted under ``tally["bracket"]`` when given."""
    tally = Counter() if tally is None else tally
    M = M_lo
    f_prev = _endpoint_map(M, cfg)
    tally["bracket"] += 1
    while M < M_hi:
        M_next = M * factor
        f_next = _endpoint_map(M_next, cfg)
        tally["bracket"] += 1
        if f_prev * f_next < 0:
            return (M, M_next)
        M, f_prev = M_next, f_next
    raise NoBracketError(
        f"no sign change of the endpoint map for M in [{M_lo:g}, {M_hi:g}]"
    )


def _newton(
    cfg: ProblemConfig,
    M: float,
    lo: float,
    hi: float,
    max_iter: int = 12,
    tally: Counter | None = None,
):
    """Newton on the endpoint map u(R; M) with du(R)/dM from the variational
    states, integrated to R without the zero event (an iterate just above the
    root crosses zero at r0 ~ R).

    Stops once |dM| <= 1e-9 M, after taking that step, or at the noise floor
    of the root: the integration error in u(R) fixes the root only to about
    1e-12 / |du(R)/dM|, which passes 1e-9 M for lam above ~1e4, so a step
    that no longer halves while |u(R)| <= shoot_tol also ends the iteration.
    Returns None when the slope is not negative, an iterate leaves (lo, hi),
    or there is no convergence in ``max_iter`` steps.  Each integration is
    counted under ``tally["root"]`` when given.
    """
    tally = Counter() if tally is None else tally
    prev = math.inf
    for _ in range(max_iter):
        sol, _ = _integrate(M, cfg, events=False)
        tally["root"] += 1
        uR, wR = float(sol.y[0, -1]), float(sol.y[2, -1])
        if not wR < 0.0:
            return None
        step = -uR / wR
        M += step
        if not lo < M < hi:
            return None
        stalled = abs(step) > 0.5 * prev and abs(uR) <= cfg.shoot_tol
        if abs(step) <= 1e-9 * M or stalled:
            return M
        prev = abs(step)
    return None


def _pde_residual(sol_obj: "RadialSolution") -> float:
    """Scaled sup-norm residual of the radial ODE on sampled interior radii,
    using Richardson finite differences of the dense u' as an independent
    second derivative."""
    cfg = sol_obj.config
    R = cfg.domain.R
    lam_hat = sol_obj.M**2
    rs = np.geomspace(max(10 * sol_obj.delta, 1e-5 / max(lam_hat, 1.0)), 0.98 * R, 60)
    h = np.minimum(1e-4 * (rs + 1.0 / max(lam_hat, 1.0)), 0.45 * rs)
    u, up = sol_obj._state_at(np.stack([rs + h, rs - h, rs + h / 2, rs - h / 2, rs]))
    d1 = (up[0] - up[1]) / (2 * h)
    d2 = (up[2] - up[3]) / h
    upp_fd = (4 * d2 - d1) / 3.0
    rhs = np.asarray(cfg.m(rs)) * u[4] - 3.0 * u[4] ** 5 - 2.0 * up[4] / rs
    res_max = float(np.max(np.abs(upp_fd - rhs)))
    scale = max(float(np.max(np.abs(rhs))), float(np.max(np.abs(upp_fd))))
    return res_max / max(scale, 1.0)


def _finalize(M: float, cfg: ProblemConfig) -> RadialSolution:
    sol, delta = _integrate(M, cfg, finalize=True, events=False)
    u = sol.y[0]
    interior = sol.t < cfg.domain.R * (1.0 - 1e-9)
    if np.any(u[interior] <= -cfg.shoot_tol):
        raise RuntimeError("positivity violated on the interior grid")
    rs = RadialSolution(
        config=cfg,
        M=M,
        nodes=sol.t,
        u=sol.y[0],
        uprime=sol.y[1],
        dense=sol.sol,
        delta=delta,
        grad_norm_sq=float(sol.y[2, -1]),
        int_m_u2=float(sol.y[3, -1]),
        int_u6=float(sol.y[4, -1]),
        int_u2=float(sol.y[5, -1]),
    )
    rs.diagnostics["endpoint"] = float(sol.y[0, -1])
    rs.diagnostics["pde_residual"] = _pde_residual(rs)
    rs.diagnostics["energy_identity_residual"] = rs.energy_identity_residual
    rs.diagnostics["sobolev_quotient"] = rs.sobolev_quotient
    rs.diagnostics["gradient_quotient"] = rs.gradient_quotient
    if cfg.a.is_constant and cfg.V.is_constant:
        rs.diagnostics["pohozaev_residual"] = pohozaev_residual(rs, cfg)
    return rs


def _rate_law_seed(cfg: ProblemConfig) -> float | None:
    """Center height from the blow-up rate law: eps lam -> 4 pi^2 |a(0)| /
    |Q_V(0)| with lam ~ M^2.  None outside the law's regime, where a(0) or
    Q_V(0) is not negative (or Q_V(0) cannot be formed for a alone)."""
    a0 = float(cfg.a(0.0))
    if a0 >= 0:
        return None
    try:
        qv0 = qv_center(cfg.V, cfg.a, cfg.domain.R)
    except (CoercivityError, ResonanceError):  # a alone has no center Green's data
        return None
    if qv0 >= 0:
        return None
    return math.sqrt(4.0 * math.pi**2 * abs(a0) / (abs(qv0) * cfg.eps))


def solve_profile(
    cfg: ProblemConfig,
    M_seed: float | None = None,
    M_scan: tuple[float, float] = (0.5, 1e4),
) -> RadialSolution:
    """Ground-state profile by Newton on the endpoint map u(R; M), with
    bracketing + Brent as the fallback.

    Newton starts from ``M_seed`` (a continuation seed) or, without one,
    from the rate-law height (4 pi^2 |a(0)| / (|Q_V(0)| eps))^{1/2}, and is
    kept inside (0.7, 1.45) times its start; when it fails (non-negative
    slope, an iterate outside that window, or no convergence) Brent runs on
    a bracket scanned in the window, or over ``M_scan`` if the window holds
    none.  Where the rate law does not apply (a(0) >= 0 or Q_V(0) >= 0) a
    bracket scan over ``M_scan`` comes first and Newton starts from its
    lower (positive) end, kept inside the bracket.  Diagnostics are
    populated on the converged profile, with the seed used and the
    shooting integrations by phase.
    """
    if cfg.eps <= 0:
        raise ValueError("existence regime requires eps > 0")
    tally = Counter(bracket=0, root=0, finalize=0)

    def endpoint(M):
        tally["root"] += 1
        return _endpoint_map(M, cfg)

    seed = "caller"
    if M_seed is None:
        M_seed = _rate_law_seed(cfg)
        seed = "scan" if M_seed is None else "rate_law"
    if M_seed is not None:
        lo, hi = 0.7 * M_seed, 1.45 * M_seed
        M = _newton(cfg, M_seed, lo, hi, tally=tally)
        if M is None:
            try:
                bracket = _find_bracket(cfg, lo, hi, factor=1.08, tally=tally)
            except NoBracketError:
                bracket = _find_bracket(cfg, *M_scan, tally=tally)
    else:
        bracket = _find_bracket(cfg, *M_scan, tally=tally)
        M = _newton(cfg, bracket[0], *bracket, tally=tally)
    if M is None:
        M = brent_root(endpoint, bracket, tol=1e-13).root
    rs = _finalize(M, cfg)
    tally["finalize"] += 1
    rs.diagnostics["seed"] = seed
    rs.diagnostics["shoot_integrations"] = dict(tally)
    if abs(rs.diagnostics["endpoint"]) > cfg.shoot_tol:
        raise RuntimeError(
            f"endpoint {rs.diagnostics['endpoint']:.3e} above shoot_tol"
        )
    return rs


def sweep(
    cfg_template: ProblemConfig,
    eps_ladder: Sequence[float],
) -> list[RadialSolution]:
    """Continuation over a decreasing eps ladder; each rung gives the next
    its Newton start through the lam ~ 1/eps scaling of the peak height."""
    eps_ladder = list(eps_ladder)
    if any(e2 >= e1 for e1, e2 in zip(eps_ladder, eps_ladder[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    out: list[RadialSolution] = []
    for eps in eps_ladder:
        M_seed = out[-1].M * math.sqrt(out[-1].config.eps / eps) if out else None
        cfg = ProblemConfig(
            domain=cfg_template.domain,
            a=cfg_template.a,
            V=cfg_template.V,
            eps=eps,
            shoot_tol=cfg_template.shoot_tol,
            ode_tol=cfg_template.ode_tol,
        )
        out.append(solve_profile(cfg, M_seed=M_seed))
    return out


def pohozaev_residual(u: RadialSolution, cfg: ProblemConfig | None = None) -> float:
    """Dilation Pohozaev residual for constant m = a + eps V:

        1/2 int |grad u|^2 + (3/2) m int u^2 - (3/2) int u^6
            + (1/2) oint (x.n) (du/dn)^2  = 0

    normalized by int |grad u|^2."""
    cfg = cfg or u.config
    if not (cfg.a.is_constant and cfg.V.is_constant):
        raise ValueError("dilation identity implemented for constant coefficients")
    m = cfg.a.constant + cfg.eps * cfg.V.constant
    R = cfg.domain.R
    upR = float(u.uprime_at(R))
    boundary = 0.5 * 4.0 * math.pi * R**3 * upR**2
    resid = (
        0.5 * u.grad_norm_sq
        + 1.5 * m * u.int_u2
        - 1.5 * u.int_u6
        + boundary
    )
    return abs(resid) / u.grad_norm_sq


def greens_rep_residual(
    u: RadialSolution,
    cfg: ProblemConfig | None = None,
    probes: Sequence[float] = (0.3, 0.5, 0.7),
    scale: float = 1.0,
    cg: CenterGreens | None = None,
) -> float:
    """Residual of the resolvent representation

        u = (3/4 pi) int G_a u^5 - (eps/4 pi) int G_a V u

    evaluated by solving the radial problem (-Delta + a) z = 3 u^5 - eps V u
    by variation of parameters and comparing z to u at the probe radii,
    normalized by the sup norm of u.  The homogeneous pair is read off the
    center Green's data ``cg`` (built for a when not given): Z1, regular at
    0, and Z2 = v, vanishing at R, with Wronskian Z1 Z2' - Z1' Z2 = -1.  The
    profile is sampled on the same quadrature rule as the fit and the
    decomposition for lam <= 1e6, so a rung's memoised evaluation serves it.
    ``scale`` multiplies the kernel and exists for fault-injection tests of
    the normalization.
    """
    cfg = cfg or u.config
    R = cfg.domain.R
    lam_hat = max(u.M**2, 1.0)
    cg = cg or ga_center(cfg.a, R)

    nodes, wts = radial_quadrature_rule(min(1e-8, 0.01 / lam_hat), R, n_panels=260, n_gauss=12)
    uv = u.u_at(nodes)
    hv = 3.0 * uv**5 - cfg.eps * np.asarray(cfg.V(nodes)) * uv
    F = nodes * hv  # source for the reduced 1d problem
    z1v, z2v = cg.homogeneous_pair(nodes)
    z1p, z2p = cg.homogeneous_pair(np.asarray(probes, dtype=float))

    sup_u = float(np.max(np.abs(u.u)))
    worst = 0.0
    for rp, z1, z2 in zip(probes, z1p, z2p):
        inner = nodes <= rp
        Z = z2 * float(np.sum((wts * z1v * F)[inner])) + z1 * float(
            np.sum((wts * z2v * F)[~inner])
        )
        rep = scale * Z / rp
        worst = max(worst, abs(rep - float(u.u_at(rp))) / sup_u)
    return worst

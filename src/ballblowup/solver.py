"""Positive radial solutions of -Delta u + (a + eps V) u = 3 u^5 on the ball
by shooting on the center height, with identity-based diagnostics (energy
identity, dilation Pohozaev identity, Green representation, Sobolev
quotient).

The center height is found by Newton on the endpoint map u(R; M), its
derivative carried by the variational equation as two extra states of a lean
shooting integration (shooting with sensitivities).  Shooting integrates in
the Emden-Fowler variables t = ln r, w = r^{1/2} u, in which M only shifts a
bubble, so the steps do not shrink as M grows; they start in its core, from
the center power series.  Where the rate law eps lam -> 4 pi^2 |a(0)| /
|Q_V(0)| applies, Newton starts from its height (lam ~ M^2); elsewhere, and
where that start fails, from the lower end of a bracket that a scan of the
same endpoint map finds.  The converged profile is integrated once more,
with dense output and in the same variable t, as (w, v = r^{3/2} u'), and
sampled once on the package's one radial rule
(``numkit.radial_quadrature_rule``), where every quadrature integral of the
profile is taken.  One driver solves the rungs of an eps ladder in
lockstep, their states stacked into one integration per Newton iteration
and one final integration (``solve_ladder``); ``solve_profile`` is the case
of one rung.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import mul
from typing import Iterator, Sequence

import numpy as np

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
from .numkit import ode_solve, radial_quadrature_rule

__all__ = [
    "ProblemConfig",
    "RadialSolution",
    "NoBracketError",
    "taylor_start",
    "solve_profile",
    "solve_ladder",
    "pohozaev_residual",
    "greens_rep_residual",
]

SOBOLEV_CONSTANT = 3.0 * (math.pi / 2.0) ** (4.0 / 3.0)


class NoBracketError(RuntimeError):
    """The shooting scan found no sign change in the endpoint map."""


@dataclass(frozen=True)
class ProblemConfig:
    """One rung.  ``ode_tol`` is the integrations' relative tolerance;
    ``shoot_tol`` bounds |u(R)| and any dip of u below 0, and a Newton step
    that no longer halves ends the root solve once it is below shoot_tol M."""

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
        check_coercivity(self.m, self.domain.R)  # a table off [0, R] raises

    def m(self, r):
        return np.asarray(self.a(r)) + self.eps * np.asarray(self.V(r))

    def m_center(self) -> tuple[list[float], float]:
        """m's Taylor coefficients at 0, and the radius up to which their cubic is m."""
        (pa, ra), (pV, rV) = self.a.center_polynomial(), self.V.center_polynomial()
        return [x + self.eps * y for x, y in zip(pa, pV)], min(ra, rV)


@dataclass
class RadialSolution:
    """Converged positive radial profile with diagnostics.

    ``dense`` evaluates (w, v) = (r^{1/2} u, r^{3/2} u') at any t = ln r in
    [ln delta, ln R]; ``u_at`` and ``uprime_at`` map r to t and undo the
    scaling; at r <= delta the center series applies.  ``sample`` is the
    profile on the package's one radial rule, (nodes, weights, u, u') with
    (nodes, weights) = ``radial_quadrature_rule(M^2, R)``, taken once from
    the dense output when the solution is built.  The four quadrature
    integrals, the bubble fit, the decomposition and the Green
    representation all read it; point probes go to the dense output.

    ``diagnostics`` also says how the profile was found: ``seed`` is
    ``"rate_law"`` when Newton converged from the rate-law height and
    ``"scan"`` when the root came from the bracket scan,
    ``shoot_integrations`` counts the shooting integrations by phase
    (bracket, root, finalize) and ``shoot_steps`` their accepted steps.
    """

    config: ProblemConfig
    M: float
    dense: object
    delta: float
    grad_norm_sq: float = math.nan
    int_m_u2: float = math.nan
    int_u6: float = math.nan
    int_u2: float = math.nan
    diagnostics: dict = field(default_factory=dict)
    sample: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes, weights = radial_quadrature_rule(self.M**2, self.R)
        self.sample = (nodes, weights, *self._state_at(nodes))

    @property
    def R(self) -> float:
        return self.config.domain.R

    def _state_at(self, r):
        """(u, u') at r, vectorized over any shape; at r <= delta the center
        series applies."""
        r = np.asarray(r, dtype=float)
        out = np.empty((2,) + r.shape)
        small = r <= self.delta
        if np.any(small):
            out[:, small] = taylor_start(self.M, self.config.m_center()[0], r[small])[:2]
        if np.any(~small):
            rs = r[~small]
            w, v = self.dense(np.log(rs))
            out[:, ~small] = w / np.sqrt(rs), v / rs**1.5
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


# Integrations start at lam delta = _START_SCALE in the bubble's core, where
# the center series' terms fall by 1e-4 a power of r^2: degree 12 is roundoff.
_START_SCALE = 1e-2
_SERIES_DEGREE = 12


def taylor_start(M: float, m, r):
    """(u, u', z, z') at radii r from the center series u = sum c_j r^j and
    its M-derivative z = sum d_j r^j; m is a + eps V's Taylor coefficients
    at 0, or a constant.  Delta r^{j+2} = (j+2)(j+3) r^j turns
    -Delta u + m u = 3 u^5 into c_{j+2} (j+2)(j+3) = [(m - 3 u^4) u]_j from
    c_0 = M, c_1 = 0, and d_{j+2} (j+2)(j+3) = [(m - 15 u^4) z]_j from d_0 = 1."""
    m, n = np.atleast_1d(m).tolist(), _SERIES_DEGREE + 1
    c, d = [float(M)] + [0.0] * (n - 1), [1.0] + [0.0] * (n - 1)
    u2, u4 = [], []  # the coefficients of u^2 and u^4 known so far
    for j in range(n - 2):
        cj, dj = c[j::-1], d[j::-1]  # c_{j-i} and d_{j-i} for i = 0..j
        u2.append(sum(map(mul, c, cj)))
        u4.append(sum(map(mul, u2, u2[::-1])))
        k = (j + 2) * (j + 3)
        c[j + 2] = (sum(map(mul, m, cj)) - 3.0 * sum(map(mul, u4, cj))) / k
        d[j + 2] = (sum(map(mul, m, dj)) - 15.0 * sum(map(mul, u4, dj))) / k
    r, out = float(r) if np.ndim(r) == 0 else np.asarray(r, dtype=float), []
    for coefs in (c, d):
        p = dp = 0.0  # Horner's rule for the sum and its r-derivative
        for cj in reversed(coefs):
            p, dp = p * r + cj, dp * r + p
        out += (p, dp)
    return tuple(out)


def _rung_coefficients(a: RadialCoefficient, V: RadialCoefficient, epss):
    """m_k = a + eps_k V of stacked rungs that share a and V: a list of
    floats when both are constant, hoisted out of the right-hand sides;
    otherwise a function of r that reads a(r) and V(r) once for every rung."""
    if a.is_constant and V.is_constant:
        return [a.constant + eps * V.constant for eps in epss]

    def ms(r):
        ar, Vr = a.at(r), V.at(r)
        return [ar + eps * Vr for eps in epss]

    return ms


def _rhs(a, V, epss, finalize: bool = False):
    """The stacked rungs' system in t = ln r, rung k's coefficient
    m = a + ``epss[k]`` V.  u = r^{-1/2} w turns the radial equation into
    w'' = (1/4 + m e^{2t} - 3 w^4) w; with m = 0 the bubble of center height
    M is w = (2 cosh(t + 2 ln M))^{-1/2}.  Shooting carries four states a
    rung, (w, w', z, z'), where z = dw/dM solves the variational equation
    z'' = (1/4 + m e^{2t} - 15 w^4) z.  The ``finalize`` carries two, (w, v)
    with v = r^{3/2} u' = w' - w/2, so w' = v + w/2 and
    v' = (m e^{2t} - 3 w^4) w - v/2: v is a state because w' - w/2 cancels
    near the center."""
    ms = _rung_coefficients(a, V, epss)
    hoisted = not callable(ms)
    n = 2 if finalize else 4

    def rhs(t, y):
        vals = y.tolist()
        r = math.exp(t)
        r2 = r * r
        out = []
        for k, m in enumerate(ms if hoisted else ms(r)):
            w, x = vals[n * k : n * k + 2]  # x is w', or v in the finalize
            w4 = w**4
            if finalize:
                out += (x + 0.5 * w, (m * r2 - 3.0 * w4) * w - 0.5 * x)
            else:
                z, zp = vals[n * k + 2 : n * k + 4]
                q = 0.25 + m * r2
                out += (x, (q - 3.0 * w4) * w, zp, (q - 15.0 * w4) * z)
        return out

    return rhs


def _integrate(Ms, cfgs, finalize: bool = False, tol_floor: float = 0.0):
    """Integrate the rungs ``cfgs`` from their center series at heights
    ``Ms`` to R in one stacked solve in t = ln r, from ln delta to ln R;
    return its trajectory and the start delta = 1e-2 / max(1, max(M)^2), at
    most a table's first knot interval.  The rungs share delta and so one
    step sequence, and a and V (``solve_ladder``'s contract); each keeps an
    rtol of tol = max(ode_tol, ``tol_floor``).
    The shooting system starts from sqrt(delta) (u, u/2 + r u') of the
    series and its M-derivative, at an atol of tol 1e-2 sqrt(delta), below
    rtol |w| at the center, and runs always to R, also past an interior
    zero of w.  With ``finalize`` the (w, v) system starts from
    (sqrt(delta) u, delta^{3/2} u') at an atol of tol |y0| per state, with
    dense output."""
    R = cfgs[0].domain.R
    a, V, epss = cfgs[0].a, cfgs[0].V, [cfg.eps for cfg in cfgs]
    ms, exact = zip(*(cfg.m_center() for cfg in cfgs))
    delta = min(_START_SCALE / max(1.0, max(Ms) ** 2), *exact)
    tols = [max(cfg.ode_tol, tol_floor) for cfg in cfgs]
    span = (math.log(delta), math.log(R))
    y0 = []
    for M, m in zip(Ms, ms):
        u0, up0, z0, zp0 = taylor_start(M, m, delta)
        if finalize:
            y0 += (math.sqrt(delta) * u0, delta**1.5 * up0)
        else:
            y0 += [math.sqrt(delta) * x
                   for x in (u0, u0 / 2 + delta * up0, z0, z0 / 2 + delta * zp0)]
    rtol = np.repeat(tols, len(y0) // len(Ms))
    atol = rtol * np.abs(y0) if finalize else rtol * 1e-2 * math.sqrt(delta)
    return ode_solve(_rhs(a, V, epss, finalize), y0, span, rtol, atol=atol,
                     dense=finalize), delta


_PHASES = ("bracket", "root", "finalize")


def _count(tally: Counter, phase: str, traj) -> None:
    """One integration of ``phase`` and its accepted steps, in ``tally``."""
    tally[phase] += 1
    tally[phase + "_steps"] += len(traj.nodes) - 1


# center heights a rung's bracket scan covers, and its geometric factor
_M_SCAN = (0.5, 1e4)
_SCAN_FACTOR = 1.3


def _find_bracket(cfgs, tallies) -> list[tuple[float, float] | NoBracketError]:
    """Per rung of ``cfgs``, a bracket (M, 1.3 M) of a sign change of its
    endpoint map u(R; M), or the NoBracketError it failed with.  The rungs
    scan the heights 0.5 1.3^k up to 1e4 (``_M_SCAN``) together, one stacked
    shooting integration a height, read past any interior zero, each rung
    leaving at its first sign change; each integration is counted under
    "bracket" in the ``tallies`` of the rungs it carries.  A rung whose
    constant m = a + eps V >= -pi^2/(4 R^2) fails before any integration:
    the ball then has no positive solution (Brezis & Nirenberg, Comm. Pure
    Appl. Math. 36, 1983)."""
    out: list = [None] * len(cfgs)
    for k, cfg in enumerate(cfgs):
        if cfg.a.is_constant and cfg.V.is_constant:
            m = cfg.a.constant + cfg.eps * cfg.V.constant
            bound = -math.pi**2 / (4.0 * cfg.domain.R**2)
            if m >= bound:
                out[k] = NoBracketError(f"no positive solution: constant a + eps V = {m:.6g}"
                                        f" >= -pi^2/(4 R^2) = {bound:.6g}")
    M_lo, M_hi = _M_SCAN
    live = [k for k, b in enumerate(out) if b is None]
    prev, M, f_prev = None, M_lo, {}  # rung -> R^{1/2} u(R; prev), of u(R)'s sign
    while live:
        traj, _ = _integrate([M] * len(live), [cfgs[k] for k in live])
        for k, f in zip(live, traj.states[-1, ::4].tolist()):
            _count(tallies[k], "bracket", traj)
            if f_prev.get(k, f) * f < 0:  # no sign change at the first height
                out[k] = (prev, M)
            elif M >= M_hi:
                out[k] = NoBracketError(
                    f"no sign change of the endpoint map for M in [{M_lo:g}, {M_hi:g}]")
            f_prev[k] = f
        live, prev, M = [k for k in live if out[k] is None], M, M * _SCAN_FACTOR
    return out


_LOOSE_TOL = 1e-9  # tol floor of each Newton call's first integration
_NEWTON_STEPS = 12  # Newton steps a rung may take


def _newton(cfgs, Ms, windows, tallies) -> list[float | None]:
    """Newton on the endpoint maps u(R; M) = R^{-1/2} w(ln R; M) of all
    rungs at once, with du(R)/dM from the variational states, integrated to
    R also past an interior zero (an iterate just above the root crosses
    zero at r0 ~ R).  Each rung starts from its entry of ``Ms`` and leaves
    the batch once it stops.

    The first integration runs at tol max(ode_tol, 1e-9), an inexact step
    far from the root; every later one, and every step a rung stops on, at
    ode_tol.  A rung stops after taking a step s with |s| <= 1e-9 M, or with
    K (s/M)^2 <= 1e-12 (quadratic convergence leaves a negligible next step;
    K = r_k / r_{k-1}^2 from its last two relative steps at ode_tol), or at
    the noise floor of its root: the integration error in u(R) fixes the
    root only to about 1e-12 / |du(R)/dM|, which passes 1e-9 M for lam above
    ~1e4, so a step that no longer halves while |s| <= shoot_tol M also ends
    it.  Returns per rung its root, or None when the slope is not negative,
    an iterate leaves its window, or there is no convergence in
    ``_NEWTON_STEPS`` steps; ``tallies[k]`` counts rung k's integrations.
    """
    Ms = list(Ms)
    roots: list[float | None] = [None] * len(Ms)
    prev = [math.inf] * len(Ms)
    rel: list[float | None] = [None] * len(Ms)  # last relative step at ode_tol
    active = list(range(len(Ms)))
    for it in range(_NEWTON_STEPS):
        if not active:
            break
        traj, _ = _integrate([Ms[k] for k in active], [cfgs[k] for k in active],
                             tol_floor=_LOOSE_TOL if it == 0 else 0.0)
        ends = traj.states[-1].tolist()
        running = []
        for j, k in enumerate(active):
            _count(tallies[k], "root", traj)
            wR, zR = ends[4 * j], ends[4 * j + 2]  # R^{1/2} u(R) and R^{1/2} du(R)/dM
            if not zR < 0.0:
                continue
            step = -wR / zR
            M = Ms[k] = Ms[k] + step
            lo, hi = windows[k]
            if not lo < M < hi:
                continue
            prev_step, prev[k] = prev[k], abs(step)
            if it == 0 and cfgs[k].ode_tol < _LOOSE_TOL:  # a loose step stops no rung
                running.append(k)
                continue
            r, r_prev = abs(step) / M, rel[k]
            rel[k] = r
            quadratic = r_prev is not None and r**3 <= 1e-12 * r_prev**2  # K r^2 <= 1e-12
            stalled = abs(step) > 0.5 * prev_step and abs(step) <= cfgs[k].shoot_tol * M
            if abs(step) <= 1e-9 * M or quadratic or stalled:
                roots[k] = M
                continue
            running.append(k)
        active = running
    return roots


def _pde_residual(sol_obj: "RadialSolution") -> float:
    """Scaled sup-norm residual of the radial ODE on radii from 1e-5 / lam
    (on the center series below delta) to 0.98 R, using Richardson finite
    differences of the dense u' as an independent second derivative."""
    cfg = sol_obj.config
    R = cfg.domain.R
    lam_hat = sol_obj.M**2
    rs = np.geomspace(1e-5 / max(lam_hat, 1.0), 0.98 * R, 60)
    h = np.minimum(1e-4 * (rs + 1.0 / max(lam_hat, 1.0)), 0.45 * rs)
    u, up = sol_obj._state_at(np.stack([rs + h, rs - h, rs + h / 2, rs - h / 2, rs]))
    d1 = (up[0] - up[1]) / (2 * h)
    d2 = (up[2] - up[3]) / h
    upp_fd = (4 * d2 - d1) / 3.0
    rhs = np.asarray(cfg.m(rs)) * u[4] - 3.0 * u[4] ** 5 - 2.0 * up[4] / rs
    res_max = float(np.max(np.abs(upp_fd - rhs)))
    scale = max(float(np.max(np.abs(rhs))), float(np.max(np.abs(upp_fd))))
    return res_max / max(scale, 1.0)


def _finalize(Ms, cfgs, tallies, seeds) -> list[RadialSolution | RuntimeError]:
    """Converged rungs in one dense integration, each with a dense output of
    its own rows, its sample on the radial rule and its diagnostics,
    ``seeds[k]`` and ``tallies[k]`` among them.  A rung whose profile dips to
    -shoot_tol on the sample's nodes, all inside the ball, or whose
    endpoint misses ``shoot_tol``, comes back as its error.  Each rung's
    four integrals are taken on its sample."""
    traj, delta = _integrate(Ms, cfgs, finalize=True)
    out = []
    for k, (M, cfg) in enumerate(zip(Ms, cfgs)):
        _count(tallies[k], "finalize", traj)
        rs = RadialSolution(config=cfg, M=M, dense=traj.rows(slice(2 * k, 2 * k + 2)),
                            delta=delta)
        nodes, wts, u, up = rs.sample
        if np.any(u <= -cfg.shoot_tol):
            out.append(RuntimeError("positivity violated at the radial rule's nodes"))
            continue
        endpoint = rs.diagnostics["endpoint"] = float(rs.dense.states[-1, 0] / math.sqrt(rs.R))
        if abs(endpoint) > cfg.shoot_tol:
            out.append(RuntimeError(f"endpoint {endpoint:.3e} above shoot_tol"))
            continue
        rs.diagnostics["pde_residual"] = _pde_residual(rs)
        rs.grad_norm_sq, rs.int_m_u2, rs.int_u6, rs.int_u2 = (np.array(
            [up**2, cfg.m(nodes) * u**2, u**6, u**2]) @ (4.0 * math.pi * wts * nodes**2)).tolist()
        if cfg.a.is_constant and cfg.V.is_constant:
            rs.diagnostics["pohozaev_residual"] = pohozaev_residual(rs)
        tally = tallies[k]
        rs.diagnostics.update(seed=seeds[k], shoot_integrations={p: tally[p] for p in _PHASES},
                              shoot_steps={p: tally[p + "_steps"] for p in _PHASES})
        out.append(rs)
    return out


# a rung's Newton window around its rate-law height
_LAW_WINDOW = (0.7, 1.45)


def _rate_law(cfg: ProblemConfig) -> float | None:
    """The blow-up rate law's limit of eps lam, 4 pi^2 |a(0)| / |Q_V(0)|,
    where it applies: a critical (``CenterGreens.is_critical``),
    a(0) < 0 and Q_V(0) < 0.  None elsewhere, also for a supercritical a,
    whose M stays bounded as eps -> 0.  phi_a(0) and Q_V(0) come from one
    ``ga_center``; neither depends on eps."""
    R = cfg.domain.R
    try:
        cg = ga_center(cfg.a, R)
    except (CoercivityError, ResonanceError):  # a alone has no center Green's data
        return None
    if not cg.is_critical or cg.a_at_0 >= 0:
        return None
    qv0 = qv_center(cfg.V, cfg.a, R, cg=cg)
    if qv0 >= 0:
        return None
    return 4.0 * math.pi**2 * abs(cg.a_at_0) / abs(qv0)


def _solve(cfgs, tallies, law) -> list[RadialSolution | Exception]:
    """Every rung of ``cfgs``, a ladder by ``solve_ladder``'s contract, as its
    profile or the error it failed with; ``tallies[k]`` counts rung k's
    integrations.

    Where the rate law applies (``law``, the limit of eps lam, is not None),
    all rungs run Newton in lockstep, each from its rate-law height
    (law / eps)^{1/2} and kept in ``_LAW_WINDOW`` times it.  The rungs left
    without a root scan for brackets together, one stacked integration a
    height (``_find_bracket``); a rung the scan fails keeps its error, and
    the others run Newton in lockstep, each from its bracket's lower end and
    kept inside the bracket.  One dense integration finalizes every root.
    A step that raises fails its rung when it is the only one; otherwise
    each rung goes through ``_solve`` alone, so a failing rung fails alone."""
    out: list = [None if cfg.eps > 0 else ValueError("existence regime requires eps > 0")
                 for cfg in cfgs]
    try:
        roots, brackets = {}, {}  # rung -> (M, seed), rung -> its bracket
        live = [k for k, e in enumerate(out) if e is None]
        if law is not None:
            starts = [math.sqrt(law / cfgs[k].eps) for k in live]
            found = _newton([cfgs[k] for k in live], starts,
                            [tuple(f * s for f in _LAW_WINDOW) for s in starts],
                            [tallies[k] for k in live])
            roots = {k: (M, "rate_law") for k, M in zip(live, found) if M is not None}
        cold = [k for k in live if k not in roots]
        for k, b in zip(cold, _find_bracket([cfgs[k] for k in cold], [tallies[k] for k in cold])):
            if isinstance(b, NoBracketError):
                out[k] = b
            else:
                brackets[k] = b
        found = _newton([cfgs[k] for k in brackets], [lo for lo, _ in brackets.values()],
                        list(brackets.values()), [tallies[k] for k in brackets])
        for k, M in zip(brackets, found):
            if M is None:
                out[k] = RuntimeError("Newton found no root in the bracket "
                                      "[{:.6g}, {:.6g}]".format(*brackets[k]))
            else:
                roots[k] = (M, "scan")
        done = sorted(roots)
        if done:
            Ms, seeds = zip(*(roots[k] for k in done))
            finals = _finalize(Ms, [cfgs[k] for k in done], [tallies[k] for k in done], seeds)
            for k, rs in zip(done, finals):
                out[k] = rs
    except Exception as e:
        if len(cfgs) == 1:
            return [e]
        return [_solve([cfg], [tally], law)[0] for cfg, tally in zip(cfgs, tallies)]
    return out


def _same_coefficient(c: RadialCoefficient, d: RadialCoefficient) -> bool:
    """c and d are the same coefficient by value: a table's values and
    abscissae may be arrays, and each rung may hold its own instance."""
    return np.array_equal(c.values, d.values) and np.array_equal(c.abscissae, d.abscissae)


def solve_ladder(
    cfgs: Sequence[ProblemConfig],
) -> Iterator[tuple[float, RadialSolution | Exception]]:
    """Ground states of an eps ladder, yielded as ``(eps, profile)`` in
    ladder order, or ``(eps, error)`` for a rung that failed; a failed rung
    does not stop the others.

    The rungs share a, V and the ball, compared by value, and only eps
    varies: a ladder that mixes them raises ValueError.  One driver
    (``_solve``) solves them all in lockstep, with one stacked integration
    per Newton iteration and one dense integration that finalizes every
    root, each rung keeping an ``OdeTrajectory`` of its own rows; the
    canonical ladder takes 3 + 1.  Each profile's
    ``diagnostics["shoot_integrations"]`` and ``["shoot_steps"]`` count the
    integrations that the rung took part in and their steps.
    """
    cfgs = list(cfgs)
    for cfg in cfgs[1:]:
        if cfg.domain != cfgs[0].domain or not (_same_coefficient(cfg.a, cfgs[0].a)
                                                and _same_coefficient(cfg.V, cfgs[0].V)):
            raise ValueError("the rungs of a ladder must share R, a and V")
    law = _rate_law(cfgs[0]) if any(cfg.eps > 0 for cfg in cfgs) else None
    sols = _solve(cfgs, [Counter() for _ in cfgs], law)
    yield from zip([cfg.eps for cfg in cfgs], sols)


def solve_profile(cfg: ProblemConfig) -> RadialSolution:
    """Ground-state profile of one rung: the one-rung ``solve_ladder``,
    raising the rung's error.  Diagnostics are populated on the converged
    profile, with the seed used and the shooting integrations and their
    steps by phase."""
    ((_, rs),) = solve_ladder([cfg])
    if isinstance(rs, Exception):
        raise rs
    return rs


def pohozaev_residual(u: RadialSolution) -> float:
    """Dilation Pohozaev residual for constant m = a + eps V:

        1/2 int |grad u|^2 + (3/2) m int u^2 - (3/2) int u^6
            + (1/2) oint (x.n) (du/dn)^2  = 0

    normalized by int |grad u|^2."""
    cfg = u.config
    m = cfg.a.constant + cfg.eps * cfg.V.constant  # a table raises ValueError
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


def greens_rep_residual(u: RadialSolution, cg: CenterGreens | None = None) -> float:
    """Residual of the resolvent representation

        u = (3/4 pi) int G_a u^5 - (eps/4 pi) int G_a V u

    evaluated by solving the radial problem (-Delta + a) z = 3 u^5 - eps V u
    by variation of parameters and comparing z to u at r = 0.3R, 0.5R, 0.7R,
    normalized by the sup norm of u.  The homogeneous pair is read off the
    center Green's data ``cg`` (built for a when not given): Z1, regular at
    0, and Z2 = v, vanishing at R, with Wronskian Z1 Z2' - Z1' Z2 = -1.  The
    integrals are taken on the rung's sample, the probes on its dense output.
    """
    cfg = u.config
    R = cfg.domain.R
    cg = cg or ga_center(cfg.a, R)

    nodes, wts, uv, _ = u.sample
    hv = 3.0 * uv**5 - cfg.eps * np.asarray(cfg.V(nodes)) * uv
    F = nodes * hv  # source for the reduced 1d problem
    z1v, z2v = cg.homogeneous_pair(nodes)
    probes = (0.3 * R, 0.5 * R, 0.7 * R)
    z1p, z2p = cg.homogeneous_pair(np.asarray(probes))

    sup_u = float(np.max(np.abs(uv)))
    worst = 0.0
    for rp, z1, z2 in zip(probes, z1p, z2p):
        inner = nodes <= rp
        Z = z2 * float(np.sum((wts * z1v * F)[inner])) + z1 * float(
            np.sum((wts * z2v * F)[~inner])
        )
        rep = Z / rp
        worst = max(worst, abs(rep - float(u.u_at(rp))) / sup_u)
    return worst

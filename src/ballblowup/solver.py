"""Positive radial solutions of -Delta u + (a + eps V) u = 3 u^5 on the ball
by shooting on the center height, with identity-based diagnostics (energy
identity, dilation Pohozaev identity, Green representation, Sobolev
quotient).

The center height is found by Newton on the endpoint map u(R; M), its
derivative carried by the variational equation as two extra states of a lean
shooting integration (shooting with sensitivities).  Shooting integrates in
the Emden-Fowler variables t = ln r, w = r^{1/2} u, in which M only shifts a
bubble, so the steps do not shrink as M grows; they start in its core, at
lam r = 0.1, from the center power series.  Where the rate law
eps lam -> 4 pi^2 |a(0)| / |Q_V(0)| applies, Newton starts from its height
(lam ~ M^2); elsewhere, and where that start fails, from the lower end of a
bracket that a scan of the same endpoint map finds; its tolerance tightens
only as fast as its error falls.  The profile (w, v = r^{3/2} u') is read
off the Newton integration a rung stops on, its rows densified
(``numkit.densify``) and carried by the last step s: (w, w' - w/2) +
s (z, z' - z/2), to first order in s.  It is sampled once on the ball's
radial rule (``numkit.radial_quadrature_rule``) for every quadrature
integral.  One driver solves an eps ladder's rungs in lockstep, stacked into
one integration per Newton iteration (``solve_ladder``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import mul
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .greenfn import BlowupLaws, RadialCoefficient, blowup_laws, check_coercivity
from .numkit import OdeTrajectory, densify, ode_solve, radial_quadrature_rule

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
    """One rung on the ball of radius ``R``.  ``ode_tol`` is the
    integrations' relative tolerance; ``shoot_tol`` bounds |u(R)|, any dip
    of u below 0 and, relative to M, the Newton step a root solve ends on.
    The rungs of a ladder share both (``solve_ladder``)."""

    R: float = 1.0
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
        if not self.R > 0:
            raise ValueError("radius must be positive")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        check_coercivity(self.m, self.R)  # a table off [0, R] raises

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
    [ln delta, ln R], from the Newton integration the rung stopped on.
    ``u_at`` and ``uprime_at`` map r to t and undo the scaling; at r <= delta
    the center series applies.  ``sample`` is the profile on the ball's
    radial rule, (nodes, weights, measure, u, u') with the first three
    ``radial_quadrature_rule(R)``, taken once from the dense output.
    The four quadrature integrals, the bubble fit, the decomposition and the
    Green representation all read it; point probes go to the dense output.

    ``diagnostics`` also says how the profile was found: ``seed`` is
    ``"rate_law"`` when Newton converged from the rate-law height and
    ``"scan"`` when the root came from the bracket scan, ``shoot_integrations``
    counts the shooting integrations by phase (bracket, root) and
    ``shoot_steps`` their steps; ``endpoint`` is u(R) of the integration
    Newton stopped on, at the height it ran.
    ``laws`` is the ladder's ``BlowupLaws``, shared by its rungs, or the
    ValueError a alone failed with when it has no center Green's data.
    """

    config: ProblemConfig
    M: float
    dense: object
    delta: float
    grad_norm_sq: float = math.nan
    int_m_u2: float = math.nan
    int_u6: float = math.nan
    int_r_dm_u2: float = math.nan
    diagnostics: dict = field(default_factory=dict)
    laws: BlowupLaws | ValueError | None = None
    sample: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rule = radial_quadrature_rule(self.R)
        self.sample = (*rule, *self._state_at(rule[0]))

    @property
    def R(self) -> float:
        return self.config.R

    def _state_at(self, r):
        """(u, u') at r, vectorized over any shape; at r <= delta the center
        series applies."""
        r = np.asarray(r, dtype=float)
        out = np.empty((2,) + r.shape)
        small = r <= self.delta
        if np.any(small):
            out[:, small] = _horner(_center_series(self.M, self.config.m_center()[0])[0], r[small])
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
# the center series' terms fall by ~5e-3 a power of r^2: degree 16 is roundoff.
_START_SCALE = 1e-1
_SERIES_DEGREE = 16


def taylor_start(M: float, m, r):
    """(u, u', z, z') at radii r from the center series of u and z = du/dM."""
    c, d = _center_series(M, m)
    return _horner(c, r) + _horner(d, r)


def _horner(coefs, r):
    """sum_j coefs[j] r^j and its r-derivative at the radii r, by Horner's rule."""
    r = float(r) if np.ndim(r) == 0 else np.asarray(r, dtype=float)
    p = dp = 0.0
    for cj in reversed(coefs):
        p, dp = p * r + cj, dp * r + p
    return p, dp


def _center_series(M: float, m) -> tuple[list, list]:
    """The coefficients c_j of the center series u = sum c_j r^j and d_j of
    its M-derivative z; m is a + eps V's Taylor coefficients at 0, or a
    constant.  Delta r^{j+2} = (j+2)(j+3) r^j turns
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
    return c, d


def _rhs(a, V, epss):
    """The stacked rungs' shooting system in t = ln r, rung k's coefficient
    m = a + ``epss[k]`` V: floats hoisted out of the calls when a and V are
    constant, else a(r) and V(r) read once a call for every rung.
    u = r^{-1/2} w turns the radial equation into
    w'' = (1/4 + m e^{2t} - 3 w^4) w; with m = 0 the bubble of center height
    M is w = (2 cosh(t + 2 ln M))^{-1/2}.  Each rung carries four states,
    (w, w', z, z'), where z = dw/dM solves the variational equation
    z'' = (1/4 + m e^{2t} - 15 w^4) z."""
    hoisted = a.is_constant and V.is_constant
    ms = [a.constant + eps * V.constant for eps in epss] if hoisted else None

    def rhs(t, y):
        vals = y.tolist()
        r = math.exp(t)
        r2 = r * r
        out = []
        if hoisted:
            m_now = ms
        else:
            ar, Vr = a.at(r), V.at(r)
            m_now = [ar + eps * Vr for eps in epss]
        for m, w, x, z, zp in zip(m_now, vals[0::4], vals[1::4], vals[2::4], vals[3::4]):
            w4 = w**4
            q = 0.25 + m * r2
            out += (x, (q - 3.0 * w4) * w, zp, (q - 15.0 * w4) * z)
        return out

    return rhs


def _integrate(Ms, cfgs, tol_floor: float = 0.0, sensitivities: bool = True):
    """Integrate the rungs ``cfgs`` from their center series at heights
    ``Ms`` to R in one stacked solve in t = ln r, from ln delta to ln R;
    return its trajectory and the start delta = 1e-1 / max(1, max(M)^2), at
    most a table's first knot interval.  The rungs share delta and so one
    step sequence, and a, V and the tolerances (``solve_ladder``'s
    contract), at an rtol of tol = max(ode_tol, ``tol_floor``).  The system
    starts from sqrt(delta) (u, u/2 + r u') of the series and its
    M-derivative, at an atol of tol 1e-2 sqrt(delta), below rtol |w| at the
    center, and runs always to R, also past an interior zero of w, without
    dense output; without ``sensitivities``, z and z' are left out of the
    error control."""
    R = cfgs[0].R
    a, V, epss = cfgs[0].a, cfgs[0].V, [cfg.eps for cfg in cfgs]
    ms, exact = zip(*(cfg.m_center() for cfg in cfgs))
    delta = min(_START_SCALE / max(1.0, max(Ms) ** 2), *exact)
    span = (math.log(delta), math.log(R))
    y0 = []
    for M, m in zip(Ms, ms):
        u0, up0, z0, zp0 = taylor_start(M, m, delta)
        y0 += [math.sqrt(delta) * x for x in (u0, u0 / 2 + delta * up0, z0, z0 / 2 + delta * zp0)]
    tol = max(cfgs[0].ode_tol, tol_floor)
    atol = tol * np.tile([1.0, 1.0] + [1.0 if sensitivities else math.inf] * 2, len(cfgs))
    return ode_solve(_rhs(a, V, epss), y0, span, tol, atol=atol * 1e-2 * math.sqrt(delta)), delta


_PHASES = ("bracket", "root")


def _count(tally: Counter, phase: str, traj) -> None:
    """One integration of ``phase`` and its accepted steps, in ``tally``."""
    tally[phase] += 1
    tally[phase + "_steps"] += len(traj.nodes) - 1


# the center heights a rung's bracket scan covers, as M R^{1/2}, and its factor
_M_SCAN = (0.5, 1e4)
_SCAN_FACTOR = 1.3


def _find_bracket(cfgs, tallies) -> list[tuple[float, float] | NoBracketError]:
    """Per rung of ``cfgs``, a bracket (M, 1.3 M) of a sign change of its
    endpoint map u(R; M), or the NoBracketError it failed with.  The rungs
    scan the heights R^{-1/2} 0.5 1.3^k up to R^{-1/2} 1e4 (``_M_SCAN``)
    together, one stacked shooting integration a height, z and z' out of its
    error control, read past any interior zero, each rung leaving at its
    first sign change; each integration is counted under "bracket" in the
    ``tallies`` of the rungs it carries.  A rung whose constant
    m = a + eps V >= -pi^2/(4 R^2) fails before any integration: the ball
    then has no positive solution (Brezis & Nirenberg, Comm. Pure Appl.
    Math. 36, 1983)."""
    out: list = [None] * len(cfgs)
    for k, cfg in enumerate(cfgs):
        if cfg.a.is_constant and cfg.V.is_constant:
            m = cfg.a.constant + cfg.eps * cfg.V.constant
            bound = -math.pi**2 / (4.0 * cfg.R**2)
            if m >= bound:
                out[k] = NoBracketError(f"no positive solution: constant a + eps V = {m:.6g}"
                                        f" >= -pi^2/(4 R^2) = {bound:.6g}")
    live = [k for k, b in enumerate(out) if b is None]
    if not live:
        return out
    M_lo, M_hi = (M / math.sqrt(cfgs[0].R) for M in _M_SCAN)
    prev, M, f_prev = None, M_lo, {}  # rung -> R^{1/2} u(R; prev), of u(R)'s sign
    while live:
        traj, _ = _integrate([M] * len(live), [cfgs[k] for k in live], sensitivities=False)
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
_FLOOR_LAW = 3e-4  # the second's is _FLOOR_LAW / (lam R)^2, at most _LOOSE_TOL
_NEWTON_STEPS = 12  # Newton steps a rung may take


class _Root(NamedTuple):
    """A rung's root M = ``ran`` + ``step``, the last Newton step from the
    integration at ``ran`` whose densified ``rows`` and ``delta`` it keeps."""

    ran: float
    step: float
    rows: OdeTrajectory
    delta: float


def _newton(cfgs, Ms, windows, tallies) -> list[_Root | str]:
    """Newton on the endpoint maps u(R; M) = R^{-1/2} w(ln R; M) of all
    rungs at once, with du(R)/dM from the variational states, integrated to
    R also past an interior zero (an iterate just above the root crosses
    zero at r0 ~ R).  Each rung starts from its entry of ``Ms`` and leaves
    the batch once it stops.

    The tolerance tightens only as fast as the error falls (inexact Newton:
    Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982).  The first
    integration runs at tol max(ode_tol, 1e-9), a step far from the root.
    An integration at tol leaves the root off by a noise floor that grows
    like tol (lam R)^2, lam = max(M)^2; the second runs at
    max(ode_tol, 3e-4 / (lam R)^2) (``_FLOOR_LAW``), which leaves the
    iterate about 3e-8 off, and every later one at ode_tol.  Only a batch at
    ode_tol stops a rung, on one of two rules: its step s has
    |s| <= shoot_tol M and its |u(R)| <= shoot_tol, so the profile, carried
    to first order in s, is off by about 2.5 (s/M)^2, at roundoff; or
    K (s/M)^2 <= 1e-12, K = r_k / r_{k-1}^2 from its last two relative steps
    at ode_tol (quadratic convergence leaves a negligible next step).  The
    batch a rung stops on, densified (``numkit.densify``) for the rungs that
    stop there only, is its profile.  Returns per rung its ``_Root``, or why
    it found none: its steps, its last relative step, and whether the slope
    was not negative, an iterate left its window or the steps ran out;
    ``tallies[k]`` counts rung k's integrations.
    """
    Ms = list(Ms)
    roots: list = [None] * len(Ms)
    rel: list[float | None] = [None] * len(Ms)  # last relative step at ode_tol
    last = [math.nan] * len(Ms)  # last relative step
    fail = "{} steps, last relative step {:.2g}; {}".format
    active = list(range(len(Ms)))
    for it in range(_NEWTON_STEPS):
        if not active:
            break
        ode_tol, shoot_tol, R = cfgs[0].ode_tol, cfgs[0].shoot_tol, cfgs[0].R
        lam_R = max(Ms[k] for k in active) ** 2 * R
        floor = (_LOOSE_TOL, min(_LOOSE_TOL, _FLOOR_LAW / lam_R**2), 0.0)[min(it, 2)]
        traj, delta = _integrate([Ms[k] for k in active], [cfgs[k] for k in active],
                                 tol_floor=floor)
        ends = traj.states[-1].tolist()
        running, stopped = [], []  # stopped: (column of its rows, rung, ran, step)
        for j, k in enumerate(active):
            _count(tallies[k], "root", traj)
            wR, zR = ends[4 * j], ends[4 * j + 2]  # R^{1/2} u(R) and R^{1/2} du(R)/dM
            if not zR < 0.0:
                roots[k] = fail(it, last[k], "the slope was not negative")
                continue
            ran, step = Ms[k], -wR / zR
            M = Ms[k] = ran + step
            r = last[k] = abs(step) / M
            lo, hi = windows[k]
            if not lo < M < hi:
                roots[k] = fail(it + 1, r, "an iterate left the bracket")
                continue
            if floor > ode_tol:  # a loose step stops no rung
                running.append(k)
                continue
            r_prev, rel[k] = rel[k], r
            quadratic = r_prev is not None and r**3 <= 1e-12 * r_prev**2  # K r^2 <= 1e-12
            if (abs(step) <= shoot_tol * M and abs(wR) <= shoot_tol * math.sqrt(R)) or quadratic:
                stopped.append((4 * j, k, ran, step))
            else:
                running.append(k)
        if stopped:
            rhs = _rhs(cfgs[0].a, cfgs[0].V, [cfgs[k].eps for _, k, _, _ in stopped])
            rows = densify(traj, rhs, np.concatenate([np.arange(j, j + 4) for j, *_ in stopped]))
            for i, (_, k, ran, step) in enumerate(stopped):
                roots[k] = _Root(ran, step, rows.rows(slice(4 * i, 4 * i + 4)), delta)
        active = running
    for k in active:
        roots[k] = fail(_NEWTON_STEPS, last[k], "the steps ran out")
    return roots


def _pde_residual(sol_obj: "RadialSolution") -> float:
    """The defect of the dense output y = (w, v): the largest
    |dy/dt - f(t, y)| / max(|f|, 1) on 60 geometric radii from delta to
    0.98 R, dy/dt the interpolant's own and f = (v + w/2, (m r^2 - 3 w^4) w
    - v/2) with the config's m, written out rather than read from ``_rhs``.
    No probe goes below delta, where the t-form weights the r-form equation
    by r^{5/2} <= (1e-1/lam)^{5/2} and the center series applies."""
    cfg = sol_obj.config
    t = np.linspace(math.log(sol_obj.delta), math.log(0.98 * cfg.R), 60)
    r = np.exp(t)
    w, v = sol_obj.dense(t)
    f = np.array([v + 0.5 * w, (np.asarray(cfg.m(r)) * r**2 - 3.0 * w**4) * w - 0.5 * v])
    return float(np.max(np.abs(sol_obj.dense.derivative(t) - f) / np.maximum(np.abs(f), 1.0)))


def _profile_rows(y, s: float):
    """(w, v = r^{3/2} u') at M + s, to first order in s, of the rows
    (w, w', z, z') at M on y's last axis: (w, w' - w/2) + s (z, z' - z/2)."""
    w, wp, z, zp = np.moveaxis(y, -1, 0)
    return np.stack([w + s * z, (wp - 0.5 * w) + s * (zp - 0.5 * z)], axis=-1)


def _finalize(roots, cfgs, tallies, seeds, laws) -> list[RadialSolution | RuntimeError]:
    """The ``roots``' profiles, integrating nothing: ``_profile_rows`` maps
    each ``_Root``'s states and interpolant coefficients alike to its dense
    output, with the ladder's ``laws`` and diagnostics, ``seeds[k]`` and
    ``tallies[k]`` among them.  A rung whose profile dips to -shoot_tol on
    its sample's nodes, or whose ``endpoint``, u(R) of the integration it
    stopped on (the profile's own is 0), misses ``shoot_tol``, comes back
    as its error.  Each rung's four integrals are taken on its sample."""
    out = []
    for k, (root, cfg) in enumerate(zip(roots, cfgs)):
        ran, step, x, delta = root
        dense = OdeTrajectory(x.nodes, _profile_rows(x.states, step), _profile_rows(x.F, step))
        rs = RadialSolution(config=cfg, M=ran + step, dense=dense, delta=delta, laws=laws)
        nodes, _, measure, u, up = rs.sample
        if np.any(u <= -cfg.shoot_tol):
            out.append(RuntimeError("positivity violated at the radial rule's nodes"))
            continue
        endpoint = rs.diagnostics["endpoint"] = float(x.states[-1, 0] / math.sqrt(rs.R))
        if abs(endpoint) > cfg.shoot_tol:
            out.append(RuntimeError(f"endpoint {endpoint:.3e} above shoot_tol"))
            continue
        rs.diagnostics["pde_residual"] = _pde_residual(rs)
        r_dm = nodes * (cfg.a.slope(nodes) + cfg.eps * cfg.V.slope(nodes))
        rs.grad_norm_sq, rs.int_m_u2, rs.int_u6, rs.int_r_dm_u2 = (np.array(
            [up**2, cfg.m(nodes) * u**2, u**6, r_dm * u**2]) @ measure).tolist()
        rs.diagnostics["pohozaev_residual"] = pohozaev_residual(rs)
        tally = tallies[k]
        rs.diagnostics.update(seed=seeds[k], shoot_integrations={p: tally[p] for p in _PHASES},
                              shoot_steps={p: tally[p + "_steps"] for p in _PHASES})
        out.append(rs)
    return out


# a rung's Newton window around its rate-law height
_LAW_WINDOW = (0.7, 1.45)


def _solve(cfgs, tallies, laws) -> list[RadialSolution | Exception]:
    """Every rung of ``cfgs``, a ladder by ``solve_ladder``'s contract, as its
    profile or the error it failed with; ``tallies[k]`` counts rung k's
    integrations, and each profile carries ``laws``.

    Where the blow-up laws hold (``laws.outside`` is None), all rungs run
    Newton in lockstep, each from its rate-law height (rate / eps)^{1/2},
    with ``laws.rate`` the limit of eps lam, and kept in ``_LAW_WINDOW``
    times it.  The rungs left without a root scan for brackets together,
    one stacked integration a height (``_find_bracket``); a rung the scan
    fails keeps its error, and the others run Newton in lockstep, each from
    its bracket's lower end and kept inside the bracket.  ``_finalize``
    turns every root into its profile.  A step that raises fails its rung
    when it is the only one; otherwise each rung goes through ``_solve``
    alone, so a failing rung fails alone."""
    out: list = [None if cfg.eps > 0 else ValueError("existence regime requires eps > 0")
                 for cfg in cfgs]
    try:
        roots, brackets = {}, {}  # rung -> (_Root, seed), rung -> its bracket
        live = [k for k, e in enumerate(out) if e is None]
        if isinstance(laws, BlowupLaws) and laws.outside is None:
            starts = [math.sqrt(laws.rate / cfgs[k].eps) for k in live]
            found = _newton([cfgs[k] for k in live], starts,
                            [tuple(f * s for f in _LAW_WINDOW) for s in starts],
                            [tallies[k] for k in live])
            roots = {k: (r, "rate_law") for k, r in zip(live, found) if isinstance(r, _Root)}
        cold = [k for k in live if k not in roots]
        for k, b in zip(cold, _find_bracket([cfgs[k] for k in cold], [tallies[k] for k in cold])):
            if isinstance(b, NoBracketError):
                out[k] = b
            else:
                brackets[k] = b
        found = _newton([cfgs[k] for k in brackets], [lo for lo, _ in brackets.values()],
                        list(brackets.values()), [tallies[k] for k in brackets])
        for k, r in zip(brackets, found):
            if isinstance(r, _Root):
                roots[k] = (r, "scan")
            else:
                out[k] = RuntimeError("Newton found no root in the bracket "
                                      "[{:.6g}, {:.6g}]: {}".format(*brackets[k], r))
        done = sorted(roots)
        if done:
            found, seeds = zip(*(roots[k] for k in done))
            finals = _finalize(found, [cfgs[k] for k in done], [tallies[k] for k in done], seeds,
                               laws)
            for k, rs in zip(done, finals):
                out[k] = rs
    except Exception as e:
        if len(cfgs) == 1:
            return [e]
        return [_solve([cfg], [tally], laws)[0] for cfg, tally in zip(cfgs, tallies)]
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

    The rungs share a, V, the ball and the tolerances, a and V compared by
    value, and only eps varies: a ladder that mixes them raises ValueError.
    One driver (``_solve``) solves them all in lockstep, with one stacked
    integration per Newton iteration; each profile is an ``OdeTrajectory``
    of its rung's rows of the one it stopped on, densified (``_newton``).
    The canonical ladder takes 3 integrations.  Each profile's
    ``diagnostics["shoot_integrations"]`` and ``["shoot_steps"]`` count the
    integrations that the rung took part in and their steps.  When some
    rung has eps > 0, the ladder's ``blowup_laws`` are built once: they seed
    the rungs where they hold, and every profile carries them as ``laws``.
    """
    cfgs = list(cfgs)
    for cfg in cfgs[1:]:
        if ((cfg.R, cfg.ode_tol, cfg.shoot_tol) != (cfgs[0].R, cfgs[0].ode_tol, cfgs[0].shoot_tol)
                or not (_same_coefficient(cfg.a, cfgs[0].a)
                        and _same_coefficient(cfg.V, cfgs[0].V))):
            raise ValueError("the rungs of a ladder must share R, a and V, and their tolerances")
    laws = None
    if any(cfg.eps > 0 for cfg in cfgs):
        try:
            laws = blowup_laws(cfgs[0].a, cfgs[0].V, cfgs[0].R)
        except ValueError as e:  # CoercivityError or ResonanceError of a alone
            laws = e
    sols = _solve(cfgs, [Counter() for _ in cfgs], laws)
    yield from zip([cfg.eps for cfg in cfgs], sols)


def solve_profile(cfg: ProblemConfig) -> RadialSolution:
    """Ground-state profile of one rung: the one-rung ``solve_ladder``,
    raising the rung's error."""
    ((_, rs),) = solve_ladder([cfg])
    if isinstance(rs, Exception):
        raise rs
    return rs


def pohozaev_residual(u: RadialSolution) -> float:
    """Dilation Pohozaev residual for m = a + eps V:

        1/2 int |grad u|^2 + (3/2) int m u^2 + (1/2) int r m' u^2
            - (3/2) int u^6 + (1/2) oint (x.n) (du/dn)^2  = 0

    normalized by int |grad u|^2.  m' = a' + eps V' is 0 for a constant and
    the spline's derivative for a table."""
    R = u.R
    boundary = 0.5 * 4.0 * math.pi * R**3 * float(u.uprime_at(R)) ** 2
    resid = (0.5 * u.grad_norm_sq + 1.5 * u.int_m_u2 + 0.5 * u.int_r_dm_u2
             - 1.5 * u.int_u6 + boundary)
    return abs(resid) / u.grad_norm_sq


def greens_rep_residual(u: RadialSolution) -> float:
    """Residual of the resolvent representation

        u = (3/4 pi) int G_a u^5 - (eps/4 pi) int G_a V u

    evaluated by solving the radial problem (-Delta + a) z = 3 u^5 - eps V u
    by variation of parameters and comparing z to u at r = 0.3R, 0.5R, 0.7R,
    normalized by the sup norm of u.  The homogeneous pair is read off a's
    center Green's data in the profile's ``laws``: Z1, regular at 0, and
    Z2 = v, vanishing at R, with Wronskian Z1 Z2' - Z1' Z2 = -1.  The
    integrals are taken on the rung's sample; u, Z1 and Z2 are evaluated at
    all probes in one call each.
    """
    cfg, cg = u.config, u.laws.cg
    nodes, wts, _, uv, _ = u.sample
    F = nodes * (3.0 * uv**5 - cfg.eps * np.asarray(cfg.V(nodes)) * uv)  # the reduced source
    z1v, z2v = cg.homogeneous_pair(nodes)
    g1, g2 = wts * z1v * F, wts * z2v * F
    probes = np.array([0.3, 0.5, 0.7]) * cfg.R
    z1p, z2p = cg.homogeneous_pair(probes)
    reps = [(z2 * float(np.sum(g1[nodes <= rp])) + z1 * float(np.sum(g2[nodes > rp]))) / rp
            for rp, z1, z2 in zip(probes.tolist(), z1p, z2p)]
    return float(np.max(np.abs(np.array(reps) - u.u_at(probes)))) / float(np.max(np.abs(uv)))

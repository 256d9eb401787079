"""Blow-up parameter extraction, decomposition, and the quantitative-law
verifiers."""

import dataclasses
import math

import numpy as np
import pytest

from ballblowup import asympt
from ballblowup.asympt import (
    RegimeError,
    beta_gamma_limits,
    build_report,
    coercivity_probe,
    decompose,
    fit_bubble,
    verify_farfield,
)
from ballblowup.bubble import CenterProjectedBubble, dlam_u_prime, u_prime, _u
from ballblowup.cli import DEFAULT_PROBES
from ballblowup.greenfn import BlowupLaws, RadialCoefficient, blowup_laws, ga_center, qv_center
from ballblowup.numkit import radial_quadrature_rule
from ballblowup.solver import solve_profile

from conftest import CRITICAL_A, make_config

const = RadialCoefficient.constant_coeff

BETA_TARGET = -16.0 / (3.0 * math.pi)
GAMMA_TARGET = 128.0 / (15.0 * math.pi)


class _SyntheticProfile:
    """Minimal stand-in exposing the RadialSolution evaluation surface: its
    sample on the rule at M^2 and its point values."""

    def __init__(self, u_fn, up_fn, M, eps=0.01, R=1.0):
        self._u = u_fn
        self._up = up_fn
        self.M = M
        self.R = R
        self.config = type("C", (), {"eps": eps})()
        nodes, wts = radial_quadrature_rule(M**2, R)
        self.sample = (nodes, wts, self.u_at(nodes), self.uprime_at(nodes))

    def u_at(self, r):
        return self._u(np.asarray(r, dtype=float))

    def uprime_at(self, r):
        return self._up(np.asarray(r, dtype=float))


class TestFitBubble:
    def test_synthetic_round_trip(self):
        lam0, alpha0 = 500.0, 1.01
        pb = CenterProjectedBubble(lam0, 1.0)
        u = _SyntheticProfile(
            lambda r: alpha0 * pb.pu(r),
            lambda r: alpha0 * pb.pu_prime(r),
            M=alpha0 * math.sqrt(lam0) * 0.999,
        )
        alpha, lam, resid = fit_bubble(u)
        assert alpha == pytest.approx(alpha0, rel=1e-6)
        assert lam == pytest.approx(lam0, rel=1e-6)

    def test_stationary_to_rounding(self, canonical_solutions):
        # lam is a root of the stationarity condition, so the misfit is
        # orthogonal to dlam U' to rounding; a minimizer of the flat misfit
        # leaves 1e-10 .. 1e-8 here
        for u in canonical_solutions:
            alpha, lam, _ = fit_bubble(u)
            nodes, wts = radial_quadrature_rule(u.M**2, 1.0)
            wn = 4.0 * math.pi * wts * nodes**2
            upv, dpup = u.uprime_at(nodes), dlam_u_prime(lam, nodes)
            wp = upv / alpha - u_prime(lam, nodes)
            assert abs(wn * wp @ dpup) <= 1e-13 * math.sqrt((wn * upv @ upv) * (wn * dpup @ dpup))

    def test_alpha_to_one(self, canonical_records):
        alphas = [r.alpha for r in canonical_records]
        assert all(abs(b - 1) < abs(a - 1) for a, b in zip(alphas, alphas[1:]))

    def test_lambda_peak_relation(self, canonical_records):
        # |lam_fit - M^2| / lam = O(eps)
        ratios = [abs(r.lam - r.M**2) / r.lam / r.eps for r in canonical_records]
        assert max(ratios) / min(ratios) <= 3.0


def _grad_ip(u, f, g):
    """Gradient inner product 4 pi int f g r^2 dr of radial derivatives f
    and g on u's sample."""
    nodes, wts = u.sample[:2]
    return 4.0 * math.pi * float(np.sum(wts * f * g * nodes**2))


def _split(u, alpha, lam, d):
    """(q, s, r) and their radial derivatives of the split q = s + r that
    ``d`` reports, rebuilt on u's sample from beta, gamma and the public
    bubble functions: w = u/alpha - PU, q = w + lam^{-1/2}(H_a - H_0)(0, .)
    and s = (beta/lam) PU + gamma dlam PU."""
    nodes, _, uv, upv = u.sample
    pb, cg = CenterProjectedBubble(lam, u.R), ga_center(u.config.a, u.R)
    q = uv / alpha - pb.pu(nodes) + (cg.h(nodes) - 1.0 / u.R) / math.sqrt(lam)
    qp = upv / alpha - pb.pu_prime(nodes) + cg.dh(nodes) / math.sqrt(lam)
    s = d.beta / lam * pb.pu(nodes) + d.gamma * pb.dlam_pu(nodes)
    sp = d.beta / lam * pb.pu_prime(nodes) + d.gamma * pb.dlam_pu_prime(nodes)
    return (q, s, q - s), (qp, sp, qp - sp)


def _orthogonality(u, alpha, lam, d):
    """|<r, PU>| / (|r| |PU|) in the gradient inner product."""
    rp = _split(u, alpha, lam, d)[1][2]
    pup = CenterProjectedBubble(lam, u.R).pu_prime(u.sample[0])
    return abs(_grad_ip(u, rp, pup)) / math.sqrt(_grad_ip(u, rp, rp) * _grad_ip(u, pup, pup))


class TestDecompose:
    @pytest.fixture(scope="class")
    @staticmethod
    def decomp(canonical_solutions):
        u = canonical_solutions[-1]
        alpha, lam, _ = fit_bubble(u)
        return u, alpha, lam, decompose(u, alpha, lam, ga_center(const(CRITICAL_A), 1.0))

    def test_orthogonality(self, decomp):
        assert _orthogonality(*decomp) <= 1e-9

    def test_reconstruction(self, decomp):
        # u = alpha (PU + s + r - lam^{-1/2}(H_a - H_0)) against the dense output
        u, alpha, lam, d = decomp
        (_, s, r), _ = _split(*decomp)
        nodes = u.sample[0]
        h_diff = (ga_center(const(CRITICAL_A), 1.0).h(nodes) - 1.0) / math.sqrt(lam)
        rebuilt = alpha * (CenterProjectedBubble(lam, 1.0).pu(nodes) + s + r - h_diff)
        assert np.max(np.abs(rebuilt - u.u_at(nodes))) <= 1e-12 * u.M

    def test_zero_mode_part_dominates(self, decomp):
        # q = s + r with s in the zero-mode span; near the blow-up regime the
        # zero-mode content carries almost all of the gradient energy
        u, _, _, d = decomp
        _, (_, sp, rp) = _split(*decomp)
        assert math.sqrt(_grad_ip(u, rp, rp)) == pytest.approx(d.norm_grad_r, rel=1e-6)
        assert math.sqrt(_grad_ip(u, sp, sp)) > 10 * d.norm_grad_r

    def test_grad_w_bound(self, canonical_records):
        vals = [r.norm_grad_w * math.sqrt(r.lam) for r in canonical_records]
        assert max(vals) / np.median(vals) <= 3.0

    def test_grad_r_bound(self, canonical_records):
        vals = [r.norm_grad_r / (r.eps / math.sqrt(r.lam)) for r in canonical_records]
        assert max(vals) / np.median(vals) <= 3.0

    def test_zero_coefficient_control(self):
        # with a = 0 the regular parts cancel, q = w, and the zero-mode
        # coefficients of a pure projected bubble vanish
        lam0 = 400.0
        pb = CenterProjectedBubble(lam0, 1.0)
        u = _SyntheticProfile(
            lambda r: pb.pu(r), lambda r: pb.pu_prime(r), M=math.sqrt(lam0)
        )
        d = decompose(u, 1.0, lam0, ga_center(const(0.0), 1.0))
        assert abs(d.beta) <= 1e-6
        assert abs(d.gamma) <= 1e-8


    def test_deep_rung(self):
        # lam ~ 1.5e4: the Gram system over {PU, lam dlam PU} stays well
        # conditioned, and the zero-mode coefficients sit near their limits
        eps = 0.001
        u = solve_profile(make_config(eps))
        alpha, lam, _ = fit_bubble(u)
        assert lam > 1e4
        d = decompose(u, alpha, lam, ga_center(const(CRITICAL_A), 1.0))
        assert d.beta == pytest.approx(BETA_TARGET, rel=0.01)
        assert d.gamma == pytest.approx(GAMMA_TARGET, rel=0.01)
        assert _orthogonality(u, alpha, lam, d) <= 1e-9


class TestBetaGamma:
    def test_limits(self, canonical_records):
        b, g = beta_gamma_limits(canonical_records)
        assert b == pytest.approx(BETA_TARGET, rel=1e-2)
        assert g == pytest.approx(GAMMA_TARGET, rel=1e-2)

    def test_gamma_beta_relation(self, canonical_records):
        b, g = beta_gamma_limits(canonical_records)
        assert g == pytest.approx(-1.6 * b, rel=1e-2)

    def test_needs_three_rungs(self, canonical_records):
        with pytest.raises(ValueError):
            beta_gamma_limits(canonical_records[:2])

    def test_is_the_reports_fit(self, canonical_records, canonical_laws):
        # bit for bit the report's beta and gamma limits
        report = build_report(canonical_records, canonical_laws)
        assert beta_gamma_limits(canonical_records) == (report.beta.limit, report.gamma.limit)


class TestVerifiers:
    def test_rate(self, canonical_records, canonical_laws):
        entry = build_report(canonical_records, canonical_laws).rate
        assert entry.passed
        assert entry.limit == pytest.approx(math.pi**3 / 2, rel=0.02)

    @pytest.mark.parametrize("a0, qv0", [(CRITICAL_A, 0.0), (CRITICAL_A, 2 * math.pi),
                                         (0.0, -2 * math.pi)], ids=["qv0=0", "qv0>0", "a0=0"])
    def test_report_refuses_outside_regime(self, canonical_records, critical_cg, a0, qv0):
        # Q_V(0) = 0 leaves no finite rate to judge, and at critical a with
        # V = 0 no rung has a solution: the report refuses such inputs.  A
        # critical table may have a(0) = 0; a constant one cannot.
        cg = dataclasses.replace(critical_cg, a_at_0=a0)
        with pytest.raises(RegimeError, match=r"a\(0\) < 0 and Q_V\(0\) < 0"):
            build_report(canonical_records, BlowupLaws(cg, qv0))

    def test_report_refuses_noncritical_a(self, canonical_records, monkeypatch):
        # a = -2.48 has phi_a(0) < 0 and negative a(0) and Q_V(0): only the
        # criticality test stands between its data and the fits
        monkeypatch.setattr(asympt, "_limit_entry", lambda *args: pytest.fail("fitted"))
        cg = ga_center(const(-2.48), 1.0)
        with pytest.raises(RegimeError, match=r"phi_a\(0\) = -"):
            build_report(canonical_records, BlowupLaws(cg, qv_center(const(-1.0), cg)))

    def test_alpha(self, canonical_records, canonical_laws):
        entry = build_report(canonical_records, canonical_laws).alpha_slope
        assert entry.passed
        assert entry.limit == pytest.approx(32 / (3 * math.pi**4), rel=0.05)

    def test_alpha_refuses_noncritical(self, canonical_records, critical_cg, monkeypatch):
        # the alpha slope is judged only where the laws hold: a(0) = 0 stops
        # the report before its fit
        monkeypatch.setattr(asympt, "_limit_entry", lambda *args: pytest.fail("fitted"))
        laws = BlowupLaws(dataclasses.replace(critical_cg, a_at_0=0.0), -2 * math.pi)
        with pytest.raises(RegimeError):
            build_report(canonical_records, laws)

    def test_farfield_synthetic_exact(self):
        lam0 = 300.0
        cg = ga_center(const(CRITICAL_A), 1.0)
        u = _SyntheticProfile(
            lambda r: np.asarray(cg.g(r)) / math.sqrt(lam0),
            lambda r: None,
            M=math.sqrt(lam0),
        )
        assert verify_farfield(u, lam0, cg, DEFAULT_PROBES) <= 1e-12

    def test_farfield_decreasing(self, canonical_records):
        vals = [r.farfield_error for r in canonical_records]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 0.1

    def test_sup_w_decreasing(self, canonical_records, canonical_laws):
        assert build_report(canonical_records, canonical_laws).sup_w_trend.decreasing

    def test_sup_w_log_detector(self, canonical_records, canonical_laws):
        # synthetic ratio ~ 1/ln(lam): decreasing, detector must accept
        recs = [
            dataclasses.replace(r, sup_w_ratio=1.0 / math.log(r.lam))
            for r in canonical_records
        ]
        assert build_report(recs, canonical_laws).sup_w_trend.decreasing

    def test_sup_w_constant_guard(self, canonical_records, canonical_laws):
        recs = [
            dataclasses.replace(r, sup_w_ratio=0.5) for r in canonical_records
        ]
        assert not build_report(recs, canonical_laws).sup_w_trend.decreasing

    def test_rate_expansion_consistency(self, canonical_records):
        # pi a(0) lam^{-1} - (eps/4 pi) Q_V(0) -> 0 along the ladder:
        # the two terms approach a ratio of one
        ratios = []
        for r in canonical_records:
            t1 = math.pi * abs(CRITICAL_A) / r.lam
            t2 = r.eps * (2 * math.pi) / (4 * math.pi)
            ratios.append(t1 / t2)
        errs = [abs(x - 1) for x in ratios]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 0.01


class TestReportRows:
    @staticmethod
    def rows(records):
        report = build_report(records, blowup_laws(const(CRITICAL_A), const(-1.0), 1.0))
        return {check: (value, target, passed) for check, value, target, passed in report.rows()}

    @pytest.mark.parametrize("tol, factor", [(0.1, 3.0), (1e-4, 1.01)])
    def test_rows_name_the_bound_they_judge(self, canonical_records, monkeypatch, tol, factor):
        # far field 5.6e-4, grad_w 1.001, grad_r 1.036 on the canonical
        # records: the second pair fails the far field and grad_r
        monkeypatch.setattr(asympt, "FARFIELD_TOL", tol)
        monkeypatch.setattr(asympt, "BOUND_FACTOR", factor)
        rows = self.rows(canonical_records)
        value, target, passed = rows["farfield trend"]
        assert target == f"decreasing, <= {tol:g}"
        assert passed == (float(value) <= tol)
        for name in ("grad_w bound", "grad_r bound"):
            value, target, passed = rows[name]
            assert target == f"max/median <= {factor:g}"
            assert passed == (float(value) <= factor)

    @pytest.mark.parametrize("tol, checks", [
        ("RATE_TOL", ["rate eps*lam"]),
        ("ALPHA_TOL", ["alpha slope"]),
        ("ZERO_MODE_TOL", ["beta limit", "gamma limit"]),
    ])
    def test_limit_rows_judge_their_tolerance(self, canonical_records, monkeypatch, tol, checks):
        # these rows name their target value; the tolerance on its relative
        # error is the module constant, and a zero tolerance fails the row
        monkeypatch.setattr(asympt, tol, 0.0)
        rows = self.rows(canonical_records)
        assert [c for c, (_, _, passed) in rows.items() if not passed] == checks

    @pytest.mark.parametrize("law", ["alpha_slope", "beta", "gamma"])
    def test_rough_fit_fails_its_row(self, canonical_records, canonical_laws, law):
        # the record values moved orthogonally to the fit's columns: the
        # limit stays, the rms goes to twice FIT_RMS_FACTOR |c| max(x), and
        # that row alone fails
        name, check, x, quadratic, value, _ = dict((l[0], l) for l in asympt._LIMIT_LAWS)[law]
        xs = np.array([asympt._ABSCISSAE[x](r) for r in canonical_records])
        y = np.array([value(r) for r in canonical_records])
        cols = np.vander(xs, 3 if quadratic else 2, increasing=True)
        fit = np.linalg.lstsq(cols, y, rcond=None)[0]
        v = (-1.0) ** np.arange(len(xs))
        v -= cols @ np.linalg.lstsq(cols, v, rcond=None)[0]
        guard = asympt.FIT_RMS_FACTOR * abs(fit[1]) * xs.max()
        t = math.copysign(2 * guard * math.sqrt(len(xs)) / np.linalg.norm(v), (y - cols @ fit) @ v)
        moved = {"alpha_slope": lambda r, d: {"alpha": 1.0 + r.eps * (value(r) + d)},
                 "beta": lambda r, d: {"beta": r.beta + d},
                 "gamma": lambda r, d: {"gamma": r.gamma + d}}[law]
        recs = [dataclasses.replace(r, **moved(r, float(d)))
                for r, d in zip(canonical_records, t * v)]
        before = getattr(build_report(canonical_records, canonical_laws), name)
        report = build_report(recs, canonical_laws)
        entry = getattr(report, name)
        assert entry.limit == pytest.approx(before.limit, rel=1e-9)
        assert before.passed and before.residual < guard < entry.residual
        assert [c for c, _, _, passed in report.rows() if not passed] == [check]

    def test_rungs_are_the_trust_region(self, canonical_records, canonical_laws):
        # every row reads the rungs with lam >= LAMBDA_TRUST, by decreasing eps
        assert build_report(canonical_records, canonical_laws).rungs == [0.04, 0.02, 0.01, 0.005]
        low = [dataclasses.replace(canonical_records[0], lam=50.0), *canonical_records[1:]]
        assert build_report(low[::-1], canonical_laws).rungs == [0.02, 0.01, 0.005]


def coercivity_by_loop(lam, a, R, samples=200, seed=7, n_modes=8):
    """The probe one sample at a time, projecting and integrating each
    sampled field: the reference for the quadratic-form probe."""

    def ip(wts, nodes, f, g):
        return 4.0 * math.pi * float(np.sum(wts * f * g * nodes**2))

    rng = np.random.default_rng(seed)
    nodes, wts = radial_quadrature_rule(lam, R)
    r2 = nodes**2
    pb = CenterProjectedBubble(lam, R)
    basis_p = [pb.pu_prime(nodes), pb.dlam_pu_prime(nodes)]
    basis_v = [pb.pu(nodes), pb.dlam_pu(nodes)]
    G = np.array([[ip(wts, nodes, bi, bj) for bj in basis_p] for bi in basis_p])
    ks = np.array([j * math.pi / R for j in range(1, n_modes + 1)])
    mode_v = np.sinc(ks[:, None] * nodes[None, :] / math.pi)
    kr = ks[:, None] * nodes[None, :]
    mode_p = (np.cos(kr) - np.sinc(kr / math.pi)) / nodes[None, :]
    u4 = _u(lam, nodes) ** 4
    a_vals = np.asarray(a(nodes)) if a is not None else 0.0
    worst = math.inf
    for _ in range(samples):
        c = rng.standard_normal(n_modes)
        v = c @ mode_v
        vp = c @ mode_p
        rhs = np.array([ip(wts, nodes, vp, bp) for bp in basis_p])
        coef = np.linalg.solve(G, rhs)
        v = v - coef[0] * basis_v[0] - coef[1] * basis_v[1]
        vp = vp - coef[0] * basis_p[0] - coef[1] * basis_p[1]
        grad = ip(wts, nodes, vp, vp)
        mass = 4.0 * math.pi * float(np.sum(wts * a_vals * v**2 * r2))
        pot = 60.0 * math.pi * float(np.sum(wts * u4 * v**2 * r2))
        worst = min(worst, (grad + mass - pot) / grad)
    return worst


class TestCoercivity:
    @pytest.mark.parametrize("R", [1.0, 2.0])
    def test_quadratic_forms_match_sample_loop(self, R):
        a = const(CRITICAL_A / R**2)
        for seed in (7, 41):
            fast = coercivity_probe(1e3 / R, a, R, samples=200, seed=seed)
            ref = coercivity_by_loop(1e3 / R, a, R, samples=200, seed=seed)
            assert fast == pytest.approx(ref, rel=1e-13, abs=0)
        fast = coercivity_probe(1.0, None, 50.0, samples=200, seed=7)
        assert fast == pytest.approx(coercivity_by_loop(1.0, None, 50.0), rel=1e-13, abs=0)

    def test_positive_at_critical(self):
        rho = coercivity_probe(1e3, const(CRITICAL_A), 1.0, samples=200, seed=7)
        assert rho > 0

    def test_whole_space_control(self):
        rho = coercivity_probe(1.0, None, 50.0, samples=200, seed=7)
        assert rho >= 4.0 / 7.0 - 0.02

    def test_unorthogonalized_pu_negative(self):
        # v = PU without removing the zero modes: the quadratic form is
        # negative, confirming the projection is essential
        lam, R = 1e3, 1.0
        nodes, wts = radial_quadrature_rule(lam, R)
        pb = CenterProjectedBubble(lam, R)
        grad = 4 * math.pi * np.sum(wts * pb.pu_prime(nodes) ** 2 * nodes**2)
        mass = 4 * math.pi * np.sum(wts * CRITICAL_A * pb.pu(nodes) ** 2 * nodes**2)
        pot = 4 * math.pi * np.sum(
            wts * 15.0 * _u(lam, nodes) ** 4 * pb.pu(nodes) ** 2 * nodes**2
        )
        assert (grad + mass - pot) / grad < 0

"""Blow-up parameter extraction, decomposition, and the quantitative-law
verifiers."""

import dataclasses
import math

import numpy as np
import pytest

from ballblowup.asympt import (
    RegimeError,
    beta_gamma_limits,
    coercivity_probe,
    decompose,
    fit_bubble,
    sup_w_check,
    verify_alpha,
    verify_farfield,
    verify_rate,
)
from ballblowup.bubble import dlam_u_prime, pu_center, u_prime, _u
from ballblowup.greenfn import RadialCoefficient, ga_center
from ballblowup.numkit import radial_quadrature_rule
from ballblowup.solver import solve_profile

from conftest import CRITICAL_A, make_config

const = RadialCoefficient.constant_coeff

BETA_TARGET = -16.0 / (3.0 * math.pi)
GAMMA_TARGET = 128.0 / (15.0 * math.pi)


class _SyntheticProfile:
    """Minimal stand-in exposing the RadialSolution evaluation surface."""

    def __init__(self, u_fn, up_fn, M, eps=0.01, R=1.0):
        self._u = u_fn
        self._up = up_fn
        self.M = M
        self.R = R
        self.config = type("C", (), {"eps": eps})()

    def u_at(self, r):
        return self._u(np.asarray(r, dtype=float))

    def uprime_at(self, r):
        return self._up(np.asarray(r, dtype=float))


class TestFitBubble:
    def test_synthetic_round_trip(self):
        lam0, alpha0 = 500.0, 1.01
        pb = pu_center(lam0, 1.0)
        u = _SyntheticProfile(
            lambda r: alpha0 * pb.pu(r),
            lambda r: alpha0 * pb.pu_prime(r),
            M=alpha0 * math.sqrt(lam0) * 0.999,
        )
        alpha, lam, resid = fit_bubble(u, 1.0)
        assert alpha == pytest.approx(alpha0, rel=1e-6)
        assert lam == pytest.approx(lam0, rel=1e-6)

    def test_stationary_to_rounding(self, canonical_solutions):
        # lam is a root of the stationarity condition, so the misfit is
        # orthogonal to dlam U' to rounding; a minimizer of the flat misfit
        # leaves 1e-10 .. 1e-8 here
        for u in canonical_solutions:
            alpha, lam, _ = fit_bubble(u, 1.0)
            nodes, wts = radial_quadrature_rule(min(1e-8, 0.02 / u.M**2), 1.0, 260, 12)
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


class TestDecompose:
    @pytest.fixture(scope="class")
    @staticmethod
    def decomp(canonical_solutions):
        u = canonical_solutions[-1]
        alpha, lam, _ = fit_bubble(u, 1.0)
        return u, alpha, lam, decompose(u, alpha, lam, const(CRITICAL_A), 1.0)

    def test_orthogonality(self, decomp):
        _, _, _, d = decomp
        assert d.ortho_residual <= 1e-9

    def test_reconstruction(self, decomp):
        u, alpha, lam, d = decomp
        pb = pu_center(lam, 1.0)
        rebuilt = alpha * (pb.pu(d.nodes) + d.w)
        assert np.max(np.abs(rebuilt - u.u_at(d.nodes))) <= 1e-12 * u.M

    def test_q_split_exact(self, decomp):
        _, _, _, d = decomp
        assert np.max(np.abs(d.s + d.r - d.q)) <= 1e-14

    def test_zero_mode_part_dominates(self, decomp):
        # q = s + r with s in the zero-mode span; near the blow-up regime the
        # zero-mode content carries almost all of the gradient energy
        _, _, _, d = decomp
        assert d.norm_grad_s > 10 * d.norm_grad_r

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
        pb = pu_center(lam0, 1.0)
        u = _SyntheticProfile(
            lambda r: pb.pu(r), lambda r: pb.pu_prime(r), M=math.sqrt(lam0)
        )
        d = decompose(u, 1.0, lam0, const(0.0), 1.0)
        assert abs(d.beta) <= 1e-6
        assert abs(d.gamma) <= 1e-8


    def test_deep_rung(self):
        # lam ~ 1.5e4: the Gram system over {PU, lam dlam PU} stays well
        # conditioned, and the zero-mode coefficients sit near their limits
        eps = 0.001
        u = solve_profile(make_config(eps), M_seed=math.sqrt(math.pi**3 / (2 * eps)))
        alpha, lam, _ = fit_bubble(u, 1.0)
        assert lam > 1e4
        d = decompose(u, alpha, lam, const(CRITICAL_A), 1.0)
        assert d.beta == pytest.approx(BETA_TARGET, rel=0.01)
        assert d.gamma == pytest.approx(GAMMA_TARGET, rel=0.01)
        assert d.ortho_residual <= 1e-9


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


class TestVerifiers:
    def test_rate(self, canonical_records):
        entry = verify_rate(canonical_records, CRITICAL_A, -2 * math.pi)
        assert entry.passed
        assert entry.limit == pytest.approx(math.pi**3 / 2, rel=0.02)

    def test_rate_divergent_flag(self, canonical_records):
        # with Q_V = 0 the product eps*lam must diverge; the canonical
        # records have increasing eps*lam so the verdict is "diverging"
        entry = verify_rate(canonical_records, CRITICAL_A, 0.0)
        assert entry.diverging and entry.passed
        assert math.isinf(entry.limit)

    def test_alpha(self, canonical_records):
        entry = verify_alpha(canonical_records, CRITICAL_A, -2 * math.pi, 1.0)
        assert entry.passed
        assert entry.limit == pytest.approx(32 / (3 * math.pi**4), rel=0.05)

    def test_alpha_refuses_noncritical(self, canonical_records):
        with pytest.raises(RegimeError):
            verify_alpha(canonical_records, 0.0, -2 * math.pi, 1.0)

    def test_farfield_synthetic_exact(self):
        lam0 = 300.0
        cg = ga_center(const(CRITICAL_A), 1.0)
        u = _SyntheticProfile(
            lambda r: np.asarray(cg.g(r)) / math.sqrt(lam0),
            lambda r: None,
            M=math.sqrt(lam0),
        )
        assert verify_farfield(u, lam0, cg) <= 1e-12

    def test_farfield_decreasing(self, canonical_records):
        vals = [r.farfield_error for r in canonical_records]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 0.1

    def test_sup_w_decreasing(self, canonical_records):
        assert sup_w_check(canonical_records).decreasing

    def test_sup_w_log_detector(self, canonical_records):
        # synthetic ratio ~ 1/ln(lam): decreasing, detector must accept
        recs = [
            dataclasses.replace(r, sup_w_ratio=1.0 / math.log(r.lam))
            for r in canonical_records
        ]
        assert sup_w_check(recs).decreasing

    def test_sup_w_constant_guard(self, canonical_records):
        recs = [
            dataclasses.replace(r, sup_w_ratio=0.5) for r in canonical_records
        ]
        assert not sup_w_check(recs).decreasing

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


def coercivity_by_loop(lam, a, R, samples=200, seed=7, n_modes=8):
    """The probe one sample at a time, projecting and integrating each
    sampled field: the reference for the quadratic-form probe."""

    def ip(wts, nodes, f, g):
        return 4.0 * math.pi * float(np.sum(wts * f * g * nodes**2))

    rng = np.random.default_rng(seed)
    nodes, wts = radial_quadrature_rule(min(1e-8, 0.02 / lam), R, 220, 10)
    r2 = nodes**2
    pb = pu_center(lam, R)
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
            assert fast == pytest.approx(ref, rel=1e-13)
        fast = coercivity_probe(1.0, None, 50.0, samples=200)
        assert fast == pytest.approx(coercivity_by_loop(1.0, None, 50.0), rel=1e-13)

    def test_positive_at_critical(self):
        rho = coercivity_probe(1e3, const(CRITICAL_A), 1.0, samples=200)
        assert rho > 0

    def test_whole_space_control(self):
        rho = coercivity_probe(1.0, None, 50.0, samples=200)
        assert rho >= 4.0 / 7.0 - 0.02

    def test_unorthogonalized_pu_negative(self):
        # v = PU without removing the zero modes: the quadratic form is
        # negative, confirming the projection is essential
        lam, R = 1e3, 1.0
        nodes, wts = radial_quadrature_rule(min(1e-8, 0.02 / lam), R, 260, 12)
        pb = pu_center(lam, R)
        grad = 4 * math.pi * np.sum(wts * pb.pu_prime(nodes) ** 2 * nodes**2)
        mass = 4 * math.pi * np.sum(wts * CRITICAL_A * pb.pu(nodes) ** 2 * nodes**2)
        pot = 4 * math.pi * np.sum(
            wts * 15.0 * _u(lam, nodes) ** 4 * pb.pu(nodes) ** 2 * nodes**2
        )
        assert (grad + mass - pot) / grad < 0

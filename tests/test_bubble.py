"""Bubble family, projected bubble, tail function, and the integral-identity
suites."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballblowup import bubble
from ballblowup.bubble import (
    B3_LAMS,
    _b3_integrals,
    _ball_integral,
    calculus_verdict,
    dlam_u_prime,
    g,
    grad_dlambda_pu_norm,
    lemma_b3_suite,
    pu_center,
    u_prime,
    _du_dlam,
    _u,
)
from ballblowup.greenfn import CenterGreens, RadialCoefficient, critical_a, ga_center
from ballblowup.numkit import radial_quadrature_rule

from conftest import quad_oracle

const = RadialCoefficient.constant_coeff


class TestPointwise:
    def test_peak_value(self):
        assert _u(7.0, 0.0) == pytest.approx(math.sqrt(7.0), rel=1e-14, abs=0)

    def test_dlambda_at_peak(self):
        assert _du_dlam(7.0, 0.0) == pytest.approx(0.5 / math.sqrt(7.0), rel=1e-14, abs=0)

    @given(
        lam=st.floats(min_value=0.5, max_value=50.0),
        r=st.floats(min_value=0.0, max_value=math.sqrt(3.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling(self, lam, r):
        assert _u(lam, r) == pytest.approx(math.sqrt(lam) * _u(1.0, lam * r), rel=1e-12, abs=0)

    def test_translation_derivative(self):
        # moving the center x of U_{x,lam}(y) = U(|y - x|) gives the
        # translation mode d_{x_i} U = -U'(r) y_i / r at x = 0, the form
        # the B3 suite integrates
        lam = 3.0
        y = np.array([0.2, 0.1, -0.3])
        r = np.linalg.norm(y)
        h = 1e-6
        for i in range(3):
            e = h * np.eye(3)[i]
            fd = (_u(lam, np.linalg.norm(y - e)) - _u(lam, np.linalg.norm(y + e))) / (2 * h)
            assert -u_prime(lam, r) * y[i] / r == pytest.approx(fd, rel=1e-8)

    def test_whole_space_equation(self):
        # -Delta U = 3 U^5 via the closed forms: u'' + (2/r) u' + 3 u^5 = 0
        for lam in (1.0, 100.0, 1e4):
            for r in np.geomspace(1e-3 / lam, 1.0, 20):
                s = 1.0 + lam**2 * r**2
                upp = -(lam**2.5) * (1.0 - 2.0 * lam**2 * r**2) / s**2.5
                res = upp + 2.0 * u_prime(lam, r) / r + 3.0 * _u(lam, r) ** 5
                assert abs(res) <= 1e-9 * lam**2.5


class TestProjectedBubble:
    def test_boundary_zero(self):
        pb = pu_center(250.0, 1.0)
        assert pb.pu(1.0) == 0.0

    def test_f_residual_decay(self):
        # correction - lam^{-1/2}/R = -lam^{-5/2}/(2 R^3) + O(lam^{-9/2})
        for lam in (1e2, 1e3):
            pb = pu_center(lam, 1.0)
            residual = pb.correction - 1.0 / (math.sqrt(lam) * pb.R)
            assert residual * lam**2.5 == pytest.approx(-0.5, rel=2e-4)

    def test_grad_norm_limit(self):
        lams = np.geomspace(1e2, 1e4, 5)
        vals = [pu_center(l, 1.0).grad_norm_sq() for l in lams]
        from ballblowup.numkit import richardson_fit

        L, c, _ = richardson_fit(list(zip(1 / lams, vals)))
        assert L == pytest.approx(3 * math.pi**2 / 4, rel=1e-3)
        # O(lam^{-1}) defect: the linear coefficient is an O(1) number
        assert abs(c) < 100

    def test_weak_form_against_h_difference(self):
        # Integration by parts of the projected-bubble equation: for any
        # smooth radial v vanishing at R, 3 int U^5 v = int grad PU . grad v.
        # Use v = psi - PU = -lam^{-1/2}(H_a - H_0)(0, .).
        lam, R = 300.0, 1.0
        cg = ga_center(const(-1.0), R)
        nodes, wts = radial_quadrature_rule(lam, R)

        v = -(cg.h(nodes) - 1.0 / R) / math.sqrt(lam)
        vp = -cg.dh(nodes) / math.sqrt(lam)
        lhs = 4 * math.pi * np.sum(wts * 3 * _u(lam, nodes) ** 5 * v * nodes**2)
        rhs = 4 * math.pi * np.sum(wts * u_prime(lam, nodes) * vp * nodes**2)
        assert lhs == pytest.approx(rhs, rel=1e-6)


class TestPsi:
    """psi = PU - lam^{-1/2} (H_a - H_0)(0, .), whose H-difference is
    ``CenterGreens.h`` and its derivative ``CenterGreens.dh``, which
    ``decompose`` takes (H_0(0, .) = 1/R)."""

    def test_zero_coefficient_is_pu(self):
        rs = np.linspace(0.05, 0.95, 10)
        cg = ga_center(const(0.0), 1.0)
        assert np.max(np.abs(cg.h(rs) - 1.0)) <= 1e-10
        assert np.max(np.abs(cg.dh(rs))) <= 1e-10

    def test_critical_closed_form(self):
        # H_a(0, r) = (1 - cos(k r))/r with k = pi/(2R), and its derivative;
        # r = 1e-6 and 9e-6 are on the Taylor side of the bridge at 1e-5
        R = 1.0
        k = math.pi / (2 * R)
        rs = np.array([1e-6, 9e-6, 0.3, 0.6, 0.9])
        cg = ga_center(const(critical_a(R)), R)
        expect = 2 * np.sin(k * rs / 2) ** 2 / rs
        expect_d = k * np.sin(k * rs) / rs - expect / rs
        assert np.max(np.abs(cg.h(rs) - expect)) <= 1e-9
        assert np.max(np.abs(cg.dh(rs) - expect_d)) <= 1e-8

    def test_boundary(self):
        # PU(R) = 0, so psi(R) = 0 needs (H_a - H_0)(0, R) = 0
        assert abs(ga_center(const(-1.0), 1.0).h(1.0) - 1.0) <= 1e-10


class TestGFun:
    def test_l2_rate(self):
        # ||g_{0,lam}||_2 <= C lam^{1/2 - 3/2}: the normalized values must be
        # stable across a decade ladder.
        ratios = []
        for lam in (10.0, 100.0, 1000.0):
            res = _ball_integral(lam, 1.0, lambda r: g(lam, r) ** 2)
            ratios.append(math.sqrt(res) / lam**-1.0)
        assert max(ratios) / min(ratios) <= 1.5

    def test_g_dlambda_integral(self):
        # the verdict's row integrates over [0, inf) on the rule for [0, 1]
        oracle = 4 * math.pi * quad_oracle(
            lambda r: g(1.0, r) * _du_dlam(1.0, r) * r * r, 0.0, math.inf
        )
        rows, _ = calculus_verdict(-1.0, 1.0)
        (val,) = [r[2] for r in rows if r[0] == "int g dlam U"]
        assert val == pytest.approx(oracle, rel=1e-10, abs=0)
        assert val == pytest.approx(2 * math.pi * (3 - math.pi), rel=1e-14, abs=0)

    def test_endpoint_behavior(self):
        # g - 1/r -> -1 at the origin (the singular parts match);
        # r^3 g -> 1/2 in the tail, where lam^{-1/2}/r - U would cancel
        for r in (1e-3, 1e-5):
            assert g(1.0, r) - 1.0 / r == pytest.approx(-1.0, abs=1e-5)
        for r in (1e3, 1e6):
            assert r**3 * g(1.0, r) == pytest.approx(0.5, rel=1e-6)

    def test_positive(self):
        assert np.all(g(30.0, np.geomspace(1e-4, 10.0, 30)) > 0)


class TestLqRates:
    """The L^q norms of U over the ball, which ``calculus_verdict`` judges
    against their closed forms."""

    def test_q2_limit(self):
        # int U^2 = 4 pi lam^{-2}(lam R - arctan(lam R)), so the normalized
        # norm tends to sqrt(4 pi R)
        lam = 1e4
        norm = math.sqrt(_ball_integral(lam, 1.0, lambda r: _u(lam, r) ** 2))
        assert norm * lam**0.5 == pytest.approx(math.sqrt(4 * math.pi), rel=1e-2)

    def test_q6_limit(self):
        lam = 1e4
        assert _ball_integral(lam, 1.0, lambda r: _u(lam, r) ** 6) == pytest.approx(
            math.pi**2 / 4, rel=1e-2
        )

    @pytest.mark.parametrize("R", [1.0, 1.25, 2.0])
    def test_rows_match_closed_forms(self, R):
        rows, passed = calculus_verdict(-1.0, R)
        lq = [r for r in rows if r[1] == "closed form"]
        assert [r[0] for r in lq] == ["L^2 norm", "L^3 norm", "L^6 norm"]
        assert passed and all(err <= 1e-14 for *_, err in lq)

    @pytest.mark.parametrize("q", [2, 3, 6])
    def test_row_fails_on_a_shifted_norm(self, monkeypatch, q):
        # a closed form q-th power divided by 1.001^q: the rule's norm then
        # reads 1.001 times its target
        closed = bubble._LQ_CLOSED_FORMS[q]
        monkeypatch.setitem(bubble._LQ_CLOSED_FORMS, q,
                            lambda lam, s: closed(lam, s) / 1.001**q)
        rows, passed = calculus_verdict(-1.0, 1.0)
        (row,) = [r for r in rows if r[0] == f"L^{q} norm"]
        assert row[2] == pytest.approx(1.001 * row[3], rel=1e-12, abs=0)
        assert not passed

    def test_l3_row_rejects_the_log_rate(self, monkeypatch):
        # lam^{-1/2} ln(lam) is not the L^3 rate: the norm goes like
        # lam^{-1/2} (ln lam)^{1/3}
        monkeypatch.setitem(bubble._LQ_CLOSED_FORMS, 3,
                            lambda lam, s: (lam**-0.5 * math.log(lam)) ** 3)
        rows, passed = calculus_verdict(-1.0, 1.0)
        (row,) = [r for r in rows if r[0] == "L^3 norm"]
        assert row[4] > 0.1 and not passed


class TestB3Suite:
    @pytest.fixture(scope="class")
    @staticmethod
    def suite_m1():
        return {(name, kind): row for name, kind, *row in lemma_b3_suite(-1.0, 1.0)}

    def test_u5h_leading(self, suite_m1):
        target = (4 * math.pi / 3) / math.tan(1.0)
        assert suite_m1["U5_H", "leading"][0] == pytest.approx(target, rel=1e-2)

    def test_all_coefficients_within_one_percent(self, suite_m1):
        assert sorted(suite_m1) == sorted([
            ("U5_H", "leading"), ("U5_H", "subleading"), ("U4_dlamU_H", "leading"),
            ("U4_dlamU_H", "subleading"), ("U4_H2", "leading"), ("U3_dlamU_H2", "leading"),
            ("U4_dxU_H", "leading"),
        ])
        for (name, kind), (val, tgt, err) in suite_m1.items():
            if name != "U4_dxU_H":
                assert val == pytest.approx(tgt, rel=1e-2)
                assert err == pytest.approx(abs(val - tgt) / abs(tgt), rel=1e-14, abs=0)

    def test_translation_identity_vanishes(self, suite_m1):
        val, tgt, err = suite_m1["U4_dxU_H", "leading"]
        assert tgt == 0.0 and err <= 1e-8

    def test_critical_coefficient_case(self):
        # at critical a the leading phi-term of int U^5 H vanishes and the
        # lam^{-3/2} coefficient is -(4 pi/3) a = pi^3/3
        a_star = critical_a(1.0)
        suite = {(name, kind): row for name, kind, *row in lemma_b3_suite(a_star, 1.0)}
        target = math.pi**3 / 3
        assert abs(suite["U5_H", "leading"][0]) <= 1e-3 * target
        assert suite["U5_H", "subleading"][0] == pytest.approx(target, rel=1e-2)

    def test_observed_orders(self, suite_m1):
        # subleading order check: after removing the fitted leading constant,
        # the scaled residual of U5_H decays ~ lam^{-1} (within 0.3 of the
        # nominal exponent)
        raw = _b3_integrals(B3_LAMS, ga_center(const(-1.0), 1.0).h, 1.0)
        for key, power in (("U5_H", 0.5), ("U4_dlamU_H", 1.5)):
            y = raw[key] * B3_LAMS**power - suite_m1[key, "leading"][0]
            slope = np.polyfit(np.log(B3_LAMS[:6]), np.log(np.abs(y[:6])), 1)[0]
            assert abs(slope + 1.0) <= 0.3

    @pytest.mark.parametrize("R", [1.0, 2.0])
    def test_batched_integrals_are_per_lam(self, R):
        # the ladder's integrals on the one rule of its largest lam, against
        # each lam's own rule and its own evaluation of H: the even ones to
        # 1e-13 relative, and the odd one a roundoff zero on the row's scale
        cg = ga_center(const(-1.0), R)
        batched = _b3_integrals(B3_LAMS, cg.h, R)
        for k, lam in enumerate(B3_LAMS):
            r, w = radial_quadrature_rule(lam, R)
            u, du, hv = _u(lam, r), _du_dlam(lam, r), cg.h(r)
            for name, f in (("U5_H", u**5 * hv), ("U4_dlamU_H", u**4 * du * hv),
                            ("U4_H2", u**4 * hv**2), ("U3_dlamU_H2", u**3 * du * hv**2)):
                expected = 4 * math.pi * np.sum(w * f * r**2)
                assert batched[name][k] == pytest.approx(expected, rel=1e-13, abs=0)
        odd = np.abs(batched["U4_dxU_H"]) * B3_LAMS**0.5
        assert np.all(odd <= 1e-13 * (4 * math.pi / 3) * max(abs(cg.phi_a_at_0), 1.0))

    def test_one_rule_and_one_h_evaluation(self, monkeypatch):
        # the suite takes all of B3_LAMS on one radial rule, with H_a(0, .)
        # evaluated once on its nodes
        rules, hs = [], []
        build, h = bubble.radial_quadrature_rule, CenterGreens.h

        def counted_rule(*args):
            rules.append(args)
            return build(*args)

        def counted_h(self, r):
            hs.append(np.shape(r))
            return h(self, r)

        monkeypatch.setattr(bubble, "radial_quadrature_rule", counted_rule)
        monkeypatch.setattr(CenterGreens, "h", counted_h)
        lemma_b3_suite(-1.0, 1.0)
        assert rules == [(float(B3_LAMS[-1]), 1.0)]
        assert hs == [build(*rules[0])[0].shape]


class TestDlambdaNorms:
    def test_norm_constant(self):
        # at lam = 100 the O(lam^{-1}) tail is still ~1.4%; the extrapolated
        # constant over the ladder is what must hit 15 pi^2/64
        assert grad_dlambda_pu_norm(100.0, 1.0) == pytest.approx(
            (15 * math.pi**2 / 64) * 1e-4, rel=2e-2
        )
        from ballblowup.numkit import richardson_fit

        lams = np.geomspace(1e2, 1e4, 5)
        vals = [grad_dlambda_pu_norm(l, 1.0) * l**2 for l in lams]
        L, _, _ = richardson_fit(list(zip(1 / lams, vals)))
        assert L == pytest.approx(15 * math.pi**2 / 64, rel=1e-3)

    def test_ratio_stable(self):
        vals = [grad_dlambda_pu_norm(l, 1.0) * l**2 for l in (1e2, 1e3, 1e4)]
        assert max(vals) / min(vals) <= 1.02

    def test_cross_term_decay(self):
        # int grad dlam PU . grad PU decays like lam^{-2}
        vals = [abs(_ball_integral(l, 1.0, lambda r: dlam_u_prime(l, r) * u_prime(l, r))) * l**2
                for l in (1e2, 1e3, 1e4)]
        assert max(vals) / min(vals) <= 1.01  # O(lam^{-2}) trend


class TestRuleAgainstOracle:
    """The bubble integrals, all taken on ``numkit.radial_quadrature_rule``,
    against the adaptive oracle."""

    @pytest.mark.parametrize("R", [1.0, 1.25, 2.0])
    @pytest.mark.parametrize("lam", [1e2, 1e3, 1e4])
    def test_ball_integrals(self, lam, R):
        def oracle(f):
            return 4 * math.pi * quad_oracle(lambda r: f(r) * r * r, 0.0, R)

        plain = [lambda r, q=q: _u(lam, r) ** q for q in (2, 3, 6)] + [
            lambda r: dlam_u_prime(lam, r) * u_prime(lam, r),
            lambda r: _u(lam, r) ** 4 * _du_dlam(lam, r) ** 2,
        ]
        cases = [(_ball_integral(lam, R, f), f) for f in plain] + [
            (pu_center(lam, R).grad_norm_sq(), lambda r: u_prime(lam, r) ** 2),
            (grad_dlambda_pu_norm(lam, R), lambda r: dlam_u_prime(lam, r) ** 2),
        ]
        for val, f in cases:
            assert val == pytest.approx(oracle(f), rel=1e-10, abs=0)

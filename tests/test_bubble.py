"""Bubble family, projected bubble, tail function, and the integral-identity
suites."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballblowup import bubble
from ballblowup.bubble import (
    B3_LAMS,
    CenterProjectedBubble,
    _ladder_integrals,
    calculus_verdict,
    dlam_u_prime,
    g,
    u_prime,
    _du_dlam,
    _u,
)
from ballblowup.greenfn import CenterGreens, RadialCoefficient, critical_a, ga_center
from ballblowup.numkit import radial_quadrature_rule, richardson_fit

from conftest import quad_oracle

const = RadialCoefficient.constant_coeff


def _ball(R, f):
    """4 pi int_0^R f(r) r^2 dr on the ball's radial rule."""
    r, w, _ = radial_quadrature_rule(R)
    return 4 * math.pi * float(np.sum(w * f(r) * r * r))


def _integrands(lam, h):
    """The integrand of each key of ``_ladder_integrals`` at one lam, as a
    function of r, with H_a(0, .) given by ``h``."""
    u, du = (lambda r: _u(lam, r)), (lambda r: _du_dlam(lam, r))
    return {
        "U5_H": lambda r: u(r) ** 5 * h(r),
        "U4_dlamU_H": lambda r: u(r) ** 4 * du(r) * h(r),
        "U4_H2": lambda r: u(r) ** 4 * h(r) ** 2,
        "U3_dlamU_H2": lambda r: u(r) ** 3 * du(r) * h(r) ** 2,
        "U4_dlamU2": lambda r: u(r) ** 4 * du(r) ** 2,
        "grad_PU2": lambda r: u_prime(lam, r) ** 2,
        "grad_dlamPU2": lambda r: dlam_u_prime(lam, r) ** 2,
        "U2": lambda r: u(r) ** 2,
        "U3": lambda r: u(r) ** 3,
        "U6": lambda r: u(r) ** 6,
    }


@pytest.fixture(scope="module")
def ladder_m1():
    """The verdict's one pass at a = -1 on the unit ball."""
    return _ladder_integrals(ga_center(const(-1.0), 1.0).h, 1.0, B3_LAMS)


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

    @pytest.mark.parametrize("lam", [1.0, 3e3, 1e6])
    def test_gradients_match_mpmath(self, lam):
        # U' and dlam U' against mpmath's derivatives of
        # U = lam^{1/2} (1 + lam^2 r^2)^{-1/2} at 40 digits, for lam r over
        # [1e-6, 1e6]; dlam U' changes sign at lam r = 5^{1/2}, so its error
        # is taken against the size of its two terms,
        # lam^{3/2} r s^{-3/2} (5/2 + 3 lam^2 r^2 / s), s = 1 + lam^2 r^2
        with mpmath.workdps(40):
            def U(lm, r):
                return mpmath.sqrt(lm) / mpmath.sqrt(1 + lm**2 * r**2)

            lm = mpmath.mpf(lam)
            for t in np.geomspace(1e-6, 1e6, 25):
                r = float(t) / lam
                rm = mpmath.mpf(r)
                s = 1 + lm**2 * rm**2
                scale = lm**1.5 * rm / s**1.5 * (mpmath.mpf(5) / 2 + 3 * lm**2 * rm**2 / s)
                up = mpmath.diff(lambda x: U(lm, x), rm)
                dup = mpmath.diff(U, (lm, rm), (1, 1))
                assert abs(u_prime(lam, r) - up) <= 1e-14 * abs(up), (lam, t)
                assert abs(dlam_u_prime(lam, r) - dup) <= 1e-14 * scale, (lam, t)

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
        pb = CenterProjectedBubble(250.0, 1.0)
        assert pb.pu(1.0) == 0.0

    def test_f_residual_decay(self):
        # the correction U - PU = U(R), and U(R) - lam^{-1/2}/R =
        # -lam^{-5/2}/(2 R^3) + O(lam^{-9/2})
        for lam in (1e2, 1e3):
            pb = CenterProjectedBubble(lam, 1.0)
            residual = pb.u(0.0) - pb.pu(0.0) - 1.0 / (math.sqrt(lam) * pb.R)
            assert residual * lam**2.5 == pytest.approx(-0.5, rel=2e-4)

    def test_grad_norm_limit(self, ladder_m1):
        lams, vals = B3_LAMS[::2], ladder_m1["grad_PU2"][::2]
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
        nodes, wts, _ = radial_quadrature_rule(R)

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
            res = _ball(1.0, lambda r: g(lam, r) ** 2)
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

    def test_q2_limit(self, ladder_m1):
        # int U^2 = 4 pi lam^{-2}(lam R - arctan(lam R)), so the normalized
        # norm tends to sqrt(4 pi R); the pass's last rung is lam = 1e4
        norm = math.sqrt(ladder_m1["U2"][-1])
        assert norm * B3_LAMS[-1] ** 0.5 == pytest.approx(math.sqrt(4 * math.pi), rel=1e-2)

    def test_q6_limit(self, ladder_m1):
        assert ladder_m1["U6"][-1] == pytest.approx(math.pi**2 / 4, rel=1e-2)

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
        rows, _ = calculus_verdict(-1.0, 1.0)
        return {(name, kind): row for name, kind, *row in rows
                if kind in ("leading", "subleading")}

    def test_u5h_leading(self, suite_m1):
        target = (4 * math.pi / 3) / math.tan(1.0)
        assert suite_m1["U5_H", "leading"][0] == pytest.approx(target, rel=1e-2)

    def test_all_coefficients_within_one_percent(self, suite_m1):
        assert sorted(suite_m1) == sorted([
            ("U5_H", "leading"), ("U5_H", "subleading"), ("U4_dlamU_H", "leading"),
            ("U4_dlamU_H", "subleading"), ("U4_H2", "leading"), ("U3_dlamU_H2", "leading"),
        ])
        for val, tgt, err in suite_m1.values():
            assert val == pytest.approx(tgt, rel=1e-2)
            assert err == pytest.approx(abs(val - tgt) / abs(tgt), rel=1e-14, abs=0)

    def test_critical_coefficient_case(self):
        # at critical a the leading phi-term of int U^5 H vanishes and the
        # lam^{-3/2} coefficient is -(4 pi/3) a = pi^3/3
        a_star = critical_a(1.0)
        rows, _ = calculus_verdict(a_star, 1.0)
        suite = {(name, kind): row for name, kind, *row in rows}
        target = math.pi**3 / 3
        assert abs(suite["U5_H", "leading"][0]) <= 1e-3 * target
        assert suite["U5_H", "subleading"][0] == pytest.approx(target, rel=1e-2)

    def test_observed_orders(self, suite_m1, ladder_m1):
        # subleading order check: after removing the fitted leading constant,
        # the scaled residual of U5_H decays ~ lam^{-1} (within 0.3 of the
        # nominal exponent)
        for key, power in (("U5_H", 0.5), ("U4_dlamU_H", 1.5)):
            y = ladder_m1[key] * B3_LAMS**power - suite_m1[key, "leading"][0]
            slope = np.polyfit(np.log(B3_LAMS[:6]), np.log(np.abs(y[:6])), 1)[0]
            assert abs(slope + 1.0) <= 0.3

    @pytest.mark.parametrize("R", [1.0, 2.0])
    def test_batched_integrals_are_per_lam(self, R):
        # every integral of the pass, taken over the whole ladder at once,
        # against each lam's integrand alone with its own evaluation of H,
        # to 1e-13 relative
        cg = ga_center(const(-1.0), R)
        batched = _ladder_integrals(cg.h, R, B3_LAMS)
        for k, lam in enumerate(B3_LAMS):
            integrands = _integrands(lam, cg.h)
            assert integrands.keys() == batched.keys()
            for name, f in integrands.items():
                expected = _ball(R, f)
                assert batched[name][k] == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("key", ["grad_PU2", "U6"])
    def test_off_integral_fails(self, monkeypatch, key):
        # the constant and closed-form rows read the pass: one of its
        # integrals 2% high on every rung fails the verdict
        integrals = bubble._ladder_integrals

        def off(*args):
            vals = integrals(*args)
            vals[key] = vals[key] * 1.02
            return vals

        monkeypatch.setattr(bubble, "_ladder_integrals", off)
        assert not calculus_verdict(-1.0, 1.0)[1]

    def test_one_rule_and_one_h_evaluation(self, monkeypatch):
        # the verdict takes all of B3_LAMS on the ball's radial rule, with
        # H_a(0, .) evaluated once on its nodes; the g row builds the rule
        # for [0, 1]
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
        calculus_verdict(-1.0, 2.0)
        assert rules == [(2.0,), (1.0,)]
        assert hs == [build(*rules[0])[0].shape]


class TestDlambdaNorms:
    def test_norm_constant(self, ladder_m1):
        # at lam = 100 the O(lam^{-1}) tail is still ~1.4%; the extrapolated
        # constant over the ladder is what must hit 15 pi^2/64
        norms = ladder_m1["grad_dlamPU2"]
        assert B3_LAMS[0] == 100.0
        assert norms[0] == pytest.approx((15 * math.pi**2 / 64) * 1e-4, rel=2e-2)
        lams = B3_LAMS[::2]
        L, _, _ = richardson_fit(list(zip(1 / lams, norms[::2] * lams**2)))
        assert L == pytest.approx(15 * math.pi**2 / 64, rel=1e-3)

    def test_ratio_stable(self, ladder_m1):
        # lam = 1e2, 1e3 and 1e4
        vals = (ladder_m1["grad_dlamPU2"] * B3_LAMS**2)[::4]
        assert max(vals) / min(vals) <= 1.02

    def test_cross_term_decay(self):
        # int grad dlam PU . grad PU decays like lam^{-2}
        vals = [abs(_ball(1.0, lambda r: dlam_u_prime(l, r) * u_prime(l, r))) * l**2
                for l in (1e2, 1e3, 1e4)]
        assert max(vals) / min(vals) <= 1.01  # O(lam^{-2}) trend


class TestRuleAgainstOracle:
    """The verdict's pass, on ``numkit.radial_quadrature_rule``, against the
    adaptive oracle, with the critical coefficient's closed form
    H_a(0, r) = (1 - cos(k r))/r, k = pi/(2R), for H."""

    @pytest.mark.parametrize("R", [1.0, 1.25, 2.0])
    @pytest.mark.parametrize("lam", [1e2, 1e3, 1e4])
    def test_ball_integrals(self, lam, R):
        k = math.pi / (2 * R)

        def h(r):
            return 2 * np.sin(k * r / 2) ** 2 / r

        (index,) = np.flatnonzero(B3_LAMS == lam)
        vals = _ladder_integrals(h, R, B3_LAMS)
        for name, f in _integrands(lam, h).items():
            oracle = 4 * math.pi * quad_oracle(lambda r: f(r) * r * r, 0.0, R)
            assert vals[name][index] == pytest.approx(oracle, rel=1e-10, abs=0), name

"""Green's functions, regular parts, criticality detection, and the speed
functional on the ball."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballblowup.greenfn import (
    CoercivityError,
    HelmholtzSeries,
    RadialCoefficient,
    ResonanceError,
    _lmax_for,
    check_coercivity,
    critical_a,
    g0_ball,
    ga_center,
    ha_center,
    na_scan,
    phi0_ball,
    phia_hessian,
    phia_profile,
    qv_center,
)
from ballblowup.numkit import sph_bessel

CRIT = -math.pi**2 / 4.0


def const(c):
    return RadialCoefficient.constant_coeff(c)


class TestG0Ball:
    def test_center_formula(self):
        for r in (0.2, 0.5, 0.8):
            assert g0_ball([0, 0, 0], [r, 0, 0], 1.0) == pytest.approx(
                1 / r - 1.0, rel=1e-13
            )

    @given(
        data=st.lists(
            st.floats(min_value=-0.55, max_value=0.55), min_size=6, max_size=6
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, data):
        x, y = np.array(data[:3]), np.array(data[3:])
        if np.linalg.norm(x - y) < 1e-3:
            return
        assert g0_ball(x, y, 1.0) == pytest.approx(g0_ball(y, x, 1.0), rel=1e-11)

    def test_boundary_zero(self):
        y = np.array([1.0, 0.0, 0.0])
        assert abs(g0_ball([0.3, 0.2, 0.0], y, 1.0)) <= 1e-12

    def test_coincident_error(self):
        with pytest.raises(ValueError):
            g0_ball([0.1, 0, 0], [0.1, 0, 0], 1.0)


class TestPhi0Ball:
    def test_center(self):
        assert phi0_ball([0, 0, 0], 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_half_radius(self):
        assert phi0_ball([0.5, 0, 0], 1.0) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_radially_increasing(self):
        assert phi0_ball([0.2, 0, 0], 1.0) < phi0_ball([0.4, 0, 0], 1.0)


class TestGaCenter:
    def test_critical_cosine(self):
        cg = ga_center(const(CRIT), 1.0)
        assert abs(cg.phi_a_at_0) <= 1e-10
        rs = np.linspace(0.05, 0.95, 10)
        assert np.max(np.abs(cg.v(rs) - np.cos(math.pi * rs / 2))) <= 1e-10

    def test_zero_coefficient(self):
        cg = ga_center(const(0.0), 1.0)
        assert cg.phi_a_at_0 == pytest.approx(1.0, abs=1e-11)
        assert cg.phi_a_at_0 == pytest.approx(phi0_ball([0, 0, 0], 1.0), abs=1e-11)

    def test_minus_one(self):
        cg = ga_center(const(-1.0), 1.0)
        assert cg.phi_a_at_0 == pytest.approx(1 / math.tan(1.0), abs=1e-11)

    def test_boundary_and_positivity(self):
        cg = ga_center(const(-2.0), 1.0)
        assert abs(cg.v(1.0)) <= 1e-11
        rs = np.linspace(0.02, 0.98, 49)
        assert np.all(cg.g(rs) >= 0)  # maximum principle

    def test_coercivity_guard(self):
        with pytest.raises(CoercivityError):
            check_coercivity(const(-math.pi**2 - 0.1), 1.0)


class TestCriticalA:
    def test_unit_ball(self):
        assert critical_a(1.0) == pytest.approx(-math.pi**2 / 4, abs=1e-10)

    def test_radius_two(self):
        assert critical_a(2.0) == pytest.approx(-math.pi**2 / 16, abs=1e-10)

    def test_dilation_scaling(self):
        vals = [critical_a(R) * R**2 for R in (0.5, 1.0, 2.0)]
        assert max(vals) - min(vals) <= 1e-9


class TestPhiaProfile:
    @given(a=st.floats(min_value=-2.4, max_value=-0.1))
    @settings(max_examples=25, deadline=None)
    def test_center_consistency(self, a):
        center = ga_center(const(a), 1.0).phi_a_at_0
        assert phia_profile(0.0, a, 1.0) == pytest.approx(center, abs=1e-10)

    def test_small_rho_quadratic(self):
        a = critical_a(1.0)
        for rho in (1e-3, 2e-3):
            assert phia_profile(rho, a, 1.0) == pytest.approx(
                (math.pi**4 / 48) * rho**2, rel=1e-4
            )

    def test_nonnegative_near_center(self):
        a = critical_a(1.0)
        for rho in np.linspace(0.0, 0.5, 11):
            assert phia_profile(float(rho), a, 1.0) >= -1e-10

    def test_series_symmetry(self):
        series = HelmholtzSeries.build(-1.5, 1.0, 40)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x, y = rng.uniform(-0.4, 0.4, (2, 3))
            assert series.h(x, y) == pytest.approx(series.h(y, x), rel=1e-12)


def series_by_loop(a_const, R, lmax):
    """(lmax, ratios, j_l(kR), y_l(kR)) from one scalar Bessel call per
    order: the reference for the one-call build."""
    x = math.sqrt(-a_const) * R
    js, ys = [], []
    for ell in range(lmax + 1):
        j = sph_bessel("j", ell, x)
        if abs(j) < 1e-13 and x > ell:
            raise ResonanceError(f"j_{ell}(kR) vanishes at kR={x:g}")
        try:
            yv = sph_bessel("y", ell, x)
        except OverflowError:
            break
        if not math.isfinite(yv / j):
            break
        js.append(j)
        ys.append(yv)
    js, ys = np.array(js), np.array(ys)
    return len(js) - 1, ys / js, js, ys


def h_diag_by_loop(a_const, R, rho, tol=1e-12):
    """phi_a(rho) from its own series and one scalar call per order."""
    lmax, _, js, ys = series_by_loop(a_const, R, _lmax_for(rho, R, tol))
    k = math.sqrt(-a_const)
    ells = np.arange(lmax + 1)
    jr = np.array([sph_bessel("j", ell, k * rho) for ell in ells])
    return float(-k * np.sum((2 * ells + 1) * ys * js * (jr / js) ** 2))


class TestVectorisedSeries:
    @pytest.mark.parametrize("R", [1.0, 2.0])
    @pytest.mark.parametrize("a_unit", [CRIT, -1.5])
    @pytest.mark.parametrize("lmax", [40, 200])
    def test_build_matches_loop(self, R, a_unit, lmax):
        # lmax = 200 runs into the y_l(kR) overflow and truncates there
        a = a_unit / R**2
        series = HelmholtzSeries.build(a, R, lmax)
        n, ratios, js, ys = series_by_loop(a, R, lmax)
        assert series.lmax == n
        assert np.array_equal(series.ratios, ratios)
        assert np.array_equal(series._j_R, js)
        assert np.array_equal(series._y_R, ys)
        if lmax == 200:
            assert n < lmax

    def test_resonance(self):
        # a = -pi^2: kR = pi, where j_0 vanishes
        with pytest.raises(ResonanceError):
            HelmholtzSeries.build(-math.pi**2, 1.0, 40)
        with pytest.raises(ResonanceError):
            phia_profile(np.linspace(0.0, 0.5, 6), -math.pi**2, 1.0)

    @pytest.mark.parametrize("R", [1.0, 1.25, 2.0])
    @pytest.mark.parametrize("a_unit", [CRIT, -1.0, -2.0, -3.0])
    def test_profile_array_equals_scalar_calls(self, R, a_unit):
        a = a_unit / R**2
        rhos = np.linspace(0.0, 0.9 * R, 19)
        vals = phia_profile(rhos, a, R)
        assert vals.shape == rhos.shape
        scalar = [phia_profile(float(r), a, R) for r in rhos]
        assert all(isinstance(v, float) for v in scalar)
        assert vals.tolist() == scalar

    def test_profile_equals_per_order_loop(self):
        for rho in (0.0, 0.3, 0.9):
            assert phia_profile(rho, -1.0, 1.0) == h_diag_by_loop(-1.0, 1.0, rho)

    def test_off_diagonal_matches_loop(self):
        from scipy.special import eval_legendre

        series = HelmholtzSeries.build(-1.5, 1.0, 40)
        x, y = np.array([0.1, 0.2, 0.0]), np.array([0.3, -0.1, 0.2])
        rx, ry = np.linalg.norm(x), np.linalg.norm(y)
        ct = float(np.dot(x, y) / (rx * ry))
        k = series.k
        scales = series._term_scales()
        ref = 0.0
        for ell in range(series.lmax + 1):
            ref += (
                scales[ell]
                * (sph_bessel("j", ell, k * rx) / series._j_R[ell])
                * (sph_bessel("j", ell, k * ry) / series._j_R[ell])
                * eval_legendre(ell, ct)
            )
        assert series.h(x, y) == pytest.approx(-k * ref, rel=1e-13)


class TestPhiaHessian:
    def test_critical_value(self):
        a = critical_a(1.0)
        assert phia_hessian(a, 1.0) == pytest.approx(math.pi**4 / 24, abs=1e-5)

    def test_positive_definite_at_critical(self):
        assert phia_hessian(critical_a(1.0), 1.0) > 0

    def test_no_linear_term(self):
        # phi_a is even in rho: an even-only polynomial fit on small radii
        # must reproduce the profile to quadrature accuracy, which pins
        # phi_a'(0) = 0.
        a = critical_a(1.0)
        rhos = np.array([1e-3, 2e-3, 3e-3, 4e-3])
        vals = np.array([phia_profile(float(r), a, 1.0) for r in rhos])
        A = np.column_stack([np.ones_like(rhos), rhos**2, rhos**4])
        coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
        resid = np.max(np.abs(vals - A @ coef))
        assert resid <= 1e-10 * max(1.0, np.max(np.abs(vals)))

    def test_c2_stability_under_step_halving(self):
        a = critical_a(1.0)
        v1 = phia_hessian(a, 1.0, step=1e-3)
        v2 = phia_hessian(a, 1.0, step=5e-4)
        assert v1 == pytest.approx(v2, rel=1e-3)


class TestQvCenter:
    def test_canonical(self):
        assert qv_center(const(-1.0), const(CRIT), 1.0) == pytest.approx(
            -2 * math.pi, abs=1e-8
        )

    def test_zero_potential(self):
        assert qv_center(const(0.0), const(CRIT), 1.0) == 0.0

    def test_linearity(self):
        a = const(-1.3)
        assert qv_center(const(-2.0), a, 1.0) == pytest.approx(
            2 * qv_center(const(-1.0), a, 1.0), rel=1e-11
        )


class TestNaScan:
    def test_critical_coefficient(self):
        rep = na_scan(critical_a(1.0), 1.0)
        assert rep.zeros and rep.zeros[0] == 0.0
        assert rep.critical and rep.negative_on_zeros and rep.nondegenerate

    def test_above_critical(self):
        rep = na_scan(-2.0, 1.0)
        assert rep.zeros == []
        assert not rep.critical

    def test_below_critical(self):
        rep = na_scan(-3.0, 1.0)
        assert rep.phi_at_0 < 0
        assert not rep.critical


class TestHaCenter:
    def test_critical_closed_form(self):
        a = const(CRIT)
        for r in (0.2, 0.5, 0.8):
            assert ha_center(r, a, 1.0) == pytest.approx(
                (1 - math.cos(math.pi * r / 2)) / r, abs=1e-10
            )

    def test_center_limit(self):
        # H_a(0, r) -> phi_a(0) linearly in r; the linear extrapolant
        # 2 H(r) - H(2r) removes the slope and converges at O(r^2).
        a = const(-1.0)
        phi = ga_center(a, 1.0).phi_a_at_0
        r = 1e-4
        extrap = 2 * ha_center(r, a, 1.0) - ha_center(2 * r, a, 1.0)
        assert extrap == pytest.approx(phi, abs=1e-7)

    def test_small_r_slope(self):
        # Diagonal expansion H_a(0,r) = phi_a(0) - (a(0)/2) r + O(r^2).
        # The -a/2 coefficient is fixed by the Taylor series of the center
        # profile v; the opposite sign convention sometimes quoted for this
        # expansion is inconsistent with the explicit ball solution.
        for a0 in (-1.0, CRIT):
            a = const(a0)
            phi = ga_center(a, 1.0).phi_a_at_0
            r = 1e-3
            slope = (ha_center(r, a, 1.0) - phi) / r
            # next correction is (a phi / 6) r ~ 1e-4
            assert slope == pytest.approx(-a0 / 2, abs=2e-4)

    def test_resolvent_consistency(self):
        # Phi := H_a(0,.) - H_0(0,.) satisfies Delta Phi = -a G_a(0,.)
        # away from the origin (H_0 is harmonic).
        a0 = -1.7
        cg = ga_center(const(a0), 1.0)
        for r in (0.3, 0.5, 0.7):
            h = 1e-4

            def Phi(s):
                return float(cg.h(s)) - 1.0  # H_0(0,.) = 1/R = 1

            lap = (Phi(r + h) - 2 * Phi(r) + Phi(r - h)) / h**2 + (
                Phi(r + h) - Phi(r - h)
            ) / (h * r)
            target = -a0 * float(cg.g(r))
            assert abs(lap - target) <= 1e-6 * max(1.0, abs(target))

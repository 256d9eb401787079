"""Green's functions, regular parts, criticality detection, and the speed
functional on the ball."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballblowup import greenfn
from ballblowup.greenfn import (
    CoercivityError,
    HelmholtzSeries,
    RadialCoefficient,
    ResonanceError,
    blowup_laws,
    check_coercivity,
    critical_a,
    ga_center,
    na_scan,
    qv_center,
)
from ballblowup.numkit import sph_bessel

from conftest import quad_oracle

CRIT = -math.pi**2 / 4.0


def const(c):
    return RadialCoefficient.constant_coeff(c)


def series(a, R=1.0):
    return HelmholtzSeries.build(a, R)


class TestG0Ball:
    """G_0(0, r) = 1/r - 1/R, as the center Green's data at a = 0."""

    def test_center_formula(self):
        rs = np.array([0.2, 0.5, 0.8])
        assert np.max(np.abs(ga_center(const(0.0), 1.0).g(rs) - (1 / rs - 1.0))) <= 1e-11


class TestBetaTarget:
    @pytest.mark.parametrize("R", [0.5, 2.0])
    def test_phi0_center_is_inverse_radius(self, R):
        # beta -> (16/3 pi)(phi_a(0) - phi_0(0)) at phi_a(0) = 0, with
        # phi_0(0) = 1/R the center value of the a = 0 diagonal R/(R^2 - |x|^2)
        laws = blowup_laws(const(CRIT / R**2), const(-1.0 / R**2), R)
        assert laws.beta == pytest.approx(-16 / (3 * math.pi * R), rel=1e-15, abs=0)
        assert laws.gamma == pytest.approx(128 / (15 * math.pi * R), rel=1e-15, abs=0)


class TestGaCenter:
    def test_critical_cosine(self):
        cg = ga_center(const(CRIT), 1.0)
        assert abs(cg.phi_a_at_0) <= 1e-10
        rs = np.linspace(0.05, 0.95, 10)
        assert np.max(np.abs(cg.v(rs) - np.cos(math.pi * rs / 2))) <= 1e-10

    def test_zero_coefficient(self):
        cg = ga_center(const(0.0), 1.0)
        assert cg.phi_a_at_0 == pytest.approx(1.0, abs=1e-11)

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

    def test_short_table_refused_before_integrating(self, monkeypatch):
        # the right-hand side reads a table unchecked, so ga_center checks
        # its span once, before it integrates
        calls = []
        monkeypatch.setattr(greenfn, "ode_solve", lambda *args, **kw: calls.append(args))
        short = RadialCoefficient(values=[-1.0, -1.0], abscissae=[0.0, 0.5])
        with pytest.raises(ValueError, match="spans"):
            ga_center(short, 1.0)
        assert not calls

    def test_center_coefficient_and_regular_solution(self):
        # a = -k^2: the solution with data (0, 1) at the center is sin(kr)/k
        k = math.pi / 2
        cg = ga_center(const(-k * k), 1.0)
        assert cg.a_at_0 == -k * k
        rs = np.linspace(0.0, 1.0, 21)
        z1, v = cg.homogeneous_pair(rs)
        assert np.max(np.abs(z1 - np.sin(k * rs) / k)) <= 1e-11
        assert np.array_equal(v, cg.v(rs))
        table = RadialCoefficient(values=[-2.0, -1.0, 0.5], abscissae=[0.0, 0.5, 1.0])
        assert ga_center(table, 1.0).a_at_0 == pytest.approx(-2.0, abs=1e-15)


class TestCriticalA:
    def test_unit_ball(self):
        assert critical_a(1.0) == pytest.approx(-math.pi**2 / 4, abs=1e-12)

    def test_radius_two(self):
        assert critical_a(2.0) == pytest.approx(-math.pi**2 / 16, abs=1e-12)

    def test_dilation_scaling(self):
        vals = [critical_a(R) * R**2 for R in (0.5, 1.0, 2.0)]
        assert max(vals) - min(vals) <= 1e-12

    @pytest.mark.parametrize("R", [0.5, 1.0, 1.25, 2.0])
    def test_few_lean_integrations(self, monkeypatch, R):
        # Newton with the a-sensitivity: at most 7 integrations, none with
        # dense output
        calls, orig = [], greenfn.ode_solve

        def counting(*args, **kw):
            out = orig(*args, **kw)
            calls.append(out.F is not None)
            return out

        monkeypatch.setattr(greenfn, "ode_solve", counting)
        critical_a(R)
        assert 0 < len(calls) <= 7 and not any(calls)

    @pytest.mark.parametrize("R", [0.5, 1.0, 1.25, 2.0])
    def test_phi_vanishes_at_root(self, R):
        assert abs(ga_center(const(critical_a(R)), R).phi_a_at_0) * R <= 1e-12


class TestPhiaProfile:
    @given(a=st.floats(min_value=-2.4, max_value=-0.1))
    @settings(max_examples=25, deadline=None)
    def test_center_consistency(self, a):
        center = ga_center(const(a), 1.0).phi_a_at_0
        assert series(a).h_diag(0.0) == pytest.approx(center, abs=1e-10)

    def test_small_rho_quadratic(self):
        phi = series(critical_a(1.0))
        for rho in (1e-3, 2e-3):
            assert phi.h_diag(rho) == pytest.approx(
                (math.pi**4 / 48) * rho**2, rel=1e-4
            )

    def test_nonnegative_near_center(self):
        phi = series(critical_a(1.0))
        for rho in np.linspace(0.0, 0.5, 11):
            assert phi.h_diag(float(rho)) >= -1e-10


def series_by_loop(a_const, R, top):
    """(j_l(kR), y_l(kR)) from one scalar Bessel call per order l <= top,
    stopping before the first non-finite y_l(kR) or subnormal j_l(kR): the
    reference for the one-call build."""
    x = math.sqrt(-a_const) * R
    js, ys = [], []
    for ell in range(top + 1):
        j = sph_bessel("j", ell, x)
        try:
            yv = sph_bessel("y", ell, x)
        except OverflowError:
            break
        if abs(j) < np.finfo(float).tiny:
            break
        js.append(j)
        ys.append(yv)
    return np.array(js), np.array(ys)


class TestVectorisedSeries:
    @pytest.mark.parametrize("R", [1.0, 2.0])
    @pytest.mark.parametrize("a_unit", [CRIT, -1.5])
    @pytest.mark.parametrize("top", [40, 200])
    def test_build_matches_loop(self, R, a_unit, top):
        # the loop to order 40 checks a prefix; to order 200 it runs into
        # the end of the series and must stop where the build stops
        a = a_unit / R**2
        built = series(a, R)
        js, ys = series_by_loop(a, R, top)
        n = len(js)
        assert built.R == R
        assert np.array_equal(built.j_R[:n], js)
        assert np.array_equal(built.y_R[:n], ys)
        if top == 200:
            assert n == len(built.j_R) < top

    def test_resonance(self):
        # a = -pi^2: kR = pi, where j_0 vanishes
        with pytest.raises(ResonanceError):
            HelmholtzSeries.build(-math.pi**2, 1.0)

    @pytest.mark.parametrize("rho", [1.0, np.array([0.0, 0.5, 1.0]), 1.5])
    def test_exterior_radius_refused(self, rho):
        with pytest.raises(ValueError, match="interior"):
            series(CRIT).h_diag(rho)

    @pytest.mark.parametrize("R", [1.0, 1.25, 2.0])
    @pytest.mark.parametrize("a_unit", [CRIT, -1.0, -2.0, -3.0])
    def test_profile_array_equals_scalar_calls(self, R, a_unit):
        a = a_unit / R**2
        rhos = np.linspace(0.0, 0.9 * R, 19)
        phi = series(a, R)
        vals = phi.h_diag(rhos)
        assert vals.shape == rhos.shape
        scalar = [phi.h_diag(float(r)) for r in rhos]
        assert all(isinstance(v, float) for v in scalar)
        assert vals.tolist() == scalar


class TestPhiaHessian:
    def test_critical_value(self):
        assert series(critical_a(1.0)).hessian == pytest.approx(math.pi**4 / 24, abs=1e-5)

    @pytest.mark.parametrize("R", [0.01, 1e-3, 20.0])
    def test_scales_with_the_ball(self, R):
        # phi_a'' has dimension length^-3; the finite-difference step is a
        # share of R, so the cross-check holds on small balls too
        assert series(CRIT / R**2, R).hessian == pytest.approx(math.pi**4 / 24 / R**3,
                                                               rel=1e-12, abs=0)

    def test_positive_definite_at_critical(self):
        assert series(critical_a(1.0)).hessian > 0

    def test_no_linear_term(self):
        # phi_a is even in rho: an even-only polynomial fit on small radii
        # must reproduce the profile to quadrature accuracy, which pins
        # phi_a'(0) = 0.
        phi = series(critical_a(1.0))
        rhos = np.array([1e-3, 2e-3, 3e-3, 4e-3])
        vals = np.array([phi.h_diag(float(r)) for r in rhos])
        A = np.column_stack([np.ones_like(rhos), rhos**2, rhos**4])
        coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
        resid = np.max(np.abs(vals - A @ coef))
        assert resid <= 1e-10 * max(1.0, np.max(np.abs(vals)))

    def test_c2_stability_under_step_halving(self, monkeypatch):
        # the returned value is the series coefficient; the finite-difference
        # cross-check must pass at both steps, on one series
        phi = series(critical_a(1.0))
        v1 = phi.hessian
        monkeypatch.setattr(greenfn, "HESSIAN_STEP", greenfn.HESSIAN_STEP / 2)
        v2 = phi.hessian
        assert v1 == pytest.approx(v2, rel=1e-3)


class TestQvCenter:
    def test_zero_potential(self):
        assert qv_center(const(0.0), ga_center(const(CRIT), 1.0)) == 0.0

    def test_linearity(self):
        cg = ga_center(const(-1.3), 1.0)
        assert qv_center(const(-2.0), cg) == pytest.approx(
            2 * qv_center(const(-1.0), cg), rel=1e-11, abs=0
        )

    @pytest.mark.parametrize("V", [lambda r: 1 - 4 * np.cos(np.pi * r / 2) ** 2,
                                   lambda r: -3 * np.exp(-8 * r * r)], ids=["cos", "gauss"])
    def test_tabulated_against_oracle(self, V):
        absc = np.linspace(0.0, 1.0, 41)
        table = RadialCoefficient(values=V(absc), abscissae=absc)
        cg = ga_center(const(CRIT), 1.0)
        oracle = 4 * math.pi * quad_oracle(lambda r: table(r) * cg.v(r) ** 2, 0.0, 1.0)
        assert qv_center(table, cg) == pytest.approx(oracle, rel=1e-10, abs=0)


class TestNaScan:
    def test_critical_coefficient(self):
        rep = na_scan(series(critical_a(1.0)))
        assert rep.zeros and rep.zeros[0] == 0.0
        assert rep.critical and rep.negative_on_zeros and rep.nondegenerate

    def test_calls_no_critical_a(self, monkeypatch):
        # the report carries no a*: finding it is the caller's business
        def refused(*args):
            raise AssertionError("na_scan called critical_a")

        monkeypatch.setattr(greenfn, "critical_a", refused)
        assert na_scan(series(CRIT)).critical

    def test_above_critical(self):
        rep = na_scan(series(-2.0))
        assert rep.zeros == []
        assert not rep.critical

    def test_below_critical(self):
        rep = na_scan(series(-3.0))
        assert rep.phi_at_0 < 0
        assert not rep.critical


class TestHaCenter:
    """H_a(0, r) = (1 - v(r))/r from the center Green's data."""

    def test_critical_closed_form(self):
        cg = ga_center(const(CRIT), 1.0)
        for r in (0.2, 0.5, 0.8):
            assert cg.h(r) == pytest.approx(
                (1 - math.cos(math.pi * r / 2)) / r, abs=1e-10
            )

    def test_center_limit(self):
        # H_a(0, r) -> phi_a(0) linearly in r; the linear extrapolant
        # 2 H(r) - H(2r) removes the slope and converges at O(r^2).
        cg = ga_center(const(-1.0), 1.0)
        r = 1e-4
        extrap = 2 * cg.h(r) - cg.h(2 * r)
        assert extrap == pytest.approx(cg.phi_a_at_0, abs=1e-7)

    def test_small_r_slope(self):
        # Diagonal expansion H_a(0,r) = phi_a(0) - (a(0)/2) r + O(r^2).
        # The -a/2 coefficient is fixed by the Taylor series of the center
        # profile v; the opposite sign convention sometimes quoted for this
        # expansion is inconsistent with the explicit ball solution.
        for a0 in (-1.0, CRIT):
            cg = ga_center(const(a0), 1.0)
            r = 1e-3
            slope = (cg.h(r) - cg.phi_a_at_0) / r
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

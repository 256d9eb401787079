"""Foundation numerics: Bessel functions, the quadrature oracle,
ODE, extrapolation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from ballblowup.bubble import _LQ_CLOSED_FORMS, _u
from ballblowup.numkit import (
    densify,
    ode_solve,
    radial_quadrature_rule,
    richardson_fit,
    sph_bessel,
)

from conftest import quad_oracle


class TestSphBessel:
    def test_j0(self):
        assert sph_bessel("j", 0, math.pi / 2) == pytest.approx(2 / math.pi, rel=1e-13, abs=0)

    def test_j1(self):
        assert sph_bessel("j", 1, math.pi / 2) == pytest.approx(
            4 / math.pi**2, rel=1e-13, abs=0
        )

    def test_j0_small_limit(self):
        assert sph_bessel("j", 0, 1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_arrays_broadcast_like_scalar_calls(self):
        ells = np.arange(30)
        xs = np.array([0.0, 0.3, 1.7, 12.0])
        j = sph_bessel("j", ells, xs[:, None])
        assert j.shape == (4, 30)
        assert j.tolist() == [[sph_bessel("j", l, x) for l in ells] for x in xs]
        y = sph_bessel("y", ells, 1.7)
        assert y.tolist() == [sph_bessel("y", l, 1.7) for l in ells]

    def test_y_overflow(self):
        # a scalar overflow raises; in an array it is left in place
        with pytest.raises(OverflowError):
            sph_bessel("y", 300, 0.5)
        y = sph_bessel("y", np.arange(301), 0.5)
        assert np.isfinite(y[0]) and not np.isfinite(y[-1])
        with pytest.raises(ValueError):
            sph_bessel("y", np.arange(3), np.array([1.0, 0.0]))

    @given(
        ell=st.integers(min_value=0, max_value=40),
        x=st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_wronskian(self, ell, x):
        # f_l' = f_{l-1} - (l+1)/x f_l (with j_0' = -j_1); the Wronskian
        # j y' - j' y must equal 1/x^2.
        def pair(kind):
            f = sph_bessel(kind, ell, x)
            if ell == 0:
                fp = -sph_bessel(kind, 1, x)
            else:
                fp = sph_bessel(kind, ell - 1, x) - (ell + 1) / x * f
            return f, fp

        j, jp = pair("j")
        y, yp = pair("y")
        w = j * yp - jp * y
        assert w == pytest.approx(1.0 / x**2, rel=1e-10, abs=0)


class TestQuadRadial:
    """The adaptive oracle (``conftest.quad_oracle``) on closed forms."""

    def test_cos_squared(self):
        res = quad_oracle(lambda r: math.cos(math.pi * r / 2) ** 2, 0.0, 1.0)
        assert res == pytest.approx(0.5, abs=1e-12)

    def test_g_dlambda_u_integral(self):
        def f(r):
            g = 1.0 / r - (1 + r * r) ** -0.5
            dlu = (1 - r * r) / (2 * (1 + r * r) ** 1.5)
            return g * dlu * r * r

        res = quad_oracle(f, 0.0, math.inf)
        assert 4 * math.pi * res == pytest.approx(
            2 * math.pi * (3 - math.pi), rel=1e-11, abs=0
        )

    def test_whole_space_u6(self):
        res = quad_oracle(lambda t: t * t * (1 + t * t) ** -3, 0.0, math.inf)
        assert 4 * math.pi * res == pytest.approx(math.pi**2 / 4, rel=1e-12, abs=0)


class TestRadialRule:
    @pytest.mark.parametrize("R", [1e-3, 1.0, 5e3])
    @pytest.mark.parametrize("lam_R", [1e2, 1e4, 1e6, 1e7])
    def test_bubble_norms_up_to_lam_R_1e7(self, lam_R, R):
        # int_B U^q against its closed form: <= 5.4e-16 here, 2e-14 at
        # lam R = 1e8 and 6.6e-6 at 1e9
        nodes, _, measure = radial_quadrature_rule(R)
        lam = lam_R / R
        for q, closed in _LQ_CLOSED_FORMS.items():
            got = measure @ _u(lam, nodes) ** q
            assert got == pytest.approx(closed(lam, lam_R), rel=1e-14, abs=0)

    def test_scales_with_R(self):
        # the unit rule times R, the measure 4 pi r^2 w
        n1, w1, _ = radial_quadrature_rule(1.0)
        nodes, wts, measure = radial_quadrature_rule(2.5)
        assert np.array_equal(nodes, 2.5 * n1) and np.array_equal(wts, 2.5 * w1)
        assert np.array_equal(measure, 4.0 * math.pi * wts * nodes**2)
        assert np.all(n1[:12] < 1e-8) and np.all(n1[12:] > 1e-8) and nodes[-1] < 2.5
        assert np.sum(w1) == pytest.approx(1.0, rel=1e-15)


def dense_solve(rhs, y0, span, tol):
    """``ode_solve``'s lean trajectory, with dense output."""
    return densify(ode_solve(rhs, y0, span, tol), rhs)


class TestOdeSolve:
    k = 3.0

    def rhs(self, r, y):
        return [y[1], -self.k**2 * y[0]]

    def test_harmonic_solution(self):
        traj = dense_solve(self.rhs, [1.0, 0.0], (0.0, 1.0), tol=1e-12)
        rs = np.linspace(0.0, 1.0, 101)
        err = np.max(np.abs(traj(rs)[0] - np.cos(self.k * rs)))
        assert err <= 1e-10

    def test_energy_conserved(self):
        traj = ode_solve(self.rhs, [1.0, 0.0], (0.0, 1.0), tol=1e-12)
        v, vp = traj.states[:, 0], traj.states[:, 1]
        energy = vp**2 + self.k**2 * v**2
        assert np.max(np.abs(energy - self.k**2)) <= 1e-9

    def test_derivative_harmonic(self):
        # between the nodes too the interpolant's derivative is y' = (y1, -k^2 y0),
        # to about 100 times its values' 7e-12 on these 17 steps
        traj = dense_solve(self.rhs, [1.0, 0.0], (0.0, 1.0), tol=1e-12)
        rs = np.linspace(0.0, 1.0, 101)
        dy = traj.derivative(rs)
        assert dy.shape == (2, 101) and traj.derivative(0.5).shape == (2,)
        assert np.max(np.abs(dy[0] + self.k * np.sin(self.k * rs))) <= 1e-9
        assert np.max(np.abs(dy[1] + self.k**2 * np.cos(self.k * rs))) <= 2e-9

    def test_tolerance_scaling(self):
        def max_err(tol):
            traj = dense_solve(self.rhs, [1.0, 0.0], (0.0, 1.0), tol=tol)
            rs = np.linspace(0.0, 1.0, 101)
            return np.max(np.abs(traj(rs)[0] - np.cos(self.k * rs)))

        loose, tight = max_err(1e-6), max_err(1e-9)
        assert tight < loose
        assert loose < 1e-4

    def test_reproduces_bubble(self):
        lam = 10.0

        def bubble_rhs(r, y):
            return [y[1], -3.0 * y[0] ** 5 - 2.0 * y[1] / r]

        delta = 1e-8
        M = math.sqrt(lam)
        u0 = M - 0.5 * M**5 * delta**2  # series start with m = 0
        up0 = -M**5 * delta
        traj = dense_solve(bubble_rhs, [u0, up0], (delta, 1.0), tol=1e-12)
        rs = np.linspace(0.01, 1.0, 50)
        exact = np.sqrt(lam) / np.sqrt(1 + lam**2 * rs**2)
        assert np.max(np.abs(traj(rs)[0] - exact)) <= 1e-8

    def test_steps_are_scipys(self):
        # scipy's DOP853 is the oracle: a forced Duffing oscillator and its
        # integral of y^2, per-state tolerances, bit for bit, from as many
        # right-hand side calls as scipy's, rejected steps among them
        calls = []

        def duffing(t, y):
            calls.append(t)
            return [y[1], -9.0 * y[0] - math.sin(t) * y[0] ** 3, y[0] ** 2]

        tol, atol = np.array([1e-10, 1e-10, 1e-8]), np.array([1e-12, 1e-12, 1e-9])
        sol = integrate.solve_ivp(duffing, (0.0, 3.0), [1.0, 0.0, 0.0], method="DOP853",
                                  rtol=tol, atol=atol, dense_output=True)
        calls.clear()
        lean = ode_solve(duffing, [1.0, 0.0, 0.0], (0.0, 3.0), tol, atol=atol)
        traj = densify(lean, duffing)
        # 2 first-step calls and 12 a step, 12 more for each rejected step,
        # and densify's 3 a step
        assert len(calls) == sol.nfev > 2 + 15 * (len(sol.t) - 1)
        assert np.array_equal(traj.nodes, sol.t)
        assert np.array_equal(traj.states, sol.y.T)
        F = np.array([p.F for p in sol.sol.interpolants]).transpose(1, 0, 2)
        assert np.array_equal(traj.F, F)
        ts = np.linspace(0.0, 3.0, 301)
        assert np.array_equal(traj(ts), sol.sol(ts))
        assert np.array_equal(traj.rows(slice(1, 3))(ts), sol.sol(ts)[1:])
        assert lean.F is None
        assert np.array_equal(lean.states, traj.states)

    def test_densify_some_states_is_scipys(self):
        # two uncoupled forced Duffing oscillators stacked, integrated lean:
        # densifying the second alone, with a right-hand side of its states
        # only, gives scipy's dense output of those states bit for bit
        def duffing(w):
            return lambda t, y: [y[1], -w * y[0] - math.sin(t) * y[0] ** 3]

        one, two = duffing(9.0), duffing(4.0)

        def pair(t, y):
            return one(t, y[:2]) + two(t, y[2:])

        y0, span, tol = [1.0, 0.0, 0.5, 0.2], (0.0, 3.0), 1e-10
        sol = integrate.solve_ivp(pair, span, y0, method="DOP853", rtol=tol, atol=tol,
                                  dense_output=True)
        lean = ode_solve(pair, y0, span, tol)
        assert lean.F is None and lean.K.shape == (len(sol.t) - 1, 13, 4)
        rows = densify(lean, two, np.array([2, 3]))
        F = np.array([p.F for p in sol.sol.interpolants]).transpose(1, 0, 2)
        assert np.array_equal(rows.states, sol.y[2:].T)
        assert np.array_equal(rows.F, F[:, :, 2:])
        ts = np.linspace(0.0, 3.0, 301)
        assert np.array_equal(rows(ts), sol.sol(ts)[2:])

    def test_dense_matches_nodes(self):
        traj = dense_solve(self.rhs, [1.0, 0.0], (0.0, 1.0), tol=1e-12)
        assert np.all(np.diff(traj.nodes) > 0)
        i = len(traj.nodes) // 2
        assert traj(traj.nodes[i])[0] == pytest.approx(
            traj.states[i, 0], abs=1e-12
        )


class TestRichardsonFit:
    def test_exact_linear(self):
        eps = [0.1, 0.05, 0.025, 0.0125]
        L, c, rms = richardson_fit([(e, 2 + 3 * e) for e in eps])
        assert L == pytest.approx(2.0, abs=1e-12)
        assert c == pytest.approx(3.0, abs=1e-10)
        assert rms <= 1e-12

    def test_quadratic_model(self):
        eps = [0.1, 0.05, 0.025, 0.0125]
        L, _, rms = richardson_fit(
            [(e, 1 + e + e * e) for e in eps], quadratic=True
        )
        assert L == pytest.approx(1.0, abs=1e-12)
        assert rms <= 1e-13

    def test_rank_deficiency(self):
        with pytest.raises(ValueError):
            richardson_fit([(0.1, 1.0), (0.05, 1.1)], quadratic=True)

    def test_noise_recovery(self):
        rng = np.random.default_rng(11)
        eps = np.geomspace(0.1, 0.003, 20)
        sigma = 1e-5
        y = 5.0 + 2.0 * eps + rng.normal(0.0, sigma, eps.size)
        L, _, _ = richardson_fit(list(zip(eps, y)))
        # standard error of the intercept is ~ sigma / sqrt(n) up to leverage
        assert abs(L - 5.0) <= 3 * sigma

"""Foundation numerics: moments, Bessel functions, quadrature, ODE, roots,
extrapolation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballblowup.numkit import (
    DivergentMomentError,
    NoSignChangeError,
    brent_root,
    bubble_moment,
    ode_solve,
    quad_radial,
    richardson_fit,
    sph_bessel,
)


class TestBubbleMoment:
    def test_t4_over_cube(self):
        assert bubble_moment(4, 3) == pytest.approx(3 * math.pi / 16, rel=1e-13)

    def test_arctangent(self):
        assert bubble_moment(0, 1) == pytest.approx(math.pi / 2, rel=1e-13)

    def test_beta_identity(self):
        # (1/2) B(2, 1/2) = 2/3
        assert bubble_moment(3, 2.5) == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_divergent(self):
        with pytest.raises(DivergentMomentError):
            bubble_moment(4, 2.5)

    @given(
        p=st.integers(min_value=0, max_value=6),
        q2=st.integers(min_value=2, max_value=10),  # q = q2/2
    )
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_quadrature(self, p, q2):
        q = q2 / 2.0
        if q <= (p + 1) / 2.0:
            return
        exact = bubble_moment(p, q)
        quad = quad_radial(lambda t: t**p * (1 + t * t) ** -q, 0.0, math.inf, 1e-12)
        assert quad.value == pytest.approx(exact, abs=1e-10 * max(1, exact))


class TestSphBessel:
    def test_j0(self):
        assert sph_bessel("j", 0, math.pi / 2) == pytest.approx(2 / math.pi, rel=1e-13)

    def test_j1(self):
        assert sph_bessel("j", 1, math.pi / 2) == pytest.approx(
            4 / math.pi**2, rel=1e-13
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
        assert w == pytest.approx(1.0 / x**2, rel=1e-10)


class TestQuadRadial:
    def test_cos_squared(self):
        res = quad_radial(lambda r: math.cos(math.pi * r / 2) ** 2, 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_g_dlambda_u_integral(self):
        def f(r):
            g = 1.0 / r - (1 + r * r) ** -0.5
            dlu = (1 - r * r) / (2 * (1 + r * r) ** 1.5)
            return g * dlu * r * r

        res = quad_radial(f, 0.0, math.inf, 1e-12)
        assert 4 * math.pi * res.value == pytest.approx(
            2 * math.pi * (3 - math.pi), rel=1e-11
        )

    def test_whole_space_u6(self):
        res = quad_radial(lambda t: t * t * (1 + t * t) ** -3, 0.0, math.inf, 1e-12)
        assert 4 * math.pi * res.value == pytest.approx(math.pi**2 / 4, rel=1e-12)
        assert res.value == pytest.approx(bubble_moment(2, 3), rel=1e-12)

    def test_error_estimate_bounds_refinement(self):
        res = quad_radial(lambda r: math.exp(-r) * math.sin(10 * r), 0.0, 5.0, 1e-10)
        refined = quad_radial(
            lambda r: math.exp(-r) * math.sin(10 * r), 0.0, 5.0, 1e-13
        )
        assert abs(res.value - refined.value) <= max(res.error_estimate, 1e-13)


class TestOdeSolve:
    k = 3.0

    def rhs(self, r, y):
        return [y[1], -self.k**2 * y[0]]

    def test_harmonic_solution(self):
        traj = ode_solve(self.rhs, [1.0, 0.0], (0.0, 1.0), tol=1e-12)
        rs = np.linspace(0.0, 1.0, 101)
        err = np.max(np.abs(traj(rs)[0] - np.cos(self.k * rs)))
        assert err <= 1e-10

    def test_energy_conserved(self):
        traj = ode_solve(self.rhs, [1.0, 0.0], (0.0, 1.0), tol=1e-12)
        v, vp = traj.states[:, 0], traj.states[:, 1]
        energy = vp**2 + self.k**2 * v**2
        assert np.max(np.abs(energy - self.k**2)) <= 1e-9

    def test_tolerance_scaling(self):
        def max_err(tol):
            traj = ode_solve(self.rhs, [1.0, 0.0], (0.0, 1.0), tol=tol)
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
        traj = ode_solve(bubble_rhs, [u0, up0], (delta, 1.0), tol=1e-12)
        rs = np.linspace(0.01, 1.0, 50)
        exact = np.sqrt(lam) / np.sqrt(1 + lam**2 * rs**2)
        assert np.max(np.abs(traj(rs)[0] - exact)) <= 1e-8

    def test_dense_matches_nodes(self):
        traj = ode_solve(self.rhs, [1.0, 0.0], (0.0, 1.0), tol=1e-12)
        assert np.all(np.diff(traj.nodes) > 0)
        i = len(traj.nodes) // 2
        assert traj(traj.nodes[i])[0] == pytest.approx(
            traj.states[i, 0], abs=1e-12
        )


class TestBrentRoot:
    def test_cot(self):
        res = brent_root(lambda k: math.cos(k) / math.sin(k), (1.0, 2.0))
        assert res.root == pytest.approx(math.pi / 2, abs=1e-12)
        assert 1.0 <= res.root <= 2.0

    def test_kcotk_plus_one(self):
        f = lambda k: k * math.cos(k) / math.sin(k) + 1.0
        # independent bisection oracle
        lo, hi = 1.5, 2.5
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        oracle = 0.5 * (lo + hi)
        res = brent_root(f, (1.5, 2.5))
        assert res.root == pytest.approx(oracle, abs=1e-10)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            brent_root(lambda x: x * x + 1.0, (0.0, 1.0))


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

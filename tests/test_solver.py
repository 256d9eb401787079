"""Radial shooting solver and its identity-based diagnostics."""

import dataclasses
import functools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import integrate

from ballblowup import greenfn, solver
from ballblowup.asympt import build_report, fit_bubble, records_from_sweep
from ballblowup.greenfn import BallDomain, RadialCoefficient, ga_center, qv_center
from ballblowup.numkit import ode_solve, radial_quadrature_rule
from ballblowup.solver import (
    SOBOLEV_CONSTANT,
    ProblemConfig,
    RadialSolution,
    greens_rep_residual,
    pohozaev_residual,
    solve_ladder,
    solve_profile,
    taylor_start,
)

from conftest import CRITICAL_A, EPS_LADDER, make_config, quad_oracle

const = RadialCoefficient.constant_coeff
TABLE_41 = RadialCoefficient(values=-3 * np.exp(-8 * np.linspace(0.0, 1.0, 41) ** 2),
                             abscissae=np.linspace(0.0, 1.0, 41))


def _record(monkeypatch, module):
    """Every ``ode_solve`` call that ``module`` makes from now on, as
    (args, kwargs, trajectory)."""
    calls, orig = [], module.ode_solve

    def recording(*args, **kwargs):
        calls.append((args, kwargs, orig(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(module, "ode_solve", recording)
    return calls


def _scipy_twin(rhs, y0, span, tol, atol=None, dense=True):
    """scipy's DOP853 run of the ``ode_solve`` call with these arguments,
    with dense output."""
    return integrate.solve_ivp(rhs, span, y0, method="DOP853", rtol=tol,
                               atol=tol if atol is None else atol, dense_output=True)


def _assert_same_steps(traj, sol):
    """``traj`` took scipy's steps: the same nodes, states and interpolant
    coefficients, bit for bit."""
    assert np.array_equal(traj.nodes, sol.t)
    assert np.array_equal(traj.states, sol.y.T)
    F = np.array([p.F for p in sol.sol.interpolants]).transpose(1, 0, 2)
    assert np.array_equal(traj.F, F)


class TestTaylorStart:
    def test_zero_height(self):
        assert taylor_start(0.0, -1.0, 1e-6)[:2] == (0.0, 0.0)

    def test_massless_series(self):
        # m = 0: the series is the bubble M (1 + M^4 r^2)^{-1/2} to roundoff
        # at the start, where lam delta = 1e-2
        for M in (0.5, 1.7, 20.0, 160.0):
            r = 1e-2 / max(1.0, M**2)
            x = 1.0 + M**4 * r**2
            u, up = taylor_start(M, 0.0, r)[:2]
            assert u == pytest.approx(M * x**-0.5, rel=1e-15, abs=0)
            assert up == pytest.approx(-(M**5) * r * x**-1.5, rel=1e-15, abs=0)

    def test_matches_bubble(self):
        lam = 10.0
        M = math.sqrt(lam)
        for d in (1e-3, 5e-4):
            u, up = taylor_start(M, 0.0, d)[:2]
            exact = math.sqrt(lam) / math.sqrt(1 + lam**2 * d**2)
            # series truncation error is O(d^4) with an O(lam^{9/2}) constant
            assert abs(u - exact) <= 10 * lam**4.5 * d**4

    @pytest.mark.parametrize("M", [0.5, 20.0, 160.0])
    @pytest.mark.parametrize("V", [const(-1.0), TABLE_41], ids=["constant", "table"])
    def test_matches_r_form(self, V, M):
        # the series at the start against scipy's DOP853 in r at rtol 1e-13
        # from the two-term start at 1e-6 / max(1, M^2); they read <= 2.7e-15.
        # The table's cubic matters: with m(0) alone the table reads 3.5e-9
        # (u) and 1.2e-4 (u') at M = 0.5
        a, eps = const(CRITICAL_A), 0.3
        m, _ = ProblemConfig(domain=BallDomain(1.0), a=a, V=V, eps=eps).m_center()
        old, delta = (s / max(1.0, M**2) for s in (1e-6, 1e-2))
        c = m[0] * M - 3.0 * M**5

        def rhs(r, y):
            return [y[1], (a.at(r) + eps * V.at(r)) * y[0] - 3.0 * y[0] ** 5 - 2.0 * y[1] / r]

        ref = integrate.solve_ivp(rhs, (old, delta), [M + c * old**2 / 6, c * old / 3],
                                  method="DOP853", rtol=1e-13, atol=1e-300).y[:, -1]
        for got, want in zip(taylor_start(M, m, delta)[:2], ref):
            assert got == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("M", [0.5, 20.0, 160.0])
    def test_sensitivity_start(self, M):
        # (z, z') = d(u, u')/dM at the start against a central difference in
        # M, step 1e-5 M; they read <= 5.1e-12 and 2.0e-10
        m, _ = ProblemConfig(domain=BallDomain(1.0), a=const(CRITICAL_A), V=TABLE_41,
                             eps=0.3).m_center()
        delta, h = 1e-2 / max(1.0, M**2), 1e-5 * M
        z = taylor_start(M, m, delta)[2:]
        hi, lo = (taylor_start(M + s, m, delta)[:2] for s in (h, -h))
        for got, x, y in zip(z, hi, lo):
            assert got == pytest.approx((x - y) / (2 * h), rel=1e-8, abs=0)

    def test_start_within_first_knot_interval(self):
        # a 257-knot table's first piece ends at 1/256 < 1e-2: a low rung
        # starts there, where the cubic of the series is still the spline
        r = np.linspace(0.0, 1.0, 257)
        V = RadialCoefficient(values=-3 * np.exp(-8 * r**2), abscissae=r)
        cfg = ProblemConfig(domain=BallDomain(1.0), a=const(CRITICAL_A), V=V, eps=0.05)
        for M in (0.5, 5.0, 20.0):
            _, delta = solver._integrate([M], [cfg])
            assert delta == min(1e-2 / max(1.0, M**2), r[1])
        coefs, span = V.center_polynomial()
        assert span == r[1]
        x = np.linspace(0.0, span, 9)
        assert np.allclose(np.polynomial.polynomial.polyval(x, coefs), V(x), rtol=1e-14, atol=0)


def _endpoint(M, cfg):
    """The endpoint map u(R; M) = R^{-1/2} w(ln R; M) of one shooting
    integration from the center height M, past any interior zero."""
    traj, _ = solver._integrate([M], [cfg])
    return traj.states[-1, 0] / math.sqrt(cfg.domain.R)


class TestShoot:
    def test_linear_regime_positive(self):
        # for small M the profile is essentially M sin(k r)/(k r) with
        # k = sqrt(|m|) < pi, positive up to the boundary
        assert _endpoint(1e-3, make_config(0.05)) > 0

    def test_endpoint_changes_sign(self):
        cfg = make_config(0.05)
        signs = set()
        M = 1.0
        while M <= 1e3:
            signs.add(_endpoint(M, cfg) > 0)
            if len(signs) == 2:
                break
            M *= 2.0
        assert signs == {True, False}

    def test_endpoint_is_newtons_map(self):
        # above the root the profile crosses zero inside the ball, and the
        # map still reads R^{-1/2} w(ln R) of the plain shooting integration;
        # the bracket scan finds its sign change, one integration a height
        R = 2.0
        cfg = ProblemConfig(domain=BallDomain(R), a=const(CRITICAL_A / R**2),
                            V=const(-1.0 / R**2), eps=0.05)
        traj, _ = solver._integrate([30.0], [cfg])
        assert traj.nodes[-1] == math.log(R)
        assert traj.states[-1, 0] < 0
        tally = Counter()
        ((lo, hi),) = solver._find_bracket([cfg], [tally])
        assert hi == 1.3 * lo and _endpoint(lo, cfg) > 0 > _endpoint(hi, cfg)
        assert tally["bracket"] == round(math.log(lo / 0.5) / math.log(1.3)) + 2

    def test_monotone_profile(self, canonical_solutions):
        u = canonical_solutions[0]
        rs = np.linspace(0.01, 0.99, 50)
        assert np.all(u.uprime_at(rs) < 0)


class TestSolveProfile:
    @pytest.fixture(scope="class")
    @staticmethod
    def sol_005():
        return solve_profile(make_config(0.05))

    def test_rate_envelope(self, sol_005):
        lam_hat = sol_005.M**2
        target = math.pi**3 / 2
        assert abs(0.05 * lam_hat - target) <= 0.25 * target

    def test_energy_identity(self, sol_005):
        assert sol_005.energy_identity_residual <= 1e-7

    def test_sobolev_quotient_below_sharp(self, sol_005):
        assert sol_005.sobolev_quotient < SOBOLEV_CONSTANT

    def test_endpoint_and_positivity(self, sol_005):
        assert abs(sol_005.diagnostics["endpoint"]) <= sol_005.config.shoot_tol
        assert sol_005.diagnostics["endpoint"] == sol_005.u_at(1.0)
        nodes, _, u, _ = sol_005.sample
        assert nodes[-1] < 1.0 and np.all(u > -sol_005.config.shoot_tol)

    @pytest.mark.parametrize("factor", [1.3, 2.0, 3.0, 30.0])
    def test_positivity_violated(self, sol_005, factor):
        # above the root the profile crosses zero at r ~ 0.992 .. 0.997,
        # inside the finalize's last step; the sample's last node sits at
        # ~0.9997 R, past the crossing
        cfg = sol_005.config
        (out,) = solver._finalize([factor * sol_005.M], [cfg], [Counter()], ["rate_law"])
        assert isinstance(out, RuntimeError) and "positivity violated" in str(out)

    def test_pde_residual(self, sol_005):
        assert sol_005.diagnostics["pde_residual"] <= 1e-9

    def test_determinism(self, sol_005):
        again = solve_profile(make_config(0.05))
        assert again.M == sol_005.M
        rs = np.linspace(0.1, 0.9, 9)
        assert np.array_equal(again.u_at(rs), sol_005.u_at(rs))


    def test_pde_residual_matches_pointwise_loop(self, sol_005):
        # reference: the residual evaluated one radius at a time
        s = sol_005
        lam_hat = s.M**2
        rs = np.geomspace(1e-5 / max(lam_hat, 1.0), 0.98, 60)
        res_max = scale = 0.0
        for r in rs:
            h = min(1e-4 * (r + 1.0 / max(lam_hat, 1.0)), 0.45 * r)
            up = s.uprime_at
            d1 = (up(r + h) - up(r - h)) / (2 * h)
            d2 = (up(r + h / 2) - up(r - h / 2)) / h
            upp_fd = (4 * d2 - d1) / 3.0
            u = s.u_at(r)
            rhs = float(s.config.m(r)) * u - 3.0 * u**5 - 2.0 * up(r) / r
            res_max = max(res_max, abs(upp_fd - rhs))
            scale = max(scale, abs(rhs), abs(upp_fd))
        ref = res_max / max(scale, 1.0)
        assert solver._pde_residual(s) == pytest.approx(ref, abs=1e-12)

    def test_tabulated_coefficient(self, sol_005):
        # V = -1 given as a table takes the spline path of the right-hand
        # sides, whose spline reads exactly -1: the constant-coefficient root
        # bit for bit
        V = RadialCoefficient(values=[-1.0] * 5, abscissae=np.linspace(0.0, 1.0, 5))
        cfg = ProblemConfig(domain=BallDomain(1.0), a=const(CRITICAL_A), V=V, eps=0.05)
        s = solve_profile(cfg)
        assert s.M == sol_005.M
        assert abs(s.diagnostics["endpoint"]) <= cfg.shoot_tol
        assert s.energy_identity_residual <= 1e-10
        assert s.diagnostics["pde_residual"] <= 1e-9


def _slope_and_quotient(eps, M, dM):
    """du(R)/dM from the variational states and its central difference
    quotient with step dM; (w, z) at t = ln R = 0 are (u(R), du(R)/dM) on
    the unit ball."""
    cfg = make_config(eps)
    traj, _ = solver._integrate([M], [cfg])
    hi, _ = solver._integrate([M + dM], [cfg])
    lo, _ = solver._integrate([M - dM], [cfg])
    return traj.states[-1, 2], (hi.states[-1, 0] - lo.states[-1, 0]) / (2 * dM)


class TestNewton:
    def test_sensitivity_matches_finite_difference(self):
        # the step balances truncation against the ~1e-12 noise in u(R)
        slope, fd = _slope_and_quotient(0.02, 27.0, 1e-3)
        assert slope == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("eps, M", [(3.125e-4, 222.7), (1.5625e-4, 315.0)])
    def test_deep_sensitivity_matches_finite_difference(self, eps, M):
        # lam ~ 5e4 and 1e5: the noise in u(R) scatters a quotient at
        # dM = 1e-6 M by up to 3%, so the step is 1e-4 M
        slope, fd = _slope_and_quotient(eps, M, 1e-4 * M)
        assert slope == pytest.approx(fd, rel=1e-3)

    @pytest.mark.parametrize("lam", [1e2, 1e4])
    def test_emden_fowler_bubble(self, lam):
        # m = 0: the bubble of height M = lam^{1/2} is w = (2 cosh s)^{-1/2},
        # s = t + 2 ln M, and z = dw/dM = -(2/M) sinh s (2 cosh s)^{-3/2}
        cfg = ProblemConfig(domain=BallDomain(1.0), a=const(0.0), V=const(0.0))
        M = math.sqrt(lam)
        traj, _ = solver._integrate([M], [cfg])
        assert traj.nodes[-1] == 0.0
        w, _, z, _ = traj.states[-1]
        s = 2 * math.log(M)
        assert w == pytest.approx((2 * math.cosh(s)) ** -0.5, abs=1e-10)
        assert z == pytest.approx(-(2 / M) * math.sinh(s) * (2 * math.cosh(s)) ** -1.5,
                                  abs=1e-10)

    def test_deep_rung_stops_at_noise_floor(self, monkeypatch):
        # at lam ~ 1.5e4 integration noise fixes the root only to ~1e-8
        # relative; Newton must stop there, not leave it to the scan
        calls = _record(monkeypatch, solver)
        s = solve_profile(make_config(0.001))
        assert s.diagnostics["seed"] == "rate_law"
        assert len(calls) <= 6
        assert abs(s.diagnostics["endpoint"]) <= 1e-10

    def test_scan_agrees_with_rate_law(self, canonical_solutions, monkeypatch):
        # the same ladder without the rate law: every rung scans, and Newton
        # from the brackets lands on the rate-law roots; the deepest rung
        # reads 2.6e-9
        monkeypatch.setattr(solver, "_rate_law", lambda cfg: None)
        sols = [s for _, s in solve_ladder([s.config for s in canonical_solutions])]
        for s_law, s in zip(canonical_solutions, sols):
            assert s.diagnostics["seed"] == "scan"
            assert s_law.M == pytest.approx(s.M, rel=1e-7)

    def test_bad_seed_falls_back(self, canonical_solutions):
        # a start the window Newton fails from: the scan finds the root
        good = canonical_solutions[1]
        s = _bad_start(good)
        assert s.diagnostics["seed"] == "scan"
        assert s.M == pytest.approx(good.M, rel=1e-7)
        assert abs(s.diagnostics["endpoint"]) <= s.config.shoot_tol


def _bad_start(good):
    """``good``'s rung solved alone from a rate law that puts its Newton
    start at 1.4 times the root."""
    law = (1.4 * good.M) ** 2 * good.config.eps
    (s,) = solver._solve([good.config], [Counter()], law)
    return s


def _scan_path(cfgs):
    """Center heights as the driver finds them without the rate law: each
    rung's bracket from a scan of its own over the default M range, then
    Newton in lockstep from the brackets' lower ends."""
    brackets = [solver._find_bracket([cfg], [Counter()])[0] for cfg in cfgs]
    return solver._newton(cfgs, [lo for lo, _ in brackets], brackets,
                          [Counter() for _ in cfgs])


class TestRateLawSeed:
    def test_cold_rung_starts_from_rate_law(self, canonical_solutions):
        s = canonical_solutions[0]  # solved without a continuation seed
        assert s.diagnostics["seed"] == "rate_law"
        counts = s.diagnostics["shoot_integrations"]
        assert counts["bracket"] == 0
        assert counts["root"] <= 5
        assert counts["finalize"] == 1
        assert s.M == pytest.approx(_scan_path([s.config])[0], rel=1e-9, abs=0)

    def test_fallback_phases_counted(self, canonical_solutions):
        counts = _bad_start(canonical_solutions[1]).diagnostics["shoot_integrations"]
        assert counts["bracket"] > 0 and counts["root"] > 0 and counts["finalize"] == 1

    def test_supercritical_a_scans(self):
        # a = -3 < a*: phi_a(0) = -0.28, so M stays bounded as eps -> 0 and
        # the rate law is no seed; the scan path is cheaper than a start
        # from the law's height and lands on the same root
        a, V, eps = const(-3.0), const(-1.0), 0.05
        cfg = ProblemConfig(domain=BallDomain(1.0), a=a, V=V, eps=eps)
        s = solve_profile(cfg)
        assert s.diagnostics["seed"] == "scan"
        law = 4 * math.pi**2 * 3.0 / abs(qv_center(V, a, 1.0))
        (from_law,) = solver._solve([cfg], [Counter()], law)
        spent = sum(s.diagnostics["shoot_integrations"].values())
        assert spent < sum(from_law.diagnostics["shoot_integrations"].values())
        assert s.M == pytest.approx(from_law.M, rel=1e-9, abs=0)

    def test_outside_law_regime_scans(self):
        # a = -3 is supercritical and V = +1 gives Q_V(0) > 0: no rate law,
        # so every rung of a ladder scans and the rungs run Newton in
        # lockstep from their brackets, in <= 16 integrations a rung, and a
        # finalize of <= 90 steps; a start from its neighbour's
        # M ~ eps^{-1/2} took 34
        for V in (1.0, -1.0):
            cfgs = [ProblemConfig(domain=BallDomain(1.0), a=const(-3.0), V=const(V), eps=eps)
                    for eps in (0.08, 0.05, 0.02)]
            for M, (_, s) in zip(_scan_path(cfgs), solve_ladder(cfgs)):
                assert s.diagnostics["seed"] == "scan"
                assert s.diagnostics["shoot_integrations"]["bracket"] > 0
                assert sum(s.diagnostics["shoot_integrations"].values()) <= 16
                assert s.diagnostics["shoot_steps"]["finalize"] <= 90
                assert s.M == M

    def test_cold_rungs_scan_stacked(self, monkeypatch):
        # a = -2.48 is supercritical, so the canonical rungs all scan: they
        # integrate each height once together, and each leaves at its first
        # sign change, in 17 integrations in all (15 + 16 + 17 + 17 when
        # each rung scans alone); every rung keeps its own scan's bracket and
        # integration count, and Newton from there its root, bit for bit
        cfgs = [make_config(eps, a_const=-2.48) for eps in EPS_LADDER]
        integrate, find_bracket = solver._integrate, solver._find_bracket
        calls, scans = [], []

        def recording(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        def scanning(cfgs, tallies):
            before = len(calls)
            brackets = find_bracket(cfgs, tallies)
            scans.append((brackets, len(calls) - before))
            return brackets

        monkeypatch.setattr(solver, "_integrate", recording)
        monkeypatch.setattr(solver, "_find_bracket", scanning)
        sols = [s for _, s in solve_ladder(cfgs)]
        monkeypatch.undo()
        ((brackets, stacked),) = scans
        assert stacked <= 17
        alone = [find_bracket([cfg], [Counter()])[0] for cfg in cfgs]
        assert brackets == alone
        assert [s.diagnostics["shoot_integrations"]["bracket"] for s in sols] == [15, 16, 17, 17]
        assert [s.M for s in sols] == solver._newton(cfgs, [lo for lo, _ in alone], alone,
                                                     [Counter() for _ in cfgs])

    def test_scan_failure_is_the_rungs_own(self, monkeypatch):
        # with the scan cut at M = 20, the last height is 25.6: the rungs at
        # M = 17.07 and 21.73 find their sign change, the two above fail
        # alone, and the others still solve
        monkeypatch.setattr(solver, "_M_SCAN", (0.5, 20.0))
        sols = [s for _, s in solve_ladder([make_config(eps, a_const=-2.48)
                                            for eps in EPS_LADDER])]
        assert [s.M for s in sols[:2]] == pytest.approx([17.0719444229, 21.7271465929], rel=1e-10)
        for e in sols[2:]:
            assert isinstance(e, solver.NoBracketError) and "no sign change" in str(e)

    @pytest.mark.parametrize("a", [-2.0, -1.0, 2.0])
    def test_no_solution_raises_before_the_scan(self, a, monkeypatch):
        # a + eps V >= -pi^2/4: the unit ball has no positive solution
        # (Brezis & Nirenberg 1983), so no bracket is scanned
        shots = []
        monkeypatch.setattr(solver, "_integrate", lambda *args, **kw: shots.append(args))
        cfg = ProblemConfig(domain=BallDomain(1.0), a=const(a), V=const(-1.0), eps=0.04)
        with pytest.raises(solver.NoBracketError, match=r"no positive solution.*-pi\^2/\(4 R\^2\)"):
            solve_profile(cfg)
        assert shots == []


TABLE_R = np.linspace(0.0, 1.0, 65)
TABLE_V = RadialCoefficient(values=-(1 + 2 * TABLE_R**2), abscissae=TABLE_R)


def _ladder_cfgs(V, R=1.0):
    """The standard ladder for critical a on radius R."""
    return [
        ProblemConfig(domain=BallDomain(R), a=const(CRITICAL_A / R**2), V=V, eps=eps)
        for eps in EPS_LADDER
    ]


def _assert_scipy_bits(sol, traj, rows=slice(None)):
    """``traj`` gives scipy's dense output of ``sol`` (its ``rows``) bit for
    bit: at arrays of sorted and unsorted t, at every step node, in both
    orders, and at scalar t, both ends of the span among them."""
    nodes = sol.t
    inside = np.random.default_rng(3).uniform(nodes[0], nodes[-1], 400)
    graded = nodes[0] + np.geomspace(1e-9, 1.0, 200) * (nodes[-1] - nodes[0])
    for t in (inside, np.sort(inside), graded, nodes, nodes[::-1]):
        assert np.array_equal(traj(t), sol.sol(t)[rows])
    for t in (nodes[0], nodes[-1], float(inside[0]), *nodes[1:-1:13]):
        assert np.array_equal(traj(t), sol.sol(t)[rows])


def _marking(build, calls, *args):
    """The right-hand side ``build(*args)``, opening a list in ``calls`` at
    each of its calls."""
    rhs = build(*args)

    def marked(t, y):
        calls.append([])
        return rhs(t, y)

    return marked


class TestCoefficientReads:
    # a stacked integration of four rungs: every right-hand-side call reads
    # a and V once for all rungs, and constant a and V not at all
    @pytest.mark.parametrize("finalize", [False, True], ids=["shooting", "finalize"])
    @pytest.mark.parametrize("V", [TABLE_V, const(-1.0)], ids=["table", "constant"])
    def test_reads_per_call(self, monkeypatch, V, finalize):
        calls, at = [], RadialCoefficient.at  # the coefficients each call reads

        def reading(coeff, r):
            if calls:  # only the right-hand sides' reads
                calls[-1].append(coeff)
            return at(coeff, r)

        monkeypatch.setattr(RadialCoefficient, "at", reading)
        monkeypatch.setattr(solver, "_rhs", functools.partial(_marking, solver._rhs, calls))
        cfgs = _ladder_cfgs(V)
        solver._integrate([17.4, 24.7, 35.0, 49.5], cfgs, finalize=finalize)
        expected = [] if V.is_constant else [cfgs[0].a, V]
        assert len(calls) > 100
        for read in calls:
            assert len(read) == len(expected) and all(x is y for x, y in zip(read, expected))


class TestSolveLadder:
    @pytest.mark.parametrize(
        "V",
        [const(-1.0), const(-2.0), TABLE_V],
        ids=["canonical", "V=-2", "V=-(1+2r^2)"],
    )
    def test_rungs_match_scalar(self, V):
        cfgs = _ladder_cfgs(V)
        out = list(solve_ladder(cfgs))
        assert [eps for eps, _ in out] == EPS_LADDER
        for cfg, (_, s) in zip(cfgs, out):
            assert s.diagnostics["seed"] == "rate_law"
            scalar = solve_profile(cfg)
            assert s.M == pytest.approx(scalar.M, rel=1e-8)
            assert fit_bubble(s)[1] == pytest.approx(fit_bubble(scalar)[1], rel=1e-7)

    def test_canonical_integrations(self, canonical_solutions):
        # one loose and two full-tolerance lockstep Newton batches plus one
        # finalize, read off the rungs; no rung falls back.  In t = ln r from
        # the center series at 1e-2 / max(M)^2 the Newton batches take
        # 50 + 113 + 113 steps and the finalize 108.
        for s in canonical_solutions:
            assert s.diagnostics["seed"] == "rate_law"
            assert s.diagnostics["shoot_integrations"] == {"bracket": 0, "root": 3, "finalize": 1}
            steps = s.diagnostics["shoot_steps"]
            assert steps["bracket"] == 0 and 0 < steps["finalize"]
            assert steps["root"] <= 300 and steps["finalize"] <= 120

    def test_newton_tolerances(self, monkeypatch):
        # the first Newton integration at tol 1e-9, the later ones and the
        # finalize at ode_tol = 1e-12; each shooting atol is tol 1e-2
        # sqrt(delta), delta = 1e-2 / max(M)^2.  The finalize runs in t = ln r
        # from ln delta to ln R, from (sqrt(delta) u, delta^{3/2} u') of each
        # rung's center series, at an atol of tol |y0| per state
        calls = _record(monkeypatch, solver)
        sols = [s for _, s in solve_ladder(_ladder_cfgs(const(-1.0)))]
        tols = [(kwargs.get("dense", True), set(args[3].tolist())) for args, kwargs, _ in calls]
        assert tols == [(False, {1e-9}), (False, {1e-12}), (False, {1e-12}), (True, {1e-12})]
        for args, kwargs, _ in calls[:3]:
            root_delta = math.exp(args[2][0] / 2)  # the span starts at ln delta
            assert np.allclose(kwargs["atol"], args[3] * 1e-2 * root_delta, rtol=1e-12, atol=0)
        (_, y0, span, rtol), kwargs, _ = calls[3]
        delta = sols[0].delta
        assert delta == pytest.approx(1e-2 / sols[-1].M ** 2, rel=1e-15, abs=0)
        assert span == (math.log(delta), 0.0)
        starts = []
        for s in sols:
            u0, up0 = taylor_start(s.M, CRITICAL_A - s.config.eps, delta)[:2]
            starts += [math.sqrt(delta) * u0, delta**1.5 * up0]
        assert y0 == starts
        assert np.array_equal(kwargs["atol"], rtol * np.abs(starts))

    def test_rung_dense_is_its_rows(self, canonical_solutions, monkeypatch):
        # the stacked finalize takes scipy's steps, and its dense output and
        # each rung's of its two rows (w, v) are scipy's, bit for bit
        calls = _record(monkeypatch, solver)
        Ms = [s.M for s in canonical_solutions]
        cfgs = [s.config for s in canonical_solutions]
        finals = solver._finalize(Ms, cfgs, [Counter() for _ in Ms], ["rate_law"] * len(Ms))
        ((args, kwargs, traj),) = calls
        assert traj.states.shape[1] == 2 * len(Ms)
        sol = _scipy_twin(*args, **kwargs)
        _assert_same_steps(traj, sol)
        _assert_scipy_bits(sol, traj)
        for k, rs in enumerate(finals):
            _assert_scipy_bits(sol, rs.dense, slice(2 * k, 2 * k + 2))
            assert np.array_equal(rs.dense.states, sol.y[2 * k : 2 * k + 2].T)

    def test_ga_center_dense_is_scipys(self, monkeypatch):
        calls = _record(monkeypatch, greenfn)
        ga_center(const(CRITICAL_A), 1.0)
        ((args, kwargs, traj),) = calls
        sol = _scipy_twin(*args, **kwargs)
        _assert_same_steps(traj, sol)
        _assert_scipy_bits(sol, traj)

    def test_radius_scaling(self, canonical_solutions):
        # m / R^2 on radius R: u_R(x) = R^{-1/2} u_1(x / R), so lam_R = lam_1 / R
        R = 2.0
        scaled = solve_ladder(_ladder_cfgs(const(-1.0 / R**2), R))
        for s1, (_, s2) in zip(canonical_solutions, scaled):
            assert fit_bubble(s2)[1] * R == pytest.approx(fit_bubble(s1)[1], rel=1e-7)

    def test_window_exit_falls_back_with_continuation(self, canonical_solutions, monkeypatch):
        # the first rung leaves the batch: it alone scans for a bracket and
        # runs Newton from it, and its tally keeps the batch's integrations;
        # the other rungs keep their roots bit for bit
        newton, find_bracket = solver._newton, solver._find_bracket
        scanned = []

        def newton_dropping(cfgs, Ms, *args):
            roots = newton(cfgs, Ms, *args)
            if len(cfgs) > 1:
                roots[0] = None
            return roots

        def bracket_spy(cfgs, tallies):
            scanned.append([cfg.eps for cfg in cfgs])
            return find_bracket(cfgs, tallies)

        monkeypatch.setattr(solver, "_newton", newton_dropping)
        monkeypatch.setattr(solver, "_find_bracket", bracket_spy)
        sols = [s for _, s in solve_ladder([s.config for s in canonical_solutions])]
        first = canonical_solutions[0]
        assert scanned == [[first.config.eps]]
        assert sols[0].diagnostics["seed"] == "scan"
        counts = sols[0].diagnostics["shoot_integrations"]
        batched = first.diagnostics["shoot_integrations"]
        assert counts["bracket"] > 0 and counts["root"] > batched["root"]
        assert sols[0].M == pytest.approx(first.M, rel=1e-8)
        assert [s.M for s in sols[1:]] == [s.M for s in canonical_solutions[1:]]

    def test_failed_batch_solves_rungs_alone(self, canonical_solutions, monkeypatch):
        # a stacked integration that fails sends every rung through the
        # driver alone, each from its own rate-law height
        integrate_one = solver._integrate

        def failing(Ms, cfgs, *args, **kwargs):
            if len(Ms) > 1:
                raise RuntimeError("integration failed")
            return integrate_one(Ms, cfgs, *args, **kwargs)

        monkeypatch.setattr(solver, "_integrate", failing)
        sols = [s for _, s in solve_ladder([s.config for s in canonical_solutions])]
        assert [s.diagnostics["seed"] for s in sols] == ["rate_law"] * 4
        for s, ref in zip(sols, canonical_solutions):
            assert s.M == pytest.approx(ref.M, rel=1e-8)

    def test_failing_rung_fails_alone(self, canonical_solutions, monkeypatch):
        # every integration that carries the eps = 0.02 rung raises: the
        # stacked batch fails, each rung goes through the driver alone, and
        # only that rung fails
        integrate = solver._integrate

        def failing(Ms, cfgs, *args, **kwargs):
            if any(cfg.eps == 0.02 for cfg in cfgs):
                raise RuntimeError("integration failed")
            return integrate(Ms, cfgs, *args, **kwargs)

        monkeypatch.setattr(solver, "_integrate", failing)
        sols = [s for _, s in solve_ladder([s.config for s in canonical_solutions])]
        assert isinstance(sols[1], RuntimeError) and str(sols[1]) == "integration failed"
        for k in (0, 2, 3):
            assert sols[k].diagnostics["seed"] == "rate_law"
            assert sols[k].M == pytest.approx(canonical_solutions[k].M, rel=1e-8)

    @pytest.mark.parametrize("change", [{"V_const": -2.0}, {"R": 2.0}], ids=["V", "R"])
    def test_mixed_rungs_refused(self, change):
        # a stacked integration reads the first rung's a, V and R for all:
        # a second rung with its own would get the first one's profile
        a = CRITICAL_A / 4  # coercive on both balls
        cfgs = [make_config(0.04, a_const=a), make_config(0.02, a_const=a, **change)]
        with pytest.raises(ValueError, match="share R, a and V"):
            list(solve_ladder(cfgs))

    def test_tables_compared_by_value(self):
        # each rung holds its own table instance, with array values
        def table():
            return RadialCoefficient(values=-(1 + 2 * TABLE_R**2), abscissae=TABLE_R.copy())

        cfgs = [ProblemConfig(domain=BallDomain(1.0), a=const(CRITICAL_A), V=table(), eps=eps)
                for eps in (0.04, 0.02)]
        assert all(isinstance(s, RadialSolution) for _, s in solve_ladder(cfgs))

    def test_failed_rung_yields_error(self):
        cfgs = [dataclasses.replace(make_config(0.05), eps=0.0), make_config(0.04)]
        (e0, r0), (e1, r1) = solve_ladder(cfgs)
        assert (e0, e1) == (0.0, 0.04)
        assert isinstance(r0, ValueError) and isinstance(r1, RadialSolution)

    def test_rung_without_solution_fails_alone(self, monkeypatch):
        # a = -2, V = -1: at eps = 0.6 m = -2.6 lies below -pi^2/4 and the
        # rung scans to a profile; at eps = 0.04 m = -2.04 has no positive
        # solution, refused before any integration of that rung
        integrate, stacked = solver._integrate, []

        def recording(Ms, cfgs, *args, **kwargs):
            stacked.append([cfg.eps for cfg in cfgs])
            return integrate(Ms, cfgs, *args, **kwargs)

        monkeypatch.setattr(solver, "_integrate", recording)
        (_, s), (_, e) = solve_ladder([make_config(eps, a_const=-2.0) for eps in (0.6, 0.04)])
        assert isinstance(s, RadialSolution) and s.diagnostics["seed"] == "scan"
        assert isinstance(e, solver.NoBracketError) and "no positive solution" in str(e)
        assert stacked and all(epss == [0.6] for epss in stacked)


def _reference_M(cfg):
    """The center height of ``cfg`` solved alone at ode_tol 3e-14 and
    shoot_tol 1e-11; at ode_tol 1e-14 it moves <= 1e-11 relative."""
    return solve_profile(dataclasses.replace(cfg, ode_tol=3e-14, shoot_tol=1e-11)).M


def _r_form(s):
    """(u, u') of the constant-coefficient rung ``s`` by scipy's DOP853 in r
    at rtol 1e-13, from the same center height and center series at delta:
    the radial equation as written, sharing no right-hand side, variable or
    stepper with the finalize."""
    m = s.config.a.constant + s.config.eps * s.config.V.constant

    def rhs(r, y):
        u, up = y
        return [up, m * u - 3.0 * u**5 - 2.0 * up / r]

    return integrate.solve_ivp(rhs, (s.delta, s.R), taylor_start(s.M, m, s.delta)[:2],
                               method="DOP853", rtol=1e-13, atol=1e-14, dense_output=True)


class TestAccuracy:
    @pytest.fixture(scope="class")
    @staticmethod
    def x8():
        """The canonical ladder's eps over 8: lam ~ 3e3 to 2.5e4."""
        return [s for _, s in solve_ladder([make_config(eps / 8) for eps in EPS_LADDER])]

    def test_profile_matches_r_form(self, canonical_solutions, x8):
        # eps = 0.005 and 0.000625, on the rule nodes above delta; they read
        # <= 1.4e-12 (u) and 3.2e-12 (u') of the sups
        for s in (canonical_solutions[-1], x8[-1]):
            nodes, _ = radial_quadrature_rule(s.M**2, s.R)
            nodes = nodes[nodes > s.delta]
            ref = _r_form(s).sol(nodes)
            for got, want in zip((s.u_at(nodes), s.uprime_at(nodes)), ref):
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_integrals_match_quad_oracle(self, canonical_solutions, x8):
        # the four integrals of the finalize's rule against adaptive
        # quadrature of the same dense profile, split at the bubble's scales;
        # they read <= 6.5e-13
        for s in (canonical_solutions[0], canonical_solutions[-1], x8[-1]):
            m = s.config.a.constant + s.config.eps * s.config.V.constant
            lam = s.M**2
            cuts = [0.0, *(x / lam for x in (0.1, 1.0, 10.0, 100.0, 1000.0) if x < lam), 1.0]

            def oracle(f):
                return 4 * math.pi * sum(quad_oracle(lambda r: f(r) * r * r, lo, hi)
                                         for lo, hi in zip(cuts, cuts[1:]))

            for got, f in [(s.grad_norm_sq, lambda r: s.uprime_at(r) ** 2),
                           (s.int_m_u2, lambda r: m * s.u_at(r) ** 2),
                           (s.int_u6, lambda r: s.u_at(r) ** 6),
                           (s.int_u2, lambda r: s.u_at(r) ** 2)]:
                assert got == pytest.approx(oracle(f), rel=2e-12, abs=0)

    def test_canonical_rungs_match_tight_reference(self, canonical_solutions):
        for s in canonical_solutions:
            assert s.M == pytest.approx(_reference_M(s.config), rel=2e-9)

    def test_deep_rung_matches_tight_reference(self, x8):
        # at lam ~ 2.5e4 |u(R)| <= shoot_tol holds for any M within ~1e-4
        # of the root, so only a relative step may stop Newton there
        assert x8[-1].M == pytest.approx(_reference_M(x8[-1].config), rel=2.5e-7)

    def test_deep_ladder_newton_batches(self, x8):
        for s in x8:
            assert s.diagnostics["seed"] == "rate_law"
            assert s.diagnostics["shoot_integrations"]["root"] <= 3

    def test_x32_ladder_verifies(self, critical_cg):
        # lam up to ~1e5: eps lam still rises toward pi^3/2 and every law passes
        sols = [s for _, s in solve_ladder([make_config(eps / 32) for eps in EPS_LADDER])]
        a = const(CRITICAL_A)
        records = records_from_sweep(sols)
        prods = [r.eps_lambda for r in records]
        assert all(q > p for p, q in zip(prods, prods[1:]))
        assert build_report(records, critical_cg, qv_center(const(-1.0), a, 1.0), 1.0).all_passed


def _counting_call(dense, sizes, t):
    """``dense(t)``, with the number of points in ``sizes``."""
    sizes.append(np.size(t))
    return dense(t)


class TestRungSample:
    def test_sample_is_the_rule(self, canonical_solutions):
        for s in canonical_solutions:
            nodes, wts, _, _ = s.sample
            rule_nodes, rule_wts = radial_quadrature_rule(s.M**2, s.R)
            assert np.array_equal(nodes, rule_nodes) and np.array_equal(wts, rule_wts)

    def test_sample_is_the_dense_output(self, canonical_solutions):
        for s in canonical_solutions:
            nodes, _, u, up = s.sample
            assert np.array_equal(u, s.u_at(nodes))
            assert np.array_equal(up, s.uprime_at(nodes))

    def test_finalize_sample_serves_the_analysis(self, canonical_solutions):
        # after the finalize, a rung's records evaluate the dense output only
        # at single points: the far field and the Green probes
        finals = solver._finalize([s.M for s in canonical_solutions],
                                  [s.config for s in canonical_solutions],
                                  [Counter() for _ in canonical_solutions],
                                  ["rate_law"] * len(canonical_solutions))
        sizes = []
        for s in finals:
            s.dense = functools.partial(_counting_call, s.dense, sizes)
        records_from_sweep(finals)
        assert sizes and max(sizes) == 1

    def test_greens_residual_with_given_center_data(self, canonical_solutions):
        s = canonical_solutions[0]
        cg = ga_center(const(CRITICAL_A), 1.0)
        assert greens_rep_residual(s, cg=cg) == greens_rep_residual(s)


class TestSweep:
    def test_lambda_increasing(self, canonical_solutions):
        lams = [s.M**2 for s in canonical_solutions]
        assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_rate_trend(self, canonical_solutions):
        prods = [s.config.eps * s.M**2 for s in canonical_solutions]
        target = math.pi**3 / 2
        errs = [abs(p - target) for p in prods]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_sobolev_quotient_increasing_below_sharp(self, canonical_solutions):
        qs = [s.sobolev_quotient for s in canonical_solutions]
        assert all(b > a for a, b in zip(qs, qs[1:]))
        assert all(q < SOBOLEV_CONSTANT for q in qs)

    def test_peak_scaling_band(self, canonical_solutions):
        # eps lam approaches pi^3/2 from below, so the band opens slightly
        # downward
        root_target = math.sqrt(math.pi**3 / 2)
        for s in canonical_solutions:
            val = s.M * math.sqrt(s.config.eps)
            assert 0.9 * root_target <= val <= 2 * root_target


class TestPohozaev:
    def test_converged_residual(self, canonical_solutions):
        for s in canonical_solutions:
            assert pohozaev_residual(s) <= 1e-6

    def test_exact_bubble_whole_space(self):
        # U with m = 0: (1/2) int |grad U|^2 - (3/2) int U^6
        # + (1/2) 4 pi Rc^3 U'(Rc)^2 -> 0 as the cutoff Rc grows
        lam = 1.0

        def resid(Rc):
            g = quad_oracle(
                lambda r: (lam**2.5 * r / (1 + lam**2 * r**2) ** 1.5) ** 2 * r**2, 0.0, Rc
            ) * 4 * math.pi
            u6 = quad_oracle(
                lambda r: (lam / (1 + lam**2 * r**2)) ** 3 * r**2, 0.0, Rc
            ) * 4 * math.pi
            upR = -(lam**2.5) * Rc / (1 + lam**2 * Rc**2) ** 1.5
            return abs(0.5 * g - 1.5 * u6 + 0.5 * 4 * math.pi * Rc**3 * upR**2) / g

        assert resid(100.0) < resid(10.0)
        assert resid(100.0) <= 1e-3

    def test_perturbation_sensitivity(self, canonical_solutions):
        # re-evaluate the identity for u (1 + 1e-2 sin(pi r)): the residual
        # must exceed 1e-4, confirming the diagnostic detects non-solutions
        s = canonical_solutions[0]
        m = CRITICAL_A + s.config.eps * (-1.0)

        def pert(r):
            return 1.0 + 1e-2 * math.sin(math.pi * r)

        def dpert(r):
            return 1e-2 * math.pi * math.cos(math.pi * r)

        def up2(r):
            return (s.uprime_at(r) * pert(r) + s.u_at(r) * dpert(r)) ** 2 * r**2

        g = 4 * math.pi * quad_oracle(up2, 0.0, 1.0)
        u2 = 4 * math.pi * quad_oracle(
            lambda r: (s.u_at(r) * pert(r)) ** 2 * r**2, 0.0, 1.0
        )
        u6 = 4 * math.pi * quad_oracle(
            lambda r: (s.u_at(r) * pert(r)) ** 6 * r**2, 0.0, 1.0
        )
        upR = s.uprime_at(1.0) * pert(1.0) + s.u_at(1.0) * dpert(1.0)
        resid = abs(0.5 * g + 1.5 * m * u2 - 1.5 * u6 + 0.5 * 4 * math.pi * upR**2) / g
        assert resid > 1e-4


class TestGreensRepresentation:
    def test_converged_residual(self, canonical_solutions):
        for s in canonical_solutions:
            assert greens_rep_residual(s) <= 1e-5

    def test_manufactured_linear_problem(self):
        # (-Delta + a) z = 1 with a = -1 on the unit ball has the closed form
        # z = sin(r)/(r sin 1) - 1; reproduce it with the same variation-of-
        # parameters kernel the representation check uses.
        a = const(-1.0)
        cg = ga_center(a, 1.0)

        def rhs(r, y):
            z1, z1p = y
            return [z1p, -z1]  # -Z'' + a Z = 0, a = -1

        traj = ode_solve(rhs, [1e-10, 1.0], (1e-10, 1.0), tol=1e-13)
        nodes, wts = radial_quadrature_rule(1.0, 1.0)
        z1 = traj(nodes)[0]
        z2 = np.asarray(cg.v(nodes))
        F = nodes * 1.0  # source f = 1 in the reduced variable
        for rp in (0.3, 0.5, 0.7):
            inner = nodes <= rp
            z1p_val = float(traj(rp)[0])
            z2p_val = float(cg.v(rp))
            val = z2p_val * np.sum((wts * z1 * F)[inner]) + z1p_val * np.sum(
                (wts * z2 * F)[~inner]
            )
            z = val / rp
            exact = math.sin(rp) / (rp * math.sin(1.0)) - 1.0
            # the probe splits a quadrature panel, which caps the accuracy
            # of the split sums near 1e-6
            assert z == pytest.approx(exact, abs=1e-6)

    def test_probes_scale_with_the_ball(self):
        # at R = 0.5 the probes are 0.15, 0.25, 0.35, all inside the ball
        R = 0.5
        u = solve_profile(make_config(0.16, a_const=CRITICAL_A / R**2, R=R))
        assert greens_rep_residual(u) <= 1e-9

    def test_wrong_normalization_fails(self, canonical_solutions):
        # center Green's data whose v is scaled by 4 pi scale the kernel by
        # 4 pi: 3/(4 pi) -> 3
        s = canonical_solutions[0]
        cg = ga_center(const(CRITICAL_A), 1.0)

        def scaled_state(r):
            z1, v, vp = cg._state(r)
            return z1, 4 * math.pi * v, 4 * math.pi * vp

        good = greens_rep_residual(s, cg=cg)
        bad = greens_rep_residual(s, cg=dataclasses.replace(cg, _state=scaled_state))
        assert bad >= 10 * 1e-5
        assert bad > 100 * good


class TestConfigGuards:
    def test_negative_eps(self):
        with pytest.raises(ValueError):
            ProblemConfig(domain=BallDomain(1.0), a=const(CRITICAL_A),
                          V=const(-1.0), eps=-0.1)

    def test_coercivity_guard(self):
        with pytest.raises(ValueError):
            ProblemConfig(domain=BallDomain(1.0), a=const(CRITICAL_A),
                          V=const(-1.0), eps=8.0)

    def test_eps_zero_refused_by_solver(self):
        import dataclasses

        cfg = dataclasses.replace(make_config(0.05), eps=0.0)
        with pytest.raises(ValueError):
            solve_profile(cfg)

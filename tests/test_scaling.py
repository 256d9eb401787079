"""One length scale.  The laws are covariant under (R, a, V, eps) ->
(s R, a/s^2, V/s^2, eps), with lam -> lam/s and M -> M/s^{1/2}; every
threshold of the package is in units of R, so a verdict on the ball s R is
the one on the unit ball."""

import json
import math

import numpy as np
import pytest

from ballblowup.asympt import build_report, records_from_sweep
from ballblowup.bubble import calculus_verdict
from ballblowup.cli import DEFAULT_PROBES, EXIT_OK, main
from ballblowup.greenfn import HelmholtzSeries, blowup_laws, ga_center, na_scan
from ballblowup.solver import solve_ladder

from conftest import CRITICAL_A, EPS_LADDER, const, ladder, make_config

# the power of s that takes a record field on the ball s R to its value on
# the unit ball
RECORD_POWERS = {"lam": 1.0, "M": 0.5, "alpha": 0.0, "beta": 1.0, "gamma": 1.0,
                 "norm_grad_w": 0.0, "norm_grad_r": 0.0, "farfield_error": 0.0}
# the same for the limits of the report
LIMIT_POWERS = {"rate": 1.0, "alpha_slope": 0.0, "beta": 1.0, "gamma": 1.0}


def _canonical(s):
    """Records and report of the canonical ladder on the ball s: critical a,
    V = -1/s^2, the default probes in units of R."""
    recs = records_from_sweep(ladder(a_const=CRITICAL_A / s**2, V_const=-1.0 / s**2, R=s),
                              [p * s for p in DEFAULT_PROBES])
    laws = blowup_laws(const(CRITICAL_A / s**2), const(-1.0 / s**2), s)
    return recs, build_report(recs, laws)


@pytest.fixture(scope="module")
def unit_ball(canonical_records, canonical_laws):
    return canonical_records, build_report(canonical_records, canonical_laws)


@pytest.mark.parametrize("s", [0.25, 4.0])
def test_canonical_ladder_is_covariant(unit_ball, s):
    # at s = 4 the rung eps = 0.04 has lam = 95.4, lam R = 382: it is in the
    # trust region, and verify judges all four rungs
    (recs1, rep1), (recs, rep) = unit_ball, _canonical(s)
    for r1, r in zip(recs1, recs):
        for name, power in RECORD_POWERS.items():
            assert getattr(r, name) * s**power == pytest.approx(
                getattr(r1, name), rel=1e-8, abs=0), name
        assert r.sup_w_ratio == pytest.approx(r1.sup_w_ratio, rel=1e-6, abs=0)
    assert rep.rungs == rep1.rungs == EPS_LADDER
    assert rep.all_passed
    for name, power in LIMIT_POWERS.items():
        assert getattr(rep, name).limit * s**power == pytest.approx(
            getattr(rep1, name).limit, rel=1e-8, abs=0), name


@pytest.fixture(scope="module")
def unit_verdict():
    return calculus_verdict(-1.0, 1.0)


@pytest.mark.parametrize("s", [1e-3, 0.25, 0.5, 4.0])
def test_calculus_verdict_is_covariant(unit_verdict, s):
    # the lam ladder is B3_LAMS / min(R, |a|^{-1/2}); at s = 0.5 the fixed
    # ladder 1e2 .. 1e4 read 1.05e-2 in the U4_dlamU_H subleading row
    rows1, _ = unit_verdict
    rows, passed = calculus_verdict(-1.0 / s**2, s)
    assert passed
    assert [r[:2] for r in rows] == [r[:2] for r in rows1]
    for (name, kind, *_, err), (*_, err1) in zip(rows, rows1):
        if kind != "closed form":
            assert err == pytest.approx(err1, rel=1e-6, abs=0), (name, kind)


@pytest.mark.parametrize("R", [5e-4, 1e-3, 5e3])
def test_greens_at_extreme_radii(tmp_path, R):
    # phi_a and its Hessian are judged in units of R: on small balls the
    # rounding of phi_a(0) made a second zero, and at R = 5e3 the Hessian
    # 4.06 / R^3 read degenerate
    cfg, out = tmp_path / "config.json", tmp_path / "greens.json"
    cfg.write_text(json.dumps({"R": R}))
    assert main(["greens", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    crit = json.loads(out.read_text())["criticality"]
    assert crit["zeros"] == [0.0]
    assert crit["critical"] and crit["nondegenerate"]
    assert crit["hessian"] * R**3 == pytest.approx(math.pi**4 / 24, rel=1e-6)


def test_hessian_cross_check_in_units_of_r(monkeypatch):
    # a finite-difference Hessian off by 1e-5 relative fails the cross-check
    # on a large ball too, where the Hessian is far below 1
    R = 5e3
    series = HelmholtzSeries.build(-math.pi**2 / (4 * R**2), R)
    hess = series.hessian
    h_diag = HelmholtzSeries.h_diag
    monkeypatch.setattr(HelmholtzSeries, "h_diag",
                        lambda self, rho: h_diag(self, rho) + 0.5e-5 * hess * np.square(rho))
    with pytest.raises(RuntimeError, match="hessian cross-check failed"):
        series.hessian
    with pytest.raises(RuntimeError, match="hessian cross-check failed"):
        na_scan(series)


@pytest.mark.parametrize("R", [1e-3, 1.0])
def test_taylor_bridge_in_units_of_r(R):
    # h and dh against the closed forms of the critical a, H_a(0, r) =
    # 2 sin^2(kr/2)/r with k = pi/(2R), in units of R: about the bridge at
    # 1e-5 R, and at 0.99e-2 R, below the absolute bridge 1e-5 of a ball of
    # R = 1e-3, where dh's Taylor series was 7.5e-5 off
    k = math.pi / (2 * R)
    cg = ga_center(const(-k * k), R)
    for r in np.array([0.5e-5, 0.99e-5, 1.01e-5, 0.99e-2]) * R:
        h = 2 * math.sin(k * r / 2) ** 2 / r
        dh = k * math.sin(k * r) / r - h / r
        assert abs(cg.h(r) - h) * R <= 1e-6, r
        assert abs(cg.dh(r) - dh) * R**2 <= 1e-6, r


@pytest.mark.parametrize("s", [100.0, 400.0])
def test_bracket_scan_in_units_of_r(s):
    # the scan covers M R^{1/2} in [0.5, 1e4]: at s = 400 the root
    # M = 0.253 lay below the scan's absolute 0.5
    def heights(s):
        cfgs = [make_config(eps, a_const=-3.0 / s**2, V_const=-1.0 / s**2, R=s)
                for eps in (0.04, 0.02)]
        return [sol.M for _, sol in solve_ladder(cfgs)]

    assert [M * math.sqrt(s) for M in heights(s)] == pytest.approx(heights(1.0), rel=1e-8, abs=0)

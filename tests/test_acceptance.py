"""Acceptance gate: ten end-to-end checks of the blow-up laws, one printed
verdict line each.  Criteria 3-8 read the verdicts of ``build_report`` (the
report ``verify`` prints, with its targets from ``blowup_laws``) and
``bubble.calculus_verdict`` (``bubbletest``'s table) and check their targets
against the closed forms."""

import math

import pytest

from ballblowup.asympt import build_report, coercivity_probe
from ballblowup.bubble import calculus_verdict
from ballblowup.greenfn import (
    HelmholtzSeries,
    RadialCoefficient,
    blowup_laws,
    critical_a,
    ga_center,
)
from ballblowup.solver import SOBOLEV_CONSTANT

from conftest import CRITICAL_A

const = RadialCoefficient.constant_coeff


def verdict(n, name, ok, detail=""):
    print(f"criterion {n:>2} {name:<38} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok


def test_criterion_1_critical_coefficient():
    a_star = critical_a(1.0)
    err_a = abs(a_star - (-math.pi**2 / 4))
    phi0 = ga_center(const(a_star), 1.0).phi_a_at_0
    ok = err_a <= 1e-10 and abs(phi0) <= 1e-10
    verdict(1, "critical coefficient and vanishing speed", ok,
            f"|a*-(-pi^2/4)|={err_a:.2e} |phi(0)|={abs(phi0):.2e}")


def test_criterion_2_qv_and_hessian():
    qv = blowup_laws(const(CRITICAL_A), const(-1.0), 1.0).qv0
    err_q = abs(qv - (-2 * math.pi))
    hess = HelmholtzSeries.build(critical_a(1.0), 1.0).hessian
    err_h = abs(hess - math.pi**4 / 24)
    ok = err_q <= 1e-8 and err_h <= 1e-5
    verdict(2, "potential integral and speed hessian", ok,
            f"|Q_V+2pi|={err_q:.2e} |phi''-pi^4/24|={err_h:.2e}")


def closed(value, target):
    return abs(value - target) <= 1e-12 * abs(target)


@pytest.fixture(scope="module")
def report(canonical_records):
    return build_report(canonical_records, blowup_laws(const(CRITICAL_A), const(-1.0), 1.0))


def test_criterion_3_rate(report, v2_records):
    r1 = report.rate
    r2 = build_report(v2_records, blowup_laws(const(CRITICAL_A), const(-2.0), 1.0)).rate
    ok = (
        r1.passed and closed(r1.target, math.pi**3 / 2)
        and r2.passed and closed(r2.target, math.pi**3 / 4)
    )
    verdict(3, "eps*lambda rate for V=-1 and V=-2", ok,
            f"limits {r1.limit:.4f} / {r2.limit:.4f}")


def test_criterion_4_alpha_slope(report):
    entry = report.alpha_slope
    ok = entry.passed and closed(entry.target, 32 / (3 * math.pi**4))
    verdict(4, "alpha-1 slope", ok, f"slope {entry.limit:.5f} target {entry.target:.5f}")


def test_criterion_5_farfield(report):
    ff = report.farfield
    verdict(5, "far-field Green's law", ff.passed,
            f"final {ff.values[-1]:.2e}, tail decreasing and <= 0.1={ff.passed}")


def test_criterion_6_remainder_bounds(report):
    gw, gr, sw = report.grad_w_bound, report.grad_r_bound, report.sup_w_trend
    ok = gw.passed and gr.passed and sw.passed
    verdict(6, "remainder norm bounds and sup trend", ok,
            f"grad_w {gw.max_over_median:.2f} grad_r {gr.max_over_median:.2f} "
            f"sup_w decreasing={sw.passed}")


def test_criterion_7_zero_mode_limits(report):
    beta, gamma = report.beta, report.gamma
    ok = (
        beta.passed and closed(beta.target, -16 / (3 * math.pi))
        and gamma.passed and closed(gamma.target, 128 / (15 * math.pi))
    )
    verdict(7, "zero-mode coefficient limits", ok,
            f"beta {beta.limit:.5f}/{beta.target:.5f} gamma {gamma.limit:.5f}/{gamma.target:.5f}")


def test_criterion_8_bubble_calculus():
    rows, passed = calculus_verdict(-1.0, 1.0)
    worst = max(err for *_, err in rows)
    verdict(8, "bubble calculus coefficients", passed, f"max rel err {worst:.2e}")


def test_criterion_9_identity_residuals(canonical_records):
    en = max(r.energy_residual for r in canonical_records)
    po = max(r.pohozaev_residual for r in canonical_records)
    gr = max(r.greens_residual for r in canonical_records)
    qs = [r.sobolev_quotient for r in canonical_records]
    ok = (
        en <= 1e-6 and po <= 1e-6 and gr <= 1e-5
        and all(q < SOBOLEV_CONSTANT for q in qs)
        and all(b > a for a, b in zip(qs, qs[1:]))
    )
    verdict(9, "identity residuals and quotient trend", ok,
            f"energy {en:.1e} pohozaev {po:.1e} greens {gr:.1e}")


def test_criterion_10_coercivity():
    rho = coercivity_probe(1e3, const(CRITICAL_A), 1.0, samples=200, seed=7)
    rho_ws = coercivity_probe(1.0, None, 50.0, samples=200, seed=7)
    ok = rho > 0 and rho_ws >= 4 / 7 - 0.02
    verdict(10, "quadratic-form coercivity probe", ok,
            f"rho {rho:.3f} whole-space {rho_ws:.3f} >= {4/7 - 0.02:.3f}")


def test_full_report_all_passed(report):
    assert report.all_passed

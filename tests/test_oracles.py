"""Closed forms of the paper's constants, evaluated to 30 digits with
mpmath, against what the program computes: the targets ``verify`` checks
the canonical records against, Q_V(0) for constant and tabulated V, the
critical coefficient, the off-center diagonal phi_a and the L^q norms of
the bubble over the ball."""

import json
import math

import mpmath
import numpy as np
import pytest

from ballblowup.asympt import build_report, records_from_sweep
from ballblowup.bubble import calculus_verdict
from ballblowup.cli import DEFAULT_PROBES, EXIT_OK, main
from ballblowup.greenfn import (
    BlowupLaws,
    RadialCoefficient,
    HelmholtzSeries,
    critical_a,
    ga_center,
    na_scan,
    qv_center,
)
from ballblowup.solver import ProblemConfig, solve_ladder

from conftest import CRITICAL_A, EPS_LADDER
from test_cli import write_records

const = RadialCoefficient.constant_coeff


def _mp(expr):
    with mpmath.workdps(30):
        return float(expr())


def test_verify_targets(tmp_path, capsys, canonical_records):
    # rate eps lam -> pi^3 / 2, alpha slope 32 / (3 pi^4) for critical a,
    # V = -1 on the unit ball
    rec_path = write_records(tmp_path, canonical_records)
    out = tmp_path / "verdict.json"
    assert main(["verify", "--records", rec_path, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())["report"]
    assert report["rate"]["target"] == pytest.approx(
        _mp(lambda: mpmath.pi**3 / 2), rel=1e-10, abs=0
    )
    assert report["alpha_slope"]["target"] == pytest.approx(
        _mp(lambda: 32 / (3 * mpmath.pi**4)), rel=1e-10, abs=0
    )


@pytest.mark.parametrize("R", [1.0, 2.0])
def test_qv_and_critical_a(R):
    # at a* = -pi^2 / (4 R^2) the center profile is v = cos(pi r / (2 R)),
    # so Q_V(0) = 4 pi int_0^R -cos^2 = -2 pi R for V = -1; verify's rate
    # target inherits Q_V(0)'s error
    a_star = _mp(lambda: -mpmath.pi**2 / (4 * mpmath.mpf(R) ** 2))
    assert critical_a(R) == pytest.approx(a_star, rel=1e-12, abs=0)
    qv = qv_center(const(-1.0), ga_center(const(-math.pi**2 / (4 * R**2)), R))
    assert qv == pytest.approx(_mp(lambda: -2 * mpmath.pi * R), rel=1e-12, abs=0)


# V(r, lib) with lib numpy or mpmath, Q_V(0) = 4 pi int_0^1 V cos^2(pi r / 2) dr
# at critical a on the unit ball in closed form, and the bound on the
# relative error of qv_center with V on 41 knots
_TABULATED_V = {
    "-(1+2r^2)": (lambda r, lib: -(1 + 2 * r**2),
                  lambda: 8 / mpmath.pi - 10 * mpmath.pi / 3, 2e-12),
    "1-4cos^2": (lambda r, lib: 1 - 4 * lib.cos(lib.pi * r / 2) ** 2,
                 lambda: -4 * mpmath.pi, 5e-9),
}


@pytest.mark.parametrize("name", _TABULATED_V)
def test_tabulated_v(name, critical_cg):
    # a V that is a function, not a constant: Q_V(0) of its table, and the
    # canonical ladder passes every law against that closed form
    V_of, closed, bound = _TABULATED_V[name]
    exact = _mp(closed)
    quad = _mp(lambda: 4 * mpmath.pi * mpmath.quad(
        lambda r: V_of(r, mpmath) * mpmath.cos(mpmath.pi * r / 2) ** 2, [0, 1]))
    assert quad == pytest.approx(exact, rel=1e-15, abs=0)
    knots = np.linspace(0.0, 1.0, 41)
    V, a = RadialCoefficient(values=V_of(knots, np), abscissae=knots), const(CRITICAL_A)
    assert qv_center(V, critical_cg) == pytest.approx(exact, rel=bound, abs=0)
    sols = [s for _, s in solve_ladder(
        [ProblemConfig(R=1.0, a=a, V=V, eps=eps) for eps in EPS_LADDER])]
    report = build_report(records_from_sweep(sols, DEFAULT_PROBES),
                          BlowupLaws(critical_cg, exact))
    assert report.all_passed, list(report.rows())


def _phia_mp(rho, a, R):
    """phi_a(rho) = -k sum (2l+1) (y_l(kR)/j_l(kR)) j_l(k rho)^2, k^2 = -a,
    summed at 30 digits until a term is below 1e-20 of the sum."""
    with mpmath.workdps(30):
        k = mpmath.sqrt(-mpmath.mpf(a))

        def sph(bessel, ell, x):
            return mpmath.sqrt(mpmath.pi / (2 * x)) * bessel(ell + 0.5, x)

        total, ell = mpmath.mpf(0), 0
        while True:
            term = (2 * ell + 1) * sph(mpmath.bessely, ell, k * R) \
                / sph(mpmath.besselj, ell, k * R) * sph(mpmath.besselj, ell, k * rho) ** 2
            total += term
            if abs(term) < mpmath.mpf(10) ** -20 * abs(total):
                return float(-k * total)
            ell += 1


@pytest.mark.parametrize("R", [1.0, 2.0])
@pytest.mark.parametrize("a_unit", ["critical", -1.0])
@pytest.mark.parametrize("frac", [0.5, 0.8, 0.9])
def test_phia_off_center(R, a_unit, frac):
    # the whole Bessel series: at 0.9 R it needs ~160 terms at 1e-12
    a = -math.pi**2 / (4 * R**2) if a_unit == "critical" else a_unit
    rho = frac * R
    phi = HelmholtzSeries.build(a, R).h_diag(rho)
    assert phi == pytest.approx(_phia_mp(rho, a, R), rel=1e-12, abs=0)


@pytest.mark.parametrize("a, R", [(-3.0, 1.0), (-2.6, 1.0), (-0.8, 2.0)])
def test_na_scan_zero_off_center(a, R):
    # below the critical a, phi_a(0) < 0 and phi_a crosses zero once on
    # [0, 0.9 R]: the scan's Brent refinement of it is bracketed by a sign
    # change of the 30-digit series 1e-12 R either side
    (rho,) = na_scan(HelmholtzSeries.build(a, R)).zeros
    assert 0 < rho < 0.9 * R
    assert _phia_mp(rho - 1e-12 * R, a, R) < 0 < _phia_mp(rho + 1e-12 * R, a, R)


# int_B U^q over the ball of radius R, s = lam R
_LQ_MP = {
    2: lambda lam, s: 4 * mpmath.pi / lam**2 * (s - mpmath.atan(s)),
    3: lambda lam, s: 4 * mpmath.pi / lam**1.5 * (mpmath.asinh(s) - s / mpmath.sqrt(1 + s**2)),
    6: lambda lam, s: mpmath.pi / 2 * (mpmath.atan(s) + s * (s**2 - 1) / (1 + s**2) ** 2),
}


@pytest.mark.parametrize("R", [1.0, 2.0])
def test_lq_norm_targets(R):
    # bubbletest's L^q rows at lam = 1e4 carry the q-th roots as targets
    rows, _ = calculus_verdict(-1.0, R)
    targets = {name: tgt for name, kind, _, tgt, _ in rows if kind == "closed form"}
    assert sorted(targets) == ["L^2 norm", "L^3 norm", "L^6 norm"]
    for q, closed in _LQ_MP.items():
        exact = _mp(lambda: closed(mpmath.mpf(10) ** 4, mpmath.mpf(10) ** 4 * R) ** (1 / mpmath.mpf(q)))
        assert targets[f"L^{q} norm"] == pytest.approx(exact, rel=1e-14, abs=0)

"""Closed forms of the paper's constants, evaluated to 30 digits with
mpmath, against what the program computes: the targets ``verify`` checks
the canonical records against, Q_V(0) and the critical coefficient."""

import json
import math

import mpmath
import pytest

from ballblowup.cli import EXIT_OK, main
from ballblowup.greenfn import RadialCoefficient, critical_a, qv_center

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
        _mp(lambda: mpmath.pi**3 / 2), rel=1e-10
    )
    assert report["alpha_slope"]["target"] == pytest.approx(
        _mp(lambda: 32 / (3 * mpmath.pi**4)), rel=1e-10
    )


@pytest.mark.parametrize("R", [1.0, 2.0])
def test_qv_and_critical_a(R):
    # at a* = -pi^2 / (4 R^2) the center profile is v = cos(pi r / (2 R)),
    # so Q_V(0) = 4 pi int_0^R -cos^2 = -2 pi R for V = -1; verify's rate
    # target inherits Q_V(0)'s error
    a_star = _mp(lambda: -mpmath.pi**2 / (4 * mpmath.mpf(R) ** 2))
    assert critical_a(R) == pytest.approx(a_star, rel=1e-10)
    qv = qv_center(const(-1.0), const(-math.pi**2 / (4 * R**2)), R)
    assert qv == pytest.approx(_mp(lambda: -2 * mpmath.pi * R), rel=1e-12)

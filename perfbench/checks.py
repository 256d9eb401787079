"""Output checks against values computed apart from the program.

Reference values are closed forms evaluated with mpmath at 30 digits; the
package is not imported here.  Each ``check_*`` returns a list of problems
(empty when the outputs are right) together with the accuracy figures of
the run.  Failed operations are counted by the caller and never checked.
"""

from __future__ import annotations

import copy

import mpmath as mp

mp.mp.dps = 30
PI = mp.pi

RATE = PI**3 / 2                       # eps*lam limit, V = -1, critical a, R = 1
ALPHA_SLOPE = 32 / (3 * PI**4)         # (alpha - 1)/eps limit
BETA = -16 / (3 * PI)                  # zero-mode limits
GAMMA = 128 / (15 * PI)
SOBOLEV = 3 * (PI / 2) ** (mp.mpf(4) / 3)
WHOLE_SPACE_COERCIVITY = mp.mpf(4) / 7  # radial whole-space bound

# Ceilings.  The identity residuals sit at roundoff (~1e-14); the limits are
# set by extrapolation truncation (~5e-5 today) and the B3 fits by their
# lam range (~4e-3 today).
RESIDUAL_MAX = 1e-10
GREENS_RESIDUAL_MAX = 1e-5
LIMIT_REL_MAX = 1e-3
B3_REL_MAX = 1e-2
CLOSED_FORM_REL = 1e-9
HESSIAN_REL = 1e-5


def rel(value, target) -> float:
    return float(abs((mp.mpf(value) - target) / target))


def critical_a(R):
    """a* = -pi^2/(4 R^2): the first zero of k cot(kR) in k."""
    return -(PI**2) / (4 * mp.mpf(R) ** 2)


def phi_center(a, R):
    """phi_a(0) = k cot(kR) for constant a = -k^2."""
    k = mp.sqrt(-mp.mpf(a))
    return k * mp.cot(k * R)


def qv_critical(R):
    """Q_V(0) = 4 pi int_0^R V v^2 dr with V = -1, v = cos(pi r/(2R))."""
    return -2 * PI * mp.mpf(R)


def phi_hessian(a, R):
    """Second radial derivative of phi_a at the center for a = -k^2, from the
    l = 0 and l = 1 terms of the Bessel series in elementary form:
    (2 k^3/3) (y0/j0 - y1/j1) at x = kR."""
    k = mp.sqrt(-mp.mpf(a))
    x = k * R
    j0, y0 = mp.sin(x) / x, -mp.cos(x) / x
    j1 = mp.sin(x) / x**2 - mp.cos(x) / x
    y1 = -mp.cos(x) / x**2 - mp.sin(x) / x
    return 2 * k**3 / 3 * (y0 / j0 - y1 / j1)


def b3_targets(a, R) -> dict:
    """Leading and subleading B3 coefficients for constant a, from phi_a(0)."""
    phi = phi_center(a, R)
    a = mp.mpf(a)
    return {
        ("U5_H", "leading"): 4 * PI / 3 * phi,
        ("U5_H", "subleading"): -4 * PI / 3 * a,
        ("U4_dlamU_H", "leading"): -2 * PI / 15 * phi,
        ("U4_dlamU_H", "subleading"): 2 * PI / 5 * a,
        ("U4_H2", "leading"): PI**2 * phi**2,
        ("U3_dlamU_H2", "leading"): -(PI**2) / 4 * phi**2,
    }


BUBBLE_CONSTANTS = {
    "moment t^4 (1+t^2)^-3": 3 * PI / 16,
    "int g dlam U": 2 * PI * (3 - PI),
    "lam^2 int U^4 (dlam U)^2": PI**2 / 64,
    "int |grad PU|^2": 3 * PI**2 / 4,
    "lam^2 int |grad dlam PU|^2": 15 * PI**2 / 64,
}


# ------------------------------------------------------------------ ladders


def check_rungs(records: list) -> list:
    """Properties every successful rung and the ladder must have: roundoff
    identity residuals, the Green representation, eps*lam increasing
    toward its limit, the Sobolev quotient increasing below S."""
    problems = []
    for d in records:
        tag = f"rung eps={d['eps']:.6g}"
        for key, ceiling in (("energy_residual", RESIDUAL_MAX),
                             ("pohozaev_residual", RESIDUAL_MAX),
                             ("greens_residual", GREENS_RESIDUAL_MAX)):
            if not d[key] <= ceiling:
                problems.append(f"{tag}: {key} {d[key]:.3e} > {ceiling:g}")
        if rel(d["eps_lambda"], mp.mpf(d["eps"]) * d["lam"]) > 1e-12:
            problems.append(f"{tag}: eps_lambda is not eps*lam")
        if not 0 < d["eps_lambda"] < RATE:
            problems.append(f"{tag}: eps*lam {d['eps_lambda']:.8g} not in (0, pi^3/2)")
        if not d["sobolev_quotient"] < SOBOLEV:
            problems.append(f"{tag}: Sobolev quotient {d['sobolev_quotient']:.10g} >= S")
    ordered = sorted(records, key=lambda d: -d["eps"])
    for prev, cur in zip(ordered, ordered[1:]):
        if not cur["eps_lambda"] > prev["eps_lambda"]:
            problems.append(f"eps*lam not increasing at eps={cur['eps']:.6g}")
        if not cur["sobolev_quotient"] > prev["sobolev_quotient"]:
            problems.append(f"Sobolev quotient not increasing at eps={cur['eps']:.6g}")
    return problems


def check_verify(op: dict, n_ok: int, n_failed: int) -> tuple[list, dict]:
    """The verdict of one ``verify``: every law passed, the targets are the
    closed forms, and the extrapolated limits are within their ceilings."""
    problems = []
    verdict = op["verdict"]
    report = verdict["report"]
    if not report["all_passed"]:
        problems.append("verify: not all laws passed")
    if (verdict["n_records"], verdict["n_failed"]) != (n_ok, n_failed):
        problems.append("verify: record counts differ from the sweep")
    for key, target in (("rate", RATE), ("alpha_slope", ALPHA_SLOPE)):
        if rel(report[key]["target"], target) > 1e-12:
            problems.append(f"verify: {key} target {report[key]['target']} is not the closed form")
    errs = {
        "rate_rel_err": rel(report["rate"]["limit"], RATE),
        "alpha_rel_err": rel(report["alpha_slope"]["limit"], ALPHA_SLOPE),
        "beta_rel_err": rel(op["beta"], BETA),
        "gamma_rel_err": rel(op["gamma"], GAMMA),
    }
    for name, err in errs.items():
        if not err <= LIMIT_REL_MAX:
            problems.append(f"verify: {name} {err:.3e} > {LIMIT_REL_MAX:g}")
    return problems, errs


def check_ladder_round(ops: list) -> tuple[list, dict]:
    rungs = [o for o in ops if o["op"] == "rung"]
    records = [o["record"] for o in rungs if o["ok"]]
    problems = check_rungs(records)
    for o in rungs:
        if o["ok"] and o["record"]["eps"] != o["eps"]:
            problems.append(f"rung eps={o['eps']:.6g}: record is for another eps")
    errs = {}
    verify = ops[-1]
    if verify["ok"]:
        p, errs = check_verify(verify, len(records), len(rungs) - len(records))
        problems += p
    return problems, errs


def ladder_negative_control(ops: list) -> bool:
    """True when the rung checks reject the last good record with lam
    scaled by 1.01 (or there is no good record to corrupt)."""
    records = [copy.deepcopy(o["record"]) for o in ops if o["op"] == "rung" and o["ok"]]
    if not records:
        return True
    bad = records[-1]
    bad["lam"] *= 1.01
    bad["eps_lambda"] = bad["eps"] * bad["lam"]
    return bool(check_rungs(records))


# ------------------------------------------------------------------ kernels


def check_kernel_op(op: dict) -> tuple[list, dict]:
    """One successful kernel operation at radius R (critical a, V = -1; the
    bubble suite runs at a = -1)."""
    R = op["R"]
    out = op.get("output", {})
    tag = f"{op['op']} R={R:g}"
    problems, errs = [], {}

    def close(name, value, target, tol=CLOSED_FORM_REL):
        scale = max(abs(target), 1)
        if not float(abs(mp.mpf(value) - target) / scale) <= tol:
            problems.append(f"{tag}: {name} {value!r} is not {mp.nstr(target, 15)}")

    a_star = critical_a(R)
    if op["op"] in ("critical", "greens"):
        close("a_star", out["a_star"], a_star)
    if op["op"] in ("qv", "greens"):
        close("qv", out["qv"], qv_critical(R))
    if op["op"] == "greens":
        close("phi_a(0)", out["phi_a_at_0"], phi_center(a_star, R))
        crit = out["criticality"]
        close("phi_a hessian", crit["hessian"], phi_hessian(a_star, R), HESSIAN_REL)
        if not (crit["critical"] and crit["nondegenerate"] and crit["zeros"][:1] == [0.0]):
            problems.append(f"{tag}: criticality flags {crit}")
    if op["op"] == "bubbletest":
        if not out["passed"]:
            problems.append(f"{tag}: suite did not pass")
        targets = b3_targets(-1.0, R)
        worst = 0.0
        for name, kind, value, target, err in out["rows"]:
            if (name, kind) in targets:
                ref = targets[(name, kind)]
                close(f"{name} {kind} target", target, ref)
                worst = max(worst, rel(value, ref))
            elif kind == "constant":
                if not rel(value, BUBBLE_CONSTANTS[name]) <= B3_REL_MAX:
                    problems.append(f"{tag}: {name} {value!r} off its closed form")
            elif name == "U4_dxU_H" and not abs(err) <= B3_REL_MAX:
                problems.append(f"{tag}: odd identity not zero ({err:.3e})")
        if not worst <= B3_REL_MAX:
            problems.append(f"{tag}: B3 rel err {worst:.3e} > {B3_REL_MAX:g}")
        errs[f"b3_rel_err_R{R:g}"] = worst
    if op["op"] == "coercivity":
        if not op["rho"] > 0:
            problems.append(f"{tag}: coercivity constant {op['rho']:.4g} <= 0")
        if not op["rho_whole_space"] >= WHOLE_SPACE_COERCIVITY - 0.02:
            problems.append(f"{tag}: whole-space constant {op['rho_whole_space']:.4g} < 4/7")
    return problems, errs


def check_kernels_round(ops: list) -> tuple[list, dict]:
    problems, errs = [], {}
    for op in ops:
        if op["ok"]:
            p, e = check_kernel_op(op)
            problems += p
            errs.update(e)
    if errs:
        errs["b3_rel_err"] = max(errs.values())
    return problems, errs


def kernels_negative_control(ops: list) -> bool:
    """True when the checks reject a ``critical`` output with a* scaled by
    1.01 (or there is none to corrupt)."""
    for op in ops:
        if op["op"] == "critical" and op["ok"]:
            bad = copy.deepcopy(op)
            bad["output"]["a_star"] *= 1.01
            return bool(check_kernel_op(bad)[0])
    return True

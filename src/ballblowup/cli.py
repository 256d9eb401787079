"""Command-line orchestration: config ingestion, sweeps with JSON-lines
persistence, verification reports, and the bubble-calculus suite.

Subcommands: greens, critical, qv, solve, sweep, verify, bubbletest, report.
Exit codes: 0 success / all-pass, 1 validation error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import asympt, bubble, greenfn, solver

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3


DEFAULT_TOLERANCES = {"quad": 1e-10, "ode": 1e-12, "shoot": 1e-7, "series": 1e-12}
# the tolerances the numerics read, and so the only ones --tol-override takes
OVERRIDABLE_TOLERANCES = ("ode", "shoot")


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field '{field_name}': {message}")
        self.field_name = field_name


def _is_number(x) -> bool:
    """x is a JSON number: an int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass
class RunConfig:
    """Validated run configuration.

    Radii are dimensionless; coefficients carry inverse-length-squared units
    consistent with the Laplacian.  The canonical JSON form is hashed for
    provenance and resume matching.
    """

    R: float = 1.0
    a: dict = field(default_factory=lambda: {"critical": True})
    V: dict = field(default_factory=lambda: {"constant": -1.0})
    eps_ladder: list = field(default_factory=lambda: [0.04, 0.02, 0.01, 0.005])
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    lmax: int = 40
    probes: list = field(default_factory=lambda: [0.3, 0.5, 0.7, 0.9])

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError("<file>", "must be a JSON object")
        cfg = RunConfig()
        known = set(cfg.__dataclass_fields__)
        for k in d:
            if k not in known:
                raise ConfigError(k, "unknown field")
        for k, v in d.items():
            setattr(cfg, k, v)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if not _is_number(self.R) or not self.R > 0:
            raise ConfigError("R", "must be a positive number")
        for name, spec in (("a", self.a), ("V", self.V)):
            if not isinstance(spec, dict):
                raise ConfigError(name, "must be an object")
            if not ({"constant", "critical", "table"} & spec.keys()):
                raise ConfigError(name, "need 'constant', 'critical' or 'table'")
            try:  # built once here, so every command gets a coefficient it can read
                self.coefficient(name).check_span(self.R)
            except (TypeError, ValueError) as e:
                raise ConfigError(name, str(e)) from None
        tols = self.tolerances
        if not isinstance(tols, dict) or tols.keys() != DEFAULT_TOLERANCES.keys():
            raise ConfigError(
                "tolerances", f"need exactly the keys {sorted(DEFAULT_TOLERANCES)}"
            )
        if any(not _is_number(v) or not v > 0 for v in tols.values()):
            raise ConfigError("tolerances", "must be positive numbers")
        lad = self.eps_ladder
        if not (isinstance(lad, list) and lad and all(_is_number(e) and e > 0 for e in lad)):
            raise ConfigError("eps_ladder", "must be a list of positive numbers")
        if any(b >= a for a, b in zip(lad, lad[1:])):
            raise ConfigError("eps_ladder", "must be strictly decreasing")
        if isinstance(self.lmax, bool) or not isinstance(self.lmax, int) or self.lmax < 1:
            raise ConfigError("lmax", "must be an integer >= 1")
        if not isinstance(self.probes, list) or not all(map(_is_number, self.probes)):
            raise ConfigError("probes", "must be a list of numbers")
        for p in self.probes:
            if not 0 < p < self.R:
                raise ConfigError("probes", f"probe {p} outside (0, R)")

    def coefficient(self, name: str) -> greenfn.RadialCoefficient:
        spec = getattr(self, name)
        if "critical" in spec:
            if spec["critical"] is not True:
                raise ValueError(f"'critical' must be true, got {spec['critical']!r}")
            return greenfn.RadialCoefficient.constant_coeff(
                -math.pi**2 / (4 * self.R**2)
            )
        if "constant" in spec:
            c = spec["constant"]
            if not _is_number(c):
                raise ValueError(f"'constant' must be a JSON number, got {c!r}")
            return greenfn.RadialCoefficient.constant_coeff(float(c))
        table = spec.get("table")
        if not isinstance(table, dict) or not {"values", "abscissae"} <= table.keys():
            raise ValueError("table needs 'values' and 'abscissae'")
        return greenfn.RadialCoefficient(values=table["values"], abscissae=table["abscissae"])

    def problem(self, eps: float) -> solver.ProblemConfig:
        """The rung of this run at ``eps``."""
        return solver.ProblemConfig(
            domain=greenfn.BallDomain(self.R),
            a=self.coefficient("a"),
            V=self.coefficient("V"),
            eps=eps,
            shoot_tol=self.tolerances["shoot"],
            ode_tol=self.tolerances["ode"],
        )

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    if path is None:
        cfg = RunConfig()
    else:
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as e:
            raise ConfigError("<file>", f"cannot read {path}: {e.strerror}") from None
        except json.JSONDecodeError as e:
            raise ConfigError("<file>", f"invalid JSON at line {e.lineno}: {e.msg}")
        cfg = RunConfig.from_dict(raw)
    if overrides:
        for key, val in overrides.items():
            if key not in OVERRIDABLE_TOLERANCES:
                raise ConfigError("tolerances", f"cannot override {key!r}: only "
                                  + ", ".join(OVERRIDABLE_TOLERANCES) + " reach the numerics")
            try:
                cfg.tolerances[key] = float(val)
            except ValueError:
                raise ConfigError("tolerances", f"{key}={val!r} is not a number") from None
        cfg.validate()
    return cfg


def _emit(obj, out: str | None):
    text = json.dumps(obj, indent=2, default=_json_default)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, (np.floating, np.integer)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


# ----------------------------------------------------------------- commands


def cmd_greens(args) -> int:
    cfg = load_config(args.config, args.tol_override)
    a = cfg.coefficient("a")
    cg = greenfn.ga_center(a, cfg.R)
    if a.is_constant and a.constant < 0:
        rhos = np.linspace(0.0, 0.9 * cfg.R, 19)
        phis = greenfn.phia_profile(rhos, a.constant, cfg.R)
        profile = [{"rho": r, "phi_a": p} for r, p in zip(rhos.tolist(), phis.tolist())]
        crit_dict = asdict(greenfn.na_scan(a.constant, cfg.R))
    else:
        profile = [{"rho": 0.0, "phi_a": cg.phi_a_at_0}]
        crit_dict = None
    report = {
        "a_star": greenfn.critical_a(cfg.R),
        "phi_a_at_0": cg.phi_a_at_0,
        "qv": greenfn.qv_center(cfg.coefficient("V"), a, cfg.R, cg),
        "profile": profile,
        "criticality": crit_dict,
        "config_hash": cfg.hash(),
        "tool_version": __version__,
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_critical(args) -> int:
    cfg = load_config(args.config, args.tol_override)
    _emit({"R": cfg.R, "a_star": greenfn.critical_a(cfg.R)}, args.out)
    return EXIT_OK


def cmd_qv(args) -> int:
    cfg = load_config(args.config, args.tol_override)
    val = greenfn.qv_center(cfg.coefficient("V"), cfg.coefficient("a"), cfg.R)
    _emit({"qv": val, "config_hash": cfg.hash()}, args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = load_config(args.config, args.tol_override)
    eps = args.eps if args.eps is not None else cfg.eps_ladder[0]
    if not eps > 0:
        raise ConfigError("eps", "must be positive")
    rs = solver.solve_profile(cfg.problem(eps))
    recs = asympt.records_from_sweep([rs], tuple(cfg.probes))
    _emit(_record_line(recs[0], cfg), args.out)
    return EXIT_OK


def _record_line(rec: asympt.SweepRecord, cfg: RunConfig) -> dict:
    d = rec.to_dict()
    d["config_hash"] = cfg.hash()
    d["tool_version"] = __version__
    d["status"] = "ok"
    return d


def _failure_line(eps: float, stage: str, error: Exception, cfg: RunConfig) -> dict:
    """A failed rung's line: the ``stage`` it failed in ("problem", "solve"
    or "analysis"), the exception's class name and its message."""
    return {"status": "failed", "eps": eps, "stage": stage, "error_type": type(error).__name__,
            "error": str(error), "config_hash": cfg.hash(), "tool_version": __version__}


def _rung_line(eps: float, rs, cfg: RunConfig, center) -> dict:
    """A solved rung's record line with what its solve cost, or a failure
    line when its solve or its analysis failed.  ``center()`` gives a's
    center Green's data."""
    if not isinstance(rs, solver.RadialSolution):
        return _failure_line(eps, "solve", rs, cfg)
    try:
        rec = asympt.records_from_sweep([rs], tuple(cfg.probes), center())[0]
    except Exception as e:  # per-rung failure recorded, sweep continues
        return _failure_line(eps, "analysis", e, cfg)
    cost = ("seed", "shoot_integrations", "shoot_steps")
    return _record_line(rec, cfg) | {k: rs.diagnostics[k] for k in cost}


def cmd_sweep(args) -> int:
    """Solve the ladder's rungs not yet in the records file with
    ``solver.solve_ladder`` and append one line per rung in ladder order: its
    record, or a failure line when its problem, solve or analysis fails.  A
    failed rung does not stop the sweep; any failure exits 2."""
    cfg = load_config(args.config, args.tol_override)
    out_path = Path(args.out) if args.out else Path("records.jsonl")
    done_eps = set()
    if out_path.exists() and args.resume:
        for line in out_path.read_text().splitlines():
            try:
                d = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (isinstance(d, dict) and d.get("config_hash") == cfg.hash()
                    and d.get("status") == "ok"):
                done_eps.add(d.get("eps"))
    elif out_path.exists() and not args.resume:
        out_path.unlink()

    rungs = []
    for eps in cfg.eps_ladder:
        if eps in done_eps:
            continue
        try:
            rungs.append((eps, cfg.problem(eps)))
        except ValueError as e:  # e.g. eps V breaks coercivity: this rung fails alone
            rungs.append((eps, e))
    solved = solver.solve_ladder(
        [p for _, p in rungs if isinstance(p, solver.ProblemConfig)]
    )
    # built once, on the first rung analysed; a failure is that rung's
    center = functools.cache(lambda: greenfn.ga_center(cfg.coefficient("a"), cfg.R))
    failures = 0
    with out_path.open("a") as fh:
        for eps, rs in rungs:
            if isinstance(rs, solver.ProblemConfig):
                line = _rung_line(eps, next(solved)[1], cfg, center)
            else:
                line = _failure_line(eps, "problem", rs, cfg)
            failures += line["status"] == "failed"
            fh.write(json.dumps(line, default=_json_default) + "\n")
            fh.flush()
    return EXIT_NUMERICAL if failures else EXIT_OK


def _load_records(path: str) -> tuple[list, list, str | None]:
    """The ok lines, with a number for every record field, the failure lines
    and the ``config_hash`` of a records file, all of one config."""
    records, failed, hashes = [], [], set()
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError("records", f"cannot read {path}: {e.strerror}") from e
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as e:
            raise ConfigError("records", f"{path} line {n}: {e.msg}") from e
        if not isinstance(d, dict):
            raise ConfigError("records", f"{path} line {n}: not a JSON object")
        hashes.add(d.get("config_hash"))
        if d.get("status") != "ok":
            failed.append(d)
            continue
        bad = [k for k in asympt.SweepRecord.__dataclass_fields__
               if type(d.get(k)) not in (int, float)]
        if bad:
            raise ConfigError("records", f"{path} line {n}: no number for {', '.join(bad)}")
        records.append(d)
    if len(hashes) > 1:
        raise ConfigError("records", f"{path} mixes {len(hashes)} config_hash values: "
                          + ", ".join(sorted(map(str, hashes))))
    return records, failed, next(iter(hashes), None)


def cmd_verify(args) -> int:
    cfg = load_config(args.config, args.tol_override)
    lines, failed, config_hash = _load_records(args.records)
    records = [asympt.SweepRecord.from_dict(d) for d in lines]
    if len(records) < 3:
        print(f"insufficient data: {len(records)} successful rungs (< 3)",
              file=sys.stderr)
        return EXIT_VALIDATION
    if config_hash != cfg.hash():
        raise ConfigError("records", f"{args.records} has config_hash {config_hash}, "
                          f"not the config's {cfg.hash()}")
    a = cfg.coefficient("a")
    cg = greenfn.ga_center(a, cfg.R)
    qv0 = greenfn.qv_center(cfg.coefficient("V"), a, cfg.R, cg)
    phi0 = greenfn.phi0_ball([0.0, 0.0, 0.0], cfg.R)
    report = asympt.build_report(records, cg, qv0, phi0)
    print("verification against the blow-up laws")
    for check, value, target, passed in report.rows():
        mark = "PASS" if passed else "FAIL"
        print(f"  {check:<22} {value!s:>14}  target {target!s:>14}  [{mark}]")
    print("  center x_eps == 0 pinned by radial symmetry (recorded, not tested)")
    payload = {
        "report": asdict(report),
        "config_hash": cfg.hash(),
        "tool_version": __version__,
        "n_records": len(records),
        "n_failed": len(failed),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2, default=_json_default) + "\n")
        with Path(args.out).with_suffix(".csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "value", "target", "passed"])
            writer.writerows(report.rows())
            writer.writerow(["center pinned by symmetry", "satisfied", "symmetry", True])
    return EXIT_OK if report.all_passed else EXIT_VERIFICATION


def cmd_bubbletest(args) -> int:
    cfg = load_config(args.config, args.tol_override)
    # Coefficient recovery needs phi_a(0) != 0, which fails exactly at the
    # critical coefficient; use a = -1 unless a non-critical constant is given.
    a_const = float(cfg.a["constant"]) if "constant" in cfg.a else -1.0
    rows, passed = bubble.calculus_verdict(a_const, cfg.R)
    print(f"{'integral':<28}{'kind':<12}{'value':>14}{'target':>14}{'rel err':>10}")
    for name, kind, val, tgt, err in rows:
        print(f"{name:<28}{kind:<12}{val:>14.6g}{tgt:>14.6g}{err:>10.2e}")
    if args.out:
        _emit({"rows": [list(t) for t in rows], "passed": passed}, args.out)
    return EXIT_OK if passed else EXIT_VERIFICATION


def cmd_report(args) -> int:
    lines, failed, _ = _load_records(args.records)
    cols = [
        "eps", "lam", "eps_lambda", "alpha", "beta", "gamma",
        "norm_grad_w", "norm_grad_r", "sup_w_ratio", "farfield_error",
        "sobolev_quotient", "energy_residual", "pohozaev_residual",
        "greens_residual", "shoot_steps",
    ]
    rows = []
    for line in lines:  # shoot_steps: all phases' steps, NaN on lines without them
        steps = line.get("shoot_steps")
        numbers = isinstance(steps, dict) and all(type(v) in (int, float) for v in steps.values())
        total = float(sum(steps.values())) if numbers else math.nan
        rows.append({**asympt.SweepRecord.from_dict(line).to_dict(), "shoot_steps": total})
    print("  ".join(f"{c:>14}" for c in cols))
    for d in rows:
        print("  ".join(f"{d[c]:>14.6g}" for c in cols))
    if failed:
        print(f"{len(failed)} failed rung(s)", file=sys.stderr)
    if args.out:
        with Path(args.out).open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
    return EXIT_OK if not failed else EXIT_NUMERICAL


def _parse_tol_overrides(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError("tol-override", f"expected KEY=VAL, got {item!r}")
        k, v = item.split("=", 1)
        out[k] = v
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once.  ``main`` looks ``cmd_<name>`` up when it runs, so a
    command function replaced after that is the one called."""
    p = argparse.ArgumentParser(
        prog="ballblowup",
        description="Blow-up analysis of -Du + (a+eV)u = 3u^5 on the 3d ball",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="config JSON path")
        sp.add_argument("--out", default=None, help="output path")
        sp.add_argument(
            "--tol-override", action="append", metavar="KEY=VAL", default=[],
            help="override the ode or shoot tolerance",
        )

    for name in ("greens", "critical", "qv", "bubbletest"):
        common(sub.add_parser(name))

    sp = sub.add_parser("solve")
    common(sp)
    sp.add_argument("--eps", type=float, default=None)

    sp = sub.add_parser("sweep")
    common(sp)
    sp.add_argument("--resume", action="store_true")

    sp = sub.add_parser("verify")
    common(sp)
    sp.add_argument("--records", required=True)

    # report reads only the records file: no config, no tolerances
    sp = sub.add_parser("report")
    sp.add_argument("--records", required=True)
    sp.add_argument("--out", default=None, help="output path")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "tol_override" in args:
            args.tol_override = _parse_tol_overrides(args.tol_override)
        if args.out and not Path(args.out).parent.is_dir():
            raise ConfigError("out", f"no directory {Path(args.out).parent}")
        return globals()["cmd_" + args.command](args)
    except ConfigError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (
        greenfn.CoercivityError,
        solver.NoBracketError,
        asympt.RegimeError,
        RuntimeError,
    ) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: config validation, persistence, resume, and exit
codes."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ballblowup import asympt, bubble, cli, greenfn, solver
from ballblowup.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_VERIFICATION,
    ConfigError,
    RunConfig,
    load_config,
    main,
)

from conftest import CRITICAL_A


SHORT_LADDER = [0.1, 0.08, 0.06]


def write_cfg(tmp_path, **kw):
    d = asdict(RunConfig())
    d.update(kw)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(d))
    return str(p)


def write_records(tmp_path, records, cfg=None):
    cfg = cfg or RunConfig()
    p = tmp_path / "records.jsonl"
    with p.open("w") as fh:
        for r in records:
            d = r.to_dict()
            d["config_hash"] = cfg.hash()
            d["status"] = "ok"
            fh.write(json.dumps(d) + "\n")
    return str(p)


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig()
        again = RunConfig.from_dict(asdict(cfg))
        assert again == cfg
        assert again.hash() == cfg.hash()

    @given(
        R=st.floats(min_value=0.5, max_value=3.0),
        n=st.integers(min_value=1, max_value=5),
        lmax=st.integers(min_value=1, max_value=80),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random(self, R, n, lmax):
        lad = [0.1 * 2.0**-k for k in range(n)]
        cfg = RunConfig(R=R, eps_ladder=lad, lmax=lmax, probes=[0.4 * R])
        again = RunConfig.from_dict(json.loads(cfg.canonical_json()))
        assert again == cfg

    def test_unknown_field(self):
        with pytest.raises(ConfigError) as ei:
            RunConfig.from_dict({"radius": 1.0})
        assert ei.value.field_name == "radius"

    def test_bad_ladder(self):
        with pytest.raises(ConfigError) as ei:
            RunConfig.from_dict({"eps_ladder": [0.01, 0.02]})
        assert ei.value.field_name == "eps_ladder"

    def test_bad_probe(self):
        with pytest.raises(ConfigError) as ei:
            RunConfig.from_dict({"probes": [1.5]})
        assert ei.value.field_name == "probes"

    def test_critical_coefficient(self):
        a = RunConfig().coefficient("a")
        assert a.constant == pytest.approx(CRITICAL_A, abs=1e-15)

    def test_table_coefficient(self):
        cfg = RunConfig.from_dict(
            {"V": {"table": {"values": [-1.0, -0.5, 0.0], "abscissae": [0.0, 0.5, 1.0]}}}
        )
        V = cfg.coefficient("V")
        assert not V.is_constant
        assert V(0.0) == pytest.approx(-1.0)

    def test_hash_sensitivity(self):
        assert RunConfig().hash() != RunConfig(R=2.0).hash()

    def test_default_hash(self):
        # the default config's provenance hash, which resumed records match
        assert RunConfig().hash() == "dc670d1df9522569"

    @pytest.mark.parametrize("R", [0.5, 1.0, 1.25, 2.0])
    def test_default_probes_scale_with_the_ball(self, R):
        # a config that gives no probes reads the far field at 0.3 ... 0.9 R
        cfg = RunConfig.from_dict({"R": R})
        assert cfg.probes == [p * R for p in cli.DEFAULT_PROBES]
        assert RunConfig.from_dict({"R": R, "probes": [0.1 * R]}).probes == [0.1 * R]

    def test_partial_tolerances(self, tmp_path, capsys):
        with pytest.raises(ConfigError) as ei:
            RunConfig.from_dict({"tolerances": {"ode": 1e-10}})
        assert ei.value.field_name == "tolerances"
        cfg = write_cfg(tmp_path, tolerances={"ode": 1e-10})
        assert main(["solve", "--config", cfg]) == EXIT_VALIDATION
        assert "tolerances" in capsys.readouterr().err


class TestLoadConfig:
    def test_default(self):
        assert load_config(None) == RunConfig()

    def test_tol_override(self, tmp_path):
        path = write_cfg(tmp_path)
        cfg = load_config(path, {"shoot": "1e-6"})
        assert cfg.tolerances["shoot"] == 1e-6

    def test_unknown_tol_key(self):
        with pytest.raises(ConfigError):
            load_config(None, {"newton": "1e-6"})

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(p))


class TestScalarCommands:
    def test_critical(self, tmp_path, capsys):
        assert main(["critical"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["a_star"] == pytest.approx(CRITICAL_A, abs=1e-10)

    def test_qv(self, capsys):
        assert main(["qv"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["qv"] == pytest.approx(-2 * math.pi, abs=1e-8)

    def test_greens_profile(self, tmp_path):
        out = tmp_path / "greens.json"
        cfg = write_cfg(tmp_path, a={"constant": -1.0})
        assert main(["greens", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["phi_a_at_0"] == pytest.approx(1 / math.tan(1.0), abs=1e-10)
        assert rep["criticality"]["critical"] is False

    @pytest.mark.parametrize("cmd", ["qv", "greens"])
    def test_spline_dip_refused(self, tmp_path, capsys, cmd):
        # every tabulated value is above -pi^2, but the spline between them
        # dips to -35.46: ga_center reads the grid ProblemConfig reads
        table = {"values": [-9.0, -9.8, -2.0, -9.8, -9.0],
                 "abscissae": [0.0, 0.3, 0.35, 0.6, 1.0]}
        cfg = write_cfg(tmp_path, a={"table": table})
        assert main([cmd, "--config", cfg]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "coefficient min -35.46" in captured.err

    @pytest.mark.parametrize("a", [{"critical": True}, {"constant": -3.0}],
                             ids=["critical", "a=-3"])
    def test_greens_builds_one_series(self, tmp_path, monkeypatch, a):
        # the profile and the scan read phi_a off one Bessel series, at the
        # critical a with its Hessian and at a = -3 with a zero refined by Brent
        built, build = [], greenfn.HelmholtzSeries.build
        monkeypatch.setattr(greenfn.HelmholtzSeries, "build",
                            staticmethod(lambda *args: built.append(args) or build(*args)))
        out = tmp_path / "greens.json"
        assert main(["greens", "--config", write_cfg(tmp_path, a=a), "--out", str(out)]) == EXIT_OK
        assert len(built) == 1
        crit = json.loads(out.read_text())["criticality"]
        if "critical" in a:
            assert crit["zeros"] == [0.0] and crit["hessian"] is not None
        else:
            assert len(crit["zeros"]) == 1 and crit["zeros"][0] > 0

    def test_greens_default_critical(self, tmp_path):
        # critical a: the criticality report carries numpy bools
        out = tmp_path / "greens.json"
        assert main(["greens", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["a_star"] == pytest.approx(CRITICAL_A, abs=1e-10)
        crit = rep["criticality"]
        assert crit["critical"] is True
        assert crit["nondegenerate"] is True
        assert "a_star" not in crit  # a* is reported once, at the top level

    def test_validation_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, eps_ladder=[0.01, 0.02])
        assert main(["critical", "--config", cfg]) == EXIT_VALIDATION
        assert "eps_ladder" in capsys.readouterr().err

    def test_numerical_exit_code(self, capsys):
        # eps so large the effective coefficient loses coercivity
        assert main(["solve", "--eps", "8.0"]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("R", [1e-200, 1e200])
    @pytest.mark.parametrize("cmd", ["critical", "qv", "greens", "solve", "sweep", "bubbletest"])
    def test_float_failure_exit_code(self, tmp_path, capsys, cmd, R):
        # R = 1e-200 divides by zero and R = 1e200 overflows in the critical a
        # of the config, in every command that reads it
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"R": R}))
        out = ["--out", str(tmp_path / "r.jsonl")] if cmd == "sweep" else []
        assert main([cmd, "--config", str(cfg_path), *out]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numerical failure: ZeroDivisionError: " if R < 1
                              else "numerical failure: OverflowError: ")

    @pytest.mark.parametrize("args", [["--tol-override", "ode=0.5"], ["--eps", "1e-300"]],
                             ids=["ode=0.5", "eps=1e-300"])
    def test_solve_overflow_exit_code(self, capsys, args):
        # a tolerance so loose, or a rung so deep, that the shooting overflows
        assert main(["solve", *args]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical failure: OverflowError: ")

    def test_solve_deep_rung(self, capsys):
        # lam ~ 1.5e4, past where an unscaled zero-mode Gram system gives up
        assert main(["solve", "--eps", "0.001"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["beta"] == pytest.approx(-16 / (3 * math.pi), rel=0.01)
        assert rec["gamma"] == pytest.approx(128 / (15 * math.pi), rel=0.01)

    def test_solve_low_lambda(self, capsys):
        # lam ~ 47 sits below the fit's starting log-lam bracket around u(0)^2
        assert main(["solve", "--eps", "0.3"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["lam"] == pytest.approx(46.92, rel=1e-3)

    def test_tabulated_coefficient_solves(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, V={"table": {"values": [-1.0, -0.5, 0.0], "abscissae": [0.0, 0.5, 1.0]}}
        )
        assert main(["solve", "--config", cfg, "--eps", "0.1"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["status"] == "ok"

    def test_import_leaves_interpolate_unloaded(self):
        # only a tabulated coefficient needs scipy.interpolate
        code = "import sys, ballblowup.cli; print('scipy.interpolate' in sys.modules)"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_small_ball(self, tmp_path, capsys):
        # R = 0.5 with no probes given: no command refuses the config, a
        # sweep verifies at the critical a of that ball, and bubbletest
        # passes at its own a = -1 there
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"R": 0.5}))
        for cmd in ("critical", "qv", "greens", "solve", "bubbletest"):
            assert main([cmd, "--config", str(cfg_path)]) == EXIT_OK, cmd
        rec_path = tmp_path / "r.jsonl"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(rec_path)]) == EXIT_OK
        assert main(["verify", "--config", str(cfg_path), "--records", str(rec_path)]) == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out

    def test_solve_builds_center_data_once(self, monkeypatch, capsys):
        # the ladder's one blow-up laws seed the rung and serve its analysis
        calls = TestSweepAndReport._count_ga_center(monkeypatch)
        assert main(["solve", "--eps", "0.01"]) == EXIT_OK
        assert len(calls) == 1

    def test_solve_line_carries_solve_cost(self, capsys):
        # solve's line carries what a sweep line carries of its rung: seed,
        # integrations and steps by phase, and how well it converged
        assert main(["solve", "--eps", "0.01"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["status"] == "ok" and rec["seed"] == "rate_law"
        assert rec["shoot_integrations"].keys() == rec["shoot_steps"].keys() == {"bracket", "root"}
        assert abs(rec["endpoint"]) <= RunConfig().tolerances["shoot"]
        assert 0.0 < rec["pde_residual"] <= 1e-9

    def test_regime_error_exit_code(self, monkeypatch, capsys):
        def outside(*args, **kwargs):
            raise cli.asympt.RegimeError("outside the asymptotic regime")

        monkeypatch.setattr(cli.asympt, "decompose", outside)
        assert main(["solve", "--eps", "0.05"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "numerical failure" in err


@pytest.fixture(scope="module")
def fresh_sweep(tmp_path_factory):
    """A fresh sweep of the default ladder: its config path and its lines."""
    tmp = tmp_path_factory.mktemp("fresh")
    cfg_path, fresh_path = write_cfg(tmp), tmp / "fresh.jsonl"
    assert main(["sweep", "--config", cfg_path, "--out", str(fresh_path)]) == EXIT_OK
    return cfg_path, fresh_path.read_text().splitlines()


class TestSweepAndReport:
    def test_sweep_records_and_resume(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, eps_ladder=SHORT_LADDER)
        rec_path = tmp_path / "r.jsonl"
        assert main(["sweep", "--config", cfg_path, "--out", str(rec_path)]) == EXIT_OK
        lines = rec_path.read_text().splitlines()
        assert len(lines) == len(SHORT_LADDER)
        first = [json.loads(l) for l in lines]
        assert all(d["status"] == "ok" for d in first)
        # resume over a complete file is a no-op: content unchanged
        assert main(
            ["sweep", "--config", cfg_path, "--out", str(rec_path), "--resume"]
        ) == EXIT_OK
        assert [json.loads(l) for l in rec_path.read_text().splitlines()] == first

    def test_resume_completes_partial_file(self, tmp_path):
        cfg_path = write_cfg(tmp_path, eps_ladder=SHORT_LADDER)
        rec_path = tmp_path / "r.jsonl"
        assert main(["sweep", "--config", cfg_path, "--out", str(rec_path)]) == EXIT_OK
        lines = rec_path.read_text().splitlines()
        rec_path.write_text(lines[0] + "\n")  # drop the last two rungs
        assert main(
            ["sweep", "--config", cfg_path, "--out", str(rec_path), "--resume"]
        ) == EXIT_OK
        redone = [json.loads(l) for l in rec_path.read_text().splitlines()]
        assert sorted(d["eps"] for d in redone) == sorted(SHORT_LADDER)

    def test_analysis_failure_keeps_seed(self, tmp_path, monkeypatch):
        # every rung is solved from its rate-law seed before any analysis
        # runs, so a rung whose analysis fails leaves the others' solves as
        # they are in a sweep without the failure
        cfg_path = write_cfg(tmp_path, eps_ladder=SHORT_LADDER)
        clean_path = tmp_path / "clean.jsonl"
        assert main(["sweep", "--config", cfg_path, "--out", str(clean_path)]) == EXIT_OK
        records = cli.asympt.records_from_sweep

        def records_failing(sols, *args):
            if sols[0].config.eps == SHORT_LADDER[1]:
                raise cli.asympt.RegimeError("analysis failed")
            return records(sols, *args)

        monkeypatch.setattr(cli.asympt, "records_from_sweep", records_failing)
        rec_path = tmp_path / "r.jsonl"
        assert main(["sweep", "--config", cfg_path, "--out", str(rec_path)]) == EXIT_NUMERICAL
        lines = [json.loads(l) for l in rec_path.read_text().splitlines()]
        clean = [json.loads(l) for l in clean_path.read_text().splitlines()]
        assert [d["status"] for d in lines] == ["ok", "failed", "ok"]
        assert "analysis failed" in lines[1]["error"]
        assert lines[0] == clean[0] and lines[2] == clean[2]

    def test_low_lambda_ladder(self, tmp_path):
        ladder = [0.3, 0.2, 0.1, 0.08]
        cfg_path = write_cfg(tmp_path, eps_ladder=ladder)
        rec_path = tmp_path / "r.jsonl"
        assert main(["sweep", "--config", cfg_path, "--out", str(rec_path)]) == EXIT_OK
        lines = [json.loads(l) for l in rec_path.read_text().splitlines()]
        assert [(d["eps"], d["status"]) for d in lines] == [(e, "ok") for e in ladder]

    def test_failing_rung_recorded(self, tmp_path):
        # eps = 8 breaks coercivity: that rung fails, the others still run
        ladder = [8.0] + SHORT_LADDER[:2]
        cfg_path = write_cfg(tmp_path, eps_ladder=ladder)
        rec_path = tmp_path / "r.jsonl"
        code = main(["sweep", "--config", cfg_path, "--out", str(rec_path)])
        assert code == EXIT_NUMERICAL
        lines = [json.loads(l) for l in rec_path.read_text().splitlines()]
        assert [d["eps"] for d in lines] == ladder
        assert [d["status"] for d in lines] == ["failed", "ok", "ok"]
        assert "coefficient" in lines[0]["error"]

    @pytest.mark.parametrize("stage", ["problem", "solve", "analysis"])
    def test_failure_line_names_stage(self, tmp_path, monkeypatch, stage):
        # eps = 8 breaks coercivity; a = -1 has no positive solution; a fit
        # that raises fails the analysis.  The other rungs still run.
        ladder, a, error_type, message = {
            "problem": ([8.0] + SHORT_LADDER[:2], {"critical": True}, "CoercivityError",
                        "coefficient"),
            "solve": ([0.1, 0.08], {"constant": -1.0}, "NoBracketError",
                      "no positive solution"),
            "analysis": (SHORT_LADDER[:2], {"critical": True}, "RegimeError", "no minimum"),
        }[stage]
        if stage == "analysis":
            fit = asympt.fit_bubble

            def fit_failing(u):
                if u.config.eps == ladder[0]:
                    raise asympt.RegimeError("no minimum")
                return fit(u)

            monkeypatch.setattr(asympt, "fit_bubble", fit_failing)
        cfg_path = write_cfg(tmp_path, eps_ladder=ladder, a=a)
        rec_path = tmp_path / "r.jsonl"
        assert main(["sweep", "--config", cfg_path, "--out", str(rec_path)]) == EXIT_NUMERICAL
        lines = [json.loads(l) for l in rec_path.read_text().splitlines()]
        assert [d["eps"] for d in lines] == ladder
        failed = lines[0]
        assert (failed["status"], failed["stage"], failed["error_type"]) \
            == ("failed", stage, error_type)
        assert message in failed["error"]
        if stage != "solve":  # a = -1 fails every rung
            assert [d["status"] for d in lines[1:]] == ["ok"] * (len(ladder) - 1)

    @settings(max_examples=8, deadline=None)
    @example(on_file=(True, False, True, False))
    @given(on_file=st.tuples(*[st.booleans()] * len(RunConfig().eps_ladder)))
    def test_resumed_sweep_matches_fresh(self, fresh_sweep, tmp_path_factory, on_file):
        # any rungs already on file: the others are solved as a batch of
        # their own and must land on the fresh sweep's records
        cfg_path, fresh = fresh_sweep
        rec_path = tmp_path_factory.mktemp("resumed") / "r.jsonl"
        rec_path.write_text("".join(l + "\n" for l, kept in zip(fresh, on_file) if kept))
        assert main(
            ["sweep", "--config", cfg_path, "--out", str(rec_path), "--resume"]
        ) == EXIT_OK
        resumed = {d["eps"]: d for d in map(json.loads, rec_path.read_text().splitlines())}
        assert sorted(resumed) == sorted(RunConfig().eps_ladder)
        for d in map(json.loads, fresh):
            assert resumed[d["eps"]]["M"] == pytest.approx(d["M"], rel=1e-8)
            assert resumed[d["eps"]]["lam"] == pytest.approx(d["lam"], rel=1e-7)

    def test_cold_newton_failure_fails_its_rung(self, tmp_path, monkeypatch):
        # a = -3 lies outside the rate law's regime, so every rung scans;
        # the rung whose Newton finds no root in its bracket fails alone
        newton = solver._newton

        def failing(cfgs, *args):
            return [None if cfg.eps == 0.05 else M for cfg, M in zip(cfgs, newton(cfgs, *args))]

        monkeypatch.setattr(solver, "_newton", failing)
        ladder = [0.08, 0.05, 0.02]
        cfg_path = write_cfg(tmp_path, eps_ladder=ladder, a={"constant": -3.0})
        rec_path = tmp_path / "r.jsonl"
        assert main(["sweep", "--config", cfg_path, "--out", str(rec_path)]) == EXIT_NUMERICAL
        lines = [json.loads(l) for l in rec_path.read_text().splitlines()]
        assert [(d["eps"], d["status"]) for d in lines] == [(0.08, "ok"), (0.05, "failed"),
                                                            (0.02, "ok")]
        assert lines[0]["seed"] == lines[2]["seed"] == "scan"
        assert (lines[1]["stage"], lines[1]["error_type"]) == ("solve", "RuntimeError")
        assert "no root in the bracket" in lines[1]["error"]

    @staticmethod
    def _count_ga_center(monkeypatch) -> list:
        """A list that gains an entry at every ``ga_center`` call."""
        calls, orig = [], greenfn.ga_center

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(greenfn, "ga_center", counting)
        return calls

    def test_sweep_builds_center_data_once(self, tmp_path, monkeypatch):
        # one ga_center, shared by the rate law and the analysis of all rungs
        calls = self._count_ga_center(monkeypatch)
        cfg_path = write_cfg(tmp_path)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "r.jsonl")]) == EXIT_OK
        assert len(calls) == 1

    def test_sweep_without_center_data(self, tmp_path, monkeypatch):
        # a = -10 alone breaks coercivity, so it has no center data, while
        # a + eps V does not: the rungs get no rate law and scan, and each
        # analysis fails on the center data, which ga_center was asked for
        # once
        calls = self._count_ga_center(monkeypatch)
        cfg_path = write_cfg(tmp_path, a={"constant": -10.0}, V={"constant": 1.0},
                             eps_ladder=[0.5, 0.3])
        rec_path = tmp_path / "r.jsonl"
        assert main(["sweep", "--config", cfg_path, "--out", str(rec_path)]) == EXIT_NUMERICAL
        lines = [json.loads(l) for l in rec_path.read_text().splitlines()]
        assert [(d["stage"], d["error_type"]) for d in lines] == [("analysis", "CoercivityError")] * 2
        assert len(calls) == 1

    def test_no_solution_exit_code(self, tmp_path, capsys):
        # a + eps V = -2.04 lies above a* = -pi^2/4: no positive solution,
        # which the rung solve says before it scans
        cfg_path = write_cfg(tmp_path, a={"constant": -2.0})
        assert main(["solve", "--config", cfg_path, "--eps", "0.04"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no positive solution" in err and "-2.04" in err

    def test_report_table(self, tmp_path, capsys, canonical_records):
        rec_path = write_records(tmp_path, canonical_records)
        csv_path = tmp_path / "table.csv"
        assert main(["report", "--records", rec_path, "--out", str(csv_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "eps_lambda" in out
        rows = csv_path.read_text().splitlines()
        assert len(rows) == 1 + len(canonical_records)
        # lines written without the solve's cost report NaN steps
        assert all(row.endswith(",nan") for row in rows[1:])

    def test_sweep_lines_carry_solve_cost(self, fresh_sweep, tmp_path, capsys):
        # a canonical sweep's lines carry each rung's seed and shooting
        # integrations and steps by phase; verify reads them, and report
        # totals the steps in its last column
        cfg_path, fresh = fresh_sweep
        lines = [json.loads(l) for l in fresh]
        for d in lines:
            assert d["seed"] == "rate_law"
            assert d["shoot_integrations"] == {"bracket": 0, "root": 3}
            steps = d["shoot_steps"]
            assert steps.keys() == {"bracket", "root"} and steps["bracket"] == 0
        rec_path = tmp_path / "r.jsonl"
        rec_path.write_text("".join(l + "\n" for l in fresh))
        assert main(["verify", "--config", cfg_path, "--records", str(rec_path)]) == EXIT_OK
        capsys.readouterr()
        csv_path = tmp_path / "table.csv"
        assert main(["report", "--records", str(rec_path), "--out", str(csv_path)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0].split()[-1] == "shoot_steps"
        totals = [float(row.rsplit(",", 1)[1]) for row in csv_path.read_text().splitlines()[1:]]
        assert totals == [float(sum(d["shoot_steps"].values())) for d in lines]
        assert [float(row.split()[-1]) for row in out[1:]] == totals
        # steps that are not numbers by phase read NaN, not a traceback (one
        # rung each: an eps twice is refused)
        bad = [dict(d, shoot_steps=s) for d, s in zip(lines, ({"root": "x"}, 7, None))]
        rec_path.write_text("".join(json.dumps(d) + "\n" for d in bad))
        assert main(["report", "--records", str(rec_path)]) == EXIT_OK
        assert [row.split()[-1] for row in capsys.readouterr().out.splitlines()[1:]] == ["nan"] * 3

    def test_sweep_lines_carry_convergence(self, fresh_sweep):
        # a canonical sweep's lines say how well each rung converged: its
        # endpoint u(R) within shoot_tol and its pde_residual within 1e-9
        _, fresh = fresh_sweep
        for d in map(json.loads, fresh):
            assert abs(d["endpoint"]) <= RunConfig().tolerances["shoot"]
            assert 0.0 < d["pde_residual"] <= 1e-9


class TestInputErrors:
    """Bad input ends with exit 1 and a one-line message, not a traceback."""

    @pytest.mark.parametrize("cmd", ["verify", "report"])
    def test_missing_records_file(self, tmp_path, capsys, cmd):
        path = tmp_path / "absent.jsonl"
        assert main([cmd, "--records", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot read" in err

    def test_malformed_records_line(self, tmp_path, capsys, canonical_records):
        path = Path(write_records(tmp_path, canonical_records))
        path.write_text(path.read_text() + "{not json\n")
        assert main(["verify", "--records", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"line {len(canonical_records) + 1}" in err

    @pytest.mark.parametrize("cmd, bad_line, message", [
        ("verify", lambda d: {k: v for k, v in d.items() if k != "gamma"},
         "no number for gamma"),
        ("verify", lambda d: [d], "not a JSON object"),
        ("report", lambda d: 5, "not a JSON object"),
        ("report", lambda d: {**d, "lam": "big"}, "no number for lam"),
    ], ids=["missing-field", "list", "number", "non-numeric"])
    def test_bad_record_line(self, tmp_path, capsys, canonical_records, cmd, bad_line, message):
        path = Path(write_records(tmp_path, canonical_records))
        good = json.loads(path.read_text().splitlines()[0])
        path.write_text(path.read_text() + json.dumps(bad_line(good)) + "\n")
        assert main([cmd, "--records", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"line {len(canonical_records) + 1}: {message}" in err

    @pytest.mark.parametrize("cmd", ["verify", "report"])
    @pytest.mark.parametrize("field, value, message", [
        ("lam", math.nan, "lam not finite"),
        ("M", math.nan, "M not finite"),
        ("eps", math.nan, "eps not finite"),
        ("lam", math.inf, "lam not finite"),
        ("eps", 0.04, "eps 0.04 repeats an ok line"),
    ], ids=["lam-nan", "M-nan", "eps-nan", "lam-inf", "eps-twice"])
    def test_corrupt_record_line(self, tmp_path, capsys, canonical_records, cmd, field, value,
                                 message):
        # the last rung's field overwritten: a NaN lam would leave the trust
        # region and the verdict silently, a NaN eps or two equal ones would
        # break the fits, and an infinite lam would divide by zero
        path = Path(write_records(tmp_path, canonical_records))
        *lines, last = path.read_text().splitlines()
        path.write_text("\n".join(lines + [json.dumps({**json.loads(last), field: value})]) + "\n")
        assert main([cmd, "--records", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("validation error:")
        assert f"line {len(canonical_records)}: {message}" in err

    @pytest.mark.parametrize("cmd", ["verify", "report"])
    def test_mixed_config_hashes(self, tmp_path, capsys, canonical_records, cmd):
        # the same rungs under two configs would read as one ladder of 8
        path = Path(write_records(tmp_path, canonical_records))
        first = path.read_text()
        write_records(tmp_path, canonical_records, RunConfig(V={"constant": -2.0}))
        path.write_text(first + path.read_text())
        assert main([cmd, "--records", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "mixes 2 config_hash values" in err

    @pytest.mark.parametrize("key", ["quad", "series"])
    def test_tol_override_outside_numerics(self, capsys, key):
        # only the ode and shoot tolerances reach the numerics; another key
        # would change config_hash and nothing else
        assert main(["critical", "--tol-override", f"{key}=1e-3"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and repr(key) in err

    @pytest.mark.parametrize("item", ["ode=abc", "shoot=-1", "ode=inf", "shoot=inf",
                                      "shoot=1e300"])
    def test_tol_override_bad_value(self, capsys, item):
        assert main(["critical", "--tol-override", item]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "tolerances" in err

    @pytest.mark.parametrize("flag", [["--config", "other.json"], ["--tol-override", "ode=1e-9"]])
    def test_report_reads_no_config(self, tmp_path, canonical_records, flag):
        # report prints the records as they are: a config would go unread
        rec_path = write_records(tmp_path, canonical_records)
        with pytest.raises(SystemExit) as exc:
            main(["report", "--records", rec_path, *flag])
        assert exc.value.code == 2

    def test_resume_skips_non_object_line(self, fresh_sweep, tmp_path):
        cfg_path, fresh = fresh_sweep
        rec_path = tmp_path / "r.jsonl"
        rec_path.write_text("[1, 2]\n" + "".join(l + "\n" for l in fresh))
        assert main(
            ["sweep", "--config", cfg_path, "--out", str(rec_path), "--resume"]
        ) == EXIT_OK
        assert rec_path.read_text().splitlines() == ["[1, 2]", *fresh]

    @pytest.mark.parametrize("eps", ["0", "-1"])
    def test_solve_nonpositive_eps(self, capsys, eps):
        assert main(["solve", "--eps", eps]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'eps'" in err

    @pytest.mark.parametrize("cmd", ["qv", "greens", "solve", "sweep"])
    @pytest.mark.parametrize("name, spec", [
        ("a", {"constant": "abc"}),
        ("V", {"table": {"values": [-1.0, -1.0]}}),
        ("V", {"table": {"values": [-1.0, -1.0, -1.0], "abscissae": [0.0, 1.0]}}),
        ("a", {"table": {"values": [-2.0, -2.0, -2.0], "abscissae": [0.0, 0.6, 0.5]}}),
        ("V", {"table": {"values": [-1.0, -1.0], "abscissae": [0.0, 0.5]}}),
        ("V", {"constant": "-1.5"}),
        ("V", {"constant": True}),
        ("a", {"critical": 1}),
        ("a", {"critical": False, "constant": -2.0}),
    ], ids=["constant-not-number", "no-abscissae", "lengths-differ", "not-increasing",
            "short-of-R", "constant-numeric-string", "constant-bool", "critical-not-true",
            "critical-false"])
    def test_bad_coefficient(self, tmp_path, capsys, cmd, name, spec):
        # a coefficient is built once, when the config is loaded
        cfg_path = write_cfg(tmp_path, **{name: spec})
        assert main([cmd, "--config", cfg_path, "--out", str(tmp_path / "out")]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"'{name}'" in err and "Traceback" not in err

    @pytest.mark.parametrize("doc, args", [
        (None, ["critical", "--config", "{tmp}/absent.json"]),
        (5, ["critical"]),
        ({"eps_ladder": "abc"}, ["critical"]),
        ({"eps_ladder": [0.04, None]}, ["critical"]),
        ({"probes": 3}, ["critical"]),
        ({"probes": []}, ["sweep", "--out", "{tmp}/empty.jsonl"]),
        ({"R": True}, ["critical"]),
        ({"tolerances": {"quad": 1e-10, "ode": True, "shoot": 1e-7, "series": 1e-12}},
         ["critical"]),
        ({"eps_ladder": [True]}, ["critical"]),
        ({"R": 2.0, "probes": [True]}, ["critical"]),
        *[(None, [cmd, "--out", "{tmp}/absent/out"])
          for cmd in ("greens", "critical", "qv", "solve", "sweep", "bubbletest")],
        (None, ["verify", "--records", "{tmp}/records.jsonl", "--out", "{tmp}/absent/v.json"]),
        (None, ["report", "--records", "{tmp}/records.jsonl", "--out", "{tmp}/absent/t.csv"]),
    ], ids=["missing-config", "not-an-object", "ladder-string", "ladder-null", "probes-number",
            "probes-empty", "R-bool", "tolerance-bool", "ladder-bool", "probe-bool", "out-greens",
            "out-critical", "out-qv", "out-solve", "out-sweep", "out-bubbletest",
            "out-verify", "out-report"])
    def test_malformed_input(self, tmp_path, capsys, canonical_records, doc, args):
        # verify and report get good records, so only --out is at fault
        write_records(tmp_path, canonical_records)
        argv = [a.format(tmp=tmp_path) for a in args]
        if doc is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({**asdict(RunConfig()), **doc} if isinstance(doc, dict)
                                       else doc))
            argv += ["--config", str(path)]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("validation error:")
        assert "Traceback" not in err

    def test_non_integer_lmax(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="lmax"):
            RunConfig.from_dict({"lmax": "x"})
        cfg_path = write_cfg(tmp_path, lmax="x")
        assert main(["critical", "--config", cfg_path]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "lmax" in err


class TestVerify:
    def test_insufficient_rungs(self, tmp_path, capsys, canonical_records):
        rec_path = write_records(tmp_path, canonical_records[:2])
        assert main(["verify", "--records", rec_path]) == EXIT_VALIDATION
        assert "insufficient data" in capsys.readouterr().err

    def test_outside_trust_region(self, tmp_path, capsys, canonical_records):
        # two of four rungs below LAMBDA_TRUST: too few for any limit
        low = [dataclasses.replace(r, lam=50.0) if i < 2 else r
               for i, r in enumerate(canonical_records)]
        rec_path = write_records(tmp_path, low)
        assert main(["verify", "--records", rec_path]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "trust region" in err

    def test_canonical_pass(self, tmp_path, capsys, canonical_records):
        rec_path = write_records(tmp_path, canonical_records)
        out_path = tmp_path / "verdict.json"
        code = main(["verify", "--records", rec_path, "--out", str(out_path)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "FAIL" not in text
        payload = json.loads(out_path.read_text())
        assert payload["report"]["all_passed"] is True
        assert payload["report"]["rungs"] == [r.eps for r in canonical_records]
        assert out_path.with_suffix(".csv").exists()

    def test_zero_potential_refused(self, tmp_path, capsys, canonical_records):
        # with V = 0 the centred potential integral vanishes and no rate law
        # applies; at critical a no V = 0 rung has a solution, so the V = -1
        # rungs stand in under the V = 0 config's hash, and verify refuses
        cfg_path = write_cfg(tmp_path, V={"constant": 0.0})
        rec_path = write_records(tmp_path, canonical_records, load_config(cfg_path))
        code = main(["verify", "--config", cfg_path, "--records", rec_path])
        assert code == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "Q_V(0) = 0" in captured.err

    @pytest.mark.parametrize("a", [-2.48, -3.0])
    def test_non_critical_a_refused(self, tmp_path, capsys, canonical_records, monkeypatch, a):
        # a supercritical a has phi_a(0) < 0 and none of the critical-a laws:
        # build_report, which verify calls, says so before any fit
        monkeypatch.setattr(asympt, "_limit_entry", lambda *args: pytest.fail("fitted"))
        cfg_path = write_cfg(tmp_path, a={"constant": a})
        rec_path = write_records(tmp_path, canonical_records, load_config(cfg_path))
        assert main(["verify", "--config", cfg_path, "--records", rec_path]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "phi_a(0) = -" in captured.err

    def test_config_mismatch_rejected(self, tmp_path, capsys, canonical_records):
        # V = -1 records judged against the V = -2 laws would read as a
        # failed rate law; they are the wrong input
        cfg_path = write_cfg(tmp_path, V={"constant": -2.0})
        rec_path = write_records(tmp_path, canonical_records)
        assert main(["verify", "--config", cfg_path, "--records", rec_path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert RunConfig().hash() in captured.err and load_config(cfg_path).hash() in captured.err

    def test_tampered_records_fail(self, tmp_path, capsys, canonical_records):
        bad = [
            dataclasses.replace(r, lam=r.lam * (1.5 if i == 0 else 1.0))
            for i, r in enumerate(canonical_records)
        ]
        rec_path = write_records(tmp_path, bad)
        code = main(["verify", "--records", rec_path])
        assert code == EXIT_VERIFICATION
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("law", [law[0] for law in asympt._LIMIT_LAWS])
    def test_each_law_fails_alone(self, tmp_path, capsys, canonical_records, canonical_laws, law):
        # records moved so that one law's limit is off by twice its bound:
        # that row alone fails, in the report and in verify's output
        off = {"rate": lambda r: {"lam": r.lam * (1 + 2 * asympt.RATE_TOL)},
               "alpha_slope": lambda r: {"alpha": 1 + (r.alpha - 1) * (1 + 2 * asympt.ALPHA_TOL)},
               "beta": lambda r: {"beta": r.beta * 1.02},
               "gamma": lambda r: {"gamma": r.gamma * 1.02}}[law]
        check = {name: check for name, check, *_ in asympt._LIMIT_LAWS}[law]
        bad = [dataclasses.replace(r, **off(r)) for r in canonical_records]
        report = asympt.build_report(bad, canonical_laws)
        assert [c for c, _, _, passed in report.rows() if not passed] == [check]
        assert main(["verify", "--records", write_records(tmp_path, bad)]) == EXIT_VERIFICATION
        out, err = capsys.readouterr()
        fails = [l[2:24].strip() for l in out.splitlines() if "FAIL" in l]
        assert fails == [check]
        assert err == f"verification failed: {check}\n"

    @pytest.mark.parametrize("scale", [1.0, 1.02])
    def test_csv_is_the_report(self, tmp_path, canonical_records, canonical_laws, scale):
        recs = [dataclasses.replace(r, gamma=r.gamma * scale) for r in canonical_records]
        out_path = tmp_path / "verdict.json"
        code = main(["verify", "--records", write_records(tmp_path, recs),
                     "--out", str(out_path)])
        report = asympt.build_report(recs, canonical_laws)
        expected = [[c, v, t, str(p)] for c, v, t, p in report.rows()]
        with out_path.with_suffix(".csv").open(newline="") as fh:
            assert list(csv.reader(fh)) == [["check", "value", "target", "passed"], *expected]
        all_passed = json.loads(out_path.read_text())["report"]["all_passed"]
        assert all_passed == ("False" not in {row[3] for row in expected})
        assert all_passed == (scale == 1.0) == (code == EXIT_OK)

    @pytest.mark.parametrize("V", [-1.0, -2.0])
    def test_json_is_the_report(self, tmp_path, canonical_records, V):
        # verify's report is build_report's on the same records, with the
        # laws built by the same call
        cfg_path = write_cfg(tmp_path, V={"constant": V})
        rec_path = write_records(tmp_path, canonical_records, load_config(cfg_path))
        out_path = tmp_path / "verdict.json"
        main(["verify", "--config", cfg_path, "--records", rec_path, "--out", str(out_path)])
        laws = greenfn.blowup_laws(greenfn.RadialCoefficient.constant_coeff(CRITICAL_A),
                                   greenfn.RadialCoefficient.constant_coeff(V), 1.0)
        report = asdict(asympt.build_report(canonical_records, laws))
        expected = json.loads(json.dumps(report, default=cli._json_default))
        assert json.loads(out_path.read_text())["report"] == expected


class TestMain:
    def test_command_looked_up_when_called(self, monkeypatch):
        # a command swapped after the parser was built is the one that runs
        assert main(["critical"]) == EXIT_OK
        monkeypatch.setattr(cli, "cmd_critical", lambda args: 42)
        assert main(["critical"]) == 42

    def test_tol_override_does_not_leak(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_critical", lambda args: seen.append(args.tol_override))
        main(["critical", "--tol-override", "ode=1e-9"])
        main(["critical"])
        assert seen == [{"ode": "1e-9"}, {}]


class TestBubbletest:
    def test_passes(self, capsys):
        assert main(["bubbletest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "U5_H" in out and "rel err" in out

    def test_off_coefficient_fails(self, tmp_path, monkeypatch, capsys):
        # int U^4 H^2 2% high on every rung: its fitted leading coefficient
        # is 2% off its target
        integrals = bubble._ladder_integrals

        def off(*args):
            vals = integrals(*args)
            vals["U4_H2"] *= 1.02
            return vals

        monkeypatch.setattr(bubble, "_ladder_integrals", off)
        out = tmp_path / "bubbletest.json"
        assert main(["bubbletest", "--out", str(out)]) == EXIT_VERIFICATION
        rows = json.loads(out.read_text())
        assert rows["passed"] is False
        (row,) = [r for r in rows["rows"] if r[:2] == ["U4_H2", "leading"]]
        assert row[4] == pytest.approx(0.02, abs=1e-3)
        # stdout marks that row FAIL and every other row PASS, and one
        # stderr line names it
        out, err = capsys.readouterr()
        table = out.splitlines()[1:]
        assert len(table) == len(rows["rows"])
        assert [line.split()[:2] for line in table if line.endswith("[FAIL]")] == [
            ["U4_H2", "leading"]]
        assert all(line.endswith(("[PASS]", "[FAIL]")) for line in table)
        assert err == "verification failed: U4_H2 leading\n"

    @pytest.mark.parametrize("R", [1.0, 2.0])
    def test_row_format(self, tmp_path, R):
        # the rows perfbench/checks.py reads: (name, kind, value, target,
        # rel_err), with every constant name one of its closed forms
        cfg_path = write_cfg(tmp_path, R=R)
        out = tmp_path / "bubbletest.json"
        assert main(["bubbletest", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        rows = json.loads(out.read_text())["rows"]
        assert all(len(row) == 5 for row in rows)
        assert {kind for _, kind, *_ in rows} == {"leading", "subleading", "constant",
                                                  "closed form"}
        assert [name for name, kind, *_ in rows if kind == "constant"] == [
            "int g dlam U", "lam^2 int U^4 (dlam U)^2", "int |grad PU|^2",
            "lam^2 int |grad dlam PU|^2",
        ]

    def test_zero_coefficient_passes(self, tmp_path, capsys):
        # at a = 0 the subleading targets are 0: each row is judged on its
        # identity's leading scale, not on 1e-12
        cfg_path = write_cfg(tmp_path, a={"constant": 0.0})
        out = tmp_path / "bubbletest.json"
        assert main(["bubbletest", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        rows = json.loads(out.read_text())["rows"]
        subs = [r for r in rows if r[1] == "subleading"]
        assert subs and all(r[3] == 0.0 and r[4] <= 1e-4 for r in subs)

    def test_shifted_norm_fails(self, monkeypatch, capsys):
        closed = bubble._LQ_CLOSED_FORMS[6]
        monkeypatch.setitem(bubble._LQ_CLOSED_FORMS, 6,
                            lambda lam, s: closed(lam, s) / 1.001**6)
        assert main(["bubbletest"]) == EXIT_VERIFICATION

"""One benchmark process: import the package from the checkout, load the
workload's configs, then run whole rounds of the workload's operations until
the run time is spent.  Writes its outputs, timings and (when traced) the
per-layer values of every round to ``result.json`` in the run directory.

Every span it times carries the host speed sampled during it
(``hostspeed.py``).  Run by ``run.py``; ``--setup-only`` stops after the
set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))


def _cli(cli, argv) -> int:
    """One CLI call with its stdout tables kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _failure(e: BaseException) -> str:
    return f"{type(e).__name__}: {e}"


def ladder_round(mods, cfg_path: Path, rungs: list, rundir: Path) -> list:
    """``sweep`` then ``verify``; one operation per rung and one for verify."""
    cli, asympt = mods["cli"], mods["asympt"]
    records_path = rundir / "records.jsonl"
    verdict_path = rundir / "verdict.json"
    sweep_error = None
    try:
        _cli(cli, ["sweep", "--config", str(cfg_path), "--out", str(records_path)])
    except Exception as e:  # the rungs it did not write count as failed
        sweep_error = _failure(e)
    lines = records_path.read_text().splitlines() if records_path.exists() else []
    by_eps = {d["eps"]: d for d in map(json.loads, filter(None, lines))}
    ops = []
    for eps in rungs:
        d = by_eps.get(eps)
        ok = d is not None and d.get("status") == "ok"
        error = None if ok else (d or {}).get("error", sweep_error or "no record")
        ops.append({"op": "rung", "eps": eps, "ok": ok,
                    "record": d if ok else None, "error": error})

    op = {"op": "verify", "ok": False}
    verdict_path.unlink(missing_ok=True)
    try:
        rc = _cli(cli, ["verify", "--config", str(cfg_path),
                        "--records", str(records_path), "--out", str(verdict_path)])
        op["exit"] = rc
        if rc == 0:
            op["verdict"] = json.loads(verdict_path.read_text())
            recs = [asympt.SweepRecord.from_dict(o["record"]) for o in ops if o["ok"]]
            op["beta"], op["gamma"] = asympt.beta_gamma_limits(recs)
            op["ok"] = True
        else:
            op["error"] = f"exit {rc}"
    except Exception as e:
        op["error"] = _failure(e)
    ops.append(op)
    return ops


def kernels_round(mods, cfgs: dict, seed: int, rundir: Path) -> list:
    """Per radius: ``critical``, ``qv``, ``greens``, ``bubbletest`` and the
    coercivity probe."""
    from workloads import PROBE_LAM_R, PROBE_SAMPLES

    cli, asympt = mods["cli"], mods["asympt"]
    ops = []
    for name, (cfg_path, cfg) in cfgs.items():
        for cmd in ("critical", "qv", "greens", "bubbletest"):
            out = rundir / f"{name}-{cmd}.json"
            out.unlink(missing_ok=True)
            op = {"op": cmd, "config": name, "R": cfg.R, "ok": False}
            try:
                rc = _cli(cli, [cmd, "--config", str(cfg_path), "--out", str(out)])
                op["exit"] = rc
                if rc == 0:
                    op["output"] = json.loads(out.read_text())
                    op["ok"] = True
                else:
                    op["error"] = f"exit {rc}"
            except Exception as e:
                op["error"] = _failure(e)
            ops.append(op)
        op = {"op": "coercivity", "config": name, "R": cfg.R, "ok": False}
        try:
            op["rho"] = asympt.coercivity_probe(
                PROBE_LAM_R / cfg.R, cfg.coefficient("a"), cfg.R,
                samples=PROBE_SAMPLES, seed=seed)
            op["rho_whole_space"] = asympt.coercivity_probe(
                1.0, None, 50.0, samples=PROBE_SAMPLES, seed=seed)
            op["ok"] = True
        except Exception as e:
            op["error"] = _failure(e)
        ops.append(op)
    return ops


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--rundir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    rundir = Path(args.rundir)

    # --- set-up: imports, config load and validation
    import hostspeed
    from workloads import SPEED_UNITS

    sampler = hostspeed.SpeedSampler(SPEED_UNITS[args.workload]).start()
    from tracing import Tracer, load_modules

    mods = load_modules()
    pkg_file = Path(mods["ballblowup"].__file__).resolve()
    if SRC.resolve() not in pkg_file.parents:
        print(f"ballblowup imported from {pkg_file}, not from {SRC}", file=sys.stderr)
        return 2
    cfgs = {}
    for path in sorted(rundir.glob("config-*.json")):
        cfgs[path.stem[len("config-"):]] = (path, mods["cli"].load_config(str(path)))
    ready = time.monotonic()
    setup_speed = sampler.since((0, 0.0))
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"ready": ready, "speed": setup_speed}))
        return 0

    if args.workload == "kernels":
        def one_round():
            return kernels_round(mods, cfgs, args.seed, rundir)
    else:
        (cfg_path, cfg), = cfgs.values()

        def one_round():
            return ladder_round(mods, cfg_path, list(cfg.eps_ladder), rundir)

    tracer = Tracer(mods) if args.trace else None
    rounds = []
    start = time.monotonic()
    while True:
        # A traced run alternates untraced and traced rounds, so the tracing
        # overhead is measured on the same machine state.
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.new_round(len(rounds))
            tracer.install()
        mark = sampler.mark()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            ops = one_round()
        finally:
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            speed = sampler.since(mark)
            if traced:
                tracer.uninstall()
        rounds.append({"traced": traced, "wall_s": wall, "cpu_s": cpu, "speed": speed,
                       "ops": ops, "layers": tracer.round_metrics() if traced else None})
        if time.monotonic() - start >= args.seconds and (tracer is None or len(rounds) >= 2):
            break

    sampler.stop()
    result = {
        "ready": ready,
        "setup_speed": setup_speed,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "package": str(pkg_file),
    }
    if tracer:
        tracer.write(rundir / "trace.json")
    (rundir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the ``ballblowup`` witness.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  Writes the workload's configs, times the
set-up of fresh interpreters, runs the workload in one fresh worker process
for whole rounds until ``--seconds`` are spent, checks every output that
succeeded against closed forms (``checks.py``), and prints one JSON object
as the last line of stdout.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics and the tracing overhead.  Times
are reported at the host's nominal speed, rescaled by the speed sampled
while they ran (``hostspeed.py``).
A human-readable summary goes to stderr; the run file and, when traced, the
spans are kept in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from workloads import WORKLOADS, configs  # noqa: E402

# Budget of one run, under the 180 s a run may take.
DEADLINE_S = 170.0
# Fresh interpreters timed per run for setup_s, counting the worker itself.
SETUP_SAMPLES = 4
# Accuracy figures traced as per-layer metrics, by the layer that makes them.
ACCURACY_LAYERS = {"rate_rel_err": "asympt", "alpha_rel_err": "asympt",
                   "beta_rel_err": "asympt", "gamma_rel_err": "asympt",
                   "b3_rel_err": "bubble"}


def _worker_cmd(args, rundir: Path, setup_only: bool) -> list:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--rundir", str(rundir)]
    return cmd + ["--setup-only"] if setup_only else cmd


def _setup_probe(args, rundir: Path, timeout: float) -> float:
    """Seconds from spawning a fresh interpreter to its first operation, at
    the nominal host speed."""
    t0 = time.monotonic()
    proc = subprocess.run(_worker_cmd(args, rundir, True), cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, check=True, text=True)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return hostspeed.normalise(probe["ready"] - t0, probe["speed"])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not (ROOT / "src" / "ballblowup" / "__init__.py").is_file():
        print(f"no ballblowup sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    rundir = OUT / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        for name, cfg in configs(args.workload).items():
            (rundir / f"config-{name}.json").write_text(json.dumps(cfg))

        setup = [_setup_probe(args, rundir, DEADLINE_S / 4)
                 for _ in range(SETUP_SAMPLES - 1)]
        t0 = time.monotonic()
        remaining = DEADLINE_S - (t0 - start)
        subprocess.run(_worker_cmd(args, rundir, False), cwd=ROOT, timeout=remaining,
                       stdout=sys.stderr, check=True)
        result = json.loads((rundir / "result.json").read_text())
        setup.append(hostspeed.normalise(result["ready"] - t0, result["setup_speed"]))
        if args.trace:
            shutil.copy(rundir / "trace.json", OUT / f"trace-{args.workload}-{args.seed}.json")
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        print(f"benchmark run failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    summary = evaluate(args, result, setup)
    (OUT / f"run-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(summary, indent=1))
    print_summary(summary)
    print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def evaluate(args, result: dict, setup: list) -> dict:
    """Check every round's outputs and assemble the metrics of the run."""
    import checks

    if args.workload == "kernels":
        check_round, negative_control = checks.check_kernels_round, checks.kernels_negative_control
    else:
        check_round, negative_control = checks.check_ladder_round, checks.ladder_negative_control

    rounds = result["rounds"]
    problems, errs_by_round = [], []
    attempted = failed = 0
    failures = {}
    for rnd in rounds:
        ops = rnd["ops"]
        attempted += len(ops)
        for op in ops:
            if not op["ok"]:
                failed += 1
                key = f"{op['op']} {op.get('eps', op.get('config', ''))}: {op.get('error')}"
                failures[key] = failures.get(key, 0) + 1
        p, errs = check_round(ops)
        problems += p
        errs_by_round.append(errs)
        if not negative_control(ops):
            problems.append("negative control: a corrupted output passed the checks")

    # Accuracy repeats round to round; keep the median of each figure.
    accuracy = {k: statistics.median([e[k] for e in errs_by_round if k in e])
                for k in sorted({k for e in errs_by_round for k in e})}
    # Every metric is reported on every workload, so the accuracy of the
    # laws a workload computes is one figure: the largest relative error.
    law_keys = ["b3_rel_err"] if args.workload == "kernels" else \
        ["rate_rel_err", "alpha_rel_err", "beta_rel_err", "gamma_rel_err"]
    if all(k in accuracy for k in law_keys):
        law = max(accuracy[k] for k in law_keys)
    else:
        problems.append("no successful verification: the limits were not computed")
        law = 1.0

    for r in rounds:
        r["round_s"] = hostspeed.normalise(r["wall_s"], r["speed"])
    untraced = [r for r in rounds if not r["traced"]]
    round_s = statistics.median(r["round_s"] for r in untraced)
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        from tracing import LAYER_METRICS
        # Span times are rescaled like the round that holds them.
        layers = [{k: v * r["round_s"] / r["wall_s"] if LAYER_METRICS[k][0] in ("s", "us") else v
                   for k, v in r["layers"].items()} for r in traced]
        values = {k: statistics.median([m[k] for m in layers]) for k in layers[0]}
        values["trace.round_s"] = statistics.median(r["round_s"] for r in traced)
        values["trace.overhead_pct"] = 100.0 * (values["trace.round_s"] / round_s - 1.0)
        values["host.raw_round_s"] = statistics.median(r["wall_s"] for r in untraced)
        values["host.unit_us"] = 1e6 * statistics.median(r["speed"]["unit_s"] for r in rounds)
        for name, layer in ACCURACY_LAYERS.items():
            values[f"{layer}.{name}"] = accuracy.get(name, 0.0)
        metrics = {k: {"value": values[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS}
    else:
        metrics = {
            "round_s": {"value": round_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "law_rel_err": {"value": law, "unit": "1"},
        }
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": metrics, "accuracy": accuracy, "problems": problems[:20],
        "failures": failures, "rounds": len(rounds), "round_wall_s": [r["wall_s"] for r in rounds],
        "round_s": [r["round_s"] for r in rounds],
        "round_cpu_s": [r["cpu_s"] for r in rounds],
        "setup_samples_s": setup,
    }


def print_summary(s: dict) -> None:
    err = sys.stderr
    print(f"workload {s['workload']} seed {s['seed']} trace {s['trace']}: "
          f"{s['rounds']} rounds, {s['attempted']} operations, {s['failed']} failed, "
          f"correct={s['correct']}", file=err)
    for key, n in s["failures"].items():
        print(f"  failed x{n}: {key}", file=err)
    for msg in s["problems"]:
        print(f"  CHECK FAILED: {msg}", file=err)
    for name, m in s["metrics"].items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}", file=err)
    for name, v in s["accuracy"].items():
        print(f"  {name:<32} {v:>14.6g} (accuracy)", file=err)


if __name__ == "__main__":
    sys.exit(main())

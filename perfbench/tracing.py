"""Spans and counters around the package's public calls, recorded from
outside the program.

``Tracer.install`` swaps each traced function for a wrapper in every
``ballblowup`` module that bound it, and ``scipy.integrate.solve_ivp`` for
one that reads ``nfev`` and the accepted steps off its result.  Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np
from scipy import integrate

# (module, function, span name).  Span names are the per-layer metric
# prefixes; private solver functions mark the shooting phases.
TRACED = [
    ("cli", "load_config", "cli.load_config"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_greens", "cli.greens"),
    ("cli", "cmd_bubbletest", "cli.bubbletest"),
    ("cli", "cmd_critical", "cli.critical"),
    ("cli", "cmd_qv", "cli.qv"),
    ("solver", "solve_profile", "solver.solve_profile"),
    ("solver", "_find_bracket", "solver.bracket"),
    ("solver", "_finalize", "solver.finalize"),
    ("solver", "greens_rep_residual", "solver.greens_rep_residual"),
    ("asympt", "records_from_sweep", "asympt.records"),
    ("asympt", "fit_bubble", "asympt.fit_bubble"),
    ("asympt", "decompose", "asympt.decompose"),
    ("asympt", "build_report", "asympt.build_report"),
    ("asympt", "beta_gamma_limits", "asympt.beta_gamma_limits"),
    ("asympt", "coercivity_probe", "asympt.coercivity_probe"),
    ("greenfn", "ga_center", "greenfn.ga_center"),
    ("greenfn", "critical_a", "greenfn.critical_a"),
    ("greenfn", "na_scan", "greenfn.na_scan"),
    ("greenfn", "phia_profile", "greenfn.phia_profile"),
    ("greenfn", "phia_hessian", "greenfn.phia_hessian"),
    ("greenfn", "qv_center", "greenfn.qv_center"),
    ("bubble", "lemma_b3_suite", "bubble.lemma_b3_suite"),
    ("bubble", "lemma_b1_check", "bubble.lemma_b1_check"),
    ("numkit", "quad_radial", "numkit.quad_radial"),
    ("numkit", "ode_solve", "numkit.ode_solve"),
    ("numkit", "brent_root", "numkit.brent_root"),
]

# Per-layer metrics: name -> (unit, better).  Inclusive span times are per
# round; counts are per round.
LAYER_METRICS = {
    "solver.solve_profile_s": ("s", "lower"),
    "solver.integrations": ("count", "lower"),
    "solver.integrations.bracket": ("count", "lower"),
    "solver.integrations.root": ("count", "lower"),
    "solver.integrations.finalize": ("count", "lower"),
    "solver.rhs_evals": ("count", "lower"),
    "solver.rhs_us": ("us", "lower"),
    "solver.steps_per_integration": ("steps", "lower"),
    "solver.root_iters": ("count", "lower"),
    "solver.finalize_s": ("s", "lower"),
    "solver.greens_rep_residual_s": ("s", "lower"),
    "asympt.records_s": ("s", "lower"),
    "asympt.fit_bubble_s": ("s", "lower"),
    "asympt.decompose_s": ("s", "lower"),
    "asympt.build_report_s": ("s", "lower"),
    "asympt.coercivity_probe_s": ("s", "lower"),
    "greenfn.ga_center_calls": ("count", "lower"),
    "greenfn.ga_center_distinct": ("count", "lower"),
    "greenfn.critical_a_s": ("s", "lower"),
    "greenfn.na_scan_s": ("s", "lower"),
    "greenfn.phia_profile_calls": ("count", "lower"),
    "greenfn.phia_hessian_s": ("s", "lower"),
    "greenfn.qv_center_s": ("s", "lower"),
    "bubble.lemma_b3_suite_s": ("s", "lower"),
    "bubble.lemma_b1_check_s": ("s", "lower"),
    "numkit.quad_radial_calls": ("count", "lower"),
    "numkit.quad_radial_evals": ("count", "lower"),
    "numkit.ode_solve_calls": ("count", "lower"),
    "numkit.sph_bessel_calls": ("count", "lower"),
    "numkit.brent_root_iters": ("count", "lower"),
    "cli.sweep_s": ("s", "lower"),
    "cli.verify_s": ("s", "lower"),
    "cli.greens_s": ("s", "lower"),
    "cli.bubbletest_s": ("s", "lower"),
    "cli.load_config_s": ("s", "lower"),
    "trace.round_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "host.raw_round_s": ("s", "lower"),
    "host.unit_us": ("us", "lower"),
    "asympt.rate_rel_err": ("1", "lower"),
    "asympt.alpha_rel_err": ("1", "lower"),
    "asympt.beta_rel_err": ("1", "lower"),
    "asympt.gamma_rel_err": ("1", "lower"),
    "bubble.b3_rel_err": ("1", "lower"),
}


def _coefficient_key(a) -> tuple:
    values = tuple(np.ravel(np.asarray(a.values, dtype=float)).tolist())
    absc = None if a.abscissae is None else tuple(np.ravel(a.abscissae).tolist())
    return values, absc


class Tracer:
    """In-memory spans plus per-round counters for one run."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []      # [round, name, parent index, t0, t1]
        self.stack = []      # indices of the open spans
        self.open = Counter()  # names of the open spans
        self._undo = []
        self.new_round(None)

    def new_round(self, index) -> None:
        """Start the counters of round ``index``; spans are tagged with it."""
        self.round = index
        self.acc = defaultdict(float)
        self.ga_keys = set()

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        for mod, attr, name in TRACED:
            orig = getattr(self.modules[mod], attr, None)
            if orig is None:  # gone from the program: its span reads 0
                continue
            self._replace(orig, self._span(name, orig, getattr(self, "_on_" + attr, None)))
        sph = self.modules["numkit"].sph_bessel
        self._replace(sph, self._count("numkit.sph_bessel", sph))
        ivp = integrate.solve_ivp
        wrapper = self._span("scipy.solve_ivp", ivp, self._on_solve_ivp)
        self._undo.append((integrate, "solve_ivp", ivp))
        integrate.solve_ivp = wrapper

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, orig = self._undo.pop()
            setattr(mod, attr, orig)

    def _replace(self, orig, wrapper) -> None:
        for mod in self.modules.values():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _span(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [tracer.round, name, parent, time.perf_counter(), None]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            tracer.open[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer.stack.pop()
                tracer.open[name] -= 1
                tracer.acc[name + "_s"] += span[4] - span[3]
                tracer.acc[name + "_calls"] += 1
            if hook is not None:
                hook(args, kwargs, out, span[4] - span[3])
            return out

        return wrapper

    def _count(self, name, fn):
        acc_key = name + "_calls"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.acc[acc_key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --------------------------------------------------------------- hooks

    def _shooting(self) -> bool:
        return self.open["solver.solve_profile"] > 0

    def _on_solve_ivp(self, args, kwargs, sol, dt) -> None:
        if not self._shooting():
            return
        if self.open["solver.finalize"]:
            phase = "finalize"
        elif self.open["solver.bracket"]:
            phase = "bracket"
        else:
            phase = "root"
        acc = self.acc
        acc["shoot." + phase] += 1
        acc["shoot.n"] += 1
        acc["shoot.nfev"] += sol.nfev
        acc["shoot.steps"] += len(sol.t) - 1
        acc["shoot.s"] += dt

    def _on_brent_root(self, args, kwargs, out, dt) -> None:
        self.acc["brent.iters"] += out.iterations
        if self._shooting():
            self.acc["shoot.root_iters"] += out.iterations

    def _on_quad_radial(self, args, kwargs, out, dt) -> None:
        self.acc["quad.evals"] += out.evaluations

    def _on_ga_center(self, args, kwargs, out, dt) -> None:
        a = args[0] if args else kwargs["a"]
        R = args[1] if len(args) > 1 else kwargs.get("R", 1.0)
        tol = args[2] if len(args) > 2 else kwargs.get("tol", 1e-12)
        self.ga_keys.add((_coefficient_key(a), float(R), float(tol)))

    # ------------------------------------------------------------- metrics

    def round_metrics(self) -> dict:
        """Per-layer values of the round just traced."""
        acc = self.acc
        n = acc["shoot.n"]
        nfev = acc["shoot.nfev"]
        return {
            "solver.solve_profile_s": acc["solver.solve_profile_s"],
            "solver.integrations": n,
            "solver.integrations.bracket": acc["shoot.bracket"],
            "solver.integrations.root": acc["shoot.root"],
            "solver.integrations.finalize": acc["shoot.finalize"],
            "solver.rhs_evals": nfev,
            "solver.rhs_us": 1e6 * acc["shoot.s"] / nfev if nfev else 0.0,
            "solver.steps_per_integration": acc["shoot.steps"] / n if n else 0.0,
            "solver.root_iters": acc["shoot.root_iters"],
            "solver.finalize_s": acc["solver.finalize_s"],
            "solver.greens_rep_residual_s": acc["solver.greens_rep_residual_s"],
            "asympt.records_s": acc["asympt.records_s"],
            "asympt.fit_bubble_s": acc["asympt.fit_bubble_s"],
            "asympt.decompose_s": acc["asympt.decompose_s"],
            "asympt.build_report_s": acc["asympt.build_report_s"],
            "asympt.coercivity_probe_s": acc["asympt.coercivity_probe_s"],
            "greenfn.ga_center_calls": acc["greenfn.ga_center_calls"],
            "greenfn.ga_center_distinct": float(len(self.ga_keys)),
            "greenfn.critical_a_s": acc["greenfn.critical_a_s"],
            "greenfn.na_scan_s": acc["greenfn.na_scan_s"],
            "greenfn.phia_profile_calls": acc["greenfn.phia_profile_calls"],
            "greenfn.phia_hessian_s": acc["greenfn.phia_hessian_s"],
            "greenfn.qv_center_s": acc["greenfn.qv_center_s"],
            "bubble.lemma_b3_suite_s": acc["bubble.lemma_b3_suite_s"],
            "bubble.lemma_b1_check_s": acc["bubble.lemma_b1_check_s"],
            "numkit.quad_radial_calls": acc["numkit.quad_radial_calls"],
            "numkit.quad_radial_evals": acc["quad.evals"],
            "numkit.ode_solve_calls": acc["numkit.ode_solve_calls"],
            "numkit.sph_bessel_calls": acc["numkit.sph_bessel_calls"],
            "numkit.brent_root_iters": acc["brent.iters"],
            "cli.sweep_s": acc["cli.sweep_s"],
            "cli.verify_s": acc["cli.verify_s"],
            "cli.greens_s": acc["cli.greens_s"],
            "cli.bubbletest_s": acc["cli.bubbletest_s"],
            "cli.load_config_s": acc["cli.load_config_s"],
        }

    def write(self, path) -> None:
        """Spans as JSON; ``op`` is the index of the operation's root span,
        shared by every span the operation caused."""
        spans, roots = [], []
        for i, (rnd, name, parent, t0, t1) in enumerate(self.spans):
            roots.append(i if parent < 0 else roots[parent])
            spans.append({"round": rnd, "op": roots[i], "name": name,
                          "parent": parent, "t0": t0, "t1": t1})
        with open(path, "w") as fh:
            json.dump({"spans": spans}, fh)


def load_modules() -> dict:
    """The package modules the tracer patches, by short name."""
    import ballblowup.cli  # noqa: F401  (imports every layer)

    names = ("cli", "solver", "asympt", "greenfn", "bubble", "numkit")
    mods = {n: sys.modules["ballblowup." + n] for n in names}
    mods["ballblowup"] = sys.modules["ballblowup"]
    return mods

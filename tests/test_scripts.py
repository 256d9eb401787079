"""Smoke runs of the scripts in ``scripts/``, each loaded with runpy."""

import json
import runpy
import sys
from pathlib import Path

import pytest

from ballblowup.cli import RunConfig

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name, **kw):
    return runpy.run_path(str(SCRIPTS / name), **kw)


def test_run_canonical_sweep(tmp_path):
    assert load("run_canonical_sweep.py")["run"](tmp_path) == 0
    report = json.loads((tmp_path / "verdict.json").read_text())["report"]
    assert report["all_passed"] is True
    assert report["beta"]["passed"] and report["gamma"]["passed"]


def test_plot_profiles(capsys):
    assert load("plot_profiles.py")["run"]() == 0
    firsts = [l.split()[0] for l in capsys.readouterr().out.splitlines() if l.strip()]
    eps = [float(t) for t in firsts if t.replace(".", "", 1).isdigit()]
    # one line per rung in each of the two tables
    assert eps == RunConfig().eps_ladder * 2


def test_run_bubble_suite(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["run_bubble_suite.py"])
    with pytest.raises(SystemExit) as ei:
        load("run_bubble_suite.py", run_name="__main__")
    assert ei.value.code == 0
    assert "U5_H" in capsys.readouterr().out

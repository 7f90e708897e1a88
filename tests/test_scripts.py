"""The experiment scripts under ``scripts/`` run end to end on a tiny
configuration, so a change to the package that breaks one fails here."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from privfed.data import DEFAULT_BETA
from privfed.report import TIMING_COLUMNS

ROOT = Path(__file__).resolve().parents[1]


def test_comparison_writes_all_four_methods(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "run_comparison.py"),
            "--learners", "lr",
            "--set", "rounds=1",
            "--set", "central_epochs=2",
            "--out", str(tmp_path),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["method"], row["learner"]) for row in rows] == [
        ("cml", "lr"),
        ("fedavg", "lr"),
        ("fedavg_dp", "lr"),
        ("fedavg_he", "lr"),
    ]
    with open(tmp_path / "timings.csv", newline="") as fh:
        timings = list(csv.reader(fh))
    assert timings[0] == TIMING_COLUMNS
    assert [tuple(row[:2]) for row in timings[1:]] == [
        ("cml", "lr"),
        ("fedavg", "lr"),
        ("fedavg_dp", "lr"),
        ("fedavg_he", "lr"),
    ]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibration_intercept_is_pinned():
    # the script's whole-batch feature draws and bisection, pinned to the
    # value they gave before the generator drew its rows block by block
    calibrate = _load_script("calibrate_cohort")
    got = calibrate.solve_intercept(np.asarray(DEFAULT_BETA), np.random.default_rng(7))
    assert got == -3.258037456839645

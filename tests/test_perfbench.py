"""The benchmark harness under ``perfbench/`` drives privfed through its
public names and wraps its layer functions by name.  These run the harness's
two output-checking modes on tiny configs, so a change that breaks the
harness fails here, not when the benchmark runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TINY = ["model=nn", "data.scale_factor=0.02", "rounds=2"]


def child(*args) -> dict:
    """Run ``perfbench/child.py`` as the harness does and return its JSON line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_he_check_matches_plaintext_replay():
    out = child("check", "--overrides", json.dumps([*TINY, "privacy.mode=he"]))
    assert out["problems"] == []


def test_traced_dp_run_resolves_every_target(tmp_path):
    spans = tmp_path / "spans.jsonl"
    out = child("run", "--overrides", json.dumps([*TINY, "privacy.mode=dp"]), "--spans", str(spans))
    assert out["problems"] == []
    assert out["layers"]["dp.svt_filter"]["calls"] > 0
    assert spans.stat().st_size > 0

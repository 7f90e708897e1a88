"""privfed benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/privfed`` must exist).  Every
measurement runs in a fresh interpreter (child.py), one at a time; this
process starts no threads or connections of its own.  All runs are batch
runs: one caller, closed loop, no arrival rate.

--trace 0: timed untraced runs of the workload, each followed by zero-round
    runs that add set-up samples, repeated until S seconds are used (at least
    MIN_RUNS), then the end-to-end metrics.
--trace 1: one untraced and one traced run of the workload plus isolated
    kernel timings, then the per-layer metrics.

Both modes first check an HE run of the he_nn_desk config at the same seed:
each decrypted aggregate and the final model against plaintext aggregation of
the same client updates, at acceptance criterion 1's tolerances.  The last
stdout line is the result object; the line before it holds the details
(environment record, sample counts, checks).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

DESK = ["model=nn", "data.scale_factor=0.02", "learning_rate=0.1"]
WORKLOADS = {
    # CKKS encode/encrypt/aggregate/decrypt and 262 KB frames, small training
    "he_nn_desk": ["privacy.mode=he", *DESK, "rounds=18"],
    # many short rounds of tiny SGD steps, the SVT filter, 528-byte frames
    "dp_nn_desk": ["privacy.mode=dp", *DESK, "rounds=30"],
    # BLAS-bound SGD on 20k/100k-row batches, AUC on ~33k rows, full-size data generation
    "plain_nn_full": ["model=nn", "data.scale_factor=1.0", "rounds=1"],
}
MIN_RUNS = 3
# Set-up is short and its per-run spread wide, so each timed run is followed by
# zero-round runs (fresh interpreters too) that add samples to setup_s.
SETUP_PER_RUN = 2
TIME_LIMIT_S = 170.0  # the whole invocation, every child included

NOTES = (
    "cpu_s is process CPU over run_simulation, all threads included (OpenBLAS helper "
    "threads too). Per-layer cpu_s is self thread CPU of the calling thread and excludes "
    "OpenBLAS helpers; time the caller waits for them or for the GIL shows in wait_s."
)


class ChildError(RuntimeError):
    pass


def child(deadline: float, *args: str) -> dict:
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise ChildError(f"no time left for child {args[0]}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def environment(seed: int, runtime: dict) -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "privfed").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        **runtime,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "notes": NOTES,
    }


def timed_runs(overrides: list[str], seconds: float, deadline: float):
    """Untraced runs until ``seconds`` are used (at least MIN_RUNS unless the
    deadline comes first).  Each is followed by SETUP_PER_RUN zero-round runs,
    which only set up.  Returns (runs, set-up runs, crash messages)."""
    runs, setups, crashes, durations = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for out, extra in [(runs, [])] + [(setups, ["rounds=0"])] * SETUP_PER_RUN:
            try:
                out.append(child(deadline, "run", "--overrides", json.dumps(overrides + extra)))
            except (ChildError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
                crashes.append(str(err))
        durations.append(time.perf_counter() - t0)
        now = time.perf_counter()
        expected = statistics.median(durations)
        if now + expected > deadline or (
            len(durations) >= MIN_RUNS and now - start + expected > seconds
        ):
            return runs, setups, crashes


def consistency_problems(runs: list[dict]) -> list[list[str]]:
    """Per run: its own output-check problems plus any disagreement with the
    first run on the non-timing report or the frame bytes."""
    first = runs[0]
    out = []
    for run in runs:
        problems = list(run["problems"])
        if run["fingerprint"] != first["fingerprint"]:
            problems.append("nontiming_view differs from the first run of this seed")
        if run["bytes_by_type"] != first["bytes_by_type"]:
            problems.append("frame bytes differ from the first run of this seed")
        out.append(problems)
    return out


def end_to_end(runs: list[dict], setups: list[dict]) -> dict:
    """Medians over runs, and for setup_s over the set-up runs too; a round
    percentile is taken within each run first, so a burst of contention that
    slows one run does not move the result."""
    rounds = runs[0]["rounds"]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in runs + setups), "s"),
        "run_s": (statistics.median(r["run_s"] for r in runs), "s"),
        "round_s.p50": (statistics.median(quantile(r["round_gaps_s"], 0.5) for r in runs), "s"),
        "round_s.p90": (statistics.median(quantile(r["round_gaps_s"], 0.9) for r in runs), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in runs), "s"),
        "uplink_bytes_per_round": (runs[0]["uplink_bytes"] / rounds, "B"),
        "downlink_bytes_per_round": (runs[0]["downlink_bytes"] / rounds, "B"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }


def per_layer(traced: dict, untraced: dict, kernels: dict) -> dict:
    layers = traced["layers"]
    out = {}
    for name, stats in layers.items():
        out[f"{name}.calls"] = (stats["calls"], "count")
        out[f"{name}.cpu_s"] = (stats["cpu_s"], "s")
        out[f"{name}.wait_s"] = (stats["wait_s"], "s")
    loss = layers["learners.loss_and_grad"]
    svt = layers["dp.svt_filter"]
    out["learners.rows_per_cpu_s"] = (loss.get("rows", 0) / loss["cpu_s"] if loss["cpu_s"] else 0.0, "rows/s")
    out["dp.released_frac"] = (svt.get("released", 0) / svt["inputs"] if svt["calls"] else 0.0, "frac")
    out["transport.frames"] = (traced["frames"], "count")
    for kind in ("join", "update", "round_done", "join_ack", "broadcast", "shutdown"):
        out[f"transport.{kind}_bytes"] = (traced["bytes_by_type"][kind], "B")
    out["federation.barrier_wait_s.p50"] = (quantile(traced["barrier_wait_s"], 0.5), "s")
    out["federation.straggler_s.p50"] = (quantile(traced["straggler_s"], 0.5), "s")
    out["trace.overhead_s"] = (traced["run_s"] - untraced["run_s"], "s")
    out["auc_mean"] = (traced["auc_mean"], "auc")
    out.update({name: (value, "ms") for name, value in kernels.items()})
    return out


def bypass_problems(workload: str, layers: dict) -> list[str]:
    """The zero-call facts: HE layers only on he_nn_desk, the DP filter only on dp_nn_desk."""
    he_calls = sum(s["calls"] for n, s in layers.items() if n.startswith("he."))
    dp_calls = layers["dp.svt_filter"]["calls"]
    problems = []
    if (he_calls > 0) != (workload == "he_nn_desk"):
        problems.append(f"{he_calls} he.* calls on {workload}")
    if (dp_calls > 0) != (workload == "dp_nn_desk"):
        problems.append(f"{dp_calls} dp.* calls on {workload}")
    return problems


def declared_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="privfed benchmark harness")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S

    if not (ROOT / "src" / "privfed").is_dir():
        print(f"no privfed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    overrides = WORKLOADS[args.workload] + [f"seed={args.seed}"]
    check_overrides = WORKLOADS["he_nn_desk"] + [f"seed={args.seed}"]

    try:
        check = child(deadline, "check", "--overrides", json.dumps(check_overrides))
        problems = [f"he aggregation: {p}" for p in check["problems"]]
        detail = {"workload": args.workload, "seed": args.seed, "he_check": check}
        if args.trace:
            untraced = child(deadline, "run", "--overrides", json.dumps(overrides))
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            traced = child(deadline, "run", "--overrides", json.dumps(overrides), "--spans", str(spans))
            kernels = child(deadline, "kernels", "--seed", str(args.seed))
            runs, setups, crashes = [untraced, traced], [], []
            problems += bypass_problems(args.workload, traced["layers"])
            metrics = per_layer(traced, untraced, kernels)
            detail["spans_file"] = str(spans.relative_to(ROOT))
        else:
            runs, setups, crashes = timed_runs(overrides, args.seconds, deadline)
            if not runs:
                raise ChildError("; ".join(crashes))
            metrics = end_to_end(runs, setups)
    except (ChildError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    per_run = consistency_problems(runs) + (consistency_problems(setups) if setups else [])
    attempted = len(runs) + len(setups) + len(crashes)
    failed = len(crashes) + sum(1 for p in per_run if p)
    if not args.trace:
        metrics["ok_frac"] = ((attempted - failed) / attempted, "frac")
        gaps = sum(len(r["round_gaps_s"]) for r in runs)
        detail.update(
            runs=len(runs),
            setup_runs=len(setups),
            round_samples=gaps,
            run_s_each=[r["run_s"] for r in runs],
            setup_s_each=[r["setup_s"] for r in runs + setups],
            failed_frac=failed / attempted,
            auc_mean=runs[0]["auc_mean"],
            extrapolated_250_rounds_h=(metrics["setup_s"][0] + 250 * metrics["round_s.p50"][0]) / 3600,
        )
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        print(f"metrics differ from BENCHMARK.json: {sorted(set(emitted) ^ set(declared))}", file=sys.stderr)
        return 1
    problems += crashes + [p for run_problems in per_run for p in run_problems]
    detail["problems"] = problems
    detail["env"] = environment(args.seed, check["env"])
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

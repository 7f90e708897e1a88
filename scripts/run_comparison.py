#!/usr/bin/env python3
"""Desk-scale four-way comparison: cML vs FedAvg vs FedAvg_DP vs FedAvg_HE.

Runs all four methods for each learner on one generated cohort and merges
the results into a single summary.csv (mean +- std of AUC, sensitivity, and
specificity across the four site validation sets / CV folds) plus a
timings.csv with the wall-time decomposition of each run.

Every run starts from a desk preset (``DESK``): scale_factor 0.02, 50
rounds, learning rate 0.1, ten times the reference rate, so the small sites
converge in few rounds, seed 2024, and 600 cML epochs.  Each ``--set K=V``
is a config override applied after the preset, to every arm.  The reference
configuration is

    python scripts/run_comparison.py --set rounds=250 --set data.scale_factor=1.0 \\
        --set learning_rate=0.01 --set central_epochs=400

A full-scale plain NN round takes about 1.1 s on a host that gives one
core of throughput (the benchmark's plain_nn_full workload, round_s.p50
1.09-1.17 s), so a 250-round federated arm takes about 5 minutes, and the
script runs six federated arms and two cML arms.
"""

import argparse
import os

from privfed.config import load_config
from privfed.federation import run_central, run_simulation
from privfed.report import emit_report, write_summary_csv, write_timings_csv

DESK = ["rounds=50", "data.scale_factor=0.02", "learning_rate=0.1", "seed=2024", "central_epochs=600"]
METHODS = {"cml": [], "fedavg": [], "fedavg_dp": ["privacy.mode=dp"], "fedavg_he": ["privacy.mode=he"]}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", default="comparison")
    parser.add_argument("--learners", nargs="+", default=["lr", "nn"])
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="K=V",
        help="config override applied after the desk preset, e.g. --set rounds=250",
    )
    args = parser.parse_args()

    rows = []
    reports = []
    for learner in args.learners:
        for method, mode in METHODS.items():
            cfg = load_config(None, [f"model={learner}", *DESK, *args.overrides, *mode])
            report = (run_central if method == "cml" else run_simulation)(cfg)
            if report.aborted:
                raise SystemExit(f"{method}/{learner} aborted: {report.abort_reason}")
            out_dir = os.path.join(args.out, f"{method}_{learner}")
            emit_report(report, out_dir)
            rows.append(report.summary_row())
            reports.append(report)
            totals = report.totals()
            print(
                f"{method}/{learner}: auc={rows[-1]['auc_mean']:.4f}+-{rows[-1]['auc_std']:.4f} "
                f"wall={totals['total_wall_seconds']:.1f}s payload={totals['payload_bytes']}B"
            )

    rows.sort(key=lambda r: (r["learner"], r["method"]))
    write_summary_csv(rows, os.path.join(args.out, "summary.csv"))
    write_timings_csv(reports, os.path.join(args.out, "timings.csv"))
    print(f"merged summary: {os.path.join(args.out, 'summary.csv')}")


if __name__ == "__main__":
    main()

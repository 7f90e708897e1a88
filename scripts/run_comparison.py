#!/usr/bin/env python3
"""Desk-scale four-way comparison: cML vs FedAvg vs FedAvg_DP vs FedAvg_HE.

Runs all four methods for both learners on one generated cohort and merges
the results into a single summary.csv (mean +- std of AUC, sensitivity, and
specificity across the four site validation sets / CV folds) plus a
timings.csv with the wall-time decomposition of each run.

At the default desk preset (scale_factor 0.02, 50 rounds) this takes a few
minutes.  Use --rounds/--scale-factor to trade fidelity for time; the full
configuration (250 rounds, scale_factor 1.0) reproduces the reference
hyperparameters.  The benchmark's plain_nn_full workload times one
full-scale plain NN round; extrapolated to 250 rounds, that one run takes
about 0.5 h on 2 cores, and the script runs each of the four methods for
each learner.
"""

import argparse
import csv
import os

from privfed.config import load_config
from privfed.federation import run_central, run_simulation
from privfed.report import TIMING_COLUMNS, emit_report, write_summary_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="comparison")
    parser.add_argument("--rounds", type=int, default=50)
    parser.add_argument("--scale-factor", type=float, default=0.02)
    parser.add_argument("--learning-rate", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--learners", nargs="+", default=["lr", "nn"])
    args = parser.parse_args()

    rows = []
    timing_rows = []
    for learner in args.learners:
        base = [
            f"model={learner}",
            f"rounds={args.rounds}",
            f"data.scale_factor={args.scale_factor}",
            f"learning_rate={args.learning_rate}",
            f"seed={args.seed}",
            f"central_epochs={max(200, 12 * args.rounds)}",
        ]
        runs = {
            "cml": lambda cfg: run_central(cfg),
            "fedavg": lambda cfg: run_simulation(cfg),
            "fedavg_dp": lambda cfg: run_simulation(cfg),
            "fedavg_he": lambda cfg: run_simulation(cfg),
        }
        mode_overrides = {
            "cml": [],
            "fedavg": [],
            "fedavg_dp": ["privacy.mode=dp"],
            "fedavg_he": ["privacy.mode=he"],
        }
        for method, runner in runs.items():
            cfg = load_config(None, base + mode_overrides[method])
            report = runner(cfg)
            if report.aborted:
                raise SystemExit(f"{method}/{learner} aborted: {report.abort_reason}")
            out_dir = os.path.join(args.out, f"{method}_{learner}")
            emit_report(report, out_dir)
            rows.append(report.summary_row())
            totals = report.totals()
            timing_rows.append([method, learner] + [totals[k] for k in TIMING_COLUMNS[2:]])
            print(
                f"{method}/{learner}: auc={rows[-1]['auc_mean']:.4f}+-{rows[-1]['auc_std']:.4f} "
                f"wall={totals['total_wall_seconds']:.1f}s payload={totals['payload_bytes']}B"
            )

    rows.sort(key=lambda r: (r["learner"], r["method"]))
    write_summary_csv(rows, os.path.join(args.out, "summary.csv"))
    with open(os.path.join(args.out, "timings.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMING_COLUMNS)
        writer.writerows(timing_rows)
    print(f"merged summary: {os.path.join(args.out, 'summary.csv')}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Desk-scale four-way comparison: cML vs FedAvg vs FedAvg_DP vs FedAvg_HE.

Runs all four methods for both learners on one generated cohort and merges
the results into a single summary.csv (mean +- std of AUC, sensitivity, and
specificity across the four site validation sets / CV folds) plus a
timings.csv with the wall-time decomposition of each run.

The defaults are a desk preset: scale_factor 0.02, 50 rounds and learning
rate 0.1, ten times the reference rate, so the small sites converge in few
rounds.  ``--rounds 250 --scale-factor 1.0 --learning-rate 0.01`` gives the
federated arms the reference hyperparameters.  The cML arm still differs:
it trains for max(200, 12 x rounds) epochs (3,000 at 250 rounds), not the
reference's 400.  A full-scale plain NN round takes about 2 s on 2 cores
(the benchmark's plain_nn_full workload), so a 250-round federated arm
takes about 9 minutes; the script runs eight arms, and each cML arm trains
3,000 epochs on each of 10 folds.
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
        mode_overrides = {
            "cml": [],
            "fedavg": [],
            "fedavg_dp": ["privacy.mode=dp"],
            "fedavg_he": ["privacy.mode=he"],
        }
        for method, overrides in mode_overrides.items():
            cfg = load_config(None, base + overrides)
            report = (run_central if method == "cml" else run_simulation)(cfg)
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

"""Run reports: per-round records, cross-site tables, and file emission.

A federated run produces one ``RunReport``; ``emit_report`` writes it as
report.json plus three CSV views (per-round rows, a Table-2-shaped summary,
and a timing decomposition).  report.json roundtrips losslessly through
``load_report``, and every CSV cell re-parses to the value in the JSON.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .metrics import MetricSet, summarize_metric_sets

SUMMARY_COLUMNS = [
    "method",
    "learner",
    "auc_mean",
    "auc_std",
    "sens_mean",
    "sens_std",
    "spec_mean",
    "spec_std",
]

TIMING_COLUMNS = [
    "method",
    "learner",
    "total_wall_seconds",
    "train_seconds",
    "privacy_seconds",
    "aggregation_seconds",
    "payload_bytes",
]


@dataclass
class ClientRoundRecord:
    client_id: str
    steps: int
    weight: float
    pre_metrics: MetricSet  # global model, evaluated before local training
    post_metrics: MetricSet  # local model, evaluated after local training
    train_seconds: float
    privacy_seconds: float
    payload_bytes: int
    arrival_offset_seconds: float


@dataclass
class RoundRecord:
    round_index: int
    clients: list[ClientRoundRecord]
    aggregation_seconds: float


@dataclass
class SiteValidation:
    site: str
    metrics: MetricSet


@dataclass
class CrossSiteTable:
    rows: list[SiteValidation]
    summary: dict[str, float]

    @classmethod
    def from_rows(cls, rows: list[SiteValidation]) -> "CrossSiteTable":
        return cls(rows, summarize_metric_sets(r.metrics for r in rows))


@dataclass
class RunReport:
    kind: str  # "federated" | "central"
    method: str  # cml | fedavg | fedavg_dp | fedavg_he
    learner: str  # lr | nn
    config: dict
    rounds: list[RoundRecord] = field(default_factory=list)
    cross_site: CrossSiteTable | None = None
    fold_metrics: list[MetricSet] = field(default_factory=list)  # central runs
    fold_params: list[np.ndarray] = field(default_factory=list)  # central runs: each fold's final θ
    final_params: np.ndarray | None = None  # the final global θ
    total_wall_seconds: float = 0.0
    aborted: bool = False
    abort_reason: str | None = None
    event_log: list[list] = field(default_factory=list)  # [t, kind, who]

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if self.final_params is not None:
            out["final_params"] = self.final_params.tolist()
        if self.kind == "central":
            out["fold_params"] = [theta.tolist() for theta in self.fold_params]
        else:
            del out["fold_params"]  # a federated report has one final θ, no folds
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        data = copy.deepcopy(data)
        data["rounds"] = [
            RoundRecord(
                r["round_index"],
                [
                    ClientRoundRecord(
                        c["client_id"],
                        c["steps"],
                        c["weight"],
                        MetricSet(**c["pre_metrics"]),
                        MetricSet(**c["post_metrics"]),
                        c["train_seconds"],
                        c["privacy_seconds"],
                        c["payload_bytes"],
                        c["arrival_offset_seconds"],
                    )
                    for c in r["clients"]
                ],
                r["aggregation_seconds"],
            )
            for r in data["rounds"]
        ]
        if data.get("cross_site") is not None:
            data["cross_site"] = CrossSiteTable(
                [SiteValidation(r["site"], MetricSet(**r["metrics"])) for r in data["cross_site"]["rows"]],
                data["cross_site"]["summary"],
            )
        data["fold_metrics"] = [MetricSet(**m) for m in data.get("fold_metrics", [])]
        data["fold_params"] = [np.array(theta, dtype=np.float64) for theta in data.get("fold_params", [])]
        if data.get("final_params") is not None:
            data["final_params"] = np.array(data["final_params"], dtype=np.float64)
        return cls(**data)

    # -- aggregate views ------------------------------------------------------

    def site_metric_sets(self) -> list[MetricSet]:
        if self.kind == "central":
            return list(self.fold_metrics)
        if self.cross_site is None:
            return []
        return [r.metrics for r in self.cross_site.rows]

    def totals(self) -> dict:
        train = sum(c.train_seconds for r in self.rounds for c in r.clients)
        privacy = sum(c.privacy_seconds for r in self.rounds for c in r.clients)
        agg = sum(r.aggregation_seconds for r in self.rounds)
        payload = sum(c.payload_bytes for r in self.rounds for c in r.clients)
        return {
            "total_wall_seconds": self.total_wall_seconds,
            "train_seconds": train,
            "privacy_seconds": privacy,
            "aggregation_seconds": agg,
            "payload_bytes": payload,
        }

    def summary_row(self) -> dict:
        row = {"method": self.method, "learner": self.learner}
        for key, value in summarize_metric_sets(self.site_metric_sets()).items():
            name, stat = key.rsplit("_", 1)
            row[f"{name[:4]}_{stat}"] = value  # columns auc_, sens_, spec_
        return row


_TIMING_FIELDS = {
    "train_seconds",
    "privacy_seconds",
    "arrival_offset_seconds",
    "aggregation_seconds",
    "total_wall_seconds",
    "event_log",
}


def nontiming_view(report_dict: dict) -> dict:
    """Strip wall-clock fields so reports can be compared across transports."""

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k not in _TIMING_FIELDS}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    return strip(report_dict)


def emit_report(run: RunReport, out_dir) -> dict[str, str]:
    """Write report.json, rounds.csv, summary.csv, timings.csv into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    paths["report"] = os.path.join(out_dir, "report.json")
    with open(paths["report"], "w") as fh:
        json.dump(run.to_dict(), fh, indent=1)

    paths["rounds"] = os.path.join(out_dir, "rounds.csv")
    with open(paths["rounds"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "round",
                "client_id",
                "steps",
                "weight",
                "pre_auc",
                "pre_sensitivity",
                "pre_specificity",
                "post_auc",
                "post_sensitivity",
                "post_specificity",
                "train_seconds",
                "privacy_seconds",
                "payload_bytes",
                "arrival_offset_seconds",
                "aggregation_seconds",
            ]
        )
        for rec in run.rounds:
            for c in rec.clients:
                writer.writerow(
                    [
                        rec.round_index,
                        c.client_id,
                        c.steps,
                        repr(c.weight),
                        repr(c.pre_metrics.auc),
                        repr(c.pre_metrics.sensitivity),
                        repr(c.pre_metrics.specificity),
                        repr(c.post_metrics.auc),
                        repr(c.post_metrics.sensitivity),
                        repr(c.post_metrics.specificity),
                        repr(c.train_seconds),
                        repr(c.privacy_seconds),
                        c.payload_bytes,
                        repr(c.arrival_offset_seconds),
                        repr(rec.aggregation_seconds),
                    ]
                )

    paths["summary"] = os.path.join(out_dir, "summary.csv")
    rows = [run.summary_row()] if run.site_metric_sets() else []
    write_summary_csv(rows, paths["summary"])

    paths["timings"] = os.path.join(out_dir, "timings.csv")
    write_timings_csv([run], paths["timings"])
    return paths


def write_summary_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow(
                [row["method"], row["learner"]]
                + [repr(float(row[k])) for k in SUMMARY_COLUMNS[2:]]
            )


def write_timings_csv(reports: list[RunReport], path) -> None:
    """One row of ``totals()`` per report, in the order given."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMING_COLUMNS)
        for run in reports:
            totals = run.totals()
            writer.writerow(
                [run.method, run.learner]
                + [repr(totals[k]) if isinstance(totals[k], float) else totals[k] for k in TIMING_COLUMNS[2:]]
            )


def load_report(path) -> RunReport:
    with open(path) as fh:
        return RunReport.from_dict(json.load(fh))

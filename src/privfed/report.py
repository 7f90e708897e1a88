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

# the metadata that marks a field as wall-clock, which ``nontiming_view`` strips
_WALL_CLOCK = {"wall_clock": True}


@dataclass
class ClientRoundRecord:
    client_id: str
    steps: int
    weight: float
    pre_metrics: MetricSet  # global model, evaluated before local training
    post_metrics: MetricSet  # local model, evaluated after local training
    train_seconds: float = field(metadata=_WALL_CLOCK)
    privacy_seconds: float = field(metadata=_WALL_CLOCK)
    payload_bytes: int
    arrival_offset_seconds: float = field(metadata=_WALL_CLOCK)


@dataclass
class RoundRecord:
    round_index: int
    clients: list[ClientRoundRecord]
    aggregation_seconds: float = field(metadata=_WALL_CLOCK)


# rounds.csv has one row per client per round: each column's name, and its
# value in a round record r and one of its client records c
ROUNDS_COLUMNS = [
    ("round", lambda r, c: r.round_index),
    ("client_id", lambda r, c: c.client_id),
    ("steps", lambda r, c: c.steps),
    ("weight", lambda r, c: c.weight),
    ("pre_auc", lambda r, c: c.pre_metrics.auc),
    ("pre_sensitivity", lambda r, c: c.pre_metrics.sensitivity),
    ("pre_specificity", lambda r, c: c.pre_metrics.specificity),
    ("post_auc", lambda r, c: c.post_metrics.auc),
    ("post_sensitivity", lambda r, c: c.post_metrics.sensitivity),
    ("post_specificity", lambda r, c: c.post_metrics.specificity),
    ("train_seconds", lambda r, c: c.train_seconds),
    ("privacy_seconds", lambda r, c: c.privacy_seconds),
    ("payload_bytes", lambda r, c: c.payload_bytes),
    ("arrival_offset_seconds", lambda r, c: c.arrival_offset_seconds),
    ("aggregation_seconds", lambda r, c: r.aggregation_seconds),
]


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
    total_wall_seconds: float = field(default=0.0, metadata=_WALL_CLOCK)
    aborted: bool = False
    abort_reason: str | None = None
    event_log: list[list] = field(default_factory=list, metadata=_WALL_CLOCK)  # [t, kind, who]

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
        """The report whose ``to_dict`` is ``data``.  Each record is built
        from its own dict by keyword, with only its metric sets, arrays and
        nested records converted."""
        data = copy.deepcopy(data)
        for r in data["rounds"]:
            clients = [_metrics(c, "pre_metrics", "post_metrics") for c in r["clients"]]
            r["clients"] = [ClientRoundRecord(**c) for c in clients]
        data["rounds"] = [RoundRecord(**r) for r in data["rounds"]]
        table = data.get("cross_site")
        if table is not None:
            table["rows"] = [SiteValidation(**_metrics(r, "metrics")) for r in table["rows"]]
            data["cross_site"] = CrossSiteTable(**table)
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
        """``TIMING_COLUMNS``' figures: the run's wall time, the aggregation
        time summed over rounds, and each client field over every client."""
        clients = [c for r in self.rounds for c in r.clients]
        whole = {
            "total_wall_seconds": self.total_wall_seconds,
            "aggregation_seconds": sum(r.aggregation_seconds for r in self.rounds),
        }
        return {
            key: whole[key] if key in whole else sum(getattr(c, key) for c in clients)
            for key in TIMING_COLUMNS[2:]
        }

    def summary_row(self) -> dict:
        row = {"method": self.method, "learner": self.learner}
        for key, value in summarize_metric_sets(self.site_metric_sets()).items():
            name, stat = key.rsplit("_", 1)
            row[f"{name[:4]}_{stat}"] = value  # columns auc_, sens_, spec_
        return row


def _metrics(record: dict, *keys) -> dict:
    """``record`` with its ``keys`` rebuilt as metric sets."""
    return {**record, **{key: MetricSet(**record[key]) for key in keys}}


_TIMING_FIELDS = {
    f.name
    for cls in (ClientRoundRecord, RoundRecord, RunReport)
    for f in dataclasses.fields(cls)
    if f.metadata.get("wall_clock")
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
    paths = {
        name: os.path.join(out_dir, name + ext)
        for name, ext in [("report", ".json"), ("rounds", ".csv"), ("summary", ".csv"), ("timings", ".csv")]
    }
    with open(paths["report"], "w") as fh:
        json.dump(run.to_dict(), fh, indent=1)
    columns = [name for name, _ in ROUNDS_COLUMNS]
    rows = ({name: value(r, c) for name, value in ROUNDS_COLUMNS} for r in run.rounds for c in r.clients)
    _write_csv(paths["rounds"], columns, rows)
    write_summary_csv([run.summary_row()] if run.site_metric_sets() else [], paths["summary"])
    write_timings_csv([run], paths["timings"])
    return paths


def _write_csv(path, columns: list[str], rows) -> None:
    """A CSV of header ``columns`` and one line per dict of ``rows``, in
    column order: a float cell as ``repr(float(v))``, so it re-parses to the
    same float (a numpy float's own repr names its type), any other as is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(float(row[k])) if isinstance(row[k], float) else row[k] for k in columns])


def write_summary_csv(rows: list[dict], path) -> None:
    _write_csv(path, SUMMARY_COLUMNS, rows)


def write_timings_csv(reports: list[RunReport], path) -> None:
    """One row of ``totals()`` per report, in the order given."""
    rows = ({"method": run.method, "learner": run.learner, **run.totals()} for run in reports)
    _write_csv(path, TIMING_COLUMNS, rows)


def load_report(path) -> RunReport:
    with open(path) as fh:
        return RunReport.from_dict(json.load(fh))

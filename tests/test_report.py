import csv
import json

import numpy as np
import pytest

from privfed.config import load_config
from privfed.federation import run_central, run_simulation
from privfed.metrics import MetricSet
from privfed.report import (
    SUMMARY_COLUMNS,
    RunReport,
    emit_report,
    load_report,
    nontiming_view,
    write_summary_csv,
)


@pytest.fixture(scope="module")
def small_run():
    cfg = load_config(
        None,
        [
            "data.scale_factor=0.02",
            "rounds=2",
            "local_epochs=1",
            "model=lr",
            "seed=3",
        ],
    )
    return run_simulation(cfg), cfg


@pytest.fixture(scope="module")
def small_he_run():
    cfg = load_config(
        None,
        [
            "data.scale_factor=0.02",
            "rounds=2",
            "local_epochs=1",
            "model=lr",
            "seed=3",
            "privacy.mode=he",
            "privacy.he.poly_degree=1024",
            "privacy.he.modulus_bits=[40,30,30]",
            "privacy.he.scale_log2=30",
        ],
    )
    return run_simulation(cfg), cfg


def json_value(rnd: dict, client: dict, column: str):
    """The report.json value that rounds.csv's ``column`` shows for
    ``client`` of round ``rnd``."""
    if column == "round":
        return rnd["round_index"]
    if column == "aggregation_seconds":
        return rnd["aggregation_seconds"]
    when, _, stat = column.partition("_")
    if when in ("pre", "post"):
        return client[f"{when}_metrics"][stat]
    return client[column]


class TestReportJson:
    def test_lossless_roundtrip(self, small_run, tmp_path):
        report, _ = small_run
        paths = emit_report(report, tmp_path)
        back = load_report(paths["report"])
        assert back.to_dict() == report.to_dict()

    def test_central_report_roundtrip(self, tmp_path):
        cfg = load_config(
            None, ["data.scale_factor=0.02", "central_epochs=1", "central_folds=3", "seed=3"]
        )
        report = run_central(cfg)
        back = load_report(emit_report(report, tmp_path)["report"])
        assert back.to_dict() == report.to_dict()
        assert len(back.fold_params) == 3
        for theta, want in zip(back.fold_params, report.fold_params):
            assert theta.dtype == np.float64
            assert theta.tobytes() == want.tobytes()
        assert back.summary_row() == report.summary_row()

    def test_round_count_matches_config(self, small_run):
        report, cfg = small_run
        assert len(report.rounds) == cfg.rounds
        assert not report.aborted

    def test_aborted_report_keeps_marker(self, tmp_path):
        report = RunReport(
            kind="federated",
            method="fedavg",
            learner="lr",
            config={},
            aborted=True,
            abort_reason="RoundTimeoutError: no update from ['x']",
        )
        paths = emit_report(report, tmp_path)
        with open(paths["report"]) as fh:
            data = json.load(fh)
        assert data["aborted"] is True
        assert "RoundTimeoutError" in data["abort_reason"]


class TestCsvViews:
    def test_summary_columns_exact(self, small_run, tmp_path):
        report, _ = small_run
        paths = emit_report(report, tmp_path)
        with open(paths["summary"]) as fh:
            header = fh.readline().strip().split(",")
        assert header == SUMMARY_COLUMNS

    def test_summary_values_reparse_to_report(self, small_run, tmp_path):
        report, _ = small_run
        paths = emit_report(report, tmp_path)
        with open(paths["summary"]) as fh:
            row = list(csv.DictReader(fh))[0]
        want = report.summary_row()
        for col in SUMMARY_COLUMNS[2:]:
            assert float(row[col]) == want[col]

    def test_rounds_csv_reparses_exactly(self, small_run, tmp_path):
        report, _ = small_run
        paths = emit_report(report, tmp_path)
        with open(paths["rounds"]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == sum(len(r.clients) for r in report.rounds)
        first = rows[0]
        rec = report.rounds[0].clients[0]
        assert float(first["pre_auc"]) == rec.pre_metrics.auc
        assert float(first["train_seconds"]) == rec.train_seconds
        assert int(first["payload_bytes"]) == rec.payload_bytes

    @pytest.mark.parametrize("run", ["small_run", "small_he_run"])
    def test_every_rounds_cell_reparses_to_its_json_value(self, run, request, tmp_path):
        report, _ = request.getfixturevalue(run)
        paths = emit_report(report, tmp_path)
        with open(paths["report"]) as fh:
            data = json.load(fh)
        with open(paths["rounds"]) as fh:
            header, *rows = list(csv.reader(fh))
        assert len(header) == 15
        want = [(rnd, client) for rnd in data["rounds"] for client in rnd["clients"]]
        assert len(rows) == len(want) > 0
        for row, (rnd, client) in zip(rows, want):
            for column, cell in zip(header, row, strict=True):
                value = json_value(rnd, client, column)
                assert type(value)(cell) == value, (column, cell, value)
                if isinstance(value, float):
                    assert cell == repr(value), column

    def test_timings_csv_totals(self, small_run, tmp_path):
        report, _ = small_run
        paths = emit_report(report, tmp_path)
        with open(paths["timings"]) as fh:
            row = list(csv.DictReader(fh))[0]
        totals = report.totals()
        assert float(row["train_seconds"]) == totals["train_seconds"]
        assert int(row["payload_bytes"]) == totals["payload_bytes"]

    def test_write_summary_multiple_rows(self, tmp_path):
        rows = [
            {"method": "fedavg", "learner": "lr", "auc_mean": 0.66, "auc_std": 0.01,
             "sens_mean": 0.2, "sens_std": 0.0, "spec_mean": 0.9, "spec_std": 0.0},
            {"method": "cml", "learner": "lr", "auc_mean": 0.67, "auc_std": 0.0,
             "sens_mean": 0.2, "sens_std": 0.0, "spec_mean": 0.9, "spec_std": 0.0},
        ]
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, path)
        with open(path) as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == 2
        assert float(back[0]["auc_mean"]) == 0.66


class TestNontimingView:
    def test_strips_wall_clock_fields(self, small_run):
        report, _ = small_run
        view = nontiming_view(report.to_dict())
        text = json.dumps(view)
        assert "train_seconds" not in text
        assert "arrival_offset_seconds" not in text
        assert "event_log" not in text
        assert "pre_metrics" in text

        def keys(obj):
            if isinstance(obj, dict):
                return set(obj) | {k for v in obj.values() for k in keys(v)}
            if isinstance(obj, list):
                return {k for v in obj for k in keys(v)}
            return set()

        # exactly the fields declared wall-clock, no more
        assert keys(report.to_dict()) - keys(view) == {
            "train_seconds",
            "privacy_seconds",
            "arrival_offset_seconds",
            "aggregation_seconds",
            "total_wall_seconds",
            "event_log",
        }

    def test_identical_runs_identical_views(self, small_run):
        report, cfg = small_run
        again = run_simulation(cfg)
        assert nontiming_view(report.to_dict()) == nontiming_view(again.to_dict())

"""Command-line entry point.

Subcommands:

    generate-data   write per-site CSVs from the synthetic generator
    run-central     pooled k-fold baseline (the cML rows)
    run-sim         full federation with all clients in-process
    server          networked coordinator (pair with `client`)
    client          one networked site
    report          merge several report.json files into one summary.csv

All subcommands read one JSON config (--config) with dotted --set overrides;
the shared join token comes from the config or the PRIVFED_TOKEN variable.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ExperimentConfig, load_config
from .errors import PrivFedError
from .report import RunReport, emit_report, load_report, write_summary_csv


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", default=None, help="JSON experiment config")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="K=V",
        help="dotted config override, e.g. --set privacy.mode=dp",
    )
    parser.add_argument("--out", default=None, help="output directory (overrides config)")


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config, args.overrides)
    if args.out:
        cfg.out_dir = args.out
    return cfg


def cmd_generate_data(args) -> int:
    from .data import write_csv
    from .federation import draw_site

    cfg = _load(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    for site in cfg.data.sites:
        # in generation order, so a run with data.csv_dir set splits each file
        # into exactly the training and validation rows of the generated run
        ds = draw_site(cfg, site)
        path = os.path.join(cfg.out_dir, f"{site.name}.csv")
        write_csv(ds, path)
        print(f"{site.name}: {len(ds)} rows -> {path}")
    return 0


def _finish_run(report: RunReport, cfg: ExperimentConfig) -> int:
    paths = emit_report(report, cfg.out_dir)
    if report.site_metric_sets():
        row = report.summary_row()
        score = f"auc {row['auc_mean']:.4f} +- {row['auc_std']:.4f}"
    else:
        score = "no validation metrics"
    status = f"aborted: {report.abort_reason}" if report.aborted else "complete"
    print(f"{report.method}/{report.learner}: {score} ({status})")
    print(f"report: {paths['report']}")
    return 1 if report.aborted else 0


def cmd_run_central(args) -> int:
    from .federation import run_central

    cfg = _load(args)
    return _finish_run(run_central(cfg), cfg)


def cmd_run_sim(args) -> int:
    from .federation import run_simulation

    cfg = _load(args)
    return _finish_run(run_simulation(cfg), cfg)


def _endpoint(text: str) -> tuple[str, int]:
    """``HOST:PORT`` as (host, port), the host 127.0.0.1 if left out."""
    host, colon, port = text.rpartition(":")
    if not colon or not port.isdigit() or not 1 <= int(port) <= 65535:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT with a port in 1-65535, got {text!r}")
    return host or "127.0.0.1", int(port)


def cmd_server(args) -> int:
    from .federation import run_tcp_server

    cfg = _load(args)
    report = run_tcp_server(cfg, *args.listen)
    return _finish_run(report, cfg)


def cmd_client(args) -> int:
    from .federation import run_tcp_client

    cfg = _load(args)
    run_tcp_client(cfg, args.site, *args.connect)
    print(f"client {args.site}: done")
    return 0


def cmd_report(args) -> int:
    """Merge the reports' summary rows.  A report with no validation
    metrics, an aborted run's, is named on stderr with its abort reason and
    skipped, and the command then exits 1."""
    rows, skipped = [], 0
    for path in args.reports:
        report = load_report(path)
        if not report.site_metric_sets():
            print(f"skipped {path}: no validation metrics, run aborted: {report.abort_reason}", file=sys.stderr)
            skipped += 1
            continue
        rows.append(report.summary_row())
    rows.sort(key=lambda r: (r["learner"], r["method"]))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "summary.csv")
    write_summary_csv(rows, path)
    print(f"{len(rows)} runs -> {path}")
    return 1 if skipped else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="privfed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="write per-site CSVs")
    _add_common(p)
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("run-central", help="pooled k-fold baseline")
    _add_common(p)
    p.set_defaults(func=cmd_run_central)

    p = sub.add_parser("run-sim", help="in-process federation")
    _add_common(p)
    p.set_defaults(func=cmd_run_sim)

    p = sub.add_parser("server", help="networked coordinator")
    _add_common(p)
    p.add_argument("--listen", required=True, type=_endpoint, metavar="HOST:PORT")
    p.set_defaults(func=cmd_server)

    p = sub.add_parser("client", help="one networked site")
    _add_common(p)
    p.add_argument("--connect", required=True, type=_endpoint, metavar="HOST:PORT")
    p.add_argument("--site", required=True)
    p.set_defaults(func=cmd_client)

    p = sub.add_parser("report", help="merge report.json files")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PrivFedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""One measurement in a fresh interpreter; prints one JSON object as its last line.

    child.py run --overrides JSON [--spans PATH]   one run_simulation; --spans traces it
    child.py check --overrides JSON                 HE vs plaintext aggregation of the same updates
    child.py kernels --seed N                       isolated single-threaded kernel timings

The harness (run.py) starts these one at a time with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time

import numpy as np

from privfed import transport as tr
from privfed.config import load_config
from privfed.federation import run_simulation
from privfed.report import nontiming_view

N_PARAMS_NN = 66
HE_CHUNK_BYTES = 262_159  # fresh N=8192 ciphertext, two active primes; 66 values fit one

UPLINK = {tr.MSG_JOIN: "join", tr.MSG_UPDATE: "update", tr.MSG_ROUND_DONE: "round_done"}
DOWNLINK = {
    tr.MSG_JOIN_ACK: "join_ack",
    tr.MSG_BROADCAST: "broadcast",
    tr.MSG_SHUTDOWN: "shutdown",
    tr.MSG_ERROR: "error",
}
KINDS = UPLINK | DOWNLINK


def count_frames() -> list:
    """Record (msg_type, bytes) of every SimChannel.send; the one hook the
    untraced run installs (a handful of calls per round)."""
    sent: list = []
    original = tr.SimChannel.send

    def send(self, frame):
        n = original(self, frame)
        sent.append((frame.msg_type, n))
        return n

    tr.SimChannel.send = send
    return sent


def output_checks(report, cfg) -> list[str]:
    """Problems with one report; an empty list means it passed."""
    problems = []
    if report.aborted:
        return [f"aborted: {report.abort_reason}"]
    sites = cfg.site_names()
    if len(report.rounds) != cfg.rounds:
        problems.append(f"{len(report.rounds)} rounds recorded, {cfg.rounds} run")
    for rec in report.rounds:
        if [c.client_id for c in rec.clients] != sites:
            problems.append(f"round {rec.round_index} lacks clients")
        if cfg.privacy_mode == "he" and any(c.payload_bytes != HE_CHUNK_BYTES for c in rec.clients):
            problems.append(f"round {rec.round_index}: update is not one {HE_CHUNK_BYTES} B chunk")
    final = report.final_params
    if final is None or len(final) != N_PARAMS_NN or not np.all(np.isfinite(final)):
        problems.append("final_params missing, not finite or not 66 entries")
    return problems


def fingerprint(report) -> str:
    view = nontiming_view(report.to_dict())
    return hashlib.sha256(json.dumps(view, sort_keys=True).encode()).hexdigest()


def do_run(overrides: list[str], spans_path: str | None) -> dict:
    cfg = load_config(None, overrides)
    sent = count_frames()
    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    w0 = time.perf_counter()
    c0 = time.process_time()
    report = run_simulation(cfg)
    cpu = time.process_time() - c0
    wall = time.perf_counter() - w0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    broadcasts = [t for t, kind, _ in report.event_log if kind == "broadcast"]
    arrivals = [[c.arrival_offset_seconds for c in rec.clients] for rec in report.rounds]
    by_type = dict.fromkeys(KINDS.values(), 0)
    for msg_type, n in sent:
        by_type[KINDS[msg_type]] += n
    out = {
        "setup_s": wall - report.total_wall_seconds,
        "run_s": report.total_wall_seconds,
        "round_gaps_s": [b - a for a, b in zip(broadcasts, broadcasts[1:])],
        "cpu_s": cpu,
        "peak_rss_mb": rss_mb,
        "rounds": cfg.rounds,
        "frames": len(sent),
        "bytes_by_type": by_type,
        "uplink_bytes": sum(by_type[k] for k in UPLINK.values()),
        "downlink_bytes": sum(by_type[k] for k in DOWNLINK.values()),
        "barrier_wait_s": [max(a) for a in arrivals],
        "straggler_s": [max(a) - min(a) for a in arrivals],
        "auc_mean": report.cross_site.summary["auc_mean"] if report.cross_site else None,
        "fingerprint": fingerprint(report),
        "problems": output_checks(report, cfg),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_stats()
        tracer.write_spans(spans_path)
    return out


def do_check(overrides: list[str]) -> dict:
    """Criterion 1 on the given HE config, at its tolerances: HE aggregation
    equals plaintext aggregation of the same client updates.

    The HE run records every update a client encrypts and every aggregate a
    client decrypts.  ``aggregate_plain`` of the recorded updates gives the
    expected aggregate of each round, and replaying those aggregates from the
    initial model gives the expected final model.  Gated: the per-round
    aggregate gap, the final-parameter gap and the cross-site AUC gap.

    A separate plain run of the same config and seed is reported beside it
    (``trajectory_*``) but not gated: its training path differs from the HE
    run's once a round's CKKS error (about 1e-8) flips an SGD step, and a plain
    run whose aggregate is perturbed by 1e-9 drifts from it as far.
    """
    from privfed import federation as fed
    from privfed.learners import ModelKind, init_params, predict_batch
    from privfed.metrics import evaluate_scores
    from privfed.params import LayoutManifest, apply_update, flatten
    from privfed.report import CrossSiteTable, SiteValidation
    from privfed.seeds import derive_seed

    cfg = load_config(None, overrides)
    encrypted: list = []  # updates encrypted since the last aggregation
    rounds: list = []  # (updates, weights) of each aggregation
    decrypted: dict = {}  # per client pipeline: the aggregate of each round
    encode, decode, aggregate = (
        fed.HePipeline.client_encode,
        fed.HePipeline.client_decode,
        fed.aggregate_encrypted,
    )

    def client_encode(self, delta, steps, rng):
        encrypted.append(np.array(delta, dtype=np.float64))
        return encode(self, delta, steps, rng)

    def client_decode(self, blobs, length):
        flat, seconds = decode(self, blobs, length)
        decrypted.setdefault(id(self), []).append(np.array(flat))
        return flat, seconds

    def aggregate_encrypted(per_client_chunks, weights):
        # every client has sent this round's update and waits for the broadcast
        rounds.append((encrypted[:], list(weights)))
        del encrypted[:]
        return aggregate(per_client_chunks, weights)

    fed.HePipeline.client_encode = client_encode
    fed.HePipeline.client_decode = client_decode
    fed.aggregate_encrypted = aggregate_encrypted
    try:
        he = run_simulation(cfg)
    finally:
        fed.HePipeline.client_encode = encode
        fed.HePipeline.client_decode = decode
        fed.aggregate_encrypted = aggregate
    plain_overrides = [o for o in overrides if not o.startswith("privacy.mode=")]
    plain = run_simulation(load_config(None, plain_overrides))
    if he.aborted or plain.aborted:
        return {"problems": [f"aborted: {he.abort_reason or plain.abort_reason}"], "env": runtime()}

    problems = []
    expected = [fed.aggregate_plain(updates, weights) for updates, weights in rounds]
    if len(expected) != cfg.rounds or any(len(u) != len(cfg.site_names()) for u, _ in rounds):
        problems.append("recorded updates do not cover every client of every round")
    if len(decrypted) != len(cfg.site_names()) or any(
        len(got) != len(expected) for got in decrypted.values()
    ):
        problems.append("not every client decrypted every round's aggregate")
    aggregate_gap = max(
        (float(np.max(np.abs(g - e))) for got in decrypted.values() for g, e in zip(got, expected)),
        default=float("inf"),
    )

    kind = ModelKind(cfg.model)
    params = init_params(kind, derive_seed(cfg.seed, "init"))
    manifest = LayoutManifest.of(params)
    for mean_delta in expected:
        params = apply_update(params, mean_delta, manifest)
    param_gap = float(np.max(np.abs(np.array(he.final_params) - flatten(params)[0])))
    datasets = fed.build_site_datasets(cfg)
    replay = CrossSiteTable.from_rows(
        [
            SiteValidation(
                site,
                evaluate_scores(
                    predict_batch(kind, params, datasets[site][1].features),
                    datasets[site][1].labels,
                    cfg.threshold,
                ),
            )
            for site in cfg.site_names()
        ]
    )
    auc_gap = abs(he.cross_site.summary["auc_mean"] - replay.summary["auc_mean"])
    if not aggregate_gap < 1e-3:
        problems.append(f"a decrypted aggregate differs from the plaintext aggregate by {aggregate_gap}")
    if not param_gap < 1e-3:
        problems.append(f"HE final params differ from the plaintext replay by {param_gap}")
    if not auc_gap < 0.005:
        problems.append(f"HE cross-site AUC differs from the plaintext replay by {auc_gap}")
    return {
        "aggregate_gap": aggregate_gap,
        "param_gap": param_gap,
        "auc_gap": auc_gap,
        "trajectory_param_gap": float(
            np.max(np.abs(np.array(he.final_params) - np.array(plain.final_params)))
        ),
        "trajectory_auc_gap": abs(
            he.cross_site.summary["auc_mean"] - plain.cross_site.summary["auc_mean"]
        ),
        "problems": problems,
        "env": runtime(),
    }


def runtime() -> dict:
    """Interpreter, numpy and BLAS versions of the process that runs privfed."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _median_ms(fn, min_reps: int = 5, budget_s: float = 0.25) -> float:
    fn()  # warm caches and lazy set-up outside the timed calls
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - start < budget_s and len(times) < 200):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def do_kernels(seed: int) -> dict:
    """Single-threaded timings of each hot kernel on fixed-size inputs (ms)."""
    from privfed.config import DP_DEFAULTS
    from privfed.dp import svt_filter
    from privfed.he import DEFAULT_PARAMS, decode, decrypt, encode, encrypt, keygen, mul_scalar_rescale
    from privfed.he.ntt import PrimeField, generate_ntt_primes
    from privfed.learners import ModelKind, init_params, loss_and_grad
    from privfed.metrics import auc

    rng = np.random.default_rng(seed)
    field = PrimeField(generate_ntt_primes([60], 8192)[0], 8192)
    poly = rng.integers(0, field.q_int, 8192, dtype=np.uint64)
    values = rng.normal(scale=0.01, size=N_PARAMS_NN)
    key = keygen(DEFAULT_PARAMS, rng)
    pt = encode(values, DEFAULT_PARAMS)
    ct = encrypt(pt, key, rng)
    rescaled_pt = decrypt(mul_scalar_rescale(ct, 0.25), key)
    x = rng.normal(size=(20_000, 10))
    y = (rng.uniform(size=20_000) < 0.064).astype(np.float64)
    lr_params = init_params(ModelKind.LOGISTIC_REGRESSION, seed)
    nn_params = init_params(ModelKind.FEEDFORWARD_NN, seed)
    scores = rng.uniform(size=84_000)
    labels = (rng.uniform(size=84_000) < 0.064).astype(np.int64)
    frame = tr.Frame(tr.MSG_UPDATE, 0, rng.bytes(HE_CHUNK_BYTES))
    wire = tr.frame_encode(frame)
    return {
        "kernel.ntt": _median_ms(lambda: field.ntt(poly)),
        "kernel.intt": _median_ms(lambda: field.intt(poly)),
        "kernel.encode": _median_ms(lambda: encode(values, DEFAULT_PARAMS)),
        "kernel.encrypt": _median_ms(lambda: encrypt(pt, key, rng)),
        "kernel.mul_scalar_rescale": _median_ms(lambda: mul_scalar_rescale(ct, 0.25)),
        "kernel.decode": _median_ms(lambda: decode(rescaled_pt)),
        "kernel.svt_filter": _median_ms(
            lambda: svt_filter(values, 20, DP_DEFAULTS["nn"], np.random.default_rng(seed))
        ),
        "kernel.loss_and_grad.lr_20k": _median_ms(lambda: loss_and_grad("lr", lr_params, x, y, 1e-4)),
        "kernel.loss_and_grad.nn_20k": _median_ms(lambda: loss_and_grad("nn", nn_params, x, y, 1e-4)),
        "kernel.auc_84k": _median_ms(lambda: auc(scores, labels)),
        "kernel.frame_encode_262k": _median_ms(lambda: tr.frame_encode(frame)),
        "kernel.frame_decode_262k": _median_ms(lambda: tr.frame_decode(wire)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["run", "check", "kernels"])
    parser.add_argument("--overrides", default="[]", help="JSON list of --set style overrides")
    parser.add_argument("--spans", default=None, help="trace the run and write spans here")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.mode == "run":
        out = do_run(json.loads(args.overrides), args.spans)
    elif args.mode == "check":
        out = do_check(json.loads(args.overrides))
    else:
        out = do_kernels(args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

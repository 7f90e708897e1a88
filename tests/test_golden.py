"""Golden pins for tiny fixed-seed runs in each privacy mode, for both
learners, one pin per concern, so that a change to one concern moves only its
own pins and a slip in another cannot hide in the move:

- numerics: the SHA-256 of ``numerics_view``, which holds θ (each fold's, in
  a central run), the metrics, steps and weights.  The plain and DP hashes
  depend on no HE code; the HE hash moves whenever the CKKS random stream
  or its packing does.
- wire: each client's ``payload_bytes`` per round, and the frames and bytes of
  each type that the NN runs and an HE LR run send.
- config: ``to_dict()``, the echo in every report, and ``session_digest()`` of
  each config.

Every field of ``nontiming_view`` lies under exactly one of them."""

import functools
import hashlib
import json
from collections import Counter

import pytest

from privfed import transport as tr
from privfed.config import load_config
from privfed.federation import run_central, run_simulation
from privfed.report import nontiming_view

TINY = ["model=nn", "data.scale_factor=0.02", "rounds=4", "seed=11"]
TINY_LR = ["model=lr", *TINY[1:]]
CENTRAL = ["data.scale_factor=0.02", "central_epochs=4", "central_folds=3", "seed=11"]


def numerics_view(report_dict: dict) -> dict:
    """``nontiming_view`` without the config echo and without any
    ``payload_bytes``: what the run computed, not how it was set up or how
    its updates travelled."""
    view = nontiming_view(report_dict)
    del view["config"]
    for rec in view["rounds"]:
        for client in rec["clients"]:
            del client["payload_bytes"]
    return view


@functools.cache
def golden_report(run, overrides: tuple[str, ...]) -> dict:
    """``to_dict`` of one finished run, made once for all the pins."""
    report = run(load_config(None, list(overrides)))
    assert not report.aborted, report.abort_reason
    return report.to_dict()


def report_fingerprint(overrides, run=run_simulation) -> str:
    """The SHA-256 of ``numerics_view`` of a finished run."""
    view = json.dumps(numerics_view(golden_report(run, tuple(overrides))), sort_keys=True)
    return hashlib.sha256(view.encode()).hexdigest()


@pytest.mark.parametrize(
    "mode, fingerprint",
    [
        ("plain", "a93ff51c6a120dfc08a188149c50c2da8ebff415a8e2bf46e2c9ebed9d1a1ac2"),
        ("dp", "d9d95b7fb6d90daca459236423b70ef70ce0fe04cdeba07d35f08865a51a0c0d"),
        ("he", "320a838c2344afaeb711f85a7ccbe7797e92c7266f220104c638a0f0e47b2596"),
    ],
    ids=["plain", "dp", "he"],
)
def test_nontiming_fingerprint(mode, fingerprint):
    assert report_fingerprint([f"privacy.mode={mode}", *TINY]) == fingerprint


@pytest.mark.parametrize(
    "mode, fingerprint",
    [
        ("plain", "8b22e849bd30b917f1a3b110b7cebf21118c1943722f5f522c17881f8d311500"),
        ("dp", "c3f8f33d2eee0d54d731afcff09816fd394b4abb805814d43706a57bb0ab89d0"),
        ("he", "db72f33bd217bcb101fc3a2ab353a10166b11f89dd5ea079162d24b070ec3570"),
    ],
    ids=["plain", "dp", "he"],
)
def test_lr_nontiming_fingerprint(mode, fingerprint):
    assert report_fingerprint([f"privacy.mode={mode}", *TINY_LR]) == fingerprint


@pytest.mark.parametrize(
    "model, fingerprint",
    [
        ("nn", "b6a9ef74f71115522938174eb616723419b7c5526c95325ffa996228a269906e"),
        ("lr", "3e2df7ffa8aea257219b9aefbb712f82164f34b1d263afaaf60d6e462254ff58"),
    ],
    ids=["nn", "lr"],
)
def test_central_nontiming_fingerprint(model, fingerprint):
    # cML's fold θs and metrics over the pooled sites, which must hold the
    # rows in site order, training rows first
    assert report_fingerprint([f"model={model}", *CENTRAL], run=run_central) == fingerprint


# (frames, bytes) of each type one TINY run sends, both directions.  A DP
# update carries the ternary code of its 66 values, 33 bytes with the count
# and 8 more per literal (7 literals in these 16 updates), where a plain one
# carries 536 bytes of f64s.  An HE broadcast after round 0 carries one
# level-0 c0 row of the chunk's value columns, one residue per value: 66
# for NN, 11 for LR.
PLAIN_WIRE = {
    "join": (4, 272),
    "join_ack": (4, 68),
    "broadcast": (20, 11080),
    "update": (16, 10448),
    "round_done": (4, 228),
    "shutdown": (4, 68),
}
DP_WIRE = PLAIN_WIRE | {"update": (16, 2456)}
HE_WIRE = PLAIN_WIRE | {"broadcast": (20, 11512), "update": (16, 4196608), "round_done": (4, 2372)}
HE_LR_WIRE = PLAIN_WIRE | {"broadcast": (20, 2712), "update": (16, 4196608), "round_done": (4, 612)}
FRAME_NAMES = {
    tr.MSG_JOIN: "join",
    tr.MSG_JOIN_ACK: "join_ack",
    tr.MSG_BROADCAST: "broadcast",
    tr.MSG_UPDATE: "update",
    tr.MSG_ROUND_DONE: "round_done",
    tr.MSG_SHUTDOWN: "shutdown",
    tr.MSG_ERROR: "error",
}


@pytest.mark.parametrize(
    "mode, tiny, wire",
    [("plain", TINY, PLAIN_WIRE), ("dp", TINY, DP_WIRE), ("he", TINY, HE_WIRE), ("he", TINY_LR, HE_LR_WIRE)],
    ids=["plain", "dp", "he", "he_lr"],
)
def test_wire_bytes_per_frame_type(mode, tiny, wire, monkeypatch):
    # counted where the benchmark counts them: the bytes SimChannel.send returns
    frames, sent = Counter(), Counter()
    send = tr.SimChannel.send

    def counting_send(self, frame):
        n = send(self, frame)
        frames[FRAME_NAMES[frame.msg_type]] += 1
        sent[FRAME_NAMES[frame.msg_type]] += n
        return n

    monkeypatch.delenv("PRIVFED_TOKEN", raising=False)
    monkeypatch.setattr(tr.SimChannel, "send", counting_send)
    report = run_simulation(load_config(None, [f"privacy.mode={mode}", *tiny]))
    assert not report.aborted, report.abort_reason
    assert {kind: (frames[kind], sent[kind]) for kind in frames} == wire



# each client's payload_bytes in each round, sites in site order: a plain
# update is its f64s (66 for NN, 11 for LR), an HE update one whole chunk,
# and a DP update its ternary code after the count, 8 bytes of c, 2 bits per
# value and 8 bytes per literal (NN's 66 values take 25 bytes and LR's 11
# take 11 before any literal)
PAYLOAD_BYTES = {
    "plain": [[528] * 4] * 4,
    "dp": [[25, 33, 41, 33], [25, 25, 25, 25], [25, 25, 25, 25], [33, 25, 41, 25]],
    "he": [[262159] * 4] * 4,
    "lr_plain": [[88] * 4] * 4,
    "lr_dp": [[11] * 4] * 4,
    "lr_he": [[262159] * 4] * 4,
}


@pytest.mark.parametrize("name", PAYLOAD_BYTES)
def test_payload_bytes_per_round(name):
    mode = name.removeprefix("lr_")
    tiny = TINY_LR if name.startswith("lr_") else TINY
    report = golden_report(run_simulation, (f"privacy.mode={mode}", *tiny))
    got = [[c["payload_bytes"] for c in rec["clients"]] for rec in report["rounds"]]
    assert got == PAYLOAD_BYTES[name]


# the TINY NN plain config as every report echoes it; each pinned config is
# this with a few keys changed
TINY_CONFIG = {
    "model": "nn",
    "privacy": {"mode": "plain", "dp": None, "he": None},
    "rounds": 4,
    "local_epochs": 20,
    "learning_rate": 0.01,
    "l2_penalty": 0.0001,
    "batch_size": 20000,
    "site_batch_sizes": {"stockholm": 100000},
    "threshold": 0.5,
    "train_frac": 0.8,
    "central_epochs": 400,
    "central_folds": 10,
    "data": {
        "scale_factor": 0.02,
        "sites": [
            {"name": "ostergotland", "n_negative": 92630, "n_positive": 6518},
            {"name": "sodermanland", "n_negative": 63901, "n_positive": 4575},
            {"name": "stockholm", "n_negative": 391954, "n_positive": 26046},
            {"name": "uppsala", "n_negative": 69909, "n_positive": 4894},
        ],
        "csv_dir": None,
    },
    "seed": 11,
    "weighting": "unit",
    "timeout_seconds": 600.0,
    "out_dir": "out",
}
NN_DP = {"fraction": 0.9, "epsilon": 1.0, "noise_var": 2.0, "gamma": 0.01, "tau": 0.0001}
LR_DP = {"fraction": 0.99, "epsilon": 10000.0, "noise_var": 1000.0, "gamma": 0.001, "tau": 1e-07}
HE = {"poly_degree": 8192, "modulus_bits": [60, 40, 40], "scale_log2": 40}

# (run, overrides, the keys that differ from TINY_CONFIG, session digest) of
# every run the numerics hashes pin
CONFIGS = {
    "plain": (run_simulation, ["privacy.mode=plain", *TINY], {}, "c9afe486ec5a70ef"),
    "dp": (
        run_simulation,
        ["privacy.mode=dp", *TINY],
        {"privacy": {"mode": "dp", "dp": NN_DP, "he": None}},
        "d5f76e64d9b574b1",
    ),
    "he": (
        run_simulation,
        ["privacy.mode=he", *TINY],
        {"privacy": {"mode": "he", "dp": None, "he": HE}},
        "b33f750bf202397d",
    ),
    "lr_plain": (run_simulation, ["privacy.mode=plain", *TINY_LR], {"model": "lr"}, "10bd07b35f8c9f5c"),
    "lr_dp": (
        run_simulation,
        ["privacy.mode=dp", *TINY_LR],
        {"model": "lr", "privacy": {"mode": "dp", "dp": LR_DP, "he": None}},
        "276de83a74872e39",
    ),
    "lr_he": (
        run_simulation,
        ["privacy.mode=he", *TINY_LR],
        {"model": "lr", "privacy": {"mode": "he", "dp": None, "he": HE}},
        "f5a32d8e9be0e0fe",
    ),
    "central_nn": (
        run_central,
        ["model=nn", *CENTRAL],
        {"rounds": 250, "central_epochs": 4, "central_folds": 3},
        "c9afe486ec5a70ef",
    ),
    "central_lr": (
        run_central,
        ["model=lr", *CENTRAL],
        {"model": "lr", "rounds": 250, "central_epochs": 4, "central_folds": 3},
        "10bd07b35f8c9f5c",
    ),
    "minibatch": (
        run_simulation,
        ["privacy.mode=plain", *TINY, "batch_size=500", "site_batch_sizes={}"],
        {"batch_size": 500, "site_batch_sizes": {}},
        "c9afe486ec5a70ef",
    ),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_config_echo_and_session_digest(name):
    run, overrides, changes, digest = CONFIGS[name]
    cfg = load_config(None, overrides)
    assert cfg.to_dict() == TINY_CONFIG | changes
    assert golden_report(run, tuple(overrides))["config"] == cfg.to_dict()
    assert cfg.session_digest().hex() == digest

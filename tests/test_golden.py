"""Golden fingerprints: the SHA-256 of ``nontiming_view`` for tiny fixed-seed
runs in each privacy mode, for both learners.  A refactor that moves any non-timing byte of a
report fails here.  The plain and DP hashes depend on no HE code; the HE hash
moves whenever the CKKS random stream or ciphertext bytes do.  Each client's
``payload_bytes`` is in the view, so a change to an update's wire form moves
its mode's hashes.  The wire pins count the frames and bytes of each type the
NN runs and an HE LR run send, so a change to the frame format fails here
too."""

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


@pytest.mark.parametrize(
    "mode, fingerprint",
    [
        ("plain", "f981957c5a5dee8b4de4f59e46a56b3bca4313201c7992d70435a09650d3cf29"),
        ("dp", "abc62ef2ef692afb55b3619a6d35a31d64159e97d3574d590f8683cc1e56f42c"),
        ("he", "97820357f0662ba830b4c279b2f8b5b1e418ff5293741bf9062f71c52edc8065"),
    ],
    ids=["plain", "dp", "he"],
)
def test_nontiming_fingerprint(mode, fingerprint, monkeypatch):
    monkeypatch.delenv("PRIVFED_TOKEN", raising=False)  # the token is part of the config
    assert report_fingerprint([f"privacy.mode={mode}", *TINY]) == fingerprint


@pytest.mark.parametrize(
    "mode, fingerprint",
    [
        ("plain", "bf8840a3516e3e713de5afb4daf7caa643f06532e7413887ebe6779cc9c1d23b"),
        ("dp", "dac13c2eb4d4343a66107a138825bfee6e76d073790acb9ccb7fd872389d4b3c"),
        ("he", "d80bede6b7af17cb0e1973e6258a968b69b42db10ce619bf4ecc509508adfc8a"),
    ],
    ids=["plain", "dp", "he"],
)
def test_lr_nontiming_fingerprint(mode, fingerprint, monkeypatch):
    monkeypatch.delenv("PRIVFED_TOKEN", raising=False)
    assert report_fingerprint([f"privacy.mode={mode}", *TINY_LR]) == fingerprint


@pytest.mark.parametrize(
    "model, fingerprint",
    [
        ("nn", "cda4f717966da076f03f1d9e34337a659da2e5859ab75f440fbff1e08934f387"),
        ("lr", "58b60de403bedd0107f29ab8b764a7224f6d10cea3b88db696c2b8f9af63e9a0"),
    ],
)
def test_central_nontiming_fingerprint(model, fingerprint, monkeypatch):
    # cML's fold metrics over the pooled sites, which must hold the rows in
    # site order, training rows first
    monkeypatch.delenv("PRIVFED_TOKEN", raising=False)
    overrides = [f"model={model}", "data.scale_factor=0.02", "central_epochs=4", "central_folds=3", "seed=11"]
    report = run_central(load_config(None, overrides))
    view = json.dumps(nontiming_view(report.to_dict()), sort_keys=True)
    assert hashlib.sha256(view.encode()).hexdigest() == fingerprint


# (frames, bytes) of each type one TINY run sends, both directions.  A DP
# update carries the ternary code of its 66 values, 33 bytes with the count
# and 8 more per literal (7 literals in these 16 updates), where a plain one
# carries 536 bytes of f64s.  An HE broadcast after round 0 carries one
# level-0 c0 row of the chunk's subring columns: 256 for NN's 66 values, 32
# for LR's 11.
PLAIN_WIRE = {
    "join": (4, 272),
    "join_ack": (4, 68),
    "broadcast": (20, 11080),
    "update": (16, 10448),
    "round_done": (4, 228),
    "shutdown": (4, 68),
}
DP_WIRE = PLAIN_WIRE | {"update": (16, 2456)}
HE_WIRE = PLAIN_WIRE | {"broadcast": (20, 35832), "update": (16, 4196608), "round_done": (4, 2372)}
HE_LR_WIRE = PLAIN_WIRE | {"broadcast": (20, 5400), "update": (16, 4196608), "round_done": (4, 612)}
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


def report_fingerprint(overrides) -> str:
    """The SHA-256 of ``nontiming_view`` of a finished simulation."""
    report = run_simulation(load_config(None, overrides))
    assert not report.aborted, report.abort_reason
    view = json.dumps(nontiming_view(report.to_dict()), sort_keys=True)
    return hashlib.sha256(view.encode()).hexdigest()

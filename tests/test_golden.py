"""Golden fingerprints: the SHA-256 of ``nontiming_view`` for tiny fixed-seed
runs in each privacy mode, for both learners.  A refactor that moves any non-timing byte of a
report fails here.  The plain and DP hashes depend on no HE code; the HE hash
moves whenever the CKKS random stream or ciphertext bytes do."""

import hashlib
import json

import pytest

from privfed.config import load_config
from privfed.federation import run_simulation
from privfed.report import nontiming_view

TINY = ["model=nn", "data.scale_factor=0.02", "rounds=4", "seed=11"]
TINY_LR = ["model=lr", *TINY[1:]]


@pytest.mark.parametrize(
    "mode, fingerprint",
    [
        ("plain", "f981957c5a5dee8b4de4f59e46a56b3bca4313201c7992d70435a09650d3cf29"),
        ("dp", "f1baa9f22172c74b0c7a432aa8911c16c6b4943663eb6eb62103fc8edcfbb97c"),
        ("he", "da207ab5770dc4671b128b8e019c68ea933bc415c422425d5ea222ac80b7f3c9"),
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
        ("dp", "e64346377690a12ee179332b5691a31c34eb2a4a582bf3d209a26e13e43fe797"),
        ("he", "be1b5f9f404a11a33d6f14d9a76e934a1bf0aa88e9abc815956b30ce265451ce"),
    ],
    ids=["plain", "dp", "he"],
)
def test_lr_nontiming_fingerprint(mode, fingerprint, monkeypatch):
    monkeypatch.delenv("PRIVFED_TOKEN", raising=False)
    assert report_fingerprint([f"privacy.mode={mode}", *TINY_LR]) == fingerprint


def report_fingerprint(overrides) -> str:
    """The SHA-256 of ``nontiming_view`` of a finished simulation."""
    report = run_simulation(load_config(None, overrides))
    assert not report.aborted, report.abort_reason
    view = json.dumps(nontiming_view(report.to_dict()), sort_keys=True)
    return hashlib.sha256(view.encode()).hexdigest()

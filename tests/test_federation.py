import dataclasses
import gc
import hashlib
import json
import math
import socket
import struct
from collections import Counter
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import run_simulation_thread_per_client, ternary_code_bytes
from test_golden import TINY

from privfed import federation
from privfed import transport as tr
from privfed.config import SESSION_KEYS, load_config
from privfed.data import BLOCK_ROWS, scaled_counts, write_csv
from privfed.errors import AuthError, ConfigError, DecodeError, LayoutError, ProtocolError
from privfed.federation import (
    FederationClient,
    FederationServer,
    HePipeline,
    aggregate_c1,
    aggregate_encrypted,
    aggregate_plain,
    build_site_datasets,
    run_central,
    run_simulation,
)
from privfed.he import (
    DEFAULT_PARAMS,
    TEST_PARAMS,
    KeyPair,
    decode,
    decrypt,
    deserialize_ct,
    encode,
    encrypt,
    keygen,
    mul_scalar_rescale,
    sample_a,
    serialize_ct,
    with_c1,
)
from privfed.he import ckks
from privfed.learners import ModelKind, init_params
from privfed.metrics import MetricSet, summarize
from privfed.report import nontiming_view
from privfed.seeds import derived_rng

HE_OVERRIDES = [
    "privacy.he.poly_degree=1024",
    "privacy.he.modulus_bits=[40,30,30]",
    "privacy.he.scale_log2=30",
]


def sim_config(*overrides):
    base = [
        "data.scale_factor=0.02",
        "rounds=2",
        "local_epochs=2",
        "model=lr",
        "seed=11",
        "learning_rate=0.1",
    ]
    return load_config(None, base + list(overrides))


def site_client(cfg) -> FederationClient:
    """The first site's client, built outside any simulation."""
    name = cfg.site_names()[0]
    train, valid = build_site_datasets(cfg, only_site=name)[name]
    return FederationClient(cfg, name, train, valid)


def broadcast(round_index: int, flat, final: bool = False) -> tr.Frame:
    body = tr.BroadcastBody(final, flat)
    return tr.Frame(tr.MSG_BROADCAST, round_index, tr.encode_broadcast(body))


class TestAggregatePlain:
    def test_mean_of_two(self):
        out = aggregate_plain([np.array([1.0, 3.0]), np.array([3.0, 5.0])], [1.0, 1.0])
        assert np.array_equal(out, [2.0, 4.0])

    def test_single_client_identity(self):
        update = np.array([0.5, -0.25, 7.0])
        assert np.array_equal(aggregate_plain([update], [1.0]), update)

    def test_matches_bruteforce_mean(self):
        rng = np.random.default_rng(0)
        updates = [rng.normal(size=66) for _ in range(4)]
        out = aggregate_plain(updates, [1.0] * 4)
        want = np.mean(updates, axis=0)
        assert np.abs(out - want).max() < 1e-12

    def test_unit_weights_equal_unweighted_mean_exactly(self):
        rng = np.random.default_rng(1)
        updates = [rng.normal(size=11) for _ in range(3)]
        assert np.array_equal(
            aggregate_plain(updates, [1.0] * 3), np.sum(updates, axis=0) / 3.0
        )

    def test_structural_errors(self):
        with pytest.raises(LayoutError):
            aggregate_plain([], [])
        with pytest.raises(LayoutError):
            aggregate_plain([np.ones(3), np.ones(4)], [1.0, 1.0])


@pytest.fixture(scope="module")
def keys():
    return keygen(TEST_PARAMS, np.random.default_rng(5))


class TestAggregateEncrypted:
    """``aggregate_encrypted`` sums and rescales the c0 halves only; the
    aggregate's c1 comes from the clients' ``a`` rows (``aggregate_c1``)."""

    def _encrypt_vec(self, vec, keys, seed):
        """A one-chunk update and the ``a`` its c1 holds."""
        a = sample_a(TEST_PARAMS, np.random.default_rng(1000 + seed))
        return [encrypt(encode(vec, TEST_PARAMS), keys, np.random.default_rng(seed), a=a)], [a]

    def _aggregate(self, updates, weights, keys, size):
        """The decoded ``size`` values of the aggregate of ``updates``."""
        agg = aggregate_encrypted([chunks for chunks, _ in updates], weights)
        (c1,) = aggregate_c1(TEST_PARAMS, [a for _, a in updates], float(sum(weights)))
        assert agg[0].comps.shape == (1, 1, size)  # c0 alone, at its value columns
        return decode(decrypt(with_c1(agg[0], c1), keys))

    def test_single_client_scalar_one_path(self, keys):
        v = np.random.default_rng(6).uniform(-1, 1, 20)
        out = self._aggregate([self._encrypt_vec(v, keys, 1)], [1.0], keys, 20)
        assert np.abs(out - v).max() < 1e-3

    def test_four_clients_of_fours(self, keys):
        updates = [self._encrypt_vec(np.full(8, 4.0), keys, seed) for seed in range(4)]
        out = self._aggregate(updates, [1.0] * 4, keys, 8)
        assert np.abs(out - 4.0).max() < 1e-3  # sum 16, x 1/4

    def test_structural_errors(self, keys):
        with pytest.raises(LayoutError, match="no encrypted updates to aggregate"):
            aggregate_encrypted([], [])
        chunks, _ = self._encrypt_vec(np.ones(4), keys, 1)
        with pytest.raises(LayoutError, match="weights and updates differ in count"):
            aggregate_encrypted([chunks], [1.0, 1.0])

    def test_matches_plaintext_oracle(self, keys):
        rng = np.random.default_rng(7)
        vectors = [rng.uniform(-1, 1, 30) for _ in range(4)]
        updates = [self._encrypt_vec(v, keys, 10 + i) for i, v in enumerate(vectors)]
        out = self._aggregate(updates, [1.0] * 4, keys, 30)
        want = aggregate_plain(vectors, [1.0] * 4)
        assert np.abs(out - want).max() < 1e-3


SITES = ["ostergotland", "sodermanland", "stockholm", "uppsala"]


class TestC0Broadcast:
    """The coordinator sends each site only the aggregate's c0 at its value
    columns and Σw; the site rebuilds c1 from the sites' public ``a``s.  Both
    halves must equal those of the full two-component aggregation bit for
    bit, and so must the values the site decodes."""

    def test_public_a_is_each_site_s_stream_drawn_once(self):
        rows = federation.public_a(TEST_PARAMS, 11, 3, tuple(SITES), 2)
        for site, per_chunk in zip(SITES, rows):
            for chunk, a in enumerate(per_chunk):
                assert np.array_equal(a, sample_a(TEST_PARAMS, derived_rng(11, "ckks-a", site, 3, chunk)))
                assert not a.flags.writeable  # every party in the process shares it
        assert federation.public_a(TEST_PARAMS, 11, 3, tuple(SITES), 2) is rows

    def test_round_c1_is_built_once_per_round_and_equals_aggregate_c1(self):
        c1s = federation.round_c1(TEST_PARAMS, 11, 3, tuple(SITES), 2, 4.0)
        fresh = aggregate_c1(TEST_PARAMS, federation.public_a(TEST_PARAMS, 11, 3, tuple(SITES), 2), 4.0)
        assert len(c1s) == len(fresh) == 2
        for got, want in zip(c1s, fresh):
            assert (got.level, got.scale, got.slot_fill) == (want.level, want.scale, want.slot_fill)
            assert got.comps.tobytes() == want.comps.tobytes()
            assert not got.comps.flags.writeable  # every site in the process shares it
        assert federation.round_c1(TEST_PARAMS, 11, 3, tuple(SITES), 2, 4.0) is c1s
        other = federation.round_c1(TEST_PARAMS, 11, 3, tuple(SITES), 2, 3.0)
        assert other[0].comps.tobytes() != c1s[0].comps.tobytes()

    @pytest.mark.parametrize(
        "params, length",
        [
            (TEST_PARAMS, 66),
            (DEFAULT_PARAMS, 66),
            # chunk 0 holds a full N/2 values, chunk 1 88
            (TEST_PARAMS, TEST_PARAMS.slot_count + 88),
            (ckks.CkksParams(128, (40, 30, 30), 30), 66),
        ],
        ids=["test_params", "default_params", "test_params_two_chunks", "degree_128_two_chunks"],
    )
    @pytest.mark.parametrize(
        "weights", [[1.0] * 4, [812.0, 301.0, 1405.0, 977.0]], ids=["unit", "examples"]
    )
    def test_rebuilt_c1_equals_the_full_aggregate(self, params, length, weights):
        seed = 11
        rng = np.random.default_rng(8)
        pipelines = [HePipeline(params, seed, site, SITES, length) for site in SITES]
        payloads = {
            site: pipe.client_encode(rng.uniform(-0.1, 0.1, length) * w, 0, np.random.default_rng(i))
            for i, (site, pipe, w) in enumerate(zip(SITES, pipelines, weights))
        }
        fills = ckks.chunk_fills(length, params)
        # the full aggregation: both components summed, then one rescale
        cts = [
            [deserialize_ct(blob, params, fill) for blob, fill in zip(payloads[site], fills)] for site in SITES
        ]
        full = []
        for idx in range(len(fills)):
            total = cts[0][idx]
            for chunks in cts[1:]:
                total = ckks.add(total, chunks[idx])
            full.append(mul_scalar_rescale(total, 1.0 / float(sum(weights))))

        c0_blobs = federation.aggregate_serialized(params, payloads, weights, length, seed, 0)
        per_site_a = federation.public_a(params, seed, 0, tuple(SITES), len(fills))
        c1s = aggregate_c1(params, per_site_a, float(sum(weights)))
        assert len(c0_blobs) == len(c1s) == len(fills)
        for blob, c1, ct, fill in zip(c0_blobs, c1s, full, fills):
            assert len(blob) == 15 + 8 * fill  # one level-0 row of the value columns
            c0 = deserialize_ct(blob, params, fill, row=True)
            assert np.array_equal(c0.comps, ct.comps[:1, :, :fill])
            assert np.array_equal(c1.comps, ct.comps[1:])

        # decrypted whole, then read at the value columns by decode
        key = pipelines[0].keys
        want = np.concatenate([decode(decrypt(ct, key)) for ct in full])
        for pipe in pipelines:
            got, _ = pipe.client_decode(tr.BroadcastBody(False, c0_blobs, float(sum(weights))), 1)
            assert got.tobytes() == want.tobytes()


class TestSimulationRuns:
    def test_zero_rounds(self):
        report = run_simulation(sim_config("rounds=0"))
        assert not report.aborted
        assert report.rounds == []
        assert report.cross_site is not None
        assert len(report.cross_site.rows) == 4

    def test_zero_epochs_leaves_global_unchanged(self):
        report = run_simulation(sim_config("rounds=1", "local_epochs=0", "model=nn"))
        from privfed.seeds import derive_seed

        init_theta = init_params(ModelKind.FEEDFORWARD_NN, derive_seed(11, "init"))
        assert np.array_equal(report.final_params, init_theta)
        for client in report.rounds[0].clients:
            assert client.pre_metrics == client.post_metrics

    def test_dp_update_payload_obeys_filter_bound(self, monkeypatch):
        # step one client round by hand so the wire payload is inspectable;
        # it decodes to the filter's output bit for bit
        filtered = []
        svt_filter = federation.svt_filter

        def recording_filter(*args):
            filtered.append(svt_filter(*args))
            return filtered[-1]

        monkeypatch.setattr(federation, "svt_filter", recording_filter)
        cfg = sim_config("privacy.mode=dp", "model=nn", "rounds=1", "local_epochs=2")
        reply = site_client(cfg).handle(broadcast(0, init_params(ModelKind.FEEDFORWARD_NN, 0)))
        assert (reply.msg_type, reply.round) == (tr.MSG_UPDATE, 0)
        update = tr.decode_update(reply.body, mode="dp")
        assert update.payload.tobytes() == filtered[0].tobytes()
        assert update.payload.size == 66
        assert len(reply.body) == 20 + 2 * 40 + 8 + ternary_code_bytes(update.payload)
        bound = cfg.dp.gamma * update.steps
        assert np.all(np.abs(update.payload) <= bound + 1e-12)
        assert np.count_nonzero(update.payload) <= np.ceil(cfg.dp.fraction * 66)

    def test_he_payload_is_chunked_ciphertexts(self):
        cfg = sim_config("privacy.mode=he", "model=nn", "rounds=1", *HE_OVERRIDES)
        report = run_simulation(cfg)
        assert not report.aborted
        expected_chunks = math.ceil(66 / cfg.he.slot_count)
        ct_bytes = 15 + 2 * 2 * cfg.he.poly_degree * 8
        for client in report.rounds[0].clients:
            assert client.payload_bytes == expected_chunks * ct_bytes

    def test_he_matches_plain_parameters(self):
        plain = run_simulation(sim_config("model=nn", "rounds=4"))
        he = run_simulation(sim_config("model=nn", "rounds=4", "privacy.mode=he", *HE_OVERRIDES))
        a = np.array(plain.final_params)
        b = np.array(he.final_params)
        assert np.abs(a - b).max() < 1e-3

    def test_deterministic_reports(self):
        a = run_simulation(sim_config())
        b = run_simulation(sim_config())
        from privfed.report import nontiming_view

        assert nontiming_view(a.to_dict()) == nontiming_view(b.to_dict())

    def test_barrier_ordering_in_event_log(self):
        cfg = sim_config("rounds=3")
        report = run_simulation(cfg)
        events = report.event_log
        for round_index in range(3):
            agg_times = [t for t, kind, who in events if kind == "aggregate_start" and who == str(round_index)]
            assert len(agg_times) == 1
            updates_before = [
                t
                for t, kind, _ in events
                if kind == "update_received" and t <= agg_times[0]
            ]
            assert len(updates_before) == 4 * (round_index + 1)
        assert sum(kind == "update_received" for _, kind, _ in events) == 4 * 3
        assert [who for _, kind, who in events if kind == "round_done_received"] == cfg.site_names()

    def test_weighting_by_examples(self):
        report = run_simulation(sim_config("weighting=examples", "rounds=1"))
        assert not report.aborted
        weights = {c.client_id: c.weight for c in report.rounds[0].clients}
        assert weights["stockholm"] > weights["uppsala"] > 1.0


class TestCrossSiteTable:
    def test_identical_sites_zero_std(self):
        # all sites evaluating the same model on the same data report the
        # same metrics, so the cross-site spread collapses to zero
        from privfed.federation import build_site_datasets
        from privfed.learners import ModelKind, init_params, predict_batch
        from privfed.metrics import evaluate_scores
        from privfed.report import CrossSiteTable, SiteValidation

        cfg = sim_config()
        _, valid = build_site_datasets(cfg)[cfg.site_names()[0]]
        params = init_params(ModelKind.LOGISTIC_REGRESSION, 3)
        metrics = evaluate_scores(
            predict_batch(ModelKind.LOGISTIC_REGRESSION, params, valid.features),
            valid.labels,
            cfg.threshold,
        )
        table = CrossSiteTable.from_rows(
            [SiteValidation(site, metrics) for site in cfg.site_names()]
        )
        assert table.summary["auc_std"] == 0.0
        assert table.summary["sensitivity_std"] == 0.0
        assert table.summary["specificity_std"] == 0.0

    def test_summary_recomputes_from_rows(self):
        report = run_simulation(sim_config())
        rows = report.cross_site.rows
        mean, std = summarize(r.metrics.auc for r in rows)
        assert report.cross_site.summary["auc_mean"] == pytest.approx(mean, abs=1e-12)
        assert report.cross_site.summary["auc_std"] == pytest.approx(std, abs=1e-12)

    def test_four_rows_plus_summary(self):
        report = run_simulation(sim_config())
        assert len(report.cross_site.rows) == 4
        assert set(report.cross_site.summary) == {
            "auc_mean",
            "auc_std",
            "sensitivity_mean",
            "sensitivity_std",
            "specificity_mean",
            "specificity_std",
        }


class TestAuth:
    def test_bad_token_rejected(self):
        cfg = sim_config()
        server = FederationServer(cfg)
        server_end, client_end = tr.SimChannel.pair()
        client = site_client(sim_config("token=wrong-token"))
        client_end.send(client.join_frame())
        with pytest.raises(AuthError):
            server.accept_clients([server_end], timeout=5)
        with pytest.raises(AuthError, match="bad token"):
            client.check_ack(client_end.recv())

    def test_non_ascii_token_rejected(self):
        cfg = sim_config()
        server = FederationServer(cfg)
        server_end, client_end = tr.SimChannel.pair()
        client = site_client(sim_config("token=tök"))
        client_end.send(client.join_frame())
        with pytest.raises(AuthError):
            server.accept_clients([server_end], timeout=5)
        with pytest.raises(AuthError, match="bad token"):
            client.check_ack(client_end.recv())

    def test_malformed_join_refused(self):
        # a JOIN whose site name is not UTF-8 gets an ERROR frame and a close,
        # like every other refused JOIN
        cfg = sim_config()
        server = FederationServer(cfg)
        server_end, client_end = tr.SimChannel.pair()
        body = tr.encode_join(tr.JoinBody("ab", cfg.token, 10, cfg.session_digest()))
        client_end.send(tr.Frame(tr.MSG_JOIN, 0, body[:4] + b"\xff\xfe" + body[6:]))
        with pytest.raises(ProtocolError, match="malformed JOIN: string is not UTF-8"):
            server.accept_clients([server_end], timeout=5)
        with pytest.raises(AuthError, match="malformed JOIN: string is not UTF-8"):
            site_client(cfg).check_ack(client_end.recv())
        with pytest.raises(tr.ChannelClosed):
            client_end.recv()
        assert server.clients == {}

    def test_frame_before_join_refused(self):
        # a first frame other than JOIN gets an ERROR frame and a close
        cfg = sim_config()
        server = FederationServer(cfg)
        server_end, client_end = tr.SimChannel.pair()
        client_end.send(update_frame())
        with pytest.raises(ProtocolError, match="client spoke before joining"):
            server.accept_clients([server_end], timeout=5)
        with pytest.raises(AuthError, match="expected JOIN"):
            site_client(cfg).check_ack(client_end.recv())
        with pytest.raises(tr.ChannelClosed):
            client_end.recv()
        assert server.clients == {}

    def test_duplicate_join_refused(self):
        # a second channel joining as an admitted site gets an ERROR frame and
        # a close; the first channel keeps the site's seat and stays open
        cfg = sim_config()
        server = FederationServer(cfg)
        client = site_client(cfg)
        first_end, first_client = tr.SimChannel.pair()
        second_end, second_client = tr.SimChannel.pair()
        first_client.send(client.join_frame())
        second_client.send(client.join_frame())
        with pytest.raises(ProtocolError, match=f"unexpected site {client.client_id!r}"):
            server.accept_clients([first_end, second_end], timeout=5)
        with pytest.raises(AuthError, match="unknown or duplicate site"):
            client.check_ack(second_client.recv())
        with pytest.raises(tr.ChannelClosed):
            second_client.recv()
        client.check_ack(first_client.recv())
        with pytest.raises(TimeoutError):
            first_client.recv()
        assert list(server.clients) == [client.client_id]
        assert server.clients[client.client_id].channel is first_end


class TestClientHandle:
    """``FederationClient.handle`` is one protocol step: the reply to a
    coordinator frame, or None on SHUTDOWN."""

    def test_shutdown_ends_the_session(self):
        assert site_client(sim_config()).handle(tr.Frame(tr.MSG_SHUTDOWN, 0)) is None

    @pytest.mark.parametrize("msg_type", [tr.MSG_JOIN, tr.MSG_JOIN_ACK, tr.MSG_UPDATE])
    def test_unexpected_type_rejected(self, msg_type):
        with pytest.raises(ProtocolError, match="unexpected message type"):
            site_client(sim_config()).handle(tr.Frame(msg_type, 0))

    def test_error_frame_raises_its_message(self):
        with pytest.raises(ProtocolError, match="coordinator gave up"):
            site_client(sim_config()).handle(
                tr.Frame(tr.MSG_ERROR, 0, tr.encode_error("coordinator gave up"))
            )

    def test_final_broadcast_answered_with_round_done(self):
        cfg = sim_config()
        client = site_client(cfg)
        reply = client.handle(broadcast(0, init_params(ModelKind.LOGISTIC_REGRESSION, 0), final=True))
        assert (reply.msg_type, reply.round) == (tr.MSG_ROUND_DONE, 0)
        done = tr.decode_round_done(reply.body, encrypted=False)  # no θ: the coordinator holds it
        assert done.metrics.n_pos + done.metrics.n_neg == len(client.valid)

    def test_broadcast_of_wrong_length_rejected(self):
        client = site_client(sim_config())  # lr: 11 parameters
        with pytest.raises(LayoutError, match="broadcast carries 66 values, lr expects 11"):
            client.handle(broadcast(0, init_params(ModelKind.FEEDFORWARD_NN, 0)))

    def test_check_ack(self):
        client = site_client(sim_config())
        client.check_ack(tr.Frame(tr.MSG_JOIN_ACK, 0))
        with pytest.raises(AuthError, match="bad token"):
            client.check_ack(tr.Frame(tr.MSG_ERROR, 0, tr.encode_error("bad token")))
        with pytest.raises(ProtocolError, match="expected JOIN_ACK"):
            client.check_ack(tr.Frame(tr.MSG_BROADCAST, 0))


class TestClientStep:
    """``FederationClient.step`` receives one frame and sends its reply, on
    both transports; a step that fails sends an ERROR saying why."""

    def test_stops_after_shutdown(self):
        site_end, coordinator_end = tr.SimChannel.pair()
        coordinator_end.send(tr.Frame(tr.MSG_SHUTDOWN, 0))
        assert site_client(sim_config()).step(site_end) is False

    def test_failure_is_sent_as_an_error_and_raised(self):
        site_end, coordinator_end = tr.SimChannel.pair()
        coordinator_end.send(broadcast(5, init_params(ModelKind.LOGISTIC_REGRESSION, 0)))
        with pytest.raises(ProtocolError, match="round 5, expected 0"):
            site_client(sim_config()).step(site_end)
        reply = coordinator_end.recv()
        assert reply.msg_type == tr.MSG_ERROR
        assert tr.decode_error(reply.body) == "ProtocolError: broadcast for round 5, expected 0"


def fresh_blob(site: str | None = None) -> bytes:
    """A fresh ciphertext of 11 zeros under HE_OVERRIDES' parameters.  Its c1
    is ``site``'s public ``a`` in round 0 of a ``sim_config`` run (seed 11),
    or, with no site, drawn after its noise."""
    key = keygen(TEST_PARAMS, np.random.default_rng(1))
    a = None
    if site is not None:
        a = federation.public_a(TEST_PARAMS, 11, 0, tuple(SITES), 1)[SITES.index(site)][0]
    return serialize_ct(encrypt(encode(np.zeros(11), TEST_PARAMS), key, np.random.default_rng(0), a=a))


def chunks_broadcast(round_index: int, blob: bytes | None = None) -> tr.Frame:
    """A broadcast of one serialized chunk and a Σw of 4, the form an HE
    coordinator sends after round 0; by default a fresh two-component
    ciphertext, where the coordinator sends a c0 alone."""
    body = tr.BroadcastBody(False, [fresh_blob() if blob is None else blob], 4.0)
    return tr.Frame(tr.MSG_BROADCAST, round_index, tr.encode_broadcast(body))


class TestBroadcastForm:
    """A site takes plaintext θ in plain and DP sessions and in HE round 0,
    and in HE after round 0 the aggregate's c0 chunks and Σw.  No body names
    its form, so a broadcast in the other form fails to decode, and the site
    sends that failure to the coordinator as its ERROR."""

    @staticmethod
    def refusal(client, frame) -> str:
        """The ERROR ``client`` answers ``frame`` with, after checking that its
        step raised the DecodeError the ERROR names."""
        site_end, coordinator_end = tr.SimChannel.pair()
        coordinator_end.send(frame)
        with pytest.raises(DecodeError) as raised:
            client.step(site_end)
        reply = coordinator_end.recv()
        assert reply.msg_type == tr.MSG_ERROR
        error = tr.decode_error(reply.body)
        assert error == f"DecodeError: {raised.value}"
        return error

    @pytest.mark.parametrize("mode", ["plain", "dp"])
    def test_ciphertext_to_a_plaintext_site(self, mode):
        client = site_client(sim_config(f"privacy.mode={mode}"))
        assert self.refusal(client, chunks_broadcast(0)) == "DecodeError: body truncated"

    def test_plaintext_to_an_he_site_after_round_0(self):
        client = site_client(sim_config("privacy.mode=he", *HE_OVERRIDES))
        theta = init_params(ModelKind.LOGISTIC_REGRESSION, 0)
        assert client.handle(broadcast(0, theta)).msg_type == tr.MSG_UPDATE
        assert self.refusal(client, broadcast(1, theta)) == "DecodeError: body truncated"

    def test_ciphertext_to_an_he_site_in_round_0(self):
        client = site_client(sim_config("privacy.mode=he", *HE_OVERRIDES))
        assert self.refusal(client, chunks_broadcast(0)) == "DecodeError: body truncated"

    def test_two_component_chunk_to_an_he_site(self):
        # an HE broadcast carries the aggregate's c0 alone, at the value
        # columns of LR's 11 values; a full ciphertext at level 0 is longer
        client = site_client(sim_config("privacy.mode=he", *HE_OVERRIDES))
        theta = init_params(ModelKind.LOGISTIC_REGRESSION, 0)
        assert client.handle(broadcast(0, theta)).msg_type == tr.MSG_UPDATE
        level_0 = serialize_ct(mul_scalar_rescale(deserialize_ct(fresh_blob(), TEST_PARAMS, 11), 1.0))
        assert self.refusal(client, chunks_broadcast(1, level_0)) == (
            f"DecodeError: expected {c0_bytes(11)} bytes, got {15 + 2 * 8 * 1024}"
        )


def c0_bytes(fill: int) -> int:
    """The bytes of a serialized level-0 c0 of slot fill ``fill`` at its
    value columns: the header and one row."""
    return 15 + 8 * fill


def header_form(level: int, scale_log2: int, fill: int) -> str:
    """A serialized ciphertext's header under TEST_PARAMS, as a refusal
    gives it."""
    return f"params {ckks._context(TEST_PARAMS).hash.hex()}, level {level}, scale 2^{scale_log2}, fill {fill}"


def tampered_c0(fault: str, blob: bytes) -> bytes:
    """An LR aggregate's serialized c0 at its value columns (N = 1024),
    made malformed."""
    return {
        "full_width": lambda: blob + bytes(8 * (1024 - 11)),
        "one_short": lambda: blob[:-8],
        "over_q0": lambda: blob[:-8] + b"\xff" * 8,
        # slot fill 40 names more columns than the row holds
        "fill_vs_width": lambda: blob[:11] + struct.pack("<I", 40) + blob[15:],
        # slot fill 16 with the row zero-padded to 16 columns: it reads
        # back, but is not the chunk's fill
        "fill_same_width": lambda: blob[:11] + struct.pack("<I", 16) + blob[15:] + bytes(8 * 5),
    }[fault]()


C0_REFUSALS = {
    "full_width": f"expected {c0_bytes(11)} bytes, got {15 + 8 * 1024}",
    "one_short": f"expected {c0_bytes(11)} bytes, got {c0_bytes(11) - 8}",
    "over_q0": "coefficient outside its prime modulus",
    "fill_vs_width": f"header gives {header_form(0, 30, 40)}; expected {header_form(0, 30, 11)}",
    "fill_same_width": f"header gives {header_form(0, 30, 16)}; expected {header_form(0, 30, 11)}",
}


def tamper_round_1_broadcast(monkeypatch, site: str, fault: str | None = None, weight_sum=None) -> None:
    """Have ``site`` receive round 1's encrypted broadcast with its c0 made
    malformed by ``fault``, or its Σw replaced by ``weight_sum``; every
    other site receives it as sent."""
    install = FederationClient._install_broadcast

    def tampering_install(self, frame):
        if self.client_id == site and frame.round == 1:
            body = tr.decode_broadcast(frame.body, encrypted=True)
            if fault is not None:
                body = dataclasses.replace(body, payload=[tampered_c0(fault, body.payload[0])])
            if weight_sum is not None:
                body = dataclasses.replace(body, weight_sum=weight_sum)
            frame = tr.Frame(frame.msg_type, frame.round, tr.encode_broadcast(body))
        return install(self, frame)

    monkeypatch.setattr(FederationClient, "_install_broadcast", tampering_install)


class TestSubringBroadcast:
    """A site refuses an encrypted broadcast whose c0 is not one row of its
    chunk's value columns with every coefficient below q0: a whole row, a
    row one coefficient short, a coefficient at or above q0, or a header
    slot fill other than the chunk's, whether the row is as long as that
    fill or not, and a Σw that is not positive and finite.  The run ends in
    a clean abort that names the site."""

    @pytest.mark.parametrize("fault", list(C0_REFUSALS))
    def test_simulated_run_aborts_naming_the_site(self, fault, monkeypatch):
        cfg = sim_config("privacy.mode=he", "timeout_seconds=10", *HE_OVERRIDES)
        victim = cfg.site_names()[1]
        tamper_round_1_broadcast(monkeypatch, victim, fault)
        report = run_simulation(cfg)
        assert report.aborted
        assert report.abort_reason == (
            f"ProtocolError: client {victim!r} failed: DecodeError: {C0_REFUSALS[fault]}"
        )
        assert len(report.rounds) == 1

    @pytest.mark.parametrize(
        "weight_sum", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"]
    )
    def test_weight_sum_not_positive_aborts_naming_the_site(self, weight_sum, monkeypatch):
        cfg = sim_config("privacy.mode=he", "timeout_seconds=10", *HE_OVERRIDES)
        victim = cfg.site_names()[1]
        tamper_round_1_broadcast(monkeypatch, victim, weight_sum=weight_sum)
        report = run_simulation(cfg)
        assert report.abort_reason == (
            f"ProtocolError: client {victim!r} failed: "
            f"LayoutError: the aggregate's weight sum {weight_sum} is not positive"
        )
        assert len(report.rounds) == 1

    def test_chunk_count_is_fixed_by_the_session(self):
        client = site_client(sim_config("privacy.mode=he", *HE_OVERRIDES))
        theta = init_params(ModelKind.LOGISTIC_REGRESSION, 0)
        assert client.handle(broadcast(0, theta)).msg_type == tr.MSG_UPDATE
        blob = fresh_blob()
        body = tr.BroadcastBody(False, [blob, blob], 4.0)
        with pytest.raises(LayoutError, match="the aggregate has 2 chunks, expected 1"):
            client.handle(tr.Frame(tr.MSG_BROADCAST, 1, tr.encode_broadcast(body)))

    def test_tcp_run_aborts_naming_the_site(self, monkeypatch):
        cfg = sim_config("privacy.mode=he", "timeout_seconds=10", *HE_OVERRIDES)
        victim = cfg.site_names()[2]
        tamper_round_1_broadcast(monkeypatch, victim, "fill_vs_width")
        report, ended = run_simulation_thread_per_client(cfg)
        assert report.abort_reason == (
            f"ProtocolError: client {victim!r} failed: DecodeError: {C0_REFUSALS['fill_vs_width']}"
        )
        assert isinstance(ended[victim], DecodeError)
        assert len(report.rounds) == 1


class TestRoundSequence:
    def test_out_of_sequence_broadcast_rejected(self):
        client = site_client(sim_config())
        with pytest.raises(ProtocolError, match="round 5, expected 0"):
            client.handle(broadcast(5, init_params(ModelKind.LOGISTIC_REGRESSION, 0)))

    def test_replayed_broadcast_rejected(self):
        client = site_client(sim_config())
        frame = broadcast(0, init_params(ModelKind.LOGISTIC_REGRESSION, 0))
        assert client.handle(frame).msg_type == tr.MSG_UPDATE
        with pytest.raises(ProtocolError, match="round 0, expected 1"):
            client.handle(frame)


class TestSimulationSchedule:
    def test_one_thread_steps_every_client(self, monkeypatch):
        stepped = set()
        handle = FederationClient.handle

        def recording_handle(self, frame):
            stepped.add((self.client_id, threading.get_ident()))
            return handle(self, frame)

        started = []
        monkeypatch.setattr(FederationClient, "handle", recording_handle)
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        cfg = sim_config()
        report = run_simulation(cfg)
        monkeypatch.undo()
        assert not report.aborted, report.abort_reason
        assert started == []
        assert stepped == {(cid, threading.get_ident()) for cid in cfg.site_names()}

    def test_no_thread_outlives_the_run(self):
        before = set(threading.enumerate())
        assert not run_simulation(sim_config("rounds=1")).aborted
        for thread in set(threading.enumerate()) - before:
            thread.join(timeout=10)
            assert not thread.is_alive(), thread.name

    @pytest.mark.parametrize("mode", ["plain", "dp", "he"])
    def test_matches_thread_per_client_oracle(self, mode, monkeypatch):
        monkeypatch.delenv("PRIVFED_TOKEN", raising=False)
        cfg = load_config(None, [f"privacy.mode={mode}", *TINY])
        driven = run_simulation(cfg)
        threaded, ended = run_simulation_thread_per_client(cfg)
        assert not driven.aborted and not threaded.aborted
        assert ended == dict.fromkeys(cfg.site_names())  # every site got SHUTDOWN
        assert nontiming_view(driven.to_dict()) == nontiming_view(threaded.to_dict())

    def test_failing_client_ends_run_at_once(self, monkeypatch):
        cfg = sim_config("rounds=3")
        assert cfg.timeout_seconds >= 600  # the default the abort must not wait for
        failing = crash_site(monkeypatch, cfg, 1)
        t0 = time.monotonic()
        report = run_simulation(cfg)
        assert time.monotonic() - t0 < 30
        assert report.aborted
        assert report.abort_reason == failed_reason(failing)
        assert report.rounds == []
        assert not any(t.name == "privfed-clients" for t in threading.enumerate())


def crash_site(monkeypatch, cfg, index: int) -> str:
    """Make local training raise on the site at ``index``; returns its name."""
    name = cfg.site_names()[index]
    failing_train = build_site_datasets(cfg)[name][0]
    train_local = federation.train_local

    def crashing_train_local(kind, params, data, train_cfg):
        if np.array_equal(data.labels, failing_train.labels):
            raise RuntimeError("site disk unreadable")
        return train_local(kind, params, data, train_cfg)

    monkeypatch.setattr(federation, "train_local", crashing_train_local)
    return name


def failed_reason(site: str) -> str:
    """The abort reason of a run whose ``site`` raised in ``crash_site``."""
    return f"ProtocolError: client {site!r} failed: RuntimeError: site disk unreadable"


class TestFailingSite:
    """A site that fails sends an ERROR saying why, so the coordinator's
    report gives the same reason on both transports, and every other site is
    told that the run aborted."""

    def test_same_abort_reason_on_both_transports(self, monkeypatch):
        cfg = sim_config("timeout_seconds=10")
        failing = crash_site(monkeypatch, cfg, 1)
        simulated = run_simulation(cfg)
        over_tcp, ended = run_simulation_thread_per_client(cfg)
        assert simulated.abort_reason == failed_reason(failing)
        assert over_tcp.abort_reason == failed_reason(failing)
        assert str(ended[failing]) == "site disk unreadable"

    def test_healthy_tcp_sites_hear_the_run_aborted(self, monkeypatch):
        cfg = sim_config("timeout_seconds=10")
        failing = crash_site(monkeypatch, cfg, 1)
        report, ended = run_simulation_thread_per_client(cfg)
        assert report.aborted
        for name in cfg.site_names():
            if name != failing:
                assert isinstance(ended[name], ProtocolError), (name, ended[name])
                assert str(ended[name]) == f"run aborted: {failed_reason(failing)}"


def join_frame(cfg, name) -> tr.Frame:
    body = tr.JoinBody(name, cfg.token, 10, cfg.session_digest())
    return tr.Frame(tr.MSG_JOIN, 0, tr.encode_join(body))


METRICS = MetricSet(0.5, 0.0, 1.0, 1, 1, 0.5)


def update_frame(round_index=0, values=np.zeros(11), mode="plain") -> tr.Frame:
    """A plain update, or one in ``mode``'s form, by default a well-formed
    one for LR."""
    body = tr.UpdateBody(1, values, 0.0, 0.0, METRICS, METRICS)
    return tr.Frame(tr.MSG_UPDATE, round_index, tr.encode_update(body, mode))


def chunks_update_frame(*blobs: bytes) -> tr.Frame:
    """A round-0 HE update of these serialized ciphertexts."""
    body = tr.UpdateBody(1, list(blobs), 0.0, 0.0, METRICS, METRICS)
    return tr.Frame(tr.MSG_UPDATE, 0, tr.encode_update(body, "he"))


def round_done_frame(round_index, final_params=None) -> tr.Frame:
    body = tr.RoundDoneBody(METRICS, final_params)
    return tr.Frame(tr.MSG_ROUND_DONE, round_index, tr.encode_round_done(body))


def sim_coordinator(cfg):
    """A coordinator with every site joined over SimChannels, and the sites'
    ends of those channels with the JOIN_ACK already read."""
    server = FederationServer(cfg)
    server_ends, client_ends = zip(*(tr.SimChannel.pair() for _ in cfg.site_names()))
    for name, client_end in zip(cfg.site_names(), client_ends):
        client_end.send(join_frame(cfg, name))
    server.accept_clients(list(server_ends), timeout=5)
    for client_end in client_ends:
        assert client_end.recv(timeout=5).msg_type == tr.MSG_JOIN_ACK
    return server, client_ends


class TestTimeout:
    def test_silent_client_aborts_run_with_partial_report(self):
        cfg = sim_config("timeout_seconds=0.5", "rounds=3")
        server, _ = sim_coordinator(cfg)
        report = server.run()  # nobody ever sends an update
        assert report.aborted
        assert "RoundTimeoutError" in report.abort_reason
        assert report.rounds == []


def sent_frames(monkeypatch, channel_cls) -> list:
    """Record every frame sent over ``channel_cls`` from now on."""
    sent = []
    send = channel_cls.send

    def recording_send(self, frame):
        sent.append(frame)
        return send(self, frame)

    monkeypatch.setattr(channel_cls, "send", recording_send)
    return sent


# (the run's overrides, one site's overrides)
DRIFTS = {
    "model": ([], ["model=nn"]),
    "dp_epsilon": (["privacy.mode=dp"], ["privacy.mode=dp", "privacy.dp.epsilon=1e9"]),
    "he_params": (
        ["privacy.mode=he", *HE_OVERRIDES],
        ["privacy.mode=he", *HE_OVERRIDES, "privacy.he.scale_log2=29"],
    ),
    "weighting": ([], ["weighting=examples"]),
}


class TestSessionSettings:
    """A JOIN carries the digest of the site's session settings, and the
    coordinator refuses a site whose settings differ from its own before any
    round starts."""

    def run_with_drifted_site(self, monkeypatch, run_overrides, site_overrides):
        """``run_simulation`` in which the third site's config takes
        ``site_overrides`` instead of ``run_overrides``: checks the refusal and
        returns the ERROR frame's message and the count of each frame type sent."""
        cfg = sim_config(*run_overrides, "timeout_seconds=5")
        site_cfg = sim_config(*site_overrides, "timeout_seconds=5")
        drifted = cfg.site_names()[2]

        def site_client(run_cfg, name, train, valid):
            return FederationClient(site_cfg if name == drifted else run_cfg, name, train, valid)

        monkeypatch.setattr(federation, "FederationClient", site_client)
        sent = sent_frames(monkeypatch, tr.SimChannel)
        with pytest.raises(ConfigError) as refused:
            run_simulation(cfg)
        (error,) = [tr.decode_error(f.body) for f in sent if f.msg_type == tr.MSG_ERROR]
        counts = Counter(f.msg_type for f in sent)
        assert str(refused.value) == f"client {drifted!r} joined with other session settings"
        return error, counts

    @pytest.mark.parametrize("run_overrides, site_overrides", DRIFTS.values(), ids=DRIFTS.keys())
    def test_drifted_site_refused_at_join(self, monkeypatch, run_overrides, site_overrides):
        error, counts = self.run_with_drifted_site(monkeypatch, run_overrides, site_overrides)
        assert error.startswith("session settings differ from the coordinator's")
        assert counts == {tr.MSG_JOIN: 4, tr.MSG_JOIN_ACK: 2, tr.MSG_ERROR: 1}

    @pytest.mark.parametrize("mode, overrides", [("dp", []), ("he", HE_OVERRIDES)], ids=["dp", "he"])
    def test_site_in_another_mode_refused_at_join(self, monkeypatch, mode, overrides):
        # the site would train and send an unfiltered, unencrypted delta
        _, counts = self.run_with_drifted_site(
            monkeypatch, [f"privacy.mode={mode}", *overrides], ["privacy.mode=plain"]
        )
        assert counts[tr.MSG_UPDATE] == 0
        assert counts[tr.MSG_BROADCAST] == 0

    def test_site_differing_only_in_out_dir_joins(self, monkeypatch):
        cfg = sim_config("rounds=1")
        site_cfg = sim_config("rounds=1")
        site_cfg.out_dir = "elsewhere"
        assert site_cfg.session_digest() == cfg.session_digest()
        monkeypatch.setattr(
            federation,
            "FederationClient",
            lambda run_cfg, name, train, valid: FederationClient(site_cfg, name, train, valid),
        )
        assert not run_simulation(cfg).aborted

    @pytest.mark.parametrize("overrides", [[], ["privacy.mode=dp"], ["privacy.mode=he", *HE_OVERRIDES]])
    def test_digest_covers_the_session_settings_only(self, overrides):
        cfg = sim_config(*overrides)
        echo = cfg.to_dict()
        privacy = echo["privacy"]
        settings = {
            "model": echo["model"],
            "privacy_mode": privacy["mode"],
            "dp": privacy["dp"],
            "he": privacy["he"],
            "weighting": echo["weighting"],
        }
        assert sorted(settings) == sorted(SESSION_KEYS)
        canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"))
        assert cfg.session_digest() == hashlib.sha256(canonical.encode()).digest()[:8]
        assert len(cfg.session_digest()) == tr.SESSION_DIGEST_BYTES
        assert sim_config(*overrides, "seed=12", "token=other").session_digest() == cfg.session_digest()
        assert sim_config(*overrides, "threshold=0.4").session_digest() == cfg.session_digest()

    def test_drifted_site_refused_over_tcp(self, monkeypatch):
        cfg = sim_config("privacy.mode=dp", "timeout_seconds=10")
        site_cfg = sim_config("privacy.mode=plain", "timeout_seconds=10")
        name = cfg.site_names()[0]
        train, valid = build_site_datasets(site_cfg, only_site=name)[name]
        listener = tr.TcpListener("127.0.0.1", 0)
        sent = sent_frames(monkeypatch, tr.TcpChannel)
        result = {}

        def serve():
            channel = tr.open_tcp_channel("127.0.0.1", listener.port)
            try:
                FederationClient(site_cfg, name, train, valid).run(channel)
            except AuthError as err:
                result["site"] = err
            finally:
                channel.close()

        thread = threading.Thread(target=serve)
        thread.start()
        channel = listener.accept(timeout=10)
        try:
            with pytest.raises(ConfigError, match="joined with other session settings"):
                FederationServer(cfg).accept_clients([channel], timeout=10)
        finally:
            channel.close()
            thread.join(timeout=10)
            listener.close()
        assert not thread.is_alive()
        assert str(result["site"]).startswith("session settings differ")
        assert [f.msg_type for f in sent] == [tr.MSG_JOIN, tr.MSG_ERROR]


# the refusal's account of the form a site's update of LR's 11 values takes
FRESH = f"expected {header_form(1, 30, 11)}"


# a well-formed DP update of LR's 11 values: c = 0.5, 3 code bytes whose
# last holds 1 padding code, and one literal, 0.25
DP_VALUES = np.array([0.0, 0.5, -0.5, 0.25, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, -0.5])


def recoded_dp_update(edit) -> tr.Frame:
    """A DP update frame whose payload, the ternary code of DP_VALUES, is
    replaced by ``edit(payload)``."""
    body = update_frame(values=DP_VALUES, mode="dp").body
    head = 20 + 2 * 40
    return tr.Frame(tr.MSG_UPDATE, 0, body[:head] + edit(body[head:]))


def malformed_update(fault: str) -> tr.Frame:
    """An update that does not fit its session: a plain LR update must be
    11 finite values, a DP one their whole ternary code, an HE one a single
    fresh ciphertext of 11 values whose c1 is the site's public ``a``."""
    blob = fresh_blob()
    return {
        "dp_truncated_codes": lambda: recoded_dp_update(lambda p: p[:17]),
        "dp_padding_bits": lambda: recoded_dp_update(lambda p: p[:18] + bytes([p[18] | 0xC0]) + p[19:]),
        "dp_missing_literal": lambda: recoded_dp_update(lambda p: p[:-8]),
        "dp_extra_literal": lambda: recoded_dp_update(lambda p: p + p[-8:]),
        "dp_trailing_bytes": lambda: recoded_dp_update(lambda p: p + b"\x00\x00\x00"),
        "dp_short": lambda: update_frame(values=DP_VALUES[:10], mode="dp"),
        "dp_infinite_c": lambda: update_frame(values=np.where(DP_VALUES > 0, np.inf, 0.0), mode="dp"),
        "short": lambda: update_frame(values=np.zeros(10)),
        "nan": lambda: update_frame(values=np.where(np.arange(11) == 4, np.nan, 0.0)),
        "two_chunks": lambda: chunks_update_frame(blob, blob),
        "no_chunks": lambda: chunks_update_frame(),
        "level_0": lambda: chunks_update_frame(
            serialize_ct(mul_scalar_rescale(deserialize_ct(blob, TEST_PARAMS, 11), 1.0))
        ),
        "half_scale": lambda: chunks_update_frame(blob[:9] + struct.pack("<H", 29) + blob[11:]),
        "fill": lambda: chunks_update_frame(blob[:11] + struct.pack("<I", 12) + blob[15:]),
        "private_a": lambda: chunks_update_frame(blob),
    }[fault]()


class TestSequentialCollect:
    """The coordinator reads the sites in site order; each fault aborts the
    run within ``timeout_seconds`` with a reason that names the site."""

    def test_update_for_wrong_round(self):
        cfg = sim_config("timeout_seconds=5")
        second = cfg.site_names()[1]
        server, client_ends = sim_coordinator(cfg)
        client_ends[0].send(update_frame())
        client_ends[1].send(update_frame(round_index=3))
        t0 = time.monotonic()
        report = server.run()
        assert time.monotonic() - t0 < cfg.timeout_seconds
        assert report.aborted
        assert report.abort_reason.startswith(f"ProtocolError: client {second!r} sent type")
        assert "for round 3, expected type 3 round 0" in report.abort_reason
        assert report.rounds == []

    def test_corrupt_ciphertext_names_its_site(self):
        cfg = sim_config("privacy.mode=he", "timeout_seconds=5", *HE_OVERRIDES)
        names = cfg.site_names()
        server, client_ends = sim_coordinator(cfg)
        for i, (name, client_end) in enumerate(zip(names, client_ends)):
            blob = fresh_blob(name)
            if i == 2:
                blob = blob[:-8] + b"\xff" * 8  # the last residue is >= q
            client_end.send(chunks_update_frame(blob))
        report = server.run()
        assert report.aborted
        assert report.abort_reason == (
            f"ProtocolError: client {names[2]!r} sent a bad ciphertext: "
            "coefficient outside its prime modulus"
        )
        assert report.rounds == []

    @pytest.mark.parametrize("rounds", [1, 0], ids=["update", "round_done"])
    def test_truncated_body_names_its_site(self, rounds):
        # rounds=0 goes straight to the final broadcast, answered by ROUND_DONE
        cfg = sim_config(f"rounds={rounds}", "timeout_seconds=5")
        names = cfg.site_names()
        server, client_ends = sim_coordinator(cfg)
        for i, client_end in enumerate(client_ends):
            frame = update_frame() if rounds else round_done_frame(0)
            if i == 1:
                frame = tr.Frame(frame.msg_type, frame.round, frame.body[:-3])
            client_end.send(frame)
        report = server.run()
        assert report.aborted
        assert report.abort_reason == (
            f"ProtocolError: client {names[1]!r} sent a bad body: body truncated"
        )
        assert report.rounds == []

    @pytest.mark.parametrize(
        "fault, every_site, reason",
        [
            ("short", False, "sent an update that is not 11 finite values"),
            ("short", True, "sent an update that is not 11 finite values"),
            ("nan", False, "sent an update that is not 11 finite values"),
            ("two_chunks", False, "sent 2 chunks, expected 1"),
            ("no_chunks", False, "sent 0 chunks, expected 1"),
            ("level_0", False, f"sent a bad ciphertext: header gives {header_form(0, 30, 11)}; {FRESH}"),
            ("half_scale", False, f"sent a bad ciphertext: header gives {header_form(1, 29, 11)}; {FRESH}"),
            ("fill", False, f"sent a bad ciphertext: header gives {header_form(1, 30, 12)}; {FRESH}"),
            ("private_a", False, "sent a c1 that is not its public a"),
            ("dp_truncated_codes", False, "sent a bad body: body truncated"),
            ("dp_padding_bits", False, "sent a bad body: nonzero padding bits after the last value's code"),
            ("dp_missing_literal", False, "sent a bad body: body truncated"),
            ("dp_extra_literal", False, "sent a bad body: trailing bytes in body"),
            ("dp_trailing_bytes", False, "sent a bad body: trailing bytes in body"),
            ("dp_short", False, "sent an update that is not 11 finite values"),
            ("dp_infinite_c", True, "sent an update that is not 11 finite values"),
        ],
        ids=[
            "short_at_one_site",
            "short_at_every_site",
            "nan",
            "two_chunks",
            "no_chunks",
            "level_0",
            "half_scale",
            "fill",
            "private_a",
            "dp_truncated_codes",
            "dp_padding_bits",
            "dp_missing_literal",
            "dp_extra_literal",
            "dp_trailing_bytes",
            "dp_short",
            "dp_infinite_c",
        ],
    )
    def test_malformed_update_names_its_site(self, fault, every_site, reason):
        mode = "plain" if fault in ("short", "nan") else "dp" if fault.startswith("dp_") else "he"
        cfg = sim_config(f"privacy.mode={mode}", *(HE_OVERRIDES if mode == "he" else []), "timeout_seconds=5")
        names = cfg.site_names()
        server, client_ends = sim_coordinator(cfg)
        for i, (name, client_end) in enumerate(zip(names, client_ends)):
            good = {
                "plain": update_frame,
                "dp": lambda: update_frame(values=DP_VALUES, mode="dp"),
                "he": lambda: chunks_update_frame(fresh_blob(name)),
            }[mode]()
            client_end.send(malformed_update(fault) if every_site or i == 2 else good)
        report = server.run()
        culprit = names[0] if every_site else names[2]
        assert report.abort_reason == f"ProtocolError: client {culprit!r} {reason}"
        assert report.rounds == []

    def test_silent_site_after_a_live_one(self):
        cfg = sim_config("timeout_seconds=0.5")
        first, second = cfg.site_names()[:2]
        server, client_ends = sim_coordinator(cfg)
        client_ends[0].send(update_frame())
        t0 = time.monotonic()
        report = server.run()
        assert time.monotonic() - t0 < cfg.timeout_seconds + 0.5
        assert report.aborted
        assert report.abort_reason == f"RoundTimeoutError: round 0: no reply from {second!r}"
        assert [kind for _, kind, who in report.event_log if who == first] == [
            "join",
            "update_received",
        ]


class TestCoordinatorState:
    def test_round_records_the_join_weight(self):
        # every JOIN claims 10 training rows, so each site weighs 10
        cfg = sim_config("weighting=examples", "rounds=1", "timeout_seconds=5")
        server, client_ends = sim_coordinator(cfg)
        for client_end in client_ends:
            client_end.send(update_frame())
            client_end.send(round_done_frame(1))
        report = server.run()
        assert not report.aborted, report.abort_reason
        assert [c.weight for c in report.rounds[0].clients] == [10.0] * 4

    def test_he_coordinator_builds_no_key(self, monkeypatch):
        cfg = sim_config("privacy.mode=he", "rounds=1", "timeout_seconds=5", *HE_OVERRIDES)
        names = cfg.site_names()
        pipelines = [HePipeline(cfg.he, cfg.seed, name, names, 11) for name in names]

        def no_keygen(*args):
            raise AssertionError("the coordinator derived a key")

        monkeypatch.setattr(federation, "keygen", no_keygen)
        monkeypatch.setattr(ckks, "keygen", no_keygen)
        server, client_ends = sim_coordinator(cfg)
        for i, (pipe, client_end) in enumerate(zip(pipelines, client_ends)):
            blobs = pipe.client_encode(np.full(11, float(i)), 0, np.random.default_rng(i))
            client_end.send(chunks_update_frame(*blobs))
            client_end.send(round_done_frame(1, np.zeros(11)))
        report = server.run()
        assert not report.aborted, report.abort_reason
        assert not any(isinstance(v, (HePipeline, KeyPair)) for v in vars(server).values())
        for pipe, client_end in zip(pipelines, client_ends):
            assert client_end.recv().round == 0
            final = tr.decode_broadcast(client_end.recv().body, encrypted=True)
            assert final.final
            assert final.weight_sum == 4.0
            out, _ = pipe.client_decode(final, 1)
            assert np.abs(out - 1.5).max() < 1e-3  # the mean of 0, 1, 2, 3

    def test_he_final_without_parameters_aborts_run(self):
        cfg = sim_config("privacy.mode=he", "rounds=0", "timeout_seconds=5", *HE_OVERRIDES)
        names = cfg.site_names()
        server, client_ends = sim_coordinator(cfg)
        for client_end in client_ends:
            client_end.send(round_done_frame(0))
        report = server.run()
        assert report.aborted
        assert report.abort_reason == f"ProtocolError: client {names[0]!r} sent a bad body: body truncated"

    def test_he_final_parameters_must_agree_bitwise(self):
        cfg = sim_config("privacy.mode=he", "rounds=0", "timeout_seconds=5", *HE_OVERRIDES)
        names = cfg.site_names()
        server, client_ends = sim_coordinator(cfg)
        for i, client_end in enumerate(client_ends):
            final = np.zeros(11)
            if i == 2:
                final[4] = -0.0  # equal as a number, not bitwise
            client_end.send(round_done_frame(0, final))
        report = server.run()
        assert report.aborted
        assert report.abort_reason == (
            f"ProtocolError: client {names[2]!r} sent final parameters that differ from {names[0]!r}'s"
        )
        assert report.cross_site is not None  # the validation rows still stand

    @pytest.mark.parametrize(
        "mode, wrong_mode, reason",
        [
            ("plain", "he", "body truncated"),
            ("he", "plain", "trailing bytes in body"),  # 11 zeros
            ("dp", "plain", "trailing bytes in body"),  # 11 zeros read as one c and 3 code bytes
            ("plain", "dp", "body truncated"),
        ],
        ids=["plain", "he", "dp", "dp_code_to_plain"],
    )
    def test_payload_of_the_other_kind_aborts_run(self, mode, wrong_mode, reason):
        overrides = HE_OVERRIDES if mode == "he" else []
        cfg = sim_config(f"privacy.mode={mode}", "timeout_seconds=5", *overrides)
        names = cfg.site_names()
        server, client_ends = sim_coordinator(cfg)
        frames = {
            "plain": update_frame(),
            "dp": update_frame(values=DP_VALUES, mode="dp"),
            "he": chunks_update_frame(fresh_blob()),
        }
        for i, client_end in enumerate(client_ends):
            client_end.send(frames[wrong_mode] if i == 1 else frames[mode])
        report = server.run()
        assert report.aborted
        assert report.abort_reason == f"ProtocolError: client {names[1]!r} sent a bad body: {reason}"
        assert report.rounds == []


class TestTcpCoordinator:
    def test_starts_no_thread(self, monkeypatch):
        cfg = sim_config("rounds=1", "timeout_seconds=10")
        datasets = build_site_datasets(cfg)
        listener = tr.TcpListener("127.0.0.1", 0)

        def serve(name):
            channel = tr.open_tcp_channel("127.0.0.1", listener.port)
            try:
                FederationClient(cfg, name, *datasets[name]).run(channel)
            finally:
                channel.close()

        clients = [threading.Thread(target=serve, args=(name,)) for name in cfg.site_names()]
        for thread in clients:
            thread.start()
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        server = FederationServer(cfg)
        try:
            server.accept_clients([listener.accept(timeout=10) for _ in clients], timeout=10)
            report = server.run()
        finally:
            monkeypatch.undo()
            listener.close()
            for record in server.clients.values():
                record.channel.close()
        for thread in clients:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert not report.aborted, report.abort_reason
        assert started == []

    def test_run_closes_every_accepted_socket(self, monkeypatch):
        cfg = sim_config("rounds=1", "timeout_seconds=10")
        datasets = build_site_datasets(cfg)
        ports = []
        listening = threading.Event()

        class RecordingListener(tr.TcpListener):
            def __init__(self, host, port):
                super().__init__(host, port)
                ports.append(self.port)
                listening.set()

        def serve(name):
            assert listening.wait(10)
            channel = tr.open_tcp_channel("127.0.0.1", ports[0])
            try:
                FederationClient(cfg, name, *datasets[name]).run(channel)
            finally:
                channel.close()

        monkeypatch.setattr(tr, "TcpListener", RecordingListener)
        clients = [threading.Thread(target=serve, args=(name,)) for name in cfg.site_names()]
        for thread in clients:
            thread.start()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                report = federation.run_tcp_server(cfg, "127.0.0.1", 0)
            finally:
                for thread in clients:
                    thread.join(timeout=10)
            gc.collect()
        assert not any(thread.is_alive() for thread in clients)
        assert not report.aborted, report.abort_reason
        assert [str(w.message) for w in caught if "unclosed <socket" in str(w.message)] == []

    def coordinate_in_thread(self, cfg, monkeypatch):
        """Start ``run_tcp_server`` on a free port in a thread; returns the
        thread, the port and a dict that receives its report or error."""
        ports = []
        listening = threading.Event()

        class RecordingListener(tr.TcpListener):
            def __init__(self, host, port):
                super().__init__(host, port)
                ports.append(self.port)
                listening.set()

        monkeypatch.setattr(tr, "TcpListener", RecordingListener)
        result = {}

        def coordinate():
            try:
                result["report"] = federation.run_tcp_server(cfg, "127.0.0.1", 0)
            except Exception as err:
                result["error"] = err

        thread = threading.Thread(target=coordinate)
        thread.start()
        assert listening.wait(10)
        return thread, ports[0], result

    @pytest.mark.parametrize("mode", ["he", "dp"])
    def test_run_matches_the_simulation(self, mode, monkeypatch):
        # criterion 11's check in an HE and a DP session: run_tcp_server and
        # four run_tcp_client sites on localhost give the simulation's report
        overrides = HE_OVERRIDES if mode == "he" else ["model=nn"]
        cfg = sim_config(f"privacy.mode={mode}", "timeout_seconds=30", *overrides)
        thread, port, result = self.coordinate_in_thread(cfg, monkeypatch)
        sites = [
            threading.Thread(target=federation.run_tcp_client, args=(cfg, name, "127.0.0.1", port))
            for name in cfg.site_names()
        ]
        for site in sites:
            site.start()
        for site in [*sites, thread]:
            site.join(timeout=60)
            assert not site.is_alive()
        over_tcp = result["report"]
        assert not over_tcp.aborted, over_tcp.abort_reason
        assert len(over_tcp.rounds) == 2
        assert nontiming_view(over_tcp.to_dict()) == nontiming_view(run_simulation(cfg).to_dict())

    def test_refused_connections_do_not_stop_the_coordinator(self, monkeypatch):
        # a port probe that connects and hangs up, a JOIN with a wrong token,
        # then a first frame other than JOIN: each is closed and the four
        # sites still run to the end
        cfg = sim_config("rounds=1", "timeout_seconds=10")
        datasets = build_site_datasets(cfg)
        thread, port, result = self.coordinate_in_thread(cfg, monkeypatch)
        tr.open_tcp_channel("127.0.0.1", port).close()
        intruder = tr.open_tcp_channel("127.0.0.1", port)
        try:
            body = tr.JoinBody(cfg.site_names()[0], "not-the-token", 10, cfg.session_digest())
            intruder.send(tr.Frame(tr.MSG_JOIN, 0, tr.encode_join(body)))
            reply = intruder.recv(timeout=10)
            assert reply.msg_type == tr.MSG_ERROR
            assert tr.decode_error(reply.body) == "bad token"
            with pytest.raises(tr.ChannelClosed):
                intruder.recv(timeout=10)
        finally:
            intruder.close()
        talker = tr.open_tcp_channel("127.0.0.1", port)
        try:
            talker.send(update_frame())
            assert tr.decode_error(talker.recv(timeout=10).body) == "expected JOIN"
            with pytest.raises(tr.ChannelClosed):
                talker.recv(timeout=10)
        finally:
            talker.close()

        def serve(name):
            channel = tr.open_tcp_channel("127.0.0.1", port)
            try:
                FederationClient(cfg, name, *datasets[name]).run(channel)
            finally:
                channel.close()

        sites = [threading.Thread(target=serve, args=(name,)) for name in cfg.site_names()]
        for site in sites:
            site.start()
        for site in [*sites, thread]:
            site.join(timeout=20)
            assert not site.is_alive()
        report = result["report"]
        assert not report.aborted, report.abort_reason
        refused = [who for _, kind, who in report.event_log if kind == "refused"]
        assert refused == [
            "ChannelClosed: peer closed the channel",
            f"AuthError: client {cfg.site_names()[0]!r} presented a bad token",
            "ProtocolError: client spoke before joining",
        ]
        joined = [who for _, kind, who in report.event_log if kind == "join"]
        assert sorted(joined) == sorted(cfg.site_names())

    def test_missing_site_ends_with_the_join_deadline(self, monkeypatch):
        # three sites join; the coordinator gives up on the fourth when
        # timeout_seconds have passed since it started listening
        cfg = sim_config("rounds=1", "timeout_seconds=2")
        thread, port, result = self.coordinate_in_thread(cfg, monkeypatch)
        t0 = time.monotonic()
        channels = [tr.open_tcp_channel("127.0.0.1", port) for _ in range(3)]
        try:
            for name, channel in zip(cfg.site_names(), channels):
                channel.send(join_frame(cfg, name))
                assert channel.recv(timeout=10).msg_type == tr.MSG_JOIN_ACK
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            for channel in channels:
                channel.close()
        assert time.monotonic() - t0 < 5
        error = result["error"]
        assert isinstance(error, ProtocolError)
        assert str(error) == f"sites never joined: [{cfg.site_names()[3]!r}]"

    def test_stalled_connections_do_not_keep_sites_out(self, monkeypatch):
        # a connection that sends nothing and one that stops halfway through
        # a frame header stay open while the four sites join and run
        cfg = sim_config("rounds=1", "timeout_seconds=8")
        datasets = build_site_datasets(cfg)
        thread, port, result = self.coordinate_in_thread(cfg, monkeypatch)
        t0 = time.monotonic()
        silent = tr.open_tcp_channel("127.0.0.1", port)
        stalled = tr.open_tcp_channel("127.0.0.1", port)
        try:
            stalled._sock.sendall(tr.frame_encode(join_frame(cfg, cfg.site_names()[0]))[:8])

            def serve(name):
                channel = tr.open_tcp_channel("127.0.0.1", port)
                try:
                    FederationClient(cfg, name, *datasets[name]).run(channel)
                finally:
                    channel.close()

            sites = [threading.Thread(target=serve, args=(name,)) for name in cfg.site_names()]
            for site in sites:
                site.start()
            for site in [*sites, thread]:
                site.join(timeout=20)
                assert not site.is_alive()
        finally:
            silent.close()
            stalled.close()
        assert time.monotonic() - t0 < cfg.timeout_seconds
        report = result["report"]
        assert not report.aborted, report.abort_reason
        joined = [who for _, kind, who in report.event_log if kind == "join"]
        assert sorted(joined) == sorted(cfg.site_names())
        refused = [who for _, kind, who in report.event_log if kind == "refused"]
        assert refused == ["TimeoutError: no whole JOIN when joining ended"] * 2

    def two_site_config(self):
        sites = [{"name": name, "n_negative": 200, "n_positive": 40} for name in ("a", "b")]
        return sim_config(
            f"data.sites={json.dumps(sites)}",
            "data.scale_factor=1",
            "rounds=1",
            "timeout_seconds=10",
        )

    def test_site_that_hung_up_after_joining_aborts_the_run(self, monkeypatch):
        # b sends a valid JOIN and hangs up, so the ACK to it draws a reset
        # and the round-0 broadcast to b fails: the run ends in a report
        # aborted for b, and a hears that the run aborted
        cfg = self.two_site_config()
        b_joined = threading.Event()
        log = FederationServer._log

        def logging(server, kind, who=""):
            log(server, kind, who)
            if (kind, who) == ("join", "b"):
                b_joined.set()

        monkeypatch.setattr(FederationServer, "_log", logging)
        thread, port, result = self.coordinate_in_thread(cfg, monkeypatch)
        b = tr.open_tcp_channel("127.0.0.1", port)
        b.send(join_frame(cfg, "b"))
        b.close()
        assert b_joined.wait(10)
        with pytest.raises(ProtocolError, match="^run aborted: ProtocolError: client 'b' failed: "):
            federation.run_tcp_client(cfg, "a", "127.0.0.1", port)
        thread.join(timeout=10)
        assert not thread.is_alive()
        report = result["report"]
        assert report.aborted
        assert report.abort_reason.startswith("ProtocolError: client 'b' failed: ")

    def test_site_whose_ack_fails_joins_again(self, monkeypatch):
        # the first ACK to b cannot be sent: b is refused, not left
        # registered on a dead socket, so it reconnects and the run completes
        cfg = self.two_site_config()
        send = tr.TcpChannel.send
        failed = []

        def failing_first_ack(channel, frame):
            if frame.msg_type == tr.MSG_JOIN_ACK and not failed:
                failed.append(channel)
                channel._sock.shutdown(socket.SHUT_WR)  # so the send below fails
            return send(channel, frame)

        monkeypatch.setattr(tr.TcpChannel, "send", failing_first_ack)
        thread, port, result = self.coordinate_in_thread(cfg, monkeypatch)
        with pytest.raises(tr.ChannelClosed, match="^peer closed the channel$"):
            federation.run_tcp_client(cfg, "b", "127.0.0.1", port)
        ended = {}

        def serve(name):
            try:
                federation.run_tcp_client(cfg, name, "127.0.0.1", port)
            except Exception as err:
                ended[name] = err

        sites = [threading.Thread(target=serve, args=(name,)) for name in ("a", "b")]
        for site in sites:
            site.start()
        for site in [*sites, thread]:
            site.join(timeout=20)
            assert not site.is_alive()
        assert ended == {}
        report = result["report"]
        assert not report.aborted, report.abort_reason
        refused = [who for _, kind, who in report.event_log if kind == "refused"]
        assert refused == ["ProtocolError: client 'b' failed: send failed: Broken pipe"]
        joined = [who for _, kind, who in report.event_log if kind == "join"]
        assert sorted(joined) == ["a", "b"]

    def faulty_second_site(self, fault):
        """Run a TCP coordinator whose first site sends a good update and whose
        second site calls ``fault(socket, its update frame)`` and hangs up.
        Returns the report, the seconds from that update to the end of the
        run, and the second site's name."""
        cfg = sim_config("timeout_seconds=10")
        names = cfg.site_names()
        listener = tr.TcpListener("127.0.0.1", 0)
        result = {}

        def coordinate():
            server = FederationServer(cfg)
            try:
                server.accept_clients([listener.accept(timeout=10) for _ in names], timeout=10)
                result["report"] = server.run()
            finally:
                for record in server.clients.values():
                    record.channel.close()

        thread = threading.Thread(target=coordinate)
        thread.start()
        sites = [tr.open_tcp_channel("127.0.0.1", listener.port) for _ in names]
        try:
            for name, site in zip(names, sites):
                site.send(join_frame(cfg, name))
                assert site.recv(timeout=10).msg_type == tr.MSG_JOIN_ACK
            for site in sites:
                assert site.recv(timeout=10).msg_type == tr.MSG_BROADCAST
            t0 = time.monotonic()
            sites[0].send(update_frame())
            fault(sites[1]._sock, tr.frame_encode(update_frame()))
            sites[1].close()
            thread.join(timeout=cfg.timeout_seconds)
            seconds = time.monotonic() - t0
        finally:
            for site in sites:
                site.close()
            listener.close()
        assert not thread.is_alive()
        return result["report"], seconds, names[1]

    def test_site_hangs_up_mid_round(self):
        report, seconds, site = self.faulty_second_site(lambda sock, frame: None)
        assert seconds < 5
        assert report.aborted
        assert report.abort_reason.startswith(f"ProtocolError: client {site!r} failed:")
        assert report.rounds == []

    def test_truncated_frame_then_close(self):
        report, seconds, site = self.faulty_second_site(
            lambda sock, frame: sock.sendall(frame[: len(frame) // 2])
        )
        assert seconds < 5
        assert report.aborted
        assert report.abort_reason == (
            f"ProtocolError: client {site!r} failed: connection closed mid-frame"
        )


class TestTcpAuth:
    def test_wrong_token_gets_error_frame_and_close(self):
        cfg = sim_config()
        listener = tr.TcpListener("127.0.0.1", 0)
        result = {}

        def serve():
            server = FederationServer(cfg)
            try:
                server.accept_clients([listener.accept(timeout=10)], timeout=10)
            except AuthError as err:
                result["server"] = err

        thread = threading.Thread(target=serve)
        thread.start()
        channel = tr.open_tcp_channel("127.0.0.1", listener.port)
        channel.send(
            tr.Frame(
                tr.MSG_JOIN,
                0,
                tr.encode_join(
                    tr.JoinBody("ostergotland", "not-the-token", 10, cfg.session_digest())
                ),
            )
        )
        reply = channel.recv(timeout=10)
        assert reply.msg_type == tr.MSG_ERROR
        assert "token" in tr.decode_error(reply.body)
        with pytest.raises((tr.ChannelClosed, TimeoutError)):
            channel.recv(timeout=2)
        thread.join(timeout=10)
        listener.close()
        channel.close()
        assert isinstance(result.get("server"), AuthError)


    def test_oversized_join_rejected_unread(self):
        # the header announces a 200 MiB JOIN body that never comes: a
        # coordinator that tried to read it would wait out the timeout
        cfg = sim_config()
        listener = tr.TcpListener("127.0.0.1", 0)
        peer = tr.open_tcp_channel("127.0.0.1", listener.port)
        header = tr.frame_encode(tr.Frame(tr.MSG_JOIN, 0))[:-8] + (200 << 20).to_bytes(8, "little")
        peer._sock.sendall(header)
        server = FederationServer(cfg)
        channel = listener.accept(timeout=5)
        t0 = time.monotonic()
        try:
            with pytest.raises(DecodeError, match="exceeds the 4096-byte limit"):
                server.accept_clients([channel], timeout=10)
            assert time.monotonic() - t0 < 5
        finally:
            for end in (channel, peer, listener):
                end.close()
        assert server.clients == {}


class TestCentral:
    def test_pooling_holds_no_second_copy(self):
        # each generated site is drawn straight into its slice of the pool,
        # so beside the pooled rows (11 B each) the peak holds only the
        # largest site's generation work (Stockholm holds 63% of the rows):
        # four int64 per row and two float64 blocks, as in
        # test_data.py::test_generation_memory_peak
        cfg = load_config(None, ["data.scale_factor=0.1"])
        tracemalloc.start()
        try:
            pooled = federation.pool_sites(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = pooled.dense.nbytes + pooled.codes.nbytes + pooled.labels.nbytes
        assert stored == 11 * len(pooled)
        largest = max(sum(scaled_counts(site, 0.1)) for site in cfg.data.sites)
        assert peak <= stored + 4 * 8 * largest + 2 * BLOCK_ROWS * 10 * 8
        parts = [part for parts in build_site_datasets(cfg).values() for part in parts]
        assert pooled.features.tobytes() == np.concatenate([p.features for p in parts]).tobytes()
        assert pooled.labels.tobytes() == np.concatenate([p.labels for p in parts]).tobytes()

    def test_simulation_memory_peak(self):
        # a run holds every site's rows in the store (11 B per row) and, for
        # a site whose training rows are one batch (every site at this
        # scale), one column-major float64 copy of them with their labels
        # (88 B per row) while it trains, beside its work arrays of a few
        # blocks; a float64 matrix of the largest site's training rows on
        # top of that (80 B per row) breaks the bound
        cfg = load_config(None, ["data.scale_factor=0.1", "rounds=2"])
        tracemalloc.start()
        try:
            report = run_simulation(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.aborted
        rows = sum(sum(scaled_counts(site, 0.1)) for site in cfg.data.sites)
        train_rows = {name: len(train) for name, (train, _) in build_site_datasets(cfg).items()}
        assert all(n <= cfg.batch_for(name) for name, n in train_rows.items())
        assert peak < 11 * rows + 88 * max(train_rows.values()) + 3 * BLOCK_ROWS * 10 * 8

    def test_csv_sites_pool_like_generated_ones(self, tmp_path):
        # CSV sites are read whole and concatenated, in the same order
        generated = load_config(None, ["data.scale_factor=0.02", "seed=7"])
        for site in generated.data.sites:
            write_csv(federation.draw_site(generated, site), tmp_path / f"{site.name}.csv")
        from_csv = dataclasses.replace(
            generated, data=dataclasses.replace(generated.data, csv_dir=str(tmp_path))
        )
        want, got = federation.pool_sites(generated), federation.pool_sites(from_csv)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_fold_count_and_metrics(self):
        cfg = load_config(
            None,
            [
                "data.scale_factor=0.02",
                "model=lr",
                "central_epochs=20",
                "central_folds=5",
                "learning_rate=0.1",
            ],
        )
        report = run_central(cfg)
        assert report.kind == "central"
        assert len(report.fold_metrics) == 5
        row = report.summary_row()
        assert 0.0 <= row["auc_mean"] <= 1.0

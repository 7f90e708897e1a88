import gc
import hashlib
import json
import math
from collections import Counter
import threading
import time
import warnings

import numpy as np
import pytest
from oracles import run_simulation_thread_per_client
from test_golden import TINY

from privfed import federation
from privfed import transport as tr
from privfed.config import SESSION_KEYS, load_config
from privfed.errors import AuthError, ConfigError, DecodeError, LayoutError, ProtocolError
from privfed.federation import (
    FederationClient,
    FederationServer,
    HePipeline,
    aggregate_encrypted,
    aggregate_plain,
    build_site_datasets,
    run_central,
    run_simulation,
)
from privfed.he import (
    TEST_PARAMS,
    KeyPair,
    decode,
    decrypt,
    deserialize_ct,
    encode,
    encrypt,
    keygen,
    serialize_ct,
)
from privfed.he import ckks
from privfed.learners import ModelKind, init_params
from privfed.metrics import MetricSet, summarize
from privfed.report import nontiming_view

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
    body = tr.BroadcastBody(final, tr.PAYLOAD_PLAIN, flat)
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
    def _encrypt_vec(self, vec, keys, seed):
        rng = np.random.default_rng(seed)
        return [encrypt(encode(vec, TEST_PARAMS), keys, rng)]

    def test_single_client_scalar_one_path(self, keys):
        v = np.random.default_rng(6).uniform(-1, 1, 20)
        agg = aggregate_encrypted([self._encrypt_vec(v, keys, 1)], [1.0])
        out = decode(decrypt(agg[0], keys))[:20]
        assert np.abs(out - v).max() < 1e-3

    def test_four_clients_of_fours(self, keys):
        chunks = [self._encrypt_vec(np.full(8, 4.0), keys, seed) for seed in range(4)]
        agg = aggregate_encrypted(chunks, [1.0] * 4)
        out = decode(decrypt(agg[0], keys))[:8]
        assert np.abs(out - 4.0).max() < 1e-3  # sum 16, x 1/4

    def test_matches_plaintext_oracle(self, keys):
        rng = np.random.default_rng(7)
        vectors = [rng.uniform(-1, 1, 30) for _ in range(4)]
        chunks = [self._encrypt_vec(v, keys, 10 + i) for i, v in enumerate(vectors)]
        agg = aggregate_encrypted(chunks, [1.0] * 4)
        out = decode(decrypt(agg[0], keys))[:30]
        want = aggregate_plain(vectors, [1.0] * 4)
        assert np.abs(out - want).max() < 1e-3

    def test_chunk_shape_mismatch(self, keys):
        a = self._encrypt_vec(np.ones(4), keys, 1)
        with pytest.raises(LayoutError):
            aggregate_encrypted([a, a + a], [1.0, 1.0])


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

    def test_dp_update_payload_obeys_filter_bound(self):
        # step one client round by hand so the wire payload is inspectable
        cfg = sim_config("privacy.mode=dp", "model=nn", "rounds=1", "local_epochs=2")
        reply = site_client(cfg).handle(broadcast(0, init_params(ModelKind.FEEDFORWARD_NN, 0)))
        assert (reply.msg_type, reply.round) == (tr.MSG_UPDATE, 0)
        update = tr.decode_update(reply.body)
        assert update.payload_kind == tr.PAYLOAD_PLAIN
        assert update.payload.size == 66
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
        done = tr.decode_round_done(reply.body)
        assert done.final_params is None  # plain mode: the coordinator holds the model
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
        threaded = run_simulation_thread_per_client(cfg)
        assert not driven.aborted and not threaded.aborted
        assert nontiming_view(driven.to_dict()) == nontiming_view(threaded.to_dict())

    def test_failing_client_ends_run_at_once(self, monkeypatch):
        cfg = sim_config("rounds=3")
        assert cfg.timeout_seconds >= 600  # the default the abort must not wait for
        failing = cfg.site_names()[1]
        failing_train = build_site_datasets(cfg)[failing][0]
        train_local = federation.train_local

        def crashing_train_local(kind, params, data, train_cfg):
            if np.array_equal(data.labels, failing_train.labels):
                raise RuntimeError("site disk unreadable")
            return train_local(kind, params, data, train_cfg)

        monkeypatch.setattr(federation, "train_local", crashing_train_local)
        t0 = time.monotonic()
        report = run_simulation(cfg)
        assert time.monotonic() - t0 < 30
        assert report.aborted
        assert report.abort_reason == f"client {failing!r}: RuntimeError: site disk unreadable"
        assert report.rounds == []
        assert not any(t.name == "privfed-clients" for t in threading.enumerate())


def join_frame(cfg, name) -> tr.Frame:
    body = tr.JoinBody(name, cfg.token, 10, cfg.session_digest())
    return tr.Frame(tr.MSG_JOIN, 0, tr.encode_join(body))


METRICS = MetricSet(0.5, 0.0, 1.0, 1, 1, 0.5)


def update_frame(round_index=0) -> tr.Frame:
    """A well-formed plain LR update."""
    body = tr.UpdateBody(1, tr.PAYLOAD_PLAIN, np.zeros(11), 0.0, 0.0, METRICS, METRICS)
    return tr.Frame(tr.MSG_UPDATE, round_index, tr.encode_update(body))


def chunks_update_frame(blob: bytes) -> tr.Frame:
    """A round-0 HE update of one serialized ciphertext."""
    body = tr.UpdateBody(1, tr.PAYLOAD_CHUNKS, [blob], 0.0, 0.0, METRICS, METRICS)
    return tr.Frame(tr.MSG_UPDATE, 0, tr.encode_update(body))


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
        settings = {key: cfg.to_dict()[key] for key in SESSION_KEYS}
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
        key = keygen(cfg.he, np.random.default_rng(1))
        for i, client_end in enumerate(client_ends):
            blob = serialize_ct(encrypt(encode(np.zeros(11), cfg.he), key, np.random.default_rng(i)))
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
        key = keygen(cfg.he, np.random.default_rng(1))
        updates = [np.full(11, float(i)) for i in range(len(names))]

        def no_keygen(*args):
            raise AssertionError("the coordinator derived a key")

        monkeypatch.setattr(federation, "keygen", no_keygen)
        monkeypatch.setattr(ckks, "keygen", no_keygen)
        server, client_ends = sim_coordinator(cfg)
        for i, client_end in enumerate(client_ends):
            blob = serialize_ct(encrypt(encode(updates[i], cfg.he), key, np.random.default_rng(i)))
            client_end.send(chunks_update_frame(blob))
            client_end.send(round_done_frame(1, np.zeros(11)))
        report = server.run()
        assert not report.aborted, report.abort_reason
        assert not any(isinstance(v, (HePipeline, KeyPair)) for v in vars(server).values())
        for client_end in client_ends:
            assert client_end.recv().round == 0
            final = tr.decode_broadcast(client_end.recv().body)
            assert final.final and final.payload_kind == tr.PAYLOAD_CHUNKS
            (blob,) = final.payload
            out = decode(decrypt(deserialize_ct(blob, cfg.he), key))[:11]
            assert np.abs(out - 1.5).max() < 1e-3  # the mean of 0, 1, 2, 3

    def test_he_final_without_parameters_aborts_run(self):
        cfg = sim_config("privacy.mode=he", "rounds=0", "timeout_seconds=5", *HE_OVERRIDES)
        names = cfg.site_names()
        server, client_ends = sim_coordinator(cfg)
        for client_end in client_ends:
            client_end.send(round_done_frame(0))
        report = server.run()
        assert report.aborted
        assert report.abort_reason == f"ProtocolError: client {names[0]!r} sent no final parameters"

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

    @pytest.mark.parametrize("mode, overrides", [("plain", []), ("he", HE_OVERRIDES)], ids=["plain", "he"])
    def test_payload_of_the_other_kind_aborts_run(self, mode, overrides):
        cfg = sim_config(f"privacy.mode={mode}", "timeout_seconds=5", *overrides)
        names = cfg.site_names()
        server, client_ends = sim_coordinator(cfg)
        key = keygen(TEST_PARAMS, np.random.default_rng(1))
        ct = encrypt(encode(np.zeros(11), TEST_PARAMS), key, np.random.default_rng(0))
        plain, chunks = update_frame(), chunks_update_frame(serialize_ct(ct))
        right, wrong = (plain, chunks) if mode == "plain" else (chunks, plain)
        for i, client_end in enumerate(client_ends):
            client_end.send(wrong if i == 1 else right)
        report = server.run()
        assert report.aborted
        wrong_kind, run_kind = (1, 0) if mode == "plain" else (0, 1)
        assert report.abort_reason == (
            f"ProtocolError: client {names[1]!r} sent payload kind {wrong_kind}; "
            f"a {mode!r} run takes kind {run_kind}"
        )
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

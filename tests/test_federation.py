import math
import threading

import numpy as np
import pytest

from privfed import transport as tr
from privfed.config import load_config
from privfed.errors import AuthError, LayoutError
from privfed.federation import (
    FederationClient,
    aggregate_encrypted,
    aggregate_plain,
    run_central,
    run_simulation,
)
from privfed.he import TEST_PARAMS, decode, decrypt, encode, encrypt, keygen
from privfed.metrics import summarize

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
        from privfed.learners import ModelKind, init_params
        from privfed.params import flatten
        from privfed.seeds import derive_seed

        init_flat, _ = flatten(init_params(ModelKind.FEEDFORWARD_NN, derive_seed(11, "init")))
        assert np.array_equal(np.array(report.final_params), init_flat)
        for client in report.rounds[0].clients:
            assert client.pre_metrics == client.post_metrics

    def test_dp_update_payload_obeys_filter_bound(self):
        # drive one client round by hand so the wire payload is inspectable
        cfg = sim_config("privacy.mode=dp", "model=nn", "rounds=1", "local_epochs=2")
        from privfed.federation import build_site_datasets
        from privfed.learners import ModelKind, init_params
        from privfed.params import flatten

        name = cfg.site_names()[0]
        train, valid = build_site_datasets(cfg)[name]
        client = FederationClient(cfg, name, train, valid)
        server_end, client_end = tr.SimChannel.pair()
        thread = threading.Thread(target=client.run, args=(client_end,), daemon=True)
        thread.start()
        join = server_end.recv(timeout=10)
        assert join.msg_type == tr.MSG_JOIN
        server_end.send(tr.Frame(tr.MSG_JOIN_ACK, 0))
        init_flat, _ = flatten(init_params(ModelKind.FEEDFORWARD_NN, 0))
        server_end.send(
            tr.Frame(
                tr.MSG_BROADCAST,
                0,
                tr.encode_broadcast(tr.BroadcastBody(False, tr.PAYLOAD_PLAIN, init_flat)),
            )
        )
        update = tr.decode_update(server_end.recv(timeout=30).body)
        server_end.send(tr.Frame(tr.MSG_SHUTDOWN, 0))
        thread.join(timeout=10)
        assert update.mode == "dp"
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
        report = run_simulation(sim_config("rounds=3"))
        events = report.event_log
        for round_index in range(3):
            agg_times = [t for t, kind, who in events if kind == "aggregate_start" and who == str(round_index)]
            assert len(agg_times) == 1
            updates_before = [
                t
                for t, kind, _ in events
                if kind == "update_received" and t <= agg_times[0]
            ]
            assert len(updates_before) >= 4 * (round_index + 1)

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
        from privfed.federation import FederationServer, build_site_datasets

        datasets = build_site_datasets(cfg)
        server = FederationServer(cfg)
        server_end, client_end = tr.SimChannel.pair()

        bad_cfg = sim_config("token=wrong-token")
        name = cfg.site_names()[0]
        train, valid = datasets[name]
        client = FederationClient(bad_cfg, name, train, valid)
        errors = []

        def drive():
            try:
                client.run(client_end)
            except AuthError as err:
                errors.append(err)

        thread = threading.Thread(target=drive)
        thread.start()
        with pytest.raises(AuthError):
            server.accept_clients([server_end], timeout=5)
        thread.join(timeout=5)
        assert errors, "client should observe the rejection"


class TestRoundSequence:
    def test_out_of_sequence_broadcast_rejected(self):
        from privfed.errors import ProtocolError
        from privfed.federation import build_site_datasets
        from privfed.learners import ModelKind, init_params
        from privfed.params import flatten

        cfg = sim_config()
        name = cfg.site_names()[0]
        train, valid = build_site_datasets(cfg)[name]
        client = FederationClient(cfg, name, train, valid)
        server_end, client_end = tr.SimChannel.pair()
        errors = []

        def drive():
            try:
                client.run(client_end)
            except ProtocolError as err:
                errors.append(err)

        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        server_end.recv(timeout=10)  # JOIN
        server_end.send(tr.Frame(tr.MSG_JOIN_ACK, 0))
        init_flat, _ = flatten(init_params(ModelKind.LOGISTIC_REGRESSION, 0))
        server_end.send(
            tr.Frame(
                tr.MSG_BROADCAST,
                5,  # client expects round 0
                tr.encode_broadcast(tr.BroadcastBody(False, tr.PAYLOAD_PLAIN, init_flat)),
            )
        )
        thread.join(timeout=10)
        assert errors and "round" in str(errors[0])


class TestTimeout:
    def test_silent_client_aborts_run_with_partial_report(self):
        cfg = sim_config("timeout_seconds=0.5", "rounds=3")
        from privfed.federation import FederationServer

        server = FederationServer(cfg)
        server_ends = []
        for name in cfg.site_names():
            server_end, client_end = tr.SimChannel.pair()
            server_ends.append(server_end)
            client_end.send(
                tr.Frame(
                    tr.MSG_JOIN, 0, tr.encode_join(tr.JoinBody(name, cfg.token, 10, 5))
                )
            )
        server.accept_clients(server_ends, timeout=5)
        report = server.run()  # nobody ever sends an update
        assert report.aborted
        assert "RoundTimeoutError" in report.abort_reason
        assert report.rounds == []


class TestUpdateBody:
    def test_body_naming_another_site_aborts_run(self):
        from privfed.federation import FederationServer
        from privfed.metrics import MetricSet

        cfg = sim_config()
        names = cfg.site_names()
        server = FederationServer(cfg)
        server_ends, client_ends = zip(*(tr.SimChannel.pair() for _ in names))
        for name, client_end in zip(names, client_ends):
            client_end.send(
                tr.Frame(tr.MSG_JOIN, 0, tr.encode_join(tr.JoinBody(name, cfg.token, 10, 5)))
            )
        server.accept_clients(list(server_ends), timeout=5)
        metrics = MetricSet(0.5, 0.0, 1.0, 1, 1, 0.5)
        for i, client_end in enumerate(client_ends):
            client_end.recv(timeout=5)  # JOIN_ACK
            body = tr.UpdateBody(
                names[(i + 1) % len(names)], 1, "plain", tr.PAYLOAD_PLAIN, np.zeros(11),
                1.0, 0.0, 0.0, metrics, metrics,
            )
            client_end.send(tr.Frame(tr.MSG_UPDATE, 0, tr.encode_update(body)))
        report = server.run()
        assert report.aborted
        assert "ProtocolError" in report.abort_reason
        assert "does not match its channel" in report.abort_reason
        assert report.rounds == []


class TestTcpAuth:
    def test_wrong_token_gets_error_frame_and_close(self):
        cfg = sim_config()
        listener = tr.TcpListener("127.0.0.1", 0)
        from privfed.federation import FederationServer

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
                tr.encode_join(tr.JoinBody("ostergotland", "not-the-token", 10, 5)),
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

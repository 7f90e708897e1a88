"""Federated-averaging server and client round logic.

Protocol per round: the server broadcasts the current global state, every
client trains locally and returns a (possibly privacy-filtered or encrypted)
delta, the server waits for all of them (hard barrier), aggregates, and
applies the mean delta.  After the last round a final broadcast triggers
per-site validation of the finished global model.

The coordinator is one straight-line thread and starts none of its own.  It
sends the broadcast to every site, then reads one reply per site in site
order, all within one deadline of ``timeout_seconds`` per round.  A site that
misses the deadline, hangs up or sends the wrong frame aborts the run with a
reason that names it.  The simulation adds no thread either: each read of a
simulated site's channel first lets that site's client answer.

Three privacy modes share the loop:

- plain: deltas travel as float64 vectors.
- dp: deltas pass through the SVT filter client-side before transmission.
- he: deltas are packed, encrypted, and summed under CKKS; the server holds
  no key and only ciphertexts after round 0, and broadcasts the encrypted
  aggregate, which every client decrypts and applies to its own copy of the
  global model.  The server never sees plaintext parameters after
  initialization.
"""

from __future__ import annotations

import functools
import hmac
import os
import time
from dataclasses import dataclass

import numpy as np

from . import transport as tr
from .config import ExperimentConfig
from .data import CohortDataset, concat_datasets, generate_site, kfold_split, read_csv, split_train_valid
from .dp import SvtConfig, svt_filter
from .errors import AuthError, ConfigError, DecodeError, LayoutError, ProtocolError
from .errors import RoundTimeoutError, StateError
from .he import (
    Ciphertext,
    CkksParams,
    add as he_add,
    decode as he_decode,
    decrypt as he_decrypt,
    deserialize_ct,
    encode as he_encode,
    encrypt as he_encrypt,
    keygen,
    mul_scalar_rescale,
    pack_update,
    serialize_ct,
    unpack_update,
)
from .learners import N_PARAMS, ModelKind, TrainConfig, init_params, predict_batch, train_local
from .metrics import MetricSet, evaluate_scores
from .params import LayoutManifest, apply_update, check_finite, compute_delta
from .report import (
    ClientRoundRecord,
    CrossSiteTable,
    RoundRecord,
    RunReport,
    SiteValidation,
)
from .seeds import derive_seed, derived_rng


@dataclass
class ClientRecord:
    """Server-side view of one registered client."""

    client_id: str
    weight: float
    channel: object


# -- aggregation -------------------------------------------------------------


def aggregate_plain(updates, weights) -> np.ndarray:
    """(sum of pre-scaled updates) / (sum of weights), elementwise."""
    updates = [np.asarray(u, dtype=np.float64) for u in updates]
    if not updates:
        raise LayoutError("no updates to aggregate")
    length = updates[0].size
    if any(u.size != length for u in updates):
        raise LayoutError("update lengths differ")
    if len(weights) != len(updates):
        raise LayoutError("weights and updates differ in count")
    total_weight = float(sum(weights))
    if total_weight <= 0:
        raise LayoutError("weights must sum to a positive value")
    return check_finite(np.sum(updates, axis=0) / total_weight, "aggregated update")


def aggregate_encrypted(per_client_chunks: list[list[Ciphertext]], weights) -> list[Ciphertext]:
    """Fold ciphertext chunks with add(), then one x(1/sum w) rescale per chunk.

    Delayed normalization: the division never touches ciphertext-ciphertext
    arithmetic, only a single plaintext reciprocal multiplication per chunk.
    """
    if not per_client_chunks:
        raise LayoutError("no encrypted updates to aggregate")
    n_chunks = len(per_client_chunks[0])
    if any(len(chunks) != n_chunks for chunks in per_client_chunks):
        raise LayoutError("clients disagree on chunk count")
    if len(weights) != len(per_client_chunks):
        raise LayoutError("weights and updates differ in count")
    reciprocal = 1.0 / float(sum(weights))
    out = []
    for idx in range(n_chunks):
        total = per_client_chunks[0][idx]
        for chunks in per_client_chunks[1:]:
            total = he_add(total, chunks[idx])
        out.append(mul_scalar_rescale(total, reciprocal))
    return out


def aggregate_serialized(params: CkksParams, payloads: dict[str, list[bytes]], weights) -> list[bytes]:
    """The coordinator's ciphertext sum: ``payloads`` maps each site, in site
    order, to its serialized chunks, and a chunk that does not deserialize
    aborts with the site's name.  Needs no key."""
    per_client = []
    for client_id, blobs in payloads.items():
        try:
            per_client.append([deserialize_ct(blob, params) for blob in blobs])
        except DecodeError as err:
            raise ProtocolError(f"client {client_id!r} sent a bad ciphertext: {err}") from err
    return [serialize_ct(ct) for ct in aggregate_encrypted(per_client, weights)]


# -- privacy pipelines -------------------------------------------------------


class PlainPipeline:
    def client_encode(self, delta: np.ndarray, steps: int, rng) -> tuple[int, object, float]:
        return tr.PAYLOAD_PLAIN, delta, 0.0


class DpPipeline:
    def __init__(self, cfg: SvtConfig):
        self.cfg = cfg

    def client_encode(self, delta: np.ndarray, steps: int, rng) -> tuple[int, object, float]:
        t0 = time.monotonic()
        filtered = svt_filter(delta, steps, self.cfg, rng)
        return tr.PAYLOAD_PLAIN, filtered, time.monotonic() - t0


class HePipeline:
    """A site's CKKS steps: encrypt its update, decrypt the aggregate.

    Only sites build one.  Each derives the cohort secret from the shared run
    seed, mirroring a pre-agreed cohort key; the coordinator holds no key and
    sums ciphertexts with ``aggregate_serialized``.
    """

    def __init__(self, params: CkksParams, master_seed: int):
        self.params = params
        self.keys = keygen(params, derived_rng(master_seed, "hekey"))

    def client_encode(self, delta: np.ndarray, steps: int, rng) -> tuple[int, object, float]:
        t0 = time.monotonic()
        blobs = []
        for chunk in pack_update(delta, self.params):
            ct = he_encrypt(he_encode(chunk, self.params), self.keys, rng)
            blobs.append(serialize_ct(ct))
        return tr.PAYLOAD_CHUNKS, blobs, time.monotonic() - t0

    def client_decode(self, blobs: list[bytes], length: int) -> tuple[np.ndarray, float]:
        t0 = time.monotonic()
        chunks = []
        for blob in blobs:
            ct = deserialize_ct(blob, self.params)
            chunks.append(he_decode(he_decrypt(ct, self.keys))[: ct.slot_fill])
        flat = check_finite(unpack_update(chunks, length), "decrypted aggregate")
        return flat, time.monotonic() - t0


def build_pipeline(cfg: ExperimentConfig):
    """The privacy step a site applies to its update."""
    if cfg.privacy_mode == "plain":
        return PlainPipeline()
    if cfg.privacy_mode == "dp":
        return DpPipeline(cfg.dp)
    return HePipeline(cfg.he, cfg.seed)


# -- server ------------------------------------------------------------------


class FederationServer:
    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.kind = ModelKind(cfg.model)
        self.clients: dict[str, ClientRecord] = {}
        self.session_digest = cfg.session_digest()
        self.event_log: list[list] = []
        self._t0 = time.monotonic()

    def _log(self, kind: str, who: str = ""):
        self.event_log.append([time.monotonic() - self._t0, kind, who])

    # -- registration --------------------------------------------------------

    def accept_clients(self, channels: list, timeout: float | None = None) -> None:
        """Read one JOIN per channel and admit the site, or refuse it and raise.

        A JOIN fixes the site's session: its name, its weight and, through
        the session digest, the model, privacy mode, DP and HE parameters and
        weighting it runs.  A site refused here never sees a broadcast, so it
        sends no update.
        """
        expected = set(self.cfg.site_names())
        for channel in channels:
            frame = channel.recv(timeout=timeout, max_body=tr.MAX_JOIN_BODY)
            if frame.msg_type != tr.MSG_JOIN:
                raise _refuse(channel, "expected JOIN", ProtocolError("client spoke before joining"))
            try:
                join = tr.decode_join(frame.body)
            except DecodeError as err:
                reason = f"malformed JOIN: {err}"
                raise _refuse(channel, reason, ProtocolError(reason)) from None
            if not hmac.compare_digest(join.token.encode(), self.cfg.token.encode()):
                raise _refuse(
                    channel, "bad token", AuthError(f"client {join.client_id!r} presented a bad token")
                )
            if join.client_id not in expected or join.client_id in self.clients:
                raise _refuse(
                    channel,
                    "unknown or duplicate site",
                    ProtocolError(f"unexpected site {join.client_id!r}"),
                )
            if join.session_digest != self.session_digest:
                raise _refuse(
                    channel,
                    "session settings differ from the coordinator's "
                    "(model, privacy mode, dp, he or weighting)",
                    ConfigError(f"client {join.client_id!r} joined with other session settings"),
                )
            weight = float(join.n_train) if self.cfg.weighting == "examples" else 1.0
            self.clients[join.client_id] = ClientRecord(join.client_id, weight, channel)
            channel.send(tr.Frame(tr.MSG_JOIN_ACK, 0))
            self._log("join", join.client_id)
        missing = expected - set(self.clients)
        if missing:
            raise ProtocolError(f"sites never joined: {sorted(missing)}")

    # -- round loop ------------------------------------------------------------

    def _broadcast(self, round_index: int, body: tr.BroadcastBody):
        frame = tr.Frame(tr.MSG_BROADCAST, round_index, tr.encode_broadcast(body))
        for client_id in self.cfg.site_names():
            self.clients[client_id].channel.send(frame)
        self._log("broadcast", str(round_index))

    def _collect(self, round_index: int, msg_type: int, decode) -> dict[str, tuple[object, float]]:
        """Each site's decoded reply body and arrival time, in site order, read
        under one deadline.  The channel names the site; no body repeats it.

        The round is a hard barrier, so reading the sites one after another
        loses nothing: the coordinator cannot act before the last reply.
        """
        received: dict[str, tuple[object, float]] = {}
        event = "update_received" if msg_type == tr.MSG_UPDATE else "round_done_received"
        deadline = time.monotonic() + self.cfg.timeout_seconds
        for client_id in self.cfg.site_names():
            try:
                frame = self.clients[client_id].channel.recv(
                    timeout=max(deadline - time.monotonic(), 0.0)
                )
            except TimeoutError:
                raise RoundTimeoutError(f"round {round_index}: no reply from {client_id!r}") from None
            except Exception as err:
                raise ProtocolError(f"client {client_id!r} failed: {err}") from err
            if frame.msg_type != msg_type or frame.round != round_index:
                raise ProtocolError(
                    f"client {client_id!r} sent type {frame.msg_type} for round {frame.round}, "
                    f"expected type {msg_type} round {round_index}"
                )
            try:
                body = decode(frame.body)
            except DecodeError as err:
                raise ProtocolError(f"client {client_id!r} sent a bad body: {err}") from err
            received[client_id] = (body, time.monotonic() - self._t0)
            self._log(event, client_id)
        return received

    def run(self) -> RunReport:
        cfg = self.cfg
        report = RunReport(
            kind="federated", method=cfg.method, learner=cfg.model, config=cfg.to_dict()
        )
        wall_start = time.monotonic()
        global_params = init_params(self.kind, derive_seed(cfg.seed, "init"))
        manifest = LayoutManifest.of(global_params)
        he_state: list[bytes] | None = None  # serialized aggregate ciphertexts
        payload_kind = tr.PAYLOAD_CHUNKS if cfg.privacy_mode == "he" else tr.PAYLOAD_PLAIN

        try:
            for round_index in range(cfg.rounds):
                broadcast_at = time.monotonic() - self._t0
                self._broadcast(round_index, self._broadcast_body(global_params, he_state, False))
                received = self._collect(round_index, tr.MSG_UPDATE, tr.decode_update)
                for client_id, (update, _) in received.items():
                    if update.payload_kind != payload_kind:
                        raise ProtocolError(
                            f"client {client_id!r} sent payload kind {update.payload_kind}; "
                            f"a {cfg.privacy_mode!r} run takes kind {payload_kind}"
                        )
                self._log("aggregate_start", str(round_index))
                agg_t0 = time.monotonic()
                payloads = {cid: update.payload for cid, (update, _) in received.items()}
                weights = [self.clients[cid].weight for cid in received]
                if cfg.privacy_mode == "he":
                    he_state = aggregate_serialized(cfg.he, payloads, weights)
                else:
                    mean_delta = aggregate_plain(list(payloads.values()), weights)
                    global_params = apply_update(global_params, mean_delta, manifest)
                agg_seconds = time.monotonic() - agg_t0
                report.rounds.append(
                    self._round_record(round_index, received, broadcast_at, agg_seconds)
                )

            # final broadcast: clients evaluate the finished global model
            self._broadcast(cfg.rounds, self._broadcast_body(global_params, he_state, True))
            done = self._collect(cfg.rounds, tr.MSG_ROUND_DONE, tr.decode_round_done)
            report.cross_site = CrossSiteTable.from_rows(
                [SiteValidation(cid, body.metrics) for cid, (body, _) in done.items()]
            )
            if cfg.privacy_mode == "he":
                finals = {cid: body.final_params for cid, (body, _) in done.items()}
                report.final_params = _agreed_final_params(finals)
            else:
                report.final_params = global_params
        except (RoundTimeoutError, ProtocolError, AuthError, LayoutError, StateError, DecodeError) as err:
            report.aborted = True
            report.abort_reason = f"{type(err).__name__}: {err}"
        finally:
            self._shutdown()
        report.total_wall_seconds = time.monotonic() - wall_start
        report.event_log = self.event_log
        return report

    def _broadcast_body(self, global_params: np.ndarray, he_state, final: bool) -> tr.BroadcastBody:
        if he_state is not None:
            return tr.BroadcastBody(final, tr.PAYLOAD_CHUNKS, he_state)
        return tr.BroadcastBody(final, tr.PAYLOAD_PLAIN, global_params)

    def _round_record(self, round_index, received, broadcast_at, agg_seconds):
        """``received`` maps each client id to its (UpdateBody, arrival time)."""
        clients = []
        for client_id in self.cfg.site_names():
            update, arrival = received[client_id]
            payload_bytes = (
                update.payload.size * 8
                if update.payload_kind == tr.PAYLOAD_PLAIN
                else sum(len(b) for b in update.payload)
            )
            clients.append(
                ClientRoundRecord(
                    client_id=client_id,
                    steps=update.steps,
                    weight=self.clients[client_id].weight,
                    pre_metrics=update.pre_metrics,
                    post_metrics=update.post_metrics,
                    train_seconds=update.train_seconds,
                    privacy_seconds=update.privacy_seconds,
                    payload_bytes=payload_bytes,
                    arrival_offset_seconds=arrival - broadcast_at,
                )
            )
        return RoundRecord(round_index, clients, agg_seconds)

    def _shutdown(self):
        for record in self.clients.values():
            try:
                record.channel.send(tr.Frame(tr.MSG_SHUTDOWN, 0))
            except Exception:
                pass


def _refuse(channel, reason: str, error: Exception) -> Exception:
    """Send a refused site ``reason`` in an ERROR frame, hang up, and return
    ``error`` for the coordinator to raise."""
    channel.send(tr.Frame(tr.MSG_ERROR, 0, tr.encode_error(reason)))
    channel.close()
    return error


def _agreed_final_params(finals: dict[str, np.ndarray | None]) -> np.ndarray:
    """The final HE-mode parameters, which every site must send bitwise equal:
    all sites decrypt the same aggregates with the same key."""
    first = next(iter(finals))
    for client_id, params in finals.items():
        if params is None:
            raise ProtocolError(f"client {client_id!r} sent no final parameters")
        if params.tobytes() != finals[first].tobytes():
            raise ProtocolError(
                f"client {client_id!r} sent final parameters that differ from {first!r}'s"
            )
    return finals[first]


# -- client ------------------------------------------------------------------


class FederationClient:
    def __init__(self, cfg: ExperimentConfig, client_id: str, train: CohortDataset, valid: CohortDataset):
        self.cfg = cfg
        self.client_id = client_id
        self.kind = ModelKind(cfg.model)
        self.train = train
        self.valid = valid
        self.pipeline = build_pipeline(cfg)
        self.weight = float(len(train)) if cfg.weighting == "examples" else 1.0
        self.global_params: np.ndarray | None = None
        self.manifest = LayoutManifest(N_PARAMS[self.kind])
        self.next_round = 0

    def _evaluate(self, params: np.ndarray) -> MetricSet:
        scores = predict_batch(self.kind, params, self.valid.features)
        return evaluate_scores(scores, self.valid.labels, self.cfg.threshold)

    def _install_broadcast(self, body: tr.BroadcastBody) -> float:
        if body.payload_kind == tr.PAYLOAD_PLAIN:
            flat = np.asarray(body.payload)
            if flat.size != self.manifest.total_length:
                raise LayoutError(
                    f"broadcast carries {flat.size} values, {self.kind.value} expects "
                    f"{self.manifest.total_length}"
                )
            self.global_params = flat
            return 0.0
        if self.global_params is None:
            raise ProtocolError("encrypted aggregate arrived before the initial model")
        delta, seconds = self.pipeline.client_decode(
            body.payload, self.manifest.total_length
        )
        self.global_params = apply_update(self.global_params, delta, self.manifest)
        return seconds

    def join_frame(self) -> tr.Frame:
        """The JOIN this client opens its session with."""
        body = tr.JoinBody(self.client_id, self.cfg.token, len(self.train), self.cfg.session_digest())
        return tr.Frame(tr.MSG_JOIN, 0, tr.encode_join(body))

    def check_ack(self, frame: tr.Frame) -> None:
        """Accept the coordinator's answer to JOIN, or raise why it refused."""
        if frame.msg_type == tr.MSG_ERROR:
            raise AuthError(tr.decode_error(frame.body))
        if frame.msg_type != tr.MSG_JOIN_ACK:
            raise ProtocolError(f"expected JOIN_ACK, got type {frame.msg_type}")

    def handle(self, frame: tr.Frame) -> tr.Frame | None:
        """One protocol step: the reply to a coordinator frame, or None on
        SHUTDOWN.  A round broadcast is answered with an UPDATE, the final
        broadcast with a ROUND_DONE."""
        cfg = self.cfg
        if frame.msg_type == tr.MSG_SHUTDOWN:
            return None
        if frame.msg_type == tr.MSG_ERROR:
            raise ProtocolError(tr.decode_error(frame.body))
        if frame.msg_type != tr.MSG_BROADCAST:
            raise ProtocolError(f"unexpected message type {frame.msg_type}")
        if frame.round != self.next_round:
            raise ProtocolError(
                f"broadcast for round {frame.round}, expected {self.next_round}"
            )
        body = tr.decode_broadcast(frame.body)
        privacy_seconds = self._install_broadcast(body)
        pre_metrics = self._evaluate(self.global_params)

        if body.final:
            final_params = self.global_params if cfg.privacy_mode == "he" else None
            return tr.Frame(
                tr.MSG_ROUND_DONE,
                frame.round,
                tr.encode_round_done(tr.RoundDoneBody(pre_metrics, final_params)),
            )

        train_cfg = TrainConfig(
            learning_rate=cfg.learning_rate,
            batch_size=cfg.batch_for(self.client_id),
            local_epochs=cfg.local_epochs,
            l2_penalty=cfg.l2_penalty,
            seed=derive_seed(cfg.seed, "train", self.client_id, frame.round),
        )
        self.next_round += 1
        trained, stats = train_local(self.kind, self.global_params, self.train, train_cfg)
        post_metrics = self._evaluate(trained)
        delta = compute_delta(trained, self.global_params)
        if cfg.weighting == "examples":
            delta = delta * self.weight
        kind, payload, encode_seconds = self.pipeline.client_encode(
            delta,
            max(stats.steps, 1),
            derived_rng(cfg.seed, "privacy", self.client_id, frame.round),
        )
        return tr.Frame(
            tr.MSG_UPDATE,
            frame.round,
            tr.encode_update(
                tr.UpdateBody(
                    steps=stats.steps,
                    payload_kind=kind,
                    payload=payload,
                    train_seconds=stats.wall_time,
                    privacy_seconds=privacy_seconds + encode_seconds,
                    pre_metrics=pre_metrics,
                    post_metrics=post_metrics,
                )
            ),
        )

    def run(self, channel) -> None:
        """Serve one coordinator over ``channel`` until it sends SHUTDOWN."""
        channel.send(self.join_frame())
        self.check_ack(channel.recv(timeout=self.cfg.timeout_seconds))
        while (reply := self.handle(channel.recv(timeout=self.cfg.timeout_seconds))) is not None:
            channel.send(reply)


# -- orchestration -----------------------------------------------------------


def build_site_datasets(cfg: ExperimentConfig, only_site: str | None = None):
    """Per-site (train, valid) splits from the generator or CSV files."""
    spec = cfg.data.generator_spec(derive_seed(cfg.seed, "data"))
    out = {}
    for site in cfg.data.sites:
        if only_site is not None and site.name != only_site:
            continue
        if cfg.data.source == "csv":
            path = os.path.join(cfg.data.csv_dir or ".", f"{site.name}.csv")
            if not os.path.exists(path):
                raise ConfigError(f"site file does not exist: {path}")
            ds = read_csv(path)
        else:
            ds = generate_site(spec, site, derived_rng(spec.seed, "site", site.name))
        out[site.name] = split_train_valid(
            ds, cfg.train_frac, derive_seed(cfg.seed, "split", site.name)
        )
    if only_site is not None and only_site not in out:
        raise ProtocolError(f"unknown site {only_site!r}")
    return out


def _answer(client: FederationClient, channel, failures: list) -> None:
    """Let a simulated client reply to the frame waiting on its channel.

    A client that raises hangs up, which the coordinator reads as that site
    failing; its (client id, exception) is appended to ``failures``.
    """
    try:
        reply = client.handle(channel.recv())
        if reply is not None:
            channel.send(reply)
    except Exception as err:  # the run's abort reason names it
        failures.append((client.client_id, err))
        channel.close()


def run_simulation(cfg: ExperimentConfig) -> RunReport:
    """All sites in-process and in the calling thread: each coordinator read
    of a site's ``SimChannel`` first has that site's client answer."""
    datasets = build_site_datasets(cfg)
    server = FederationServer(cfg)
    server_ends, client_ends, clients = [], [], []
    failures: list[tuple[str, Exception]] = []
    for name in cfg.site_names():
        server_end, client_end = tr.SimChannel.pair()
        client = FederationClient(cfg, name, *datasets[name])
        client_end.send(client.join_frame())
        server_end.serve = functools.partial(_answer, client, client_end, failures)
        server_ends.append(server_end)
        client_ends.append(client_end)
        clients.append(client)
    server.accept_clients(server_ends, timeout=cfg.timeout_seconds)
    for client, client_end in zip(clients, client_ends):
        client.check_ack(client_end.recv())
    report = server.run()
    if failures:
        # the coordinator saw only a closed channel; report the cause
        client_id, err = failures[0]
        report.aborted = True
        report.abort_reason = f"client {client_id!r}: {type(err).__name__}: {err}"
    return report


def run_tcp_server(cfg: ExperimentConfig, host: str, port: int) -> RunReport:
    listener = tr.TcpListener(host, port)
    channels = []
    try:
        for _ in cfg.site_names():
            channels.append(listener.accept(timeout=cfg.timeout_seconds))
        server = FederationServer(cfg)
        server.accept_clients(channels, timeout=cfg.timeout_seconds)
        return server.run()
    finally:
        for channel in channels:
            channel.close()
        listener.close()


def run_tcp_client(cfg: ExperimentConfig, site: str, host: str, port: int) -> None:
    datasets = build_site_datasets(cfg, only_site=site)
    train, valid = datasets[site]
    channel = tr.open_tcp_channel(host, port, timeout=cfg.timeout_seconds)
    try:
        FederationClient(cfg, site, train, valid).run(channel)
    finally:
        channel.close()


def run_central(cfg: ExperimentConfig) -> RunReport:
    """Pooled-data baseline: k-fold cross-validation with the same learner."""
    datasets = build_site_datasets(cfg)
    full = concat_datasets(
        [concat_datasets([train, valid]) for train, valid in datasets.values()]
    )
    kind = ModelKind(cfg.model)
    report = RunReport(kind="central", method="cml", learner=cfg.model, config=cfg.to_dict())
    t0 = time.monotonic()
    folds = kfold_split(full, cfg.central_folds, derive_seed(cfg.seed, "cv"))
    for fold_index, (train, test) in enumerate(folds):
        train_cfg = TrainConfig(
            learning_rate=cfg.learning_rate,
            batch_size=cfg.batch_size,
            local_epochs=cfg.central_epochs,
            l2_penalty=cfg.l2_penalty,
            seed=derive_seed(cfg.seed, "central", fold_index),
        )
        params, _ = train_local(kind, init_params(kind, derive_seed(cfg.seed, "init")), train, train_cfg)
        scores = predict_batch(kind, params, test.features)
        report.fold_metrics.append(evaluate_scores(scores, test.labels, cfg.threshold))
    report.total_wall_seconds = time.monotonic() - t0
    return report

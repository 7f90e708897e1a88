"""Federated-averaging server and client round logic.

Protocol per round: the server broadcasts the current global state, every
client trains locally and returns a (possibly privacy-filtered or encrypted)
delta, the server waits for all of them (hard barrier), aggregates, and
applies the mean delta.  After the last round a final broadcast triggers
per-site validation of the finished global model.

The coordinator is one straight-line thread and starts none of its own.  It
sends the broadcast to every site, then reads one reply per site in site
order, all within one deadline of ``timeout_seconds`` per round.  A site that
misses the deadline, hangs up, sends the wrong frame or sends an ERROR saying
why it failed aborts the run with a reason that names it, and every site is
then sent an ERROR with that reason instead of SHUTDOWN.

Every site runs ``FederationClient.step`` on both transports: ``run`` loops on
it over TCP, and the thread-free simulation has a site take one step each
time the coordinator reads its channel.

Three privacy modes share the loop; each site applies its own mechanism:

- plain: deltas travel as float64 vectors.
- dp: deltas pass through the SVT filter before transmission, and travel as
  its lossless ternary code (``transport._pack_ternary``): the filter's
  output is almost all exact zeros and ±γ·steps.
- he: deltas are packed, encrypted, and summed under CKKS; the server holds
  no key and only ciphertexts after round 0.  Each ciphertext's c1 = a is
  public (``public_a``), and a chunk's values lie in its first ``fill``
  coefficients, so the server broadcasts only the aggregate's c0 at those
  columns and its Σw; every client rebuilds the aggregate's c1 from
  the sites' public ``a``s (``aggregate_c1``), decrypts, and applies the
  update to its own copy of the global model.  The server never sees
  plaintext parameters after initialization.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hmac
import math
import os
import selectors
import time
from dataclasses import dataclass

import numpy as np

from . import transport as tr
from .config import ExperimentConfig
from .data import CohortDataset, concat_datasets, empty_generated, generate_site, kfold_split, read_csv
from .data import scaled_counts, split_train_valid
from .dp import svt_filter
from .errors import AuthError, ConfigError, DecodeError, LayoutError, ProtocolError
from .errors import RoundTimeoutError, StateError
from .he import (
    Ciphertext,
    CkksParams,
    add as he_add,
    c0_row,
    chunk_fills,
    decode as he_decode,
    decrypt as he_decrypt,
    deserialize_ct,
    encode as he_encode,
    encrypt as he_encrypt,
    keygen,
    mul_scalar_rescale,
    pack_update,
    sample_a,
    serialize_ct,
    unpack_update,
    with_c1,
)
from .learners import N_PARAMS, ModelKind, TrainConfig, init_params, predict_batch, train_local
from .metrics import MetricSet, evaluate_scores
from .params import check_finite
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


def _sum_and_rescale(per_client_chunks: list[list[Ciphertext]], weight_sum: float) -> list[Ciphertext]:
    """Fold each chunk over the clients with add(), then one x(1/sum w)
    rescale per chunk.

    Delayed normalization: the division never touches ciphertext-ciphertext
    arithmetic, only a single plaintext reciprocal multiplication per chunk.
    Every component is summed and rescaled alone, so the coordinator's c0
    and each site's rebuilt c1 are the halves of one aggregate, bit for bit.
    """
    reciprocal = 1.0 / weight_sum
    out = []
    for idx in range(len(per_client_chunks[0])):
        total = per_client_chunks[0][idx]
        for chunks in per_client_chunks[1:]:
            total = he_add(total, chunks[idx])
        out.append(mul_scalar_rescale(total, reciprocal))
    return out


def aggregate_encrypted(per_client_chunks: list[list[Ciphertext]], weights) -> list[Ciphertext]:
    """The aggregate's c0 of each chunk at its value columns: the clients'
    ``c0_row``s summed and scaled by 1/sum w.  Its c1 is left to each site
    (``aggregate_c1``)."""
    if not per_client_chunks:
        raise LayoutError("no encrypted updates to aggregate")
    if len(weights) != len(per_client_chunks):
        raise LayoutError("weights and updates differ in count")
    c0s = [[c0_row(ct) for ct in cts] for cts in per_client_chunks]
    return _sum_and_rescale(c0s, float(sum(weights)))


@functools.lru_cache(maxsize=2)
def public_a(
    params: CkksParams, seed: int, round_index: int, sites: tuple[str, ...], n_chunks: int
) -> tuple[tuple[np.ndarray, ...], ...]:
    """c1 = a of each site's ciphertext of each chunk in round
    ``round_index``, indexed [site][chunk], each drawn from
    ``derived_rng(seed, "ckks-a", site, round_index, chunk)``.

    In RLWE ``a`` is public, so every party derives it, as multiparty CKKS
    does from a common reference string: the coordinator checks each
    update's c1 against it, and every site rebuilds the aggregate's c1 from
    it.  The noise ``e`` stays on the site's private stream.  A round's rows
    serve its encryption, its aggregation and, a round later, the sites'
    rebuild, so a process keeps the two latest rounds' rows (read-only) and
    draws each once, however many parties it hosts."""
    rows = []
    for site in sites:
        per_chunk = []
        for chunk in range(n_chunks):
            a = sample_a(params, derived_rng(seed, "ckks-a", site, round_index, chunk))
            a.flags.writeable = False
            per_chunk.append(a)
        rows.append(tuple(per_chunk))
    return tuple(rows)


def aggregate_c1(
    params: CkksParams, per_client_a: list[list[np.ndarray]], weight_sum: float
) -> list[Ciphertext]:
    """The aggregate's c1 of each chunk, which the coordinator does not send:
    the clients' public ``a`` rows summed and scaled as ``aggregate_encrypted``
    sums and scales their c0, but whole.  A c1 half carries no values, so
    its slot fill is 0; ``with_c1`` takes the fill from c0."""
    level, scale = params.fresh_level, params.scale
    halves = [[Ciphertext(a[None], level, scale, 0, params) for a in rows] for rows in per_client_a]
    return _sum_and_rescale(halves, weight_sum)


def aggregate_serialized(
    params: CkksParams,
    payloads: dict[str, list[bytes]],
    weights,
    length: int,
    seed: int,
    round_index: int,
) -> list[bytes]:
    """The coordinator's ciphertext sum: ``payloads`` maps each site, in site
    order, to its serialized chunks of a ``length``-value update in round
    ``round_index``.  A site that sends other than ⌈length / (N/2)⌉ chunks,
    a chunk that is not a fresh pair of its ``chunk_fills`` entry
    (``deserialize_ct``), or a c1 that is not its ``public_a`` of run
    ``seed`` aborts with its name.  Returns the aggregate's serialized c0
    halves at their value columns.  Needs no key."""
    fills = chunk_fills(length, params)
    expected_a = public_a(params, seed, round_index, tuple(payloads), len(fills))
    per_client = []
    for (client_id, blobs), own_a in zip(payloads.items(), expected_a):
        if len(blobs) != len(fills):
            raise ProtocolError(f"client {client_id!r} sent {len(blobs)} chunks, expected {len(fills)}")
        try:
            cts = [deserialize_ct(blob, params, fill) for blob, fill in zip(blobs, fills)]
        except DecodeError as err:
            raise ProtocolError(f"client {client_id!r} sent a bad ciphertext: {err}") from err
        if not all(np.array_equal(ct.c1, a) for ct, a in zip(cts, own_a)):
            raise ProtocolError(f"client {client_id!r} sent a c1 that is not its public a")
        per_client.append(cts)
    return [serialize_ct(ct) for ct in aggregate_encrypted(per_client, weights)]


# -- server ------------------------------------------------------------------


class FederationServer:
    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.kind = ModelKind(cfg.model)
        self.clients: dict[str, ClientRecord] = {}
        self.session_digest = cfg.session_digest()
        self.mode = cfg.privacy_mode  # fixes the form of every update and ROUND_DONE
        self.encrypted = self.mode == "he"
        self.event_log: list[list] = []
        self._t0 = time.monotonic()

    def _log(self, kind: str, who: str = ""):
        self.event_log.append([time.monotonic() - self._t0, kind, who])

    # -- registration --------------------------------------------------------

    def accept_clients(self, channels: list, timeout: float | None = None) -> None:
        """Read and admit the JOIN on each channel in turn; raise at the first
        refusal or if a site has not joined by the end."""
        for channel in channels:
            self._admit(channel, channel.recv(timeout=timeout, max_body=tr.MAX_JOIN_BODY))
        self._check_all_joined()

    def _admit(self, channel, frame: tr.Frame) -> None:
        """Admit the site whose first frame, read from ``channel``, is
        ``frame``, or refuse it and raise.

        A JOIN fixes the site's session: its name, its weight and, through
        the session digest, the model, privacy mode, DP and HE parameters and
        weighting it runs.  A site refused here never sees a broadcast, so it
        sends no update.  A site is registered only once its ACK is sent; one
        whose ACK cannot be sent is closed and refused.
        """
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
        if join.client_id not in self.cfg.site_names() or join.client_id in self.clients:
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
        try:
            channel.send(tr.Frame(tr.MSG_JOIN_ACK, 0))
        except tr.ChannelClosed as err:
            channel.close()
            raise ProtocolError(f"client {join.client_id!r} failed: {err}") from err
        weight = float(join.n_train) if self.cfg.weighting == "examples" else 1.0
        self.clients[join.client_id] = ClientRecord(join.client_id, weight, channel)
        self._log("join", join.client_id)

    def _check_all_joined(self) -> None:
        missing = set(self.cfg.site_names()) - set(self.clients)
        if missing:
            raise ProtocolError(f"sites never joined: {sorted(missing)}")

    # -- round loop ------------------------------------------------------------

    def _broadcast(self, round_index: int, final: bool, global_params: np.ndarray, he_state):
        """Send every site the global model: θ, or once there is one, the
        serialized HE aggregate's c0 halves and its Σw.  A send that fails
        raises a ``ProtocolError`` naming the site."""
        payload, weight_sum = (global_params, None) if he_state is None else he_state
        body = tr.BroadcastBody(final, payload, weight_sum)
        frame = tr.Frame(tr.MSG_BROADCAST, round_index, tr.encode_broadcast(body))
        for client_id in self.cfg.site_names():
            try:
                self.clients[client_id].channel.send(frame)
            except tr.ChannelClosed as err:
                raise ProtocolError(f"client {client_id!r} failed: {err}") from err
        self._log("broadcast", str(round_index))

    def _collect(self, round_index: int, msg_type: int, decode) -> dict[str, tuple[object, float]]:
        """Each site's reply body, decoded by ``decode`` in the session's
        form, and arrival time, in site order, read under one deadline.  The
        channel names the site and the session fixes the payload's form, so
        no body repeats either.

        The round is a hard barrier, so reading the sites one after another
        loses nothing: the coordinator cannot act before the last reply.
        """
        received: dict[str, tuple[object, float]] = {}
        event = "update_received" if msg_type == tr.MSG_UPDATE else "round_done_received"
        deadline = time.monotonic() + self.cfg.timeout_seconds
        for client_id in self.cfg.site_names():
            try:
                frame = self.clients[client_id].channel.recv(timeout=deadline - time.monotonic())
            except TimeoutError:
                raise RoundTimeoutError(f"round {round_index}: no reply from {client_id!r}") from None
            except Exception as err:
                raise ProtocolError(f"client {client_id!r} failed: {err}") from err
            failed = frame.msg_type == tr.MSG_ERROR  # the site says why it stopped
            if not failed and (frame.msg_type != msg_type or frame.round != round_index):
                raise ProtocolError(
                    f"client {client_id!r} sent type {frame.msg_type} for round {frame.round}, "
                    f"expected type {msg_type} round {round_index}"
                )
            try:
                body = tr.decode_error(frame.body) if failed else decode(frame.body)
            except DecodeError as err:
                raise ProtocolError(f"client {client_id!r} sent a bad body: {err}") from err
            if failed:
                raise ProtocolError(f"client {client_id!r} failed: {body}")
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
        he_state: tuple[list[bytes], float] | None = None  # the serialized aggregate's c0s, Σw
        length = global_params.size

        try:
            for round_index in range(cfg.rounds):
                broadcast_at = time.monotonic() - self._t0
                self._broadcast(round_index, False, global_params, he_state)
                received = self._collect(
                    round_index, tr.MSG_UPDATE, functools.partial(tr.decode_update, mode=self.mode)
                )
                payloads = {cid: update.payload for cid, (update, _) in received.items()}
                if not self.encrypted:  # aggregate_serialized checks HE chunks
                    for client_id, values in payloads.items():
                        if values.size != length or not np.isfinite(values).all():
                            raise ProtocolError(
                                f"client {client_id!r} sent an update that is not {length} finite values"
                            )
                self._log("aggregate_start", str(round_index))
                agg_t0 = time.monotonic()
                weights = [self.clients[cid].weight for cid in received]
                if self.encrypted:
                    blobs = aggregate_serialized(cfg.he, payloads, weights, length, cfg.seed, round_index)
                    he_state = (blobs, float(sum(weights)))
                else:
                    global_params = global_params + aggregate_plain(list(payloads.values()), weights)
                agg_seconds = time.monotonic() - agg_t0
                report.rounds.append(
                    self._round_record(round_index, received, broadcast_at, agg_seconds)
                )

            # final broadcast: clients evaluate the finished global model
            self._broadcast(cfg.rounds, True, global_params, he_state)
            done = self._collect(
                cfg.rounds,
                tr.MSG_ROUND_DONE,
                functools.partial(tr.decode_round_done, encrypted=self.encrypted),
            )
            report.cross_site = CrossSiteTable.from_rows(
                [SiteValidation(cid, body.metrics) for cid, (body, _) in done.items()]
            )
            if self.encrypted:
                finals = {cid: body.final_params for cid, (body, _) in done.items()}
                report.final_params = _agreed_final_params(finals)
            else:
                report.final_params = global_params
        except (RoundTimeoutError, ProtocolError, AuthError, LayoutError, StateError, DecodeError) as err:
            report.aborted = True
            report.abort_reason = f"{type(err).__name__}: {err}"
        finally:
            self._shutdown(report.abort_reason)
        report.total_wall_seconds = time.monotonic() - wall_start
        report.event_log = self.event_log
        return report

    def _round_record(self, round_index, received, broadcast_at, agg_seconds):
        """``received`` maps each client id to its (UpdateBody, arrival time).
        A client's record takes every field it shares with its UpdateBody by
        name; ``payload_bytes`` is the decoder's: its update's values as they
        travel, without their count fields."""
        shared = {f.name for f in dataclasses.fields(tr.UpdateBody)}
        shared &= {f.name for f in dataclasses.fields(ClientRoundRecord)}
        clients = []
        for client_id in self.cfg.site_names():
            update, arrival = received[client_id]
            clients.append(
                ClientRoundRecord(
                    client_id=client_id,
                    weight=self.clients[client_id].weight,
                    arrival_offset_seconds=arrival - broadcast_at,
                    **{name: getattr(update, name) for name in shared},
                )
            )
        return RoundRecord(round_index, clients, agg_seconds)

    def _shutdown(self, abort_reason: str | None):
        """End every site's session: SHUTDOWN after a finished run, an ERROR
        with the reason after an aborted one."""
        frame = tr.Frame(tr.MSG_SHUTDOWN, 0)
        if abort_reason is not None:
            frame = tr.Frame(tr.MSG_ERROR, 0, tr.encode_error(f"run aborted: {abort_reason}"))
        for record in self.clients.values():
            with contextlib.suppress(Exception):
                record.channel.send(frame)


def _refuse(channel, reason: str, error: Exception) -> Exception:
    """Send a refused site ``reason`` in an ERROR frame, hang up, and return
    ``error`` for the coordinator to raise, also when the site has already
    hung up and the send fails."""
    with contextlib.suppress(tr.ChannelClosed):
        channel.send(tr.Frame(tr.MSG_ERROR, 0, tr.encode_error(reason)))
    channel.close()
    return error


def _agreed_final_params(finals: dict[str, np.ndarray]) -> np.ndarray:
    """The final HE-mode parameters, which every site must send bitwise equal:
    all sites decrypt the same aggregates with the same key."""
    first = next(iter(finals))
    for client_id, params in finals.items():
        if params.tobytes() != finals[first].tobytes():
            raise ProtocolError(
                f"client {client_id!r} sent final parameters that differ from {first!r}'s"
            )
    return finals[first]


# -- client ------------------------------------------------------------------


class HePipeline:
    """A site's CKKS steps: encrypt its update, decrypt the aggregate.

    Only sites build one.  Each derives the cohort secret from the shared run
    seed, mirroring a pre-agreed cohort key; the coordinator holds no key and
    sums ciphertexts with ``aggregate_serialized``.  It keeps no round
    state: each step is given its round.
    """

    def __init__(self, params: CkksParams, master_seed: int, site: str, sites: list[str], length: int):
        self.params = params
        self.keys = keygen(params, derived_rng(master_seed, "hekey"))
        self.master_seed = master_seed
        self.sites = tuple(sites)
        self.index = self.sites.index(site)
        self.fills = chunk_fills(length, params)  # of every update and aggregate

    def client_encode(self, delta: np.ndarray, round_index: int, rng) -> list[bytes]:
        """``delta`` as serialized ciphertext chunks of round ``round_index``,
        with ``e`` from ``rng`` and c1 this site's ``public_a``."""
        chunks = pack_update(delta, self.params)
        own_a = public_a(self.params, self.master_seed, round_index, self.sites, len(chunks))[self.index]
        return [
            serialize_ct(he_encrypt(he_encode(chunk, self.params), self.keys, rng, a=a))
            for chunk, a in zip(chunks, own_a)
        ]

    def client_decode(self, body: tr.BroadcastBody, round_index: int) -> tuple[np.ndarray, float]:
        """The aggregate of round ``round_index`` - 1 from the broadcast
        ``body`` of round ``round_index``: its serialized c0 halves at their
        value columns, whose c1 this site rebuilds from every site's
        ``public_a`` and the Σw the body carries."""
        t0 = time.monotonic()
        weight_sum, fills = body.weight_sum, self.fills
        if not (math.isfinite(weight_sum) and weight_sum > 0):
            raise LayoutError(f"the aggregate's weight sum {weight_sum} is not positive")
        if len(body.payload) != len(fills):
            raise LayoutError(f"the aggregate has {len(body.payload)} chunks, expected {len(fills)}")
        c0s = [deserialize_ct(blob, self.params, fill, row=True) for blob, fill in zip(body.payload, fills)]
        per_site_a = public_a(self.params, self.master_seed, round_index - 1, self.sites, len(fills))
        chunks = [
            he_decode(he_decrypt(with_c1(c0, c1), self.keys))
            for c0, c1 in zip(c0s, aggregate_c1(self.params, per_site_a, weight_sum))
        ]
        flat = check_finite(unpack_update(chunks, sum(fills)), "decrypted aggregate")
        return flat, time.monotonic() - t0


class FederationClient:
    def __init__(self, cfg: ExperimentConfig, client_id: str, train: CohortDataset, valid: CohortDataset):
        self.cfg = cfg
        self.client_id = client_id
        self.kind = ModelKind(cfg.model)
        self.train = train
        self.valid = valid
        self.he = None
        if cfg.privacy_mode == "he":
            self.he = HePipeline(cfg.he, cfg.seed, client_id, cfg.site_names(), N_PARAMS[self.kind])
        self.weight = float(len(train)) if cfg.weighting == "examples" else 1.0
        self.global_params: np.ndarray | None = None
        self.next_round = 0

    def _evaluate(self, params: np.ndarray) -> MetricSet:
        scores = predict_batch(self.kind, params, self.valid)
        return evaluate_scores(scores, self.valid.labels, self.cfg.threshold)

    def _install_broadcast(self, frame: tr.Frame) -> tuple[bool, float]:
        """Take the broadcast's global model; returns whether it is the final
        one and the seconds spent decrypting it.  The model comes as
        plaintext θ, except in an HE session after round 0, where it comes as
        the encrypted aggregate's c0 halves and its Σw."""
        encrypted = self.he is not None and frame.round > 0
        body = tr.decode_broadcast(frame.body, encrypted)
        if encrypted:
            delta, seconds = self.he.client_decode(body, frame.round)
            self.global_params = self.global_params + delta
            return body.final, seconds
        length = N_PARAMS[self.kind]
        if body.payload.size != length:
            raise LayoutError(
                f"broadcast carries {body.payload.size} values, {self.kind.value} expects {length}"
            )
        self.global_params = body.payload
        return body.final, 0.0

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
        final, privacy_seconds = self._install_broadcast(frame)
        pre_metrics = self._evaluate(self.global_params)

        if final:
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
        delta = trained - self.global_params
        if cfg.weighting == "examples":
            delta = delta * self.weight
        payload = delta
        if cfg.privacy_mode != "plain":
            rng = derived_rng(cfg.seed, "privacy", self.client_id, frame.round)
            t0 = time.monotonic()
            if cfg.privacy_mode == "dp":
                payload = svt_filter(delta, max(stats.steps, 1), cfg.dp, rng)
            else:
                payload = self.he.client_encode(delta, frame.round, rng)
            privacy_seconds += time.monotonic() - t0
        return tr.Frame(
            tr.MSG_UPDATE,
            frame.round,
            tr.encode_update(
                tr.UpdateBody(
                    steps=stats.steps,
                    payload=payload,
                    train_seconds=stats.wall_time,
                    privacy_seconds=privacy_seconds,
                    pre_metrics=pre_metrics,
                    post_metrics=post_metrics,
                ),
                cfg.privacy_mode,
            ),
        )

    def step(self, channel) -> bool:
        """Receive one coordinator frame and send its reply; False after
        SHUTDOWN.  If receiving or handling fails, the site sends an ERROR
        saying why, best effort, and re-raises."""
        try:
            reply = self.handle(channel.recv(timeout=self.cfg.timeout_seconds))
        except Exception as err:
            with contextlib.suppress(Exception):
                channel.send(tr.Frame(tr.MSG_ERROR, 0, tr.encode_error(f"{type(err).__name__}: {err}")))
            raise
        if reply is None:
            return False
        channel.send(reply)
        return True

    def run(self, channel) -> None:
        """Serve one coordinator over ``channel`` until it sends SHUTDOWN."""
        channel.send(self.join_frame())
        self.check_ack(channel.recv(timeout=self.cfg.timeout_seconds))
        while self.step(channel):
            pass


# -- orchestration -----------------------------------------------------------


def draw_site(cfg: ExperimentConfig, site, split=None, out=None):
    """``site`` from the generator of ``cfg``'s run: in generation order, or
    with ``split`` the ``(train, valid)`` pair ``generate_site`` makes,
    written into ``out`` if given."""
    spec = cfg.data.generator_spec(derive_seed(cfg.seed, "data"))
    return generate_site(spec, site, derived_rng(spec.seed, "site", site.name), split=split, out=out)


def _site_split(cfg: ExperimentConfig, site) -> tuple[float, int]:
    return cfg.train_frac, derive_seed(cfg.seed, "split", site.name)


def build_site_datasets(cfg: ExperimentConfig, only_site: str | None = None):
    """Per-site (train, valid) splits from the generator or CSV files."""
    out = {}
    for site in cfg.data.sites:
        if only_site is not None and site.name != only_site:
            continue
        split = _site_split(cfg, site)
        if cfg.data.csv_dir is not None:
            path = os.path.join(cfg.data.csv_dir, f"{site.name}.csv")
            if not os.path.exists(path):
                raise ConfigError(f"site file does not exist: {path}")
            out[site.name] = split_train_valid(read_csv(path), *split)
        else:
            out[site.name] = draw_site(cfg, site, split)
    if only_site is not None and only_site not in out:
        raise ProtocolError(f"unknown site {only_site!r}")
    return out


def _serve(client: FederationClient, channel) -> None:
    """A simulated site's turn: one ``step`` on the frame waiting for it.  A
    step that fails has sent its ERROR, which the coordinator reads."""
    with contextlib.suppress(Exception):
        client.step(channel)


def run_simulation(cfg: ExperimentConfig) -> RunReport:
    """All sites in-process and in the calling thread: each coordinator read
    of a site's ``SimChannel`` first has that site take one ``step``."""
    datasets = build_site_datasets(cfg)
    server = FederationServer(cfg)
    sites = []
    for name in cfg.site_names():
        server_end, client_end = tr.SimChannel.pair()
        client = FederationClient(cfg, name, *datasets[name])
        client_end.send(client.join_frame())
        server_end.serve = functools.partial(_serve, client, client_end)
        sites.append((server_end, client, client_end))
    server.accept_clients([server_end for server_end, _, _ in sites], timeout=cfg.timeout_seconds)
    for _, client, client_end in sites:
        client.check_ack(client_end.recv())
    return server.run()


def run_tcp_server(cfg: ExperimentConfig, host: str, port: int) -> RunReport:
    """The coordinator over TCP.  Until every site has joined or
    ``timeout_seconds`` have passed since it started listening, one
    ``selectors`` loop accepts connections and assembles each one's JOIN
    frame as its bytes arrive, so a connection that stays silent or stalls
    mid-frame keeps no other out.  A connection is admitted once its JOIN is
    whole.  One that is refused, malformed or hangs up, and one still
    without a whole JOIN when joining ends, is closed and logged as
    "refused".  Each channel keeps the part of its JOIN read so far."""
    listener = tr.TcpListener(host, port)
    server = FederationServer(cfg)
    pending: list = []  # channels without a whole JOIN yet, in accept order
    try:
        with selectors.DefaultSelector() as selector:

            def refuse(channel, err: Exception) -> None:
                pending.remove(channel)
                selector.unregister(channel)
                channel.close()
                server._log("refused", f"{type(err).__name__}: {err}")

            selector.register(listener, selectors.EVENT_READ)
            deadline = time.monotonic() + cfg.timeout_seconds
            while len(server.clients) < len(cfg.site_names()):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                ready = {key.fileobj for key, _ in selector.select(remaining)}
                for channel in [c for c in pending if c in ready]:
                    try:
                        frame = channel.recv_ready(tr.MAX_JOIN_BODY)
                        if frame is not None:
                            server._admit(channel, frame)
                            pending.remove(channel)
                            selector.unregister(channel)
                    except (AuthError, ConfigError, DecodeError, ProtocolError, OSError) as err:
                        refuse(channel, err)
                if listener in ready:
                    with contextlib.suppress(TimeoutError):
                        channel = listener.accept(timeout=0)
                        pending.append(channel)
                        selector.register(channel, selectors.EVENT_READ)
            for channel in list(pending):
                refuse(channel, TimeoutError("no whole JOIN when joining ended"))
        server._check_all_joined()
        return server.run()
    finally:
        for record in server.clients.values():
            record.channel.close()
        listener.close()


def run_tcp_client(cfg: ExperimentConfig, site: str, host: str, port: int) -> None:
    datasets = build_site_datasets(cfg, only_site=site)
    train, valid = datasets[site]
    channel = tr.open_tcp_channel(host, port, timeout=cfg.timeout_seconds)
    try:
        FederationClient(cfg, site, train, valid).run(channel)
    finally:
        channel.close()


def pool_sites(cfg: ExperimentConfig) -> CohortDataset:
    """Every site's training rows, then its validation rows, in site order:
    the parts of ``build_site_datasets`` concatenated.  Generated sites are
    drawn one at a time straight into their slices of one preallocated pool,
    so beside the pool only one site's generation buffers are held, never a
    second copy of the rows.  CSV sites, whose sizes are known only once
    read, are read and then concatenated."""
    if cfg.data.csv_dir is not None:
        return concat_datasets(part for parts in build_site_datasets(cfg).values() for part in parts)
    sizes = [sum(scaled_counts(site, cfg.data.scale_factor)) for site in cfg.data.sites]
    pool = empty_generated(sum(sizes))
    start = 0
    for site, size in zip(cfg.data.sites, sizes):
        draw_site(cfg, site, _site_split(cfg, site), out=pool[start : start + size])
        start += size
    return pool


def run_central(cfg: ExperimentConfig) -> RunReport:
    """Pooled-data baseline: k-fold cross-validation with the same learner."""
    full = pool_sites(cfg)
    kind = ModelKind(cfg.model)
    report = RunReport(kind="central", method="cml", learner=cfg.model, config=cfg.to_dict())
    t0 = time.monotonic()
    folds = kfold_split(full, cfg.central_folds, derive_seed(cfg.seed, "cv"))
    for fold_index in range(cfg.central_folds):
        # no loop variable (enumerate's included) holds a fold past its turn
        train, test = next(folds)
        train_cfg = TrainConfig(
            learning_rate=cfg.learning_rate,
            batch_size=cfg.batch_size,
            local_epochs=cfg.central_epochs,
            l2_penalty=cfg.l2_penalty,
            seed=derive_seed(cfg.seed, "central", fold_index),
        )
        params, _ = train_local(kind, init_params(kind, derive_seed(cfg.seed, "init")), train, train_cfg)
        report.fold_params.append(params)
        scores = predict_batch(kind, params, test)
        report.fold_metrics.append(evaluate_scores(scores, test.labels, cfg.threshold))
        del train, test  # before the next fold's rows are copied
    report.total_wall_seconds = time.monotonic() - t0
    return report

"""Message framing and the two federation channels (in-process and TCP).

Every message is one frame: magic "PFD1", a message type byte, a round
number, and a length-prefixed body.  All integers little-endian.  The sim
channel holds encoded frames in deques, so both transports exercise the same
wire format; reports from either transport are identical apart from
wall-clock fields.

A TCP channel reads through one method, ``TcpChannel.recv_ready``, which
keeps the frame it is assembling in the channel's buffer; the blocking
``recv`` waits on it.  Both raise ``ChannelClosed`` when the peer hangs up
or resets the connection, and ``send`` raises it when the socket fails.
"""

from __future__ import annotations

import select
import socket
import struct
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DecodeError, EndpointError, ProtocolError
from .metrics import MetricSet

MAGIC = b"PFD1"
MAX_BODY = 256 * 1024 * 1024  # fits N=8192 ciphertext chunk lists with margin
MAX_JOIN_BODY = 4096  # a site name, a token, a count and a digest; read before auth

MSG_JOIN = 0
MSG_JOIN_ACK = 1
MSG_BROADCAST = 2
MSG_UPDATE = 3
MSG_ROUND_DONE = 4
MSG_SHUTDOWN = 5
MSG_ERROR = 6
_VALID_TYPES = frozenset(range(7))

_HEADER = struct.Struct("<4sBIQ")  # magic, msg_type, round, body_len


@dataclass(frozen=True)
class Frame:
    msg_type: int
    round: int
    body: bytes = b""


def frame_encode(frame: Frame) -> bytes:
    if frame.msg_type not in _VALID_TYPES:
        raise DecodeError(f"unknown msg_type {frame.msg_type}")
    if len(frame.body) > MAX_BODY:
        raise DecodeError("body exceeds 256 MiB limit")
    return _HEADER.pack(MAGIC, frame.msg_type, frame.round, len(frame.body)) + frame.body


def _parse_header(header: bytes, max_body: int) -> tuple[int, int, int]:
    """(msg_type, round, body_len) of a frame header, checked against ``max_body``."""
    magic, msg_type, round_no, body_len = _HEADER.unpack_from(header)
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r}")
    if msg_type not in _VALID_TYPES:
        raise DecodeError(f"unknown msg_type {msg_type}")
    if body_len > max_body:
        raise DecodeError(f"body of {body_len} bytes exceeds the {max_body}-byte limit")
    return msg_type, round_no, body_len


def frame_decode(data: bytes, max_body: int = MAX_BODY) -> Frame:
    if len(data) < _HEADER.size:
        raise DecodeError("truncated frame header")
    msg_type, round_no, body_len = _parse_header(data, max_body)
    if len(data) != _HEADER.size + body_len:
        raise DecodeError("frame length mismatch")
    return Frame(msg_type, round_no, data[_HEADER.size :])


# -- message bodies ----------------------------------------------------------

_METRICS = struct.Struct("<dddIId")


def _pack_metrics(m: MetricSet) -> bytes:
    return _METRICS.pack(m.auc, m.sensitivity, m.specificity, m.n_pos, m.n_neg, m.threshold)


def _unpack_metrics(blob: bytes) -> MetricSet:
    auc, sens, spec, n_pos, n_neg, threshold = _METRICS.unpack(blob)
    return MetricSet(auc, sens, spec, n_pos, n_neg, threshold)


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError("body truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def take_str(self) -> str:
        (n,) = struct.unpack("<I", self.take(4))
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as err:
            raise DecodeError(f"string is not UTF-8: {err.reason}") from None

    def take_flag(self) -> bool:
        (flag,) = self.take(1)
        if flag > 1:
            raise DecodeError(f"flag byte {flag} is neither 0 nor 1")
        return bool(flag)

    def done(self):
        if self.pos != len(self.data):
            raise DecodeError("trailing bytes in body")


SESSION_DIGEST_BYTES = 8


@dataclass(frozen=True)
class JoinBody:
    """A site's opening frame.  It fixes, for the whole session, who the site
    is, what it weighs and which settings it runs (``session_digest``, see
    ``ExperimentConfig.session_digest``); later frames repeat none of it."""

    client_id: str
    token: str
    n_train: int
    session_digest: bytes


def encode_join(j: JoinBody) -> bytes:
    return b"".join(
        [_pack_str(j.client_id), _pack_str(j.token), struct.pack("<Q", j.n_train), j.session_digest]
    )


def decode_join(body: bytes) -> JoinBody:
    r = _Reader(body)
    client_id = r.take_str()
    token = r.take_str()
    (n_train,) = struct.unpack("<Q", r.take(8))
    session_digest = r.take(SESSION_DIGEST_BYTES)
    r.done()
    return JoinBody(client_id, token, n_train, session_digest)


def _pack_f64(values: np.ndarray) -> bytes:
    values = np.asarray(values, dtype=np.float64)
    return struct.pack("<Q", values.size) + values.astype("<f8").tobytes()


def _unpack_f64(r: _Reader) -> np.ndarray:
    (count,) = struct.unpack("<Q", r.take(8))
    return np.frombuffer(r.take(8 * count), dtype="<f8").astype(np.float64)


def _pack_chunks(chunks: list[bytes]) -> bytes:
    out = [struct.pack("<I", len(chunks))]
    for c in chunks:
        out.append(struct.pack("<Q", len(c)))
        out.append(c)
    return b"".join(out)


def _unpack_chunks(r: _Reader) -> list[bytes]:
    (n,) = struct.unpack("<I", r.take(4))
    chunks = []
    for _ in range(n):
        (size,) = struct.unpack("<Q", r.take(8))
        chunks.append(r.take(size))
    return chunks


_CODE_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)  # value 4k + j sits at bits 2j of byte k


def _pack_ternary(values) -> bytes:
    """A DP update y as a lossless ternary code: the count n, c = max|yᵢ|
    as f64, ⌈n/4⌉ bytes of 2-bit codes (0 → +0.0, 1 → +c, 2 → −c,
    3 → literal), then the literals as f64 in index order.

    A value takes a short code only if its bit pattern is that of +0.0, +c
    or −c, so every other value, −0.0 too unless c is 0, travels as a
    literal, and every value decodes to the same bits.  The SVT filter's
    output is almost all exact zeros and ±γ·steps, so few values need a
    literal."""
    y = np.ascontiguousarray(values, dtype="<f8").reshape(-1)
    c = np.abs(y).max() if y.size else np.float64(0.0)
    plus_c, minus_c = np.array([c, -c], dtype="<f8").view("<u8")
    bits = y.view("<u8")
    codes = np.zeros(-(-y.size // 4) * 4, dtype=np.uint8)  # padded with zeros to a multiple of 4
    own = codes[: y.size]
    own[:] = 3
    # the lowest code wins: with c = 0, +0.0 is code 0 and −0.0 code 2
    for code, pattern in ((2, minus_c), (1, plus_c), (0, 0)):
        own[bits == pattern] = code
    packed = np.bitwise_or.reduce(codes.reshape(-1, 4) << _CODE_SHIFTS, axis=1)
    return struct.pack("<Qd", y.size, c) + packed.tobytes() + y[own == 3].tobytes()


def _unpack_ternary(r: _Reader) -> np.ndarray:
    """The values ``_pack_ternary`` coded, bit for bit.  Nonzero padding
    bits, a short body and a literal too many (trailing bytes) fail."""
    count, c = struct.unpack("<Qd", r.take(16))
    packed = np.frombuffer(r.take(-(-count // 4)), dtype=np.uint8)
    codes = ((packed[:, None] >> _CODE_SHIFTS) & 3).reshape(-1)
    if codes[count:].any():
        raise DecodeError("nonzero padding bits after the last value's code")
    codes = codes[:count]
    literal = codes == 3
    values = np.array([0.0, c, -c, 0.0])[codes]
    values[literal] = np.frombuffer(r.take(8 * int(literal.sum())), dtype="<f8")
    return values


# An UPDATE payload's (pack, unpack) in each privacy mode: a plain delta as
# f64s, a DP one as its ternary code, an HE one as ciphertext chunks.
_UPDATE_FORMS = {
    "plain": (_pack_f64, _unpack_f64),
    "dp": (_pack_ternary, _unpack_ternary),
    "he": (_pack_chunks, _unpack_chunks),
}


@dataclass(frozen=True)
class UpdateBody:
    """A site's answer to a round broadcast; the channel names the site."""

    steps: int
    payload: object  # f64 array (plain, dp) or list of ciphertext blobs (he)
    train_seconds: float
    privacy_seconds: float  # dp-filter or encrypt+decrypt time
    pre_metrics: MetricSet
    post_metrics: MetricSet
    # the payload's bytes on the wire less its count fields; decode_update sets it
    payload_bytes: int = 0


def encode_update(u: UpdateBody, mode: str) -> bytes:
    """``u`` with its payload in the form of privacy mode ``mode``."""
    pack, _ = _UPDATE_FORMS[mode]
    return b"".join(
        [
            struct.pack("<Idd", u.steps, u.train_seconds, u.privacy_seconds),
            _pack_metrics(u.pre_metrics),
            _pack_metrics(u.post_metrics),
            pack(u.payload),
        ]
    )


def decode_update(body: bytes, mode: str) -> UpdateBody:
    """The session's privacy mode ``mode`` fixes the payload's form, so no
    body names it; a body in another form fails to decode.  The payload's
    count fields are 8 bytes for f64 values and the ternary code, and 4 + 8
    per chunk for ciphertext chunks."""
    _, unpack = _UPDATE_FORMS[mode]
    r = _Reader(body)
    steps, train_s, privacy_s = struct.unpack("<Idd", r.take(20))
    pre = _unpack_metrics(r.take(_METRICS.size))
    post = _unpack_metrics(r.take(_METRICS.size))
    start = r.pos
    payload = unpack(r)
    r.done()
    counts = 4 + 8 * len(payload) if isinstance(payload, list) else 8
    return UpdateBody(steps, payload, train_s, privacy_s, pre, post, r.pos - start - counts)


@dataclass(frozen=True)
class BroadcastBody:
    final: bool
    payload: object  # f64 array, or an HE aggregate's serialized c0 halves
    weight_sum: float | None = None  # an HE aggregate's Σw, from which sites rebuild its c1


def encode_broadcast(b: BroadcastBody) -> bytes:
    """θ as f64 values, or an HE aggregate (``weight_sum`` set) as its
    chunks followed by its Σw."""
    final = struct.pack("<B", int(b.final))
    if b.weight_sum is None:
        return final + _pack_f64(b.payload)
    return final + _pack_chunks(b.payload) + struct.pack("<d", b.weight_sum)


def decode_broadcast(body: bytes, encrypted: bool) -> BroadcastBody:
    """The session fixes the payload's form, so no body names it:
    ``encrypted`` for an HE broadcast after round 0, whose chunks are
    followed by the aggregate's Σw.  A body in the other form fails to
    decode."""
    r = _Reader(body)
    final = r.take_flag()
    payload = _unpack_chunks(r) if encrypted else _unpack_f64(r)
    weight_sum = struct.unpack("<d", r.take(8))[0] if encrypted else None
    r.done()
    return BroadcastBody(final, payload, weight_sum)


@dataclass(frozen=True)
class RoundDoneBody:
    """A site's answer to the final broadcast; the channel names the site."""

    metrics: MetricSet
    final_params: np.ndarray | None  # revealed for the run report in He mode


def encode_round_done(d: RoundDoneBody) -> bytes:
    params = b"" if d.final_params is None else _pack_f64(d.final_params)
    return _pack_metrics(d.metrics) + params


def decode_round_done(body: bytes, encrypted: bool) -> RoundDoneBody:
    """``encrypted``: an HE session, whose sites send the final θ."""
    r = _Reader(body)
    metrics = _unpack_metrics(r.take(_METRICS.size))
    final_params = _unpack_f64(r) if encrypted else None
    r.done()
    return RoundDoneBody(metrics, final_params)


def encode_error(message: str) -> bytes:
    return _pack_str(message)


def decode_error(body: bytes) -> str:
    r = _Reader(body)
    msg = r.take_str()
    r.done()
    return msg


# -- channels ----------------------------------------------------------------


class ChannelClosed(ProtocolError):
    pass


class SimChannel:
    """In-process bidirectional channel carrying encoded frames in deques.

    Both ends live in one thread, so a frame that is not waiting when ``recv``
    is called can never arrive.  ``serve``, if set, is the peer's next step:
    ``recv`` calls it while the inbox is empty, which lets an in-process
    client produce its reply when the coordinator reads its channel.
    """

    def __init__(self, inbox: deque, outbox: deque):
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False
        self.serve = None

    @classmethod
    def pair(cls) -> tuple["SimChannel", "SimChannel"]:
        a_to_b: deque = deque()
        b_to_a: deque = deque()
        return cls(b_to_a, a_to_b), cls(a_to_b, b_to_a)

    def send(self, frame: Frame) -> int:
        data = frame_encode(frame)
        self._outbox.append(data)
        return len(data)

    def recv(self, timeout: float | None = None, max_body: int = MAX_BODY) -> Frame:
        if not self._inbox and self.serve is not None:
            self.serve()
        if not self._inbox:
            raise TimeoutError("no frame waiting on the channel")
        if self._inbox[0] is None:  # stays, so every later recv sees the close
            raise ChannelClosed("peer closed the channel")
        return frame_decode(self._inbox.popleft(), max_body)

    def close(self):
        if not self._closed:
            self._closed = True
            self._outbox.append(None)


class TcpChannel:
    """Frame transport over one TCP socket.

    ``recv_ready`` is the one reader: it alone reads the socket and parses a
    header, and it keeps the frame it is assembling in the channel's buffer,
    so a caller holds no bytes between calls.  ``recv`` waits on it.  Both
    raise ``DecodeError`` for a bad header, one whose body exceeds
    ``max_body`` among them, and ``ChannelClosed`` when the peer hangs up:
    "peer closed the channel" between frames, "connection closed mid-frame"
    inside one, "receive failed: …" when the socket fails (a reset peer).
    ``send`` raises ``ChannelClosed`` when the socket fails, a peer that has
    hung up among the causes.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.settimeout(None)  # blocking sends; reads never block (MSG_DONTWAIT)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._pending = bytearray()  # the frame read so far
        self._readable = select.poll()
        self._readable.register(sock, select.POLLIN)

    def send(self, frame: Frame) -> int:
        data = frame_encode(frame)
        try:
            self._sock.sendall(data)
        except OSError as err:
            raise ChannelClosed(f"send failed: {err.strerror or err}") from None
        return len(data)

    def recv(self, timeout: float | None = None, max_body: int = MAX_BODY) -> Frame:
        """The next frame; ``timeout`` bounds the whole frame, not each read.
        A frame already whole is returned even at ``timeout=0``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while (frame := self.recv_ready(max_body)) is None:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise TimeoutError("channel receive timed out")
            self._readable.poll(None if remaining is None else remaining * 1000)
        return frame

    def recv_ready(self, max_body: int = MAX_BODY) -> Frame | None:
        """Add what has arrived of the next frame to the channel's buffer,
        without blocking; return the frame once it is whole, else None.  The
        header is checked against ``max_body`` as soon as it is in, and no
        byte past the frame's end is read."""
        pending = self._pending
        while True:
            need = _HEADER.size - len(pending)
            if need <= 0:
                msg_type, round_no, body_len = _parse_header(pending, max_body)
                need += body_len
                if need == 0:
                    self._pending = bytearray()
                    return Frame(msg_type, round_no, bytes(pending[_HEADER.size :]))
            try:
                chunk = self._sock.recv(min(need, 1 << 20), socket.MSG_DONTWAIT)
            except BlockingIOError:
                return None
            except OSError as err:  # a reset peer, say
                raise ChannelClosed(f"receive failed: {err.strerror or err}") from None
            if not chunk:
                raise ChannelClosed(
                    "connection closed mid-frame" if pending else "peer closed the channel"
                )
            pending += chunk

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def open_tcp_channel(host: str, port: int, timeout: float = 30.0) -> TcpChannel:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as err:
        raise EndpointError(f"cannot connect to {host}:{port}: {err.strerror or err}") from None
    return TcpChannel(sock)


class TcpListener:
    def __init__(self, host: str, port: int):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
            self._sock.listen(16)
        except OSError as err:
            self._sock.close()
            raise EndpointError(f"cannot listen on {host}:{port}: {err.strerror or err}") from None

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def fileno(self) -> int:
        return self._sock.fileno()

    def accept(self, timeout: float | None = None) -> TcpChannel:
        """The next connection; ``timeout=0`` takes one only if it is waiting."""
        self._sock.settimeout(timeout)
        try:
            conn, _ = self._sock.accept()
        except (socket.timeout, BlockingIOError):
            raise TimeoutError("no connection before timeout") from None
        return TcpChannel(conn)

    def close(self):
        self._sock.close()

"""Message framing and the two federation channels (in-process and TCP).

Every message is one frame: magic "PFD1", a message type byte, a round
number, and a length-prefixed body.  All integers little-endian.  The sim
channel holds encoded frames in deques, so both transports exercise the same
wire format; reports from either transport are identical apart from
wall-clock fields.
"""

from __future__ import annotations

import socket
import struct
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DecodeError, ProtocolError
from .metrics import MetricSet

MAGIC = b"PFD1"
MAX_BODY = 256 * 1024 * 1024  # fits N=8192 ciphertext chunk lists with margin
MAX_JOIN_BODY = 4096  # a site name, a token and two counts; read before auth

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

    def unpack(self, fmt: struct.Struct):
        return fmt.unpack(self.take(fmt.size))

    def take_str(self) -> str:
        (n,) = struct.unpack("<I", self.take(4))
        return self.take(n).decode("utf-8")

    def done(self):
        if self.pos != len(self.data):
            raise DecodeError("trailing bytes in body")


@dataclass(frozen=True)
class JoinBody:
    client_id: str
    token: str
    n_train: int
    n_valid: int


def encode_join(j: JoinBody) -> bytes:
    return _pack_str(j.client_id) + _pack_str(j.token) + struct.pack("<QQ", j.n_train, j.n_valid)


def decode_join(body: bytes) -> JoinBody:
    r = _Reader(body)
    client_id = r.take_str()
    token = r.take_str()
    n_train, n_valid = struct.unpack("<QQ", r.take(16))
    r.done()
    return JoinBody(client_id, token, n_train, n_valid)


PAYLOAD_PLAIN = 0  # little-endian f64 array (Plain and Dp updates, broadcasts)
PAYLOAD_CHUNKS = 1  # ciphertext chunk list (He updates and He broadcasts)


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


def _pack_payload(kind: int, payload) -> bytes:
    head = struct.pack("<B", kind)
    if kind == PAYLOAD_PLAIN:
        return head + _pack_f64(payload)
    return head + _pack_chunks(payload)


def _unpack_payload(r: _Reader):
    (kind,) = struct.unpack("<B", r.take(1))
    if kind == PAYLOAD_PLAIN:
        return kind, _unpack_f64(r)
    if kind == PAYLOAD_CHUNKS:
        return kind, _unpack_chunks(r)
    raise DecodeError(f"unknown payload kind {kind}")


@dataclass(frozen=True)
class UpdateBody:
    client_id: str
    steps: int
    mode: str  # plain | dp | he
    payload_kind: int
    payload: object  # f64 array or list of ciphertext blobs
    weight: float
    train_seconds: float
    privacy_seconds: float  # dp-filter or encrypt+decrypt time
    pre_metrics: MetricSet
    post_metrics: MetricSet


def encode_update(u: UpdateBody) -> bytes:
    return b"".join(
        [
            _pack_str(u.client_id),
            struct.pack("<I", u.steps),
            _pack_str(u.mode),
            struct.pack("<ddd", u.weight, u.train_seconds, u.privacy_seconds),
            _pack_metrics(u.pre_metrics),
            _pack_metrics(u.post_metrics),
            _pack_payload(u.payload_kind, u.payload),
        ]
    )


def decode_update(body: bytes) -> UpdateBody:
    r = _Reader(body)
    client_id = r.take_str()
    (steps,) = struct.unpack("<I", r.take(4))
    mode = r.take_str()
    weight, train_s, privacy_s = struct.unpack("<ddd", r.take(24))
    pre = _unpack_metrics(r.take(_METRICS.size))
    post = _unpack_metrics(r.take(_METRICS.size))
    kind, payload = _unpack_payload(r)
    r.done()
    return UpdateBody(client_id, steps, mode, kind, payload, weight, train_s, privacy_s, pre, post)


@dataclass(frozen=True)
class BroadcastBody:
    final: bool
    payload_kind: int
    payload: object


def encode_broadcast(b: BroadcastBody) -> bytes:
    return struct.pack("<B", int(b.final)) + _pack_payload(b.payload_kind, b.payload)


def decode_broadcast(body: bytes) -> BroadcastBody:
    r = _Reader(body)
    (final,) = struct.unpack("<B", r.take(1))
    kind, payload = _unpack_payload(r)
    r.done()
    return BroadcastBody(bool(final), kind, payload)


@dataclass(frozen=True)
class RoundDoneBody:
    client_id: str
    metrics: MetricSet
    final_params: np.ndarray | None  # revealed for the run report in He mode


def encode_round_done(d: RoundDoneBody) -> bytes:
    out = [_pack_str(d.client_id), _pack_metrics(d.metrics)]
    if d.final_params is None:
        out.append(struct.pack("<B", 0))
    else:
        out.append(struct.pack("<B", 1))
        out.append(_pack_f64(d.final_params))
    return b"".join(out)


def decode_round_done(body: bytes) -> RoundDoneBody:
    r = _Reader(body)
    client_id = r.take_str()
    metrics = _unpack_metrics(r.take(_METRICS.size))
    (has_params,) = struct.unpack("<B", r.take(1))
    final_params = _unpack_f64(r) if has_params else None
    r.done()
    return RoundDoneBody(client_id, metrics, final_params)


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
    """Frame transport over one TCP socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, frame: Frame) -> int:
        data = frame_encode(frame)
        self._sock.sendall(data)
        return len(data)

    def _recv_exact(self, n: int, deadline: float | None, frame_start: bool = False) -> bytes:
        parts = []
        while n:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise TimeoutError("channel receive timed out")
            self._sock.settimeout(remaining)
            chunk = self._sock.recv(min(n, 1 << 20))  # socket.timeout is a TimeoutError
            if not chunk:
                if frame_start and not parts:  # hung up between frames
                    raise ChannelClosed("peer closed the channel")
                raise ChannelClosed("connection closed mid-frame")
            parts.append(chunk)
            n -= len(chunk)
        return b"".join(parts)

    def recv(self, timeout: float | None = None, max_body: int = MAX_BODY) -> Frame:
        """The next frame; ``timeout`` bounds the whole frame, not each read."""
        deadline = None if timeout is None else time.monotonic() + timeout
        header = self._recv_exact(_HEADER.size, deadline, frame_start=True)
        msg_type, round_no, body_len = _parse_header(header, max_body)
        return Frame(msg_type, round_no, self._recv_exact(body_len, deadline))

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def open_tcp_channel(host: str, port: int, timeout: float = 30.0) -> TcpChannel:
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return TcpChannel(sock)


class TcpListener:
    def __init__(self, host: str, port: int):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def accept(self, timeout: float | None = None) -> TcpChannel:
        self._sock.settimeout(timeout)
        try:
            conn, _ = self._sock.accept()
        except socket.timeout:
            raise TimeoutError("no connection before timeout") from None
        conn.settimeout(None)
        return TcpChannel(conn)

    def close(self):
        self._sock.close()

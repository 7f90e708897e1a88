import contextlib
import itertools
import selectors
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import ternary_code_bytes

from privfed.errors import DecodeError
from privfed.metrics import MetricSet
from privfed import transport as tr


def sample_metrics():
    return MetricSet(0.7, 0.2, 0.9, 10, 90, 0.5)


class TestFrameCodec:
    @given(
        st.sampled_from(sorted(tr._VALID_TYPES)),
        st.integers(0, 2**32 - 1),
        st.binary(max_size=512),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_bitwise(self, msg_type, round_no, body):
        frame = tr.Frame(msg_type, round_no, body)
        assert tr.frame_decode(tr.frame_encode(frame)) == frame

    def test_empty_shutdown_is_17_bytes(self):
        assert len(tr.frame_encode(tr.Frame(tr.MSG_SHUTDOWN, 0))) == 17

    def test_corrupted_magic(self):
        data = bytearray(tr.frame_encode(tr.Frame(tr.MSG_JOIN, 0, b"x")))
        data[0] = ord("X")
        with pytest.raises(DecodeError):
            tr.frame_decode(bytes(data))

    def test_truncated(self):
        data = tr.frame_encode(tr.Frame(tr.MSG_UPDATE, 1, b"hello"))
        with pytest.raises(DecodeError):
            tr.frame_decode(data[:-2])
        with pytest.raises(DecodeError):
            tr.frame_decode(data[:8])

    def test_unknown_type(self):
        with pytest.raises(DecodeError):
            tr.frame_encode(tr.Frame(99, 0))
        good = bytearray(tr.frame_encode(tr.Frame(tr.MSG_JOIN, 0)))
        good[4] = 99
        with pytest.raises(DecodeError):
            tr.frame_decode(bytes(good))

    def test_oversize_body_rejected(self):
        frame = tr.Frame(tr.MSG_UPDATE, 0, b"")
        encoded = bytearray(tr.frame_encode(frame))
        encoded[9:17] = (tr.MAX_BODY + 1).to_bytes(8, "little")
        with pytest.raises(DecodeError):
            tr.frame_decode(bytes(encoded))

    @given(st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_misbehave(self, data):
        # anything that is not a valid frame must raise DecodeError, nothing else
        try:
            frame = tr.frame_decode(data)
        except DecodeError:
            return
        assert tr.frame_encode(frame) == data


DIGEST = bytes(range(8))
# arbitrary bodies, half of them led by a short length prefix so that the
# string fields of JOIN and ERROR bodies get read
BODIES = st.one_of(
    st.binary(max_size=256),
    st.builds(lambda n, rest: struct.pack("<I", n) + rest, st.integers(0, 16), st.binary(max_size=64)),
)


class TestBodyCodecs:
    def test_join_roundtrip(self):
        join = tr.JoinBody("stockholm", "secret-token", 8000, DIGEST)
        assert tr.decode_join(tr.encode_join(join)) == join

    def test_update_plain_roundtrip(self):
        update = tr.UpdateBody(
            steps=40,
            payload=np.linspace(-1, 1, 11),
            train_seconds=0.25,
            privacy_seconds=0.01,
            pre_metrics=sample_metrics(),
            post_metrics=sample_metrics(),
        )
        back = tr.decode_update(tr.encode_update(update, "plain"), mode="plain")
        assert back.steps == update.steps
        assert (back.train_seconds, back.privacy_seconds) == (0.25, 0.01)
        assert np.array_equal(back.payload, update.payload)
        assert back.pre_metrics == update.pre_metrics

    def test_update_chunks_roundtrip(self):
        update = tr.UpdateBody(
            steps=1,
            payload=[b"chunk-one", b"\x00\x01\x02"],
            train_seconds=0.0,
            privacy_seconds=0.0,
            pre_metrics=sample_metrics(),
            post_metrics=sample_metrics(),
        )
        back = tr.decode_update(tr.encode_update(update, "he"), mode="he")
        assert back.payload == [b"chunk-one", b"\x00\x01\x02"]

    def test_broadcast_roundtrip(self):
        body = tr.BroadcastBody(True, np.arange(5.0))
        back = tr.decode_broadcast(tr.encode_broadcast(body), encrypted=False)
        assert back.final is True
        assert np.array_equal(back.payload, body.payload)
        chunks = tr.BroadcastBody(False, [b"aggregate", b""], 2931.0)
        assert tr.decode_broadcast(tr.encode_broadcast(chunks), encrypted=True) == chunks

    def test_round_done_roundtrip(self):
        done = tr.RoundDoneBody(sample_metrics(), np.ones(3))
        back = tr.decode_round_done(tr.encode_round_done(done), encrypted=True)
        assert np.array_equal(back.final_params, done.final_params)
        done2 = tr.RoundDoneBody(sample_metrics(), None)
        assert tr.decode_round_done(tr.encode_round_done(done2), encrypted=False) == done2

    def test_trailing_garbage_rejected(self):
        body = tr.encode_join(tr.JoinBody("a", "b", 1, DIGEST)) + b"extra"
        with pytest.raises(DecodeError):
            tr.decode_join(body)

    def test_body_byte_lengths(self):
        # a length prefix is 4 bytes, a metric set 40, a plain payload 8 + 8n,
        # a DP payload 8 + 8 + ceil(n / 4) + 8 per literal, a chunk list 4 +
        # the sum of (8 + chunk size), and an HE broadcast's weight sum 8
        metrics = sample_metrics()
        assert len(tr.encode_join(tr.JoinBody("stockholm", "secret-token", 8000, DIGEST))) == 45
        update = tr.UpdateBody(40, np.zeros(11), 0.25, 0.01, metrics, metrics)
        assert len(tr.encode_update(update, "plain")) == 20 + 2 * 40 + 8 + 8 * 11
        assert len(tr.encode_update(update, "dp")) == 20 + 2 * 40 + 8 + 8 + 3
        released = np.zeros(66)
        released[[0, 7, 65]], released[[3, 9]] = 0.5, (-0.5, 0.125)  # one literal, 0.125
        dp = tr.UpdateBody(40, released, 0.25, 0.01, metrics, metrics)
        assert len(tr.encode_update(dp, "dp")) == 20 + 2 * 40 + 33 + 8
        assert ternary_code_bytes(released) == 25 + 8
        chunks = tr.UpdateBody(40, [b"x" * 100, b"y" * 7], 0.25, 0.01, metrics, metrics)
        assert len(tr.encode_update(chunks, "he")) == 20 + 2 * 40 + 4 + 2 * 8 + 107
        # the decoder records each payload's size without its count fields
        for body, mode, size in [(update, "plain", 88), (dp, "dp", 33), (chunks, "he", 107)]:
            assert tr.decode_update(tr.encode_update(body, mode), mode).payload_bytes == size
        assert len(tr.encode_broadcast(tr.BroadcastBody(False, np.zeros(11)))) == 97
        he_broadcast = tr.BroadcastBody(False, [b"x" * 100], 4.0)
        assert len(tr.encode_broadcast(he_broadcast)) == 1 + 4 + 8 + 100 + 8
        assert len(tr.encode_round_done(tr.RoundDoneBody(metrics, None))) == 40
        assert len(tr.encode_round_done(tr.RoundDoneBody(metrics, np.zeros(66)))) == 40 + 8 + 8 * 66
        assert len(tr.encode_error("bad token")) == 13

    def test_invalid_utf8_string_is_a_decode_error(self):
        body = struct.pack("<I", 2) + b"\xff\xfe" + tr.encode_join(tr.JoinBody("a", "b", 1, DIGEST))[5:]
        with pytest.raises(DecodeError, match="not UTF-8"):
            tr.decode_join(body)
        with pytest.raises(DecodeError, match="not UTF-8"):
            tr.decode_error(struct.pack("<I", 1) + b"\x80")

    @pytest.mark.parametrize("degree", [1024, 8192])
    @pytest.mark.parametrize("n_values", [11, 66])
    def test_a_body_in_the_other_form_fails_to_decode(self, degree, n_values):
        # the session fixes each payload's form; no body names it
        rng = np.random.default_rng(degree + n_values)
        values = rng.normal(size=n_values)
        chunks = [rng.bytes(15 + 2 * 2 * degree * 8)]  # one fresh ciphertext's size
        metrics = sample_metrics()
        for payload, encrypted in [(values, False), (chunks, True)]:
            broadcast = tr.encode_broadcast(tr.BroadcastBody(False, payload, 4.0 if encrypted else None))
            tr.decode_broadcast(broadcast, encrypted)
            with pytest.raises(DecodeError, match="body truncated|trailing bytes in body"):
                tr.decode_broadcast(broadcast, not encrypted)
        released = np.where(rng.random(n_values) < 0.5, 0.0, np.sign(values) * 0.5)
        released[:2] = (0.5, 0.25)  # c = 0.5, and one literal
        modes = {"plain": values, "dp": released, "he": chunks}
        for mode, payload in modes.items():
            update = tr.encode_update(tr.UpdateBody(1, payload, 0.0, 0.0, metrics, metrics), mode)
            tr.decode_update(update, mode)
            for other in modes.keys() - {mode}:
                with pytest.raises(DecodeError, match="body truncated|trailing bytes in body|padding bits"):
                    tr.decode_update(update, other)
        for final_params, encrypted in [(None, False), (values, True)]:
            body = tr.encode_round_done(tr.RoundDoneBody(metrics, final_params))
            tr.decode_round_done(body, encrypted)
            with pytest.raises(DecodeError, match="body truncated|trailing bytes in body"):
                tr.decode_round_done(body, not encrypted)

    @pytest.mark.parametrize("flag", [2, 0x80, 0xFF])
    def test_broadcast_final_flag_is_zero_or_one(self, flag):
        body = tr.encode_broadcast(tr.BroadcastBody(True, np.arange(5.0)))
        assert body[0] == 1
        with pytest.raises(DecodeError, match=f"flag byte {flag} is neither 0 nor 1"):
            tr.decode_broadcast(bytes([flag]) + body[1:], encrypted=False)

    @pytest.mark.parametrize(
        "decode",
        [tr.decode_join, tr.decode_update, tr.decode_broadcast, tr.decode_round_done, tr.decode_error],
    )
    @given(data=BODIES)
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_raise_only_decode_error(self, decode, data):
        # the body decoders run in every payload form
        forms = {
            tr.decode_join: [()],
            tr.decode_error: [()],
            tr.decode_update: [("plain",), ("dp",), ("he",)],
        }.get(decode, [(False,), (True,)])
        for form in forms:
            try:
                decode(data, *form)
            except DecodeError:
                pass


FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64)


@st.composite
def dp_updates(draw):
    """Finite vectors shaped like the SVT filter's output: each value +0.0,
    -0.0, +c, -c or any finite float (subnormals included), at the two
    learners' sizes and at sizes that are not a multiple of 4."""
    n = draw(st.sampled_from([0, 1, 3, 11, 66, 67]) | st.integers(0, 40))
    c = draw(FINITE)
    pick = st.sampled_from([0.0, -0.0, c, -c]) | FINITE
    return np.array(draw(st.lists(pick, min_size=n, max_size=n)), dtype=np.float64)


def ternary_body(values) -> bytes:
    """The fixed fields of an UPDATE body, then ``values`` in the DP form."""
    metrics = sample_metrics()
    return tr.encode_update(tr.UpdateBody(1, values, 0.0, 0.0, metrics, metrics), "dp")


class TestTernaryCode:
    """A DP update travels as c = max|y|, 2-bit codes for +0.0, +c and -c,
    and f64 literals for every other value."""

    HEAD = 20 + 2 * 40  # the body's fields before its payload

    @given(dp_updates())
    @settings(max_examples=400, deadline=None)
    def test_roundtrip_bitwise(self, values):
        body = ternary_body(values)
        back = tr.decode_update(body, "dp")
        assert back.payload.tobytes() == values.tobytes()
        assert len(body) == self.HEAD + 8 + ternary_code_bytes(values)
        assert back.payload_bytes == ternary_code_bytes(values)

    @pytest.mark.parametrize("n", [11, 66, 67])
    def test_special_vectors_roundtrip_bitwise(self, n):
        c = 0.05 * 40
        tiny = np.nextafter(0.0, 1.0)
        cases = [
            np.zeros(n),
            np.full(n, -0.0),
            np.where(np.arange(n) % 2, c, -c),
            np.where(np.arange(n) % 3 == 0, tiny, -tiny),
            np.where(np.arange(n) % 4 == 1, -0.0, 0.0),
        ]
        for values in cases:
            back = tr.decode_update(ternary_body(values), "dp").payload
            assert back.tobytes() == values.tobytes()

    def test_sizes_at_the_nn_reference(self):
        # 33 bytes for 66 zeros or +-c, and 8 more per literal, against 536
        values = np.zeros(66)
        values[::5] = 0.25
        values[1::7] = -0.25
        plain = tr.UpdateBody(1, values, 0.0, 0.0, sample_metrics(), sample_metrics())
        assert len(tr.encode_update(plain, "plain")) - self.HEAD == 536
        assert len(ternary_body(values)) - self.HEAD == 33
        values[[2, 4]] = (-0.0, 0.1)  # -0.0 is a literal unless c is 0
        assert len(ternary_body(values)) - self.HEAD == 33 + 16
        assert ternary_code_bytes(values) == 25 + 16

    def test_codes_are_packed_low_bits_first(self):
        body = ternary_body(np.array([0.0, 2.0, -2.0, 1.0, -2.0]))
        payload = body[self.HEAD :]
        assert struct.unpack("<Qd", payload[:16]) == (5, 2.0)
        assert payload[16:18] == bytes([0b11_10_01_00, 0b00_00_00_10])
        assert struct.unpack("<d", payload[18:]) == (1.0,)

    @pytest.mark.parametrize(
        "cut, reason",
        [
            (lambda p: p[:17], "body truncated"),  # in the code bytes
            (lambda p: p[:16] + bytes([p[16], p[17], p[18] | 0xC0]) + p[19:], "nonzero padding bits"),
            (lambda p: p[:-8], "body truncated"),  # a literal missing
            (lambda p: p + p[-8:], "trailing bytes in body"),  # a literal too many
            (lambda p: p + b"\x00", "trailing bytes in body"),
        ],
        ids=["truncated_codes", "padding_bits", "missing_literal", "extra_literal", "trailing_byte"],
    )
    def test_malformed_code_is_a_decode_error(self, cut, reason):
        values = np.array([0.0, 0.5, -0.5, 0.25, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, -0.5])
        body = ternary_body(values)
        with pytest.raises(DecodeError, match=reason):
            tr.decode_update(body[: self.HEAD] + cut(body[self.HEAD :]), "dp")

    @given(st.integers(0, 70), st.binary(max_size=128))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_code_bytes_raise_only_decode_error(self, count, rest):
        body = ternary_body(np.zeros(0))[: self.HEAD] + struct.pack("<Q", count) + rest
        try:
            tr.decode_update(body, "dp")
        except DecodeError:
            pass


class TestSimChannel:
    def test_fifo_order(self):
        a, b = tr.SimChannel.pair()
        frames = [tr.Frame(tr.MSG_UPDATE, i, bytes([i])) for i in range(20)]
        for f in frames:
            a.send(f)
        received = [b.recv(timeout=1) for _ in range(20)]
        assert received == frames

    def test_close_signals_peer(self):
        a, b = tr.SimChannel.pair()
        a.close()
        with pytest.raises(tr.ChannelClosed):
            b.recv(timeout=1)

    def test_recv_timeout(self):
        a, b = tr.SimChannel.pair()
        with pytest.raises(TimeoutError):
            b.recv(timeout=0.05)

    def test_body_limit(self):
        a, b = tr.SimChannel.pair()
        a.send(tr.Frame(tr.MSG_JOIN, 0, bytes(tr.MAX_JOIN_BODY + 1)))
        with pytest.raises(DecodeError, match="limit"):
            b.recv(timeout=1, max_body=tr.MAX_JOIN_BODY)


class TestTcpChannel:
    def test_frame_exchange_over_socket(self):
        listener = tr.TcpListener("127.0.0.1", 0)
        result = {}

        def server():
            channel = listener.accept(timeout=5)
            result["got"] = channel.recv(timeout=5)
            channel.send(tr.Frame(tr.MSG_JOIN_ACK, 0))
            channel.close()

        thread = threading.Thread(target=server)
        thread.start()
        client = tr.open_tcp_channel("127.0.0.1", listener.port)
        sent = tr.Frame(tr.MSG_JOIN, 3, b"payload")
        client.send(sent)
        ack = client.recv(timeout=5)
        thread.join()
        listener.close()
        client.close()
        assert result["got"] == sent
        assert ack.msg_type == tr.MSG_JOIN_ACK

    def test_peer_close_mid_frame(self):
        listener = tr.TcpListener("127.0.0.1", 0)

        def server():
            channel = listener.accept(timeout=5)
            # send half a header then drop the connection
            channel._sock.sendall(b"PFD1\x02")
            channel.close()

        thread = threading.Thread(target=server)
        thread.start()
        client = tr.open_tcp_channel("127.0.0.1", listener.port)
        with pytest.raises(tr.ChannelClosed):
            client.recv(timeout=5)
        thread.join()
        listener.close()
        client.close()

    def test_peer_close_between_frames(self):
        # a hang-up before any byte of a frame is a clean close, not a torn frame
        listener = tr.TcpListener("127.0.0.1", 0)
        client = tr.open_tcp_channel("127.0.0.1", listener.port)
        listener.accept(timeout=5).close()
        try:
            with pytest.raises(tr.ChannelClosed, match="^peer closed the channel$"):
                client.recv(timeout=5)
        finally:
            listener.close()
            client.close()

    def test_timeout_bounds_the_whole_frame(self):
        # a peer dripping one byte every 0.2 s never lets a single read wait
        # 0.5 s, but the frame as a whole must still time out
        listener = tr.TcpListener("127.0.0.1", 0)
        stop = threading.Event()

        def server():
            channel = listener.accept(timeout=5)
            for byte in tr.frame_encode(tr.Frame(tr.MSG_UPDATE, 0, bytes(64))):
                if stop.wait(0.2):
                    break
                channel._sock.sendall(bytes([byte]))
            channel.close()

        thread = threading.Thread(target=server)
        thread.start()
        client = tr.open_tcp_channel("127.0.0.1", listener.port)
        t0 = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                client.recv(timeout=0.5)
            assert time.monotonic() - t0 < 1.0
        finally:
            stop.set()
            thread.join(timeout=5)
            listener.close()
            client.close()
        assert not thread.is_alive()


def tcp_pair() -> tuple[socket.socket, tr.TcpChannel]:
    """A plain sending socket and the ``TcpChannel`` that reads it, over
    loopback TCP (``TcpChannel`` sets ``TCP_NODELAY``, which AF_UNIX lacks)."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        sender = socket.create_connection(server.getsockname())
        conn, _ = server.accept()
    return sender, tr.TcpChannel(conn)


def error_text(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


def received(chunks, max_body) -> list:
    """What ``recv`` reads while a thread sends ``chunks``, one ``sendall``
    each, and hangs up: the frames, then the error that ended the read."""
    sender, channel = tcp_pair()

    def send():
        with contextlib.suppress(OSError), sender:  # the reader may stop early
            for chunk in chunks:
                sender.sendall(chunk)

    thread = threading.Thread(target=send)
    thread.start()
    out = []
    try:
        while True:
            out.append(channel.recv(timeout=5, max_body=max_body))
    except (DecodeError, tr.ChannelClosed) as err:
        out.append(error_text(err))
    finally:
        channel.close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    return out


def polled(chunks, max_body) -> list:
    """What ``recv_ready`` returns when it is called after each of
    ``chunks`` is sent, until it has no whole frame, and after the hang-up
    until it raises: the frames, then that error."""
    sender, channel = tcp_pair()
    out = []
    try:
        for chunk in chunks:
            sender.sendall(chunk)
            while (frame := channel.recv_ready(max_body)) is not None:
                out.append(frame)
        sender.close()
        with selectors.DefaultSelector() as selector:
            selector.register(channel, selectors.EVENT_READ)
            while True:
                if (frame := channel.recv_ready(max_body)) is None:
                    assert selector.select(5), "the hang-up never arrived"
                else:
                    out.append(frame)
    except (DecodeError, tr.ChannelClosed) as err:
        out.append(error_text(err))
    finally:
        sender.close()
        channel.close()
    return out


def expected_reads(frames, max_body) -> list:
    """The frames up to the first whose body exceeds ``max_body``, then
    that frame's ``DecodeError`` or, if there is none, the clean hang-up."""
    out = []
    for frame in frames:
        if len(frame.body) > max_body:
            too_long = f"body of {len(frame.body)} bytes exceeds the {max_body}-byte limit"
            return out + [f"DecodeError: {too_long}"]
        out.append(frame)
    return out + ["ChannelClosed: peer closed the channel"]


FRAMES = st.builds(
    tr.Frame,
    st.sampled_from(sorted(tr._VALID_TYPES)),
    st.integers(0, 2**32 - 1),
    st.builds(
        lambda n, k: bytes((k + 31 * i) % 256 for i in range(n)),
        st.integers(0, 4096),
        st.integers(0, 255),
    ),
)


@st.composite
def chunked_streams(draw):
    """1-3 frames, their bytes cut into ``sendall`` chunks (one byte each,
    or at arbitrary offsets), and a ``max_body`` at or below the largest body."""
    frames = draw(st.lists(FRAMES, min_size=1, max_size=3))
    stream = b"".join(map(tr.frame_encode, frames))
    if draw(st.booleans()):
        cuts = range(1, len(stream))
    else:
        cuts = sorted(draw(st.sets(st.integers(1, len(stream) - 1), max_size=24)))
    chunks = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]
    largest = max(len(frame.body) for frame in frames)
    max_body = draw(st.just(largest) | st.integers(0, largest))
    return frames, chunks, max_body


class TestTcpReader:
    """``recv_ready`` is the channel's one reader and ``recv`` waits on it,
    so both read any chunking of a stream alike."""

    @given(chunked_streams())
    @settings(max_examples=40, deadline=None)
    def test_recv_and_polled_recv_ready_read_alike(self, case):
        frames, chunks, max_body = case
        want = expected_reads(frames, max_body)
        assert received(chunks, max_body) == want
        assert polled(chunks, max_body) == want

    def test_hang_up_at_every_offset(self):
        frames = [tr.Frame(tr.MSG_UPDATE, 1, b"abc"), tr.Frame(tr.MSG_SHUTDOWN, 2)]
        stream = b"".join(map(tr.frame_encode, frames))
        ends = list(itertools.accumulate(len(tr.frame_encode(f)) for f in frames))
        for offset in range(len(stream) + 1):
            whole = [f for f, end in zip(frames, ends) if end <= offset]
            at_boundary = offset in {0, *ends}
            closed = "peer closed the channel" if at_boundary else "connection closed mid-frame"
            want = whole + [f"ChannelClosed: {closed}"]
            chunks = [stream[:offset]] if offset else []
            assert received(chunks, tr.MAX_BODY) == want, offset
            assert polled(chunks, tr.MAX_BODY) == want, offset

    def test_zero_timeout_returns_a_frame_already_arrived(self):
        sender, channel = tcp_pair()
        frame = tr.Frame(tr.MSG_UPDATE, 2, bytes(100))
        try:
            sender.sendall(tr.frame_encode(frame))
            with selectors.DefaultSelector() as selector:
                selector.register(channel, selectors.EVENT_READ)
                assert selector.select(5)
            assert channel.recv(timeout=0) == frame
            with pytest.raises(TimeoutError):
                channel.recv(timeout=0)
        finally:
            sender.close()
            channel.close()

    def test_reset_peer_is_a_closed_channel(self):
        # a peer that closes with unread data, or with SO_LINGER 0, sends a
        # reset: the reader raises ChannelClosed, not ConnectionResetError
        sender, channel = tcp_pair()
        try:
            sender.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sender.close()
            with pytest.raises(tr.ChannelClosed, match="^receive failed: Connection reset"):
                channel.recv(timeout=5)
        finally:
            channel.close()

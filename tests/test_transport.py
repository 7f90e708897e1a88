import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


class TestBodyCodecs:
    def test_join_roundtrip(self):
        join = tr.JoinBody("stockholm", "secret-token", 8000, 2000)
        assert tr.decode_join(tr.encode_join(join)) == join

    def test_update_plain_roundtrip(self):
        update = tr.UpdateBody(
            client_id="uppsala",
            steps=40,
            mode="dp",
            payload_kind=tr.PAYLOAD_PLAIN,
            payload=np.linspace(-1, 1, 11),
            weight=1.0,
            train_seconds=0.25,
            privacy_seconds=0.01,
            pre_metrics=sample_metrics(),
            post_metrics=sample_metrics(),
        )
        back = tr.decode_update(tr.encode_update(update))
        assert back.client_id == update.client_id
        assert back.steps == update.steps
        assert back.mode == update.mode
        assert np.array_equal(back.payload, update.payload)
        assert back.pre_metrics == update.pre_metrics

    def test_update_chunks_roundtrip(self):
        update = tr.UpdateBody(
            client_id="x",
            steps=1,
            mode="he",
            payload_kind=tr.PAYLOAD_CHUNKS,
            payload=[b"chunk-one", b"\x00\x01\x02"],
            weight=2.0,
            train_seconds=0.0,
            privacy_seconds=0.0,
            pre_metrics=sample_metrics(),
            post_metrics=sample_metrics(),
        )
        back = tr.decode_update(tr.encode_update(update))
        assert back.payload == [b"chunk-one", b"\x00\x01\x02"]

    def test_broadcast_roundtrip(self):
        body = tr.BroadcastBody(True, tr.PAYLOAD_PLAIN, np.arange(5.0))
        back = tr.decode_broadcast(tr.encode_broadcast(body))
        assert back.final is True
        assert np.array_equal(back.payload, body.payload)

    def test_round_done_roundtrip(self):
        done = tr.RoundDoneBody("site", sample_metrics(), np.ones(3))
        back = tr.decode_round_done(tr.encode_round_done(done))
        assert np.array_equal(back.final_params, done.final_params)
        done2 = tr.RoundDoneBody("site", sample_metrics(), None)
        assert tr.decode_round_done(tr.encode_round_done(done2)).final_params is None

    def test_trailing_garbage_rejected(self):
        body = tr.encode_join(tr.JoinBody("a", "b", 1, 2)) + b"extra"
        with pytest.raises(DecodeError):
            tr.decode_join(body)


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

"""Round-trip property tests for the net backend's frames.

Seeded ``random.Random`` generators stand in for a property-testing
library: every value the tagged-value kinds ship — scalars, float64
arrays, exception payloads, nested containers with tuple keys — must
survive ``encode_frame``/``decode_frame`` unchanged; the fixed ``MSG``
and ``CREDIT`` layouts must carry their ``>QQ`` heads and raw field
bytes exactly, through a receive plan that views them in place; and
malformed input (truncation, version skew, bad magic, a body the plan
does not expect, a peer of the other byte order) must be rejected with
:class:`FrameError`, never silently misparsed.
"""

import random
import socket
import sys
import threading

import numpy as np
import pytest

from repro.runtime.copy_engine import FusedCopy
from repro.runtime.net import frame
from repro.runtime.net.frame import (FrameError, FrameReader, decode_frame,
                                     encode_frame)
from repro.runtime.net.plan import ReceivePlan

# The tagged-value kinds; MSG and CREDIT have fixed layouts.
KINDS = [frame.HELLO, frame.COLL, frame.COLLR, frame.GATHER, frame.ERROR]


def msg_frame(uid, gen, buffers=()):
    """One whole MSG frame, as a PackedSend sends it."""
    body = b"".join(buffers)
    return frame.msg_prefix(uid, len(body)) + frame.pack_gen(gen) + body


def receive_plan(dsts, payload_first, dst_first, lengths, uid=7, peer=1):
    """A one-item receive plan scattering payload runs into ``dsts``."""
    item = FusedCopy.build(None, payload_first, dsts, dst_first, lengths,
                           None, None, uid, len(lengths), 8)
    return ReceivePlan([item], uid, peer)


def random_scalar(rng: random.Random):
    return rng.choice([
        None, True, False,
        rng.randint(-2**62, 2**62),
        rng.randint(-10, 10),
        rng.uniform(-1e300, 1e300),
        float("inf"),
        "",
        "".join(chr(rng.randint(32, 0x2FA0)) for _ in range(rng.randint(0, 40))),
        bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 64))),
    ])


def random_array(rng: random.Random) -> np.ndarray:
    dtype = rng.choice([np.float64, np.float32, np.int64, np.int32, np.uint8])
    shape = tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 3)))
    return (np.random.default_rng(rng.randint(0, 2**31))
            .uniform(-1e6, 1e6, size=shape).astype(dtype))


def random_value(rng: random.Random, depth: int = 0):
    if depth >= 3 or rng.random() < 0.5:
        return random_scalar(rng) if rng.random() < 0.7 else random_array(rng)
    kind = rng.choice(["list", "tuple", "dict"])
    n = rng.randint(0, 4)
    if kind == "list":
        return [random_value(rng, depth + 1) for _ in range(n)]
    if kind == "tuple":
        return tuple(random_value(rng, depth + 1) for _ in range(n))
    # Dict keys exercise the tuple-key path the gather payload relies on.
    return {(rng.randint(0, 99), rng.randint(0, 99)):
            random_value(rng, depth + 1) for _ in range(n)}


def assert_same(a, b) -> None:
    assert type(a) is type(b), (type(a), type(b))
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, dict):
        assert sorted(a) == sorted(b)
        for k in a:
            assert_same(a[k], b[k])
    elif isinstance(a, float):
        assert a == b or (a != a and b != b)  # NaN-safe
    else:
        assert a == b


class TestRoundTrip:
    def test_random_values(self):
        rng = random.Random(0xC0FFEE)
        for trial in range(200):
            kind = rng.choice(KINDS)
            payload = random_value(rng)
            got_kind, got = decode_frame(encode_frame(kind, payload))
            assert got_kind == kind
            assert_same(payload, got)

    def test_data_payload_shape(self):
        # The exact layout a send ships: >QQ (uid, gen), then one raw
        # buffer per field in field order, fields of different dtypes
        # and element shapes side by side.
        vals = [np.arange(8, dtype=np.float64),
                np.arange(16, dtype=np.int32).reshape(8, 2)]
        kind, body = decode_frame(msg_frame(
            7, 42, [v.tobytes() for v in vals]))
        assert kind == frame.MSG and frame.msg_head(body) == (7, 42)
        assert len(body) == 16 + 64 + 64
        assert body[16:80] == vals[0].tobytes()
        assert body[80:] == vals[1].tobytes()
        # The receive plan knows both layouts from its destinations.
        dsts = [np.zeros(10), np.zeros((10, 2), dtype=np.int32)]
        plan = receive_plan(dsts, [0], [2], [8])
        assert plan.size == len(body)
        plan.apply(body)
        for v, dst in zip(vals, dsts):
            np.testing.assert_array_equal(dst[2:], v)

    def test_msg_payload_shape(self):
        # A statement's pairs to one peer travel concatenated: the frame
        # names no pair, the receiver's plan slices the buffer.
        vals = np.linspace(0.0, 1.0, 12)
        _, body = decode_frame(msg_frame(9, 5, [vals.tobytes()]))
        assert frame.msg_head(body) == (9, 5)
        dst = np.zeros(20)
        receive_plan([dst], [0, 5], [0, 10], [5, 7]).apply(body)
        np.testing.assert_array_equal(dst[:5], vals[:5])
        np.testing.assert_array_equal(dst[10:17], vals[5:])
        # A statement whose every pair to the peer is empty still sends:
        # the head alone, which an empty plan expects.
        kind, body = decode_frame(msg_frame(9, 6))
        assert frame.msg_head(body) == (9, 6) and len(body) == 16
        ReceivePlan([], 9, 1).apply(body)

    def test_redop_operand_roundoff_free(self):
        # Reduction operands travel as raw float64 bytes and fold from a
        # view of them: bitwise.
        ops = np.array([0.1, -1e308, 5e-324, 3.0], dtype=np.float64)
        _, body = decode_frame(msg_frame(0, 1, [ops.tobytes()]))
        dst = np.zeros(4)
        item = FusedCopy.build(None, [0], [dst], [0], [4], np.add, None, 0,
                               1, 8)
        ReceivePlan([item], 0, 1).apply(body)
        assert dst.tobytes() == ops.tobytes()

    def test_ints_beyond_int64_stay_ints(self):
        # A scalar reduction past int64 (a big ``+`` or ``*``) crosses the
        # wire exactly: an int comes back an int, never as its text.
        for v in (2**63, -2**63 - 1, 3**200, -(7**90)):
            _, got = decode_frame(encode_frame(frame.COLL, ("k", 1, 0, v)))
            assert got == ("k", 1, 0, v) and type(got[3]) is int
        assert decode_frame(encode_frame(frame.GATHER, "12"))[1] == "12"

    def test_decoded_arrays_writable(self):
        _, got = decode_frame(encode_frame(frame.GATHER, np.zeros(4)))
        # Tagged-value arrays (GATHER, COLL) decode writable; MSG bodies
        # are read-only bytes, which the receive path only views.
        got += 1.0
        np.testing.assert_array_equal(got, np.ones(4))

    def test_exception_payload(self):
        err = ValueError("bad tile 3")
        _, got = decode_frame(encode_frame(frame.ERROR, err))
        assert isinstance(got, ValueError)
        assert str(got) == "bad tile 3"

    def test_unpicklable_exception_degrades_to_repr(self):
        class Local(Exception):  # not importable from the other side
            pass

        _, got = decode_frame(encode_frame(frame.ERROR, Local("boom")))
        assert isinstance(got, Exception)
        assert "Local" in str(got) or "boom" in str(got)

    def test_gather_payload_shape(self):
        data = {(3, 0): {"v": np.arange(4.0)}, (3, 1): {"v": np.zeros(2)}}
        _, (rank, got) = decode_frame(encode_frame(frame.GATHER, (2, data)))
        assert rank == 2 and set(got) == set(data)
        np.testing.assert_array_equal(got[(3, 0)]["v"], data[(3, 0)]["v"])


class TestRejection:
    def test_truncated_header(self):
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(b"RN")

    def test_truncated_payload(self):
        rng = random.Random(7)
        for buf in (encode_frame(frame.GATHER, (1, {(2, 0): np.arange(16.0)})),
                    msg_frame(1, 2, [np.arange(16.0).tobytes()])):
            for _ in range(20):
                cut = rng.randint(frame._HEADER.size, len(buf) - 1)
                with pytest.raises(FrameError, match="truncated"):
                    decode_frame(buf[:cut])

    def test_bad_magic(self):
        buf = bytearray(frame.credit_frame(0, 1))
        buf[0:2] = b"XX"
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(buf))

    def test_version_mismatch(self):
        buf = bytearray(frame.credit_frame(0, 1))
        buf[2] = frame.VERSION + 1
        with pytest.raises(FrameError, match="version mismatch"):
            decode_frame(bytes(buf))

    def test_unknown_tag(self):
        buf = bytearray(encode_frame(frame.HELLO, 5))
        buf[frame._HEADER.size] = 250  # clobber the value tag
        with pytest.raises(FrameError):
            decode_frame(bytes(buf))


class TestSocketFraming:
    def test_stream_roundtrip_and_clean_eof(self):
        msg = np.arange(5.0).tobytes()
        frames = [frame.credit_frame(3, 9), msg_frame(0, 1, [msg]),
                  encode_frame(frame.COLL, ("c:7", 2, 1, 0.5))]
        a, b = socket.socketpair()
        try:
            a.sendall(b"".join(frames))
            a.close()
            reader = FrameReader(b)
            kind, body = reader.read()
            assert (kind, frame.credit_body(body)) == (frame.CREDIT, (3, 9))
            kind, body = reader.read()
            assert (kind, frame.msg_head(body)) == (frame.MSG, (0, 1))
            assert body[16:] == msg
            assert reader.read() == (frame.COLL, ("c:7", 2, 1, 0.5))
            # EOF at a frame boundary is a clean shutdown, not an error.
            assert reader.read() == (None, None)
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        buf = msg_frame(0, 1, [np.arange(64.0).tobytes()])
        a, b = socket.socketpair()
        try:
            a.sendall(buf[:len(buf) // 2])
            a.close()
            with pytest.raises(FrameError, match="mid-frame"):
                FrameReader(b).read()
        finally:
            b.close()


class TestRawLayouts:
    """The v4 fixed layouts: a ``MSG`` is the header, ``>QQ`` (uid,
    generation) and the fields' raw bytes; a ``CREDIT`` the header and
    ``>QQ`` (channel id, generation)."""

    def test_credit_and_msg_roundtrip_through_socketpair(self):
        # One sendall carrying queued credits and the MSG behind them, as
        # a shard thread sends them; the reader splits them back apart.
        x = np.random.default_rng(0).standard_normal(6)
        y = np.arange(12, dtype=np.int64).reshape(6, 2)
        a, b = socket.socketpair()
        try:
            a.sendall(b"".join([
                frame.credit_frame(4, 11), frame.credit_frame(2**40, 3),
                frame.msg_prefix(5, x.nbytes + y.nbytes), frame.pack_gen(8),
                x, y]))
            reader = FrameReader(b)
            assert [frame.credit_body(reader.read()[1]) for _ in "ab"] == [
                (4, 11), (2**40, 3)]
            kind, body = reader.read()
            assert kind == frame.MSG and frame.msg_head(body) == (5, 8)
            dsts = [np.zeros(9), np.zeros((9, 2), dtype=np.int64)]
            receive_plan(dsts, [0, 4], [5, 0], [4, 2], uid=5).apply(body)
            np.testing.assert_array_equal(dsts[0][[5, 6, 7, 8, 0, 1]], x)
            np.testing.assert_array_equal(dsts[1][[5, 6, 7, 8, 0, 1]], y)
        finally:
            a.close()
            b.close()

    def test_body_length_mismatch_names_uid_and_peer(self):
        plan = receive_plan([np.zeros(8)], [0], [0], [4], uid=31, peer=3)
        assert plan.size == 16 + 32
        for vals in (np.zeros(3), np.zeros(5), np.zeros(4, dtype=np.float32)):
            _, body = decode_frame(msg_frame(31, 1, [vals.tobytes()]))
            with pytest.raises(FrameError, match=r"statement 31 from rank 3"):
                plan.apply(body)

    def test_truncated_raw_body(self):
        buf = frame.credit_frame(1, 2)
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(buf[:-3])
        with pytest.raises(FrameError):
            frame.credit_body(b"\0" * 15)
        with pytest.raises(FrameError):
            frame.msg_head(b"\0" * 15)
        a, b = socket.socketpair()
        try:
            msg = msg_frame(1, 2, [np.arange(32.0).tobytes()])
            a.sendall(msg[:frame._HEADER.size + 20])
            a.close()
            with pytest.raises(FrameError, match="mid-frame"):
                FrameReader(b).read()
        finally:
            b.close()

    def test_version_3_frame_rejected(self):
        for buf in (frame.credit_frame(0, 1), msg_frame(0, 1),
                    encode_frame(frame.HELLO, (0, sys.byteorder))):
            old = bytearray(buf)
            old[2] = 3
            with pytest.raises(FrameError, match="version mismatch"):
                decode_frame(bytes(old))

    def test_codec_refuses_raw_kinds(self):
        for kind in (frame.MSG, frame.CREDIT):
            with pytest.raises(ValueError, match="fixed layout"):
                encode_frame(kind, (0, 1))


class TestHandshake:
    def test_byte_order_mismatch_fails_both_ranks(self):
        """MSG bodies are raw native-order bytes: a peer of the other byte
        order fails the handshake on both ends, naming both ranks."""
        from repro.runtime.net.transport import Transport, bind_listeners
        listeners, addrs = bind_listeners(2)
        ts = [Transport(r, 2, listeners[r], addrs) for r in range(2)]
        ts[1].byteorder = "big" if sys.byteorder == "little" else "little"
        errors = {}

        def connect(t):
            try:
                t.connect_all(timeout_s=10.0)
            except Exception as exc:
                errors[t.rank] = exc

        threads = [threading.Thread(target=connect, args=(t,)) for t in ts]
        for th in threads:
            th.start()
        for th in threads:
            th.join(30.0)
        try:
            assert sorted(errors) == [0, 1]
            for exc in errors.values():
                assert "rank 0" in str(exc) and "rank 1" in str(exc)
                assert "endian" in str(exc)
        finally:
            for t in ts:
                t.close()

    def test_frames_behind_the_hello_reach_the_receiver(self):
        """The handshake and the receiver thread read a peer through one
        reader: a frame sent in the same write as the HELLO is delivered,
        and the HELLO frames count as traffic both ways."""
        from repro.runtime.net.transport import Transport, bind_listeners
        listeners, addrs = bind_listeners(2)
        listeners[1].close()
        t = Transport(0, 2, listeners[0], addrs)
        got = []
        t.register(frame.CREDIT, lambda peer, body: got.append(
            (peer, frame.credit_body(body))))
        hello = encode_frame(frame.HELLO, (1, sys.byteorder))
        credit = frame.credit_frame(5, 6)
        peer = socket.create_connection(addrs[0], timeout=10.0)
        try:
            peer.sendall(hello + credit)
            t.connect_all(timeout_s=10.0)
            t.start_receivers()
            reply = FrameReader(peer).read()
            assert reply == (frame.HELLO, (0, sys.byteorder))
            peer.close()
            assert t.finished[1].wait(10.0)
            assert got == [(1, (5, 6))]
            st = t.stats()
            assert st["messages_recv"] == {"hello": 1, "credit": 1}
            assert st["bytes_recv"] == len(hello) + len(credit)
            assert st["messages_sent"] == {"hello": 1}
            assert st["bytes_sent"] == len(encode_frame(
                frame.HELLO, (0, sys.byteorder)))
        finally:
            peer.close()
            t.close()

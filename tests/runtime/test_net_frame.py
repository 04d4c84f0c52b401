"""Round-trip property tests for the net backend's frame codec.

Seeded ``random.Random`` generators stand in for a property-testing
library: every value the protocol actually ships — scalars, float64
arrays, redop operands, exception payloads, nested containers with
tuple keys — must survive ``encode_frame``/``decode_frame`` unchanged,
and malformed input (truncation, version skew, bad magic) must be
rejected with :class:`FrameError`, never silently misparsed.
"""

import random
import socket

import numpy as np
import pytest

from repro.runtime.net import frame
from repro.runtime.net.frame import (FrameError, decode_frame, encode_frame,
                                     read_frame)

KINDS = [frame.HELLO, frame.MSG, frame.CREDIT, frame.COLL, frame.COLLR,
         frame.GATHER, frame.ERROR]


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
        # The exact tuple a send ships: (uid, gen, [one buffer per field]),
        # fields of different dtypes side by side.
        vals = [np.arange(8, dtype=np.float64), np.ones(8, dtype=np.int32)]
        kind, (uid, gen, got) = decode_frame(
            encode_frame(frame.MSG, (7, 42, vals)))
        assert (kind, uid, gen) == (frame.MSG, 7, 42)
        for a, b in zip(vals, got):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_msg_payload_shape(self):
        # A statement's pairs to one peer travel concatenated: the frame
        # names no pair, the receiver's plan slices the buffer.
        vals = [np.linspace(0.0, 1.0, 12)]
        payload = (9, 5, vals)
        _, got = decode_frame(encode_frame(frame.MSG, payload))
        assert type(got) is tuple and len(got) == 3
        uid, gen, got_vals = got
        assert uid == 9 and gen == 5
        np.testing.assert_array_equal(got_vals[0], vals[0])
        # A statement whose every pair to the peer is empty still sends.
        assert decode_frame(encode_frame(frame.MSG, (9, 6, [])))[1] == (
            9, 6, [])

    def test_redop_operand_roundoff_free(self):
        # Reduction operands travel as raw float64 buffers: bitwise.
        ops = np.array([0.1, -1e308, 5e-324, 3.0], dtype=np.float64)
        _, (uid, gen, [got]) = decode_frame(
            encode_frame(frame.MSG, (0, 1, [ops])))
        assert got.tobytes() == ops.tobytes()

    def test_ints_beyond_int64_stay_ints(self):
        # A scalar reduction past int64 (a big ``+`` or ``*``) crosses the
        # wire exactly: an int comes back an int, never as its text.
        for v in (2**63, -2**63 - 1, 3**200, -(7**90)):
            _, got = decode_frame(encode_frame(frame.COLL, ("k", 1, 0, v)))
            assert got == ("k", 1, 0, v) and type(got[3]) is int
        assert decode_frame(encode_frame(frame.GATHER, "12"))[1] == "12"

    def test_decoded_arrays_writable(self):
        _, got = decode_frame(encode_frame(frame.MSG, np.zeros(4)))
        got += 1.0  # receiver folds in place; a read-only view would break
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
        buf = encode_frame(frame.MSG, (1, 2, [np.arange(16.0)]))
        rng = random.Random(7)
        for _ in range(20):
            cut = rng.randint(frame._HEADER.size, len(buf) - 1)
            with pytest.raises(FrameError, match="truncated"):
                decode_frame(buf[:cut])

    def test_bad_magic(self):
        buf = bytearray(encode_frame(frame.CREDIT, (0, 1)))
        buf[0:2] = b"XX"
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(buf))

    def test_version_mismatch(self):
        buf = bytearray(encode_frame(frame.CREDIT, (0, 1)))
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
        a, b = socket.socketpair()
        try:
            frames = [(frame.CREDIT, (3, 9)),
                      (frame.MSG, (0, 1, [np.arange(5.0)])),
                      (frame.COLL, ("c:7", 2, 1, 0.5))]
            for kind, payload in frames:
                a.sendall(encode_frame(kind, payload))
            a.close()
            for kind, payload in frames:
                got_kind, got = read_frame(b)
                assert got_kind == kind
                assert_same(payload, got)
            # EOF at a frame boundary is a clean shutdown, not an error.
            assert read_frame(b) == (None, None)
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            buf = encode_frame(frame.MSG, (0, 1, [np.arange(64.0)]))
            a.sendall(buf[:len(buf) // 2])
            a.close()
            with pytest.raises(FrameError, match="mid-frame"):
                read_frame(b)
        finally:
            b.close()

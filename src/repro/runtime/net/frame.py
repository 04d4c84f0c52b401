"""Wire format for the ``net`` backend.

Every message on a peer socket is one *frame*::

    magic "RN" | version u8 | kind u8 | length u32 (big-endian) | payload

The two per-iteration kinds have fixed layouts that both ends already
know, so they carry no type information at all:

* ``MSG``: ``>QQ`` (statement uid, generation), then each field's
  gathered values as raw C-order bytes, in the statement's field order.
  The receiver's plan knows every field's dtype, element shape and
  count, so it checks the body length and views the bytes in place
  (:class:`repro.runtime.net.plan.ReceivePlan`).  Raw bytes are native
  byte order; the ``HELLO`` handshake refuses peers that differ.
* ``CREDIT``: ``>QQ`` (channel id, generation).

Every other kind's payload is a self-describing tagged value (see
``_encode``): enough to round-trip collective operands, the final state
gather, and exception payloads.  Exceptions are pickled when possible
and degraded to a ``repr`` string otherwise, mirroring the procs
driver's unpicklable-error fallback.

Decoding is strict: a bad magic, an unknown version, an unknown tag, or a
buffer shorter than its header promises all raise :class:`FrameError` so a
half-written frame from a dying peer cannot be misread as data.
"""

from __future__ import annotations

import pickle
import struct

import numpy as np

MAGIC = b"RN"
# 2: a copy statement's data is one MSG per (statement, peer), acked by
# one CREDIT per (statement, peer).  3: an int outside int64 travels as
# its own tag and decodes to an int, not a str.  4: MSG and CREDIT are
# fixed layouts, not tagged values; HELLO carries the byte order.
VERSION = 4

# Frame kinds.
HELLO = 1      # rank handshake right after connect
MSG = 3        # one copy statement's pairs to one peer: (uid, gen, vals)
CREDIT = 4     # consumer ack of one channel: (channel id, gen)
COLL = 6       # collective contribution flowing up the binomial tree
COLLR = 7      # collective result flowing back down
GATHER = 8     # final region state flowing up to rank 0
ERROR = 9      # a rank died; payload is the exception

KIND_NAMES = {
    HELLO: "hello", MSG: "msg", CREDIT: "credit", COLL: "coll",
    COLLR: "collr", GATHER: "gather", ERROR: "error",
}

# Kinds whose payload is a fixed layout: decoding hands their body over
# as bytes, and encode_frame refuses them.
RAW_KINDS = frozenset((MSG, CREDIT))

_HEADER = struct.Struct(">2sBBI")
# The head of both fixed layouts: (statement uid, generation) for MSG,
# (channel id, generation) for CREDIT.  A CREDIT is its head alone.
_HEAD = struct.Struct(">QQ")
HEAD_SIZE = _HEAD.size
_U64 = struct.Struct(">Q")  # a MSG's uid, in its prefix, and generation

# Value tags.
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_BYTES = 6
_T_NDARRAY = 7
_T_LIST = 8
_T_TUPLE = 9
_T_DICT = 10
_T_EXC = 11
_T_BIGINT = 12

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


class FrameError(Exception):
    """A frame failed to decode (truncation, bad magic, version skew)."""


def _encode(value, out: list) -> None:
    if value is None:
        out.append(bytes([_T_NONE]))
    elif value is True:
        out.append(bytes([_T_TRUE]))
    elif value is False:
        out.append(bytes([_T_FALSE]))
    elif isinstance(value, (int, np.integer)):
        v = int(value)
        if -(1 << 63) <= v < (1 << 63):
            out.append(bytes([_T_INT]) + _I64.pack(v))
        else:  # arbitrary precision: ship as decimal text
            raw = str(v).encode()
            out.append(bytes([_T_BIGINT]) + _U32.pack(len(raw)))
            out.append(raw)
    elif isinstance(value, (float, np.floating)):
        out.append(bytes([_T_FLOAT]) + _F64.pack(float(value)))
    elif isinstance(value, str):
        raw = value.encode()
        out.append(bytes([_T_STR]) + _U32.pack(len(raw)))
        out.append(raw)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(bytes([_T_BYTES]) + _U32.pack(len(raw)))
        out.append(raw)
    elif isinstance(value, np.ndarray):
        # ascontiguousarray promotes 0-d to 1-d; only call it when needed.
        arr = (value if value.flags["C_CONTIGUOUS"]
               else np.ascontiguousarray(value))
        dt = arr.dtype.str.encode()
        out.append(bytes([_T_NDARRAY, len(dt)]) + dt)
        out.append(bytes([arr.ndim]))
        for dim in arr.shape:
            out.append(_U32.pack(dim))
        raw = arr.tobytes()
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    elif isinstance(value, list):
        out.append(bytes([_T_LIST]) + _U32.pack(len(value)))
        for item in value:
            _encode(item, out)
    elif isinstance(value, tuple):
        out.append(bytes([_T_TUPLE]) + _U32.pack(len(value)))
        for item in value:
            _encode(item, out)
    elif isinstance(value, dict):
        out.append(bytes([_T_DICT]) + _U32.pack(len(value)))
        for k, v in value.items():
            _encode(k, out)
            _encode(v, out)
    elif isinstance(value, BaseException):
        try:
            raw = pickle.dumps(value)
        except Exception:
            raw = pickle.dumps(RuntimeError(repr(value)))
        out.append(bytes([_T_EXC]) + _U32.pack(len(raw)))
        out.append(raw)
    else:
        raise TypeError(f"cannot encode {type(value).__name__} in a frame")


class _Reader:
    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.buf):
            raise FrameError("truncated frame payload")
        chunk = self.buf[self.pos:end]
        self.pos = end
        return chunk


def _decode(r: _Reader):
    tag = r.take(1)[0]
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return _I64.unpack(r.take(8))[0]
    if tag == _T_FLOAT:
        return _F64.unpack(r.take(8))[0]
    if tag == _T_STR:
        (n,) = _U32.unpack(r.take(4))
        return r.take(n).decode()
    if tag == _T_BYTES:
        (n,) = _U32.unpack(r.take(4))
        return r.take(n)
    if tag == _T_BIGINT:
        (n,) = _U32.unpack(r.take(4))
        return int(r.take(n))
    if tag == _T_NDARRAY:
        dtlen = r.take(1)[0]
        dtype = np.dtype(r.take(dtlen).decode())
        ndim = r.take(1)[0]
        shape = tuple(_U32.unpack(r.take(4))[0] for _ in range(ndim))
        (n,) = _U32.unpack(r.take(4))
        arr = np.frombuffer(r.take(n), dtype=dtype).reshape(shape)
        return arr.copy()  # writable, owns its memory
    if tag in (_T_LIST, _T_TUPLE):
        (n,) = _U32.unpack(r.take(4))
        items = [_decode(r) for _ in range(n)]
        return items if tag == _T_LIST else tuple(items)
    if tag == _T_DICT:
        (n,) = _U32.unpack(r.take(4))
        return {_decode(r): _decode(r) for _ in range(n)}
    if tag == _T_EXC:
        (n,) = _U32.unpack(r.take(4))
        raw = r.take(n)
        try:
            return pickle.loads(raw)
        except Exception as exc:
            return RuntimeError(f"undecodable peer exception: {exc!r}")
    raise FrameError(f"unknown value tag {tag}")


def encode_frame(kind: int, payload) -> bytes:
    """Serialize ``payload`` into one framed message of ``kind``.

    ``MSG`` and ``CREDIT`` are not tagged values: build them with
    :func:`msg_prefix` and :func:`credit_frame`.
    """
    if kind in RAW_KINDS:
        raise ValueError(f"{KIND_NAMES[kind]} frames have a fixed layout, "
                         f"not a tagged payload")
    parts: list = []
    _encode(payload, parts)
    body = b"".join(parts)
    return _HEADER.pack(MAGIC, VERSION, kind, len(body)) + body


def msg_prefix(uid: int, nbytes: int) -> bytes:
    """Everything of a ``MSG`` frame before its generation: the header
    for a body of ``nbytes`` field bytes, then the statement uid.  Packed
    once per send plan; each send appends :func:`pack_gen` and the
    field buffers."""
    return (_HEADER.pack(MAGIC, VERSION, MSG, HEAD_SIZE + nbytes)
            + _U64.pack(uid))


def pack_gen(gen: int) -> bytes:
    """A ``MSG`` frame's generation field."""
    return _U64.pack(gen)


def msg_head(body) -> tuple[int, int]:
    """``(statement uid, generation)`` of a ``MSG`` body."""
    if len(body) < HEAD_SIZE:
        raise FrameError(f"truncated MSG body ({len(body)} bytes)")
    return _HEAD.unpack_from(body)


_CREDIT_HEADER = _HEADER.pack(MAGIC, VERSION, CREDIT, HEAD_SIZE)


def credit_frame(chan_id: int, gen: int) -> bytes:
    """One whole ``CREDIT`` frame."""
    return _CREDIT_HEADER + _HEAD.pack(chan_id, gen)


def credit_body(body) -> tuple[int, int]:
    """``(channel id, generation)`` of a ``CREDIT`` body."""
    if len(body) != HEAD_SIZE:
        raise FrameError(f"CREDIT body of {len(body)} bytes, "
                         f"want {HEAD_SIZE}")
    return _HEAD.unpack(body)


def _check_header(buf, pos: int = 0) -> tuple[int, int]:
    magic, version, kind, length = _HEADER.unpack_from(buf, pos)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise FrameError(f"frame version mismatch: got {version}, "
                         f"want {VERSION}")
    return kind, length


def _payload(kind: int, body: bytes):
    return body if kind in RAW_KINDS else _decode(_Reader(body))


def decode_frame(buf: bytes):
    """Decode one complete frame; returns ``(kind, payload)``, the
    payload being the body bytes for ``MSG`` and ``CREDIT``.

    Raises :class:`FrameError` on truncation, bad magic, or version skew.
    """
    if len(buf) < _HEADER.size:
        raise FrameError("truncated frame header")
    kind, length = _check_header(buf)
    if len(buf) < _HEADER.size + length:
        raise FrameError("truncated frame payload")
    return kind, _payload(kind, bytes(buf[_HEADER.size:_HEADER.size + length]))


_CHUNK = 1 << 16


class FrameReader:
    """The frames of one socket, in order, read 64 KiB at a time (a
    larger frame's rest in one read of up to 1 MiB).

    The one reader of a peer socket: the handshake reads the peer's
    ``HELLO`` with it and the receiver thread goes on with the same
    object, so bytes read past the ``HELLO`` are not lost.  The frames
    one ``sendall`` carried (a ``MSG`` and the credits riding in front
    of it) usually cost a single ``recv``.  :meth:`read` returns
    ``(kind, payload)`` as :func:`decode_frame` does, or ``(None, None)``
    on a clean EOF at a frame boundary; a mid-frame EOF or a malformed
    header raises :class:`FrameError`.  A body is its own ``bytes``
    object, so a delivered payload outlives the buffer.
    """

    __slots__ = ("_sock", "_buf", "_pos")

    def __init__(self, sock) -> None:
        self._sock = sock
        self._buf = b""
        self._pos = 0

    def _fill(self, n: int, allow_eof: bool = False) -> bool:
        have = len(self._buf) - self._pos
        if have >= n:
            return True
        parts = [self._buf[self._pos:]]
        while have < n:
            chunk = self._sock.recv(min(max(n - have, _CHUNK), 1 << 20))
            if not chunk:
                if allow_eof and have == 0:
                    return False
                raise FrameError(
                    f"connection closed mid-frame ({have}/{n} bytes)")
            parts.append(chunk)
            have += len(chunk)
        self._buf = b"".join(parts)
        self._pos = 0
        return True

    def read(self):
        if not self._fill(_HEADER.size, allow_eof=True):
            return None, None
        kind, length = _check_header(self._buf, self._pos)
        self._pos += _HEADER.size
        self._fill(length)
        end = self._pos + length
        body = self._buf[self._pos:end]
        self._pos = end
        return kind, _payload(kind, body)


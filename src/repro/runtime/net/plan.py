"""Send and receive plans: one copy statement's pairs between two ranks,
as one message.

A shard's plan lists each copy statement's cross-rank pairs per peer
rank; the net context lowers each group, planned before the shard's
first statement (``NetCommContext.bind_plan``), to a :class:`PackedSend`
— the cross-rank half of the statement's copy plan, beside the in-memory
:class:`~repro.runtime.copy_engine.FusedBatch`.  Its gathers are resolved
once against the producer's source *block*, by the same
:func:`~repro.runtime.copy_engine.place_pairs` that places the batch (and
the consumer's receive plan): a rank's source colours are rows of one
block per field, so every ``apply`` gathers each field once and ships
the fields as one ``MSG`` frame: a header prefix packed once, the
generation, and each field's gathered values as raw bytes.  The
interpreter and a frozen window run the same object, so a statement
sends exactly one message per peer rank per epoch either way.

The consumer's :class:`ReceivePlan` is the other half: the statement's
scatters into the consumer's block, which already know each field's
dtype, element shape and count, so a body is checked by its length and
scattered from views of its bytes — nothing on the wire says what it
holds.

The payload is applied on the *consumer*, in its own shard thread at its
ready-wait point in replicated program order (see
:mod:`repro.runtime.net.sync`), which is why a send carries no reduction
lock: the write-after-read hazard the local handshake guards against
cannot occur when the write happens at the reader's own program point.
"""

from __future__ import annotations

import numpy as np

from . import frame

__all__ = ["PackedSend", "ReceivePlan"]


def _row_bytes(arr) -> int:
    """Bytes of one element (row) of a field array."""
    return arr.itemsize * int(np.prod(arr.shape[1:], dtype=np.int64))


class PackedSend:
    """All of one statement's pair copies from this rank to one peer rank.

    ``gathers`` holds ``(source block field arrays, block slots)`` per run
    of non-empty member pairs in one source block, in pair order — one
    gather per field for a rank's block; the receiver's plan lists the
    same pairs in the same order, so the frame carries only the statement
    uid, the generation and one buffer per field.  Every apply bumps the
    generation, so the wire generation always equals the consumer's
    statement epoch.  ``pair_count`` counts empty members too: each is a
    visited and performed pair copy, as the window counts it.
    ``footprint`` holds the ids of the member pairs' per-colour source
    instance arrays, which the window's fission pass reasons about.
    """

    __slots__ = ("transport", "peer", "uid", "gathers", "pair_count",
                 "count", "nbytes", "footprint", "gen", "_prefix")

    def __init__(self, transport, peer: int, uid: int, gathers,
                 pair_count: int, count: int, nbytes: int,
                 footprint=frozenset()) -> None:
        self.transport = transport
        self.peer = peer
        self.uid = uid
        self.gathers = tuple(gathers)
        self.pair_count = pair_count
        self.count = count
        self.nbytes = nbytes
        self.footprint = frozenset(footprint)
        self.gen = 0
        body = (count * sum(_row_bytes(a) for a in self.gathers[0][0])
                if self.gathers else 0)
        self._prefix = frame.msg_prefix(uid, body)

    def apply(self) -> None:
        self.gen += 1
        parts = [self._prefix, frame.pack_gen(self.gen)]
        gathers = self.gathers
        if len(gathers) == 1:
            srcs, ix = gathers[0]
            parts.extend(src[ix] for src in srcs)
        elif gathers:
            parts.extend(np.concatenate([srcs[f][ix] for srcs, ix in gathers])
                         for f in range(len(gathers[0][0])))
        self.transport.send_msg(self.peer, parts)


class ReceivePlan:
    """A ``MSG`` body's way into the consumer's block.

    ``items`` are the statement's receive-side
    :class:`~repro.runtime.copy_engine.FusedCopy` scatters from one
    producer rank (``receive_plan``), whose source slots index the
    payload.
    Their destination arrays give each field's dtype and element shape,
    their counts the number of values, so the plan knows the body's
    length and where each field starts: :meth:`apply` checks the length
    and scatters from ``np.frombuffer`` views of the body, with no
    decode and no copy.
    """

    __slots__ = ("items", "uid", "peer", "size", "_views")

    def __init__(self, items, uid: int, peer: int) -> None:
        self.items = tuple(items)
        self.uid = uid
        self.peer = peer
        count = sum(it.count for it in self.items)
        views, off = [], frame.HEAD_SIZE
        for dst in (self.items[0].dst_arrays if self.items else ()):
            shape = (count, *dst.shape[1:])
            views.append((dst.dtype, int(np.prod(shape, dtype=np.int64)),
                          off, shape))
            off += count * _row_bytes(dst)
        self.size = off
        self._views = tuple(views)

    def apply(self, body) -> None:
        if len(body) != self.size:
            raise frame.FrameError(
                f"MSG for statement {self.uid} from rank {self.peer}: body "
                f"of {len(body)} bytes, its receive plan expects {self.size}")
        vals = [np.frombuffer(body, dtype, n, off).reshape(shape)
                for dtype, n, off, shape in self._views]
        for item in self.items:
            item.receive(vals)

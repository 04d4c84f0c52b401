"""Message plans: remote pair sends and their aggregation at freeze.

The interpreted path lowers each cross-rank pair copy to a
:class:`NetSendCopy` — the net backend's stand-in for the in-memory
:class:`~repro.runtime.window.ir.PairCopy`: the gather index is resolved
once against the producer's source instance and every ``apply`` packs the
pair's fields into one ``DATA`` frame.  The payload is applied on the
*consumer*, in its own shard thread at its ready-wait point in replicated
program order (see :mod:`repro.runtime.net.sync`), which is why a remote
send carries no reduction lock: the write-after-read hazard the local
handshake guards against cannot occur when the write happens at the
reader's own program point.

At window freeze the ``fuse-copies`` pass
(:mod:`repro.runtime.window.lower`) — the same pass on every backend —
folds one statement's :class:`NetSendCopy` ops to one destination rank
into one ``OP_MSG`` carrying a :class:`PackedSend`: all member pairs'
fields concatenated into a single framed buffer.  A statement runs, and
is recorded, with every credit wait ahead of its first send, so where the
message sits among the statement's copies protects no ordering.
Steady-state iterations therefore send O(neighbor ranks) messages per
statement instead of O(pairwise intersections).
"""

from __future__ import annotations

import numpy as np

from .frame import DATA, MSG

__all__ = ["NetSendCopy", "PackedSend", "_TxState"]


class _TxState:
    """Producer-side generation counter of one channel.

    Every statement execution sends exactly once per remote pair (the
    interpreted per-pair send, or the packed send bumping every member),
    so the wire generation always equals the consumer's statement epoch.
    """

    __slots__ = ("gen",)

    def __init__(self) -> None:
        self.gen = 0

    def bump(self) -> int:
        self.gen += 1
        return self.gen


class NetSendCopy:
    """One cross-rank pair copy lowered to a packed framed send.

    Duck-types :class:`~repro.runtime.window.ir.PairCopy` as far as the
    recorder, the counter-delta computation, and the compiled window
    need: ``apply``/``count``/``nbytes``/``uid``/``group_key``/``ufunc``/
    ``lock``/``arrays``.  ``ufunc`` is always ``None`` — a reduction
    travels as its operand and is folded by the receiver.
    """

    __slots__ = ("transport", "peer", "chan_id", "tx", "srcs", "src_ix",
                 "pair", "count", "nbytes", "uid", "group_key", "ufunc",
                 "lock", "arrays")

    def __init__(self, transport, peer, chan_id, tx, srcs, src_ix,
                 pair, count, nbytes, uid):
        self.transport = transport
        self.peer = peer
        self.chan_id = chan_id
        self.tx = tx
        self.srcs = srcs
        self.src_ix = src_ix
        self.pair = pair
        self.count = count
        self.nbytes = nbytes
        self.uid = uid
        self.group_key = peer
        self.ufunc = None
        self.lock = None
        # Footprint view for op_arrays: a send only reads its sources.
        self.arrays = tuple((src, src) for src in srcs)

    def apply(self) -> None:
        gen = self.tx.bump()
        ix = self.src_ix
        self.transport.send(self.peer, DATA,
                            (self.chan_id, gen, [src[ix] for src in self.srcs]))


class PackedSend:
    """All of one statement's pair copies to one rank, as one message.

    Bumps every member channel's generation in lockstep (the consumer
    waits each member's arrival at its own epoch) and ships the members'
    fields concatenated in recorded member order, so the receiver's
    unpack — applied member-by-member in the same order — observes
    exactly the values and ordering of the per-pair form.
    """

    __slots__ = ("transport", "peer", "uid", "members", "pair_count",
                 "count", "nbytes")

    def __init__(self, members) -> None:
        self.members = tuple(members)
        first = self.members[0]
        self.transport = first.transport
        self.peer = first.peer
        self.uid = first.uid
        self.pair_count = len(self.members)
        self.count = sum(m.count for m in self.members)
        self.nbytes = sum(m.nbytes for m in self.members)

    def apply(self) -> None:
        gen = 0
        for m in self.members:
            gen = m.tx.bump()
        vals = [np.concatenate([m.srcs[f][m.src_ix] for m in self.members])
                for f in range(len(self.members[0].srcs))]
        self.transport.send(
            self.peer, MSG,
            (self.uid, tuple(m.pair for m in self.members), gen, vals))

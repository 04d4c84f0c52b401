"""Message plans: remote pair sends and their trace-frozen aggregation.

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

At window freeze the :class:`MessagePlanPass` rewrites each copy
statement's op window: every ``OP_COPY`` whose payload is a
:class:`NetSendCopy` to the same destination rank is folded into one
``OP_MSG`` carrying a :class:`PackedSend` — all member pairs' fields
concatenated into a single framed buffer, placed at the *last* member's
position so every member's credit wait has already run.  Steady-state
iterations therefore send O(neighbor ranks) messages per statement
instead of O(pairwise intersections).
"""

from __future__ import annotations

import numpy as np

from ...core.passes import Pass
from ...core.shards import owner_of_color
from ..window.recorder import OP_COPY, OP_MSG
from .frame import DATA, MSG

__all__ = ["MessagePlanPass", "NetSendCopy", "PackedSend", "_TxState"]


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


def _plan_segment(seg):
    """Aggregate one copy window's remote sends per destination rank.

    Returns the rewritten segment, or ``None`` when nothing aggregates
    (fewer than two remote sends to any one rank).  All handshake ops
    (credit waits, advances, visits, yields) are kept in place; only the
    member ``OP_COPY`` ops are removed, with one ``OP_MSG`` at the last
    member's position — after every member's credit wait has run.
    """
    by_peer: dict[int, list[int]] = {}
    for n, op in enumerate(seg):
        if op[0] == OP_COPY and type(op[1]) is NetSendCopy:
            by_peer.setdefault(op[1].peer, []).append(n)
    drop: set[int] = set()
    replace: dict[int, tuple] = {}
    for idxs in by_peer.values():
        if len(idxs) < 2:
            continue
        ps = PackedSend(seg[n][1] for n in idxs)
        replace[idxs[-1]] = (OP_MSG, ps)
        drop.update(idxs[:-1])
    if not replace:
        return None
    return [replace.get(n, op) for n, op in enumerate(seg) if n not in drop]


class MessagePlanPass(Pass):
    """Fold each statement's per-rank remote sends into packed transfers.

    The net-mode counterpart of ``fuse-copies`` (local pairs stay
    individual ``PairCopy`` ops — they are in-memory assignments and gain
    nothing from batching here).  Also populates ``wir.copy_protect``
    exactly as ``fuse-copies`` does, since the fission pass needs the
    consumer-side destination footprints either way.
    """

    name = "message-plan"
    establishes = ("messages-planned",)

    def run(self, wir, ctx):
        ex, me, ns = ctx.ex, ctx.state.shard, ctx.num_shards
        for stmt, a, b in reversed(wir.copy_ranges):
            if b <= a:
                continue
            if stmt.uid not in wir.copy_protect:
                protect: set[int] = set()
                dst_n = stmt.dst.num_colors
                for j in {j for (_, j) in ex._copy_pairs(stmt)
                          if owner_of_color(dst_n, ns, j) == me}:
                    inst = ex.dist_instance(stmt.dst, j)
                    protect.update(id(arr) for arr in inst.fields.values())
                wir.copy_protect[stmt.uid] = frozenset(protect)
            seg = _plan_segment(wir.ops[a:b])
            if seg is None:
                continue
            wir.ops[a:b] = seg
        return wir

    def stats(self, wir) -> dict[str, float]:
        packed = [op[1] for op in wir.ops if op[0] == OP_MSG]
        return {"packed_sends": len(packed),
                "packed_pairs": sum(ps.pair_count for ps in packed)}

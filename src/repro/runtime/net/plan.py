"""Send plans: one copy statement's pairs to one peer rank, as one message.

A copy statement hands the context all of its cross-rank pairs to one
peer rank at once (``CommContext.send_pairs``); the net context lowers
the group, the first time it sees it, to a :class:`PackedSend` — the net
backend's stand-in for the in-memory
:class:`~repro.runtime.window.ir.PairCopy`: every member pair's gather
index is resolved once against the producer's source instance, and every
``apply`` ships all members' fields concatenated as one ``MSG`` frame.
The interpreter and a frozen window run the same object, so a statement
sends exactly one message per peer rank per epoch either way.

The payload is applied on the *consumer*, in its own shard thread at its
ready-wait point in replicated program order (see
:mod:`repro.runtime.net.sync`), which is why a send carries no reduction
lock: the write-after-read hazard the local handshake guards against
cannot occur when the write happens at the reader's own program point.
"""

from __future__ import annotations

import numpy as np

from .frame import MSG

__all__ = ["PackedSend"]


class PackedSend:
    """All of one statement's pair copies from this rank to one peer rank.

    ``gathers`` holds ``(source field arrays, source index)`` per
    non-empty member pair, in pair order; the receiver's unpack plan
    lists the same pairs in the same order, so the frame carries only
    the statement uid, the generation and one buffer per field.  Every
    apply bumps the generation, so the wire generation always equals the
    consumer's statement epoch.  ``pair_count`` counts empty members too:
    each is a visited and performed pair copy, as the window counts it.
    """

    __slots__ = ("transport", "peer", "uid", "gathers", "pair_count",
                 "count", "nbytes", "gen")

    def __init__(self, transport, peer: int, uid: int, gathers,
                 pair_count: int, count: int, nbytes: int) -> None:
        self.transport = transport
        self.peer = peer
        self.uid = uid
        self.gathers = tuple(gathers)
        self.pair_count = pair_count
        self.count = count
        self.nbytes = nbytes
        self.gen = 0

    def apply(self) -> None:
        self.gen += 1
        gathers = self.gathers
        if len(gathers) == 1:
            srcs, ix = gathers[0]
            vals = [src[ix] for src in srcs]
        elif gathers:
            vals = [np.concatenate([srcs[f][ix] for srcs, ix in gathers])
                    for f in range(len(gathers[0][0]))]
        else:
            vals = []
        self.transport.send(self.peer, MSG, (self.uid, self.gen, vals))

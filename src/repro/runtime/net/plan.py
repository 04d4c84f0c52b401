"""Send plans: one copy statement's pairs to one peer rank, as one message.

A copy statement hands the context all of its cross-rank pairs to one
peer rank at once (``CommContext.send_pairs``); the net context lowers
the group, the first time it sees it, to a :class:`PackedSend` — the
cross-rank half of the statement's copy plan, beside the in-memory
:class:`~repro.runtime.copy_engine.FusedBatch`.  Its gathers are resolved
once against the producer's source *block*, by the same
:func:`~repro.runtime.copy_engine.block_runs` that lowers the batch (and
the consumer's receive plan): a rank's source colours are rows of one
block per field, so every ``apply`` gathers each field once and ships
the fields as one ``MSG`` frame.  The interpreter and a frozen window run
the same object, so a statement sends exactly one message per peer rank
per epoch either way.

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
                 "count", "nbytes", "footprint", "gen")

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

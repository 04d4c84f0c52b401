"""Window phase scheduling: fission compute from the p2p handshake.

A copy statement is recorded with its handshake already in phases, one op
each; this pass moves those ops across *statement* boundaries so local
compute overlaps the neighbor handshake:

* **ack advances** (write-after-read releases) hoist *backward* past any
  op whose array footprint does not touch the channel's protected
  destination instances — releasing producers as early as the last local
  read allows.
* **ready waits** (read-after-write acquires) sink *forward* past any
  op that does not touch the arrays being delivered — deferring the wait
  until just before the first consumer, so the intervening compute and
  unrelated copies run while neighbors catch up.

Both motions are deadlock-monotone: advances only move earlier and waits
only move later, so any schedule the original (deadlock-free) window
admitted is still admitted.  Collectives (barriers included) and ops of
unknown footprint are scheduling fences; footprints come from
:func:`repro.runtime.window.ir.op_arrays`, and each copy statement's
protected set from its :class:`~repro.runtime.launch_plan.CopyPlan` in
the shard's plan (the pass context's ``plan``).

Each motion is one linear sweep.  A moved op has an empty footprint, so
it is never what stops another moved op: the ops that stay keep their
relative order, and a moved op's landing slot is fixed by the ops that
stay alone — right after the latest of the last fence and the last op
touching one of its protected arrays.  The sweep tracks those two while
scanning and merges the moved ops back in afterwards.  Ops sharing a
slot come out in reverse scan order (each one travels past those that
landed before it), which is the order the pairwise-swap formulation of
this pass produced (kept as the oracle in ``tests/runtime``).
"""

from __future__ import annotations

from ...core.passes import Pass
from .ir import WindowIR, op_arrays
from .recorder import OP_ADVN, OP_COLL, OP_WAITN

__all__ = ["FissionPass"]

_FENCES = frozenset({OP_COLL})


def _sweep(items, protected):
    """Move every op ``protected`` names a non-empty array set for to
    right after the last earlier op it may not cross.

    ``items`` are ``(op, footprint)`` pairs; returns the reordered pairs
    and how many ops left their place.
    """
    kept: list = []
    landed: dict[int, list] = {}  # index into kept (-1: the front) -> movers
    last_fence = -1
    last_touch: dict[int, int] = {}
    moved = 0
    for item in items:
        op, fp = item
        prot = protected(op)
        if prot:
            slot = last_fence
            for a in prot:
                t = last_touch.get(a, -1)
                if t > slot:
                    slot = t
            here = landed.setdefault(slot, [])
            if here or slot != len(kept) - 1:
                moved += 1
            here.append(item)
            continue
        if fp is None or op[0] in _FENCES:
            last_fence = len(kept)
        else:
            for a in fp:
                last_touch[a] = len(kept)
        kept.append(item)
    out = landed.pop(-1, [])[::-1]
    for n, item in enumerate(kept):
        out.append(item)
        if n in landed:
            out.extend(reversed(landed[n]))
    return out, moved


class FissionPass(Pass):
    """Overlap compute with the p2p handshake by hoisting acks / sinking
    ready waits across footprint-disjoint ops."""

    name = "fission"
    establishes = ("fissioned",)

    def run(self, wir: WindowIR, ctx) -> WindowIR:
        steps = ctx.plan.steps

        def ack_advance(op):
            if op[0] == OP_ADVN and op[4] == "ack":
                return steps[op[2]].protect

        def ready_wait(op):
            if op[0] == OP_WAITN and op[4] == "rdy":
                return steps[op[2]].protect

        items = [(op, op_arrays(op)) for op in wir.ops]
        items, self._hoisted = _sweep(items, ack_advance)
        # Sinking forward is hoisting backward over the reversed window.
        items, self._sunk = _sweep(items[::-1], ready_wait)
        wir.ops = [op for op, _ in reversed(items)]
        return wir

    def stats(self, wir: WindowIR) -> dict[str, float]:
        return {"hoisted_acks": getattr(self, "_hoisted", 0),
                "sunk_ready_waits": getattr(self, "_sunk", 0)}

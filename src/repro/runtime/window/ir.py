"""The window IR: footprints and the verifier.

A :class:`WindowIR` is one recorded loop iteration in flight through the
window-compiler pass (:mod:`repro.runtime.window.schedule`): a flat op
list (see :mod:`repro.runtime.window.recorder` for the vocabulary) plus
the guard set and the per-iteration epoch deltas.  Every op is already
in its final form when recorded — a launch is the shard's
:class:`~repro.runtime.launch_plan.LaunchPlan`, a copy statement's data
movement its :class:`~repro.runtime.copy_engine.FusedBatch` and its
sends — so no pass rewrites one.

The structural verifier (:func:`window_summary` / :func:`verify_window`)
runs after every pass that changed the op list: it recomputes the
window's externally visible effects — counter deltas, per-channel advance
targets and wait strides, the collective sequence — in one walk
and checks them against the recorded baseline, so a lowering bug fails at
compile time instead of corrupting a steady-state run.
"""

from __future__ import annotations

from typing import Any

from ...core.ir import evaluate
from .recorder import (
    OP_ADVN,
    OP_ASSIGN,
    OP_COLL,
    OP_FILL,
    OP_FUSED,
    OP_MSG,
    OP_SETVAR,
    OP_TASK,
    OP_WAITN,
    OP_YIELD,
)

__all__ = [
    "WindowIR", "WindowVerifyError",
    "guards_hold", "op_arrays",
    "verify_window", "window_summary",
]


def guards_hold(guards, scalars: dict[str, Any]) -> bool:
    """Re-evaluate a window's hoisted guards against the current scalars."""
    for expr, expected, as_bool in guards:
        v = evaluate(expr, scalars)
        if as_bool:
            if bool(v) is not expected:
                return False
        elif v != expected:
            return False
    return True


class WindowIR:
    """One recorded loop iteration in flight through the window passes."""

    __slots__ = ("ops", "guards", "epoch_deltas", "invariants")

    def __init__(self, ops, guards):
        self.ops: list = ops
        self.guards: list = guards
        self.epoch_deltas: tuple = ()
        self.invariants: set[str] = set()


# ---------------------------------------------------------------------------
# Footprints, counter deltas, and the structural verifier
# ---------------------------------------------------------------------------

# Op kinds that touch no instance array: sync, scalar, yield.
_NO_ARRAYS = frozenset({OP_ADVN, OP_WAITN, OP_COLL, OP_ASSIGN, OP_SETVAR,
                        OP_YIELD})
_EMPTY_FOOTPRINT: frozenset[int] = frozenset()


def op_arrays(op) -> frozenset[int] | None:
    """ids of every instance array the op may read or write.

    Sync, scalar and bookkeeping ops have a known-empty footprint.  An op
    kind this function does not model has an unknown one and returns
    ``None``, which the fission pass treats as a scheduling fence.
    """
    k = op[0]
    if k in _NO_ARRAYS:
        return _EMPTY_FOOTPRINT
    if k == OP_TASK:
        return op[1].footprint
    if k == OP_FUSED:
        # A block item moves block rows, but it names the per-colour
        # instance arrays its pairs read and write: the ids task
        # footprints and the copy plans' protect sets use.
        return frozenset().union(*(item.footprint for item in op[1].items))
    if k == OP_MSG:
        return op[1].footprint
    if k == OP_FILL:
        return frozenset(id(arr) for arr, _ in op[1])
    return None


def window_summary(wir: WindowIR):
    """The window's externally visible effects, in one walk of its ops:
    the shard-counter deltas one execution produces, per-channel max
    advance target and ordered wait strides, and the ordered collective
    sequence (barriers included).

    The counter deltas are applied once per replayed iteration, so
    compiled windows stay counter-identical to interpretation by
    construction; the verifier diffs the whole summary across passes.
    """
    d = {"pair_visits": 0, "elements_copied": 0, "copies_performed": 0,
         "bytes_copied": 0, "tasks_executed": 0, "fused_copies": 0,
         "fused_pairs": 0, "lockfree_folds": 0, "locked_folds": 0}
    advs: dict[int, int] = {}
    waits: dict[int, list[int]] = {}
    syncs: list[tuple] = []
    for op in wir.ops:
        k = op[0]
        if k == OP_ADVN:
            for seq in op[1]:
                key = id(seq)
                advs[key] = max(advs.get(key, op[3]), op[3])
        elif k == OP_WAITN:
            for seq, _ in op[1]:
                waits.setdefault(id(seq), []).append(op[3])
        elif k == OP_FUSED:
            for name, n in op[1].counter_deltas():
                d[name] += n
        elif k == OP_MSG:
            # One send carries all of a statement's pairs to one peer;
            # each counts as a visited and performed pair copy.  Remote
            # sends carry no reduction fold (folds happen receiver-side),
            # so the fold counters stay untouched.
            ps = op[1]
            d["pair_visits"] += ps.pair_count
            d["copies_performed"] += ps.pair_count
            d["elements_copied"] += ps.count
            d["bytes_copied"] += ps.nbytes
        elif k == OP_TASK:
            d["tasks_executed"] += op[1].points
        elif k == OP_COLL:
            syncs.append((id(op[1]), op[2], op[3], op[4]))
    return (d, advs, {k: tuple(v) for k, v in waits.items()}, tuple(syncs))


class WindowVerifyError(RuntimeError):
    """A window pass changed the window's externally visible effects."""


def verify_window(wir: WindowIR, baseline, stage: str) -> None:
    counters, advs, waits, syncs = window_summary(wir)
    base_counters, base_advs, base_waits, base_syncs = baseline
    diff = {k: (base_counters[k], counters[k]) for k in counters
            if counters[k] != base_counters[k]}
    if diff:
        raise WindowVerifyError(
            f"window pass {stage!r} changed counter deltas: {diff}")
    if advs != base_advs:
        raise WindowVerifyError(
            f"window pass {stage!r} changed channel advance targets")
    if waits != base_waits:
        raise WindowVerifyError(
            f"window pass {stage!r} changed per-channel wait strides")
    if syncs != base_syncs:
        raise WindowVerifyError(
            f"window pass {stage!r} changed the collective sequence")

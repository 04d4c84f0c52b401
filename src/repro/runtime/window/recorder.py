"""Window recording: the op vocabulary and the iteration shadow recorder.

The shard interpreter re-runs the full analysis stack — privilege-checked
view construction, instance resolution, intersection slicing, channel
epoch bookkeeping — on every iteration of the replicated control loop,
even though in steady state the loop body produces an identical schedule
each time step.  While a loop interprets, an :class:`IterationRecorder`
shadows the event stream: one op and one fingerprint key per statement
execution, except that a copy statement — which the interpreter runs in
phases — is one op per phase under one key.  Its data movement is one op
too: the statement's :class:`~repro.runtime.copy_engine.FusedBatch`, the
very object the interpreter just applied (plus one send per peer rank on
a backend that sends).  A recorded iteration is therefore ``a constant ×
statements`` ops long whatever the number of intersection pairs, and no
pass needs to shrink it.  The recorded op list is the input of the window
compiler (:mod:`repro.runtime.window.exec`); the guards it collected
decide when the loop freezes.

Generation-bearing ops store a *stride* (recorded generation minus the
loop-entry epoch of that statement uid) instead of the absolute
generation, so a frozen window replays correctly at any later epoch and
composes with interpreted fallback iterations in between.
"""

from __future__ import annotations

from typing import Any

from ...core.ir import Expr, IndexLaunch

__all__ = [
    "IterationRecorder", "ReplayError",
    "OP_ASSIGN", "OP_SETVAR", "OP_TASK", "OP_FILL", "OP_ADVN", "OP_WAITN",
    "OP_BARRIER", "OP_COLL", "OP_YIELD", "OP_FUSED", "OP_MSG", "OP_NAMES",
]

# Op kinds of a recorded/lowered window (first element of every op tuple).
# A copy statement is recorded the way it ran (SPMDExecutor._exec_copy), one
# op a phase: ADVN ack, WAITN ack, its MSGs (one per peer shard, on a
# backend that sends) and its FUSED batch, ADVN rdy, YIELD, WAITN rdy — or
# BARRIER pre, MSGs, FUSED, YIELD, BARRIER post.  Every kind is recorded;
# the passes freeze (maybe batch) a TASK's launch in place and reorder.
OP_ASSIGN = 0    # (k, name, expr)                   scalars[name] = eval(expr)
OP_SETVAR = 1    # (k, name, value)                  nested loop variable
OP_TASK = 2      # (k, frozen_launch)                point tasks of one launch
OP_FILL = 3      # (k, fills)                        reduction-buffer fills
OP_ADVN = 4      # (k, seqs, uid, stride, kind)      advance a phase's channels
OP_WAITN = 5     # (k, ((seq, label), ...), uid, stride, kind)  and wait on them
OP_BARRIER = 6   # (k, barrier, uid, stride, label)  arrive-and-wait
OP_COLL = 7      # (k, coll, uid, stride, name)      dynamic collective
OP_YIELD = 8     # (k,)                              interpreter preemption pt
OP_FUSED = 9     # (k, fusedbatch)                   one statement's local copies
OP_MSG = 10      # (k, packedsend)                   one statement's send to a peer

OP_NAMES = ("assign", "setvar", "task", "fill", "advn", "waitn", "barrier",
            "coll", "yield", "fused", "msg")


class ReplayError(RuntimeError):
    """A frozen loop cannot run its window: a lowering pass failed the
    window verifier, or the window met a shard state it was not built
    for."""


class IterationRecorder:
    """Shadows one interpreted loop iteration: ops, schedule keys, guards."""

    __slots__ = ("epoch_base", "ops", "keys", "guards", "written",
                 "unfreezable", "copy_protect")

    def __init__(self, epochs: dict[int, int]):
        self.epoch_base = dict(epochs)
        self.ops: list = []
        self.keys: list = []
        self.guards: list[tuple[Expr, Any, bool]] = []
        self.written: set[str] = set()
        self.unfreezable = False
        # copy uid -> the array ids its handshake protects (the fission
        # pass's footprint), as the statement's schedule names them.
        self.copy_protect: dict[int, frozenset[int]] = {}

    def _stride(self, uid: int, g: int) -> int:
        return g - self.epoch_base.get(uid, 0)

    # -- control flow -------------------------------------------------------
    def guard(self, expr: Expr, value: Any, as_bool: bool) -> None:
        """A condition the replayed iteration must re-establish.

        Guards are re-evaluated at the *start* of a replayed iteration, so
        one that reads a scalar written earlier in this same iteration
        cannot be hoisted — the window becomes unfreezable.
        """
        if expr.refs() & self.written:
            self.unfreezable = True
        self.guards.append((expr, bool(value) if as_bool else value, as_bool))

    def assign(self, uid: int, name: str, expr: Expr) -> None:
        self.written.add(name)
        self.ops.append((OP_ASSIGN, name, expr))
        self.keys.append(("a", uid))

    def setvar(self, name: str, value: int) -> None:
        self.written.add(name)
        self.ops.append((OP_SETVAR, name, value))
        self.keys.append(("v", name, value))

    # -- work ---------------------------------------------------------------
    def launch(self, stmt: IndexLaunch, owned) -> None:
        # Frozen lazily (views, argument vectors) if the window freezes.
        self.ops.append((OP_TASK, stmt, tuple(owned)))
        self.keys.append(("t", stmt.uid, tuple(owned)))

    def fill(self, uid: int, fills: list) -> None:
        self.ops.append((OP_FILL, tuple(fills)))
        self.keys.append(("f", uid))

    def send(self, ps) -> None:
        self.ops.append((OP_MSG, ps))

    def fused(self, uid: int, g: int, batch, protect) -> None:
        """A copy statement's in-memory batch (after its sends), and the
        arrays its handshake protects.  One fingerprint key for the whole
        statement: its batch and sends are fixed for the launch, so (uid,
        stride) names its schedule.  A shard with no in-memory pair of the
        statement records no op for it."""
        self.copy_protect[uid] = protect
        if batch.visits:
            self.ops.append((OP_FUSED, batch))
        self.keys.append(("c", uid, self._stride(uid, g)))

    # -- synchronization ----------------------------------------------------
    def advance_group(self, uid: int, kind: str, seqs, g: int) -> None:
        self.ops.append((OP_ADVN, seqs, uid, self._stride(uid, g), kind))

    def wait_group(self, uid: int, kind: str, waits, g: int) -> None:
        self.ops.append((OP_WAITN, waits, uid, self._stride(uid, g), kind))

    def barrier(self, uid: int, tag: str, bar, g: int, label: str) -> None:
        stride = self._stride(uid, g)
        self.ops.append((OP_BARRIER, bar, uid, stride, label))
        self.keys.append(("b", uid, tag, stride))

    def collective(self, uid: int, coll, g: int, name: str) -> None:
        self.written.add(name)
        stride = self._stride(uid, g)
        self.ops.append((OP_COLL, coll, uid, stride, name))
        self.keys.append(("coll", uid, stride))

    def yield_none(self) -> None:
        self.ops.append((OP_YIELD,))

    # -- capture decision ---------------------------------------------------
    def fingerprint(self):
        return (tuple(self.keys),
                tuple((id(e), v, b) for e, v, b in self.guards))

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
pass needs to shrink it.  An index launch is one op in its final form as
well: the shard's :class:`~repro.runtime.launch_plan.LaunchPlan`, the
object whose calls the interpreter just ran.  The recorded op list is the input of the window
compiler (:mod:`repro.runtime.window.exec`); the guards it collected
decide when the loop freezes.

Generation-bearing ops store a *stride* (recorded generation minus the
loop-entry epoch of that statement uid) instead of the absolute
generation, so a frozen window replays correctly at any later epoch and
composes with interpreted fallback iterations in between.
"""

from __future__ import annotations

from typing import Any

from ...core.ir import Expr

__all__ = [
    "IterationRecorder", "ReplayError",
    "OP_ASSIGN", "OP_SETVAR", "OP_TASK", "OP_FILL", "OP_ADVN", "OP_WAITN",
    "OP_COLL", "OP_YIELD", "OP_FUSED", "OP_MSG",
]

# Op kinds of a recorded/lowered window (first element of every op tuple).
# A copy statement is recorded the way it ran (SPMDExecutor._exec_copy), one
# op a phase: ADVN ack, WAITN ack, its MSGs (one per peer shard, on a
# backend that sends) and its FUSED batch, ADVN rdy, YIELD, WAITN rdy — or
# COLL pre, MSGs, FUSED, YIELD, COLL post, two collectives with no scalar
# name (barriers).  Every kind is recorded in its final form; the one pass
# only reorders.
OP_ASSIGN = 0    # (k, name, expr)                   scalars[name] = eval(expr)
OP_SETVAR = 1    # (k, name, value)                  nested loop variable
OP_TASK = 2      # (k, launchplan)                   one launch's owned calls
OP_FILL = 3      # (k, fills)                        reduction-buffer fills
OP_ADVN = 4      # (k, seqs, uid, stride, kind)      advance a phase's channels
OP_WAITN = 5     # (k, ((seq, label), ...), uid, stride, kind)  and wait on them
OP_COLL = 6      # (k, coll, uid, stride, name)      dynamic collective
OP_YIELD = 7     # (k,)                              interpreter preemption pt
OP_FUSED = 8     # (k, fusedbatch)                   one statement's local copies
OP_MSG = 9       # (k, packedsend)                   one statement's send to a peer


class ReplayError(RuntimeError):
    """A frozen loop cannot run its window: a lowering pass failed the
    window verifier, or the window met a shard state it was not built
    for."""


class IterationRecorder:
    """Shadows one interpreted loop iteration: ops, schedule keys, guards."""

    __slots__ = ("epoch_base", "ops", "keys", "guards", "written",
                 "unfreezable")

    def __init__(self, epochs: dict[int, int]):
        self.epoch_base = dict(epochs)
        self.ops: list = []
        self.keys: list = []
        self.guards: list[tuple[Expr, Any, bool]] = []
        self.written: set[str] = set()
        self.unfreezable = False

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
    def launch(self, plan) -> None:
        """A launch's plan: fixed for the launch, so its uid names it."""
        self.ops.append((OP_TASK, plan))
        self.keys.append(("t", plan.uid))

    def fill(self, uid: int, fills: list) -> None:
        self.ops.append((OP_FILL, tuple(fills)))
        self.keys.append(("f", uid))

    def send(self, ps) -> None:
        self.ops.append((OP_MSG, ps))

    def fused(self, uid: int, g: int, batch) -> None:
        """A copy statement's in-memory batch (after its sends).  One
        fingerprint key for the whole statement: its batch and sends are
        fixed for the launch, so (uid, stride) names its schedule.  A
        shard with no in-memory pair of the statement records no op for
        it."""
        if batch.visits:
            self.ops.append((OP_FUSED, batch))
        self.keys.append(("c", uid, self._stride(uid, g)))

    # -- synchronization ----------------------------------------------------
    def advance_group(self, uid: int, kind: str, seqs, g: int) -> None:
        self.ops.append((OP_ADVN, seqs, uid, self._stride(uid, g), kind))

    def wait_group(self, uid: int, kind: str, waits, g: int) -> None:
        self.ops.append((OP_WAITN, waits, uid, self._stride(uid, g), kind))

    def collective(self, uid: int, coll, g: int,
                   name: str | None = None) -> None:
        """A collective into scalar ``name``, or with no name a barrier
        (a barrier-mode copy's ``pre``/``post``)."""
        if name is not None:
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

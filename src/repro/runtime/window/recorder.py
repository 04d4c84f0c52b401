"""Window recording: the op vocabulary and the iteration shadow recorder.

The shard interpreter re-runs the full analysis stack — privilege-checked
view construction, instance resolution, intersection slicing, channel
epoch bookkeeping — on every iteration of the replicated control loop,
even though in steady state the loop body produces an identical schedule
each time step.  While a loop interprets, an :class:`IterationRecorder`
shadows the event stream, keying every statement execution (stmt uid,
channel epoch deltas, copy pairs and sizes).  The recorded op list is the
input of the window compiler (:mod:`repro.runtime.window.exec`).

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
    "OP_ASSIGN", "OP_SETVAR", "OP_TASK", "OP_FILL", "OP_ADV", "OP_WAIT",
    "OP_COPY", "OP_BARRIER", "OP_COLL", "OP_VISIT", "OP_YIELD", "OP_FUSED",
    "OP_VISITS", "OP_ADVN", "OP_MEGA", "OP_CONST", "OP_MSG", "OP_NAMES",
]

# Op kinds of a recorded/lowered window (first element of every op tuple).
OP_ASSIGN = 0    # (k, name, expr)                   scalars[name] = eval(expr)
OP_SETVAR = 1    # (k, name, value)                  nested loop variable
OP_TASK = 2      # (k, frozen_launch)                point tasks of one launch
OP_FILL = 3      # (k, fills)                        reduction-buffer fills
OP_ADV = 4       # (k, seq, uid, stride, kind)       advance channel sequence
OP_WAIT = 5      # (k, seq, uid, stride, label, kind) yield channel event
OP_COPY = 6      # (k, paircopy)                     precompiled pairwise copy
OP_BARRIER = 7   # (k, barrier, uid, stride, label)  arrive-and-wait
OP_COLL = 8      # (k, coll, uid, stride, name)      dynamic collective
OP_VISIT = 9     # (k,)                              empty-pair visit counter
OP_YIELD = 10    # (k,)                              interpreter preemption pt
OP_FUSED = 11    # (k, fusedbatch)                   one statement's fused copies
OP_VISITS = 12   # (k, n)                            batched empty-pair visits
OP_ADVN = 13     # (k, seqs, uid, stride, kind)      batched channel advances
OP_MEGA = 14     # (k, mega_launch)                  fused adjacent launches
OP_CONST = 15    # (k, ((name, value), ...))         folded scalar stores
OP_MSG = 16      # (k, packedsend)                   one aggregated net transfer

OP_NAMES = ("assign", "setvar", "task", "fill", "adv", "wait", "copy",
            "barrier", "coll", "visit", "yield", "fused", "visits", "advn",
            "mega", "const", "msg")


class ReplayError(RuntimeError):
    """A frozen loop cannot run its window: a lowering pass failed the
    window verifier, or the window met a shard state it was not built
    for."""


class IterationRecorder:
    """Shadows one interpreted loop iteration: ops, schedule keys, guards."""

    __slots__ = ("epoch_base", "ops", "keys", "guards", "written",
                 "unfreezable", "copy_ranges")

    def __init__(self, epochs: dict[int, int]):
        self.epoch_base = dict(epochs)
        self.ops: list = []
        self.keys: list = []
        self.guards: list[tuple[Expr, Any, bool]] = []
        self.written: set[str] = set()
        self.unfreezable = False
        # [stmt, first_op_index, one_past_last] per PairwiseCopy execution;
        # the fuse-copies pass rewrites exactly these op windows.
        self.copy_ranges: list[list] = []

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

    def copy(self, uid: int, i: int, j: int, pc) -> None:
        self.ops.append((OP_COPY, pc))
        self.keys.append(("c", uid, i, j, pc.count))

    def copy_begin(self, stmt) -> None:
        """Open a copy-statement window (closed by :meth:`copy_end`)."""
        self.copy_ranges.append([stmt, len(self.ops), -1])

    def copy_end(self) -> None:
        self.copy_ranges[-1][2] = len(self.ops)

    def visit(self, uid: int, i: int, j: int) -> None:
        self.ops.append((OP_VISIT,))
        self.keys.append(("pv", uid, i, j))

    # -- synchronization ----------------------------------------------------
    def advance(self, uid: int, tag, seq, g: int) -> None:
        stride = self._stride(uid, g)
        self.ops.append((OP_ADV, seq, uid, stride, tag[0]))
        self.keys.append(("adv", uid, tag, stride))

    def wait(self, uid: int, tag, seq, g: int, label: str) -> None:
        stride = self._stride(uid, g)
        self.ops.append((OP_WAIT, seq, uid, stride, label, tag[0]))
        self.keys.append(("w", uid, tag, stride))

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

"""Window execution: compile frozen iterations, replay them, fall back.

A frozen loop holds exactly one thing: a :class:`CompiledWindow`.
:func:`compile_window` runs the one window pipeline (:func:`window_passes`:
``freeze-tasks`` → ``batch-launch`` → ``fission``, the same on every
backend) over one recorded iteration and packages the
result into a handful of phase closures (compute, copy, advance, wait,
barrier, collective) executed by every driver.  The statement
interpreter runs everything else: capture iterations, guard-miss
iterations, and loops that cannot be frozen.

When a loop freezes is :class:`LoopReplay`'s decision and is observed, not
configured: at the first interpreted iteration that recorded no guard —
its schedule is then a function of the program and the pair sets alone —
or, when guards were recorded, at the second of two consecutive
iterations with equal fingerprints.

Fallback semantics: the hoisted guards are re-checked before every
replayed iteration, and a failed guard interprets that one iteration.
The window is kept whatever the fallback wrote: a replayed scalar
assignment evaluates its expression, so later replays read the new
values.

A compiled window is a legal *coarsening* of the interpreted schedule.  A
copy statement already runs in the window's phase order when interpreted
(``SPMDExecutor._exec_copy``), yielding only events that are not yet
triggered; the window also collapses each launch's per-task preemption
points into one compute closure and runs adjacent statements' phases
back to back, so the stepped driver crosses a replayed iteration in a
handful of resumptions.  Counters stay bit-identical by construction: the
per-window deltas are precomputed at compile time and applied once per
replayed iteration.

A pass that changes the window's visible effects fails the cross-pass
verifier; the freeze then raises :class:`ReplayError` naming the shard,
the loop and the pass, and the launch ends like any other shard failure.

Plan/state separation (compile-once serve-many): everything in this
module is a per-*program* plan, valid for as long as the executor's
session (instances, sync objects, epoch dicts, shard states) is alive.
A :class:`CompiledWindow` is *bound*: its closures capture the exact
``_ShardState`` object (and its ``epochs`` dict) they were built
against, so a resident executor must reuse those state objects across
runs — resetting per-run data in place via ``_ShardState.reset_for_run``
— rather than rebuild them.  The binding is recorded at build time and
checked on every replayed iteration; replaying a window against a
different state raises :class:`ReplayError` instead of silently reading
stale data.  Frozen plans therefore survive across runs (the basis of
the ``repro serve`` plan cache), and a program/layout switch must drop
them via the executor's session reset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import is_
from typing import Any, Iterator

from ...core.ir import evaluate
from ...core.passes import PassContext, run_pass_pipeline
from ...obs import flight as _flight
from .ir import (
    WindowIR,
    WindowVerifyError,
    _Unfreezable,
    format_window,
    guards_hold,
    verify_window,
    window_summary,
)
from .lower import BatchLaunchPass, FreezeTasksPass
from .recorder import (
    OP_ADVN,
    OP_ASSIGN,
    OP_BARRIER,
    OP_COLL,
    OP_FILL,
    OP_FUSED,
    OP_MSG,
    OP_SETVAR,
    OP_TASK,
    OP_WAITN,
    OP_YIELD,
    IterationRecorder,
    ReplayError,
)
from .schedule import FissionPass

__all__ = ["CompiledWindow", "LoopReplay", "WindowContext",
           "compile_window", "window_passes"]


@dataclass
class WindowContext(PassContext):
    """Pass context for the window pipeline: adds the executor, the shard
    state and the launch's comm context the window is compiled against."""

    ex: Any = None
    state: Any = None
    comm: Any = None


# ---------------------------------------------------------------------------
# Compiled windows
# ---------------------------------------------------------------------------

_PH_RUN = 0      # (kind, (flight_kind, nbytes, thunks))
_PH_WAIT = 1     # (kind, ((seq, uid, stride, label), ...))
_PH_YIELD = 2    # (kind, None)
_PH_BARRIER = 3  # (kind, (bar, uid, stride, label))
_PH_COLL = 4     # (kind, (coll, uid, stride, name))

# The flight record each run of thunks writes per replay: one TASK per
# compute phase, one COPY (with the phase's bytes) per copy phase; an
# advance phase writes none.
_RUN_KINDS = {"compute": _flight.TASK, "copy": _flight.COPY, "advance": 0}


def _assign_thunk(state, name, expr):
    def run():
        state.scalars[name] = evaluate(expr, state.scalars)
    return run


def _setvar_thunk(state, name, value):
    def run():
        state.scalars[name] = value
    return run


def _fill_thunk(fills):
    def run():
        for arr, value in fills:
            arr[...] = value
    return run


def _advn_thunk(state, advance_group, seqs, uid, stride):
    epochs = state.epochs

    def run():
        advance_group(seqs, epochs[uid] + stride)
    return run


class CompiledWindow:
    """One frozen iteration lowered to phase-scheduled closures.

    Executed by the generator protocol of the shard interpreter, so every
    driver runs it unchanged; it yields only events that are not already
    triggered (plus the window's recorded preemption points,
    collapsed), and applies the precomputed counter and epoch deltas once
    at the end of each replayed iteration.  Each compute and copy phase
    writes its own flight record, under the loop's uid.
    """

    __slots__ = ("uid", "phases", "guards", "epoch_deltas",
                 "counter_deltas", "num_closures", "bound_state",
                 "__weakref__")

    def __init__(self, uid, phases, guards, epoch_deltas, deltas,
                 num_closures):
        self.uid = uid
        self.phases = phases
        self.guards = guards
        self.epoch_deltas = epoch_deltas
        self.counter_deltas = tuple((k, v) for k, v in deltas.items() if v)
        self.num_closures = num_closures
        # The shard state whose scalars/epochs the phase closures captured.
        # A resident executor reuses that state across runs; replaying
        # against any other state would read stale bindings, so replay()
        # enforces the identity.
        self.bound_state = None

    @classmethod
    def build(cls, wir: WindowIR, state, comm,
              uid: int = 0) -> "CompiledWindow":
        # Bound once here, never looked up per op: a replayed OP_ADVN is
        # one call into the launch context's group advance.
        advance_group = comm.advance_group
        classified: list[tuple[str, Any]] = []
        for op in wir.ops:
            k = op[0]
            if k == OP_TASK:
                fl = op[1]
                classified.append(
                    ("compute", (lambda f=fl: f.run_compiled(state))))
            elif k == OP_ASSIGN:
                classified.append(("compute",
                                   _assign_thunk(state, op[1], op[2])))
            elif k == OP_SETVAR:
                classified.append(("compute",
                                   _setvar_thunk(state, op[1], op[2])))
            elif k == OP_FILL:
                classified.append(("compute", _fill_thunk(op[1])))
            elif k == OP_MSG or (k == OP_FUSED and op[1].items):
                classified.append(("copy", op[1]))
            elif k == OP_ADVN:
                classified.append(
                    ("advance", _advn_thunk(state, advance_group,
                                            op[1], op[2], op[3])))
            elif k == OP_WAITN:
                classified.extend(("wait", (seq, op[2], op[3], label))
                                  for seq, label in op[1])
            elif k == OP_YIELD:
                classified.append(("yield", None))
            elif k == OP_BARRIER:
                classified.append(("barrier", (op[1], op[2], op[3], op[4])))
            elif k == OP_COLL:
                classified.append(("coll", (op[1], op[2], op[3], op[4])))
            # A FUSED batch of empty pairs only is a pure counter bump,
            # precomputed in the window's counter deltas: no runtime op.
        phases: list[tuple[int, Any]] = []
        i, n = 0, len(classified)
        while i < n:
            kind, payload = classified[i]
            j = i + 1
            while j < n and classified[j][0] == kind:
                j += 1
            if kind in _RUN_KINDS:
                thunks = [p for _, p in classified[i:j]]
                nbytes = 0
                if kind == "copy":
                    nbytes = sum(c.nbytes for c in thunks)
                    thunks = [c.apply for c in thunks]
                phases.append((_PH_RUN,
                               (_RUN_KINDS[kind], nbytes, tuple(thunks))))
            elif kind == "wait":
                phases.append((_PH_WAIT,
                               tuple(p for _, p in classified[i:j])))
            elif kind == "yield":
                phases.append((_PH_YIELD, None))  # collapse the run
            else:
                for _, p in classified[i:j]:
                    phases.append((_PH_BARRIER if kind == "barrier"
                                   else _PH_COLL, p))
            i = j
        cw = cls(uid, tuple(phases), tuple(wir.guards), wir.epoch_deltas,
                 window_summary(wir)[0], len(phases))
        cw.bound_state = state
        return cw

    def guards_hold(self, scalars: dict[str, Any]) -> bool:
        return guards_hold(self.guards, scalars)

    def replay(self, state) -> Iterator[Any]:
        if state is not self.bound_state:
            raise ReplayError(
                f"compiled window for loop {self.uid} replayed against a "
                f"shard state it was not built for; resident executors must "
                f"reuse shard states (reset_for_run), not rebuild them")
        epochs = state.epochs
        record, loop, perf = state.flight.record, self.uid, time.perf_counter
        for kind, payload in self.phases:
            if kind == _PH_RUN:
                flight_kind, nbytes, thunks = payload
                if not flight_kind:
                    for fn in thunks:
                        fn()
                    continue
                t0 = perf()
                for fn in thunks:
                    fn()
                record(flight_kind, loop, t0, perf(), nbytes)
            elif kind == _PH_WAIT:
                for seq, uid, stride, label in payload:
                    ev = seq.event_for(epochs[uid] + stride, label)
                    if not ev.is_set():
                        yield ev
            elif kind == _PH_YIELD:
                yield None
            elif kind == _PH_BARRIER:
                bar, uid, stride, label = payload
                ev = bar.arrive_and_wait_event(epochs[uid] + stride,
                                               label=label)
                if not ev.is_set():
                    yield ev
            else:  # _PH_COLL
                coll, uid, stride, name = payload
                g = epochs[uid] + stride
                ev = coll.contribute(g,
                                     state.pending_reductions.pop(name, None))
                if not ev.is_set():
                    yield ev
                state.scalars[name] = coll.result(g)
        for name, d in self.counter_deltas:
            setattr(state, name, getattr(state, name) + d)
        for uid, d in self.epoch_deltas:
            epochs[uid] = epochs.get(uid, 0) + d


# ---------------------------------------------------------------------------
# The compile driver and the per-loop capture state machine
# ---------------------------------------------------------------------------

def window_passes() -> list:
    """The window pipeline, in order; the same on every backend."""
    return [FreezeTasksPass(), BatchLaunchPass(), FissionPass()]


def compile_window(ex, rec: IterationRecorder, state, comm, *,
                   uid: int = 0) -> CompiledWindow:
    """Lower one recorded iteration to a :class:`CompiledWindow` bound to
    ``state`` and to the launch context ``comm``."""
    t_compile = time.perf_counter()
    wir = WindowIR(ops=list(rec.ops), guards=list(rec.guards),
                   copy_protect=rec.copy_protect)
    deltas = ((loop_uid, g - rec.epoch_base.get(loop_uid, 0))
              for loop_uid, g in state.epochs.items())
    wir.epoch_deltas = tuple((loop_uid, d) for loop_uid, d in deltas if d)
    ctx = WindowContext(
        num_shards=comm.num_shards, metrics=state.metrics,
        dump_after=ex.window_dump_after, dump_sink=ex.window_dump_sink,
        ex=ex, state=state, comm=comm)
    baseline = window_summary(wir)
    verified = list(wir.ops)

    def verify(w, stage):
        # A pass that handed back the very ops already verified changed
        # nothing the summary can see: skip the walk.
        if len(w.ops) == len(verified) and all(map(is_, w.ops, verified)):
            return
        verify_window(w, baseline, stage)
        verified[:] = w.ops

    try:
        wir = run_pass_pipeline(
            wir, window_passes(), ctx, metric_prefix="spmd_window_pass",
            size_fn=lambda w: len(w.ops), verify_fn=verify,
            dump_fn=format_window)
    except WindowVerifyError as exc:
        # A lowering pass broke the window's visible effects.  Nothing
        # else could run this loop's steady state, so the shard fails.
        raise ReplayError(
            f"shard {state.shard}, loop {uid}: {exc}") from None
    state.window_ops_recorded += len(rec.ops)
    state.window_ops_lowered += len(wir.ops)
    cw = CompiledWindow.build(wir, state, comm, uid=uid)
    state.window_compiles += 1
    state.window_closures += cw.num_closures
    # A window compile is exactly the kind of rare, expensive, should-not-
    # recur event a post-failure flight dump wants on the timeline (a
    # recompile storm shows up as repeated COMPILE records).
    state.flight.record(_flight.COMPILE, uid, t_compile, time.perf_counter())
    return cw


class LoopReplay:
    """Capture state machine for one loop statement on one shard.

    The loop freezes at the first interpreted iteration that leaves nothing
    to observe: one that recorded no guard (no ``if``, ``while`` or inner
    loop bound was evaluated, so its schedule is a function of the program
    and the launch's pair sets alone), or the second of two consecutive
    ones with identical fingerprints when guards were recorded.  An
    iteration (or a body) that cannot be frozen keeps interpreting; a
    guard-free body whose compile failed is not compiled again (every
    iteration of it records the same ops).  Once frozen, the window is
    permanent: a guard miss falls back to interpretation for that
    iteration only, whatever the iteration writes.
    """

    __slots__ = ("uid", "comm", "trace", "unfreezable",
                 "iterations_recorded", "_prev", "_rec")

    def __init__(self, uid: int, comm):
        self.uid = uid
        self.comm = comm  # the launch context its windows bind to
        self.trace: CompiledWindow | None = None
        self.unfreezable = False  # a guard-free body failed to compile
        self.iterations_recorded = 0
        self._prev = None
        self._rec: IterationRecorder | None = None

    def begin_iteration(self, epochs: dict[int, int]) -> IterationRecorder:
        self._rec = IterationRecorder(epochs)
        return self._rec

    def end_iteration(self, ex, state) -> None:
        """Freeze the loop into a window if this iteration allows it."""
        rec, self._rec = self._rec, None
        self.iterations_recorded += 1
        if self.trace is not None:
            return  # guard-fallback: keep the frozen window
        if rec.unfreezable or self.unfreezable:
            self._prev = None
            return
        if rec.guards:
            fp = rec.fingerprint()
            if fp != self._prev:
                self._prev = fp
                return
        try:
            self.trace = compile_window(ex, rec, state, self.comm,
                                        uid=self.uid)
        except _Unfreezable:
            self._prev = None
            self.unfreezable = not rec.guards
            return
        state.capture_points[self.uid] = self.iterations_recorded

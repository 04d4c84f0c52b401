"""Window execution: compile frozen iterations, replay them, fall back.

:func:`compile_window` drives the window-compiler pipeline over one
recorded iteration.  Tier A (``freeze-tasks`` → ``fuse-copies`` →
``batch-sync``) always runs and yields the op list the interpreted
:class:`ReplayTrace` executes; with the JIT engaged (``--jit auto`` /
``force``) tier B (``constfold`` → ``batch-launch`` → ``fuse-tasks`` →
``fission``) runs on
top and the window is packaged into a :class:`CompiledWindow` — a
handful of phase closures (compute, copy, advance, wait, barrier,
collective) executed by all three drivers.

Fallback semantics are unchanged from the interpreted replay layer: the
hoisted guards are re-checked before every replayed iteration, a failed
guard interprets that one iteration, and a fallback iteration that
writes a constant-folded scalar *invalidates* the compiled window so the
loop re-captures with the new value (a pure function of replicated
control flow, so all shards invalidate at the same iteration).

Yield exactness: the interpreted trace yields exactly what
interpretation would.  A compiled window is a legal *coarsening* of that
schedule — it skips yielding already-triggered events and collapses each
launch's per-task preemption points into one compute closure — so the
stepped driver crosses a compiled iteration in a handful of resumptions
instead of hundreds.  Counters stay bit-identical by construction: the
per-window deltas are precomputed at compile time and applied once per
replayed iteration.

Plan/state separation (compile-once serve-many): everything in this
module is a per-*program* plan, valid for as long as the executor's
session (instances, sync objects, epoch dicts, shard states) is alive.
:class:`ReplayTrace` is state-agnostic — it reads ``state.scalars`` /
``state.epochs`` afresh on every call, so it replays correctly against
any shard state of the same session.  :class:`CompiledWindow` is *bound*:
its closures capture the exact ``_ShardState`` object (and its ``epochs``
dict) they were built against, so a resident executor must reuse those
state objects across runs — resetting per-run data in place via
``_ShardState.reset_for_run`` — rather than rebuild them.  The binding is
recorded at build time and checked on every replayed iteration; replaying
a window against a different state raises :class:`ReplayError` instead of
silently reading stale data.  Frozen plans therefore survive across runs
(the basis of the ``repro serve`` plan cache), and a program/layout
switch must drop them via the executor's session reset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import is_
from typing import Any, Iterator

from ...core.ir import evaluate
from ...core.passes import PassContext, run_pass_pipeline
from ...obs import flight as _flight
from ...obs.trace import PID_SPMD
from ..events import advance_group
from .ir import (
    WindowIR,
    WindowVerifyError,
    _Unfreezable,
    format_window,
    guards_hold,
    verify_window,
    window_summary,
)
from .lower import BatchLaunchPass, BatchSyncPass, ConstFoldPass, \
    FreezeTasksPass, FuseCopiesPass, FuseTasksPass
from .recorder import (
    OP_ADV,
    OP_ADVN,
    OP_ASSIGN,
    OP_BARRIER,
    OP_COLL,
    OP_CONST,
    OP_COPY,
    OP_FILL,
    OP_FUSED,
    OP_MEGA,
    OP_MSG,
    OP_SETVAR,
    OP_TASK,
    OP_VISIT,
    OP_VISITS,
    OP_WAIT,
    OP_YIELD,
    IterationRecorder,
    ReplayError,
)
from .schedule import FissionPass

__all__ = ["CompiledWindow", "LoopReplay", "ReplayTrace", "WindowContext",
           "compile_window"]


@dataclass
class WindowContext(PassContext):
    """Pass context for the window pipeline: adds the executor and the
    shard state the window is being compiled against."""

    ex: Any = None
    state: Any = None


class ReplayTrace:
    """A frozen steady-state iteration: flat precompiled ops + guards.

    This is the interpreted (``--jit off``) execution engine and the
    yield-exact baseline the compiled window must match on counters."""

    __slots__ = ("ops", "guards", "epoch_deltas", "folded")

    def __init__(self, ops, guards, epoch_deltas, folded=frozenset()):
        self.ops = ops
        self.guards = guards
        self.epoch_deltas = epoch_deltas
        self.folded = folded

    def guards_hold(self, scalars: dict[str, Any]) -> bool:
        return guards_hold(self.guards, scalars)

    def replay(self, ex, state) -> Iterator[Any]:
        """One replayed iteration: yields what interpretation would (copy
        windows regrouped into fused batches when fusion is on)."""
        scalars = state.scalars
        epochs = state.epochs
        tracer = ex.tracer
        traced = tracer.enabled
        for op in self.ops:
            k = op[0]
            if k == OP_COPY:
                # The span covers the whole op — apply plus per-pair
                # accounting — so the copy bucket measures the true cost
                # of *issuing* the pair, symmetrically with OP_FUSED.
                pc = op[1]
                t0 = tracer.now_us() if traced else 0
                pc.apply()
                state.pair_visits += 1
                state.elements_copied += pc.count
                state.copies_performed += 1
                state.bytes_copied += pc.nbytes
                if pc.ufunc is not None:
                    if pc.lock is None:
                        state.lockfree_folds += 1
                    else:
                        state.locked_folds += 1
                if traced:
                    tracer.complete("copy:pair", t0, tracer.now_us() - t0,
                                    cat="copy", pid=PID_SPMD,
                                    tid=state.shard, args={"uid": pc.uid})
            elif k == OP_FUSED:
                fb = op[1]
                t0 = tracer.now_us() if traced else 0
                fb.apply()
                state.pair_visits += fb.pair_count
                state.copies_performed += fb.pair_count
                state.elements_copied += fb.count
                state.bytes_copied += fb.nbytes
                state.fused_copies += fb.n_fused
                state.fused_pairs += fb.fused_pairs
                state.lockfree_folds += fb.lockfree_folds
                state.locked_folds += fb.locked_folds
                if traced:
                    tracer.complete("copy:fused", t0, tracer.now_us() - t0,
                                    cat="copy", pid=PID_SPMD,
                                    tid=state.shard,
                                    args={"uid": fb.uid,
                                          "pairs": fb.pair_count,
                                          "groups": len(fb.items)})
                    tracer.counter("bytes copied", float(state.bytes_copied),
                                   pid=PID_SPMD, tid=state.shard)
            elif k == OP_MSG:
                ps = op[1]
                t0 = tracer.now_us() if traced else 0
                ps.apply()
                state.pair_visits += ps.pair_count
                state.copies_performed += ps.pair_count
                state.elements_copied += ps.count
                state.bytes_copied += ps.nbytes
                if traced:
                    tracer.complete("copy:msg", t0, tracer.now_us() - t0,
                                    cat="copy", pid=PID_SPMD,
                                    tid=state.shard,
                                    args={"uid": ps.uid, "peer": ps.peer,
                                          "pairs": ps.pair_count})
            elif k == OP_VISITS:
                state.pair_visits += op[1]
            elif k == OP_WAIT:
                yield op[1].event_for(epochs[op[2]] + op[3], op[4])
            elif k == OP_ADV:
                op[1].advance_to(epochs[op[2]] + op[3])
            elif k == OP_ADVN:
                advance_group(op[1], epochs[op[2]] + op[3])
            elif k == OP_YIELD:
                yield None
            elif k == OP_TASK:
                yield from op[1].run(ex, state)
            elif k == OP_ASSIGN:
                scalars[op[1]] = evaluate(op[2], scalars)
            elif k == OP_SETVAR:
                scalars[op[1]] = op[2]
            elif k == OP_CONST:
                scalars.update(op[1])
            elif k == OP_FILL:
                for arr, value in op[1]:
                    arr[...] = value
            elif k == OP_BARRIER:
                yield op[1].arrive_and_wait_event(epochs[op[2]] + op[3],
                                                  label=op[4])
            elif k == OP_COLL:
                coll, uid, stride, name = op[1], op[2], op[3], op[4]
                g = epochs[uid] + stride
                ev = coll.contribute(g,
                                     state.pending_reductions.pop(name, None))
                yield ev
                scalars[name] = coll.result(g)
            elif k == OP_MEGA:
                # Mega-ops only exist on the JIT path, but stay
                # interpretable for robustness.
                op[1].run_compiled(state)
                state.tasks_executed += op[1].tasks()
            else:  # OP_VISIT
                state.pair_visits += 1
        for uid, d in self.epoch_deltas:
            epochs[uid] = epochs.get(uid, 0) + d


# ---------------------------------------------------------------------------
# Compiled windows
# ---------------------------------------------------------------------------

_PH_RUN = 0      # (kind, (span_name, cat, thunks))
_PH_WAIT = 1     # (kind, ((seq, uid, stride, label), ...))
_PH_YIELD = 2    # (kind, None)
_PH_BARRIER = 3  # (kind, (bar, uid, stride, label))
_PH_COLL = 4     # (kind, (coll, uid, stride, name))

_RUN_LABELS = {"compute": ("jit:compute", "task"),
               "copy": ("jit:copy", "copy"),
               "advance": (None, None)}


def _assign_thunk(state, name, expr):
    def run():
        state.scalars[name] = evaluate(expr, state.scalars)
    return run


def _const_thunk(state, pairs):
    def run():
        state.scalars.update(pairs)
    return run


def _fill_thunk(fills):
    def run():
        for arr, value in fills:
            arr[...] = value
    return run


def _adv_thunk(state, seq, uid, stride):
    epochs = state.epochs

    def run():
        seq.advance_to(epochs[uid] + stride)
    return run


def _advn_thunk(state, seqs, uid, stride):
    epochs = state.epochs

    def run():
        advance_group(seqs, epochs[uid] + stride)
    return run


class CompiledWindow:
    """One frozen iteration lowered to phase-scheduled closures.

    Executed by the same generator protocol as :class:`ReplayTrace`, so
    all three drivers run it unchanged; it yields only events that are
    not already triggered (plus the window's recorded preemption points,
    collapsed), and applies the precomputed counter and epoch deltas once
    at the end of each replayed iteration.
    """

    __slots__ = ("uid", "phases", "guards", "folded", "epoch_deltas",
                 "counter_deltas", "bytes_delta", "num_closures",
                 "bound_state", "__weakref__")

    def __init__(self, uid, phases, guards, folded, epoch_deltas,
                 deltas, num_closures):
        self.uid = uid
        self.phases = phases
        self.guards = guards
        self.folded = folded
        self.epoch_deltas = epoch_deltas
        self.counter_deltas = tuple((k, v) for k, v in deltas.items() if v)
        self.bytes_delta = deltas.get("bytes_copied", 0)
        self.num_closures = num_closures
        # The shard state whose scalars/epochs the phase closures captured.
        # A resident executor reuses that state across runs; replaying
        # against any other state would read stale bindings, so replay()
        # enforces the identity.
        self.bound_state = None

    @classmethod
    def build(cls, wir: WindowIR, state, uid: int = 0) -> "CompiledWindow":
        classified: list[tuple[str, Any]] = []
        for op in wir.ops:
            k = op[0]
            if k in (OP_TASK, OP_MEGA):
                fl = op[1]
                classified.append(
                    ("compute", (lambda f=fl: f.run_compiled(state))))
            elif k == OP_ASSIGN:
                classified.append(("compute",
                                   _assign_thunk(state, op[1], op[2])))
            elif k == OP_CONST:
                classified.append(("compute", _const_thunk(state, op[1])))
            elif k == OP_SETVAR:
                classified.append(("compute",
                                   _const_thunk(state, ((op[1], op[2]),))))
            elif k == OP_FILL:
                classified.append(("compute", _fill_thunk(op[1])))
            elif k in (OP_COPY, OP_FUSED, OP_MSG):
                classified.append(("copy", op[1].apply))
            elif k == OP_ADV:
                classified.append(
                    ("advance", _adv_thunk(state, op[1], op[2], op[3])))
            elif k == OP_ADVN:
                classified.append(
                    ("advance", _advn_thunk(state, op[1], op[2], op[3])))
            elif k == OP_WAIT:
                classified.append(("wait", (op[1], op[2], op[3], op[4])))
            elif k == OP_YIELD:
                classified.append(("yield", None))
            elif k == OP_BARRIER:
                classified.append(("barrier", (op[1], op[2], op[3], op[4])))
            elif k == OP_COLL:
                classified.append(("coll", (op[1], op[2], op[3], op[4])))
            # OP_VISIT / OP_VISITS: pure counter bumps, precomputed in the
            # window's counter deltas — no runtime op at all.
        phases: list[tuple[int, Any]] = []
        i, n = 0, len(classified)
        while i < n:
            kind, payload = classified[i]
            j = i + 1
            while j < n and classified[j][0] == kind:
                j += 1
            if kind in ("compute", "copy", "advance"):
                name, cat = _RUN_LABELS[kind]
                thunks = tuple(p for _, p in classified[i:j])
                phases.append((_PH_RUN, (name, cat, thunks)))
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
        cw = cls(uid, tuple(phases), tuple(wir.guards), wir.folded,
                 wir.epoch_deltas, window_summary(wir)[0], len(phases))
        cw.bound_state = state
        return cw

    def guards_hold(self, scalars: dict[str, Any]) -> bool:
        return guards_hold(self.guards, scalars)

    def replay(self, ex, state) -> Iterator[Any]:
        if state is not self.bound_state:
            raise ReplayError(
                f"compiled window for loop {self.uid} replayed against a "
                f"shard state it was not built for; resident executors must "
                f"reuse shard states (reset_for_run), not rebuild them")
        epochs = state.epochs
        tracer = ex.tracer
        traced = tracer.enabled
        t_start = tracer.now_us() if traced else 0.0
        for kind, payload in self.phases:
            if kind == _PH_RUN:
                name, cat, thunks = payload
                if traced and name is not None:
                    t0 = tracer.now_us()
                    for fn in thunks:
                        fn()
                    tracer.complete(name, t0, tracer.now_us() - t0, cat=cat,
                                    pid=PID_SPMD, tid=state.shard,
                                    args={"loop": self.uid})
                else:
                    for fn in thunks:
                        fn()
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
        if traced:
            tracer.complete("replay:jit", t_start, tracer.now_us() - t_start,
                            cat="jit", pid=PID_SPMD, tid=state.shard,
                            args={"loop": self.uid,
                                  "closures": self.num_closures})
            if self.bytes_delta:
                tracer.counter("bytes copied", float(state.bytes_copied),
                               pid=PID_SPMD, tid=state.shard)


# ---------------------------------------------------------------------------
# The compile driver and the per-loop capture state machine
# ---------------------------------------------------------------------------

def compile_window(ex, rec: IterationRecorder, state, *, jit: str = "off",
                   var: str | None = None, num_shards: int | None = None,
                   uid: int = 0):
    """Lower one recorded iteration; returns a :class:`CompiledWindow`
    (JIT engaged) or an interpreted :class:`ReplayTrace`."""
    t_compile = time.perf_counter()
    wir = WindowIR(ops=list(rec.ops), guards=list(rec.guards),
                   epoch_base=rec.epoch_base, written=set(rec.written),
                   copy_ranges=rec.copy_ranges, loop_var=var)
    ctx = WindowContext(
        num_shards=num_shards or ex.num_shards,
        tracer=ex.tracer, metrics=state.metrics,
        dump_after=getattr(ex, "window_dump_after", frozenset()),
        dump_sink=getattr(ex, "window_dump_sink", None),
        ex=ex, state=state)
    baseline = window_summary(wir)
    verified = list(wir.ops)

    def verify(w, stage):
        # A pass that handed back the very ops already verified changed
        # nothing the summary can see: skip the walk.
        if len(w.ops) == len(verified) and all(map(is_, w.ops, verified)):
            return
        verify_window(w, baseline, stage)
        verified[:] = w.ops

    pipeline_kw = dict(
        span_prefix="window", cat="replay", pid=PID_SPMD, tid=state.shard,
        metric_prefix="spmd_window_pass",
        size_fn=lambda w: len(w.ops), verify_fn=verify,
        dump_fn=format_window)
    tier_a: list = [FreezeTasksPass()]
    if getattr(ex, "_net", None) is not None:
        # Net mode: cross-rank pair sends aggregate into per-peer packed
        # messages instead of fusing into in-memory batches (a FusedBatch
        # would bypass the wire path entirely).
        if getattr(ex, "net_aggregate", "auto") != "off":
            from ..net.plan import MessagePlanPass
            tier_a.append(MessagePlanPass())
    elif getattr(ex, "fuse_copies", "off") != "off":
        tier_a.append(FuseCopiesPass())
    tier_a.append(BatchSyncPass())
    wir = run_pass_pipeline(wir, tier_a, ctx, **pipeline_kw)
    deltas = []
    for loop_uid, g in state.epochs.items():
        d = g - rec.epoch_base.get(loop_uid, 0)
        if d:
            deltas.append((loop_uid, d))
    wir.epoch_deltas = tuple(deltas)
    state.window_ops_recorded += len(rec.ops)
    if jit == "off":
        state.window_ops_lowered += len(wir.ops)
        return ReplayTrace(tuple(wir.ops), tuple(wir.guards),
                           wir.epoch_deltas)
    interpretable = (list(wir.ops), list(wir.guards))
    try:
        wir = run_pass_pipeline(
            wir, [ConstFoldPass(), BatchLaunchPass(), FuseTasksPass(),
                  FissionPass()],
            ctx, **pipeline_kw)
    except WindowVerifyError as exc:
        # A lowering pass broke the window's visible effects.  ``force``
        # surfaces the bug; ``auto`` degrades to the verified tier-A ops.
        if jit == "force":
            raise ReplayError(f"--jit force: {exc}") from None
        ops, guards = interpretable
        state.window_ops_lowered += len(ops)
        return ReplayTrace(tuple(ops), tuple(guards), wir.epoch_deltas)
    state.window_ops_lowered += len(wir.ops)
    cw = CompiledWindow.build(wir, state, uid=uid)
    state.window_compiles += 1
    state.window_closures += cw.num_closures
    # A window compile is exactly the kind of rare, expensive, should-not-
    # recur event a post-failure flight dump wants on the timeline (a
    # recompile storm shows up as repeated COMPILE records).
    state.flight.record(_flight.COMPILE, uid, t_compile, time.perf_counter())
    return cw


class LoopReplay:
    """Capture state machine for one loop statement on one shard.

    ``auto``  — freeze once two consecutive interpreted iterations produce
    identical fingerprints; ``force`` — freeze after the first iteration
    and raise :class:`ReplayError` if it cannot be frozen.  Once frozen,
    the trace is permanent — a guard miss falls back to interpretation
    for that iteration only — with one exception: a fallback iteration
    that writes a scalar the window compiler constant-folded invalidates
    the compiled window, and the loop re-captures with the new value.
    The invalidation decision is a pure function of the replicated
    control flow (the folded-name set and the fallback's write set), so
    every shard invalidates and re-freezes at the same iterations.
    """

    __slots__ = ("uid", "mode", "jit", "var", "num_shards", "trace",
                 "iterations_recorded", "_prev", "_rec")

    def __init__(self, uid: int, mode: str, jit: str = "off",
                 var: str | None = None, num_shards: int | None = None):
        self.uid = uid
        self.mode = mode
        self.jit = jit
        self.var = var
        self.num_shards = num_shards
        self.trace = None
        self.iterations_recorded = 0
        self._prev = None
        self._rec: IterationRecorder | None = None

    def begin_iteration(self, epochs: dict[int, int]) -> IterationRecorder:
        self._rec = IterationRecorder(epochs)
        return self._rec

    def end_iteration(self, ex, state) -> bool:
        """Returns True if this iteration was frozen into a trace."""
        rec, self._rec = self._rec, None
        self.iterations_recorded += 1
        if self.trace is not None:
            if self.trace.folded & rec.written:
                # A guard-fallback iteration rewrote a constant-folded
                # scalar: the compiled window's literals are stale.
                # Drop it and restart capture.
                self.trace = None
                self._prev = None
            else:
                return False  # guard-fallback: keep the frozen trace
        if rec.unfreezable:
            if self.mode == "force":
                raise ReplayError(
                    f"--replay force: loop {self.uid} cannot be frozen — a "
                    f"branch condition depends on a scalar written earlier "
                    f"in the same iteration")
            self._prev = None
            return False
        fp = rec.fingerprint()
        if self.mode == "force" or fp == self._prev:
            try:
                self.trace = compile_window(
                    ex, rec, state, jit=self.jit, var=self.var,
                    num_shards=self.num_shards, uid=self.uid)
            except _Unfreezable as exc:
                if self.mode == "force":
                    raise ReplayError(f"--replay force: {exc}") from None
                self._prev = None
                return False
            state.capture_points[self.uid] = self.iterations_recorded
            return True
        self._prev = fp
        return False

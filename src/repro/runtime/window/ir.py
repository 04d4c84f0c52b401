"""The window IR: frozen views and launches, footprints, the verifier.

A :class:`WindowIR` is one recorded loop iteration in flight through the
window-compiler passes (:mod:`repro.runtime.window.lower` and
:mod:`repro.runtime.window.schedule`): a flat op list (see
:mod:`repro.runtime.window.recorder` for the vocabulary) plus the guard
set, the per-iteration epoch deltas, and the per-uid protected-array
footprints the recorder took from each copy statement's schedule, for
fission.  A copy statement's data movement is already in its final form
when recorded — the shard's :class:`~repro.runtime.copy_engine.FusedBatch`
and its sends — so no pass rewrites it.

The structural verifier (:func:`window_summary` / :func:`verify_window`)
runs after every pass that changed the op list: it recomputes the
window's externally visible effects — counter deltas, per-channel advance
targets and wait strides, the barrier/collective sequence — in one walk
and checks them against the recorded baseline, so a lowering bug fails at
compile time instead of corrupting a steady-state run.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ...core.ir import Expr, IndexLaunch, evaluate
from ...regions.region import apply_reduction
from ...tasks.privileges import PrivilegeError
from ...tasks.views import RegionView
from ..collectives import SCALAR_REDUCTIONS
from .recorder import (
    OP_ADVN,
    OP_ASSIGN,
    OP_BARRIER,
    OP_COLL,
    OP_FILL,
    OP_FUSED,
    OP_MSG,
    OP_NAMES,
    OP_SETVAR,
    OP_TASK,
    OP_WAITN,
    OP_YIELD,
)

__all__ = [
    "FrozenView", "WindowIR", "WindowVerifyError",
    "format_window", "guards_hold", "op_arrays",
    "verify_window", "window_summary",
]

_EMPTY_ENV: dict[str, Any] = {}


class _Unfreezable(Exception):
    """Internal: this iteration's schedule cannot be frozen into a trace."""


class FrozenView(RegionView):
    """A :class:`RegionView` whose privilege checks ran at capture time.

    Only constructed for instances that cover their region exactly (the
    distributed-memory storage invariant), so every field access is the
    whole instance array: zero-copy, no gather/writeback, and stable
    across replays — the arrays are pinned once at freeze time.
    """

    def __init__(self, region, instance, privilege):
        super().__init__(region, instance, privilege)
        if instance.index_set != region.index_set:
            raise _Unfreezable(
                f"instance for {region.name} does not cover it exactly")
        self._cache = {f: (arr, None) for f, arr in instance.fields.items()}

    def read(self, field: str) -> np.ndarray:
        return self._cache[field][0]

    def write(self, field: str) -> np.ndarray:
        return self._cache[field][0]

    def reduce(self, field: str, slots, values, redop: str) -> None:
        apply_reduction(self._cache[field][0], slots, values, redop)

    def finalize(self) -> None:
        pass  # direct views: nothing to write back, keep the cache

    def __repr__(self) -> str:
        return f"FrozenView({self.region.name}, {self.privilege})"


class _TaskEntry:
    """One point task: the body bound at freeze (``Task.bound``: its plan
    rides along), prebuilt argument vector, dynamic scalar positions."""

    __slots__ = ("index", "fn", "args", "exprs")

    def __init__(self, index: int, fn, args: list, exprs: tuple):
        self.index = index
        self.fn = fn
        self.args = args
        self.exprs = exprs  # ((position, expr), ...) re-evaluated per replay


class _FrozenLaunch:
    """An IndexLaunch precompiled to frozen views and argument vectors."""

    __slots__ = ("task", "entries", "reduce_name", "fold")

    def __init__(self, task, entries, reduce_name, fold):
        self.task = task
        self.entries = entries
        self.reduce_name = reduce_name
        self.fold = fold

    def run_compiled(self, state) -> None:
        """One compute-phase closure: no preemption points, no per-task
        counter bumps (the compiled window applies its counter deltas once
        per replay)."""
        reduce_name = self.reduce_name
        scalars = state.scalars
        partial = (state.pending_reductions.get(reduce_name)
                   if reduce_name is not None else None)
        for entry in self.entries:
            if entry.exprs:
                env = {**scalars, "i": entry.index}
                args = entry.args
                for pos, e in entry.exprs:
                    args[pos] = evaluate(e, env)
            result = entry.fn(*entry.args)
            if reduce_name is not None and result is not None:
                partial = (result if partial is None
                           else self.fold(partial, result))
        if reduce_name is not None and partial is not None:
            state.pending_reductions[reduce_name] = partial

    def arrays(self) -> set[int]:
        """ids of the instance arrays the launch's point tasks can touch."""
        return {id(arr) for entry in self.entries for a in entry.args
                if isinstance(a, FrozenView) for arr, _ in a._cache.values()}


class _BatchedView:
    """The union of several point tasks' :class:`FrozenView` arguments.

    Presents one argument position of a *batchable* task (see
    ``Task.batchable``) as a single view over the concatenation of the
    per-point view point sets.  The views' instances are consecutive
    slices of one shard-contiguous block per field (the executor's
    ``block_rows``), so each field is the one block slice that spans
    them: the body reads and writes the instances in place, and a call
    stages nothing.  The point order is the entry order, so slots are
    *not* globally sorted: a batchable body must treat ``points`` as an
    unordered set (coordinate-based access only, no ``localize``) — the
    slot-based geometry accessors raise, naming that contract.
    """

    __slots__ = ("privilege", "region", "views", "points", "_arrays",
                 "_task_name")

    def __init__(self, views, arrays: dict[str, np.ndarray], privilege,
                 task_name: str):
        self.views = tuple(views)
        self.privilege = privilege
        self._task_name = task_name
        self.region = views[0].region  # representative, for error messages
        self.points = np.concatenate([v.points for v in views])
        self._arrays = arrays

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def _unordered(self, what: str):
        raise TypeError(
            f"task {self._task_name} is declared batchable, but its body or "
            f"inspector used {what} on a batched view: the points of "
            f"several point tasks are concatenated unsorted, so a batchable "
            f"task may address them by coordinate only (Task.batchable)")

    @property
    def index_set(self):
        self._unordered("index_set")

    def localize(self, global_ids):
        self._unordered("localize()")

    def maybe_localize(self, global_ids):
        self._unordered("maybe_localize()")

    def read(self, field: str) -> np.ndarray:
        if not self.privilege.allows_read(field):
            raise PrivilegeError(
                f"task holds {self.privilege} on {self.region.name}; "
                f"cannot read field {field!r}")
        return self._arrays[field]

    def write(self, field: str) -> np.ndarray:
        if not self.privilege.allows_write(field):
            raise PrivilegeError(
                f"task holds {self.privilege} on {self.region.name}; "
                f"cannot write field {field!r}")
        return self._arrays[field]

    def reduce(self, field: str, slots, values, redop: str) -> None:
        if not self.privilege.allows_reduce(field, redop):
            raise PrivilegeError(
                f"task holds {self.privilege} on {self.region.name}; "
                f"cannot reduce({redop}) field {field!r}")
        apply_reduction(self._arrays[field], slots, values, redop)

    def __repr__(self) -> str:
        return (f"_BatchedView({self.region.name} x{len(self.views)}, "
                f"{self.privilege})")


def _spanning_rows(views, block_rows) -> dict[str, np.ndarray] | None:
    """``{field: rows}`` of the one block whose adjacent slices the views'
    instances are, in view order; None when they are not."""
    blocks, lo, hi = block_rows(views[0].region)
    for v in views[1:]:
        other, start, stop = block_rows(v.region)
        if other is not blocks or start != hi:
            return None
        hi = stop
    return {f: block[lo:hi] for f, block in blocks.items()}


class _BatchedLaunch:
    """A frozen index launch lowered to ONE kernel-body call.

    Only built for launches of ``batchable`` tasks with no scalar
    reduction and no per-point dynamic arguments: every view argument
    position becomes a :class:`_BatchedView` over the owned points, so a
    steady-state iteration pays the task body's fixed numpy cost once
    per shard instead of once per tile.  ``entries`` keeps the original
    per-point entries for counter deltas and the footprint only:
    their bodies — and with them the per-point plans — are dropped, and
    the task's inspector runs once more, over the batched views.
    """

    __slots__ = ("task", "fn", "entries", "inner", "batched_args")

    def __init__(self, fl: _FrozenLaunch, args: list):
        self.task = fl.task
        self.entries = fl.entries
        self.inner = fl
        self.batched_args = tuple(args)
        for e in fl.entries:
            e.fn = None
        # The batch plan belongs to this entry alone: a throwaway memo.
        self.fn = fl.task.bound(
            [a for a in args if isinstance(a, _BatchedView)], {})

    @classmethod
    def lower(cls, fl: _FrozenLaunch, block_rows) -> "_BatchedLaunch | None":
        """The batched form of ``fl``, or None when batching is illegal:
        the task did not opt in, the launch folds a scalar reduction
        (batching would regroup the fold), a point carries dynamic
        arguments, static scalars differ across points, or one argument
        position's instances are not adjacent slices of one block in
        entry order (a shard whose colours straddle two of the executor's
        blocks) — such a launch runs per point.  ``block_rows`` is the
        executor's :meth:`~repro.runtime.spmd.SPMDExecutor.block_rows`."""
        if (not fl.task.batchable or fl.reduce_name is not None
                or len(fl.entries) < 2):
            return None
        nargs = len(fl.entries[0].args)
        for e in fl.entries:
            if e.exprs or len(e.args) != nargs:
                return None
        args: list[Any] = []
        for pos in range(nargs):
            col = [e.args[pos] for e in fl.entries]
            if isinstance(col[0], FrozenView):
                arrays = (_spanning_rows(col, block_rows)
                          if all(isinstance(a, FrozenView) for a in col)
                          else None)
                if arrays is None:
                    return None
                args.append(_BatchedView(col, arrays, col[0].privilege,
                                         fl.task.name))
            elif any(a != col[0] for a in col[1:]):
                return None
            else:
                args.append(col[0])  # static scalar, equal across entries
        return cls(fl, args)

    def run_compiled(self, state) -> None:
        self.fn(*self.batched_args)

    def arrays(self) -> set[int]:
        return self.inner.arrays()


def _freeze_launch(ex, stmt: IndexLaunch, owned, plans: dict) -> _FrozenLaunch:
    """``plans`` is the shard's inspector memo: the capture iterations ran
    every one of these point tasks, so each entry finds its plan there."""
    task = stmt.task
    privileges = task.privileges
    entries = []
    for i in owned:
        args: list[Any] = []
        exprs: list[tuple[int, Expr]] = []
        views: list[FrozenView] = []
        for arg in stmt.args:
            if hasattr(arg, "proj"):
                part = arg.proj.partition
                color = arg.proj.color_for(i)
                view = FrozenView(part[color], ex.dist_instance(part, color),
                                  privileges[len(views)])
                views.append(view)
                args.append(view)
            else:
                e = arg.expr
                if e.refs():
                    exprs.append((len(args), e))
                    args.append(None)
                else:
                    args.append(evaluate(e, _EMPTY_ENV))
        entries.append(_TaskEntry(i, task.bound(views, plans), args,
                                  tuple(exprs)))
    reduce_name = fold = None
    if stmt.reduce is not None:
        fold = SCALAR_REDUCTIONS[stmt.reduce[0]]
        reduce_name = stmt.reduce[1]
    return _FrozenLaunch(task, tuple(entries), reduce_name, fold)


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

    __slots__ = ("ops", "guards", "copy_protect", "epoch_deltas",
                 "invariants")

    def __init__(self, ops, guards, copy_protect=None):
        self.ops: list = ops
        self.guards: list = guards
        # uid -> frozenset of array ids the uid's inbound copies protect
        # (this shard's owned destination instances); the fission pass
        # uses it to move handshake ops past unrelated compute.
        self.copy_protect: dict[int, frozenset[int]] = (
            {} if copy_protect is None else copy_protect)
        self.epoch_deltas: tuple = ()
        self.invariants: set[str] = set()


# ---------------------------------------------------------------------------
# Footprints, counter deltas, and the structural verifier
# ---------------------------------------------------------------------------

# Op kinds that touch no instance array: sync, scalar, yield.
_NO_ARRAYS = frozenset({OP_ADVN, OP_WAITN, OP_BARRIER, OP_COLL, OP_ASSIGN,
                        OP_SETVAR, OP_YIELD})
_EMPTY_FOOTPRINT: frozenset[int] = frozenset()


def op_arrays(op) -> frozenset[int] | None:
    """ids of every instance array the op may read or write.

    Sync, scalar and bookkeeping ops have a known-empty footprint.  An op
    this function does not model — an unknown kind, or a launch not yet
    frozen — has an unknown one and returns ``None``, which the fission
    pass treats as a scheduling fence.
    """
    k = op[0]
    if k in _NO_ARRAYS:
        return _EMPTY_FOOTPRINT
    if k == OP_TASK and len(op) == 2:
        return frozenset(op[1].arrays())
    if k == OP_FUSED:
        # A block item moves block rows, but it names the per-colour
        # instance arrays its pairs read and write: the ids task
        # footprints and copy_protect use.
        return frozenset().union(*(item.footprint for item in op[1].items))
    if k == OP_MSG:
        return op[1].footprint
    if k == OP_FILL:
        return frozenset(id(arr) for arr, _ in op[1])
    return None


def window_summary(wir: WindowIR):
    """The window's externally visible effects, in one walk of its ops:
    the shard-counter deltas one execution produces, per-channel max
    advance target and ordered wait strides, and the ordered
    barrier/collective sequence.

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
            # Pre-freeze shape is (k, stmt, owned); frozen is (k, launch).
            d["tasks_executed"] += (len(op[2]) if len(op) == 3
                                    else len(op[1].entries))
        elif k == OP_BARRIER:
            syncs.append(("barrier", id(op[1]), op[2], op[3]))
        elif k == OP_COLL:
            syncs.append(("coll", id(op[1]), op[2], op[3], op[4]))
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
            f"window pass {stage!r} changed the barrier/collective sequence")


def format_window(wir: WindowIR) -> str:
    """Render the window op list for ``--dump-after``-style inspection."""
    lines = [f"window: {len(wir.ops)} ops, {len(wir.guards)} guards"]
    for n, op in enumerate(wir.ops):
        k = op[0]
        name = OP_NAMES[k] if k < len(OP_NAMES) else f"op{k}"
        if k == OP_TASK:
            detail = (f"stmt uid={op[1].uid} owned={op[2]}" if len(op) == 3
                      else f"{op[1].task.name} x{len(op[1].entries)}")
        elif k in (OP_ADVN, OP_WAITN):
            detail = (f"uid={op[2]} stride={op[3]} kind={op[4]} "
                      f"n={len(op[1])}")
        elif k == OP_FUSED:
            fb = op[1]
            detail = (f"uid={fb.uid} pairs={fb.pair_count} "
                      f"groups={len(fb.items)} visits={fb.visits}")
        elif k == OP_MSG:
            ps = op[1]
            detail = (f"uid={ps.uid} peer={ps.peer} pairs={ps.pair_count} "
                      f"count={ps.count}")
        elif k in (OP_ASSIGN, OP_SETVAR):
            detail = f"{op[1]} = {op[2]!r}"
        elif k == OP_BARRIER:
            detail = f"uid={op[2]} stride={op[3]} label={op[4]}"
        elif k == OP_COLL:
            detail = f"uid={op[2]} stride={op[3]} name={op[4]}"
        else:
            detail = ""
        lines.append(f"  [{n:3d}] {name:<8} {detail}".rstrip())
    return "\n".join(lines)

"""Window lowering passes: freeze, fuse copies, fold, batch and fuse tasks.

Each pass is a :class:`repro.core.passes.Pass` over a
:class:`~repro.runtime.window.ir.WindowIR`, run by the shared
:func:`repro.core.passes.run_pass_pipeline` loop so the window compiler
reports per-pass stats/metrics, verifies the window summary between
passes, and honors dump-after hooks exactly like the front-end compiler.

The pipeline (see :func:`repro.runtime.window.exec.window_passes`; the
last pass, ``fission``, is :mod:`repro.runtime.window.schedule`):

* ``freeze-tasks``  — lower recorded launches to frozen views/arg vectors.
* ``fuse-copies``   — swap each copy statement's recorded run of lowered
  copies for its fused forms: one
  :class:`~repro.runtime.copy_engine.FusedBatch` over the in-memory pairs
  and, on ``net``, one packed message per peer rank.  The handshake
  around them was recorded in phase form and is left alone.
* ``constfold``     — fold stable scalar reads into literal stores,
  guarded so an evolving scalar can never be frozen by mistake.
* ``batch-launch``  — collapse a ``batchable`` task's frozen point tasks
  into ONE kernel-body call over concatenated views (opt-in per task).
* ``fuse-tasks``    — interleave adjacent launches over the same owned
  slice into one per-index mega-op when footprints are provably disjoint.
"""

from __future__ import annotations

from ...core.ir import ScalarRef, evaluate
from ...core.passes import Pass
from ...core.shards import owner_of_color
from ..copy_engine import FusedBatch, FusedCopy, fuse_group
from .ir import PairCopy, WindowIR, _BatchedLaunch, _freeze_launch
from .recorder import (
    OP_ASSIGN,
    OP_COLL,
    OP_CONST,
    OP_COPY,
    OP_FUSED,
    OP_MEGA,
    OP_MSG,
    OP_SETVAR,
    OP_TASK,
)

__all__ = ["FreezeTasksPass", "FuseCopiesPass", "ConstFoldPass",
           "BatchLaunchPass", "FuseTasksPass"]


class FreezeTasksPass(Pass):
    """Lower recorded ``(stmt, owned)`` launches to :class:`_FrozenLaunch`.

    Raises ``_Unfreezable`` (handled by the capture state machine) when an
    instance does not cover its region exactly.  Positions are preserved
    1:1 so the recorder's ``copy_ranges`` stay valid for ``fuse-copies``.
    """

    name = "freeze-tasks"
    establishes = ("frozen",)

    def run(self, wir: WindowIR, ctx) -> WindowIR:
        ex, plans = ctx.ex, ctx.state.plans
        wir.ops = [(OP_TASK, _freeze_launch(ex, op[1], op[2], plans))
                   if op[0] == OP_TASK else op
                   for op in wir.ops]
        return wir

    def stats(self, wir: WindowIR) -> dict[str, float]:
        return {"launches": sum(1 for op in wir.ops if op[0] == OP_TASK)}


def _fuse_copies(pcs) -> list:
    """The fused ops of one statement's lowered copies, recorded pair
    order kept within each: the cross-rank sends first — two or more to
    one peer as one packed message, a lone one as it is — so the wire is
    busy while the in-memory pairs, grouped by destination instance,
    apply as one batch.  Any order is legal: the statement ran, and was
    recorded, with every ack wait ahead of its first copy."""
    local: dict[int, list] = {}
    remote: dict[int, list] = {}
    for pc in pcs:
        if type(pc) is PairCopy:
            local.setdefault(pc.group_key, []).append(pc)
        else:
            remote.setdefault(pc.peer, []).append(pc)
    out = []
    if remote:
        from ..net.plan import NetSendCopy, PackedSend  # only `net` has any
        for sends in remote.values():
            if any(type(pc) is not NetSendCopy for pc in sends):
                raise TypeError(f"fuse-copies: not a lowered copy: {sends!r}")
            out.append((OP_MSG, PackedSend(sends)) if len(sends) > 1
                       else (OP_COPY, sends[0]))
    if local:
        out.append((OP_FUSED, FusedBatch(
            [item for group in local.values() for item in fuse_group(group)])))
    return out


class FuseCopiesPass(Pass):
    """Batch each copy statement's pair copies into one fused apply (and,
    across ranks, one message per peer).

    Also builds ``wir.copy_protect`` — per copy uid, the ids of this
    shard's owned destination-instance arrays — which the fission pass
    later uses as the footprint its handshake motion must respect.
    """

    name = "fuse-copies"
    establishes = ("copies-fused",)

    def run(self, wir: WindowIR, ctx) -> WindowIR:
        state = ctx.state
        hist = (state.metrics.histogram("spmd_fused_batch_pairs",
                                        shard=state.shard)
                if state.metrics.enabled else None)
        ex, me, ns = ctx.ex, state.shard, ctx.num_shards
        for stmt, a, b in reversed(wir.copy_ranges):
            if stmt.uid not in wir.copy_protect:
                protect: set[int] = set()
                dst_n = stmt.dst.num_colors
                for j in {j for (_, j) in ex._copy_pairs(stmt)
                          if owner_of_color(dst_n, ns, j) == me}:
                    inst = ex.dist_instance(stmt.dst, j)
                    protect.update(id(arr) for arr in inst.fields.values())
                wir.copy_protect[stmt.uid] = frozenset(protect)
            if b <= a:
                continue
            wir.ops[a:b] = seg = _fuse_copies([op[1] for op in wir.ops[a:b]])
            if hist is not None and seg[-1][0] == OP_FUSED:
                for item in seg[-1][1].items:
                    if isinstance(item, FusedCopy):
                        hist.observe(item.pair_count)
        return wir

    def stats(self, wir: WindowIR) -> dict[str, float]:
        batches = [op[1] for op in wir.ops if op[0] == OP_FUSED]
        packed = [op[1] for op in wir.ops if op[0] == OP_MSG]
        return {"batches": len(batches),
                "fused_pairs": sum(fb.fused_pairs for fb in batches),
                "packed_sends": len(packed),
                "packed_pairs": sum(ps.pair_count for ps in packed)}


class ConstFoldPass(Pass):
    """Fold stable scalar reads into literal stores.

    A name is *stable* when the window never writes it (not assigned, not
    a collective result) and it is not the loop variable — so its value
    at every replayed iteration equals its compile-time value, protected
    by an equality guard added here.  ``OP_SETVAR`` values (nested loop
    variables) are literal by construction.  Foldable ``OP_ASSIGN`` ops
    become literal stores, and runs of literal stores merge into a single
    ``OP_CONST``.  Every store is kept (dynamic ops and the final scalar
    environment read through ``state.scalars``); only the evaluation is
    hoisted to compile time.  Writing a folded name on a guard-fallback
    iteration invalidates the window (see ``LoopReplay.end_iteration``).
    """

    name = "constfold"
    establishes = ("constfolded",)

    def run(self, wir: WindowIR, ctx) -> WindowIR:
        scalars = ctx.state.scalars
        unstable = set(wir.written)
        if wir.loop_var is not None:
            unstable.add(wir.loop_var)
        local: dict[str, object] = {}   # known iteration-invariant values
        folded: set[str] = set()        # stable names consumed by folds
        out: list = []
        pending: list[tuple[str, object]] = []  # literal-store run

        def flush():
            if pending:
                # Last store per name wins within an uninterrupted run.
                out.append((OP_CONST, tuple(dict(pending).items())))
                pending.clear()

        self._folded_assigns = 0
        for op in wir.ops:
            k = op[0]
            if k == OP_SETVAR:
                local[op[1]] = op[2]
                pending.append((op[1], op[2]))
                continue
            if k == OP_ASSIGN:
                name, expr = op[1], op[2]
                env: dict[str, object] = {}
                foldable = True
                for ref in expr.refs():
                    if ref in local:
                        env[ref] = local[ref]
                    elif ref not in unstable and ref in scalars:
                        env[ref] = scalars[ref]
                        folded.add(ref)
                    else:
                        foldable = False
                        break
                if foldable:
                    value = evaluate(expr, env)
                    local[name] = value
                    pending.append((name, value))
                    self._folded_assigns += 1
                else:
                    local.pop(name, None)
                    flush()
                    out.append(op)
                continue
            if k == OP_COLL:
                local.pop(op[4], None)
            flush()
            out.append(op)
        flush()
        # Guard every consumed stable name: if it drifts, replay falls
        # back to interpretation instead of using a stale fold.
        for name in sorted(folded):
            wir.guards.append((ScalarRef(name), scalars[name], False))
        wir.folded = frozenset(folded)
        wir.ops = out
        return wir

    def stats(self, wir: WindowIR) -> dict[str, float]:
        return {"folded_assigns": getattr(self, "_folded_assigns", 0),
                "guarded_names": len(wir.folded)}


class BatchLaunchPass(Pass):
    """Collapse a batchable launch's point tasks into one body call.

    A frozen index launch whose task is declared ``batchable`` (the
    author's promise that the body is coordinate-based — see
    :class:`repro.tasks.task.Task`) is lowered to a
    :class:`~repro.runtime.window.ir._BatchedLaunch`: each view argument
    position becomes one concatenated view over every owned point's
    slice, and a steady-state replay pays the body's fixed numpy cost
    once per shard instead of once per tile.  Launches that fold a
    scalar reduction, carry per-point dynamic arguments, or differ in
    static scalars across points are left alone —
    :meth:`_BatchedLaunch.lower` returns ``None`` for those.  Runs
    before ``fuse-tasks`` so mega-op interleaving cannot swallow the
    launches this pass targets.
    """

    name = "batch-launch"
    establishes = ("launches-batched",)

    def run(self, wir: WindowIR, ctx) -> WindowIR:
        self._batched_launches = 0
        self._batched_tasks = 0
        out: list = []
        for op in wir.ops:
            if op[0] == OP_TASK:
                bl = _BatchedLaunch.lower(op[1])
                if bl is not None:
                    self._batched_launches += 1
                    self._batched_tasks += len(bl.entries)
                    op = (OP_TASK, bl)
            out.append(op)
        wir.ops = out
        return wir

    def stats(self, wir: WindowIR) -> dict[str, float]:
        return {"batched_launches": getattr(self, "_batched_launches", 0),
                "batched_tasks": getattr(self, "_batched_tasks", 0)}


class FuseTasksPass(Pass):
    """Interleave adjacent launches over the same slice into mega-ops.

    Two consecutive frozen launches fuse when they cover the same owned
    index tuple and, for every pair of *distinct* indices, their instance
    arrays are disjoint — then per-index interleaving ``l1(i), l2(i)``
    preserves the original all-of-l1-then-all-of-l2 semantics (any i≠j
    pair commutes, and per-index order is unchanged).  Launches folding
    into the same scalar reduction are never fused: interleaving would
    permute the fold order.
    """

    name = "fuse-tasks"
    establishes = ("tasks-fused",)

    @staticmethod
    def _can_fuse(a, b) -> bool:
        if isinstance(a, _BatchedLaunch) or isinstance(b, _BatchedLaunch):
            return False  # batched launches have no per-index execution
        ea, eb = a.entries, b.entries
        if len(ea) != len(eb) or not ea:
            return False
        if any(x.index != y.index for x, y in zip(ea, eb)):
            return False
        if (a.reduce_name is not None and a.reduce_name == b.reduce_name):
            return False
        fp_a = [a.entry_arrays(k) for k in range(len(ea))]
        fp_b = [b.entry_arrays(k) for k in range(len(eb))]
        for i in range(len(ea)):
            for j in range(len(ea)):
                if i != j and fp_b[i] & fp_a[j]:
                    return False
        return True

    def run(self, wir: WindowIR, ctx) -> WindowIR:
        from .ir import _MegaLaunch
        out: list = []
        run: list = []  # pending fusable _FrozenLaunch run
        self._fused_launches = 0

        def flush():
            if len(run) > 1:
                out.append((OP_MEGA, _MegaLaunch(run)))
                self._fused_launches += len(run)
            elif run:
                out.append((OP_TASK, run[0]))
            run.clear()

        for op in wir.ops:
            if op[0] == OP_TASK:
                fl = op[1]
                # Interleaving moves fl(i) before *every* earlier launch's
                # (j > i) tasks, so fl must commute with the whole run.
                if run and not all(self._can_fuse(prev, fl) for prev in run):
                    flush()
                run.append(fl)
            else:
                flush()
                out.append(op)
        flush()
        wir.ops = out
        return wir

    def stats(self, wir: WindowIR) -> dict[str, float]:
        return {"mega_ops": sum(1 for op in wir.ops if op[0] == OP_MEGA),
                "fused_launches": getattr(self, "_fused_launches", 0)}

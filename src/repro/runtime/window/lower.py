"""Window lowering passes: freeze tasks, fuse copies, batch launches.

Each pass is a :class:`repro.core.passes.Pass` over a
:class:`~repro.runtime.window.ir.WindowIR`, run by the shared
:func:`repro.core.passes.run_pass_pipeline` loop so the window compiler
reports per-pass stats/metrics, verifies the window summary between
passes, and honors dump-after hooks exactly like the front-end compiler.

The pipeline (see :func:`repro.runtime.window.exec.window_passes`; the
last pass, ``fission``, is :mod:`repro.runtime.window.schedule`):

* ``freeze-tasks``  — lower recorded launches to frozen views/arg vectors.
* ``fuse-copies``   — swap each copy statement's recorded run of lowered
  in-memory copies for one
  :class:`~repro.runtime.copy_engine.FusedBatch`, after its sends (one
  packed message per peer rank on ``net``, recorded as such).  The
  handshake around them was recorded in phase form and is left alone.
* ``batch-launch``  — collapse a ``batchable`` task's frozen point tasks
  into ONE kernel-body call over views of the shard's blocks (opt-in
  per task).

Scalar statements are not lowered: a replayed ``assign`` evaluates its
expression and a ``setvar`` stores its recorded value, so a guard-fallback
iteration that writes a scalar leaves the window valid.
"""

from __future__ import annotations

from ...core.passes import Pass
from ...core.shards import owner_of_color
from ..copy_engine import FusedBatch, FusedCopy, fuse_group
from .ir import WindowIR, _BatchedLaunch, _freeze_launch
from .recorder import OP_COPY, OP_FUSED, OP_MSG, OP_TASK

__all__ = ["FreezeTasksPass", "FuseCopiesPass", "BatchLaunchPass"]


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


def _fuse_copies(ops) -> list:
    """The fused ops of one statement's recorded sends and copies: the
    sends (one per peer rank) first, so the wire is busy while the
    in-memory pairs, grouped by destination instance in recorded pair
    order, apply as one batch.  Any order is legal: the statement ran,
    and was recorded, with every ack wait ahead of its first copy."""
    out = [op for op in ops if op[0] == OP_MSG]
    local: dict[int, list] = {}
    for op in ops:
        if op[0] == OP_COPY:
            local.setdefault(op[1].group_key, []).append(op[1])
    if local:
        out.append((OP_FUSED, FusedBatch(
            [item for group in local.values() for item in fuse_group(group)])))
    return out


class FuseCopiesPass(Pass):
    """Batch each copy statement's in-memory pair copies into one fused
    apply.

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
            wir.ops[a:b] = seg = _fuse_copies(wir.ops[a:b])
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


class BatchLaunchPass(Pass):
    """Collapse a batchable launch's point tasks into one body call.

    A frozen index launch whose task is declared ``batchable`` (the
    author's promise that the body is coordinate-based — see
    :class:`repro.tasks.task.Task`) is lowered to a
    :class:`~repro.runtime.window.ir._BatchedLaunch`: each view argument
    position becomes one view of the shard-contiguous block rows that
    hold every owned point's instance, and a steady-state replay pays the
    body's fixed numpy cost once per shard instead of once per tile.
    Launches that fold a scalar reduction, carry per-point dynamic
    arguments, differ in static scalars across points, or whose
    instances are not adjacent rows of one block in entry order are
    left alone — :meth:`_BatchedLaunch.lower` returns ``None`` for those.
    """

    name = "batch-launch"
    establishes = ("launches-batched",)

    def run(self, wir: WindowIR, ctx) -> WindowIR:
        self._batched_launches = 0
        self._batched_tasks = 0
        out: list = []
        for op in wir.ops:
            if op[0] == OP_TASK:
                bl = _BatchedLaunch.lower(op[1], ctx.ex.block_rows)
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

"""Window lowering passes: freeze tasks, batch launches.

Each pass is a :class:`repro.core.passes.Pass` over a
:class:`~repro.runtime.window.ir.WindowIR`, run by the shared
:func:`repro.core.passes.run_pass_pipeline` loop so the window compiler
records per-pass timings and stats, verifies the window summary between
passes, and honors dump-after hooks exactly like the front-end compiler.

The pipeline (see :func:`repro.runtime.window.exec.window_passes`; the
last pass, ``fission``, is :mod:`repro.runtime.window.schedule`):

* ``freeze-tasks``  — lower recorded launches to frozen views/arg vectors.
* ``batch-launch``  — collapse a ``batchable`` task's frozen point tasks
  into ONE kernel-body call over views of the shard's blocks (opt-in
  per task).

Copies need no pass: a copy statement is recorded in its final form, the
:class:`~repro.runtime.copy_engine.FusedBatch` the interpreter applied
(after its sends, one packed message per peer rank on ``net``) inside the
handshake's phase ops.

Scalar statements are not lowered: a replayed ``assign`` evaluates its
expression and a ``setvar`` stores its recorded value, so a guard-fallback
iteration that writes a scalar leaves the window valid.
"""

from __future__ import annotations

from ...core.passes import Pass
from .ir import WindowIR, _BatchedLaunch, _freeze_launch
from .recorder import OP_TASK

__all__ = ["FreezeTasksPass", "BatchLaunchPass"]


class FreezeTasksPass(Pass):
    """Lower recorded ``(stmt, owned)`` launches to :class:`_FrozenLaunch`.

    Raises ``_Unfreezable`` (handled by the capture state machine) when an
    instance does not cover its region exactly.  Positions are preserved
    1:1.
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

"""Reference sequential executor: the program's defining semantics.

Executes an (untransformed) control program in strict program order with
the shared-memory implementation of region semantics: every region tree
has a single root instance, and subregion views window into it.  Control
replication is correct iff the SPMD execution of the transformed program
produces the same final root-instance state and scalars as this executor
(paper §3: "control replication begins with a shared memory program and
converts it to an equivalent distributed memory implementation").
"""

from __future__ import annotations

from typing import Any, Mapping

from ..regions.region import PhysicalInstance, Region
from ..tasks.checking import check_subtask_call, task_context
from ..tasks.task import call_task
from ..core.ir import (
    Block,
    ForRange,
    IfStmt,
    IndexLaunch,
    Program,
    ScalarAssign,
    SingleCall,
    Stmt,
    WhileLoop,
    evaluate,
)
from ..core.target import check_launch_legality
from .collectives import SCALAR_REDUCTIONS

__all__ = ["SequentialExecutor"]


class SequentialExecutor:
    """Interpret a program sequentially against shared root instances."""

    def __init__(self, instances: Mapping[int, PhysicalInstance] | None = None,
                 check_legality: bool = False):
        # Root-region uid -> instance. Created on demand if absent.
        self.instances: dict[int, PhysicalInstance] = dict(instances or {})
        self.scalars: dict[str, Any] = {}
        self.check_legality = check_legality
        self.tasks_executed = 0
        # Inspector plans (Task.bound) of the calls this executor itself
        # interprets, one per distinct (task, argument regions).
        self._plans: dict[tuple, Any] = {}

    # -- storage ---------------------------------------------------------
    def root_instance(self, region: Region) -> PhysicalInstance:
        root = region.root
        if root.uid not in self.instances:
            self.instances[root.uid] = PhysicalInstance(root)
        return self.instances[root.uid]

    def bind(self, region: Region, instance: PhysicalInstance) -> None:
        """Provide initialized storage for a root region."""
        if region.parent is not None:
            raise ValueError("bind() takes root regions")
        self.instances[region.uid] = instance

    # -- execution -----------------------------------------------------------
    def run(self, program: Program) -> dict[str, Any]:
        """Execute; returns the final scalar environment."""
        self.scalars = dict(program.scalars)
        self._block(program.body)
        return dict(self.scalars)

    def _block(self, block: Block) -> None:
        for stmt in block.stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, ScalarAssign):
            self.scalars[stmt.name] = evaluate(stmt.expr, self.scalars)
        elif isinstance(stmt, ForRange):
            start = evaluate(stmt.start, self.scalars)
            stop = evaluate(stmt.stop, self.scalars)
            for v in range(int(start), int(stop)):
                self.scalars[stmt.var] = v
                self._block(stmt.body)
        elif isinstance(stmt, WhileLoop):
            while evaluate(stmt.cond, self.scalars):
                self._block(stmt.body)
        elif isinstance(stmt, IfStmt):
            if evaluate(stmt.cond, self.scalars):
                self._block(stmt.then_block)
            else:
                self._block(stmt.else_block)
        elif isinstance(stmt, IndexLaunch):
            self._launch(stmt)
        elif isinstance(stmt, SingleCall):
            self._single_call(stmt)
        else:
            raise TypeError(
                f"sequential executor cannot run compiler-introduced statement "
                f"{type(stmt).__name__}; it defines the *source* semantics")

    def _launch(self, stmt: IndexLaunch) -> None:
        if self.check_legality:
            check_launch_legality(stmt)
        partial: Any | None = None
        fold = SCALAR_REDUCTIONS[stmt.reduce[0]] if stmt.reduce else None
        for i in range(stmt.domain.size):
            result = self._run_point_task(stmt, i)
            if stmt.reduce is not None and result is not None:
                partial = result if partial is None else fold(partial, result)
        if stmt.reduce is not None:
            if partial is None:
                raise RuntimeError(
                    f"launch of {stmt.task.name} reduces into scalar "
                    f"{stmt.reduce[1]} but produced no values")
            self.scalars[stmt.reduce[1]] = partial

    def _run_point_task(self, stmt: IndexLaunch, index: int) -> Any:
        return self._call(stmt.task, stmt.point_args(index, self.scalars))

    def _single_call(self, stmt: SingleCall) -> None:
        scalar_vals = [evaluate(e, self.scalars) for e in stmt.scalars]
        result = self._call(stmt.task, [*stmt.regions, *scalar_vals])
        if stmt.result is not None:
            self.scalars[stmt.result] = result

    def _call(self, task, args: list) -> Any:
        regions = [a for a in args if isinstance(a, Region)]
        check_subtask_call(task, regions)
        with task_context(task, regions):
            result = call_task(task, args, self.root_instance, self._plans)
        self.tasks_executed += 1
        return result

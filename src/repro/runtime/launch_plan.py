"""One launch plan: an index launch lowered once per shard.

A shard lowers each :class:`~repro.core.ir.IndexLaunch` the first time it
reaches it, to one :class:`LaunchPlan`: its owned point tasks as calls
whose views are built and whose bodies are bound to their inspector plans
(:meth:`~repro.tasks.task.Task.bound`) at that moment.  The statement
interpreter runs the plan's calls, the recorder records the plan, and a
compiled window replays that same object — so an inspector runs once per
(statement, shard), never again in the window compiler or in replay.

A plan holds one of two forms:

* **batched** — one body call over the shard's block rows, when the task
  is declared ``batchable`` (see :class:`repro.tasks.task.Task`), the
  launch folds no scalar reduction, no argument reads the point index
  ``i`` (scalars that read other variables are re-evaluated once per
  call, the same for every point), static scalars agree across points,
  and each region argument's owned instances are adjacent rows of one
  shard block, in point order (``SPMDExecutor.block_rows``).  The body
  reads and writes the blocks in place, through one :class:`BatchedView`
  per argument, and pays its fixed numpy cost — and its inspector — once
  per shard instead of per point task.  A pointer-chasing body localizes
  segmented (``localize(ids, seg)``, ``seg`` read off a view's
  ``offsets``), one rank query on the partition's colour table.
* **per point** — one call per owned point, each over one
  :class:`~repro.tasks.views.PlacedView` per region argument.

Every view checks privileges on every access at one dict hit, so a body
that exceeds its privileges fails the same way interpreted or replayed.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..core.ir import IndexLaunch, RegionArg, evaluate
from ..tasks.views import PlacedView
from .collectives import SCALAR_REDUCTIONS

__all__ = ["BatchedView", "LaunchPlan", "lower_launch"]

_EMPTY_ENV: dict[str, Any] = {}


class BatchedView(PlacedView):
    """The union of several point tasks' region arguments at one position.

    Its arrays are the one block slice that spans the points' instances,
    and its points are theirs concatenated in point order, so slots are
    *not* globally sorted: point task ``j``'s points and rows are
    ``offsets[j]:offsets[j + 1]``.  A batchable body treats ``points``
    as an unordered set and localizes segmented: ``localize(ids, seg)``
    looks ``ids[k]`` up among point task ``seg[k]``'s points.  The
    unsegmented forms and ``index_set`` raise, naming that contract.
    """

    def __init__(self, regions, arrays: dict[str, np.ndarray], privilege,
                 task_name: str):
        # The first region stands for the union in error messages.
        super().__init__(regions[0], None, privilege, task_name, arrays)
        self.regions = tuple(regions)
        self._offsets = self._segments = None

    @property
    def points(self) -> np.ndarray:
        if self._points is None:
            self._points = np.concatenate(
                [r.index_set.to_indices() for r in self.regions])
        return self._points

    @property
    def n(self) -> int:
        return int(self.offsets[-1])

    @property
    def offsets(self) -> np.ndarray:
        if self._offsets is None:
            self._offsets = np.cumsum(
                [0] + [r.index_set.count for r in self.regions],
                dtype=np.int64)
        return self._offsets

    def _unordered(self, what: str):
        raise TypeError(
            f"task {self.task_name} is declared batchable, but its body or "
            f"inspector used {what} on a batched view: the points of "
            f"several point tasks are concatenated unsorted, so a batchable "
            f"task may address them by coordinate, or localize with seg "
            f"naming each id's point task (Task.batchable)")

    @property
    def index_set(self):
        self._unordered("index_set")

    def maybe_localize(self, global_ids, seg=None):
        """Segmented :meth:`~repro.tasks.views.RegionView.maybe_localize`:
        the slot of ``ids[k]`` among point task ``seg[k]``'s rows, at one
        rank query on the partition's colour table (the composite key
        ``colour * span + (id - base)`` keeps aliased colours apart).  A
        missing id's slot is clamped into its point task's rows, as a
        view of that point task alone would clamp it."""
        if seg is None:
            if len(self.regions) > 1:
                self._unordered("localize() without seg")
            seg = 0
        table, colour, upper, shift = self._segment_table()
        ids = np.asarray(global_ids)
        local = np.clip(ids - table.base, 0, table.span)
        rank, hit = table.stacked.locate(colour[seg] * table.span + local)
        ok = hit & (ids >= table.base) & (ids < table.base + table.span)
        return np.minimum(rank, upper[seg]) + shift[seg], ok

    def _segment_table(self):
        """Per point task its colour, the stacked rank of its last point
        (of its first, when it has none) and the shift from stacked ranks
        to rows of this view; built at the first localize."""
        if self._segments is None:
            table = self.region.parent_partition.colour_table
            colour = np.array([r.color for r in self.regions], dtype=np.int64)
            start = table.prefix[colour]
            upper = np.maximum(table.prefix[colour + 1] - 1, start)
            self._segments = (table, colour, upper,
                              self.offsets[:-1] - start)
        return self._segments

    def __repr__(self) -> str:
        return (f"BatchedView({self.region.name} x{len(self.regions)}, "
                f"{self.privilege})")


class _Call:
    """One body call: the body bound to its plan, its argument vector, and
    the ``(position, expr)`` pairs re-evaluated before each call with
    ``i`` bound to the point ``index`` (None for a batched call, which
    has none).  ``points`` is how many point tasks the call runs."""

    __slots__ = ("fn", "args", "exprs", "index", "points")

    def __init__(self, fn, args: list, exprs: tuple, index: int | None,
                 points: int):
        self.fn = fn
        self.args = args
        self.exprs = exprs
        self.index = index
        self.points = points

    def bind(self, scalars: dict[str, Any]) -> None:
        env = {**scalars, "i": self.index}
        args = self.args
        for pos, e in self.exprs:
            args[pos] = evaluate(e, env)


class LaunchPlan:
    """One shard's lowered side of one index launch (see module docstring).

    ``footprint`` is the ids of every instance array the calls can touch:
    the per-colour arrays task footprints and copy schedules name, also
    for a batched call that reaches them through its block slices.
    """

    __slots__ = ("uid", "task", "calls", "points", "reduce_name", "fold",
                 "footprint")

    def __init__(self, stmt: IndexLaunch, calls, points: int, footprint):
        self.uid = stmt.uid
        self.task = stmt.task
        self.calls = tuple(calls)
        self.points = points
        self.reduce_name = self.fold = None
        if stmt.reduce is not None:
            self.fold = SCALAR_REDUCTIONS[stmt.reduce[0]]
            self.reduce_name = stmt.reduce[1]
        self.footprint = footprint

    def step(self, call: _Call, state) -> None:
        """Run one of the plan's calls: bind its re-evaluated arguments,
        call the body, and fold its result into the shard's pending
        scalar reduction."""
        if call.exprs:
            call.bind(state.scalars)
        result = call.fn(*call.args)
        if result is not None and self.fold is not None:
            pending = state.pending_reductions
            prev = pending.get(self.reduce_name)
            pending[self.reduce_name] = (result if prev is None
                                         else self.fold(prev, result))

    def run_compiled(self, state) -> None:
        """Every call back to back: a compiled window's compute closure
        (no preemption points; the window applies its counter deltas
        once per replay)."""
        for call in self.calls:
            self.step(call, state)


def _spanning_rows(regions, block_rows) -> dict[str, np.ndarray] | None:
    """``{field: rows}`` of the one block whose adjacent slices the
    regions' instances are, in order; None when they are not."""
    blocks, lo, hi = block_rows(regions[0])
    for r in regions[1:]:
        other, start, stop = block_rows(r)
        if other is not blocks or start != hi:
            return None
        hi = stop
    return {f: block[lo:hi] for f, block in blocks.items()}


def _batched_args(stmt: IndexLaunch, points: list[list],
                  block_rows) -> list | None:
    """The one call's arguments over every owned point, or None when the
    launch must run per point (see the module docstring)."""
    task = stmt.task
    if not task.batchable or stmt.reduce is not None or len(points) < 2:
        return None
    args: list[Any] = []
    privileges = iter(task.privileges)
    for pos, arg in enumerate(stmt.args):
        col = [p[pos] for p in points]
        if isinstance(arg, RegionArg):
            arrays = _spanning_rows(col, block_rows)
            if arrays is None:
                return None
            args.append(BatchedView(col, arrays, next(privileges), task.name))
        elif "i" in arg.expr.refs() or any(a != col[0] for a in col[1:]):
            return None
        else:
            args.append(col[0])
    return args


def lower_launch(stmt: IndexLaunch, owned, instance_of: Callable,
                 block_rows: Callable, plans: dict) -> LaunchPlan:
    """Lower ``stmt``'s ``owned`` point tasks to one :class:`LaunchPlan`.

    ``instance_of(region)`` is the region's distributed instance,
    ``block_rows`` is :meth:`~repro.runtime.spmd.SPMDExecutor.block_rows`
    and ``plans`` the shard's inspector memo for per-point calls.  Region
    arguments resolve once here, static scalars evaluate once here;
    scalars that read the environment are re-evaluated per call.
    """
    task = stmt.task
    region_pos = [pos for pos, arg in enumerate(stmt.args)
                  if isinstance(arg, RegionArg)]
    dynamic = tuple((pos, arg.expr) for pos, arg in enumerate(stmt.args)
                    if not isinstance(arg, RegionArg) and arg.expr.refs())
    points = [[arg.proj.partition[arg.proj.color_for(i)]
               if isinstance(arg, RegionArg)
               else None if arg.expr.refs() else evaluate(arg.expr, _EMPTY_ENV)
               for arg in stmt.args] for i in owned]
    footprint = frozenset(id(arr) for args in points for pos in region_pos
                          for arr in instance_of(args[pos]).fields.values())
    batched = _batched_args(stmt, points, block_rows)
    if batched is not None:
        # The batch plan belongs to this call alone: a throwaway memo.
        views = [batched[pos] for pos in region_pos]
        calls = [_Call(task.bound(views, {}), batched, dynamic, None,
                       len(points))]
        return LaunchPlan(stmt, calls, len(points), footprint)
    calls = []
    for i, args in zip(owned, points):
        for pos, privilege in zip(region_pos, task.privileges):
            args[pos] = PlacedView(args[pos], instance_of(args[pos]),
                                   privilege, task.name)
        views = [args[pos] for pos in region_pos]
        calls.append(_Call(task.bound(views, plans), args, dynamic, i, 1))
    return LaunchPlan(stmt, calls, len(points), footprint)

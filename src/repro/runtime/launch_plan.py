"""One shard plan: a shard's launch body lowered before its first statement.

:func:`plan_shard` runs at the top of every shard's driver body — the
stepped generator, the threaded thread, the forked ``procs`` child, the
``net`` rank — and maps each statement uid of the launch body to its
lowered form, branches never taken included (an inspector sees geometry
only, so planning one runs nothing).  The interpreter and the window
compiler only read the :class:`ShardPlan`; neither lowers anything.

* an :class:`~repro.core.ir.IndexLaunch` becomes one :class:`LaunchPlan`:
  its owned point tasks as calls whose views are built and whose bodies
  are bound to their inspector plans (:meth:`~repro.tasks.task.Task.bound`)
  at planning time.  The statement interpreter runs the plan's calls, the
  recorder records the plan, and a compiled window replays that same
  object — so an inspector runs once per (statement, shard), never again
  in the window compiler or in replay;
* a :class:`~repro.core.ir.PairwiseCopy` becomes one :class:`CopyPlan`:
  its in-memory pairs lowered to one
  :class:`~repro.runtime.copy_engine.FusedBatch`, its sends and receives
  as pair-table indices, what each handshake phase touches and the
  arrays the handshake protects;
* a :class:`~repro.core.ir.FillReductionBuffer` becomes its
  ``(array, value)`` fills, and a
  :class:`~repro.core.ir.ScalarCollective` the launch's collective.

A launch plan holds one of two forms:

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

import time
from typing import Any, Callable, NamedTuple

import numpy as np

from ..core.ir import (FillReductionBuffer, IndexLaunch, PairwiseCopy,
                       RegionArg, ScalarCollective, evaluate, walk)
from ..core.shards import color_owners, shard_owned_colors
from ..obs import flight as _flight
from ..regions.intervals import expand_ranges
from ..regions.region import reduction_identity
from ..tasks.views import PlacedView
from .collectives import SCALAR_REDUCTIONS
from .copy_engine import (FusedBatch, disjoint_dst_colors, lower_copy,
                          place_pairs)

__all__ = ["BatchedView", "CopyPlan", "LaunchPlan", "ShardPlan",
           "fold_keys", "lower_launch", "plan_shard"]

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
        self._table = self._segments = None

    def _point_table(self):
        """Its point tasks' subsets as one colour table, colour ``j``
        being point task ``j``'s: one gather of the partition's table,
        taken on first use."""
        if self._table is None:
            self._table = self.region.parent_partition.colour_table.take(
                [r.color for r in self.regions])
        return self._table

    @property
    def points(self) -> np.ndarray:
        if self._points is None:
            ivals, _ = self._point_table().rows()
            self._points = expand_ranges(ivals[:, 0], ivals[:, 1] - ivals[:, 0])
        return self._points

    @property
    def n(self) -> int:
        return int(self.offsets[-1])

    @property
    def offsets(self) -> np.ndarray:
        return self._point_table().prefix

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


class CopyPlan(NamedTuple):
    """One shard's side of one copy statement for the launch: its
    in-memory pairs lowered to one
    :class:`~repro.runtime.copy_engine.FusedBatch`; on a context whose
    cross-shard pairs are messages, its sends as ``(peer, pair-table
    indices of the non-empty pairs, pairs visited)`` and receives as
    ``(producer, pair-table indices)``, which the context places on
    ``table`` and the layouts ``src``/``dst``; the ids of the arrays its
    handshake protects (its owned destination instances: fission's
    footprint); and what each handshake phase touches, in the shapes the
    recorder stores — or, in barrier mode, its ``pre`` and ``post``
    collectives (§3.4's WAR and RAW barriers)."""

    stmt: PairwiseCopy
    table: Any
    src: Any
    dst: Any
    batch: FusedBatch
    sends: tuple = ()
    receives: tuple = ()
    protect: frozenset = frozenset()
    ack_advances: tuple = ()
    ack_waits: tuple = ()
    ready_advances: tuple = ()
    ready_waits: tuple = ()
    rendezvous: tuple = ()


class ShardPlan(NamedTuple):
    """One shard's lowered launch body: ``steps`` maps the uid of every
    index launch, copy, reduction-buffer fill and scalar collective in
    it to its :class:`LaunchPlan`, :class:`CopyPlan`, ``((array, value),
    ...)`` fills or collective; ``ctx`` is the launch context they name."""

    ctx: Any
    steps: dict


def fold_keys(stmt: PairwiseCopy, table, ns: int, locked: bool):
    """Per destination colour of the reduction copy ``stmt``, the shard
    whose fold lock a fold into it takes, or -1 (no lock) where its
    inbound contributions are disjoint across producer shards — a pure
    function of the evaluated pair table ``table``, so a launch computes
    it once for every shard; ``locked`` keeps every lock."""
    key = color_owners(stmt.dst.num_colors, ns)
    if not locked:
        key[list(disjoint_dst_colors(table, stmt.src.num_colors, ns))] = -1
    return key


def _fold_locks(ex, stmt: PairwiseCopy, j: np.ndarray):
    """``(lock_of, locks)``: pair ``p`` into destination colour ``j[p]``
    folds under ``locks[lock_of[p]]`` — the launch's lock of its
    destination colour's fold key, or ``None`` (no lock) for a plain copy
    or a key of -1."""
    if stmt.redop is None:
        return np.zeros(j.size, dtype=np.int64), [None]
    keys, lock_of = np.unique(ex._fold_keys[stmt.uid][j], return_inverse=True)
    return lock_of.reshape(-1), [
        None if q < 0 else ex._copy_locks[(stmt.uid, q)]
        for q in keys.tolist()]


def plan_copy(ex, stmt: PairwiseCopy, shard: int, ctx) -> CopyPlan:
    """Shard ``shard``'s :class:`CopyPlan` of ``stmt`` under the launch
    context ``ctx``, whose channel indexes name its handshake."""
    ns, uid = ctx.num_shards, stmt.uid
    res = ex._pair_table(stmt)
    table, src, dst = res.table, ex._layout(stmt.src), ex._layout(stmt.dst)
    dst_owner = color_owners(stmt.dst.num_colors, ns)
    # The destination colours whose pairs from this shard are in-memory.
    local = (dst_owner == shard if ctx.messages
             else np.ones(dst_owner.size, dtype=bool))
    copies, visits, sends = res.split(
        shard_owned_colors(stmt.src.num_colors, ns, shard), local, dst_owner)
    placed = place_pairs(table, copies, src, dst)
    lock_of, locks = _fold_locks(ex, stmt, table.dst[copies])
    batch = lower_copy(uid, stmt.fields, stmt.redop, *placed, lock_of, locks,
                       visits)
    owned = shard_owned_colors(stmt.dst.num_colors, ns, shard)
    # This shard's channels, {peer: channel} in spec order.
    out = ctx.outbound[uid].get(shard, {})
    into = ctx.inbound[uid].get(shard, {})
    receives = ()
    if ctx.messages:
        mine = table.dst_range(owned.start, owned.stop)
        producer = color_owners(stmt.src.num_colors, ns)[table.src[mine]]
        receives = tuple((p, mine[producer == p]) for p in into)
    plan = CopyPlan(stmt, table, src, dst, batch, sends, receives)
    if stmt.sync_mode == "p2p":
        out, into = out.values(), into.values()
        return plan._replace(
            protect=frozenset(id(arr) for j in res.written(owned)
                              for arr in dst.arrays[j].values()),
            ack_advances=tuple(c.acked for c in into),
            ack_waits=tuple((c.acked, c.ack_label) for c in out),
            ready_advances=tuple(c.ready for c in out),
            ready_waits=tuple((c.ready, c.ready_label) for c in into))
    if stmt.sync_mode == "barrier":
        return plan._replace(rendezvous=(ctx.collectives[f"pre:{uid}"],
                                         ctx.collectives[f"post:{uid}"]))
    return plan


def plan_shard(body, shard: int, ex, ctx, flight) -> ShardPlan:
    """Lower every statement of the launch body ``body`` for ``shard``,
    taken branch or not, against the executor ``ex`` (its evaluated pair
    sets, instances, block layouts and the launch's fold locks) and the
    launch context ``ctx``.  A lowering that raises — an inspector, say
    — writes a TASK record under its launch's uid to ``flight`` first,
    the record the post-mortem flight dump exists to show."""
    ns = ctx.num_shards
    steps: dict = {}
    inspected: dict = {}  # this shard's inspector memo (Task.bound)
    # Launches last, each kind in walk order: an inspector's scratch
    # lives as long as the plan and a copy lowering's temporaries do
    # not, and allocating the short-lived temporaries first keeps the
    # heap compact (with launches first, glibc kept ~10 MB more resident
    # after most threaded runs of a 768x768 stencil).
    for s in sorted(walk(body), key=lambda s: isinstance(s, IndexLaunch)):
        if isinstance(s, IndexLaunch):
            t0 = time.perf_counter()
            try:
                steps[s.uid] = lower_launch(
                    s, shard_owned_colors(s.domain.size, ns, shard),
                    ex.region_instance, ex.block_rows, inspected)
            except BaseException:
                flight.record(_flight.TASK, s.uid, t0, time.perf_counter())
                raise
        elif isinstance(s, PairwiseCopy):
            steps[s.uid] = plan_copy(ex, s, shard, ctx)
        elif isinstance(s, FillReductionBuffer):
            part = s.partition
            steps[s.uid] = tuple(
                (arr, reduction_identity(s.redop, arr.dtype))
                for c in shard_owned_colors(part.num_colors, ns, shard)
                for arr in (ex.dist_instance(part, c).fields[f]
                            for f in s.fields))
        elif isinstance(s, ScalarCollective):
            steps[s.uid] = ctx.collectives[s.uid]
    return ShardPlan(ctx, steps)

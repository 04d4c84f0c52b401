"""One launch table, sliced into one shard plan per shard.

A shard launch builds its :class:`LaunchTable` once, in the parent,
before any shard exists (``SPMDExecutor._shard_launch``): per copy
statement a :class:`CopyTable` — its pairs indexed by producer and by
consumer shard, both sides of every pair placed on the block layouts at
once, each pair's fold-lock code.  ``procs`` children and forked ``net``
ranks inherit it; a ``net`` worker builds the same one.

:func:`plan_shard` runs at the top of every shard's driver body — the
stepped generator, the threaded thread, the forked ``procs`` child, the
``net`` rank — and maps each statement uid of the launch body to its
lowered form, branches never taken included (an inspector sees geometry
only, so planning one runs nothing).  It *slices*: what it reads of the
table is the shard's own pairs and channels, so a shard's plan costs its
own pairs and points, however many shards there are.  The interpreter
and the window compiler only read the :class:`ShardPlan`; neither
lowers anything.

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
  as placed rows, what each handshake phase touches and the arrays the
  handshake protects — all slices of its :class:`CopyTable`;
* a :class:`~repro.core.ir.FillReductionBuffer` becomes its
  ``(array, value)`` fills, and a
  :class:`~repro.core.ir.ScalarCollective` the launch's collective.

A launch plan holds one of two forms:

* **batched** — one body call over the shard's block rows, when the task
  is declared ``batchable`` (see :class:`repro.tasks.task.Task`), the
  launch folds no scalar reduction, no argument reads the point index
  ``i`` (scalars that read other variables are re-evaluated once per
  call, the same for every point), and each region argument's owned
  colours are adjacent rows of one shard block, in point order.  The body
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
from ..regions.intervals import expand_ranges, sorted_distinct
from ..regions.region import reduction_identity
from ..tasks.views import PlacedView
from .collectives import SCALAR_REDUCTIONS
from .copy_engine import (FusedBatch, disjoint_dst_colors, lower_copy,
                          place_pairs, placed_rows)

__all__ = ["BatchedView", "CopyPlan", "CopyTable", "LaunchPlan",
           "LaunchTable", "ShardPlan", "lower_launch", "plan_shard"]

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

    def __init__(self, part, colours: range, arrays: dict[str, np.ndarray],
                 privilege, task_name: str):
        # The first colour's subregion stands for the union in errors.
        super().__init__(part[colours[0]], None, privilege, task_name, arrays)
        self.colours = colours
        self._table = self._upper = None

    @property
    def regions(self) -> tuple:
        """The point tasks' subregions, in point order."""
        part = self.region.parent_partition
        return tuple(part[c] for c in self.colours)

    def _point_table(self):
        """Its point tasks' subsets as one colour table, colour ``j``
        being point task ``j``'s: one gather of the partition's table,
        taken on first use."""
        if self._table is None:
            self._table = self.region.parent_partition.colour_table.take(
                np.arange(self.colours.start, self.colours.stop))
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
        rank query on the view's colour table (the composite key
        ``seg * span + (id - base)`` keeps aliased colours apart).  A
        missing id's slot is clamped into its point task's rows, as a
        view of that point task alone would clamp it."""
        if seg is None:
            if len(self.colours) > 1:
                self._unordered("localize() without seg")
            seg = 0
        table = self._point_table()
        if self._upper is None:
            # Per point task the row of its last point (its first, when
            # it has none).
            self._upper = np.maximum(table.prefix[1:] - 1, table.prefix[:-1])
        ids = np.asarray(global_ids)
        local = np.clip(ids - table.base, 0, table.span)
        rank, hit = table.stacked.locate(np.asarray(seg) * table.span + local)
        ok = hit & (ids >= table.base) & (ids < table.base + table.span)
        return np.minimum(rank, self._upper[seg]), ok

    def __repr__(self) -> str:
        return (f"BatchedView({self.region.name} x{len(self.colours)}, "
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


def _spanning_rows(arrays, colours: range) -> dict[str, np.ndarray] | None:
    """``{field: rows}`` of the one block whose adjacent slices the
    ``colours`` of the layout's ``arrays`` are; None when they straddle
    two blocks (a block's colours are consecutive, in colour order)."""
    blocks, lo, _ = arrays.rows(colours[0])
    other, _, hi = arrays.rows(colours[-1])
    if other is not blocks:
        return None
    return {f: block[lo:hi] for f, block in blocks.items()}


def _batched_args(stmt: IndexLaunch, owned: range, fields: list,
                  scalars: list) -> list | None:
    """The one call's arguments over every owned point, or None when the
    launch must run per point (see the module docstring)."""
    task = stmt.task
    if not task.batchable or stmt.reduce is not None or len(owned) < 2:
        return None
    args = list(scalars)
    privileges = iter(task.privileges)
    for pos, arg in enumerate(stmt.args):
        if isinstance(arg, RegionArg):
            arrays = _spanning_rows(fields[pos], owned)
            if arrays is None:
                return None
            args[pos] = BatchedView(arg.proj.partition, owned, arrays,
                                    next(privileges), task.name)
        elif "i" in arg.expr.refs():
            return None
    return args


def lower_launch(stmt: IndexLaunch, owned: range, layout_of: Callable,
                 plans: dict) -> LaunchPlan:
    """Lower ``stmt``'s ``owned`` point tasks to one :class:`LaunchPlan`.

    ``layout_of(partition)`` is the partition's
    :class:`~repro.runtime.copy_engine.BlockLayout` and ``plans`` the
    shard's inspector memo for per-point calls.  Point ``i`` names colour
    ``i`` of each region argument's partition (a launch reaches the shards
    with identity projections only: ``core.target`` refuses any other),
    so the footprint is the id set its layout keeps for the range
    ``owned``.  Static scalars evaluate once here; scalars that read the
    environment are re-evaluated per call.
    """
    task = stmt.task
    fields = [layout_of(arg.proj.partition).arrays
              if isinstance(arg, RegionArg) else None for arg in stmt.args]
    region_pos = [pos for pos, f in enumerate(fields) if f is not None]
    dynamic = tuple((pos, arg.expr) for pos, arg in enumerate(stmt.args)
                    if fields[pos] is None and arg.expr.refs())
    scalars = [None if f is not None or arg.expr.refs()
               else evaluate(arg.expr, _EMPTY_ENV)
               for arg, f in zip(stmt.args, fields)]
    footprint = frozenset().union(*(fields[pos].ids(owned)
                                    for pos in region_pos))
    batched = _batched_args(stmt, owned, fields, scalars)
    if batched is not None:
        # The batch plan belongs to this call alone: a throwaway memo.
        views = [batched[pos] for pos in region_pos]
        calls = [_Call(task.bound(views, {}), batched, dynamic, None,
                       len(owned))]
        return LaunchPlan(stmt, calls, len(owned), footprint)
    calls = []
    for i in owned:
        args = list(scalars)
        for pos, privilege in zip(region_pos, task.privileges):
            args[pos] = PlacedView(stmt.args[pos].proj.partition[i], None,
                                   privilege, task.name, fields[pos][i])
        views = [args[pos] for pos in region_pos]
        calls.append(_Call(task.bound(views, plans), args, dynamic, i, 1))
    return LaunchPlan(stmt, calls, len(owned), footprint)


class CopyPlan(NamedTuple):
    """One shard's side of one copy statement for the launch: its
    in-memory pairs lowered to one
    :class:`~repro.runtime.copy_engine.FusedBatch`; on a context whose
    cross-shard pairs are messages, its sends as ``(peer, side, pairs
    visited)`` and receives as ``(producer, side)``, a side being ``(rows
    placed on the source or destination layout, row lengths, rows per
    pair)`` of the non-empty pairs in pair order; the ids of the arrays
    its handshake protects (the owned destination instances some pair
    writes: fission's footprint); and what each handshake phase touches,
    in the shapes the recorder stores — or, in barrier mode, its ``pre``
    and ``post`` collectives (§3.4's WAR and RAW barriers)."""

    stmt: PairwiseCopy
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


class CopyTable:
    """One copy statement's part of the :class:`LaunchTable`.

    Its pair table's pairs are in producer order already (sorted by
    source colour, whose owner grows with it), so ``produced[x]:
    produced[x + 1]`` are shard ``x``'s.  One stable argsort by consumer
    (``by_consumer``) lists each consumer's pairs in pair order, hence by
    producer, so the pairs of one (producer, consumer) channel are one
    slice of it, found by one search of the sorted ``channel`` keys.
    Both sides of every pair are placed once (``src_first``,
    ``dst_first``, ``lengths`` per row), and ``lock_of[p]`` indexes
    ``locks``: no lock, or the fold lock of the destination shard that
    pair ``p``'s fold takes (none where producers never overlap,
    :func:`~repro.runtime.copy_engine.disjoint_dst_colors`).
    """

    def __init__(self, stmt: PairwiseCopy, res, src, dst, ns: int,
                 owners: Callable, locks: list, locked: bool):
        table = res.table
        self.stmt, self.src, self.dst, self.ns = stmt, src, dst, ns
        self.all_pairs = res.all_pairs
        self.src_colours, self.dst_colours = table.src, table.dst
        self.offsets, self.nrows = table.offsets, table.nrows
        dst_owner = owners(stmt.dst)
        producer, consumer = owners(stmt.src)[table.src], dst_owner[table.dst]
        self.produced = np.searchsorted(producer,
                                        np.arange(ns + 1)).tolist()
        self.by_consumer = np.argsort(consumer, kind="stable")
        self.channel = (consumer * ns + producer)[self.by_consumer]
        src_side, dst_side, self.lengths = place_pairs(table, src, dst)
        self.src_first, self.dst_first = src_side.first, dst_side.first
        self.locks = [None, *locks]
        if stmt.redop is None:
            self.lock_of = np.zeros(len(table), dtype=np.int64)
            return
        key = dst_owner.copy()
        if not locked:
            key[list(disjoint_dst_colors(table, stmt.src.num_colors,
                                         ns))] = -1
        self.lock_of = key[table.dst] + 1

    def _channel(self, p: int, q: int) -> np.ndarray:
        """The pairs from producer ``p`` to consumer ``q``, in pair order."""
        a, b = np.searchsorted(self.channel, (q * self.ns + p,
                                              q * self.ns + p + 1))
        return self.by_consumer[a:b]

    def _side(self, pairs, rows, dst: bool):
        """One placed side of ``pairs`` (a slice or indices) whose rows
        are ``rows``."""
        layout, first, colours = ((self.dst, self.dst_first, self.dst_colours)
                                  if dst else
                                  (self.src, self.src_first, self.src_colours))
        return placed_rows(layout, colours[pairs], first[rows])

    def _message(self, pairs: np.ndarray, dst: bool):
        rows = expand_ranges(self.offsets[pairs], self.nrows[pairs])
        return (self._side(pairs, rows, dst), self.lengths[rows],
                self.nrows[pairs])

    def _written(self, shard: int):
        """The destination colours ``shard`` owns that some visited pair
        writes."""
        stmt, ns = self.stmt, self.ns
        if self.all_pairs:
            return (shard_owned_colors(stmt.dst.num_colors, ns, shard)
                    if stmt.src.num_colors else range(0))
        a, b = np.searchsorted(self.channel, (shard * ns, (shard + 1) * ns))
        return sorted_distinct(
            self.dst_colours[self.by_consumer[a:b]]).tolist()

    def plan(self, shard: int, ctx) -> CopyPlan:
        """Shard ``shard``'s :class:`CopyPlan` under the launch context
        ``ctx``, whose channel indexes name its handshake: slices of the
        table by the shard's own pairs and channels."""
        stmt, ns, uid = self.stmt, self.ns, self.stmt.uid
        produced = len(shard_owned_colors(stmt.src.num_colors, ns, shard))

        def visits(pairs: int, consumer: int | None) -> int:
            # A copy with no pair set visits every (i, j), empty or not.
            if not self.all_pairs:
                return pairs
            return produced * (stmt.dst.num_colors if consumer is None else
                               len(shard_owned_colors(stmt.dst.num_colors,
                                                      ns, consumer)))

        sends = receives = ()
        if ctx.messages:
            # Its pairs into itself are in memory; every other channel is
            # one message, in the channels' order.
            copies = self._channel(shard, shard)
            rows = expand_ranges(self.offsets[copies], self.nrows[copies])
            local = visits(copies.size, shard)
            sends = []
            for q in ctx.outbound[uid].get(shard, {}):
                pairs = self._channel(shard, q)
                sends.append((q, self._message(pairs, False),
                              visits(pairs.size, q)))
            receives = tuple((p, self._message(self._channel(p, shard), True))
                             for p in ctx.inbound[uid].get(shard, {}))
        else:
            a, b = self.produced[shard:shard + 2]
            copies, rows = slice(a, b), slice(self.offsets[a],
                                              self.offsets[b])
            local = visits(b - a, None)
        batch = lower_copy(uid, stmt.fields, stmt.redop,
                           self._side(copies, rows, False),
                           self._side(copies, rows, True), self.lengths[rows],
                           self.nrows[copies], self.lock_of[copies],
                           self.locks, local)
        plan = CopyPlan(stmt, batch, tuple(sends), receives)
        if stmt.sync_mode == "p2p":
            out = ctx.outbound[uid].get(shard, {}).values()
            into = ctx.inbound[uid].get(shard, {}).values()
            return plan._replace(
                protect=self.dst.arrays.ids(self._written(shard)),
                ack_advances=tuple(c.acked for c in into),
                ack_waits=tuple((c.acked, c.ack_label) for c in out),
                ready_advances=tuple(c.ready for c in out),
                ready_waits=tuple((c.ready, c.ready_label) for c in into))
        if stmt.sync_mode == "barrier":
            return plan._replace(rendezvous=(ctx.collectives[f"pre:{uid}"],
                                             ctx.collectives[f"post:{uid}"]))
        return plan


class LaunchTable:
    """What every shard's plan of one launch shares, built once before any
    shard exists: per copy statement its :class:`CopyTable` (``copies``,
    by uid), and how long building them took (``seconds``).  ``procs``
    children and forked ``net`` ranks inherit it; a ``net`` worker builds
    the same one in its own process."""

    __slots__ = ("copies", "seconds")

    def __init__(self, spec, ex, ns: int):
        t0 = time.perf_counter()
        owners: dict = {}

        def owner(part):
            # One color_owners per partition.
            got = owners.get(part.uid)
            if got is None:
                got = owners[part.uid] = color_owners(part.num_colors, ns)
            return got

        self.copies = {
            s.uid: CopyTable(
                s, ex._pair_table(s), ex._layout(s.src), ex._layout(s.dst),
                ns, owner, [ex._copy_locks[(s.uid, q)] for q in range(ns)]
                if s.redop is not None else [], ex._force_locked_reductions)
            for s in spec.copies}
        self.seconds = time.perf_counter() - t0


def plan_shard(body, shard: int, ex, ctx, flight) -> ShardPlan:
    """Lower every statement of the launch body ``body`` for ``shard``,
    taken branch or not, against the executor ``ex`` (its launch table,
    block layouts and inspectors' geometry) and the launch context
    ``ctx``: each copy a slice of its :class:`CopyTable` by the shard's
    own pairs and channels, each launch its owned point tasks.  A
    lowering that raises — an inspector, say — writes a TASK record under
    its launch's uid to ``flight`` first, the record the post-mortem
    flight dump exists to show."""
    ns = ctx.num_shards
    table = ex.launch_table
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
                    ex._layout, inspected)
            except BaseException:
                flight.record(_flight.TASK, s.uid, t0, time.perf_counter())
                raise
        elif isinstance(s, PairwiseCopy):
            steps[s.uid] = table.copies[s.uid].plan(shard, ctx)
        elif isinstance(s, FillReductionBuffer):
            part = s.partition
            arrays = ex._layout(part).arrays
            steps[s.uid] = tuple(
                (arr, reduction_identity(s.redop, arr.dtype))
                for c in shard_owned_colors(part.num_colors, ns, shard)
                for arr in (arrays[c][f] for f in s.fields))
        elif isinstance(s, ScalarCollective):
            steps[s.uid] = ctx.collectives[s.uid]
    return ShardPlan(ctx, steps)

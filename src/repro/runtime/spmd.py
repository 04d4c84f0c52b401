"""SPMD execution of control-replicated programs.

The transformed program (paper Fig. 4d) is ``initialization; shard launch;
finalization``.  This executor runs the initialization/finalization parts
with ordinary sequential semantics and executes the shard launch as ``NS``
replicas of the control flow, each owning a block of every launch domain.

Storage follows the distributed-memory implementation of region semantics:
every subregion named by a partition has its own physical instance; all
coherence traffic is the compiler-inserted copies.  The instances of the
colours one shard owns are consecutive slices of one block per field, so
a batched launch over them reads and writes the block in place
(``dist_instance``; docs/runtime.md, "Point-task batching").

Synchronization of producer-issued copies uses one handshake per (copy
statement, producer shard, consumer shard) that some intersection pair
crosses (``core.shards.channel_keys``), built from monotone sequences — the
functional equivalent of Legion phase barriers:

* the consumer, on reaching the copy statement in epoch ``g``, *acks*
  generation ``g-1`` of each inbound channel (all its reads of the old
  data precede this point in replicated program order);
* the producer waits for ``ack(g-1)`` (write-after-read), performs all
  its copies to that consumer, and advances ``ready`` to ``g``;
* the consumer proceeds once every inbound channel is ``ready(g)``
  (read-after-write).

A shard runs one statement's handshake in phases — all its acks, all its
ack waits, its copies, all its ready advances, all its ready waits — the
order a compiled window keeps, so interpreter and window are one schedule
(``_exec_copy``; docs/runtime.md, "Capture and freeze").  Under that order
one channel per shard pair orders exactly what one per intersection pair
did, and the pairs a shard copies into itself need none.

Every shard plans its launch body before its first statement
(:func:`repro.runtime.launch_plan.plan_shard`), then interprets it,
reading the plan only (``_run_shard``).  Four drivers share that shard
generator, which yields the events it blocks on, and one launch path
(:mod:`repro.runtime.launch`: spec → context → drive → funnel): a
**stepped** driver interleaves shards
deterministically-adversarially under a seeded RNG (used by the
failure-injection tests — removing synchronization makes it observably
wrong), a **threaded** driver runs each shard on an OS thread with
blocking waits (numpy releases the GIL, so point tasks genuinely overlap),
a **procs** driver (:mod:`repro.runtime.procs`) forks each shard as an OS
process over shared-memory instances, so even pure-Python task bodies run
in parallel, and a **net** driver (:mod:`repro.runtime.net`) runs each
shard as a rank on a TCP mesh with no shared memory at all.  What differs
between them is a row of :data:`repro.runtime.backends.BACKENDS`; this
module never asks which one it is running under.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from typing import Any, ClassVar, Iterator

import numpy as np

from ..core.ir import (
    Block,
    ComputeIntersections,
    FillReductionBuffer,
    FinalCopy,
    ForRange,
    IfStmt,
    IndexLaunch,
    InitCopy,
    PairwiseCopy,
    ScalarAssign,
    ScalarCollective,
    ShardLaunch,
    Stmt,
    WhileLoop,
    evaluate,
)
from ..core.passes import PassTiming, export_pass_metrics
from ..core.shards import color_owners, shard_owned_colors
from ..obs import NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer
from ..obs import flight as _flight
from ..obs.flight import NULL_RING, FlightRecorder, ShardRing
from ..regions.partition import Partition
from ..regions.region import PhysicalInstance
from .backends import ensure_backend
from .copy_engine import BlockLayout, FusedBatch, apply_root_copy
from .events import Event
from .intersection_exec import IntersectionResult, compute_intersections
from .launch import (CommContext, DeadlockError, ShardExceptionGroup,
                     launch_spec)
from .launch_plan import ShardPlan, fold_keys, plan_shard
from .window import LoopReplay, ReplayError
from .sequential import SequentialExecutor

__all__ = ["SPMDExecutor", "DeadlockError", "ReplicationDivergence",
           "ReplayError", "ShardExceptionGroup"]


class ReplicationDivergence(RuntimeError):
    """Replicated scalar state diverged across shards (compiler bug)."""


# The per-shard counters: field name -> (metric it mirrors into, labels).
# This table is the only list of them — it drives a state's zeroing and
# reset, the child -> parent payload of the forking backends, the
# executor's totals (same attribute names) and the metric mirror the
# executor writes after each launch; the hot paths bump the fields
# directly (``state.x += 1``).  Copy counters accumulate per shard (no
# shared lock on the copy path) and are merged into the executor totals
# after the drivers run.
COUNTERS: dict[str, tuple[str, dict[str, str]]] = {
    "tasks_executed": ("spmd_tasks_total", {}),
    "copies_performed": ("spmd_copies_total", {}),
    "elements_copied": ("spmd_elements_copied_total", {}),
    "bytes_copied": ("spmd_bytes_copied_total", {}),
    # Copy pairs visited, including empty ones.
    "pair_visits": ("spmd_pair_visits_total", {}),
    # Steady-state capture & replay (repro.runtime.window): iterations
    # replayed / interpreted, and of the latter those where a frozen
    # window existed but a hoisted guard failed.
    "replay_hits": ("spmd_replay_iterations_total", {"outcome": "hit"}),
    "replay_misses": ("spmd_replay_iterations_total", {"outcome": "miss"}),
    "replay_guard_fallbacks": ("spmd_replay_iterations_total",
                               {"outcome": "guard_fallback"}),
    # Copy plan (repro.runtime.copy_engine): fused items applied, pairs
    # in them, and reduction-fold lock accounting — interpreted or
    # replayed, every applied batch counts.
    "fused_copies": ("spmd_fused_copies_total", {}),
    "fused_pairs": ("spmd_fused_pairs_total", {}),
    "lockfree_folds": ("spmd_reduction_folds_total", {"path": "lockfree"}),
    "locked_folds": ("spmd_reduction_folds_total", {"path": "locked"}),
    # Window compiler: raw ops recorded per frozen window, ops left after
    # lowering, closures in compiled windows, and windows compiled.
    "window_ops_recorded": ("spmd_window_ops_total", {"stage": "recorded"}),
    "window_ops_lowered": ("spmd_window_ops_total", {"stage": "lowered"}),
    "window_closures": ("spmd_window_closures_total", {}),
    "window_compiles": ("spmd_window_compiles_total", {}),
}


@dataclass
class _ShardState:
    shard: int
    scalars: dict[str, Any]
    epochs: dict[int, int] = field(default_factory=dict)
    pending_reductions: dict[str, Any] = field(default_factory=dict)
    # Always-on flight ring (repro.obs.flight): single-writer, bounded.
    # The ring is the executor's, not the state's, so it outlives every
    # launch — a rolling window over the shard's recent history, which is
    # exactly what a post-failure dump should show.  The executor reads
    # each launch's records back into its registry.
    flight: ShardRing = NULL_RING
    # This launch's window-pipeline pass timings (compile_window), shipped
    # back like the counters and exported by the executor.
    window_passes: list[PassTiming] = field(default_factory=list)
    # loop uid -> iteration index at which this shard froze its trace.
    # Capture decisions are replicated control flow, so all shards must
    # agree; validated after the launch like scalar state.
    capture_points: dict[int, int] = field(default_factory=dict)
    loop_replays: dict[int, LoopReplay] = field(default_factory=dict)
    # One int attribute per row, zeroed at construction.
    COUNTERS: ClassVar[dict] = COUNTERS

    def zero_counters(self) -> None:
        for name in self.COUNTERS:
            setattr(self, name, 0)

    __post_init__ = zero_counters

    def next_epoch(self, uid: int) -> int:
        g = self.epochs.get(uid, 0) + 1
        self.epochs[uid] = g
        return g


class SPMDExecutor(SequentialExecutor):
    """Execute a control-replicated program across ``num_shards`` shards."""

    def __init__(self, num_shards: int, mode: str = "stepped", seed: int = 0,
                 instances=None, validate_replication: bool = True,
                 tracer: Tracer = NULL_TRACER, deadlock_timeout: float = 60.0,
                 metrics: MetricsRegistry = NULL_METRICS,
                 flight: bool = True,
                 flight_capacity: int = _flight.DEFAULT_CAPACITY,
                 flight_dir: str | None = None, net_worker=None):
        super().__init__(instances=instances)
        # The registry row answers everything that differs between
        # drivers; ``mode`` stays as the name callers print and fingerprint.
        self.backend = ensure_backend(mode)
        if num_shards <= 0:
            raise ValueError("need at least one shard")
        self.num_shards = num_shards
        self.mode = mode
        self.seed = seed
        # net backend: optional (rank, addrs) worker identity, and the
        # per-rank transport stats funneled back after a launch.
        self.net_worker = net_worker
        self.net_stats: dict[int, dict] = {}
        # Run totals of the per-shard counters, under the same names.
        for name in _ShardState.COUNTERS:
            setattr(self, name, 0)
        self.validate_replication = validate_replication
        self.tracer = tracer
        self.metrics = metrics
        # The shard runtime's one timeline: one bounded ring per shard,
        # written by every driver.  A tracer shows the rings' rows and the
        # registry's task and wait histograms are read from them, so an
        # executor that has either always records.  REPRO_FLIGHT_DIR (or
        # flight_dir=) names where failure dumps land; without it the
        # Chrome trace is only attached to the raised exception.
        self.flight: FlightRecorder | None = (
            FlightRecorder(num_shards, capacity=flight_capacity)
            if flight or tracer.enabled or metrics.enabled else None)
        if tracer.enabled:
            tracer.attach(self.flight)
        self.flight_dir = (flight_dir if flight_dir is not None
                           else os.environ.get("REPRO_FLIGHT_DIR") or None)
        self.deadlock_timeout = deadlock_timeout
        self.dist: dict[tuple[int, int], PhysicalInstance] = {}
        # (partition uid, color) -> (the owning shard's field blocks, lo,
        # hi): the colour's instance arrays are rows lo:hi of the blocks.
        self._block_rows: dict[tuple[int, int], tuple[dict, int, int]] = {}
        # partition uid -> where its colours sit in the shard blocks (the
        # copy engine's BlockLayout), built with the instances.
        self._layouts: dict[int, BlockLayout] = {}
        self.pair_sets: dict[str, IntersectionResult] = {}
        # Loop-invariant ComputeIntersections statements hit this cache,
        # keyed on partition identity, so an intersection inside a time
        # loop is evaluated once; a copy with no pair set keeps its
        # all-pairs table here, under the copy's uid.
        self._isect_cache: dict[Any, IntersectionResult] = {}
        self.intersections_computed = 0
        # Only reduction folds still need locking: ufunc.at on a shared
        # destination is not atomic across threads or processes.  Built
        # per launch before any shard: one lock per (copy stmt uid, dst
        # shard), and per reduction copy uid its colours' fold_keys (the
        # test hook _force_locked_reductions keeps every lock).
        self._copy_locks: dict[tuple[int, int], Any] = {}
        self._fold_keys: dict[int, np.ndarray] = {}
        self._force_locked_reductions = False
        # Backends with shared instances allocate them from this arena so
        # forked shard processes all map them; created on first allocation.
        self._arena = None
        self._dist_frozen = False

    def run(self, program):
        # Every run starts fresh: it re-allocates every distributed
        # instance, so no intersection result, pair set, lock or plan
        # resolved against an earlier run's instances may leak into it.
        self._fresh_session()
        try:
            result = super().run(program)
            # Flush the flight rings on clean shutdown too, so a dump
            # directory holds the final iteration's records, not only
            # crash windows.
            if self.flight_dir:
                self.dump_flight()
            return result
        except BaseException as exc:
            # Failed shards are what the flight recorder exists for.
            self.dump_flight(exc)
            raise
        finally:
            # Unlink shared-memory segment names eagerly (mappings — and
            # therefore the instances — stay valid until process exit).
            self.close()

    def dump_flight(self, exc: BaseException | None = None,
                    last_s: float | None = None) -> str | None:
        """Dump the flight rings as a Chrome trace; returns the path.

        The trace object is also attached to ``exc`` (as
        ``exc.flight_trace``) so callers that contained the failure can
        inspect or persist it without touching the filesystem.  A file is
        written only when a dump directory is configured (``flight_dir=``
        / ``REPRO_FLIGHT_DIR``).
        """
        if self.flight is None or self.flight.records_total() == 0:
            return None
        trace = self.flight.to_chrome(last_s=last_s)
        if exc is not None:
            exc.flight_trace = trace
        if not self.flight_dir:
            return None
        os.makedirs(self.flight_dir, exist_ok=True)
        path = os.path.join(
            self.flight_dir,
            f"flight_{os.getpid()}_{time.time_ns() // 1000}.json")
        with open(path, "w") as fh:
            json.dump(trace, fh)
        if exc is not None:
            exc.flight_path = path
        return path

    def export_flight_metrics(self, registry: MetricsRegistry | None = None):
        """Export ``flight_*``/``skew_*``/``drift_*`` gauges from the rings.

        Returns ``(skew_report, drift_report)`` (either may be ``None``
        when too little history exists).  Callers pass the registry the
        run recorded into; defaults to the executor's own.
        """
        from ..obs.drift import export_drift_metrics
        from ..obs.skew import export_skew_metrics
        registry = registry if registry is not None else self.metrics
        if self.flight is None or not registry.enabled:
            return None, None
        skew = export_skew_metrics(self.flight, registry)
        drift = export_drift_metrics(self.flight, registry)
        return skew, drift

    def _fresh_session(self) -> None:
        """Drop every per-run cache and release the arena, so the executor
        behaves as if freshly constructed (root ``instances`` and
        configuration are kept)."""
        self.dist.clear()
        self._block_rows.clear()
        self._layouts.clear()
        self.pair_sets.clear()
        self._isect_cache.clear()
        self._copy_locks.clear()
        self._fold_keys.clear()
        self._plans.clear()
        self.close()
        self._arena = None
        self._dist_frozen = False

    def close(self) -> None:
        """Release OS resources (shared-memory names) held by instances."""
        if self._arena is not None:
            self._arena.release()

    # -- distributed storage -----------------------------------------------
    def _instance_allocator(self):
        if not self.backend.shared_instances:
            return np.zeros
        if self._arena is None:
            from ..regions.shm import SharedMemoryArena
            self._arena = SharedMemoryArena()
        return self._arena.allocate

    def dist_instance(self, part: Partition, color: int) -> PhysicalInstance:
        inst = self.dist.get((part.uid, color))
        if inst is None:
            self._layout(part)
            inst = self.dist[(part.uid, color)]
        return inst

    def _layout(self, part: Partition) -> BlockLayout:
        """Where ``part``'s colours sit in the shard blocks, allocating
        them at the first request."""
        layout = self._layouts.get(part.uid)
        if layout is None:
            if self._dist_frozen:
                raise RuntimeError(
                    f"instances of {part.name} requested inside a shard "
                    f"process but not materialized pre-fork — they would "
                    f"be process-private and silently wrong")
            layout = self._allocate_partition(part)
        return layout

    def _allocate_partition(self, part: Partition) -> BlockLayout:
        """Allocate every colour's instance of ``part`` at once: the colours
        shard ``x`` owns are consecutive slices, in colour order, of one
        block per field from the backend's allocator, so a batched launch
        over them is a view of the block (:meth:`block_rows`)."""
        alloc = self._instance_allocator()
        fspace = part.parent.fspace
        ns, n = self.num_shards, part.num_colors
        table = part.colour_table
        prefix = table.prefix.tolist()
        shard_blocks, arrays = [], []
        for x in range(ns):
            colors = shard_owned_colors(n, ns, x)
            base = prefix[colors.start]
            blocks = {f: alloc((prefix[colors.stop] - base, *eshape), dtype)
                      for f, (dtype, eshape) in fspace.items()}
            shard_blocks.append(blocks)
            for c in colors:
                lo, hi = prefix[c] - base, prefix[c + 1] - base
                # PhysicalInstance allocates its fields in fspace order.
                rows = iter([block[lo:hi] for block in blocks.values()])
                inst = self.dist[(part.uid, c)] = PhysicalInstance(
                    part[c], allocator=lambda *_: next(rows))
                self._block_rows[(part.uid, c)] = (blocks, lo, hi)
                arrays.append(inst.fields)
        owner = color_owners(n, ns)
        layout = self._layouts[part.uid] = BlockLayout(
            table, owner, table.prefix[n * owner // ns], shard_blocks,
            arrays)
        return layout

    def block_rows(self, region) -> tuple[dict, int, int]:
        """``(blocks, lo, hi)``: the distributed instance of ``region`` (a
        partition's subregion) holds rows ``lo:hi`` of ``blocks[field]``."""
        return self._block_rows[(region.parent_partition.uid, region.color)]

    def region_instance(self, region) -> PhysicalInstance:
        """The distributed instance of a partition's subregion."""
        return self.dist_instance(region.parent_partition, region.color)

    # -- main-level statements ----------------------------------------------
    def _stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, (InitCopy, FinalCopy)):
            # Launch entry (root instance to shard blocks) and exit.
            part = stmt.partition
            apply_root_copy(stmt.uid, stmt.fields,
                            self.root_instance(part.parent),
                            self._layout(part), isinstance(stmt, InitCopy))
        elif isinstance(stmt, ComputeIntersections):
            key = (stmt.src.uid, stmt.dst.uid)
            result = self._isect_cache.get(key)
            if result is None:
                result = compute_intersections(stmt.src, stmt.dst)
                self._isect_cache[key] = result
                self.intersections_computed += 1
                if self.metrics.enabled:
                    self.metrics.counter(
                        "spmd_intersections_computed_total").inc()
                    self.metrics.gauge(
                        "spmd_intersection_seconds", pair_set=stmt.name).set(
                        result.shallow_seconds + result.complete_seconds)
                    self.metrics.gauge(
                        "spmd_intersection_nonempty_pairs",
                        pair_set=stmt.name).set(len(result.pairs))
            self.pair_sets[stmt.name] = result
        elif isinstance(stmt, ShardLaunch):
            self._shard_launch(stmt)
        else:
            super()._stmt(stmt)

    # -- shard launch ------------------------------------------------------------
    def _shard_launch(self, stmt: ShardLaunch) -> None:
        ns = stmt.num_shards or self.num_shards
        backend = self.backend
        spec = launch_spec(stmt, self._copy_pairs, ns)
        # Materialize every instance a shard might touch before any shard
        # exists (and, for forked shards, where they all map it).
        for part in spec.partitions:
            self._layout(part)
        # One lock per (reduction copy stmt, dst shard), of the kind the
        # backend's producers need, and the colours that need none.
        self._copy_locks = {key: backend.lock()
                            for key in spec.reduction_dsts}
        self._fold_keys = {
            s.uid: fold_keys(s, self._pair_table(s).table, ns,
                             self._force_locked_reductions)
            for s in spec.copies if s.redop is not None}
        states = [_ShardState(shard=x, scalars=dict(self.scalars))
                  for x in range(ns)]
        if self.flight is not None:
            self.flight.names.update(spec.names)
            for st in states:
                st.flight = self.flight.ring(st.shard)
        # Where each ring stood: the launch's records are the ones after.
        bases = [st.flight.count for st in states]
        backend.launch(self, stmt, spec, states)
        self._merge_scalars(states)
        self._merge_counters(states)
        self._export_metrics(states, bases, self.net_stats)
        # A finished state and its compiled windows' closures hold each
        # other; dropping the plans lets refcounting free the run's
        # instances instead of a later pass of the cyclic gc.
        for st in states:
            st.loop_replays.clear()

    def _pair_table(self, stmt: PairwiseCopy) -> IntersectionResult:
        """The evaluated pair set ``stmt`` copies over.  A copy with no
        pair set visits all ``(i, j)``; its table of the non-empty ones
        comes from the same join, once."""
        if stmt.pairs_name is not None:
            return self.pair_sets[stmt.pairs_name]
        res = self._isect_cache.get(stmt.uid)
        if res is None:
            res = self._isect_cache[stmt.uid] = dataclass_replace(
                compute_intersections(stmt.src, stmt.dst), all_pairs=True)
        return res

    def _copy_pairs(self, stmt: PairwiseCopy) -> np.ndarray:
        """The ``(i, j)`` pairs ``stmt`` visits, in pair order, as a
        ``(k, 2)`` array (what :func:`launch_spec` numbers channels by)."""
        return self._pair_table(stmt).visited()

    def _merge_counters(self, states: list[_ShardState]) -> None:
        for st in states:
            for name in st.COUNTERS:
                setattr(self, name, getattr(self, name) + getattr(st, name))

    def _export_metrics(self, states: list[_ShardState], bases: list[int],
                        net_stats: dict[int, dict]) -> None:
        """Fill the registry from what one launch left behind, once, in
        this process: the shards run with no registry at all.

        Per shard: its ``COUNTERS`` mirror; ``spmd_task_seconds{shard,task}``
        from its TASK records (ring sequence numbers from ``bases[x]`` on)
        whose uid names a task launch — a compiled window's TASK records
        carry its loop's uid and stay out; ``spmd_wait_seconds{shard,kind}``
        from every WAIT record, ``kind`` being the kind of statement its
        uid names (``copy``, ``collective``) or ``event``;
        the window pass timings; and its rank's wire totals from
        ``net_stats``.  The histograms cover what the ring still held.
        """
        m = self.metrics
        if not m.enabled:
            return
        names = self.flight.names if self.flight is not None else {}
        for st, base in zip(states, bases):
            shard = str(st.shard)
            for name, (metric, labels) in st.COUNTERS.items():
                m.counter(metric, shard=shard, **labels).inc(getattr(st, name))
            recs = st.flight.export_since(base)
            secs = recs["t1"] - recs["t0"]
            for kind in (_flight.TASK, _flight.WAIT):
                mine = recs["kind"] == kind
                uids, dur = recs["uid"][mine], secs[mine]
                # One histogram update per uid, not per record.
                for uid in np.unique(uids).tolist():
                    stmt_kind, _, stmt_name = names.get(uid, "").partition(":")
                    if kind == _flight.WAIT:
                        h = m.histogram("spmd_wait_seconds", shard=shard,
                                        kind=stmt_kind or "event")
                    elif stmt_kind == "task":
                        h = m.histogram("spmd_task_seconds", shard=shard,
                                        task=stmt_name)
                    else:  # a compiled window's TASK record: its loop's uid
                        continue
                    h.observe_many(dur[uids == uid])
            export_pass_metrics(m, "spmd_window_pass", st.window_passes)
            net = net_stats.get(st.shard)
            if net is None:
                continue
            for direction in ("sent", "recv"):
                m.counter(f"net_bytes_{direction}_total",
                          rank=shard).inc(net[f"bytes_{direction}"])
                for kind, n in net[f"messages_{direction}"].items():
                    m.counter("net_messages_total", rank=shard, kind=kind,
                              direction=direction).inc(n)

    def _merge_scalars(self, states: list[_ShardState]) -> None:
        if self.validate_replication and len(states) > 1:
            ref = states[0].scalars
            for st in states[1:]:
                if st.scalars != ref:
                    diff = {k for k in ref if st.scalars.get(k) != ref.get(k)}
                    raise ReplicationDivergence(
                        f"shard {st.shard} scalar state diverged on {sorted(diff)}")
            # Capture decisions are a function of the replicated control
            # flow and schedule keys, so shards freezing a loop at
            # different iterations means the replicated state diverged.
            ref_cp = states[0].capture_points
            for st in states[1:]:
                if st.capture_points != ref_cp:
                    raise ReplicationDivergence(
                        f"shard {st.shard} froze replay traces at different "
                        f"iterations than shard {states[0].shard}: "
                        f"{st.capture_points} != {ref_cp}")
        self.scalars.update(states[0].scalars)

    # -- shard interpreter (a generator yielding blocking events) -------------
    def _run_shard(self, stmt: ShardLaunch, state: _ShardState,
                   ctx: CommContext) -> Iterator[Event | None]:
        """One shard's side of a launch: its :class:`ShardPlan` (and the
        context's messages from it), then the statements, which read it."""
        plan = plan_shard(stmt.body, state.shard, self, ctx, state.flight)
        ctx.bind_plan(plan)
        yield from self._shard_body(stmt.body, state, plan)

    def _shard_body(self, block: Block, state: _ShardState,
                    plan: ShardPlan, rec=None) -> Iterator[Event | None]:
        for stmt in block.stmts:
            yield from self._shard_stmt(stmt, state, plan, rec)

    def _shard_stmt(self, stmt: Stmt, state: _ShardState,
                    plan: ShardPlan, rec=None) -> Iterator[Event | None]:
        if isinstance(stmt, ScalarAssign):
            if rec is not None:
                rec.assign(stmt.uid, stmt.name, stmt.expr)
            state.scalars[stmt.name] = evaluate(stmt.expr, state.scalars)
        elif isinstance(stmt, ForRange):
            start = evaluate(stmt.start, state.scalars)
            stop = evaluate(stmt.stop, state.scalars)
            if rec is None:
                # Outermost loop on this shard: the capture/replay window.
                yield from self._replay_loop(
                    stmt, stmt.var, range(int(start), int(stop)), state, plan)
                return
            # A nested loop replays only while its bounds still evaluate
            # to the captured values at the start of the iteration.
            rec.guard(stmt.start, start, as_bool=False)
            rec.guard(stmt.stop, stop, as_bool=False)
            for v in range(int(start), int(stop)):
                rec.setvar(stmt.var, v)
                state.scalars[stmt.var] = v
                yield from self._shard_body(stmt.body, state, plan, rec)
        elif isinstance(stmt, WhileLoop):
            if rec is None:
                # One value per iteration, until the condition is false.
                taken = iter(lambda: bool(evaluate(stmt.cond, state.scalars)),
                             False)
                yield from self._replay_loop(stmt, None, taken, state, plan)
                return
            while True:
                taken = bool(evaluate(stmt.cond, state.scalars))
                rec.guard(stmt.cond, taken, as_bool=True)
                if not taken:
                    break
                yield from self._shard_body(stmt.body, state, plan, rec)
        elif isinstance(stmt, IfStmt):
            taken = bool(evaluate(stmt.cond, state.scalars))
            if rec is not None:
                rec.guard(stmt.cond, taken, as_bool=True)
            yield from self._shard_body(
                stmt.then_block if taken else stmt.else_block, state, plan,
                rec)
        elif isinstance(stmt, IndexLaunch):
            yield from self._shard_launch_stmt(stmt, state, plan, rec)
        elif isinstance(stmt, FillReductionBuffer):
            fills = plan.steps[stmt.uid]
            for arr, value in fills:
                arr[...] = value
            if rec is not None:
                rec.fill(stmt.uid, fills)
                rec.yield_none()
            yield None
        elif isinstance(stmt, PairwiseCopy):
            yield from self._exec_copy(stmt, state, plan, rec)
        elif isinstance(stmt, ScalarCollective):
            coll = plan.steps[stmt.uid]
            g = state.next_epoch(stmt.uid)
            if rec is not None:
                rec.collective(stmt.uid, coll, g, stmt.name)
            partial = state.pending_reductions.pop(stmt.name, None)
            ev = coll.contribute(g, partial)
            yield ev
            state.scalars[stmt.name] = coll.result(g)
        elif isinstance(stmt, ShardLaunch):
            raise TypeError("nested shard launches are not supported")
        else:
            raise TypeError(
                f"shard interpreter cannot execute {type(stmt).__name__}")

    # -- steady-state capture & replay -----------------------------------------
    def _replay_loop(self, stmt: Stmt, var: str | None, values,
                     state: _ShardState,
                     plan: ShardPlan) -> Iterator[Event | None]:
        """Run an outermost loop, capturing and then replaying steady state.

        Each iteration either replays the frozen window (all guards hold)
        or interprets under a fresh :class:`IterationRecorder`, so a guard
        miss costs only that one interpreted iteration.
        """
        lr = state.loop_replays.get(stmt.uid)
        if lr is None:
            lr = state.loop_replays[stmt.uid] = LoopReplay(stmt.uid, plan)
        flight = state.flight
        perf = time.perf_counter
        for v in values:
            if var is not None:
                state.scalars[var] = v
            trace = lr.trace
            if trace is not None:
                if trace.guards_hold(state.scalars):
                    state.replay_hits += 1
                    tf = perf()
                    yield from trace.replay(state)
                    flight.record(_flight.ITER, stmt.uid, tf, perf())
                    continue
                # A frozen window exists but a hoisted guard failed: fall
                # back to interpretation for this iteration only.
                state.replay_guard_fallbacks += 1
            state.replay_misses += 1
            rec = lr.begin_iteration(state.epochs)
            tf = perf()
            yield from self._shard_body(stmt.body, state, plan, rec)
            # Stamped before end_iteration: a freeze records its own
            # COMPILE interval, which must not also count as capture.
            flight.record(_flight.CAPTURE, stmt.uid, tf, perf())
            lr.end_iteration(state)

    def _shard_launch_stmt(self, stmt: IndexLaunch, state: _ShardState,
                           plan: ShardPlan, rec=None) -> Iterator[Event | None]:
        """Run this shard's :class:`LaunchPlan` of ``stmt``, planned before
        the shard's first statement: one TASK flight record and one
        preemption point per call."""
        launch = plan.steps[stmt.uid]
        if rec is not None:
            rec.launch(launch)
        record, perf = state.flight.record, time.perf_counter
        t0 = perf()
        for call in launch.calls:
            try:
                launch.step(call, state)
            finally:
                # Recorded even when the task raises: the failing task is
                # the record the post-mortem flight dump exists to show.
                record(_flight.TASK, stmt.uid, t0, perf())
            state.tasks_executed += call.points
            yield None  # preemption point: one call executed
            t0 = perf()

    # -- copies -----------------------------------------------------------------
    def _exec_copy(self, stmt: PairwiseCopy, state: _ShardState,
                   plan: ShardPlan, rec=None) -> Iterator[Event | None]:
        """One copy statement, in the phase order a compiled window keeps:
        all ack advances, all ack waits, one send per peer shard then the
        in-memory batch, all ready advances, one preemption point, all
        ready waits (barrier mode: the ``pre`` rendezvous, sends and batch,
        the preemption point, ``post``).  Every shard, interpreting or
        replaying, makes all of its ack advances at statement entry and
        before its first wait, so no wait here can be part of a cycle.
        An event that is already set is not yielded."""
        uid, ctx = stmt.uid, plan.ctx
        sched = plan.steps[uid]
        g = state.next_epoch(uid)

        def rendezvous(coll):
            # A barrier: a collective that carries nothing.
            if rec is not None:
                rec.collective(uid, coll, g)
            ev = coll.contribute(g, None)
            if not ev.is_set():
                yield ev
            coll.result(g)

        if sched.rendezvous:
            yield from rendezvous(sched.rendezvous[0])
        if sched.ack_advances:
            # Consumer side first: arrival at this statement in epoch g means
            # every read of the epoch g-1 data precedes this point in the
            # replicated program order — the write-after-read release.
            if rec is not None:
                rec.advance_group(uid, "ack", sched.ack_advances, g)
            ctx.advance_group(sched.ack_advances, g)
        if sched.ack_waits:
            # WAR: each consumer must have arrived at epoch g before its
            # instance is overwritten with epoch g data.
            if rec is not None:
                rec.wait_group(uid, "ack", sched.ack_waits, g)
            for seq, label in sched.ack_waits:
                ev = seq.event_for(g, label)
                if not ev.is_set():
                    yield ev

        if sched.sends:
            ctx.send(stmt, state, rec)
        if rec is not None:
            rec.fused(uid, g, sched.batch)
        self._apply_batch(sched.batch, state)
        if sched.ready_advances:
            if rec is not None:
                rec.advance_group(uid, "rdy", sched.ready_advances, g)
            ctx.advance_group(sched.ready_advances, g)
        if sched.batch.visits or sched.sends:
            if rec is not None:
                rec.yield_none()
            yield None  # preemption point: this shard's copies are issued

        if sched.ready_waits:
            if rec is not None:
                rec.wait_group(uid, "rdy", sched.ready_waits, g)
            for seq, label in sched.ready_waits:
                ev = seq.event_for(g, label)
                if not ev.is_set():
                    yield ev
        if sched.rendezvous:
            yield from rendezvous(sched.rendezvous[1])

    @staticmethod
    def _apply_batch(batch: FusedBatch, state: _ShardState) -> None:
        """Apply a statement's batch (each item takes its fold lock, if it
        has one) and count it: one COPY flight record when it moves data."""
        if batch.items:
            t0 = time.perf_counter()
            batch.apply()
            state.flight.record(_flight.COPY, batch.uid, t0,
                                time.perf_counter(), batch.nbytes)
        for name, n in batch.counter_deltas():
            setattr(state, name, getattr(state, name) + n)

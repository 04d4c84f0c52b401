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

Four drivers share one shard interpreter (a generator that yields the
events it blocks on) and one launch path (:mod:`repro.runtime.launch`:
spec → context → drive → funnel): a **stepped** driver interleaves shards
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
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, ClassVar, Iterator, NamedTuple

import numpy as np

from ..core.ir import (
    BarrierStmt,
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
from ..core.shards import owner_of_color, shard_owned_colors
from ..obs import NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer
from ..obs import flight as _flight
from ..obs.flight import NULL_RING, FlightRecorder, ShardRing
from ..regions.partition import Partition
from ..regions.region import PhysicalInstance, reduction_identity
from ..tasks.task import call_task
from .backends import ensure_backend
from .collectives import SCALAR_REDUCTIONS
from .copy_engine import FusedBatch, disjoint_dst_colors, lower_copy
from .events import Event
from .intersection_exec import IntersectionResult, compute_intersections
from .launch import (CommContext, DeadlockError, ShardExceptionGroup,
                     launch_spec)
from .window import LoopReplay, ReplayError
from .sequential import SequentialExecutor

__all__ = ["SPMDExecutor", "DeadlockError", "ReplicationDivergence",
           "ReplayError", "ShardExceptionGroup"]


class ReplicationDivergence(RuntimeError):
    """Replicated scalar state diverged across shards (compiler bug)."""


# The per-shard counters: field name -> (metric it mirrors into, labels).
# This table is the only list of them — it drives a state's zeroing and
# reset, the child -> parent payload of the forking backends, the
# executor's totals (same attribute names) and the metric mirror; the hot
# paths bump the fields directly (``state.x += 1``).  Copy counters
# accumulate per shard (no shared lock on the copy path) and are merged
# into the executor totals after the drivers run.
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


class _CopySchedule(NamedTuple):
    """One shard's side of one copy statement, loop-invariant for the
    launch: its in-memory pairs lowered to one
    :class:`~repro.runtime.copy_engine.FusedBatch`, the pairs it sends as
    ``(peer, pairs)`` groups, the ids of the arrays its handshake protects
    (its owned destination instances: fission's footprint), and what each
    handshake phase touches — the sequences it advances as tuples, the
    ones it waits on as ``(sequence, label)`` tuples, in the shapes the
    recorder stores — or, in barrier mode, ``(tag, barrier, label)`` for
    ``pre`` and ``post``."""

    batch: FusedBatch
    sends: tuple = ()
    protect: frozenset = frozenset()
    ack_advances: tuple = ()
    ack_waits: tuple = ()
    ready_advances: tuple = ()
    ready_waits: tuple = ()
    barriers: tuple = ()


@dataclass
class _ShardState:
    shard: int
    scalars: dict[str, Any]
    epochs: dict[int, int] = field(default_factory=dict)
    pending_reductions: dict[str, Any] = field(default_factory=dict)
    # Per-shard metrics child; single-owner during the run, so instrument
    # updates take no lock.  Merged back by the executor after the join.
    metrics: MetricsRegistry = NULL_METRICS
    # Always-on flight ring (repro.obs.flight): single-writer, bounded.
    # Unlike metrics, the ring deliberately survives reset_for_run — it
    # is a rolling window over the shard's recent history, which is
    # exactly what a post-failure dump should show.
    flight: ShardRing = NULL_RING
    # loop uid -> iteration index at which this shard froze its trace.
    # Capture decisions are replicated control flow, so all shards must
    # agree; validated after the launch like scalar state.
    capture_points: dict[int, int] = field(default_factory=dict)
    loop_replays: dict[int, LoopReplay] = field(default_factory=dict)
    # copy stmt uid -> this shard's _CopySchedule of it, built the first
    # time the statement runs.  Part of the plan half: it names the launch
    # context's channels and holds the statement's one lowered batch,
    # which every interpreted iteration applies and a frozen window
    # replays.
    copy_schedules: dict[int, "_CopySchedule"] = field(default_factory=dict)
    # Inspector plans (Task.bound) of this shard's interpreted point tasks,
    # so captured and guard-fallback iterations inspect once.  A freeze
    # hands each frozen entry its plan from here; dropped at the end of
    # any recorded iteration that leaves the loop holding a window.
    plans: dict[tuple, Any] = field(default_factory=dict)
    # One int attribute per row, zeroed at construction and per run.
    COUNTERS: ClassVar[dict] = COUNTERS

    def zero_counters(self) -> None:
        for name in self.COUNTERS:
            setattr(self, name, 0)

    __post_init__ = zero_counters

    def next_epoch(self, uid: int) -> int:
        g = self.epochs.get(uid, 0) + 1
        self.epochs[uid] = g
        return g

    def reset_for_run(self, scalars: dict[str, Any],
                      metrics: MetricsRegistry) -> None:
        """Prepare a persistent shard state for another run of its program.

        The per-program *plan* half of this state survives: ``epochs``
        (frozen window closures captured the dict object, and the sync
        sequences it indexes are monotone across runs), ``loop_replays``
        (the frozen ``CompiledWindow`` plans themselves),
        and ``capture_points``.  The per-run *data* half is replaced:
        ``scalars`` and ``metrics`` are swapped as whole objects (plan
        closures read them as attributes, never capture the old dicts)
        and every counter restarts at zero so the executor's post-launch
        merge reports only this run's work.
        """
        self.scalars = scalars
        self.metrics = metrics
        self.pending_reductions.clear()
        self.zero_counters()


class SPMDExecutor(SequentialExecutor):
    """Execute a control-replicated program across ``num_shards`` shards."""

    def __init__(self, num_shards: int, mode: str = "stepped", seed: int = 0,
                 instances=None, validate_replication: bool = True,
                 tracer: Tracer = NULL_TRACER, deadlock_timeout: float = 60.0,
                 metrics: MetricsRegistry = NULL_METRICS,
                 window_dump_after: frozenset = frozenset(),
                 window_dump_sink=None, retain_plans: bool = False,
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
        self.window_dump_after = frozenset(window_dump_after)
        self.window_dump_sink = window_dump_sink
        # Run totals of the per-shard counters, under the same names.
        for name in _ShardState.COUNTERS:
            setattr(self, name, 0)
        self.validate_replication = validate_replication
        self.tracer = tracer
        self.metrics = metrics
        # The shard runtime's one timeline: one bounded ring per shard,
        # written by every driver.  A tracer shows the rings' rows, so an
        # executor that has one always records.  REPRO_FLIGHT_DIR (or
        # flight_dir=) names where failure dumps land; without it the
        # Chrome trace is attached to the raised ShardExceptionGroup but
        # not written to disk.
        self.flight: FlightRecorder | None = (
            FlightRecorder(num_shards, capacity=flight_capacity)
            if flight or tracer.enabled else None)
        if tracer.enabled:
            tracer.attach(self.flight)
        self.flight_dir = (flight_dir if flight_dir is not None
                           else os.environ.get("REPRO_FLIGHT_DIR") or None)
        self.deadlock_timeout = deadlock_timeout
        self.dist: dict[tuple[int, int], PhysicalInstance] = {}
        # (partition uid, color) -> (the owning shard's field blocks, lo,
        # hi): the colour's instance arrays are rows lo:hi of the blocks.
        self._block_rows: dict[tuple[int, int], tuple[dict, int, int]] = {}
        self.pair_sets: dict[str, IntersectionResult] = {}
        # Loop-invariant ComputeIntersections statements hit this cache,
        # keyed on partition identity, so an intersection inside a time
        # loop is evaluated once rather than per epoch.
        self._isect_cache: dict[tuple[int, int], IntersectionResult] = {}
        self.intersections_computed = 0
        # Only reduction-operator copies still need locking: ufunc.at on a
        # shared destination is not atomic across threads or processes.
        # _copy_locks holds one lock per (copy stmt uid, dst color), built
        # per shard launch with the backend's lock factory; _copy_lock is
        # the fallback for main-level copies, which run sequentially and
        # never went through a launch.  Destinations whose
        # inbound contributions are provably disjoint across producer
        # shards (_disjoint_cache, computed from the evaluated pair sets)
        # skip locking entirely unless _force_locked_reductions is set
        # (test hook for the lock-free-vs-locked equivalence check).
        self._copy_lock = threading.Lock()
        self._copy_locks: dict[tuple[int, int], Any] = {}
        self._disjoint_cache: dict[tuple[int, int], frozenset] = {}
        self._field_widths: dict[int, int] = {}
        self._force_locked_reductions = False
        # Backends with shared instances allocate them from this arena so
        # forked shard processes all map them; created on first allocation.
        self._arena = None
        self._dist_frozen = False
        # Compile-once/serve-many (repro.serve): with retain_plans the
        # executor becomes resident — distributed instances, intersection
        # results, reduction locks, sync contexts, and the per-shard
        # frozen replay plans all survive run() so a repeated run of the
        # *same* program skips capture and goes straight to replay.  All
        # of those caches are resolved against one program's partitions
        # and statement uids, so they are keyed to the program object: a
        # run() with any other program resets the session first.
        self.retain_plans = retain_plans
        self._resident_program = None
        self._resident_states: dict[int, list[_ShardState]] = {}
        self._resident_ctx: dict[int, CommContext] = {}
        self._resident_locks: dict[int, dict[tuple[int, int], Any]] = {}

    def run(self, program):
        if not (self.retain_plans and program is self._resident_program):
            # A fresh (or different) program re-allocates every distributed
            # instance, so intersection results, pair sets, reduction
            # locks, and frozen plans resolved against the old instances
            # must not leak into this run.
            self.reset_session()
            self._resident_program = program if self.retain_plans else None
        try:
            result = super().run(program)
            # Flush the flight rings on clean shutdown too, so `repro
            # top` over a dump directory shows the final iteration's
            # records, not only crash windows.
            if self.flight_dir:
                self.dump_flight()
            return result
        except BaseException as exc:
            # Failed shards are what the flight recorder exists for: dump
            # the final window before the resident state is torn down.
            if isinstance(exc, ShardExceptionGroup):
                self.dump_flight(exc)
            # A failed run leaves resident state (epochs vs. sync
            # sequences, partially executed plans) inconsistent; the next
            # run must rebuild from scratch rather than replay into it.
            if self.retain_plans:
                self.reset_session()
            raise
        finally:
            if not self.retain_plans:
                # Unlink shared-memory segment names eagerly (mappings —
                # and therefore the instances — stay valid until process
                # exit).  Resident executors keep the arena warm; their
                # owner calls close() when evicting them.
                self.close()

    def dump_flight(self, exc: BaseException | None = None,
                    last_s: float | None = None) -> str | None:
        """Dump the flight rings as a Chrome trace; returns the path.

        The trace object is also attached to ``exc`` (as
        ``exc.flight_trace``) so callers that contained the failure — the
        serve engine, tests — can inspect or persist it without touching
        the filesystem.  A file is written only when a dump directory is
        configured (``flight_dir=`` / ``REPRO_FLIGHT_DIR``).
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

    def reset_session(self) -> None:
        """Drop every per-program cache and plan; release the arena.

        After this the executor behaves as if freshly constructed (root
        ``instances`` and configuration are kept).  Called automatically
        when ``run()`` sees a different program than the resident one.
        """
        self.dist.clear()
        self._block_rows.clear()
        self.pair_sets.clear()
        self._isect_cache.clear()
        self._copy_locks.clear()
        self._disjoint_cache.clear()
        self._field_widths.clear()
        self._plans.clear()
        self._resident_program = None
        self._resident_states.clear()
        self._resident_ctx.clear()
        self._resident_locks.clear()
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
            if self._dist_frozen:
                raise RuntimeError(
                    f"instance for ({part.name}, {color}) requested inside a "
                    f"shard process but was not materialized pre-fork — it "
                    f"would be process-private and silently wrong")
            self._allocate_partition(part)
            inst = self.dist[(part.uid, color)]
        return inst

    def _allocate_partition(self, part: Partition) -> None:
        """Allocate every colour's instance of ``part`` at once: the colours
        shard ``x`` owns are consecutive slices, in colour order, of one
        block per field from the backend's allocator, so a batched launch
        over them is a view of the block (:meth:`block_rows`)."""
        alloc = self._instance_allocator()
        fspace = part.parent.fspace
        for x in range(self.num_shards):
            colors = shard_owned_colors(part.num_colors, self.num_shards, x)
            ends = np.cumsum([0] + [part[c].volume for c in colors]).tolist()
            blocks = {f: alloc((ends[-1], *eshape), dtype)
                      for f, (dtype, eshape) in fspace.items()}
            for c, lo, hi in zip(colors, ends, ends[1:]):
                # PhysicalInstance allocates its fields in fspace order.
                rows = iter([block[lo:hi] for block in blocks.values()])
                self.dist[(part.uid, c)] = PhysicalInstance(
                    part[c], allocator=lambda *_: next(rows))
                self._block_rows[(part.uid, c)] = (blocks, lo, hi)

    def block_rows(self, region) -> tuple[dict, int, int]:
        """``(blocks, lo, hi)``: the distributed instance of ``region`` (a
        partition's subregion) holds rows ``lo:hi`` of ``blocks[field]``."""
        return self._block_rows[(region.parent_partition.uid, region.color)]

    def region_instance(self, region) -> PhysicalInstance:
        """The distributed instance of a partition's subregion."""
        return self.dist_instance(region.parent_partition, region.color)

    # -- main-level statements ----------------------------------------------
    def _stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, InitCopy):
            self._init_copy(stmt)
        elif isinstance(stmt, FinalCopy):
            self._final_copy(stmt)
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
                        pair_set=stmt.name).set(len(result.nonempty_pairs()))
            self.pair_sets[stmt.name] = result
        elif isinstance(stmt, ShardLaunch):
            self._shard_launch(stmt)
        elif isinstance(stmt, PairwiseCopy):
            # Possible if placement hoisted a copy out of the whole fragment;
            # at main level it is sequential, no synchronization needed.
            state = _ShardState(shard=0, scalars=self.scalars)
            self._apply_batch(
                self._lower_copy(stmt, self._copy_pairs(stmt), 1), state)
            self._merge_counters([state])
        else:
            super()._stmt(stmt)

    def _init_copy(self, stmt: InitCopy) -> None:
        part = stmt.partition
        root_inst = self.root_instance(part.parent)
        for c in part.colors:
            pts = part.subset(c)
            if pts:
                self.dist_instance(part, c).copy_from(root_inst, pts, stmt.fields)

    def _final_copy(self, stmt: FinalCopy) -> None:
        part = stmt.partition
        root_inst = self.root_instance(part.parent)
        for c in part.colors:
            pts = part.subset(c)
            if pts:
                root_inst.copy_from(self.dist_instance(part, c), pts, stmt.fields)

    # -- shard launch ------------------------------------------------------------
    def _shard_launch(self, stmt: ShardLaunch) -> None:
        ns = stmt.num_shards or self.num_shards
        backend = self.backend
        spec = launch_spec(stmt, self._copy_pairs, ns)
        # Materialize every instance a shard might touch before any shard
        # exists (and, for forked shards, where they all map it).
        for part in spec.partitions:
            for c in part.colors:
                self.dist_instance(part, c)
        # Plans persist only where they can: where a launch's shards die
        # with it, a resident executor still reuses the compiled program,
        # the warm arena and the intersection results, but re-captures
        # per run.
        persistent = self.retain_plans and backend.resident
        # One lock per (reduction copy stmt, dst color), of the kind the
        # backend's producers need.  Resident launches must *reuse* the
        # first launch's locks: frozen plans captured them, and an
        # interpreted guard-fallback iteration must contend on the same
        # lock objects the replaying shards hold.
        locks = self._resident_locks.get(stmt.uid) if persistent else None
        if locks is None:
            locks = {key: backend.lock() for key in spec.reduction_dsts}
            if persistent:
                self._resident_locks[stmt.uid] = locks
        self._copy_locks = locks
        states = self._resident_states.get(stmt.uid) if persistent else None
        if states is None:
            states = [_ShardState(shard=x, scalars=dict(self.scalars),
                                  metrics=self.metrics.child())
                      for x in range(ns)]
            if persistent:
                self._resident_states[stmt.uid] = states
        else:
            for st in states:
                st.reset_for_run(dict(self.scalars), self.metrics.child())
        if self.flight is not None:
            self.flight.names.update(spec.names)
            for st in states:
                st.flight = self.flight.ring(st.shard)
        backend.launch(self, stmt, spec, states)
        self._merge_scalars(states)
        self._merge_counters(states)
        if not persistent:
            # A finished state and its compiled windows' closures hold each
            # other; dropping the plans lets refcounting free the run's
            # instances instead of a later pass of the cyclic gc.
            for st in states:
                st.loop_replays.clear()

    def _copy_pairs(self, stmt: PairwiseCopy) -> list[tuple[int, int]]:
        if stmt.pairs_name is not None:
            return self.pair_sets[stmt.pairs_name].nonempty_pairs()
        return [(i, j) for i in stmt.src.colors for j in stmt.dst.colors]

    def _disjoint_dst(self, stmt: PairwiseCopy, ns: int) -> frozenset:
        """Dst colors of ``stmt`` whose inbound reduction contributions are
        disjoint across producer shards (pure function of the evaluated
        pair sets, so identical on every shard/process)."""
        key = (stmt.uid, ns)
        cached = self._disjoint_cache.get(key)
        if cached is None:
            cached = disjoint_dst_colors(
                self._copy_pairs(stmt), partial(self._pair_points, stmt),
                stmt.src.num_colors, ns)
            self._disjoint_cache[key] = cached
        return cached

    def _reduction_lock(self, stmt: PairwiseCopy, j: int, ns: int):
        """The lock a fold into ``(stmt, dst color j)`` must hold, or
        ``None`` for the contention-free fast path."""
        if (not self._force_locked_reductions
                and j in self._disjoint_dst(stmt, ns)):
            return None
        return self._copy_locks.get((stmt.uid, j), self._copy_lock)

    def _field_width(self, stmt: PairwiseCopy) -> int:
        width = self._field_widths.get(stmt.uid)
        if width is None:
            inst = self.dist_instance(stmt.dst, next(iter(stmt.dst.colors)))
            width = sum(inst.fields[f].dtype.itemsize for f in stmt.fields)
            self._field_widths[stmt.uid] = width
        return width

    def _merge_counters(self, states: list[_ShardState]) -> None:
        m = self.metrics
        for st in states:
            for name in st.COUNTERS:
                setattr(self, name, getattr(self, name) + getattr(st, name))
            if not m.enabled:
                continue
            # Funnel-back: fold the shard's lock-free child registry (wait
            # histograms, task timings) and mirror the scalar counters.
            if st.metrics is not m:
                m.merge(st.metrics)
            shard = str(st.shard)
            for name, (metric, labels) in st.COUNTERS.items():
                m.counter(metric, shard=shard, **labels).inc(getattr(st, name))

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
    def _shard_body(self, block: Block, state: _ShardState,
                    ctx: CommContext, rec=None) -> Iterator[Event | None]:
        for stmt in block.stmts:
            yield from self._shard_stmt(stmt, state, ctx, rec)

    def _shard_stmt(self, stmt: Stmt, state: _ShardState,
                    ctx: CommContext, rec=None) -> Iterator[Event | None]:
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
                    stmt, stmt.var, range(int(start), int(stop)), state, ctx)
                return
            if rec is not None:
                # A nested loop replays only while its bounds still evaluate
                # to the captured values at the start of the iteration.
                rec.guard(stmt.start, start, as_bool=False)
                rec.guard(stmt.stop, stop, as_bool=False)
            for v in range(int(start), int(stop)):
                if rec is not None:
                    rec.setvar(stmt.var, v)
                state.scalars[stmt.var] = v
                yield from self._shard_body(stmt.body, state, ctx, rec)
        elif isinstance(stmt, WhileLoop):
            if rec is None:
                yield from self._replay_loop(
                    stmt, None, self._while_values(stmt, state), state, ctx)
                return
            while True:
                taken = bool(evaluate(stmt.cond, state.scalars))
                if rec is not None:
                    rec.guard(stmt.cond, taken, as_bool=True)
                if not taken:
                    break
                yield from self._shard_body(stmt.body, state, ctx, rec)
        elif isinstance(stmt, IfStmt):
            taken = bool(evaluate(stmt.cond, state.scalars))
            if rec is not None:
                rec.guard(stmt.cond, taken, as_bool=True)
            yield from self._shard_body(
                stmt.then_block if taken else stmt.else_block, state, ctx, rec)
        elif isinstance(stmt, IndexLaunch):
            yield from self._shard_launch_stmt(stmt, state, ctx, rec)
        elif isinstance(stmt, FillReductionBuffer):
            self._shard_fill(stmt, state, ctx, rec)
            if rec is not None:
                rec.yield_none()
            yield None
        elif isinstance(stmt, PairwiseCopy):
            yield from self._exec_copy(stmt, state, ctx, rec)
        elif isinstance(stmt, BarrierStmt):
            g = state.next_epoch(stmt.uid)
            bar = ctx.barriers[stmt.tag]
            label = f"barrier{stmt.uid}:{stmt.tag}"
            if rec is not None:
                rec.barrier(stmt.uid, stmt.tag, bar, g, label)
            yield bar.arrive_and_wait_event(g, label=label)
        elif isinstance(stmt, ScalarCollective):
            coll = ctx.collectives[stmt.uid]
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
    @staticmethod
    def _while_values(stmt: WhileLoop, state: _ShardState):
        while evaluate(stmt.cond, state.scalars):
            yield None

    def _replay_loop(self, stmt: Stmt, var: str | None, values,
                     state: _ShardState,
                     ctx: CommContext) -> Iterator[Event | None]:
        """Run an outermost loop, capturing and then replaying steady state.

        Each iteration either replays the frozen window (all guards hold)
        or interprets under a fresh :class:`IterationRecorder`, so a guard
        miss costs only that one interpreted iteration.
        """
        lr = state.loop_replays.get(stmt.uid)
        if lr is None:
            lr = state.loop_replays[stmt.uid] = LoopReplay(stmt.uid, ctx)
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
            yield from self._shard_body(stmt.body, state, ctx, rec)
            # Stamped before end_iteration: a freeze records its own
            # COMPILE interval, which must not also count as capture.
            flight.record(_flight.CAPTURE, stmt.uid, tf, perf())
            lr.end_iteration(self, state)
            if lr.trace is not None:
                # The loop holds a window — frozen just now, or kept
                # through this guard fallback: it has what it needs of the
                # inspector plans, and no further capture will ask for them.
                state.plans.clear()

    def _shard_launch_stmt(self, stmt: IndexLaunch, state: _ShardState,
                           ctx: CommContext,
                           rec=None) -> Iterator[Event | None]:
        owned = shard_owned_colors(stmt.domain.size, ctx.num_shards, state.shard)
        if rec is not None:
            rec.launch(stmt, owned)
        fold = SCALAR_REDUCTIONS[stmt.reduce[0]] if stmt.reduce else None
        partial = state.pending_reductions.get(stmt.reduce[1]) if stmt.reduce else None
        task_hist = (state.metrics.histogram("spmd_task_seconds",
                                             shard=state.shard,
                                             task=stmt.task.name)
                     if state.metrics.enabled else None)
        for i in owned:
            args = stmt.point_args(i, state.scalars)
            t0 = time.perf_counter()
            try:
                result = call_task(stmt.task, args, self.region_instance,
                                   state.plans)
            finally:
                # Recorded even when the task (or its inspector) raises:
                # the failing task is the record the post-mortem flight
                # dump exists to show.
                t1 = time.perf_counter()
                state.flight.record(_flight.TASK, stmt.uid, t0, t1)
            if task_hist is not None:
                task_hist.observe(t1 - t0)
            state.tasks_executed += 1
            if stmt.reduce is not None and result is not None:
                partial = result if partial is None else fold(partial, result)
            yield None  # preemption point: one point task executed
        if stmt.reduce is not None:
            if partial is not None:
                state.pending_reductions[stmt.reduce[1]] = partial

    def _shard_fill(self, stmt: FillReductionBuffer, state: _ShardState,
                    ctx: CommContext, rec=None) -> None:
        part = stmt.partition
        owned = shard_owned_colors(part.num_colors, ctx.num_shards, state.shard)
        fills = [] if rec is not None else None
        for c in owned:
            inst = self.dist_instance(part, c)
            for f in stmt.fields:
                value = reduction_identity(stmt.redop, inst.fields[f].dtype)
                inst.fields[f][...] = value
                if fills is not None:
                    fills.append((inst.fields[f], value))
        if rec is not None:
            rec.fill(stmt.uid, fills)

    # -- copies -----------------------------------------------------------------
    def _copy_schedule(self, stmt: PairwiseCopy, state: _ShardState,
                       ctx: CommContext) -> "_CopySchedule":
        """This shard's side of ``stmt``, resolved once per launch."""
        sched = state.copy_schedules.get(stmt.uid)
        if sched is not None:
            return sched
        me, ns, uid = state.shard, ctx.num_shards, stmt.uid
        src_n, dst_n = stmt.src.num_colors, stmt.dst.num_colors
        produced = shard_owned_colors(src_n, ns, me)
        if stmt.pairs_name is not None:
            # Cached per shard slice inside the pair set — avoids
            # re-filtering the full pair list.
            mine = self.pair_sets[stmt.pairs_name].src_pairs(tuple(produced))
        else:
            mine = [pair for pair in self._copy_pairs(stmt)
                    if pair[0] in produced]
        copies, sends = [], {}
        for (i, j) in mine:
            if ctx.is_local(stmt, j):
                copies.append((i, j))
            else:
                sends.setdefault(owner_of_color(dst_n, ns, j), []).append(
                    (i, j))
        batch = self._lower_copy(stmt, copies, ns)
        if state.metrics.enabled:
            hist = state.metrics.histogram("spmd_fused_batch_pairs",
                                           shard=me)
            for item in batch.items:
                hist.observe(item.pair_count)
        sends = tuple((peer, tuple(group)) for peer, group in sends.items())
        if stmt.sync_mode == "p2p":
            chans = ctx.channels[uid].items()
            out = [c for (p, _), c in chans if p == me]
            inbound = [c for (_, q), c in chans if q == me]
            sched = _CopySchedule(
                batch, sends, self._owned_dst_arrays(stmt, ns, me),
                ack_advances=tuple(c.acked for c in inbound),
                ack_waits=tuple((c.acked, c.ack_label) for c in out),
                ready_advances=tuple(c.ready for c in out),
                ready_waits=tuple((c.ready, c.ready_label) for c in inbound))
        elif stmt.sync_mode == "barrier":
            sched = _CopySchedule(batch, sends, barriers=tuple(
                (tag, ctx.barriers[f"{tag}:{uid}"], f"copy{uid}:{tag}")
                for tag in ("pre", "post")))
        else:
            sched = _CopySchedule(batch, sends)
        state.copy_schedules[uid] = sched
        return sched

    def _exec_copy(self, stmt: PairwiseCopy, state: _ShardState,
                   ctx: CommContext, rec=None) -> Iterator[Event | None]:
        """One copy statement, in the phase order a compiled window keeps:
        all ack advances, all ack waits, one send per peer shard then the
        in-memory batch, all ready advances, one preemption point, all
        ready waits (barrier mode: pre, sends and batch, the preemption
        point, post).  Every shard, interpreting or replaying, makes all
        of its ack advances at statement entry and before its first wait,
        so no wait here can be part of a cycle.  An event that is already
        set is not yielded."""
        uid, ns = stmt.uid, ctx.num_shards
        sched = self._copy_schedule(stmt, state, ctx)
        g = state.next_epoch(uid)

        def arrive(tag, bar, label):
            if rec is not None:
                rec.barrier(uid, tag, bar, g, label)
            return bar.arrive_and_wait_event(g, label=label)

        if sched.barriers:
            ev = arrive(*sched.barriers[0])
            if not ev.is_set():
                yield ev
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

        for peer, pairs in sched.sends:
            ctx.send_pairs(stmt, peer, pairs, state, rec)
        if rec is not None:
            rec.fused(uid, g, sched.batch, sched.protect)
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
        if sched.barriers:
            ev = arrive(*sched.barriers[1])
            if not ev.is_set():
                yield ev

    def _pair_points(self, stmt: PairwiseCopy, i: int, j: int):
        if stmt.pairs_name is not None:
            return self.pair_sets[stmt.pairs_name].pairs[(i, j)]
        return stmt.src.subset(i) & stmt.dst.subset(j)

    def _owned_dst_arrays(self, stmt: PairwiseCopy, ns: int,
                          me: int) -> frozenset:
        """ids of the field arrays of every destination instance of
        ``stmt`` that shard ``me`` owns and some pair writes."""
        dst_n = stmt.dst.num_colors
        return frozenset(
            id(arr) for j in {j for (_, j) in self._copy_pairs(stmt)}
            if owner_of_color(dst_n, ns, j) == me
            for arr in self.dist_instance(stmt.dst, j).fields.values())

    def _lower_copy(self, stmt: PairwiseCopy, copies, ns: int) -> FusedBatch:
        """The :class:`~repro.runtime.copy_engine.FusedBatch` of the
        in-memory pairs ``copies`` — ``(i, j)``, empty ones included — of
        ``stmt``: their points, instances and fold locks resolved, and all
        of them lowered in one call."""
        pairs = []
        for (i, j) in copies:
            pts = self._pair_points(stmt, i, j)
            if pts:
                lock = (self._reduction_lock(stmt, j, ns)
                        if stmt.redop is not None else None)
                pairs.append((self.dist_instance(stmt.src, i),
                              self.dist_instance(stmt.dst, j), pts, lock))
        return lower_copy(stmt, pairs, self._field_width(stmt), len(copies))

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

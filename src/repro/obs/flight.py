"""The shard runtime's one timeline: bounded per-shard rings of compact events.

Every SPMD driver writes each event once — ``(kind, stmt uid, t_start,
t_end, bytes)`` — into a fixed-size numpy ring per shard, so the cost is
a handful of array stores per record (bounded well under the 5% overhead
budget ``tests/obs/test_overhead.py`` pins) and memory is bounded no
matter how long the process lives.  The rings are always on; everything
that shows where a run's time went reads them — the Chrome rows below,
the profiler, and the metrics registry, whose ``spmd_task_seconds`` and
``spmd_wait_seconds`` histograms the executor fills from each launch's
records after the shards have joined (no shard holds a registry).  The
histograms therefore cover what the ring retained: ``flight_dropped_total``
says when a ring overflowed.

Rings are single-writer: each shard (thread or forked process) owns its
ring for the duration of a run, so records take no lock.  The forking
drivers ship each child ring back over the existing result pipe
(:meth:`ShardRing.export_since` / :meth:`ShardRing.ingest`), rebased
through a wall-clock anchor (:func:`flight_anchor`).

There is one exporter, :func:`chrome_trace`: a standard Chrome trace of
the rings' rows under ``PID_SPMD``, one thread row per shard.  It names
each row from the uid -> statement table the executor fills from the
launch spec (:attr:`FlightRecorder.names`), so the rows carry the
tracer's span names and categories (``task:<task>``, ``copy:<src>-><dst>``,
``wait:…``, ``replay:iteration``, …) and :func:`repro.obs.build_profile`
reads them directly.  Failure dumps, ``/debug/flight`` and a
:class:`~repro.obs.trace.Tracer` the executor was given
(:meth:`~repro.obs.trace.Tracer.attach`) all render through it.
"""

from __future__ import annotations

import json
import time
from typing import Any, Iterable

import numpy as np

from .trace import PID_SPMD

__all__ = [
    "ITER", "CAPTURE", "TASK", "COPY", "WAIT", "COMPILE",
    "DEFAULT_CAPACITY", "ShardRing", "NULL_RING", "FlightRecorder",
    "flight_anchor", "anchor_delta_s", "chrome_trace",
]

# Record kinds.  Iteration-shaped records (ITER = a replayed steady-state
# iteration, CAPTURE = an interpreted/captured one) bound each window;
# TASK/COPY/WAIT attribute time within it.  Kind 6 is retired; the
# numbers are part of the dump format, so none is reused.
ITER = 1
CAPTURE = 2
TASK = 3
COPY = 4
WAIT = 5
COMPILE = 7

# Record kind -> (row name, category) of its Chrome row.  A TASK, COPY or
# WAIT row is named after the statement its uid names in the recorder's
# table instead, when it names one: a TASK or COPY record of a compiled
# window carries its loop's uid, which names no statement.
_ROWS = {ITER: ("replay:iteration", "jit"),
         CAPTURE: ("replay:capture", "replay"),
         COMPILE: ("window:compile", "replay"),
         TASK: ("jit:compute", "task"),
         COPY: ("jit:copy", "copy"),
         WAIT: ("wait:event", "wait")}

# Iteration-window kinds, used by the skew/drift analyzers.
WINDOW_KINDS = (ITER, CAPTURE)

# A few thousand iterations of any app at a handful of records each; the
# pages of a ring nobody writes cost no memory.
DEFAULT_CAPACITY = 1 << 16

# Anchor skew below this is fork preserving the perf_counter base (the
# wall-clock anchors themselves carry ~ms jitter).
_REBASE_THRESHOLD_S = 2e-3


class ShardRing:
    """A fixed-size, single-writer ring of flight records.

    ``count`` is the total ever recorded; once it exceeds ``capacity``
    the oldest records are overwritten and ``dropped`` grows.  Only the
    owning shard writes; readers take a :meth:`snapshot`.
    """

    __slots__ = ("capacity", "kind", "uid", "t0", "t1", "nbytes", "count")
    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = int(capacity)
        self.kind = np.zeros(self.capacity, dtype=np.int16)
        self.uid = np.zeros(self.capacity, dtype=np.int64)
        self.t0 = np.zeros(self.capacity, dtype=np.float64)
        self.t1 = np.zeros(self.capacity, dtype=np.float64)
        self.nbytes = np.zeros(self.capacity, dtype=np.int64)
        self.count = 0

    # -- hot path ----------------------------------------------------------
    def record(self, kind: int, uid: int, t0: float, t1: float,
               nbytes: int = 0) -> None:
        """Append one record; timestamps are raw ``perf_counter`` seconds."""
        i = self.count % self.capacity
        self.kind[i] = kind
        self.uid[i] = uid
        self.t0[i] = t0
        self.t1[i] = t1
        self.nbytes[i] = nbytes
        self.count += 1

    # -- introspection -----------------------------------------------------
    @property
    def dropped(self) -> int:
        return max(0, self.count - self.capacity)

    def __len__(self) -> int:
        return min(self.count, self.capacity)

    def _order(self) -> np.ndarray:
        """Ring indices ordered oldest -> newest."""
        n = len(self)
        if self.count <= self.capacity:
            return np.arange(n)
        head = self.count % self.capacity
        return np.concatenate([np.arange(head, self.capacity),
                               np.arange(head)])

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of the live records, ordered oldest -> newest."""
        idx = self._order()
        return {"kind": self.kind[idx], "uid": self.uid[idx],
                "t0": self.t0[idx], "t1": self.t1[idx],
                "nbytes": self.nbytes[idx]}

    # -- cross-process funneling ------------------------------------------
    def export_since(self, base: int) -> dict[str, Any]:
        """Records with sequence number >= ``base``, for the procs pipe.

        Records older than the ring still holds are gone; the payload's
        own ``base`` reports the first sequence number actually exported
        so the parent can account for the drop.
        """
        first = max(base, self.count - self.capacity)
        n = self.count - first
        if n <= 0:
            return {"base": self.count, "count": self.count,
                    "kind": np.empty(0, np.int16), "uid": np.empty(0, np.int64),
                    "t0": np.empty(0, np.float64), "t1": np.empty(0, np.float64),
                    "nbytes": np.empty(0, np.int64)}
        idx = (first + np.arange(n)) % self.capacity
        return {"base": first, "count": self.count,
                "kind": self.kind[idx], "uid": self.uid[idx],
                "t0": self.t0[idx], "t1": self.t1[idx],
                "nbytes": self.nbytes[idx]}

    def ingest(self, payload: dict[str, Any], delta_s: float = 0.0) -> None:
        """Append exported records, shifting timestamps by ``delta_s``."""
        kind = np.asarray(payload["kind"], dtype=np.int16)
        n = kind.shape[0]
        # Mirror the child's sequence numbering: records the child ring
        # already overwrote count as dropped here too.
        base = int(payload.get("base", 0))
        if self.count < base:
            self.count = base
        if n == 0:
            return
        idx = (self.count + np.arange(n)) % self.capacity
        self.kind[idx] = kind
        self.uid[idx] = np.asarray(payload["uid"], dtype=np.int64)
        self.t0[idx] = np.asarray(payload["t0"], dtype=np.float64) + delta_s
        self.t1[idx] = np.asarray(payload["t1"], dtype=np.float64) + delta_s
        self.nbytes[idx] = np.asarray(payload["nbytes"], dtype=np.int64)
        self.count += n

    # -- analysis helpers --------------------------------------------------
    def windows(self, kinds: tuple[int, ...] = WINDOW_KINDS
                ) -> tuple[np.ndarray, np.ndarray]:
        """``(t0, t1)`` of iteration-shaped records, oldest -> newest."""
        snap = self.snapshot()
        mask = np.isin(snap["kind"], kinds)
        return snap["t0"][mask], snap["t1"][mask]

    def wait_seconds(self) -> float:
        """Total blocked time recorded in the live window."""
        snap = self.snapshot()
        mask = snap["kind"] == WAIT
        return float((snap["t1"][mask] - snap["t0"][mask]).sum())


class _NullRing(ShardRing):
    """A ring that records nothing; handed out when flight is disabled."""

    __slots__ = ()
    enabled = False

    def __init__(self) -> None:
        super().__init__(1)

    def record(self, kind: int, uid: int, t0: float, t1: float,
               nbytes: int = 0) -> None:
        pass


NULL_RING = _NullRing()


def flight_anchor() -> tuple[float, float]:
    """A ``(wall_clock_s, perf_counter_s)`` pair naming the same instant.

    Records carry raw ``perf_counter`` seconds; a forked child whose
    ``perf_counter`` base differs from the parent's is rebased through
    the shared wall clock (:func:`anchor_delta_s`).
    """
    return (time.time(), time.perf_counter())


def anchor_delta_s(parent: tuple[float, float],
                   child: tuple[float, float]) -> float:
    """Seconds to add to child record timestamps; 0.0 under the threshold."""
    delta = (parent[1] - child[1]) - (parent[0] - child[0])
    return delta if abs(delta) >= _REBASE_THRESHOLD_S else 0.0


class FlightRecorder:
    """Per-shard flight rings plus Chrome-trace export.

    ``ring(shard)`` lazily creates one :class:`ShardRing` per shard.
    ``names`` maps a statement uid to the name its rows carry
    (``task:<task>``, ``copy:<src>-><dst>``, ``barrier:<tag>``,
    ``collective:<scalar>``); the executor fills it from each launch spec.
    """

    def __init__(self, num_shards: int = 0,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = int(capacity)
        self._rings: dict[int, ShardRing] = {
            s: ShardRing(self.capacity) for s in range(num_shards)}
        self.names: dict[int, str] = {}

    # -- ring access -------------------------------------------------------
    def ring(self, shard: int) -> ShardRing:
        ring = self._rings.get(shard)
        if ring is None:
            ring = self._rings[shard] = ShardRing(self.capacity)
        return ring

    def shards(self) -> list[int]:
        return sorted(self._rings)

    # -- accounting --------------------------------------------------------
    def records_total(self) -> int:
        return sum(r.count for r in self._rings.values())

    def dropped_total(self) -> int:
        return sum(r.dropped for r in self._rings.values())

    # -- export ------------------------------------------------------------
    def to_chrome(self, last_s: float | None = None) -> dict[str, Any]:
        return chrome_trace([self], last_s=last_s)

    def write(self, path: str, last_s: float | None = None) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(last_s=last_s), fh)


def chrome_trace(recorders: Iterable[FlightRecorder],
                 last_s: float | None = None,
                 origin: float | None = None) -> dict[str, Any]:
    """One Chrome-trace object over several recorders' live records.

    Timestamps are microseconds after ``origin``, a ``perf_counter``
    reading (a tracer passes its own epoch), by default the earliest
    surviving record; ``last_s`` keeps only records whose end falls
    within that many seconds of the newest record across all recorders.
    Besides one ``X`` row per record (see ``_ROWS``), each shard gets a
    cumulative ``bytes copied`` counter track and each recorder one
    ``replay`` hit/miss sample.  A ring that overwrote records gets a
    ``flight:dropped`` instant carrying the count, so a view or a
    profile never silently covers only the tail.
    """
    snaps = []
    t_min, t_max = np.inf, -np.inf
    for rec in recorders:
        for shard in rec.shards():
            ring = rec.ring(shard)
            snap = ring.snapshot()
            if snap["t0"].size:
                snaps.append((rec, shard, ring.dropped, snap))
                t_min = min(t_min, float(snap["t0"].min()))
                t_max = max(t_max, float(snap["t1"].max()))
    events: list[dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": PID_SPMD, "tid": 0,
         "args": {"name": "spmd executor"}}]
    if not snaps:
        return {"traceEvents": events, "displayTimeUnit": "ms"}
    origin = t_min if origin is None else origin
    cutoff = -np.inf if last_s is None else t_max - float(last_s)
    named: set[int] = set()
    replays: dict[int, list[int]] = {}
    for rec, shard, dropped, snap in snaps:
        if shard not in named:
            named.add(shard)
            events.append({"name": "thread_name", "ph": "M",
                           "pid": PID_SPMD, "tid": shard,
                           "args": {"name": f"shard {shard}"}})
        keep = snap["t1"] >= cutoff
        kinds = snap["kind"][keep].tolist()
        t0s = ((snap["t0"][keep] - origin) * 1e6).tolist()
        t1s = ((snap["t1"][keep] - origin) * 1e6).tolist()
        if dropped and t0s:
            events.append({"name": "flight:dropped", "ph": "i", "s": "t",
                           "ts": t0s[0], "pid": PID_SPMD, "tid": shard,
                           "args": {"dropped": dropped}})
        replay = replays.setdefault(id(rec), [0, 0])
        replay[0] += kinds.count(ITER)
        replay[1] += kinds.count(CAPTURE)
        copied = 0
        for k, u, ts, te, nb in zip(kinds, snap["uid"][keep].tolist(), t0s,
                                    t1s, snap["nbytes"][keep].tolist()):
            name, cat = _ROWS[k]
            stmt = rec.names.get(u) if k in (TASK, COPY, WAIT) else None
            if stmt is not None:
                name = f"wait:{stmt}" if k == WAIT else stmt
            ev = {"name": name, "cat": cat, "ph": "X", "ts": ts,
                  "dur": te - ts, "pid": PID_SPMD, "tid": shard,
                  "args": {"uid": u}}
            events.append(ev)
            if nb:
                ev["args"]["bytes"] = nb
                copied += nb
                events.append({"name": "bytes copied", "ph": "C", "ts": te,
                               "pid": PID_SPMD, "tid": shard,
                               "args": {"value": float(copied)}})
    for hits, misses in replays.values():
        if hits or misses:
            events.append({"name": "replay", "ph": "C",
                           "ts": (t_max - origin) * 1e6, "pid": PID_SPMD,
                           "tid": 0, "args": {"hit": hits, "miss": misses}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}

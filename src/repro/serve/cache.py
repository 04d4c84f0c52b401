"""The serve plan cache: fingerprint -> resident compiled executor.

Each entry owns one :class:`~repro.runtime.spmd.SPMDExecutor` built with
``retain_plans=True`` plus the compiled SPMD program it is resident for:
after the entry's first run the executor holds the frozen
``CompiledWindow`` plans, the distributed instances, the warm
``SharedMemoryArena`` (procs), the intersection results, and the monotone
sync state — so a cache hit skips compilation *and* capture and goes
straight to replay against freshly loaded region data.

Concurrency model:

* the cache lock guards only the map and the LRU order;
* ``entry.lock`` serializes everything heavyweight — building the entry
  (compile + executor construction) and running it — so two requests
  with the same fingerprint never race on one executor, while requests
  with different fingerprints run fully in parallel;
* a refcount tracks checkouts; eviction (LRU overflow) and explicit
  discard only ever close entries nobody has checked out — an in-use
  entry is skipped and collected on a later check-in.

Failure policy: a request that fails mid-run leaves its executor's
resident state inconsistent (the executor itself also self-resets on
error), so the engine *discards* the whole entry — the next request with
that fingerprint recompiles from scratch.  Closing an entry releases its
arena, so a failed job leaves zero live shared-memory segments.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from ..obs.metrics import NULL_METRICS, MetricsRegistry

__all__ = ["CacheEntry", "PlanCache"]


class CacheEntry:
    """One resident program: request, compiled plans, warm executor."""

    def __init__(self, fingerprint: str, request) -> None:
        self.fingerprint = fingerprint
        self.request = request
        self.lock = threading.Lock()  # serializes build + runs
        self.ready = False            # set once built; False while building
        self.refcount = 0             # live checkouts (cache lock held)
        self.hits = 0                 # runs served after the cold one
        self.problem: Any = None
        self.program: Any = None
        self.report: Any = None
        self.executor: Any = None
        # The registry the cold compile recorded into (compiler_pass_*
        # counters); the first run adopts it so the cold response's
        # metrics include compile work, then it is dropped.
        self.pending_metrics: MetricsRegistry | None = None

    def close(self) -> None:
        """Release everything the entry holds (idempotent)."""
        ex, self.executor = self.executor, None
        self.ready = False
        self.problem = self.program = self.report = None
        self.pending_metrics = None
        if ex is not None:
            ex.reset_session()  # drops plans and releases the arena


class PlanCache:
    """LRU cache of :class:`CacheEntry` keyed by request fingerprint."""

    def __init__(self, capacity: int = 8,
                 metrics: MetricsRegistry = NULL_METRICS) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.hit_count = 0
        self.miss_count = 0
        self.eviction_count = 0
        self._hits = metrics.counter("serve_plan_cache_hits_total")
        self._misses = metrics.counter("serve_plan_cache_misses_total")
        self._evictions = metrics.counter("serve_plan_cache_evictions_total")

    def checkout(self, fingerprint: str, request) -> tuple[CacheEntry, bool]:
        """Return ``(entry, hit)`` with the entry's refcount bumped.

        A miss inserts an un-built placeholder; the caller must build it
        under ``entry.lock`` and then run.  ``hit`` is True only when the
        entry was already built — a request that waits on another's
        in-flight build of the same fingerprint still counts as a miss
        (it did not find a usable plan).
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            hit = entry is not None and entry.ready
            if entry is None:
                entry = CacheEntry(fingerprint, request)
                self._entries[fingerprint] = entry
            else:
                self._entries.move_to_end(fingerprint)
            entry.refcount += 1
            if hit:
                entry.hits += 1
                self.hit_count += 1
                self._hits.inc()
            else:
                self.miss_count += 1
                self._misses.inc()
            return entry, hit

    def checkin(self, entry: CacheEntry) -> None:
        """Drop one checkout and evict LRU overflow that is now idle."""
        with self._lock:
            entry.refcount -= 1
            self._evict_overflow()

    def discard(self, entry: CacheEntry) -> None:
        """Remove a (failed) entry; close it once no one holds it.

        The caller is expected to still hold a checkout; the entry is
        unmapped immediately so no new request can find it, and closed
        here if this caller was the only user (otherwise on the last
        concurrent user's error path — a discarded entry is only ever
        discarded again).
        """
        with self._lock:
            if self._entries.get(entry.fingerprint) is entry:
                del self._entries[entry.fingerprint]
            closable = entry.refcount <= 1
        if closable:
            entry.close()

    def _evict_overflow(self) -> None:
        # Cache lock held.  Oldest-first, skipping checked-out entries;
        # those come back through checkin and get collected then.
        excess = len(self._entries) - self.capacity
        if excess <= 0:
            return
        victims = []
        for fp, entry in self._entries.items():
            if entry.refcount == 0:
                victims.append(fp)
                if len(victims) >= excess:
                    break
        for fp in victims:
            entry = self._entries.pop(fp)
            self.eviction_count += 1
            self._evictions.inc()
            entry.close()

    def clear(self) -> None:
        """Close every idle entry (server shutdown)."""
        with self._lock:
            entries, self._entries = list(self._entries.values()), OrderedDict()
        for entry in entries:
            entry.close()

    def executors(self) -> list:
        """A snapshot of the live resident executors (for flight dumps)."""
        with self._lock:
            return [e.executor for e in self._entries.values()
                    if e.ready and e.executor is not None]

    def stats(self) -> dict:
        with self._lock:
            lookups = self.hit_count + self.miss_count
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hit_count,
                "misses": self.miss_count,
                "hit_ratio": (self.hit_count / lookups) if lookups else 0.0,
                "evictions": self.eviction_count,
                "resident": [
                    {"fingerprint": fp, "app": e.request.app,
                     "backend": e.request.backend,
                     "shards": e.request.shards, "hits": e.hits,
                     "in_use": e.refcount > 0}
                    for fp, e in self._entries.items()
                ],
            }

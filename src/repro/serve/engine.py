"""The serve engine: a job queue in front of a pool of resident executors.

One :class:`ServeEngine` owns

* a bounded job queue (admission control: a full queue rejects instead
  of buffering unboundedly — the HTTP layer maps the rejection to 429),
* worker threads that drain it,
* the :class:`~repro.serve.cache.PlanCache` of resident compiled
  executors, and
* the engine-wide :class:`~repro.obs.metrics.MetricsRegistry` every
  request's metrics are merged into (scraped at ``/metrics``).

Request lifecycle::

    submit() -> queue -> worker -> _execute()
        fingerprint -> cache checkout (hit | miss)
        miss: CR-compile the app's program, build a retain_plans
              executor  (the only place compile happens)
        both: load fresh region data into the resident root instances,
              run, report counter deltas + state checksums
        error: discard the cache entry (plans may be inconsistent),
               surface the failure on the job

Every run swaps a fresh per-request registry into the executor, so each
response carries exactly its own metrics (a warm response provably shows
zero ``compiler_pass_*`` and zero capture work); the per-request
registry is then folded into the engine registry under a lock, because
instrument increments themselves are not atomic across threads.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import queue
import tempfile
import threading
import time
from collections import deque
from typing import Any

import numpy as np

from ..obs import flight as _flight
from ..obs.flight import FlightRecorder, chrome_trace
from ..obs.metrics import (SERVE_LATENCY_BUCKETS, Histogram, MetricsRegistry,
                           scrape_payload)
from .cache import PlanCache
from .fingerprint import ServeRequest, build_problem

__all__ = ["AdmissionError", "Job", "ServeEngine", "ServeJobError"]

# Executor counters reported to the client as per-run deltas (the
# resident executor accumulates them across runs).
_COUNTER_FIELDS = (
    "tasks_executed", "copies_performed", "elements_copied", "bytes_copied",
    "intersections_computed", "replay_hits", "replay_misses",
    "replay_guard_fallbacks", "fused_copies", "fused_pairs",
    "window_compiles", "window_closures",
)


class AdmissionError(RuntimeError):
    """The job queue is full; the request was rejected, not queued."""


class ServeJobError(RuntimeError):
    """A queued job failed while executing."""


class Job:
    """One admitted request moving through the queue."""

    __slots__ = ("id", "request", "fingerprint", "status", "result",
                 "error", "done", "trace_id", "flight_path")

    def __init__(self, job_id: str, request: ServeRequest,
                 trace_id: str | None = None) -> None:
        self.id = job_id
        self.request = request
        self.fingerprint = request.fingerprint()
        self.status = "queued"      # queued -> running -> done | error
        self.result: dict | None = None
        self.error: str | None = None
        self.done = threading.Event()
        # Every admitted request gets a trace id: the client's if it sent
        # one (body "trace_id" or X-Trace-Id header), else the job id.
        self.trace_id = trace_id or job_id
        self.flight_path: str | None = None  # set when a failure dumps

    def to_dict(self, with_state: bool = False) -> dict:
        out = {"job": self.id, "status": self.status,
               "fingerprint": self.fingerprint, "trace_id": self.trace_id}
        if self.status == "done" and self.result is not None:
            result = self.result if with_state else {
                k: v for k, v in self.result.items() if k != "state"}
            out["result"] = result
        if self.status == "error":
            out["error"] = self.error
            if self.flight_path:
                out["flight_path"] = self.flight_path
        return out


def _jsonable(value: Any) -> Any:
    if isinstance(value, (np.generic,)):
        return value.item()
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _state_checksums(state: dict[str, np.ndarray]) -> dict[str, str]:
    return {k: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
            for k, v in state.items()}


class ServeEngine:
    """Compile-once serve-many: resident executors behind a job queue."""

    def __init__(self, workers: int = 2, cache_size: int = 8,
                 queue_depth: int = 16, max_shards: int = 8,
                 flight_dir: str | None = None) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.max_shards = max_shards
        self.metrics = MetricsRegistry()
        self._merge_lock = threading.Lock()
        self.cache = PlanCache(cache_size, metrics=self.metrics)
        self._queue: "queue.Queue[Job | None]" = queue.Queue(queue_depth)
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False
        # Engine-level flight ring: one REQUEST span per job (shard -1 in
        # the merged trace), alongside the per-executor shard rings.
        self.flight = FlightRecorder()
        self.flight_dir = (
            flight_dir if flight_dir is not None
            else os.environ.get("REPRO_FLIGHT_DIR")
            or os.path.join(tempfile.gettempdir(), "repro-flight"))
        self._recent: "deque[dict]" = deque(maxlen=64)
        self._workers = [
            threading.Thread(target=self._worker, name=f"serve-worker-{i}",
                             daemon=True)
            for i in range(workers)]
        for t in self._workers:
            t.start()

    # -- admission ---------------------------------------------------------
    def submit(self, payload: dict) -> Job:
        """Validate, admit, and enqueue; raises on bad or rejected input.

        ``ValueError`` — malformed request (HTTP 400);
        :class:`AdmissionError` — queue full or shards over the cap
        (HTTP 429).
        """
        if self._closed:
            raise AdmissionError("engine is shut down")
        # trace_id is transport metadata, not part of the workload (and
        # not part of the fingerprint): peel it off before validation.
        trace_id = payload.pop("trace_id", None)
        if trace_id is not None and not isinstance(trace_id, str):
            raise ValueError("trace_id must be a string")
        request = ServeRequest.from_dict(payload)
        if request.shards > self.max_shards:
            raise AdmissionError(
                f"request wants {request.shards} shards; this server "
                f"admits at most {self.max_shards}")
        job = Job(f"j{next(self._ids):06d}", request, trace_id=trace_id)
        with self._jobs_lock:
            self._jobs[job.id] = job
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._jobs_lock:
                del self._jobs[job.id]
            self._count_request(request.app, "rejected")
            raise AdmissionError(
                f"job queue full ({self._queue.maxsize} deep)") from None
        return job

    def run_sync(self, payload: dict, timeout: float | None = None,
                 with_state: bool = False) -> dict:
        """Submit and wait; the synchronous ``POST /run`` path."""
        job = self.submit(payload)
        if not job.done.wait(timeout):
            raise TimeoutError(f"job {job.id} still {job.status} "
                               f"after {timeout}s")
        if job.status == "error":
            err = ServeJobError(job.error or "job failed")
            err.trace_id = job.trace_id
            err.flight_path = job.flight_path
            raise err
        assert job.result is not None
        if with_state:
            return job.result
        return {k: v for k, v in job.result.items() if k != "state"}

    def get_job(self, job_id: str) -> Job | None:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    # -- execution ---------------------------------------------------------
    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            job.status = "running"
            t0 = time.perf_counter()
            try:
                job.result = self._execute(job)
                job.status = "done"
                self._count_request(job.request.app, "ok")
            except Exception as exc:
                job.error = f"{type(exc).__name__}: {exc}"
                job.status = "error"
                self._count_request(job.request.app, "error")
            finally:
                t1 = time.perf_counter()
                # uid = the numeric job id, so a REQUEST span in the
                # merged trace points back at /jobs/<id>.
                self.flight.ring(-1).record(
                    _flight.REQUEST, int(job.id[1:]), t0, t1)
                self._recent.appendleft({
                    "trace_id": job.trace_id, "job": job.id,
                    "app": job.request.app, "backend": job.request.backend,
                    "shards": job.request.shards,
                    "fingerprint": job.fingerprint, "status": job.status,
                    "elapsed_s": t1 - t0, "finished_unix": time.time(),
                    "error": job.error, "flight_path": job.flight_path,
                })
                job.done.set()

    def _build_entry(self, entry, request: ServeRequest) -> None:
        """Cold path: CR-compile and construct the resident executor."""
        from ..core.compiler import control_replicate
        from ..runtime.spmd import SPMDExecutor
        compile_metrics = MetricsRegistry()
        problem = build_problem(request)
        program, report = control_replicate(
            problem.build_program(), num_shards=request.shards,
            sync=request.sync, metrics=compile_metrics)
        executor = SPMDExecutor(
            num_shards=request.shards, mode=request.backend,
            seed=request.seed, instances=problem.fresh_instances(),
            metrics=compile_metrics, retain_plans=True)
        entry.problem = problem
        entry.program = program
        entry.report = report
        entry.executor = executor
        entry.pending_metrics = compile_metrics
        entry.ready = True

    @staticmethod
    def _load_fresh_inputs(entry) -> None:
        """Copy freshly initialized app data into the resident roots.

        ``FinalCopy`` wrote the previous run's answer back into the root
        instances, so every request re-seeds them in place (the frozen
        plans hold references to these exact arrays).
        """
        executor = entry.executor
        for uid, inst in entry.problem.fresh_instances().items():
            dst = executor.instances.get(uid)
            if dst is None:
                executor.instances[uid] = inst
            else:
                for field, arr in inst.fields.items():
                    dst.fields[field][...] = arr

    def _execute(self, job: Job) -> dict:
        request = job.request
        t_start = time.perf_counter()
        entry, hit = self.cache.checkout(job.fingerprint, request)
        try:
            with entry.lock:
                built = False
                if not entry.ready:
                    self._build_entry(entry, request)
                    built = True
                executor = entry.executor
                # Adopt the cold compile's registry for the first run so
                # the cold response carries its compiler_pass_* metrics;
                # warm runs get a pristine registry (zero compile, zero
                # capture — the cache-hit guarantee the tests assert).
                request_metrics = entry.pending_metrics or MetricsRegistry()
                entry.pending_metrics = None
                executor.metrics = request_metrics
                if not built:
                    self._load_fresh_inputs(entry)
                before = {f: getattr(executor, f) for f in _COUNTER_FIELDS}
                scalars = executor.run(entry.program)
                counters = {f: getattr(executor, f) - before[f]
                            for f in _COUNTER_FIELDS}
                state = entry.problem.extract_state(executor.instances)
        except Exception as exc:
            # Before the entry (and its executor) is torn down, dump its
            # flight rings: the last window of shard activity before the
            # failure, attached to the exception and written to
            # ``flight_dir`` so the trace survives the discard.
            ex_failed = entry.executor
            if ex_failed is not None:
                ex_failed.flight_dir = self.flight_dir
                job.flight_path = ex_failed.dump_flight(exc)
            # The entry's plans may be half-built or inconsistent; drop
            # it so the next request recompiles (and its arena is gone).
            self.cache.discard(entry)
            raise
        finally:
            self.cache.checkin(entry)
        elapsed = time.perf_counter() - t_start
        with self._merge_lock:
            self.metrics.histogram(
                "serve_request_seconds", buckets=SERVE_LATENCY_BUCKETS,
                cache="hit" if hit else "miss").observe(elapsed)
            self.metrics.merge(request_metrics)
        return {
            "job": job.id,
            "trace_id": job.trace_id,
            "app": request.app,
            "fingerprint": job.fingerprint,
            "cache": {"hit": hit, "fingerprint": job.fingerprint},
            "elapsed_s": elapsed,
            "scalars": {k: _jsonable(v) for k, v in scalars.items()},
            "counters": counters,
            # Exactly this request's samples (compiler_pass_*, spmd_*):
            # a warm response provably contains no compile or capture work.
            "metrics": request_metrics.flat(),
            "state_sha256": _state_checksums(state),
            "state": state,  # numpy arrays; stripped before serialization
        }

    def _count_request(self, app: str, outcome: str) -> None:
        with self._merge_lock:
            self.metrics.counter("serve_requests_total", app=app,
                                 outcome=outcome).inc()

    def observe_http(self, endpoint: str, seconds: float) -> None:
        """Record one HTTP round-trip for the per-endpoint histograms."""
        with self._merge_lock:
            self.metrics.histogram(
                "serve_http_request_seconds", buckets=SERVE_LATENCY_BUCKETS,
                endpoint=endpoint).observe(seconds)

    # -- introspection / shutdown ------------------------------------------
    def recent_requests(self) -> list[dict]:
        """The last completed requests, newest first (``/debug/requests``)."""
        return list(self._recent)

    def flight_trace(self, last_s: float | None = None) -> dict:
        """One merged Chrome trace: engine REQUEST spans + every resident
        executor's shard rings (``/debug/flight``)."""
        recorders = [ex.flight for ex in self.cache.executors()]
        return chrome_trace([*recorders, self.flight], last_s=last_s)

    def _endpoint_latency(self) -> dict[str, dict[str, float]]:
        # Merge lock held.  One row per endpoint label of the HTTP
        # latency histogram: count plus p50/p95/p99 from the buckets.
        out: dict[str, dict[str, float]] = {}
        for name, labels, inst in self.metrics.items():
            if name != "serve_http_request_seconds" or \
                    not isinstance(inst, Histogram):
                continue
            out[labels.get("endpoint", "")] = {
                "count": float(inst.count),
                "p50_s": inst.quantile(0.50),
                "p95_s": inst.quantile(0.95),
                "p99_s": inst.quantile(0.99),
            }
        return out

    def stats(self) -> dict:
        with self._jobs_lock:
            by_status: dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
        with self._merge_lock:
            endpoints = self._endpoint_latency()
        return {
            "workers": len(self._workers),
            "queue_depth": self._queue.maxsize,
            "queued": self._queue.qsize(),
            "max_shards": self.max_shards,
            "jobs": by_status,
            "plan_cache": self.cache.stats(),
            "endpoints": endpoints,
            "flight": {
                "dir": self.flight_dir,
                "requests_recorded": self.flight.records_total(),
            },
        }

    def scrape(self) -> tuple[str, bytes]:
        """``(content_type, body)`` for ``/metrics``, gauges refreshed."""
        from ..obs.drift import export_drift_metrics
        from ..obs.skew import export_skew_metrics
        executors = self.cache.executors()
        with self._merge_lock:
            self.metrics.gauge("serve_plan_cache_entries").set(
                self.cache.stats()["entries"])
            self.metrics.gauge("serve_queue_length").set(self._queue.qsize())
            # Straggler/drift gauges from the resident executors' rings.
            # With several resident programs the last one wins — the
            # common serve deployment is one resident app, and the
            # /debug/flight trace keeps the full per-executor story.
            for ex in executors:
                if ex.flight.records_total():
                    export_skew_metrics(ex.flight, self.metrics)
                    export_drift_metrics(ex.flight, self.metrics)
            self.metrics.gauge("flight_serve_requests_recorded").set(
                self.flight.records_total())
            return scrape_payload(self.metrics)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop workers, close every resident executor, free arenas."""
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            self._queue.put(None)
        for t in self._workers:
            t.join(timeout)
        # Flush resident flight rings before the executors are torn
        # down: a clean shutdown should leave the final iterations'
        # records on disk (when a dump dir is configured), not only
        # crash windows.
        for ex in self.cache.executors():
            try:
                ex.dump_flight()
            except Exception:  # pragma: no cover - best-effort at exit
                pass
        self.cache.clear()

    def __enter__(self) -> "ServeEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

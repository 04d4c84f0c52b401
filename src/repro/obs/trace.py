"""Structured spans/counters with a Chrome-trace (``trace_event``) exporter.

One :class:`Tracer` instance collects timeline events from every layer of
the system — compiler passes, the functional SPMD executor, and the
discrete-event machine simulator — and serializes them in the Chrome
``trace_event`` JSON format, viewable in ``chrome://tracing`` / Perfetto.

Two time bases coexist in one trace:

* **wall-clock** events (compiler passes, shard rows) are stamped with
  :func:`time.perf_counter` relative to the tracer's creation;
* **virtual-time** events (the machine simulator) are injected directly
  via :meth:`Tracer.complete` with simulated timestamps.

Both kinds start near zero, so a functional run and a simulated run of
the same program are diffable side by side in a single viewer.  Layers
are separated by process id (see the ``PID_*`` constants); within a
layer, the thread id is the shard / node resource.

The shard runtime emits nothing into a tracer while it runs: its one
timeline is the flight rings (:mod:`repro.obs.flight`).  An executor
given a tracer attaches its recorder (:meth:`Tracer.attach`), and the
tracer renders the rings' rows under ``PID_SPMD`` whenever its events
are read or written.

Call sites take a tracer parameter defaulting to :data:`NULL_TRACER`, a
no-op instance, so the hot paths carry no conditional logic.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Iterator

__all__ = ["Tracer", "NULL_TRACER", "PID_COMPILER", "PID_SPMD", "PID_SIM_BASE"]

# Process-id convention: one "process" per system layer in the viewer.
PID_COMPILER = 0   # compiler passes
PID_SPMD = 1       # functional SPMD executor (tid = shard)
PID_SIM_BASE = 100  # machine simulator (pid = PID_SIM_BASE + node)


class Tracer:
    """Thread-safe collector of Chrome ``trace_event`` records.

    Events are plain dicts in the ``traceEvents`` array format; timestamps
    (``ts``) and durations (``dur``) are microseconds, per the spec.
    """

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._events: list[dict[str, Any]] = []
        self._recorders: list = []

    # -- clock -------------------------------------------------------------
    def now_us(self) -> float:
        """Microseconds of wall time since this tracer was created."""
        return (time.perf_counter() - self._t0) * 1e6

    # -- event emission ----------------------------------------------------
    def _emit(self, event: dict[str, Any]) -> None:
        with self._lock:
            self._events.append(event)

    @contextmanager
    def span(self, name: str, cat: str = "", pid: int = 0, tid: int = 0,
             args: dict[str, Any] | None = None) -> Iterator[None]:
        """Record a complete ("X") event around the ``with`` body."""
        start = self.now_us()
        try:
            yield
        finally:
            ev: dict[str, Any] = {"name": name, "cat": cat, "ph": "X",
                                  "ts": start, "dur": self.now_us() - start,
                                  "pid": pid, "tid": tid}
            if args:
                ev["args"] = args
            self._emit(ev)

    def complete(self, name: str, ts_us: float, dur_us: float, cat: str = "",
                 pid: int = 0, tid: int = 0,
                 args: dict[str, Any] | None = None) -> None:
        """Record a complete event with caller-supplied (e.g. virtual) time."""
        ev: dict[str, Any] = {"name": name, "cat": cat, "ph": "X",
                              "ts": float(ts_us), "dur": float(dur_us),
                              "pid": pid, "tid": tid}
        if args:
            ev["args"] = args
        self._emit(ev)

    def instant(self, name: str, cat: str = "", pid: int = 0, tid: int = 0,
                args: dict[str, Any] | None = None) -> None:
        ev: dict[str, Any] = {"name": name, "cat": cat, "ph": "i", "s": "t",
                              "ts": self.now_us(), "pid": pid, "tid": tid}
        if args:
            ev["args"] = args
        self._emit(ev)

    def counter(self, name: str, values: dict[str, float] | float,
                pid: int = 0, tid: int = 0, ts_us: float | None = None) -> None:
        """Record a counter ("C") sample; ``values`` may be a bare number."""
        if not isinstance(values, dict):
            values = {"value": float(values)}
        self._emit({"name": name, "ph": "C",
                    "ts": self.now_us() if ts_us is None else float(ts_us),
                    "pid": pid, "tid": tid, "args": values})

    # -- metadata ----------------------------------------------------------
    def name_process(self, pid: int, name: str) -> None:
        self._emit({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                    "args": {"name": name}})

    def name_thread(self, pid: int, tid: int, name: str) -> None:
        self._emit({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                    "args": {"name": name}})

    def attach(self, recorder) -> None:
        """Show a :class:`~repro.obs.flight.FlightRecorder`'s rings on this
        timeline, rendered when the events are read: a traced run does no
        more work while it runs than an untraced one."""
        with self._lock:
            self._recorders.append(recorder)

    # -- export ------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return True

    def events(self) -> list[dict[str, Any]]:
        from .flight import chrome_trace
        with self._lock:
            events = list(self._events)
            recorders = list(self._recorders)
        if recorders:
            events += chrome_trace(recorders,
                                   origin=self._t0)["traceEvents"]
        return events

    def chrome_trace(self) -> dict[str, Any]:
        """The complete Chrome-trace JSON object."""
        return {"traceEvents": self.events(), "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


class _NullTracer(Tracer):
    """A tracer that records nothing; the default for every call site."""

    def __init__(self) -> None:
        super().__init__()

    @property
    def enabled(self) -> bool:
        return False

    def _emit(self, event: dict[str, Any]) -> None:
        pass

    def span(self, name: str, cat: str = "", pid: int = 0, tid: int = 0,
             args: dict[str, Any] | None = None):
        # One shared stateless context: a generator-based one costs a
        # microsecond per site, which a sub-millisecond iteration notices.
        return _NULL_SPAN


_NULL_SPAN = nullcontext()
NULL_TRACER = _NullTracer()

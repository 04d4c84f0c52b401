"""Low-overhead metrics registry: counters, gauges, histograms.

The registry is the quantitative counterpart of the Chrome-trace tracer
(:mod:`repro.obs.trace`): where the tracer answers "when did things
happen", the registry answers "how much of everything happened" — task
counts, bytes copied, wait-time distributions, per-pass compile costs —
in a form that survives aggregation across shards, processes, and runs.

Design points, mirroring the tracer:

* **Null default.**  Every call site takes a registry parameter
  defaulting to :data:`NULL_METRICS`, whose instruments are shared no-op
  singletons, so instrumented hot paths carry no conditional logic and
  near-zero cost when metrics are off.

* **Filled from records, never from a shard.**  No shard (thread, forked
  process or rank) holds a registry.  The executor fills its own once
  per launch, in the parent, from what the run keeps anyway: the flight
  rings (task and wait histograms), the per-shard counter table and the
  window pass timings (``SPMDExecutor._export_metrics``); the compiler
  exports its report's pass timings the same way
  (:func:`repro.core.passes.export_pass_metrics`).

* **Exports.**  :meth:`prometheus_text` renders the standard Prometheus
  text exposition format (counters get a ``_total`` check only by
  convention of the caller's naming; histograms expand to
  ``_bucket``/``_sum``/``_count`` series), :meth:`flat` gives the same
  samples as a dict, and :func:`parse_prometheus_text` parses the text
  back — the round-trip the profiler's tests assert.

Instrument identity is ``(name, sorted label items)``; lookups get-or-
create under a lock, so grab instruments once outside loops when a path
is genuinely hot.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterator

import numpy as np

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NULL_METRICS",
    "DEFAULT_BUCKETS", "parse_prometheus_text",
]

# Default histogram bounds: wait/compute times in seconds, 1µs .. 10s.
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """A distribution with fixed bucket bounds (`le` upper edges)."""

    __slots__ = ("bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values: np.ndarray) -> None:
        """:meth:`observe` each value of a 1-D array, in one numpy pass."""
        slots = np.searchsorted(self.bounds, values, side="left")
        for i, c in enumerate(np.bincount(
                slots, minlength=len(self.counts)).tolist()):
            self.counts[i] += c
        self.sum += float(values.sum())
        self.count += len(values)

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0..1) by linear bucket interpolation.

        The standard Prometheus ``histogram_quantile`` estimate: find the
        bucket the target rank falls in and interpolate within its
        bounds.  Resolution is whatever the bucket edges give you.
        Returns 0.0 with no observations.
        """
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        rank = q * self.count
        cum = 0
        for i, c in enumerate(self.counts):
            prev = cum
            cum += c
            if cum >= rank and c:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.bounds[-1]
                if i == len(self.bounds):
                    return hi  # +Inf bucket: clamp to the top edge
                return lo + (hi - lo) * ((rank - prev) / c)
        return self.bounds[-1]


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: np.ndarray) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """A named collection of instruments, exportable as Prometheus text."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple], Any] = {}

    @property
    def enabled(self) -> bool:
        return True

    # -- instrument access --------------------------------------------------
    def _get(self, cls, name: str, labels: dict[str, Any], *args):
        key = (name, _label_key(labels))
        inst = self._metrics.get(key)
        if inst is None:
            with self._lock:
                inst = self._metrics.get(key)
                if inst is None:
                    inst = self._metrics[key] = cls(*args)
        if not isinstance(inst, cls):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{inst.kind}, not {cls.kind}")
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        """Get-or-create a histogram with per-instrument bucket edges.

        The first caller fixes the edges; later callers naming different
        ones get an error rather than silently observing into the wrong
        resolution.
        """
        h = self._get(Histogram, name, labels, buckets)
        if h.bounds != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{h.bounds}, not {tuple(buckets)}")
        return h

    # -- export -------------------------------------------------------------
    def items(self) -> Iterator[tuple[str, dict[str, str], Any]]:
        with self._lock:
            entries = sorted(self._metrics.items())
        for (name, lkey), inst in entries:
            yield name, dict(lkey), inst

    def flat(self) -> dict[str, float]:
        """Every exported sample as ``name{labels} -> value``.

        Histograms expand exactly as in the Prometheus text format
        (cumulative ``_bucket`` series plus ``_sum``/``_count``), so this
        is the reference for text-export round-trip checks.
        """
        out: dict[str, float] = {}
        for name, labels, inst in self.items():
            if isinstance(inst, Histogram):
                cum = 0
                for bound, c in zip(inst.bounds, inst.counts):
                    cum += c
                    out[_sample(f"{name}_bucket",
                                {**labels, "le": _fmt(bound)})] = float(cum)
                out[_sample(f"{name}_bucket",
                            {**labels, "le": "+Inf"})] = float(inst.count)
                out[_sample(f"{name}_sum", labels)] = inst.sum
                out[_sample(f"{name}_count", labels)] = float(inst.count)
            else:
                out[_sample(name, labels)] = inst.value
        return out

    def prometheus_text(self) -> str:
        """The standard Prometheus text exposition format."""
        lines: list[str] = []
        typed: set[str] = set()
        for name, labels, inst in self.items():
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} {inst.kind}")
            if isinstance(inst, Histogram):
                cum = 0
                for bound, c in zip(inst.bounds, inst.counts):
                    cum += c
                    lines.append(f"{_sample(f'{name}_bucket', {**labels, 'le': _fmt(bound)})} {cum}")
                lines.append(f"{_sample(f'{name}_bucket', {**labels, 'le': '+Inf'})} {inst.count}")
                lines.append(f"{_sample(f'{name}_sum', labels)} {_fmt(inst.sum)}")
                lines.append(f"{_sample(f'{name}_count', labels)} {inst.count}")
            else:
                lines.append(f"{_sample(name, labels)} {_fmt(inst.value)}")
        return "\n".join(lines) + "\n"

    def write_prometheus(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.prometheus_text())


class _NullMetrics(MetricsRegistry):
    """A registry that records nothing; the default for every call site."""

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str, **labels) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        return _NULL_HISTOGRAM


NULL_METRICS = _NullMetrics()


def _fmt(value: float) -> str:
    """Render a float so it parses back to the identical value."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _sample(name: str, labels: dict[str, str]) -> str:
    if not labels:
        return name
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in sorted(labels.items()))
    return f"{name}{{{body}}}"


def _escape(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Parse the text exposition format back to ``name{labels} -> value``.

    The inverse of :meth:`MetricsRegistry.prometheus_text` as far as
    sample values go (``# TYPE``/``# HELP`` lines are skipped); together
    with :meth:`MetricsRegistry.flat` it gives an exact round-trip check.
    """
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        # The sample name (with optional {labels}) ends at the last space.
        key, _, value = line.rpartition(" ")
        out[key] = float(value)
    return out

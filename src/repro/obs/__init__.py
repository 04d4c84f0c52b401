"""Shared observability: spans, metrics, and post-run profiling.

This subsystem gives the compiler, the functional SPMD runtime, and the
machine simulator one vocabulary for timelines (:mod:`repro.obs.trace`;
the shard runtime's own timeline is the always-on flight rings of
:mod:`repro.obs.flight`, which a tracer renders), one registry for
quantitative counters/gauges/histograms (:mod:`repro.obs.metrics`), and a
post-run profiler (:mod:`repro.obs.profile`) that turns a run's timeline
into per-shard time-attribution buckets, critical paths, and the paper's
parallel-efficiency metric.
"""

from .drift import DriftReport, analyze_drift, export_drift_metrics
from .flight import NULL_RING, FlightRecorder, ShardRing, flight_anchor
from .metrics import (DEFAULT_BUCKETS, NULL_METRICS, Counter, Gauge,
                      Histogram, MetricsRegistry, parse_prometheus_text)
from .profile import (BUCKETS, Chain, ChainStep, ProfileReport, Segment,
                      ShardAttribution, attribute_shards, build_profile,
                      critical_chains, flatten_spans)
from .skew import SkewReport, analyze_skew, export_skew_metrics
from .trace import NULL_TRACER, PID_COMPILER, PID_SIM_BASE, PID_SPMD, Tracer

__all__ = [
    "Tracer", "NULL_TRACER", "PID_COMPILER", "PID_SPMD", "PID_SIM_BASE",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NULL_METRICS",
    "DEFAULT_BUCKETS", "parse_prometheus_text",
    "FlightRecorder", "ShardRing", "NULL_RING", "flight_anchor",
    "SkewReport", "analyze_skew", "export_skew_metrics",
    "DriftReport", "analyze_drift", "export_drift_metrics",
    "BUCKETS", "Segment", "ShardAttribution", "ChainStep", "Chain",
    "ProfileReport", "flatten_spans", "attribute_shards", "critical_chains",
    "build_profile",
]

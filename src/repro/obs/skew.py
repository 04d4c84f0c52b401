"""Shard-skew / straggler analysis over the flight recorder.

Control replication's correctness story is that every shard executes the
same replicated control flow — so the interesting *runtime* signal is
divergence between shards.  This module turns a
:class:`~repro.obs.flight.FlightRecorder`'s iteration windows into
rolling imbalance statistics: which shard sits on the critical path, how
much of each shard's time is sync wait, and the p50/p99 of per-window
critical time.

Windows align by index: iteration k on shard 0 and iteration k on shard
3 are the same replicated control-flow step, so comparing window k
across shards measures exactly the skew the paper's model (Fig. 6–9)
assumes away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flight import FlightRecorder
from .metrics import MetricsRegistry

__all__ = ["ShardSkew", "SkewReport", "analyze_skew", "export_skew_metrics"]


@dataclass
class ShardSkew:
    """Per-shard aggregates over the live flight window."""

    shard: int
    windows: int
    total_seconds: float
    mean_window_seconds: float
    wait_seconds: float
    wait_share: float          # wait / span of the shard's live window
    critical_wins: int         # windows where this shard was slowest


@dataclass
class SkewReport:
    """Rolling shard-imbalance stats from aligned iteration windows."""

    num_windows: int
    critical_shard: int
    imbalance_ratio: float     # mean(max over shards) / mean(mean over shards)
    p50_window_seconds: float
    p99_window_seconds: float
    shards: list[ShardSkew] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "num_windows": self.num_windows,
            "critical_shard": self.critical_shard,
            "imbalance_ratio": self.imbalance_ratio,
            "p50_window_seconds": self.p50_window_seconds,
            "p99_window_seconds": self.p99_window_seconds,
            "shards": [vars(s) for s in self.shards],
        }


def analyze_skew(recorder: FlightRecorder) -> SkewReport | None:
    """Compute the skew report, or ``None`` with no complete window yet."""
    per_shard: list[tuple[int, np.ndarray, np.ndarray]] = []
    for shard in recorder.shards():
        t0, t1 = recorder.ring(shard).windows()
        if t0.size:
            per_shard.append((shard, t0, t1))
    if not per_shard:
        return None
    num_windows = min(t0.size for _, t0, _ in per_shard)
    if num_windows == 0:
        return None
    # Align the *newest* num_windows of every shard (rings drop oldest
    # first, so tails always line up on the same iterations).
    durs = np.stack([(t1 - t0)[-num_windows:] for _, t0, t1 in per_shard])
    critical = durs.max(axis=0)            # per-window slowest-shard time
    winners = durs.argmax(axis=0)          # row index of that shard
    mean_rows = durs.mean(axis=0)
    imbalance = float(critical.mean() / mean_rows.mean()) \
        if mean_rows.mean() > 0 else 1.0

    shards: list[ShardSkew] = []
    for row, (shard, t0, t1) in enumerate(per_shard):
        ring = recorder.ring(shard)
        span = float(t1[-1] - t0[-num_windows]) if num_windows else 0.0
        wait = ring.wait_seconds()
        shards.append(ShardSkew(
            shard=shard,
            windows=int(t0.size),
            total_seconds=float(durs[row].sum()),
            mean_window_seconds=float(durs[row].mean()),
            wait_seconds=wait,
            wait_share=float(wait / span) if span > 0 else 0.0,
            critical_wins=int((winners == row).sum()),
        ))
    critical_shard = max(shards, key=lambda s: s.critical_wins).shard
    return SkewReport(
        num_windows=int(num_windows),
        critical_shard=int(critical_shard),
        imbalance_ratio=imbalance,
        p50_window_seconds=float(np.percentile(critical, 50)),
        p99_window_seconds=float(np.percentile(critical, 99)),
        shards=shards,
    )


def export_skew_metrics(recorder: FlightRecorder,
                        registry: MetricsRegistry) -> SkewReport | None:
    """Export ``flight_*`` / ``skew_*`` gauges; returns the report."""
    registry.gauge("flight_records_total").set(recorder.records_total())
    registry.gauge("flight_dropped_total").set(recorder.dropped_total())
    report = analyze_skew(recorder)
    if report is None:
        return None
    registry.gauge("skew_windows").set(report.num_windows)
    registry.gauge("skew_critical_shard").set(report.critical_shard)
    registry.gauge("skew_imbalance_ratio").set(report.imbalance_ratio)
    registry.gauge("skew_window_p50_seconds").set(report.p50_window_seconds)
    registry.gauge("skew_window_p99_seconds").set(report.p99_window_seconds)
    for s in report.shards:
        registry.gauge("skew_sync_wait_share", shard=s.shard).set(s.wait_share)
        registry.gauge("skew_critical_wins", shard=s.shard).set(s.critical_wins)
    return report

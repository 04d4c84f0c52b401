"""Drift detection: measured iteration time vs. the machine-model prediction.

The paper's evaluation (Fig. 6–9) argues control-replicated execution
should track the machine model's predicted schedule; this module checks
that claim *live*.  It calibrates per-shard iteration costs from the
first half of the flight recorder's window, replays the workload shape
(nearest-neighbor halo dependencies between iterations) through the
vectorized machine scheduler
(:func:`repro.machine.from_graph.predict_iteration_seconds`), and
compares the predicted steady-state seconds/iteration against what the
second half of the window actually measured.

``drift_efficiency_ratio`` (measured / predicted) near 1.0 means the
schedule still matches the calibrated model; a climbing ratio means the
run is drifting — a straggler shard, an interfering tenant, a schedule
the model no longer explains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flight import FlightRecorder
from .metrics import MetricsRegistry

__all__ = ["DriftReport", "analyze_drift", "export_drift_metrics"]

# Need a few windows on both sides of the calibration split for medians
# to mean anything.
_MIN_WINDOWS = 4


@dataclass
class DriftReport:
    """Predicted vs. measured steady-state iteration time."""

    num_shards: int
    calibration_windows: int
    measured_windows: int
    shard_seconds: list[float]       # calibrated per-shard cost
    predicted_iteration_seconds: float
    measured_iteration_seconds: float

    @property
    def efficiency_ratio(self) -> float:
        """measured / predicted; ~1.0 when the model still holds."""
        if self.predicted_iteration_seconds <= 0:
            return 1.0
        return self.measured_iteration_seconds / self.predicted_iteration_seconds

    def to_dict(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "calibration_windows": self.calibration_windows,
            "measured_windows": self.measured_windows,
            "shard_seconds": self.shard_seconds,
            "predicted_iteration_seconds": self.predicted_iteration_seconds,
            "measured_iteration_seconds": self.measured_iteration_seconds,
            "efficiency_ratio": self.efficiency_ratio,
        }


def analyze_drift(recorder: FlightRecorder,
                  engine: str = "auto") -> DriftReport | None:
    """Calibrate on the older half of the window, measure on the newer.

    Returns ``None`` until every shard has at least ``2 * _MIN_WINDOWS``
    iteration windows in its ring.
    """
    # Imported lazily: repro.machine pulls in the runtime package, which
    # imports repro.obs — a cycle at module-import time but not at call
    # time.
    from ..machine.from_graph import predict_iteration_seconds
    from .flight import ITER

    # Prefer steady-state (replayed) windows: interpreted capture
    # iterations are slower by construction and would skew calibration.
    # Fall back to all iteration windows when a run never froze a trace.
    for kinds in ((ITER,), None):
        per_shard: list[np.ndarray] = []
        for shard in recorder.shards():
            ring = recorder.ring(shard)
            t0, t1 = ring.windows(kinds) if kinds else ring.windows()
            if t0.size:
                per_shard.append(t1 - t0)
        if per_shard and min(d.size for d in per_shard) >= 2 * _MIN_WINDOWS:
            break
    if not per_shard:
        return None
    num_windows = min(d.size for d in per_shard)
    if num_windows < 2 * _MIN_WINDOWS:
        return None
    durs = np.stack([d[-num_windows:] for d in per_shard])
    split = num_windows // 2
    calib, meas = durs[:, :split], durs[:, split:]
    shard_seconds = np.median(calib, axis=1)
    predicted = predict_iteration_seconds(shard_seconds, engine=engine)
    # Measured steady-state time = median over the newer windows of the
    # per-window critical (slowest-shard) time.
    measured = float(np.median(meas.max(axis=0)))
    return DriftReport(
        num_shards=len(per_shard),
        calibration_windows=int(split),
        measured_windows=int(num_windows - split),
        shard_seconds=[float(s) for s in shard_seconds],
        predicted_iteration_seconds=float(predicted),
        measured_iteration_seconds=measured,
    )


def export_drift_metrics(recorder: FlightRecorder,
                         registry: MetricsRegistry,
                         engine: str = "auto") -> DriftReport | None:
    """Export ``drift_*`` gauges; returns the report (or ``None``)."""
    report = analyze_drift(recorder, engine=engine)
    if report is None:
        return None
    registry.gauge("drift_predicted_iteration_seconds").set(
        report.predicted_iteration_seconds)
    registry.gauge("drift_measured_iteration_seconds").set(
        report.measured_iteration_seconds)
    registry.gauge("drift_efficiency_ratio").set(report.efficiency_ratio)
    registry.gauge("drift_calibration_windows").set(report.calibration_windows)
    registry.gauge("drift_measured_windows").set(report.measured_windows)
    return report

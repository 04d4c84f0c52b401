"""Execution traces and utilization analysis for simulations.

After a simulation runs, every sim task carries its start/finish times.
This module summarizes them: per-resource busy fractions, per-label time
breakdowns, and a textual timeline — the evidence behind statements like
"the control thread is saturated" or "the halo exchange is fully
overlapped".  The analysis of a :class:`~repro.machine.graph.GraphBuilder`
runs as array reductions over its columns.

It also exports the completed schedule as virtual-time events on a shared
:class:`repro.obs.Tracer`, so simulated timelines land in the same
Chrome-trace file (and viewer) as functional SPMD runs, plus
``simulation_*`` batch metrics describing the scheduler run itself
(engine, tasks, edges, waves) next to the ``sim_*`` virtual-time gauges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import PID_SIM_BASE, MetricsRegistry, Tracer
from .graph import KIND_CTRL, KIND_NONE, KINDS, GraphBuilder

__all__ = ["UtilizationReport", "analyze_simulation",
           "trace_simulation", "simulation_metrics"]


@dataclass
class UtilizationReport:
    makespan: float
    # resource kind -> busy seconds summed over all servers of that kind.
    busy: dict[str, float]
    capacity: dict[str, float]  # kind -> servers * makespan
    by_label: dict[str, float]  # label prefix -> total busy seconds
    per_node_ctrl: dict[int, float] = field(default_factory=dict)

    def utilization(self, kind: str) -> float:
        cap = self.capacity.get(kind, 0.0)
        return self.busy.get(kind, 0.0) / cap if cap else 0.0

    def ctrl_saturated(self, node: int = 0, threshold: float = 0.95) -> bool:
        """Is a node's control thread the bottleneck resource?"""
        if self.makespan <= 0:
            return False
        return self.per_node_ctrl.get(node, 0.0) / self.makespan >= threshold

    def format(self) -> str:
        lines = [f"makespan: {self.makespan * 1e3:.3f} ms"]
        for kind in sorted(self.busy):
            lines.append(f"  {kind:>5}: {self.utilization(kind) * 100:5.1f}% busy "
                         f"({self.busy[kind] * 1e3:.3f} ms over capacity "
                         f"{self.capacity[kind] * 1e3:.3f} ms)")
        top = sorted(self.by_label.items(), key=lambda kv: -kv[1])[:8]
        for label, secs in top:
            lines.append(f"  [{label}] {secs * 1e3:.3f} ms busy")
        return "\n".join(lines)


def _label_prefix(label: str) -> str:
    return label.split(":", 1)[0] if label else "task"


def analyze_simulation(g: GraphBuilder) -> UtilizationReport:
    """Summarize a completed simulation run — one bincount per statistic."""
    if g.finish is None or (g.num_tasks and float(g.finish.min()) < 0):
        raise ValueError("simulation has not been run")
    makespan = float(g.finish.max()) if g.num_tasks else 0.0
    mask = g.kind != KIND_NONE
    busy: dict[str, float] = {}
    kind_busy = np.bincount(g.kind[mask], weights=g.duration[mask],
                            minlength=len(KINDS))
    for code, name in enumerate(KINDS):
        if name != "none" and kind_busy[code] > 0:
            busy[name] = float(kind_busy[code])
    by_label: dict[str, float] = {}
    label_busy = np.bincount(g.label_id[mask], weights=g.duration[mask],
                             minlength=len(g.labels))
    for lid, label in enumerate(g.labels):
        if label_busy[lid] > 0:
            prefix = _label_prefix(label)
            by_label[prefix] = by_label.get(prefix, 0.0) + float(label_busy[lid])
    per_node_ctrl: dict[int, float] = {}
    ctrl = g.kind == KIND_CTRL
    node_busy = np.bincount(g.node[ctrl], weights=g.duration[ctrl],
                            minlength=g.num_nodes)
    for node in np.flatnonzero(node_busy > 0):
        per_node_ctrl[int(node)] = float(node_busy[node])
    capacity = {
        "core": g.num_nodes * g.cores_per_node * makespan,
        "ctrl": g.num_nodes * makespan,
        "nic": g.num_nodes * makespan,
    }
    return UtilizationReport(makespan=makespan, busy=busy, capacity=capacity,
                             by_label=by_label, per_node_ctrl=per_node_ctrl)


def simulation_metrics(sim: GraphBuilder, metrics: MetricsRegistry,
                       name_prefix: str = "sim") -> None:
    """Export a completed simulation's virtual-time buckets as metrics.

    The simulator's clock is virtual, so everything lands in gauges and
    virtual-second counters (``sim_busy_seconds_total`` per resource kind,
    ``sim_virtual_seconds_total`` per label phase) rather than wall-time
    histograms; ``name_prefix`` labels the run so several simulations can
    share a registry.  The batch scheduler's run statistics are exported
    next to them as ``simulation_*`` gauges (tasks, edges, waves, wave
    sizes) labelled with the engine that executed the run.
    """
    report = analyze_simulation(sim)
    lab = {"run": name_prefix}
    metrics.gauge("sim_makespan_seconds", **lab).set(report.makespan)
    for kind, secs in report.busy.items():
        metrics.counter("sim_busy_seconds_total", kind=kind, **lab).inc(secs)
        metrics.gauge("sim_utilization", kind=kind,
                      **lab).set(report.utilization(kind))
    for label, secs in report.by_label.items():
        metrics.counter("sim_virtual_seconds_total", phase=label,
                        **lab).inc(secs)
    for node, secs in report.per_node_ctrl.items():
        metrics.gauge("sim_ctrl_busy_seconds", node=node, **lab).set(secs)
    stats = sim.last_run_stats
    if stats:
        elab = {"run": name_prefix, "engine": stats.get("engine", "event")}
        for key in ("tasks", "edges", "waves", "max_wave_tasks",
                    "mean_wave_tasks", "heap_handoff_tasks"):
            if key in stats:
                metrics.gauge(f"simulation_{key}", **elab).set(stats[key])


def _sim_tid(kind: str, server: int) -> int:
    """Viewer row per resource: ctrl=0, nic=1, core ``s`` -> ``2+s``."""
    if kind == "ctrl":
        return 0
    if kind == "nic":
        return 1
    return 2 + server


def _graph_task_rows(g: GraphBuilder):
    """(uid, label, start, duration, kind, node, server) per pool task."""
    g.finalize()
    labels = g.labels
    for uid in range(g.num_tasks):
        k = int(g.kind[uid])
        if k == KIND_NONE:
            continue
        yield (uid, labels[int(g.label_id[uid])], float(g.start[uid]),
               float(g.duration[uid]), KINDS[k], int(g.node[uid]),
               int(g.server[uid]))


def trace_simulation(sim: GraphBuilder, tracer: Tracer,
                     name_prefix: str = "sim") -> int:
    """Export a completed simulation as virtual-time Chrome-trace events.

    Each node becomes a viewer process (``PID_SIM_BASE + node``) whose rows
    are its control thread, NIC, and cores.  Virtual seconds map to trace
    microseconds 1:1 scaled by 1e6, so simulated and wall-clock timelines
    are directly comparable.  Returns the number of events emitted.
    """
    if sim.finish is None or (sim.num_tasks and float(sim.finish.min()) < 0):
        raise ValueError("simulation has not been run")
    cores = sim.cores_per_node
    emitted = 0
    named: set[int] = set()
    rows = _graph_task_rows(sim)
    for uid, label, start, duration, kind, node, server in rows:
        pid = PID_SIM_BASE + node
        if pid not in named:
            tracer.name_process(pid, f"{name_prefix} node {node}")
            tracer.name_thread(pid, 0, "ctrl")
            tracer.name_thread(pid, 1, "nic")
            for s in range(cores):
                tracer.name_thread(pid, 2 + s, f"core {s}")
            named.add(pid)
        tracer.complete(label or f"task {uid}",
                        ts_us=start * 1e6, dur_us=duration * 1e6,
                        cat=f"sim:{kind}", pid=pid,
                        tid=_sim_tid(kind, server),
                        args={"node": node, "kind": kind})
        emitted += 1
    return emitted

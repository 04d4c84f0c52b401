"""Flight recorder: ring mechanics, driver wiring, failure dumps, drift,
and the rings as the shard runtime's one timeline.

The acceptance-critical properties:

* every SPMD driver records into the always-on rings by default;
* on every app and backend, a shard's TASK, COPY and WAIT records are
  pairwise disjoint and lie inside the iteration record around them, so
  flattening the rendered rows gives true buckets; on ``stepped`` a
  shard's descheduled turns are its WAITs, so its other records never
  contain another shard's work;
* a tracer shows the rows through the one exporter, under the tracer's
  span names, and a profile can be built from any run's rings;
* the metrics registry is read from the records after each launch: its
  task and wait histograms count exactly the matching ring records, its
  counter series equal the executor's totals, its surface is the one
  shards used to record themselves bar four stated changes, and no
  instrument is fetched while a launch runs;
* an exception leaving a run — a ``ShardExceptionGroup``, or the one
  error of a lone failing shard — automatically carries a parseable
  Chrome trace of the final window (``exc.flight_trace`` /
  ``exc.flight_path``);
* ``drift_efficiency_ratio`` (measured / machine-model predicted
  iteration time) stays within [0.5, 1.5] on the fig-6 stencil smoke.
"""

import dataclasses
import json
import os
import threading
from collections import Counter

import numpy as np
import pytest

from repro.apps.circuit import CircuitProblem
from repro.apps.miniaero import MiniAeroProblem
from repro.apps.pennant import PennantProblem
from repro.apps.stencil import StencilProblem
from repro.core import PASS_NAMES, ProgramBuilder, control_replicate
from repro.core.ir import IndexLaunch, PairwiseCopy, ScalarCollective, walk
from repro.obs import PID_SPMD, Tracer, build_profile
from repro.obs.drift import analyze_drift, export_drift_metrics
from repro.obs.flight import (
    CAPTURE,
    COMPILE,
    COPY,
    ITER,
    NULL_RING,
    TASK,
    WAIT,
    FlightRecorder,
    ShardRing,
    anchor_delta_s,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.skew import analyze_skew, export_skew_metrics
from repro.runtime import SPMDExecutor, procs_available
from repro.runtime.spmd import COUNTERS
from repro.runtime.window import exec as window_exec
from repro.tasks import R, RW, task

MODES = ["stepped", "threaded"] + (["procs", "net"] if procs_available()
                                   else [])

APPS = {
    "stencil": lambda: StencilProblem(n=24, radius=2, tiles=4, steps=4),
    "circuit": lambda: CircuitProblem(pieces=4, nodes_per_piece=25,
                                      wires_per_piece=40, steps=4),
    "pennant": lambda: PennantProblem(nx=8, ny=8, pieces=4, steps=4),
    "miniaero": lambda: MiniAeroProblem(shape=(6, 6, 6), tiles=4, steps=4),
}


# The metric surface (``name{label keys}``) of a 2-shard run of each app
# in APPS while every shard still recorded into a registry of its own; it
# was the same for all four apps on a backend.  The registry read from
# the records differs from it in exactly the ways SURFACE_CHANGES states.
_SURFACE_COMMON = frozenset({
    "compiler_pass_ir_stmts{pass}", "compiler_pass_runs_total{pass}",
    "compiler_pass_seconds_total{pass}", "compiler_pass_stat_total{pass,stat}",
    "spmd_bytes_copied_total{shard}", "spmd_copies_total{shard}",
    "spmd_elements_copied_total{shard}", "spmd_fused_batch_pairs{shard}",
    "spmd_fused_copies_total{shard}", "spmd_fused_pairs_total{shard}",
    "spmd_intersection_nonempty_pairs{pair_set}",
    "spmd_intersection_seconds{pair_set}",
    "spmd_intersections_computed_total{}", "spmd_pair_visits_total{shard}",
    "spmd_reduction_folds_total{path,shard}",
    "spmd_replay_iterations_total{outcome,shard}",
    "spmd_task_seconds{shard,task}", "spmd_tasks_total{shard}",
    "spmd_window_closures_total{shard}", "spmd_window_compiles_total{shard}",
    "spmd_window_ops_total{shard,stage}", "spmd_window_pass_ir_stmts{pass}",
    "spmd_window_pass_runs_total{pass}",
    "spmd_window_pass_seconds_total{pass}",
    "spmd_window_pass_stat_total{pass,stat}"})
_WAIT_SERIES = "spmd_wait_seconds{kind,shard}"
GOLDEN_SURFACE = {
    "stepped": _SURFACE_COMMON,
    "threaded": _SURFACE_COMMON | {_WAIT_SERIES},
    "procs": _SURFACE_COMMON | {_WAIT_SERIES},
    "net": _SURFACE_COMMON | {_WAIT_SERIES, "net_bytes_recv_total{rank}",
                              "net_bytes_sent_total{rank}",
                              "net_messages_total{direction,kind,rank}"},
}
SURFACE_CHANGES = {
    # 1. Pairs per fused item, observed at lowering inside the shards;
    #    spmd_fused_pairs_total / spmd_fused_copies_total is its mean.
    "removed": {"spmd_fused_batch_pairs{shard}"},
    # 2. Stepped's WAIT records (descheduled turns) are histogrammed like
    #    every other backend's.
    "added_on_stepped": {_WAIT_SERIES},
    # 3. A wait's kind is the kind of statement its record's uid names
    #    (a barrier-mode copy's pre/post waits name the copy).
    "wait_kinds": {"copy", "collective", "event"},
    # 4. The plan's cost: the launch table's build, and each shard's slice.
    "added": {"spmd_launch_table_seconds{}", "spmd_plan_seconds{shard}"},
}

# Statement class -> the wait kind its uid gives a WAIT record.
_WAIT_KIND = {PairwiseCopy: "copy", ScalarCollective: "collective"}


def _surface(metrics) -> set[str]:
    return {f"{name}{{{','.join(sorted(labels))}}}"
            for name, labels, _ in metrics.items()}


def _series_total(metrics, metric, labels) -> float:
    return sum(inst.value for name, have, inst in metrics.items()
               if name == metric
               and all(have.get(k) == v for k, v in labels.items()))


class _LaunchGuard(MetricsRegistry):
    """A registry that fails any instrument fetch made while a shard
    launch runs, in this process or in a shard process forked from it."""

    def __init__(self):
        super().__init__()
        self.launching = False

    def _get(self, cls, name, labels, *args):
        if self.launching:
            raise AssertionError(
                f"metric {name!r} fetched while a shard launch runs")
        return super()._get(cls, name, labels, *args)


def run_stencil(mode, steps=14, shards=2, **kw):
    p = StencilProblem(n=32, radius=2, tiles=4, steps=steps)
    prog, _ = control_replicate(p.build_program(), num_shards=shards)
    ex = SPMDExecutor(num_shards=shards, mode=mode,
                      instances=p.fresh_instances(), **kw)
    ex.run(prog)
    return ex


class TestShardRing:
    def test_append_and_snapshot_order(self):
        ring = ShardRing(capacity=4)
        for i in range(3):
            ring.record(TASK, i, float(i), i + 0.5)
        snap = ring.snapshot()
        assert list(snap["uid"]) == [0, 1, 2]
        assert ring.count == 3 and ring.dropped == 0

    def test_wraparound_drops_oldest(self):
        ring = ShardRing(capacity=4)
        for i in range(7):
            ring.record(TASK, i, float(i), i + 0.5, nbytes=i * 10)
        assert ring.count == 7 and ring.dropped == 3 and len(ring) == 4
        snap = ring.snapshot()
        assert list(snap["uid"]) == [3, 4, 5, 6]  # oldest -> newest
        assert list(snap["nbytes"]) == [30, 40, 50, 60]

    def test_windows_filter_by_kind(self):
        ring = ShardRing(capacity=16)
        ring.record(ITER, 1, 0.0, 1.0)
        ring.record(TASK, 2, 1.0, 1.5)
        ring.record(CAPTURE, 3, 2.0, 4.0)
        t0, t1 = ring.windows()
        assert list(t1 - t0) == [1.0, 2.0]       # ITER + CAPTURE
        t0, t1 = ring.windows((ITER,))
        assert list(t1 - t0) == [1.0]            # steady-state only

    def test_wait_seconds_sums_wait_records(self):
        ring = ShardRing(capacity=8)
        ring.record(WAIT, 0, 0.0, 0.25)
        ring.record(TASK, 1, 0.3, 0.4)
        ring.record(WAIT, 0, 0.5, 0.75)
        assert ring.wait_seconds() == pytest.approx(0.5)

    def test_export_ingest_roundtrip_with_rebase(self):
        child = ShardRing(capacity=8)
        for i in range(5):
            child.record(TASK, i, float(i), i + 0.5)
        payload = child.export_since(0)
        parent = ShardRing(capacity=8)
        parent.ingest(payload, delta_s=100.0)
        snap = parent.snapshot()
        assert parent.count == 5
        assert list(snap["uid"]) == [0, 1, 2, 3, 4]
        assert snap["t0"][0] == pytest.approx(100.0)

    def test_ingest_mirrors_child_drop_accounting(self):
        child = ShardRing(capacity=4)
        for i in range(10):
            child.record(TASK, i, float(i), i + 0.5)
        payload = child.export_since(0)  # only the last 4 survive
        parent = ShardRing(capacity=4)
        parent.ingest(payload)
        assert parent.count == child.count == 10
        assert parent.dropped == child.dropped == 6
        assert list(parent.snapshot()["uid"]) == [6, 7, 8, 9]

    def test_export_since_base_skips_already_shipped(self):
        ring = ShardRing(capacity=8)
        for i in range(6):
            ring.record(TASK, i, float(i), i + 0.5)
        payload = ring.export_since(4)
        assert list(payload["uid"]) == [4, 5]

    def test_null_ring_records_nothing(self):
        NULL_RING.record(TASK, 1, 0.0, 1.0)
        assert NULL_RING.count == 0
        assert NULL_RING.enabled is False
        assert ShardRing.enabled is True

    def test_anchor_delta_threshold(self):
        # Sub-threshold skew is fork jitter, not a rebase.
        assert anchor_delta_s((100.0, 50.0), (100.0, 50.001)) == 0.0
        assert anchor_delta_s((100.0, 50.0), (100.0, 40.0)) == \
            pytest.approx(10.0)


class TestChromeExport:
    def test_trace_rebased_and_labelled(self):
        rec = FlightRecorder(num_shards=2)
        rec.ring(0).record(ITER, 1, 10.0, 11.0)
        rec.ring(1).record(TASK, 2, 10.5, 10.8)
        trace = rec.to_chrome()
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        names = {e["args"]["name"] for e in trace["traceEvents"]
                 if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert names == {"shard 0", "shard 1"}
        assert min(e["ts"] for e in spans) == 0.0  # rebased to the start

    def test_last_s_keeps_only_the_tail(self):
        rec = FlightRecorder(num_shards=1)
        rec.ring(0).record(TASK, 1, 0.0, 1.0)
        rec.ring(0).record(TASK, 2, 99.0, 100.0)
        spans = [e for e in rec.to_chrome(last_s=5.0)["traceEvents"]
                 if e.get("ph") == "X"]
        assert [e["args"]["uid"] for e in spans] == [2]


class TestRowRendering:
    def _recorder(self):
        rec = FlightRecorder(num_shards=1)
        rec.names.update({10: "task:TF", 11: "copy:A->B"})
        ring = rec.ring(0)
        ring.record(CAPTURE, 5, 0.0, 1.0)
        ring.record(TASK, 10, 0.1, 0.2)
        ring.record(COPY, 11, 0.3, 0.4, nbytes=64)
        ring.record(WAIT, 11, 0.5, 0.6)
        ring.record(COMPILE, 5, 1.0, 1.5)
        ring.record(ITER, 5, 2.0, 3.0)
        ring.record(TASK, 5, 2.1, 2.2)
        ring.record(COPY, 5, 2.3, 2.4, nbytes=32)
        ring.record(WAIT, 0, 2.5, 2.6)
        return rec

    def test_rows_take_the_tracer_names_and_categories(self):
        trace = self._recorder().to_chrome()["traceEvents"]
        rows = [(e["name"], e["cat"]) for e in trace if e["ph"] == "X"]
        assert rows == [
            ("replay:capture", "replay"), ("task:TF", "task"),
            ("copy:A->B", "copy"), ("wait:copy:A->B", "wait"),
            ("window:compile", "replay"), ("replay:iteration", "jit"),
            ("jit:compute", "task"), ("jit:copy", "copy"),
            ("wait:event", "wait")]
        assert all(e["pid"] == PID_SPMD for e in trace)
        copied = [e["args"]["value"] for e in trace
                  if e["name"] == "bytes copied"]
        assert copied == [64.0, 96.0]  # cumulative per shard
        (replay,) = [e for e in trace if e["name"] == "replay"]
        assert replay["args"] == {"hit": 1, "miss": 1}

    def test_tracer_renders_attached_rings_on_its_clock(self):
        rec = FlightRecorder(num_shards=1)
        tracer = Tracer()
        tracer.attach(rec)
        assert not [e for e in tracer.events() if e["ph"] == "X"]
        t0 = tracer._t0
        rec.ring(0).record(ITER, 1, t0 + 1.0, t0 + 2.0)
        (row,) = [e for e in tracer.events() if e["ph"] == "X"]
        assert row["ts"] == pytest.approx(1e6)
        assert row["dur"] == pytest.approx(1e6)

    def test_overflow_is_reported_not_silent(self):
        rec = FlightRecorder(num_shards=1, capacity=4)
        for i in range(10):
            rec.ring(0).record(ITER, 1, float(i), i + 0.5)
        events = rec.to_chrome()["traceEvents"]
        (mark,) = [e for e in events if e["name"] == "flight:dropped"]
        assert mark["args"]["dropped"] == 6
        report = build_profile(events, num_shards=1)
        assert report.dropped_records == 6
        assert "overwritten" in report.format()


def _check_nesting(snap):
    """Inside every ITER/CAPTURE record, the shard's TASK, COPY and WAIT
    records lie within it; all of them are pairwise disjoint."""
    kind = snap["kind"]
    windows = np.isin(kind, (ITER, CAPTURE))
    inner = np.isin(kind, (TASK, COPY, WAIT))
    assert windows.any() and inner.any()
    t0, t1 = snap["t0"][inner], snap["t1"][inner]
    order = np.argsort(t0, kind="stable")
    t0, t1 = t0[order], t1[order]
    assert np.all(t0[1:] >= t1[:-1]), "overlapping TASK/COPY/WAIT records"
    for w0, w1 in zip(snap["t0"][windows], snap["t1"][windows]):
        overlapping = (t0 < w1) & (t1 > w0)
        assert np.all((t0[overlapping] >= w0) & (t1[overlapping] <= w1))


class TestOneTimeline:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_records_nest_and_profile_sums(self, app, mode):
        tracer = Tracer()
        _, _, ex, _ = APPS[app]().run_control_replicated(
            2, mode=mode, tracer=tracer)
        for shard in (0, 1):
            _check_nesting(ex.flight.ring(shard).snapshot())
        events = tracer.events()
        names = {e["name"] for e in events if e.get("pid") == PID_SPMD}
        assert {"replay:capture", "replay:iteration"} <= names
        report = build_profile(events, num_shards=2, executor=ex)
        assert len(report.shards) == 2
        for a in report.shards:
            assert sum(a.buckets.values()) == pytest.approx(a.wall_s,
                                                            rel=0.02)
        assert report.critical_path and report.critical_path.steps

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_registry_is_read_from_the_records(self, app, mode):
        p = APPS[app]()
        metrics = MetricsRegistry()
        prog, _ = control_replicate(p.build_program(), num_shards=2,
                                    metrics=metrics)
        ex = SPMDExecutor(num_shards=2, mode=mode, metrics=metrics,
                          instances=p.fresh_instances())
        ex.run(prog)
        stmts = {s.uid: s for s in walk(prog.body)}
        tasks, waits = Counter(), Counter()
        for shard in ex.flight.shards():
            snap = ex.flight.ring(shard).snapshot()
            for kind, uid in zip(snap["kind"].tolist(), snap["uid"].tolist()):
                stmt = stmts.get(uid)
                if kind == TASK and isinstance(stmt, IndexLaunch):
                    tasks[str(shard), stmt.task.name] += 1
                elif kind == WAIT:
                    waits[str(shard), _WAIT_KIND.get(type(stmt), "event")] += 1
        # The histograms count exactly the matching ring records.
        hists = {name: Counter() for name in ("spmd_task_seconds",
                                              "spmd_wait_seconds")}
        for name, labels, inst in metrics.items():
            if name in hists:
                key = labels.get("task", labels.get("kind"))
                hists[name][labels["shard"], key] += inst.count
        assert hists["spmd_task_seconds"] == tasks
        assert hists["spmd_wait_seconds"] == waits
        wait_kinds = {kind for _, kind in waits}
        assert wait_kinds <= SURFACE_CHANGES["wait_kinds"]
        if app != "pennant":  # the only app with a ScalarCollective
            assert "collective" not in wait_kinds
        # The surface is the golden one with the stated changes.
        expected = ((GOLDEN_SURFACE[mode] - SURFACE_CHANGES["removed"])
                    | SURFACE_CHANGES["added"])
        if mode == "stepped":
            assert waits, "stepped records its descheduled turns as WAITs"
            expected = expected | SURFACE_CHANGES["added_on_stepped"]
        got = _surface(metrics)
        assert (_WAIT_SERIES in got) == bool(waits)
        assert got - {_WAIT_SERIES} == expected - {_WAIT_SERIES}
        # Derived values equal the executor's own counts.
        for attr, (metric, labels) in COUNTERS.items():
            assert _series_total(metrics, metric, labels) == getattr(ex, attr)
        for name in PASS_NAMES:
            assert _series_total(metrics, "compiler_pass_runs_total",
                                 {"pass": name}) == 1
        for wp in window_exec.window_passes():
            assert _series_total(metrics, "spmd_window_pass_runs_total",
                                 {"pass": wp.name}) == ex.window_compiles
        for rank, net in ex.net_stats.items():
            assert _series_total(metrics, "net_bytes_sent_total",
                                 {"rank": str(rank)}) == net["bytes_sent"]

    @pytest.mark.parametrize("seed", range(10))
    def test_stepped_turns_of_other_shards_are_waits(self, seed):
        p = APPS["circuit"]()
        _, _, ex, _ = p.run_control_replicated(2, mode="stepped", seed=seed)
        snaps = [ex.flight.ring(s).snapshot() for s in (0, 1)]
        for x, mine in enumerate(snaps):
            theirs = snaps[1 - x]
            work = np.isin(theirs["kind"], (TASK, COPY))
            r0, r1 = theirs["t0"][work], theirs["t1"][work]
            waits = mine["kind"] == WAIT
            w0, w1 = mine["t0"][waits], mine["t1"][waits]
            windows = np.isin(mine["kind"], (ITER, CAPTURE))
            for s0, s1 in zip(mine["t0"][windows], mine["t1"][windows]):
                inside = (r0 < s1) & (r1 > s0)
                for a, b in zip(r0[inside], r1[inside]):
                    assert np.any((w0 <= a) & (b <= w1)), (
                        f"seed {seed}: shard {1 - x}'s record [{a}, {b}] "
                        f"lies in shard {x}'s iteration outside its waits")
        report = build_profile(ex.flight.to_chrome()["traceEvents"],
                               num_shards=2, executor=ex)
        assert all(a.buckets["sync_wait"] > 0 for a in report.shards)


class TestNoRegistryInLaunch:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_no_instrument_fetched_while_a_launch_runs(self, app, mode):
        p = APPS[app]()
        guard = _LaunchGuard()
        prog, _ = control_replicate(p.build_program(), num_shards=2,
                                    metrics=guard)
        ex = SPMDExecutor(num_shards=2, mode=mode, metrics=guard,
                          instances=p.fresh_instances())
        launch = ex.backend.launch
        launched = []

        def guarded(ex_, stmt, spec, states):
            held = [(st.shard, attr) for st in states
                    for attr, value in vars(st).items()
                    if isinstance(value, MetricsRegistry)]
            assert not held, f"shard states hold registries: {held}"
            guard.launching = True
            try:
                launch(ex_, stmt, spec, states)
            finally:
                guard.launching = False
            launched.append(stmt.uid)

        ex.backend = dataclasses.replace(ex.backend, launch=guarded)
        ex.run(prog)
        assert launched
        # Filled after the launch, from its records.
        assert _series_total(guard, "spmd_tasks_total", {}) == \
            ex.tasks_executed > 0


class TestDriverWiring:
    @pytest.mark.parametrize("mode", ["stepped", "threaded"])
    def test_drivers_record_by_default(self, mode):
        ex = run_stencil(mode)
        assert ex.flight is not None
        kinds = set()
        for shard in ex.flight.shards():
            kinds |= set(ex.flight.ring(shard).snapshot()["kind"])
        # Replayed iterations, captured ones, tasks, and halo copies all
        # leave records; stepped never blocks so WAIT is threaded-only.
        assert {ITER, CAPTURE, TASK, COPY} <= kinds

    @pytest.mark.parametrize("mode", ["stepped", "threaded"] +
                             (["procs"] if procs_available() else []))
    def test_compile_not_counted_as_capture(self, mode):
        # Layer attribution sums the two kinds, so a freeze's COMPILE
        # interval must not lie inside the capture iteration before it.
        ex = run_stencil(mode)
        for shard in ex.flight.shards():
            snap = ex.flight.ring(shard).snapshot()
            captures = snap["kind"] == CAPTURE
            compiles = snap["kind"] == COMPILE
            assert captures.any() and compiles.any()
            for c0, c1 in zip(snap["t0"][compiles], snap["t1"][compiles]):
                assert not np.any((snap["t0"][captures] <= c0)
                                  & (c1 <= snap["t1"][captures]))

    def test_threaded_records_waits(self):
        ex = run_stencil("threaded")
        assert any(ex.flight.ring(s).wait_seconds() >= 0.0
                   and WAIT in ex.flight.ring(s).snapshot()["kind"]
                   for s in ex.flight.shards())

    @pytest.mark.skipif(not procs_available(),
                        reason="no usable shared memory on this host")
    def test_procs_funnels_child_rings_to_parent(self):
        ex = run_stencil("procs")
        assert ex.flight is not None
        per_shard = [ex.flight.ring(s).count for s in ex.flight.shards()]
        assert all(c > 0 for c in per_shard), per_shard
        # The funneled records form sane windows on the parent's clock.
        t0, t1 = ex.flight.ring(0).windows()
        assert t0.size > 0 and np.all(t1 >= t0)

    def test_flight_kwarg_off_disables_recording(self):
        ex = run_stencil("stepped", flight=False)
        assert ex.flight is None

    def test_rings_survive_across_runs_in_one_executor(self):
        p = StencilProblem(n=32, radius=2, tiles=4, steps=6)
        prog, _ = control_replicate(p.build_program(), num_shards=2)
        ex = SPMDExecutor(num_shards=2, mode="stepped",
                          instances=p.fresh_instances())
        ex.run(prog)
        first = ex.flight.records_total()
        ex.run(prog)
        assert ex.flight.records_total() > first  # rolling, never reset


class TestFailureDump:
    def _boom_setup(self, fig2):
        @task(privileges=[RW("v"), R("v")], name="flight_boom")
        def boom(Bv, Av):
            raise ValueError("boom")

        b = ProgramBuilder()
        with b.for_range("t", 0, 1):
            b.launch(boom, fig2.I, fig2.PB, fig2.PA)
        prog, _ = control_replicate(b.build(), num_shards=2)
        return prog

    def test_shard_exception_group_carries_trace(self, fig2):
        from repro.runtime.spmd import ShardExceptionGroup
        prog = self._boom_setup(fig2)
        ex = SPMDExecutor(num_shards=2, mode="threaded",
                          instances=fig2.fresh_instances())
        with pytest.raises(ShardExceptionGroup) as exc_info:
            ex.run(prog)
        trace = exc_info.value.flight_trace
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert spans, "failure dump has no flight records"
        assert json.loads(json.dumps(trace))

    def test_dump_written_to_flight_dir(self, fig2, tmp_path):
        from repro.runtime.spmd import ShardExceptionGroup
        prog = self._boom_setup(fig2)
        ex = SPMDExecutor(num_shards=2, mode="threaded",
                          instances=fig2.fresh_instances(),
                          flight_dir=str(tmp_path))
        with pytest.raises(ShardExceptionGroup) as exc_info:
            ex.run(prog)
        path = exc_info.value.flight_path
        assert path and path.startswith(str(tmp_path))
        with open(path) as fh:
            trace = json.load(fh)
        # The failing point task is a row named after its launch, on a
        # shard's row.
        assert any(e.get("name") == "task:flight_boom"
                   for e in trace["traceEvents"])
        shard_rows = {e["tid"] for e in trace["traceEvents"]
                      if e.get("ph") == "X" and e.get("pid") == PID_SPMD}
        assert shard_rows and shard_rows <= {0, 1}


    @pytest.mark.parametrize("mode", ["stepped", "threaded"])
    def test_lone_shard_failure_dumps_its_flight(self, fig2, mode,
                                                 tmp_path):
        # Only point 0's task raises, so one shard fails and the other is
        # cancelled: the run raises that one error as itself, not as a
        # ShardExceptionGroup, and still dumps the rings.
        @task(privileges=[RW("v"), R("v")], name="flight_lone")
        def lone(Bv, Av):
            if Bv.points[0] == 0:
                raise ValueError("lone boom")
            Bv.write("v")[:] = Av.read("v")

        b = ProgramBuilder()
        with b.for_range("t", 0, 1):
            b.launch(lone, fig2.I, fig2.PB, fig2.PA)
        prog, _ = control_replicate(b.build(), num_shards=2)
        ex = SPMDExecutor(num_shards=2, mode=mode,
                          instances=fig2.fresh_instances(),
                          flight_dir=str(tmp_path))
        with pytest.raises(ValueError, match="lone boom") as exc_info:
            ex.run(prog)
        exc = exc_info.value
        assert any(e.get("name") == "task:flight_lone"
                   for e in exc.flight_trace["traceEvents"])
        assert os.path.dirname(exc.flight_path) == str(tmp_path)
        assert os.listdir(tmp_path) == [os.path.basename(exc.flight_path)]


class TestSkewAndDrift:
    def _recorder(self, shard_costs, windows=12):
        rec = FlightRecorder(num_shards=len(shard_costs))
        t = 0.0
        for w in range(windows):
            for shard, cost in enumerate(shard_costs):
                rec.ring(shard).record(ITER, w, t, t + cost)
            t += max(shard_costs)
        return rec

    def test_skew_finds_the_straggler(self):
        rec = self._recorder([0.010, 0.010, 0.025])
        report = analyze_skew(rec)
        assert report.critical_shard == 2
        assert report.imbalance_ratio == pytest.approx(25 / 15, rel=1e-6)

    def test_drift_ratio_is_one_on_synthetic_steady_state(self):
        report = analyze_drift(self._recorder([0.010, 0.012]))
        assert report is not None
        assert report.efficiency_ratio == pytest.approx(1.0, rel=0.05)

    def test_drift_needs_enough_windows(self):
        assert analyze_drift(self._recorder([0.01], windows=4)) is None

    def test_export_gauges(self):
        rec = self._recorder([0.010, 0.020])
        reg = MetricsRegistry()
        assert export_skew_metrics(rec, reg) is not None
        assert export_drift_metrics(rec, reg) is not None
        flat = reg.flat()
        assert flat["skew_critical_shard"] == 1
        assert flat["skew_imbalance_ratio"] > 1.0
        assert 0.5 <= flat["drift_efficiency_ratio"] <= 1.5
        assert flat["flight_records_total"] == rec.records_total()

    @pytest.mark.parametrize("mode", ["threaded"] +
                             (["procs"] if procs_available() else []))
    def test_fig6_smoke_drift_within_band(self, mode):
        """Acceptance: measured/predicted within [0.5, 1.5] live.

        Best of three short runs: eight ~1 ms windows on either side of
        the calibration split are few enough that one preemption of a
        loaded host moves a run's ratio out of the band.
        """
        reports = []
        for _ in range(3):
            ex = run_stencil(mode, steps=16)
            skew, drift = ex.export_flight_metrics(MetricsRegistry())
            assert skew is not None and skew.num_windows > 0
            assert drift is not None
            reports.append(drift.to_dict())
            if 0.5 <= drift.efficiency_ratio <= 1.5:
                return
        pytest.fail(f"no run of three within the band: {reports}")


class TestPredictIterationSeconds:
    def test_balanced_shards_predict_their_cost(self):
        from repro.machine.from_graph import predict_iteration_seconds
        pred = predict_iteration_seconds(np.array([0.01, 0.01, 0.01]))
        assert pred == pytest.approx(0.01, rel=1e-6)

    def test_straggler_dominates(self):
        from repro.machine.from_graph import predict_iteration_seconds
        pred = predict_iteration_seconds(np.array([0.01, 0.03]))
        assert pred == pytest.approx(0.03, rel=1e-6)

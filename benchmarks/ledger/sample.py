"""One child process of the ledger: takes samples of one workload.

``run.py`` starts this file once per workload and round, so that every
sample runs in a fresh interpreter and a slow phase of the shared host
lands on every workload alike.  Two modes:

``--mode reference``
    Runs the sequential baseline at the cold and the long step count,
    checks it once against the app's pure-numpy ``reference_state()`` and
    saves its state under ``--tmp``; for ``sim_fig7`` it saves the
    ``event`` oracle's table at <= 16 nodes.

``--mode sample``
    Runs one discarded tiny problem on the workload's backend (lazy
    imports, first fork, first bind), then takes (cold, long) sample
    pairs until ``--seconds`` have passed and at least ``--min-pairs`` are
    done, then with ``--trace 1`` one traced long sample.  Every sample's output is checked against the saved
    reference.  Each layer is measured from outside: spans around public
    calls, and the artifacts every run already produces.

The last line of stdout is one JSON object.  Timers start after imports.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

from spans import Spans
from workloads import COLD_STEPS, ORACLE_NODES, SHARDS, WORKLOADS

# Large enough that no flight record of a long sample is overwritten
# (the default ring keeps 4096); obs.flight_dropped reports any that are.
FLIGHT_CAPACITY = 1 << 16

EXECUTOR_COUNTERS = (
    "tasks_executed", "copies_performed", "pair_visits", "bytes_copied",
    "fused_copies", "fused_pairs", "lockfree_folds", "locked_folds",
    "replay_hits", "replay_misses", "replay_guard_fallbacks",
    "window_compiles", "window_ops_recorded", "window_ops_lowered",
    "window_closures")


def cpu_seconds() -> float:
    """User+sys CPU of this process and the children it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def calibrate() -> float:
    """Milliseconds of a fixed numpy + pure-Python kernel (host speed);
    best of three, so that it reads the host and not one preemption."""
    best = float("inf")
    for _ in range(3):
        a = np.linspace(0.0, 1.0, 1 << 16)
        t0 = time.perf_counter()
        for _ in range(60):
            a = np.sqrt(a * a + 1e-9)
        acc = 0
        for i in range(100_000):
            acc += i % 7
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return best


def states_match(state: dict, ref: dict, exact: bool) -> bool:
    """Stencil is bit-identical; reduction apps follow the `repro run` rule."""
    if exact:
        return all(np.array_equal(state[k], ref[k]) for k in ref)
    return all(np.allclose(state[k], ref[k], rtol=1e-11, atol=1e-13)
               for k in ref)


# -- application workloads ---------------------------------------------------

def flight_summary(ex) -> dict:
    """Per-kind busy seconds of the slowest shard, from the flight rings."""
    from repro.obs import flight as fl
    kinds = {"capture_s": fl.CAPTURE, "compile_s": fl.COMPILE,
             "task_s": fl.TASK, "wait_s": fl.WAIT, "copy_s": fl.COPY}
    out = {k: 0.0 for k in kinds}
    iter_p50, iter_max = [], []
    for shard in ex.flight.shards():
        snap = ex.flight.ring(shard).snapshot()
        dur = snap["t1"] - snap["t0"]
        for key, kind in kinds.items():
            out[key] = max(out[key], float(dur[snap["kind"] == kind].sum()))
        iters = dur[snap["kind"] == fl.ITER]
        if iters.size:
            iter_p50.append(float(np.median(iters)))
            iter_max.append(float(iters.max()))
    if iter_p50:
        out["iter_p50_ms"] = max(iter_p50) * 1e3
        out["iter_max_ms"] = max(iter_max) * 1e3
    out["dropped"] = ex.flight.dropped_total()
    return out


def net_summary(ex) -> dict:
    msgs = sum(ex.net_stats[r]["messages_sent"].get(k, 0)
               for r in ex.net_stats for k in ("data", "msg"))
    return {"msgs": msgs,
            "wire_bytes": sum(ex.net_stats[r]["bytes_sent"]
                              for r in ex.net_stats)}


def compile_summary(report) -> dict:
    out = {"pass_s": {t.name: t.seconds for t in report.passes}}
    frags = report.fragments
    out["copies_inserted"] = sum(f.exchange_copies + f.reduction_copies
                                 for f in frags)
    out["p2p_copies"] = sum(f.sync.p2p_copies for f in frags)
    out["collectives"] = sum(f.sync.collectives for f in frags)
    return out


def intersection_summary(ex) -> dict:
    results = list(ex.pair_sets.values())
    return {"shallow_s": sum(r.shallow_seconds for r in results),
            "complete_s": sum(r.complete_seconds for r in results),
            "candidate_pairs": sum(r.candidate_pairs for r in results),
            "nonempty_pairs": sum(len(r.pairs) for r in results)}


def profile_summary(tracer, ex, report, metrics) -> dict:
    from repro.obs import build_profile
    prof = build_profile(tracer.events(), num_shards=SHARDS, executor=ex,
                         compile_report=report, metrics=metrics)
    slowest = max(prof.shards, key=lambda a: a.wall_s)
    out = {f"{b}_s": v for b, v in slowest.buckets.items()}
    out["bucket_sum_err"] = (abs(sum(slowest.buckets.values())
                                 - slowest.wall_s) / slowest.wall_s)
    out["critical_path_s"] = (prof.critical_path.dur_s
                              if prof.critical_path else 0.0)
    return out


def app_sample(w, seed: int, steps: int, kind: str, ref: dict,
               spans: Spans) -> dict:
    """One whole run of an app workload on its backend, checked."""
    from repro.core import control_replicate
    from repro.obs import NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer
    from repro.regions.shm import live_segment_count
    from repro.runtime import SPMDExecutor
    traced = kind == "traced"
    tracer = Tracer() if traced else NULL_TRACER
    metrics = MetricsRegistry() if traced else NULL_METRICS
    with spans.span(f"sample:{kind}") as top:
        with spans.span("build"):
            problem = w.make(seed, steps)
            program = problem.build_program()
        with spans.span("compile"):
            prog, report = control_replicate(program, num_shards=SHARDS,
                                             tracer=tracer, metrics=metrics)
        with spans.span("fresh_instances"):
            instances = problem.fresh_instances()
        ex = SPMDExecutor(num_shards=SHARDS, mode=w.backend,
                          instances=instances, tracer=tracer, metrics=metrics,
                          flight=True, flight_capacity=FLIGHT_CAPACITY)
        cpu0 = cpu_seconds()
        with spans.span("run"):
            ex.run(prog)
        cpu = cpu_seconds() - cpu0
        with spans.span("extract_state"):
            state = problem.extract_state(ex.instances)
    leaked = live_segment_count()
    rec = {"kind": kind, "steps": steps, "cpu_s": cpu, "leaked": leaked,
           "total_s": top["end"] - top["start"],
           "t": spans.durations(top["id"]),
           "counters": {c: int(getattr(ex, c)) for c in EXECUTOR_COUNTERS},
           "compile": compile_summary(report),
           "isect": intersection_summary(ex),
           "flight": flight_summary(ex)}
    if ex.net_stats:
        rec["net"] = net_summary(ex)
    if traced:
        rec["profile"] = profile_summary(tracer, ex, report, metrics)
    errors = []
    if not states_match(state, ref["state"], w.exact):
        errors.append("state differs from the sequential reference")
    if rec["counters"]["tasks_executed"] != ref["tasks"]:
        errors.append(f"{rec['counters']['tasks_executed']} tasks, "
                      f"sequential ran {ref['tasks']}")
    if leaked:
        errors.append(f"{leaked} live shared-memory segments")
    if rec["flight"]["dropped"] and kind == "cold":
        errors.append("flight ring overflowed on a cold sample")
    rec["error"] = "; ".join(errors) or None
    return rec


def app_reference(w, seed: int, steps: int, reps: int) -> tuple[dict, dict]:
    """Sequential baseline: its state, task count and median wall."""
    from repro.runtime import SequentialExecutor
    walls = []
    for _ in range(reps):
        problem = w.make(seed, steps)
        ex = SequentialExecutor(instances=problem.fresh_instances())
        t0 = time.perf_counter()
        ex.run(problem.build_program())
        walls.append(time.perf_counter() - t0)
    state = problem.extract_state(ex.instances)
    return state, {"steps": steps, "run_s": float(np.median(walls)),
                   "tasks": int(ex.tasks_executed)}


def check_sequential(w, seed: int, steps: int, state: dict) -> None:
    """The sequential state itself, against independent pure numpy."""
    ref = w.make(seed, steps).reference_state()
    for key in set(ref) & set(state):  # references may report extras
        if not np.allclose(state[key], ref[key], rtol=1e-11, atol=1e-12):
            raise SystemExit(f"{w.name}: sequential != reference_state() "
                             f"on {key!r} at {steps} steps")


# -- sim_fig7 ----------------------------------------------------------------

def sim_table(max_nodes: int, engine: str, spans: Spans, kind: str,
              traced: bool = False) -> dict:
    from repro.analysis import run_figure
    from repro.apps.miniaero.perf import figure7_spec
    from repro.machine.model import PIZ_DAINT
    from repro.obs import Tracer
    tracer = Tracer() if traced else None
    with spans.span(f"sample:{kind}") as top:
        with spans.span("build"):
            spec = figure7_spec(PIZ_DAINT, max_nodes=max_nodes, engine=engine)
        cpu0 = cpu_seconds()
        with spans.span("run"):
            data = run_figure(spec, tracer=tracer)
        cpu = cpu_seconds() - cpu0
    rec = {"kind": kind, "steps": max_nodes, "cpu_s": cpu, "error": None,
           "total_s": top["end"] - top["start"],
           "t": spans.durations(top["id"]),
           "points": sum(len(v) for v in data.values.values()),
           "table": {label: {str(n): v for n, v in vals.items()}
                     for label, vals in data.values.items()}}
    if traced:
        sweep: dict[str, float] = {}
        for ev in tracer.events():
            if ev.get("name") == "sim:run":
                key = f"n{ev['args']['nodes']}"
                sweep[key] = sweep.get(key, 0.0) + ev["dur"] / 1e6
        rec["sweep_s"] = sweep
        rec["machine"] = sim_graph_stats(max_nodes, spans)
    return rec


def sim_graph_stats(nodes: int, spans: Spans) -> dict:
    """Task and wave counts of the CR series' largest graph.

    ``run_figure`` returns throughputs only; the finished graph is handed
    out by the execution models' public ``on_complete`` hook.
    """
    from repro.apps.miniaero.perf import RATE_REGENT_1NODE, miniaero_workload
    from repro.machine.execution_models import simulate_regent_cr
    from repro.machine.model import PIZ_DAINT as M
    tiles_per_node = M.cores_per_node - (1 if M.dedicated_analysis_core else 0)
    stats: dict = {}
    with spans.span("machine.simulate_regent_cr") as sp:
        simulate_regent_cr(miniaero_workload(tiles_per_node, RATE_REGENT_1NODE),
                           M, nodes, engine="vector",
                           on_complete=lambda g: stats.update(g.last_run_stats))
    wall = sp["end"] - sp["start"]
    return {"sim_tasks": stats["tasks"], "waves": stats["waves"],
            "tasks_per_s": stats["tasks"] / wall}


def sim_sample(nodes: int, kind: str, oracle: dict, spans: Spans) -> dict:
    """One vector-engine sweep; the cold one is checked against the oracle."""
    rec = sim_table(nodes, "vector", spans, kind, traced=kind == "traced")
    table = rec.pop("table")
    if kind == "cold":
        for label, vals in oracle.items():
            for n, want in vals.items():
                got = table.get(label, {}).get(n)
                if got != want:
                    rec["error"] = (f"vector engine != event oracle at "
                                    f"{label!r}, {n} nodes: {got} vs {want}")
    return rec


# -- modes -------------------------------------------------------------------

def run_reference(w, args, long_steps: int) -> dict:
    out = {"workload": w.name}
    base = os.path.join(args.tmp, w.ref_key)
    if w.backend == "sim":
        rec = sim_table(ORACLE_NODES, "event", Spans(w.name), "oracle")
        with open(base + ".json", "w") as fh:
            json.dump(rec["table"], fh)
        return out
    arrays = {}
    for steps in sorted({COLD_STEPS, long_steps}):
        state, seq = app_reference(w, args.seed, steps, args.seq_reps)
        if steps == long_steps:
            check_sequential(w, args.seed, steps, state)
        for key, arr in state.items():
            arrays[f"{steps}:{key}"] = arr
        out[f"seq{steps}"] = seq
    np.savez(base + ".npz", **arrays)
    with open(base + ".json", "w") as fh:
        json.dump(out, fh)
    return out


def load_reference(w, tmp: str) -> dict:
    """``steps -> {state, tasks}`` (apps) or the oracle table (sim)."""
    base = os.path.join(tmp, w.ref_key)
    with open(base + ".json") as fh:
        saved = json.load(fh)
    if w.backend == "sim":
        return saved
    refs: dict[int, dict] = {}
    with np.load(base + ".npz") as npz:
        for name in npz.files:
            steps, key = name.split(":", 1)
            refs.setdefault(int(steps), {"state": {}})["state"][key] = npz[name]
    for steps, ref in refs.items():
        ref["tasks"] = saved[f"seq{steps}"]["tasks"]
    return refs


def guarded(fn, kind: str, steps: int) -> dict:
    """A sample that raises is a failed sample, not a failed benchmark."""
    try:
        return fn()
    except Exception as exc:  # boundary: record, count as failed, go on
        traceback.print_exc(file=sys.stderr)
        return {"kind": kind, "steps": steps,
                "error": f"{type(exc).__name__}: {exc}"}


def warm_up(w) -> None:
    """One discarded tiny run on the workload's own path (see Workload.warm)."""
    if w.backend == "sim":
        sim_table(2, "vector", Spans(w.name), "warm")
    else:
        w.warm(0, COLD_STEPS).run_control_replicated(SHARDS, mode=w.backend)


def run_samples(w, args, long_steps: int) -> dict:
    ref = load_reference(w, args.tmp)
    spans = Spans(w.name)
    warm_up(w)
    calib = [calibrate()]
    samples = []

    sim = w.backend == "sim"
    cold_steps = ORACLE_NODES if sim else COLD_STEPS

    def take(kind: str) -> dict:
        # A finished run's instances sit in reference cycles until the
        # cyclic collector happens to run; collected here, peak RSS is that
        # of one run however many samples the child takes.
        gc.collect()
        steps = cold_steps if kind == "cold" else long_steps
        if sim:
            return guarded(lambda: sim_sample(steps, kind, ref, spans),
                           kind, steps)
        return guarded(lambda: app_sample(w, args.seed, steps, kind,
                                          ref[steps], spans), kind, steps)

    t_start = time.perf_counter()
    pairs = 0
    while pairs < args.min_pairs or time.perf_counter() - t_start < args.seconds:
        samples.append(take("cold"))
        if long_steps != COLD_STEPS:
            samples.append(take("long"))
        pairs += 1
    rss = peak_rss_mb()  # before the traced sample: its events are not the program's
    if args.trace:
        samples.append(take("traced"))
    calib.append(calibrate())
    return {"workload": w.name, "samples": samples, "calib_ms": calib,
            "peak_rss_mb": rss,
            "spans": spans.records if args.trace else []}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--mode", choices=("reference", "sample"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-pairs", type=int, default=1)
    ap.add_argument("--seq-reps", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    long_steps = w.long_steps(args.smoke)
    if args.mode == "reference":
        out = run_reference(w, args, long_steps)
    else:
        out = run_samples(w, args, long_steps)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

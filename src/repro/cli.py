"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``     — execute an application on one backend (``--backend
  {sequential,stepped,threaded,procs,net}``), check the sequential state
  against the app's reference and the SPMD state against the sequential
  one (exit 1 on a mismatch), and print the profile read from the run's
  flight rings: per-shard time buckets, the critical path, and parallel
  efficiency T_seq / (N * T_spmd);
* ``compile`` — print an application's control program before and after
  control replication, plus the compilation report;
* ``figure``  — run one of the paper's weak-scaling figures on the machine
  simulator and print its table;
* ``simulate`` — run one execution model of one app on the machine
  simulator and print timing/utilization;
* ``launch-worker`` — run one rank of a multi-host ``--backend net``
  launch: the process binds the address a shared host file assigns its
  rank and meshes with its peers over TCP (see ``docs/runtime.md``);
* ``apps``    — list the available applications.

Observability (the shared ``repro.obs`` subsystem): ``--trace out.json``
writes a Chrome-trace file (``chrome://tracing`` / Perfetto) from ``run``
(compiler passes + per-shard execution), ``compile`` and ``simulate``
(virtual-time schedules) — if the file already exists, a run-index suffix
is appended instead of clobbering it; ``--metrics out.prom`` writes the
run's counters/gauges/histograms in the Prometheus text format;
``run --json out.json`` writes the profile report; a missing or
unwritable output directory exits 2 before any work.
``compile --explain-passes`` prints per-pass wall time and stats;
``compile --dump-after <pass>`` prints the IR as it leaves a pass.

Examples::

    python -m repro run circuit --shards 4 --backend threaded --trace t.json
    python -m repro run pennant --backend procs --shards 4 --steps 10
    python -m repro run stencil --backend procs --shards 2 --json p.json
    python -m repro compile stencil --explain-passes --dump-after replicate
    python -m repro figure 8 --max-nodes 64
    python -m repro simulate pennant --nodes 16 --model cr --trace sim.json
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable

import numpy as np

__all__ = ["main", "build_parser", "APP_FACTORIES", "resolve_trace_path"]


def resolve_trace_path(path: str) -> str:
    """A non-clobbering variant of ``path``: ``t.json`` -> ``t.1.json``...

    Two runs pointed at the same ``--trace`` (or ``--metrics``) file used
    to silently overwrite each other; instead, insert the first free
    run-index suffix before the extension so every run keeps its output.
    """
    if not os.path.exists(path):
        return path
    root, ext = os.path.splitext(path)
    k = 1
    while os.path.exists(f"{root}.{k}{ext}"):
        k += 1
    return f"{root}.{k}{ext}"


def _stencil(args):
    from .apps.stencil import StencilProblem
    return StencilProblem(n=args.size or 48, radius=2, tiles=args.tiles,
                          steps=args.steps, shape=args.shape)


def _circuit(args):
    from .apps.circuit import CircuitProblem
    return CircuitProblem(pieces=args.tiles, nodes_per_piece=args.size or 40,
                          wires_per_piece=(args.size or 40) * 3 // 2,
                          steps=args.steps)


def _pennant(args):
    from .apps.pennant import PennantProblem
    side = args.size or 12
    return PennantProblem(nx=side, ny=side, pieces=args.tiles,
                          steps=args.steps)


def _miniaero(args):
    from .apps.miniaero import MiniAeroProblem
    side = args.size or 8
    return MiniAeroProblem(shape=(side, side, side), tiles=args.tiles,
                           steps=args.steps)


APP_FACTORIES: dict[str, Callable] = {
    "stencil": _stencil,
    "circuit": _circuit,
    "pennant": _pennant,
    "miniaero": _miniaero,
}

FIGURES = {
    "6": ("repro.apps.stencil.perf", "figure6_spec"),
    "7": ("repro.apps.miniaero.perf", "figure7_spec"),
    "8": ("repro.apps.pennant.perf", "figure8_spec"),
    "9": ("repro.apps.circuit.perf", "figure9_spec"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Control replication (SC'17) reproduction toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add_app_args(sp):
        sp.add_argument("app", choices=sorted(APP_FACTORIES))
        sp.add_argument("--tiles", type=int, default=4,
                        help="pieces/tiles in the partition (default 4)")
        sp.add_argument("--steps", type=int, default=3,
                        help="time steps (default 3)")
        sp.add_argument("--size", type=int, default=None,
                        help="per-app problem size knob")
        sp.add_argument("--shape", choices=["star", "square"], default="star",
                        help="stencil shape (stencil only)")

    from .runtime.backends import backend_names
    SPMD_BACKENDS = list(backend_names())

    r = sub.add_parser(
        "run", help="run one app, check it against the sequential "
                    "executor and the reference, and profile its shards")
    add_app_args(r)
    r.add_argument("--shards", type=int, default=4)
    r.add_argument("--backend", choices=["sequential"] + SPMD_BACKENDS,
                   default="threaded")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--sync", choices=["p2p", "barrier"], default="p2p")
    r.add_argument("--trace", metavar="OUT.json", default=None,
                   help="write a Chrome-trace timeline of the compile + run")
    r.add_argument("--metrics", metavar="OUT.prom", default=None,
                   help="write run and profile metrics in Prometheus text "
                        "format")
    r.add_argument("--json", metavar="OUT.json", default=None,
                   help="write the profile report as JSON")

    c = sub.add_parser("compile", help="show the program before/after CR")
    add_app_args(c)
    c.add_argument("--shards", type=int, default=4)
    c.add_argument("--explain-passes", action="store_true",
                   help="print per-pass wall time and stats")
    c.add_argument("--dump-after", action="append", default=[],
                   metavar="PASS",
                   help="print the IR after the named pass (repeatable)")
    c.add_argument("--trace", metavar="OUT.json", default=None,
                   help="write a Chrome-trace timeline of the compile")

    f = sub.add_parser("figure", help="run one of the paper's figures")
    f.add_argument("number", choices=sorted(FIGURES))
    f.add_argument("--max-nodes", type=int, default=64)
    f.add_argument("--csv", action="store_true",
                   help="emit machine-readable CSV instead of the table")
    f.add_argument("--trace", metavar="OUT.json", default=None,
                   help="write a Chrome trace with one sim:run span per "
                        "(series, node count) sweep point")
    f.add_argument("--metrics", metavar="OUT.prom", default=None,
                   help="write throughput/efficiency gauges in Prometheus "
                        "text format")

    s = sub.add_parser("simulate",
                       help="simulate one execution model of one app")
    s.add_argument("app", choices=sorted(APP_FACTORIES))
    s.add_argument("--nodes", type=int, default=4)
    s.add_argument("--model", choices=["cr", "noncr", "mpi"], default="cr")
    s.add_argument("--trace", metavar="OUT.json", default=None,
                   help="write the virtual-time schedule as a Chrome trace")
    s.add_argument("--metrics", metavar="OUT.prom", default=None,
                   help="write virtual-time buckets in Prometheus text "
                        "format")

    lw = sub.add_parser(
        "launch-worker",
        help="run one rank of a multi-host `--backend net` launch")
    add_app_args(lw)
    lw.add_argument("--rank", type=int, required=True,
                    help="this process's rank (0..shards-1)")
    lw.add_argument("--shards", type=int, default=4)
    lw.add_argument("--hosts", metavar="FILE", default=None,
                    help="host file: one `host:port` per line, rank order; "
                         "every worker must read an identical copy")
    lw.add_argument("--host", default="127.0.0.1",
                    help="without --hosts: common hostname for all ranks "
                         "(default 127.0.0.1)")
    lw.add_argument("--port-base", dest="port_base", type=int, default=8380,
                    help="without --hosts: rank r listens on "
                         "port-base + r (default 8380)")
    lw.add_argument("--seed", type=int, default=0)
    lw.add_argument("--sync", choices=["p2p", "barrier"], default="p2p")

    e = sub.add_parser("explain", help="show what one shard will do")
    add_app_args(e)
    e.add_argument("--shards", type=int, default=4)
    e.add_argument("--shard", type=int, default=0)

    sub.add_parser("apps", help="list available applications")
    return p


def _output_error(args) -> str | None:
    """Why an output flag cannot be honoured, checked before any work so
    that a long run is never lost to a bad path at its end."""
    given = [f for f in ("trace", "metrics", "json") if getattr(args, f, None)]
    if given and getattr(args, "backend", None) == "sequential":
        return (f"--{given[0]} records an SPMD run; "
                f"--backend sequential writes none")
    for flag in given:
        d = os.path.dirname(os.path.abspath(getattr(args, flag)))
        if not (os.path.isdir(d) and os.access(d, os.W_OK)):
            return f"--{flag}: directory {d} is missing or not writable"
    return None


def _write_metrics(metrics, path: str) -> None:
    out = resolve_trace_path(path)
    metrics.write_prometheus(out)
    print(f"-- metrics: {out}")


def _diff(got, want, what: str, atol: float) -> bool:
    """Print one FAIL line per field of ``want`` that ``got`` misses;
    True when every field agrees to round-off."""
    bad = [k for k in want
           if not np.allclose(got[k], want[k], rtol=1e-11, atol=atol)]
    for k in bad:
        print(f"FAIL {what} on {k} "
              f"(max diff {np.abs(got[k] - want[k]).max():.3e})")
    return not bad


def _run_sequential(args, problem):
    """The sequential state, its wall time, and whether it matches the
    app's independent reference."""
    t0 = time.perf_counter()
    seq, _, ex = problem.run_sequential()
    t_seq = time.perf_counter() - t0
    ref = problem.reference_state()
    # References may report extra scalars the program does not keep.
    ok = _diff(seq, {k: v for k, v in ref.items() if k in seq},
               "sequential != reference", atol=1e-12)
    print(f"{args.app}: reference == sequential: {'OK' if ok else 'MISMATCH'}"
          f" [{ex.tasks_executed} tasks, {t_seq:.3f}s]")
    return seq, t_seq, ok


def cmd_run(args) -> int:
    """Run an app once and answer "is it right, and where did the time
    go": the sequential state against the reference, the SPMD state
    against the sequential one, and the profile read from the run's
    flight rings with the sequential wall time as T_seq."""
    import json

    from .obs import NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer, build_profile
    problem = APP_FACTORIES[args.app](args)
    if args.backend == "sequential":
        return 0 if _run_sequential(args, problem)[2] else 1
    tracer = Tracer() if args.trace else NULL_TRACER
    metrics = MetricsRegistry() if args.metrics else NULL_METRICS
    t0 = time.perf_counter()
    state, _, ex, report = problem.run_control_replicated(
        args.shards, mode=args.backend, seed=args.seed, sync=args.sync,
        tracer=tracer, metrics=metrics)
    elapsed = time.perf_counter() - t0
    seq, t_seq, ok = _run_sequential(args, problem)

    if all(np.array_equal(state[k], seq[k]) for k in seq):
        check = "bitwise-identical to sequential"
    elif _diff(state, seq, f"{args.backend} != sequential", atol=1e-13):
        # Float reduction copies reassociate sums, so apps with "+"
        # reduction fields agree to round-off rather than bitwise.
        check = "matches sequential to round-off"
    else:
        ok = False
        check = "MISMATCH vs sequential"
    print(f"{args.app}: CR({args.shards} shards, {args.backend}, "
          f"{args.sync}) {check} [{elapsed:.3f}s]")

    prof = build_profile(ex.flight.to_chrome()["traceEvents"], app=args.app,
                         backend=args.backend, num_shards=args.shards,
                         t_seq_s=t_seq, executor=ex, compile_report=report,
                         metrics=metrics)
    print(prof.format())
    if args.json:
        out = resolve_trace_path(args.json)
        with open(out, "w") as fh:
            json.dump(prof.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"-- report: {out}")
    if args.trace:
        out = resolve_trace_path(args.trace)
        tracer.write(out)
        print(f"-- trace: {len(tracer.events())} events -> {out}")
    if args.metrics:
        ex.export_flight_metrics(metrics)  # skew_*/drift_* gauges
        prof.export_metrics(metrics)
        _write_metrics(metrics, args.metrics)
    return 0 if ok else 1


def cmd_compile(args) -> int:
    from .core import PASS_NAMES, control_replicate, format_program
    from .obs import NULL_TRACER, PID_COMPILER, Tracer
    problem = APP_FACTORIES[args.app](args)
    unknown = sorted(set(args.dump_after) - set(PASS_NAMES))
    if unknown:
        print(f"unknown pass(es) {unknown}; choose from {list(PASS_NAMES)}")
        return 2
    tracer = Tracer() if args.trace else NULL_TRACER
    program = problem.build_program()
    print("== before control replication ==")
    print(format_program(program))
    transformed, report = control_replicate(program, num_shards=args.shards,
                                            tracer=tracer,
                                            dump_after=args.dump_after)
    print("\n== after control replication ==")
    print(format_program(transformed))
    print("\n" + report.summary())
    if args.explain_passes:
        print("\n" + report.pass_table())
    if args.trace:
        tracer.name_process(PID_COMPILER, "compiler")
        out = resolve_trace_path(args.trace)
        tracer.write(out)
        print(f"-- trace: {len(tracer.events())} events -> {out}")
    return 0


def cmd_figure(args) -> int:
    import importlib

    from .analysis import run_figure, to_csv
    from .machine.model import PIZ_DAINT
    mod_name, fn_name = FIGURES[args.number]
    spec_fn = getattr(importlib.import_module(mod_name), fn_name)
    spec = spec_fn(PIZ_DAINT, max_nodes=args.max_nodes)
    tracer = None
    if args.trace:
        from .obs import Tracer
        tracer = Tracer()
    data = run_figure(spec, tracer=tracer)
    print(to_csv(data) if args.csv else data.format_table())
    if tracer is not None:
        out = resolve_trace_path(args.trace)
        tracer.write(out)
        print(f"-- trace: {len(tracer.events())} events -> {out}")
    if args.metrics:
        from .obs import MetricsRegistry
        metrics = MetricsRegistry()
        for label, vals in data.values.items():
            for nodes, tput in vals.items():
                metrics.gauge("figure_throughput_per_node",
                              figure=args.number, series=label,
                              nodes=nodes).set(tput)
                metrics.gauge("figure_parallel_efficiency",
                              figure=args.number, series=label,
                              nodes=nodes).set(data.efficiency(label, nodes))
        _write_metrics(metrics, args.metrics)
    return 0


SIM_WORKLOADS = {
    "stencil": ("repro.apps.stencil.perf", "stencil_workload"),
    "circuit": ("repro.apps.circuit.perf", "circuit_workload"),
    "pennant": ("repro.apps.pennant.perf", "pennant_workload"),
    "miniaero": ("repro.apps.miniaero.perf", "miniaero_workload"),
}


def cmd_simulate(args) -> int:
    import importlib

    from .machine import (
        PIZ_DAINT,
        analyze_simulation,
        simulate_mpi,
        simulate_regent_cr,
        simulate_regent_noncr,
        trace_simulation,
    )
    from .obs import Tracer
    machine = PIZ_DAINT
    mod_name, fn_name = SIM_WORKLOADS[args.app]
    mod = importlib.import_module(mod_name)
    workload_fn = getattr(mod, fn_name)
    rate = mod.RATE_REGENT_1NODE
    if args.model == "mpi":
        tiles_per_node = machine.cores_per_node
    else:
        tiles_per_node = machine.cores_per_node - (
            1 if machine.dedicated_analysis_core else 0)
    workload = workload_fn(tiles_per_node, rate)
    tracer = Tracer() if args.trace else None
    sims = []
    model_fn = {"cr": simulate_regent_cr, "noncr": simulate_regent_noncr,
                "mpi": simulate_mpi}[args.model]
    result = model_fn(workload, machine, args.nodes, on_complete=sims.append)
    print(f"{args.app} / {args.model} on {args.nodes} node(s): "
          f"{result.seconds_per_step * 1e3:.3f} ms/step, "
          f"{result.num_sim_tasks} sim tasks, "
          f"{result.throughput_per_node(workload.points_per_node):.3e} "
          f"points/s/node")
    print(analyze_simulation(sims[0]).format())
    stats = getattr(sims[0], "last_run_stats", None)
    if stats:
        extra = "".join(f", {k}={stats[k]}" for k in
                        ("waves", "max_wave_tasks", "heap_handoff_tasks")
                        if k in stats)
        print(f"-- engine: {stats.get('engine', 'event')} "
              f"({stats.get('tasks', 0)} tasks, {stats.get('edges', 0)} "
              f"edges{extra})")
    if tracer is not None:
        n = trace_simulation(sims[0], tracer,
                             name_prefix=f"{args.app}-{args.model}")
        out = resolve_trace_path(args.trace)
        tracer.write(out)
        print(f"-- trace: {n} events -> {out}")
    if args.metrics:
        from .machine import simulation_metrics
        from .obs import MetricsRegistry
        metrics = MetricsRegistry()
        simulation_metrics(sims[0], metrics,
                           name_prefix=f"{args.app}-{args.model}")
        _write_metrics(metrics, args.metrics)
    return 0


def cmd_explain(args) -> int:
    from .core import control_replicate, explain_shard, shard_communication_summary
    problem = APP_FACTORIES[args.app](args)
    transformed, _ = control_replicate(problem.build_program(),
                                       num_shards=args.shards)
    print(explain_shard(transformed, args.shard))
    me = args.shard
    comm = shard_communication_summary(transformed)
    out = [t for (p, q), t in comm.items() if p == me != q]
    into = [t for (p, q), t in comm.items() if q == me != p]
    local = comm[(me, me)].pairs if (me, me) in comm else 0
    print(f"-- channels: {sum(t.channels for t in out)} outbound / "
          f"{sum(t.channels for t in into)} inbound "
          f"({sum(t.pairs for t in out)} / {sum(t.pairs for t in into)} "
          f"pairs), {local} local pairs")
    return 0


def _worker_addrs(args) -> list[tuple[str, int]]:
    if args.hosts:
        addrs = []
        with open(args.hosts) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                host, _, port = line.rpartition(":")
                addrs.append((host, int(port)))
        return addrs
    return [(args.host, args.port_base + r) for r in range(args.shards)]


def cmd_launch_worker(args) -> int:
    problem = APP_FACTORIES[args.app](args)
    addrs = _worker_addrs(args)
    t0 = time.perf_counter()
    _, _, ex, _ = problem.run_control_replicated(
        args.shards, mode="net", seed=args.seed, sync=args.sync,
        executor_kw={"net_worker": (args.rank, addrs)})
    elapsed = time.perf_counter() - t0
    net = ex.net_stats.get(args.rank, {})
    print(f"{args.app}: rank {args.rank}/{args.shards} done in "
          f"{elapsed:.3f}s [{ex.tasks_executed} tasks, "
          f"{net.get('bytes_sent', 0)} bytes sent, "
          f"{net.get('bytes_recv', 0)} bytes received]")
    return 0


def cmd_apps(_args) -> int:
    docs = {
        "stencil": "PRK 2D star/square stencil (paper §5.1, Fig. 6)",
        "circuit": "sparse unstructured circuit simulation (§5.4, Fig. 9)",
        "pennant": "Lagrangian hydrodynamics proxy (§5.3, Fig. 8)",
        "miniaero": "compressible Navier-Stokes proxy (§5.2, Fig. 7)",
    }
    for name in sorted(APP_FACTORIES):
        print(f"  {name:<9} {docs[name]}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    error = _output_error(args)
    if error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2
    handler = {
        "run": cmd_run,
        "compile": cmd_compile,
        "figure": cmd_figure,
        "simulate": cmd_simulate,
        "launch-worker": cmd_launch_worker,
        "explain": cmd_explain,
        "apps": cmd_apps,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

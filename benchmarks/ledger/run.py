"""The wall-clock ledger: one end-to-end benchmark, attributed per layer.

Two ways in, one measurement path:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, one child process that samples for ``S`` seconds (at
    least three cold/long pairs); the last line of stdout is the result
    object the ``BENCHMARK.json`` contract describes.

``run.py [--seed 0] [--samples 5] [--workloads a,b] [--trace] [--out F]``
    The whole ledger: for each of ``--samples`` rounds, each workload
    samples cold/long pairs in a fresh child for a short slice
    (round-robin), then every metric is printed by name with unit, value
    (lower quartile), median, min, max, IQR and sample count.

Everything runs on one core: ``run.py`` pins itself, and so every child
and every rank they fork, to a single CPU.  The two ranks of a workload
then take turns, and a time is the work both did plus their handoffs; on
the shared two-vCPU hosts this runs on, the same ranks side by side are
50 % slower or faster for minutes on end (README.md, "One core").

Method, metric definitions and how to read the output: README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import COLD_STEPS, SHARDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

CHILD_TIMEOUT_S = 120.0   # a child that exceeds it is a failed sample
LEDGER_SLICE_S = 1.5      # ledger mode: each child samples pairs this long
NOISY_DRIFT = 0.10        # host calibration moved more than this in a child
PASSES = ("normalize", "target", "replicate", "placement", "intersections",
          "synchronization", "shards")


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- children ----------------------------------------------------------------

def spawn(mode: str, workload: str, tmp: str, *extra: str,
          timeout: float = CHILD_TIMEOUT_S) -> tuple[dict | None, float]:
    """Run one ``sample.py`` child to completion; ``(result, wall)``.

    The child leads its own process group, so a timeout also stops the
    shard processes it forked.  ``None`` means it crashed or timed out.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "sample.py"), "--mode", mode,
           "--workload", workload, "--tmp", tmp, *extra]
    t0 = time.perf_counter()
    out = ""
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"ledger: {workload} {mode} child timed out after "
                  f"{timeout:.0f}s", file=sys.stderr)
        finally:
            # Whatever happened, nothing the child started outlives this call.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    wall = time.perf_counter() - t0
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"ledger: {workload} {mode} child ended with {proc.returncode}",
              file=sys.stderr)
        return None, wall
    return json.loads(lines[-1]), wall


def collect(names: list[str], args, tmp: str, *, rounds: int, seconds: float,
            min_pairs: int, seq_reps: int) -> dict:
    """References first, then ``rounds`` round-robin passes over ``names``."""
    common = ["--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    raw = {n: {"children": [], "elapsed_s": 0.0, "seq": None} for n in names}
    refs: dict[str, dict] = {}
    for n in names:
        key = WORKLOADS[n].ref_key
        if key not in refs:
            refs[key], wall = spawn("reference", n, tmp, *common,
                                    "--seq-reps", str(seq_reps))
            raw[n]["elapsed_s"] += wall
            if refs[key] is None:
                raise SystemExit(f"ledger: no reference for {n}; is the "
                                 f"program under {ROOT / 'src'}?")
        raw[n]["seq"] = refs[key]

    def sample(n: str, trace: bool) -> tuple[dict | None, float]:
        return spawn("sample", n, tmp, *common, "--seconds", str(seconds),
                     "--min-pairs", str(min_pairs),
                     "--trace", str(int(trace)),
                     timeout=CHILD_TIMEOUT_S + seconds)

    for r in range(rounds):
        for n in names:
            child, wall = sample(n, bool(args.trace) and r == rounds - 1)
            raw[n]["elapsed_s"] += wall
            raw[n]["children"].append(child or {
                "samples": [{"kind": "child", "error": "crashed or timed out"}],
                "calib_ms": [], "spans": []})
    return raw


# -- from samples to metrics -------------------------------------------------

def lower_quartile(values: list[float]) -> float:
    """The reported value of a timing.  What the shared host adds to a
    sample is never negative, so the quartile on the program's side is
    steadier from run to run than the median (README.md, "Method")."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def spread(values: list[float]) -> dict:
    out = {"value": lower_quartile(values),
           "median": statistics.median(values), "min": min(values),
           "max": max(values), "n": len(values), "iqr": 0.0}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["iqr"] = q3 - q1
    return out


def summarise(name: str, raw: dict, smoke: bool) -> dict:
    """All metrics of one workload.  A metric with no meaning here is
    absent; timings are lower quartiles over samples, counts come from one."""
    w = WORKLOADS[name]
    steps = w.long_steps(smoke)
    children = raw["children"]
    samples = [s for c in children for s in c["samples"]]
    good = {k: [s for s in samples if s["kind"] == k and not s.get("error")]
            for k in ("cold", "long", "traced")}
    cold = good["cold"]
    long = good["long"] if steps != COLD_STEPS else cold
    steady = steps - COLD_STEPS if w.backend != "sim" else 0
    row = {"steps": steps, "backend": w.backend, "elapsed_s": raw["elapsed_s"],
           "attempted": len(samples),
           "failed": sum(1 for s in samples if s.get("error")),
           "errors": sorted({s["error"] for s in samples if s.get("error")}),
           "noisy": sum(1 for c in children if len(c["calib_ms"]) == 2 and
                        abs(c["calib_ms"][1] / c["calib_ms"][0] - 1) > NOISY_DRIFT),
           "metrics": {}}
    row["fail_share"] = row["failed"] / row["attempted"]
    if not cold or not long:
        return row
    m = row["metrics"]

    def put(key: str, values, value=None) -> None:
        values = [float(v) for v in values]
        if values:
            m[key] = spread(values)
            if value is not None:
                m[key]["value"] = float(value)

    def each(recs, *path) -> list:
        out = []
        for rec in recs:
            for p in path:
                rec = rec[p]
            out.append(rec)
        return out

    # End to end.
    cold_run = lower_quartile(each(cold, "t", "run"))
    long_run = lower_quartile(each(long, "t", "run"))
    put("run_s", each(long, "total_s"))
    put("setup_s", [s["total_s"] - s["t"].get("extract_state", 0.0)
                    for s in cold])
    if steady:
        put("iter_ms", [(lo["t"]["run"] - co["t"]["run"]) / steady * 1e3
                        for lo, co in zip(long, cold)],
            value=(long_run - cold_run) / steady * 1e3)
    else:
        # No steady state to difference out: the run amortised over its
        # steps (for sim_fig7, over its sweep points).
        per = [s.get("points", steps) for s in long]
        put("iter_ms", [s["t"]["run"] / n * 1e3 for s, n in zip(long, per)])
    put("cpu_s", each(long, "cpu_s"))
    put("peak_rss_mb", [c["peak_rss_mb"] for c in children
                        if "peak_rss_mb" in c])

    # Host.
    calib = [c["calib_ms"] for c in children if len(c["calib_ms"]) == 2]
    put("host.calib_ms", [v for pair in calib for v in pair])
    put("host.calib_drift", [abs(b / a - 1) for a, b in calib])

    if w.backend == "sim":
        for s in good["traced"]:
            for key, v in s["machine"].items():
                put(f"machine.{key}", [v])
            for key, v in s["sweep_s"].items():
                put(f"machine.sweep_s.{key}", [v])
            put("obs.trace_overhead", [s["t"]["run"] / long_run - 1])
        return row

    seq = raw["seq"]
    seq_long, seq_cold = seq[f"seq{steps}"], seq[f"seq{COLD_STEPS}"]
    put("sequential.run_s", [seq_long["run_s"]])
    if steady:
        put("sequential.iter_ms",
            [(seq_long["run_s"] - seq_cold["run_s"]) / steady * 1e3])
    put("spmd.speedup_vs_seq", [seq_long["run_s"] / long_run])

    put("regions.build_s", each(cold, "t", "build"))
    put("regions.fresh_instances_s", each(cold, "t", "fresh_instances"))
    put("core.compile_s", each(cold, "t", "compile"))
    for p in PASSES:
        put(f"core.pass_s.{p}", each(cold, "compile", "pass_s", p))
    for key in ("copies_inserted", "p2p_copies", "collectives"):
        put(f"core.{key}", [cold[0]["compile"][key]])

    for key in ("shallow_s", "complete_s"):
        put(f"intersection_exec.{key}", each(cold, "isect", key))
    cand = cold[0]["isect"]["candidate_pairs"]
    nonempty = cold[0]["isect"]["nonempty_pairs"]
    put("intersection_exec.candidate_pairs", [cand])
    put("intersection_exec.nonempty_pairs", [nonempty])
    if cand:
        put("intersection_exec.hit_ratio", [nonempty / cand])

    put("spmd.cold_run_s", each(cold, "t", "run"))
    put("spmd.long_run_s", each(long, "t", "run"))
    put("spmd.capture_s", each(cold, "flight", "capture_s"))
    put("window.compile_s", each(cold, "flight", "compile_s"))
    for key in ("task_s", "wait_s"):
        put(f"spmd.{key}", each(long, "flight", key))
    put("copy_engine.copy_s", each(long, "flight", "copy_s"))
    for key in ("iter_p50_ms", "iter_max_ms"):
        put(f"spmd.{key}", [s["flight"][key] for s in long
                            if key in s["flight"]])
    put("obs.flight_dropped", [max(s["flight"]["dropped"] for s in long)])

    c_long, c_cold = long[0]["counters"], cold[0]["counters"]
    for key, counter in (("spmd.tasks", "tasks_executed"),
                         ("spmd.replay_hits", "replay_hits"),
                         ("spmd.replay_misses", "replay_misses"),
                         ("spmd.guard_fallbacks", "replay_guard_fallbacks"),
                         ("window.compiles", "window_compiles"),
                         ("window.ops_recorded", "window_ops_recorded"),
                         ("window.ops_lowered", "window_ops_lowered"),
                         ("window.closures", "window_closures"),
                         ("copy_engine.fused_batches", "fused_copies"),
                         ("copy_engine.fused_pairs", "fused_pairs"),
                         ("copy_engine.lockfree_folds", "lockfree_folds"),
                         ("copy_engine.locked_folds", "locked_folds")):
        put(key, [c_long[counter]])
    if c_long["window_compiles"]:
        put("window.closures_per_iter",
            [c_long["window_closures"] / c_long["window_compiles"]])
    if c_long["pair_visits"]:
        put("copy_engine.visit_hit_ratio",
            [c_long["copies_performed"] / c_long["pair_visits"]])
    put("procs.leaked_segments", [max(s["leaked"] for s in samples
                                      if "leaked" in s)])
    if steady:
        for key, counter in (("bytes_per_iter", "bytes_copied"),
                             ("copies_per_iter", "copies_performed"),
                             ("pair_visits_per_iter", "pair_visits")):
            put(f"copy_engine.{key}",
                [(c_long[counter] - c_cold[counter]) / steady])
    if "net" in long[0]:
        n_long, n_cold = long[0]["net"], cold[0]["net"]
        if steady:
            put("net.msgs_per_iter",
                [(n_long["msgs"] - n_cold["msgs"]) / steady])
            put("net.wire_bytes_per_iter",
                [(n_long["wire_bytes"] - n_cold["wire_bytes"]) / steady])
        put("net.bytes_per_msg", [n_long["wire_bytes"] / n_long["msgs"]])

    for s in good["traced"]:
        for key, v in s["profile"].items():
            put(f"profile.{key}", [v])
        put("obs.trace_overhead", [s["t"]["run"] / long_run - 1])
    return row


# Counts that the same program must repeat exactly on every backend.
SAME_PROGRAM = (("stencil_halo_procs", "stencil_halo_net"),
                ("spmd.tasks", "copy_engine.bytes_per_iter"))


def cross_check(rows: dict) -> None:
    (a, b), keys = SAME_PROGRAM
    if a not in rows or b not in rows:
        return
    for key in keys:
        va = rows[a]["metrics"].get(key, {}).get("value")
        vb = rows[b]["metrics"].get(key, {}).get("value")
        if va != vb:
            for n in (a, b):
                rows[n]["failed"] = rows[n]["attempted"]
                rows[n]["fail_share"] = 1.0
                rows[n]["errors"].append(f"{key}: {a} {va} != {b} {vb}")


# -- output ------------------------------------------------------------------

def units(contract: dict) -> dict[str, str]:
    out = {m["name"]: m["unit"]
           for m in contract["end_to_end"] + contract["per_layer"]}
    out["fail_share"] = "ratio"
    return out


def print_ledger(rows: dict, unit: dict[str, str], end_to_end: set) -> None:
    for name, row in rows.items():
        print(f"\n== {name}  [{row['backend']}, {row['steps']} "
              f"{'nodes' if row['backend'] == 'sim' else 'steps'}]  "
              f"elapsed {row['elapsed_s']:.1f}s  samples {row['attempted']}  "
              f"failed {row['failed']}  fail_share {row['fail_share']:.3f}  "
              f"noisy {row['noisy']}")
        for err in row["errors"]:
            print(f"   !! {err}")
        print(f"   {'metric':<38}{'unit':>7}{'value':>14}{'median':>14}"
              f"{'min':>14}{'max':>14}{'iqr':>12}{'n':>4}")
        for key in sorted(row["metrics"], key=lambda k: (k not in end_to_end, k)):
            v = row["metrics"][key]
            print(f"   {key:<38}{unit.get(key, '?'):>7}{v['value']:>14.6g}"
                  f"{v['median']:>14.6g}{v['min']:>14.6g}{v['max']:>14.6g}"
                  f"{v['iqr']:>12.3g}{v['n']:>4}")


def driver_result(row: dict, declared: list[dict]) -> dict:
    """The contract's result object.  It wants every declared name on
    every workload, so a layer that does not run here reports the zero
    work it did; the ledger view above leaves such metrics out."""
    metrics = {}
    for spec in declared:
        have = row["metrics"].get(spec["name"])
        metrics[spec["name"]] = {"value": have["value"] if have else 0.0,
                                 "unit": spec["unit"]}
    return {"correct": row["failed"] == 0, "attempted": row["attempted"],
            "failed": row["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="contract mode: one workload, one JSON result line")
    ap.add_argument("--seconds", type=float, default=None,
                    help="contract mode: how long to sample")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    ap.add_argument("--samples", type=int, default=5,
                    help="ledger mode: rounds (>= 3)")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", help="ledger mode: write the ledger as JSON")
    ap.add_argument("--smoke", action="store_true",
                    help="every app workload at 6 steps, one sample")
    args = ap.parse_args(argv)

    # One core for everything below: children inherit the mask.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    contract = load_contract()
    t_start = time.perf_counter()
    tmp = tempfile.mkdtemp(prefix=".ledger-", dir=os.getcwd())
    try:
        if args.workload:
            if args.seconds is None:
                ap.error("--workload needs --seconds")
            raw = collect([args.workload], args, tmp, rounds=1,
                          seconds=args.seconds, min_pairs=3, seq_reps=1)
        else:
            names = [n for n in args.workloads.split(",") if n]
            unknown = sorted(set(names) - set(WORKLOADS))
            if unknown:
                ap.error(f"unknown workloads {unknown}")
            if args.smoke:
                args.samples = 1
            elif args.samples < 3:
                ap.error("--samples must be at least 3")
            raw = collect(names, args, tmp, rounds=args.samples,
                          seconds=0.0 if args.smoke else LEDGER_SLICE_S,
                          min_pairs=1, seq_reps=1 if args.smoke else 3)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rows = {n: summarise(n, r, args.smoke) for n, r in raw.items()}
    cross_check(rows)
    if args.workload:
        row = rows[args.workload]
        if "run_s" not in row["metrics"]:
            print(f"ledger: no good sample of {args.workload}: "
                  f"{row['errors']}", file=sys.stderr)
            return 1
        declared = contract["per_layer" if args.trace else "end_to_end"]
        print(json.dumps(driver_result(row, declared)))
        return 0

    end_to_end = {m["name"] for m in contract["end_to_end"]} | {"fail_share"}
    print(f"ledger: seed {args.seed}, {args.samples} sample(s) per workload, "
          f"{SHARDS} shards, trace {'on' if args.trace else 'off'}")
    print_ledger(rows, units(contract), end_to_end)
    total = time.perf_counter() - t_start
    print(f"\nledger: {total:.1f}s in all")
    if args.out:
        spans = [sp for r in raw.values() for c in r["children"]
                 for sp in c["spans"]]
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "samples": args.samples,
                       "smoke": args.smoke, "trace": bool(args.trace),
                       "shards": SHARDS, "elapsed_s": total,
                       "workloads": rows, "spans": spans}, fh, indent=1)
            fh.write("\n")
    return 1 if any(r["failed"] for r in rows.values()) else 0


if __name__ == "__main__":
    sys.exit(main())

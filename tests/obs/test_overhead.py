"""The instrumentation budget: observability must be near-free.

The flight rings are the shard runtime's one timeline and record on every
run — a tracer only renders them afterwards — so their cost is the whole
price of runtime observability.  Pinned against the fig-6 stencil hot
loop: the per-record price (clock reads included) times the records one
steady-state iteration emits (counted from a real run: one per compute
and copy phase of the window, plus its ITER and WAITs) must stay under 5%
of the iteration (the median replayed iteration, as the run's own flight
records time it).  A metrics registry adds nothing to that: it is filled
from the records after each launch, so a steady iteration emits exactly
as many records with one as without.
"""

import os
import time

import numpy as np
import pytest

from repro.apps.stencil import StencilProblem
from repro.core import control_replicate
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.obs.flight import ITER, TASK, ShardRing
from repro.runtime import SPMDExecutor

SHARDS = 2
STEPS_LO, STEPS_HI = 4, 10


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _run(steps: int, mode: str = "threaded",
         metrics: MetricsRegistry = NULL_METRICS) -> SPMDExecutor:
    p = StencilProblem(n=128, radius=2, tiles=4, steps=steps)
    prog, _ = control_replicate(p.build_program(), num_shards=SHARDS)
    ex = SPMDExecutor(num_shards=SHARDS, mode=mode, metrics=metrics,
                      instances=p.fresh_instances(), flight=True)
    ex.run(prog)
    return ex


def _per_iteration_seconds() -> float:
    """Steady-state step time: the median replayed-iteration (``ITER``) flight record over every
    shard of a few runs.

    Each iteration is timed by the run itself, so a slow run shifts a
    few samples of the median rather than the whole estimate — as it did
    the slope between a short and a long run's wall times.
    """
    iters, tasks, hits = [], [], 0
    for _ in range(3):
        ex = _run(STEPS_HI)
        hits += ex.replay_hits
        for shard in ex.flight.shards():
            snap = ex.flight.ring(shard).snapshot()
            span = snap["t1"] - snap["t0"]
            iters.extend(span[snap["kind"] == ITER])
            tasks.extend(span[snap["kind"] == TASK])
    step = float(np.median(iters))
    # Plausible before it is divided by: one record per replayed
    # iteration, and a step lasts at least as long as its point tasks.
    assert hits > 0 and len(iters) == hits, (len(iters), hits)
    assert 0 < float(np.median(tasks)) <= step, (
        f"median step {step * 1e3:.3f} ms is shorter than the median task "
        f"record {float(np.median(tasks)) * 1e3:.3f} ms")
    return step


def _records_per_iteration(mode: str = "threaded",
                           metrics: MetricsRegistry = NULL_METRICS) -> float:
    """How many flight records one steady-state iteration emits."""
    counts = {steps: _run(steps, mode, metrics).flight.records_total()
              for steps in (STEPS_LO, STEPS_HI)}
    return (counts[STEPS_HI] - counts[STEPS_LO]) / (STEPS_HI - STEPS_LO)


def _record_touch_seconds(n: int = 50_000) -> float:
    """Per-record cost of one flight-ring site (clock reads included)."""
    ring = ShardRing()
    perf = time.perf_counter
    t_start = perf()
    for i in range(n):
        # The shape of a hot-loop site: two clock reads and one append.
        t0 = perf()
        ring.record(TASK, i, t0, perf())
    return (perf() - t_start) / n


@pytest.mark.skipif(_usable_cpus() < 2,
                    reason="needs >= 2 CPUs for a stable threaded measurement")
def test_flight_recorder_under_five_percent():
    per_iter = _per_iteration_seconds()
    records = _records_per_iteration()
    per_record = min(_record_touch_seconds() for _ in range(3))
    overhead = records * per_record
    frac = overhead / per_iter
    print(f"\nsteady state {per_iter * 1e3:.3f} ms/iter, "
          f"{records:.0f} records/iter, record touch "
          f"{per_record * 1e9:.0f} ns -> overhead {frac * 100:.2f}% "
          f"of iteration")
    assert records > 0, "run produced no flight records"
    assert frac < 0.05, (
        f"always-on flight recording costs {frac * 100:.2f}% of a "
        f"steady-state iteration ({overhead * 1e6:.1f} µs of "
        f"{per_iter * 1e3:.3f} ms); budget is 5%")


def test_registry_adds_no_record_to_a_steady_iteration():
    # stepped: its WAIT records are the seeded schedule's descheduled
    # turns, not timing, so the count is exact.
    plain = _records_per_iteration("stepped")
    assert plain > 0
    assert _records_per_iteration("stepped", MetricsRegistry()) == plain

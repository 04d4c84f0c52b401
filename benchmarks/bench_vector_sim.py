"""Vectorized wave scheduler vs the event-heap oracle (acceptance bench).

The wave scheduler's contract is *bit-exact equivalence at a fraction of
the cost*: the same (start, finish, server) for every task as the event
heap.  This module runs both engines on the 1024-node Regent+CR stencil
step (the graph behind one Figure 6 sweep point) and asserts the
schedules agree.  It also times the full Figure 6 sweep under the
vectorized engine, which must fit in the 4-second budget that makes
paper-scale sweeps interactive.
"""

import time

import numpy as np
from conftest import record_bench, run_once

from repro.analysis import run_figure
from repro.apps.stencil.perf import RATE_REGENT_1NODE, figure6_spec, \
    stencil_workload
from repro.machine.execution_models import simulate_regent_cr

NODES = 1024
SWEEP_BUDGET_SECONDS = 4.0


def _cr_graph(machine, engine: str):
    """One Regent+CR stencil simulation at 1024 nodes; returns the graph."""
    tiles_per_node = machine.cores_per_node - (
        1 if machine.dedicated_analysis_core else 0)
    workload = stencil_workload(tiles_per_node, RATE_REGENT_1NODE)
    sims = []
    simulate_regent_cr(workload, machine, NODES, on_complete=sims.append,
                       engine=engine)
    return sims[0]


def test_vector_vs_event_oracle_1024(benchmark, machine):
    """Bit-identical schedules on the 1024-node stencil graph, and the
    full Figure 6 sweep inside its budget."""
    # Vectorized engine: best of three (construction + scheduling).
    vector_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        g = _cr_graph(machine, "vector")
        vector_times.append(time.perf_counter() - t0)
    vector_seconds = min(vector_times)

    # The same columnar graph through the array-reading event heap.
    t0 = time.perf_counter()
    g_event = _cr_graph(machine, "event")
    event_seconds = time.perf_counter() - t0

    # Exactness before speed: same start/finish/server for every task.
    assert np.array_equal(g.start, g_event.start)
    assert np.array_equal(g.finish, g_event.finish)
    assert np.array_equal(g.server, g_event.server)

    print(f"\n1024-node stencil CR step ({g.num_tasks} tasks): "
          f"vector {vector_seconds * 1e3:.1f} ms, "
          f"event oracle {event_seconds * 1e3:.1f} ms")
    record_bench("vector_sim", op="cr_step_1024_nodes", shards=NODES,
                 backend="simulator", seconds_per_iteration=vector_seconds,
                 engine="vector",
                 baseline_seconds_per_iteration=event_seconds,
                 tasks=int(g.num_tasks))

    timing = {}

    def sweep():
        t0 = time.perf_counter()
        out = run_figure(figure6_spec(machine, max_nodes=1024,
                                      engine="vector"))
        timing["seconds"] = time.perf_counter() - t0
        return out

    data = run_once(benchmark, sweep,
                    record={"bench": "vector_sim", "op": "fig6_full_sweep",
                            "shards": NODES, "backend": "simulator",
                            "engine": "vector"})
    sweep_seconds = timing["seconds"]
    print(f"full Figure 6 sweep (vector engine): {sweep_seconds:.2f} s")
    assert sweep_seconds <= SWEEP_BUDGET_SECONDS, (
        f"1024-node Figure 6 sweep took {sweep_seconds:.2f}s "
        f"(budget {SWEEP_BUDGET_SECONDS}s)")
    assert data.efficiency_at_max("Regent (with CR)") > 0.95

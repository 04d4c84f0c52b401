"""Figure 9: weak scaling for Circuit, 1-1024 nodes (paper §5.4).

Paper result: Regent+CR reaches 98% parallel efficiency at 1024 nodes;
without control replication the run matches CR up to ~16 nodes and then
collapses as the single master task's launch overhead dominates.
"""

from conftest import run_once

from repro.analysis import run_figure
from repro.apps.circuit.perf import figure9_spec


def test_figure9_weak_scaling(benchmark, machine):
    spec = figure9_spec(machine, max_nodes=1024)
    data = run_once(benchmark, lambda: run_figure(spec),
                    record={"bench": "fig9_circuit",
                            "op": "weak_scaling_sweep",
                            "shards": 1024, "backend": "simulator",
                            "engine": "vector"})
    print()
    print(data.format_table())
    cr = data.efficiency_at_max("Regent (with CR)")
    noncr = data.efficiency_at_max("Regent (w/o CR)")
    print(f"-> CR parallel efficiency at 1024 nodes: {cr * 100:.1f}% "
          f"(paper: 98%)")
    print(f"-> w/o CR at 1024 nodes: {noncr * 100:.1f}%")
    assert cr > 0.95
    assert noncr < 0.05
    # "matches this performance at small node counts (up to 16 nodes)".
    assert data.efficiency("Regent (w/o CR)", 8) > 0.95
    assert data.efficiency("Regent (w/o CR)", 16) > 0.8
    assert data.efficiency("Regent (w/o CR)", 64) < 0.4

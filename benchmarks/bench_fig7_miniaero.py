"""Figure 7: weak scaling for MiniAero, 1-1024 nodes (paper §5.2).

Paper result: Regent+CR holds ~100% parallel efficiency at 1024 nodes and
beats both MPI+Kokkos references in absolute throughput (Legion's hybrid
data layouts); without CR, nine launches per step saturate the control
thread after only a few nodes; the rank-per-node reference starts above
rank-per-core but drops toward it at scale.
"""

from conftest import run_once

from repro.analysis import run_figure
from repro.apps.miniaero.perf import figure7_spec


def test_figure7_weak_scaling(benchmark, machine):
    spec = figure7_spec(machine, max_nodes=1024)
    data = run_once(benchmark, lambda: run_figure(spec),
                    record={"bench": "fig7_miniaero",
                            "op": "weak_scaling_sweep",
                            "shards": 1024, "backend": "simulator",
                            "engine": "vector"})
    print()
    print(data.format_table())
    cr = data.efficiency_at_max("Regent (with CR)")
    noncr = data.efficiency_at_max("Regent (w/o CR)")
    print(f"-> CR parallel efficiency at 1024 nodes: {cr * 100:.1f}% "
          f"(paper: slightly over 100%)")
    print(f"-> w/o CR at 1024 nodes: {noncr * 100:.1f}% (paper: collapses "
          f"after a handful of nodes)")
    assert cr > 0.95
    assert noncr < 0.05
    # Regent beats both references in absolute terms at every node count.
    for n in (1, 64, 1024):
        regent = data.values["Regent (with CR)"][n]
        assert regent > data.values["MPI+Kokkos (rank/core)"][n]
        assert regent > data.values["MPI+Kokkos (rank/node)"][n]
    # Rank/node starts above rank/core, then falls toward it.
    rk1 = data.values["MPI+Kokkos (rank/node)"][1]
    rc1 = data.values["MPI+Kokkos (rank/core)"][1]
    rk1024 = data.values["MPI+Kokkos (rank/node)"][1024]
    rc1024 = data.values["MPI+Kokkos (rank/core)"][1024]
    assert rk1 > rc1 * 1.1
    assert (rk1024 - rc1024) < (rk1 - rc1) * 0.7

"""Figure 6: weak scaling for Stencil, 1-1024 nodes (paper §5.1).

Paper result: Regent with CR reaches 99% parallel efficiency at 1024
nodes at ~1.4-1.5 G points/s/node; without CR throughput collapses once
the control thread saturates; the PRK MPI and MPI+OpenMP references scale
nearly flat (and only run on square node counts).
"""

from conftest import run_once

from repro.analysis import run_figure
from repro.apps.stencil.perf import figure6_spec


def test_figure6_weak_scaling(benchmark, machine):
    spec = figure6_spec(machine, max_nodes=1024)
    data = run_once(benchmark, lambda: run_figure(spec),
                    record={"bench": "fig6_stencil", "op": "weak_scaling_sweep",
                            "shards": 1024, "backend": "simulator",
                            "engine": "vector"})
    print()
    print(data.format_table())
    cr = data.efficiency_at_max("Regent (with CR)")
    noncr = data.efficiency_at_max("Regent (w/o CR)")
    mpi = data.efficiency_at_max("MPI")
    print(f"-> CR parallel efficiency at 1024 nodes: {cr * 100:.1f}% "
          f"(paper: 99%)")
    print(f"-> w/o CR at 1024 nodes: {noncr * 100:.1f}% (paper: collapses)")
    print(f"-> MPI at 1024 nodes: {mpi * 100:.1f}% (paper: ~flat)")
    # Shape assertions: who wins and where the collapse falls.
    assert cr > 0.95
    assert noncr < 0.25
    assert mpi > 0.9
    assert data.efficiency("Regent (w/o CR)", 16) > 0.9  # fine at small scale


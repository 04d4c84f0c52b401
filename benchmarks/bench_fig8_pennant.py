"""Figure 8: weak scaling for PENNANT, 1-1024 nodes (paper §5.3).

Paper result at 1024 nodes: Regent+CR 87% parallel efficiency vs 82% for
MPI and 64% for MPI+OpenMP.  Regent starts *below* the references on one
node (a core per node is dedicated to Legion's runtime analysis) and the
gap closes at scale because the asynchronous dynamic collective hides the
per-cycle global ``dt`` reduction that the blocking MPI allreduce cannot.
"""

from conftest import run_once

from repro.analysis import run_figure
from repro.apps.pennant.perf import figure8_spec


def test_figure8_weak_scaling(benchmark, machine):
    spec = figure8_spec(machine, max_nodes=1024)
    data = run_once(benchmark, lambda: run_figure(spec),
                    record={"bench": "fig8_pennant",
                            "op": "weak_scaling_sweep",
                            "shards": 1024, "backend": "simulator",
                            "engine": "vector"})
    print()
    print(data.format_table())
    cr = data.efficiency_at_max("Regent (with CR)")
    mpi = data.efficiency_at_max("MPI")
    omp = data.efficiency_at_max("MPI+OpenMP")
    noncr = data.efficiency_at_max("Regent (w/o CR)")
    print(f"-> efficiencies at 1024 nodes: CR {cr * 100:.1f}% (paper 87%), "
          f"MPI {mpi * 100:.1f}% (paper 82%), "
          f"MPI+OpenMP {omp * 100:.1f}% (paper 64%)")
    # Shape: efficiency ordering CR > MPI > OpenMP; no-CR collapses.
    assert cr > mpi > omp
    assert noncr < 0.1
    # Regent single-node absolute throughput below the references (§5.3).
    assert data.values["Regent (with CR)"][1] < data.values["MPI"][1]
    assert data.values["Regent (with CR)"][1] <= data.values["MPI+OpenMP"][1]
    # The absolute gap to MPI closes at scale.
    gap1 = data.values["MPI"][1] - data.values["Regent (with CR)"][1]
    gap1024 = data.values["MPI"][1024] - data.values["Regent (with CR)"][1024]
    assert gap1024 < gap1

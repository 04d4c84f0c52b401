"""Distributed-machine performance simulation (the Piz Daint substitute)."""

from .execution_models import (
    StepResult,
    simulate_mpi,
    simulate_regent_cr,
    simulate_regent_noncr,
    throughput_per_node,
)
from .from_graph import simulate_dependence_graph
from .graph import ENGINES, GraphBuilder, UnsupportedGraph
from .model import PIZ_DAINT, MachineModel
from .patterns import (halo_edges_2d, halo_edges_2d_flat, halo_edges_3d,
                       halo_edges_3d_flat, random_graph_edges,
                       random_graph_edges_flat)
from .tracing import (UtilizationReport, analyze_simulation,
                      simulation_metrics, trace_simulation)
from .vector_sim import run_vectorized
from .workload import AppWorkload, PhaseSpec, flatten_edge_map

__all__ = [
    "AppWorkload",
    "ENGINES",
    "GraphBuilder",
    "MachineModel",
    "PIZ_DAINT",
    "PhaseSpec",
    "StepResult",
    "UnsupportedGraph",
    "UtilizationReport",
    "analyze_simulation",
    "flatten_edge_map",
    "run_vectorized",
    "simulation_metrics",
    "trace_simulation",
    "simulate_mpi",
    "simulate_regent_cr",
    "simulate_dependence_graph",
    "simulate_regent_noncr",
    "halo_edges_2d",
    "halo_edges_2d_flat",
    "halo_edges_3d",
    "halo_edges_3d_flat",
    "random_graph_edges",
    "random_graph_edges_flat",
    "throughput_per_node",
]

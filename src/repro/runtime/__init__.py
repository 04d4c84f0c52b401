"""Executors and runtime services (Legion/Realm substrate analogues)."""

from .backends import BACKENDS, Backend, backend_names, ensure_backend
from .collectives import SCALAR_REDUCTIONS, DynamicCollective
from .copy_engine import (FusedBatch, FusedCopy, disjoint_dst_colors,
                          lower_copy)
from .dependence import DependenceAnalyzer, DependenceGraph, OpNode
from .events import Event, Sequence
from .intersection_exec import (IntersectionResult, compute_intersections,
                                compute_intersections_sharded)
from .mapping import BlockMapper, Mapper
from .procs import ProcsUnavailableError, procs_available
from .window import CompiledWindow, LoopReplay, ReplayError, compile_window
from .sequential import SequentialExecutor
from .spmd import (DeadlockError, ReplicationDivergence, SPMDExecutor,
                   ShardExceptionGroup)

__all__ = [
    "BACKENDS",
    "Backend",
    "backend_names",
    "ensure_backend",
    "DeadlockError",
    "DependenceAnalyzer",
    "DependenceGraph",
    "OpNode",
    "DynamicCollective",
    "Event",
    "FusedBatch",
    "FusedCopy",
    "IntersectionResult",
    "BlockMapper",
    "Mapper",
    "ProcsUnavailableError",
    "CompiledWindow",
    "LoopReplay",
    "ReplayError",
    "ReplicationDivergence",
    "SCALAR_REDUCTIONS",
    "SPMDExecutor",
    "Sequence",
    "ShardExceptionGroup",
    "SequentialExecutor",
    "compile_window",
    "compute_intersections",
    "compute_intersections_sharded",
    "disjoint_dst_colors",
    "lower_copy",
    "procs_available",
]

"""repro — control replication for implicitly parallel programs.

A from-scratch Python reproduction of *Control Replication: Compiling
Implicit Parallelism to Efficient SPMD with Logical Regions* (Slaughter et
al., SC'17): a Regent/Legion-style programming model (logical regions,
dependent partitioning, tasks with privileges), the control replication
compiler, SPMD executors with phase-barrier synchronization and dynamic
collectives, a distributed-machine performance simulator, and the paper's
four evaluation applications.

Quick tour::

    from repro import (ispace, region, partition_block, partition_by_image,
                       task, R, RW, ProgramBuilder, control_replicate,
                       SequentialExecutor, SPMDExecutor)

See ``examples/quickstart.py`` for the paper's running example end to end.
"""

from .core import (
    CompilationReport,
    ProgramBuilder,
    control_replicate,
    format_program,
)
from .regions import (
    FieldSpace,
    IndexSpace,
    IntervalSet,
    Partition,
    PhysicalInstance,
    PrivateGhost,
    Rect,
    Region,
    ispace,
    partition_block,
    partition_blocks_nd,
    partition_by_field,
    partition_by_image,
    partition_by_offsets,
    partition_by_preimage,
    partition_difference,
    partition_equal,
    partition_from_subsets,
    partition_intersection,
    partition_restrict,
    partition_union,
    private_ghost_decomposition,
    region,
)
from .runtime import (
    DynamicCollective,
    SequentialExecutor,
    SPMDExecutor,
    compute_intersections,
)
from .tasks import NO_ACCESS, Privilege, PrivilegeError, R, Reduce, RegionView, RW, task

__version__ = "1.0.0"

__all__ = [
    "CompilationReport",
    "DynamicCollective",
    "FieldSpace",
    "IndexSpace",
    "IntervalSet",
    "NO_ACCESS",
    "Partition",
    "PhysicalInstance",
    "PrivateGhost",
    "Privilege",
    "PrivilegeError",
    "ProgramBuilder",
    "R",
    "RW",
    "Rect",
    "Reduce",
    "Region",
    "RegionView",
    "SPMDExecutor",
    "SequentialExecutor",
    "compute_intersections",
    "control_replicate",
    "format_program",
    "ispace",
    "partition_block",
    "partition_blocks_nd",
    "partition_by_field",
    "partition_by_image",
    "partition_by_offsets",
    "partition_by_preimage",
    "partition_difference",
    "partition_equal",
    "partition_from_subsets",
    "partition_intersection",
    "partition_restrict",
    "partition_union",
    "private_ghost_decomposition",
    "region",
    "task",
]

"""Logical regions, index spaces, and dependent partitioning.

This subpackage is the data-model substrate the paper assumes from
Regent/Legion: regions over structured or unstructured index spaces,
physical instances, and a partitioning sublanguage whose one statically
analyzable property — disjointness — drives the control replication
compiler.
"""

from .hierarchical import PrivateGhost, private_ghost_decomposition
from .index_space import IndexSpace, ispace
from .interval_join import shallow_intersection_pairs
from .intervals import IntervalSet
from .partition import Partition
from .partition_ops import (
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
)
from .rects import (
    Rect,
    rect_to_intervals,
    row_major_boxes,
)
from .shm import SharedMemoryArena
from .region import (
    FieldSpace,
    PhysicalInstance,
    Region,
    apply_reduction,
    lca_may_alias,
    reduction_identity,
    region,
)

__all__ = [
    "FieldSpace",
    "IndexSpace",
    "IntervalSet",
    "Partition",
    "PhysicalInstance",
    "PrivateGhost",
    "Rect",
    "Region",
    "SharedMemoryArena",
    "apply_reduction",
    "ispace",
    "lca_may_alias",
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
    "rect_to_intervals",
    "reduction_identity",
    "region",
    "row_major_boxes",
    "shallow_intersection_pairs",
]

"""Hierarchical private/ghost region trees (paper §4.5).

The common Regent idiom: partition a region at the top level into the
elements *never* involved in communication (``all_private``) and those that
*may* be (``all_ghost``).  Because that top-level partition is disjoint, the
region-tree analysis then proves the private side free of copies and skips
it in all dynamic intersection tests — which matters because in scalable
codes the communicated set is far smaller than the private set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intervals import IntervalSet
from .partition import ColourTable, Partition
from .partition_ops import partition_from_subsets, partition_restrict
from .region import Region

__all__ = ["PrivateGhost", "private_ghost_decomposition"]


@dataclass
class PrivateGhost:
    """The regions and partitions of a private/ghost decomposition.

    Attributes mirror Figure 5 of the paper: ``top`` partitions the root
    into ``all_private`` / ``all_ghost``; ``private_part`` (disjoint) and
    ``shared_part`` (disjoint) split each owner's elements by side; and
    ``ghost_part`` (aliased) is each color's remotely-read window.
    """

    root: Region
    top: Partition
    all_private: Region
    all_ghost: Region
    private_part: Partition
    shared_part: Partition
    ghost_part: Partition
    remote_ghost_part: Partition

    @property
    def num_colors(self) -> int:
        return self.private_part.num_colors


def private_ghost_decomposition(root: Region, owned: Partition,
                                accessed: Partition,
                                name: str | None = None) -> PrivateGhost:
    """Build the §4.5 decomposition from an ownership and an access partition.

    ``owned`` must be disjoint (who owns each element); ``accessed`` is the
    (generally aliased) partition naming all elements each color touches,
    e.g. an image over a pointer field.  An element is *ghost* iff some
    color accesses it without owning it.
    """
    if not owned.disjoint:
        raise ValueError("owned partition must be disjoint")
    if owned.num_colors != accessed.num_colors:
        raise ValueError("owned and accessed must have matching color counts")
    prefix = name or f"pg_{root.name}"
    # Strictly-remote ghosts: each color's accessed-but-not-owned elements.
    table = owned.colour_table
    remote = ColourTable.from_keys(accessed.colour_table.stacked - table.stacked,
                                   owned.num_colors, table.span)
    ghost_set = IntervalSet(remote.rows()[0])
    # Communication is two-sided: the owner's copy of a communicated element
    # is also involved (it is the producer), but it lives in the same global
    # element — the ghost *set* is the union of remotely-accessed elements.
    private_set = root.index_set - ghost_set
    top = partition_from_subsets(root, [private_set, ghost_set], disjoint=True,
                                 name=f"{prefix}_top")
    all_private = top[0]
    all_ghost = top[1]
    private_part = partition_restrict(owned, all_private, name=f"{prefix}_private")
    shared_part = partition_restrict(owned, all_ghost, name=f"{prefix}_shared")
    ghost_part = partition_restrict(accessed, all_ghost, name=f"{prefix}_ghost")
    # Tasks holding write or reduce privileges on both the shared and ghost
    # windows must use the strictly-remote variant — it is disjoint *from
    # shared_part per color*, so one task never sees the same element
    # through two views.
    remote_ghost_part = Partition(all_ghost, remote, disjoint=False,
                                  name=f"{prefix}_remote_ghost")
    return PrivateGhost(root=root, top=top, all_private=all_private,
                        all_ghost=all_ghost, private_part=private_part,
                        shared_part=shared_part, ghost_part=ghost_part,
                        remote_ghost_part=remote_ghost_part)

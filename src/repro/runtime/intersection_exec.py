"""Runtime evaluation of intersection statements (paper §3.3).

The compiler defers the number, size, and extent of subregion
intersections to runtime.  Evaluation is two-phase:

* **shallow** — find the candidate pairs ``(i, j)`` whose subregions
  overlap: the distinct label pairs of one output-sensitive overlap join
  of the two sides' intervals (:mod:`repro.regions.interval_join`); never
  all-pairs;
* **complete** — compute the exact shared element set for each candidate
  pair: the join's rows clipped and grouped by pair into one columnar
  :class:`~repro.regions.interval_join.PairTable`, never one object per
  pair.  After shard creation this runs per shard over its owned
  sources, which is how the paper keeps it ``O(M^2)`` in per-shard
  terms.

The paper uses an interval tree for unstructured regions and a bounding
volume hierarchy for structured ones.  Here one join serves both: a
subset of a structured index space *is* a linearised ``IntervalSet`` (one
interval per row run), so the same join answers it — exactly, with no
bounding-box false candidates to weed out afterwards.

Timings of both phases are recorded — they are what Table 1 of the paper
reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..regions.interval_join import PairTable, exact_intersections, overlap_join
from ..regions.intervals import sorted_distinct
from ..regions.partition import Partition

__all__ = ["IntersectionResult", "compute_intersections",
           "compute_intersections_sharded"]


@dataclass
class IntersectionResult:
    """The evaluated pair set of one ComputeIntersections statement.

    ``table`` is its one representation: the non-empty pairs as sorted
    colour columns and their intervals (:class:`PairTable`).  With
    ``all_pairs`` the statement visits every ``(i, j)``, empty ones
    included (a copy with no pair set), and the table holds the
    non-empty ones.
    """

    src: Partition
    dst: Partition
    table: PairTable
    shallow_seconds: float
    complete_seconds: float
    candidate_pairs: int = 0
    all_pairs: bool = False

    @property
    def pairs(self) -> PairTable:
        """``{(i, j): IntervalSet}`` of the non-empty pairs, read-only."""
        return self.table

    def nonempty_pairs(self) -> list[tuple[int, int]]:
        """The non-empty pairs in order (the table's, sorted)."""
        return list(self.table)

    def visited(self) -> np.ndarray:
        """The ``(i, j)`` a copy over this pair set visits, in pair order,
        as a ``(k, 2)`` array."""
        if self.all_pairs:
            i, j = np.divmod(np.arange(self.src.num_colors
                                       * self.dst.num_colors),
                             self.dst.num_colors)
            return np.column_stack((i, j))
        return np.column_stack((self.table.src, self.table.dst))


def compute_intersections(src: Partition, dst: Partition) -> IntersectionResult:
    """Evaluate ``{ i, j | dst[j] ∩ src[i] ≠ ∅ }`` with exact element sets."""
    return compute_intersections_sharded(src, dst, 1)[0]


def compute_intersections_sharded(src: Partition, dst: Partition,
                                  num_shards: int) -> tuple[IntersectionResult, list[float]]:
    """The paper's full §3.3 protocol: one shallow pass, then *per-shard*
    complete passes over each shard's owned source colors.

    Returns the merged result plus each shard's complete-phase time; the
    cost a real deployment pays is ``shallow + max(per-shard complete)``
    since the shards compute their exact intersections concurrently —
    "making them O(M²) where M is the number of non-empty intersections
    for regions owned by that shard".
    """
    from ..core.shards import color_owners

    owner = color_owners(src.num_colors, num_shards)
    t0 = time.perf_counter()
    i, j, src_rows, dst_rows = overlap_join(*src.colour_table.rows(),
                                            *dst.colour_table.rows())
    num_candidates = sorted_distinct(i * dst.num_colors + j).size
    t1 = time.perf_counter()

    # Hand every shard the candidates of its owned source colors.  Owners
    # grow with the source colour, so the shards' tables, one after
    # another, are sorted as one.
    owners = owner[i]
    by_owner = np.argsort(owners, kind="stable")
    cuts = np.searchsorted(owners[by_owner], np.arange(num_shards + 1))
    tables: list[PairTable] = []
    per_shard: list[float] = []
    for s in range(num_shards):
        ts = time.perf_counter()
        rows = by_owner[cuts[s]:cuts[s + 1]]
        tables.append(exact_intersections(i[rows], j[rows], src_rows[rows],
                                          dst_rows[rows]))
        per_shard.append(time.perf_counter() - ts)
    result = IntersectionResult(src=src, dst=dst,
                                table=PairTable.concat(tables),
                                shallow_seconds=t1 - t0,
                                complete_seconds=max(per_shard, default=0.0),
                                candidate_pairs=num_candidates)
    return result, per_shard

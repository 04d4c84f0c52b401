"""Runtime evaluation of intersection statements (paper §3.3).

The compiler defers the number, size, and extent of subregion
intersections to runtime.  Evaluation is two-phase:

* **shallow** — find the candidate pairs ``(i, j)`` whose subregions
  overlap: the distinct label pairs of one output-sensitive overlap join
  of the two sides' intervals (:mod:`repro.regions.interval_join`); never
  all-pairs;
* **complete** — compute the exact shared element set for each candidate
  pair: the join's rows clipped and grouped by pair.  After shard
  creation this runs per shard over its owned sources, which is how the
  paper keeps it ``O(M^2)`` in per-shard terms.

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
from dataclasses import field as dataclass_field

import numpy as np

from ..regions.interval_join import exact_intersections, overlap_join
from ..regions.intervals import IntervalSet
from ..regions.partition import Partition

__all__ = ["IntersectionResult", "compute_intersections",
           "compute_intersections_sharded"]


@dataclass
class IntersectionResult:
    """The evaluated pair set of one ComputeIntersections statement."""

    src: Partition
    dst: Partition
    pairs: dict[tuple[int, int], IntervalSet]
    shallow_seconds: float
    complete_seconds: float
    candidate_pairs: int = 0
    _nonempty: list | None = dataclass_field(default=None, repr=False,
                                             compare=False)
    _src_pairs: dict = dataclass_field(default_factory=dict, repr=False,
                                       compare=False)

    def nonempty_pairs(self) -> list[tuple[int, int]]:
        # Called once per copy execution per shard per iteration; the pair
        # dict is immutable after construction, so sort it only once.
        if self._nonempty is None:
            self._nonempty = sorted(self.pairs)
        return self._nonempty

    def src_pairs(self, colors) -> list[tuple[int, int]]:
        """Pairs whose source color is in ``colors`` (a shard's slice).

        Cached per colors-tuple: the shard slices are a small fixed set
        per run, while this is called every copy execution per shard per
        iteration — re-filtering (let alone re-sorting) the pair dict on
        every call showed up in shard-time profiles.
        """
        key = tuple(colors)
        cached = self._src_pairs.get(key)
        if cached is None:
            cs = set(key)
            cached = [(i, j) for (i, j) in self.nonempty_pairs() if i in cs]
            self._src_pairs[key] = cached
        return cached


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
    from ..core.shards import owner_of_color

    src_sets = [src.subset(c) for c in src.colors]
    dst_sets = [dst.subset(c) for c in dst.colors]
    owner = np.array([owner_of_color(src.num_colors, num_shards, c)
                      for c in src.colors], dtype=np.int64)
    t0 = time.perf_counter()
    i, j, src_rows, dst_rows = overlap_join(src_sets, dst_sets)
    num_candidates = np.unique(i * dst.num_colors + j).size
    t1 = time.perf_counter()

    # Hand every shard the candidates of its owned source colors.
    owners = owner[i]
    by_owner = np.argsort(owners, kind="stable")
    cuts = np.searchsorted(owners[by_owner], np.arange(num_shards + 1))
    pairs: dict[tuple[int, int], IntervalSet] = {}
    per_shard: list[float] = []
    for s in range(num_shards):
        ts = time.perf_counter()
        rows = by_owner[cuts[s]:cuts[s + 1]]
        pairs.update(exact_intersections(i[rows], j[rows], src_rows[rows],
                                         dst_rows[rows]))
        per_shard.append(time.perf_counter() - ts)
    result = IntersectionResult(src=src, dst=dst, pairs=pairs,
                                shallow_seconds=t1 - t0,
                                complete_seconds=max(per_shard, default=0.0),
                                candidate_pairs=num_candidates)
    return result, per_shard

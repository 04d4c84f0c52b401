"""Micro-benchmarks of the substrate data structures.

Not a paper table — these keep the building blocks honest: interval-set
algebra, overlap-join shallow intersections vs brute force, and the SPMD
copy path, at sizes where asymptotic differences show.
"""

import numpy as np
import pytest
from conftest import bench_and_record

from repro.regions import (
    IntervalSet,
    PhysicalInstance,
    ispace,
    partition_block,
    region,
    shallow_intersection_pairs,
)


@pytest.fixture(scope="module")
def big_sets():
    rng = np.random.default_rng(0)
    a = IntervalSet.from_indices(rng.choice(1_000_000, 50_000, replace=False))
    b = IntervalSet.from_indices(rng.choice(1_000_000, 50_000, replace=False))
    return a, b


class TestIntervalSetOps:
    def test_union(self, benchmark, big_sets):
        a, b = big_sets
        out = bench_and_record(benchmark, lambda: a | b, rounds=3,
                               bench="micro_substrate", op="intervalset_union",
                               backend="substrate")
        assert out.count >= max(a.count, b.count)

    def test_intersection(self, benchmark, big_sets):
        a, b = big_sets
        out = bench_and_record(benchmark, lambda: a & b, rounds=3,
                               bench="micro_substrate",
                               op="intervalset_intersection", backend="substrate")
        assert out.count <= min(a.count, b.count)

    def test_from_indices(self, benchmark):
        rng = np.random.default_rng(1)
        idx = rng.choice(1_000_000, 100_000, replace=False)
        out = bench_and_record(benchmark,
                               lambda: IntervalSet.from_indices(idx),
                               rounds=3, bench="micro_substrate",
                               op="intervalset_from_indices", backend="substrate")
        assert out.count == 100_000


class TestShallowIntersections:
    def _sets(self, n_sets):
        # Block-ish sets with small halo overlaps (the structural sweet spot).
        blocks = [IntervalSet.from_range(i * 100, (i + 1) * 100 + 10)
                  for i in range(n_sets)]
        return blocks

    def test_overlap_join_pairs(self, benchmark):
        sets = self._sets(512)
        pairs = bench_and_record(
            benchmark, lambda: shallow_intersection_pairs(sets, sets),
            rounds=3, bench="micro_substrate", op="shallow_pairs_join",
            backend="substrate")
        assert len(pairs) >= 512  # diagonal plus neighbors

    def test_bruteforce_baseline(self, benchmark):
        """The O(N^2) comparison the paper's §3.3 avoids (kept small)."""
        sets = self._sets(128)
        def brute():
            return [(i, j) for i in range(len(sets)) for j in range(len(sets))
                    if sets[i].intersects(sets[j])]
        pairs = bench_and_record(benchmark, brute, rounds=3,
                                 bench="micro_substrate",
                                 op="shallow_pairs_bruteforce", backend="substrate")
        assert len(pairs) >= 128


class TestCopyPath:
    def test_instance_copy_throughput(self, benchmark):
        R = region(ispace(size=1_000_000), {"v": np.float64})
        p = partition_block(R, 2)
        src = PhysicalInstance(p[0])
        dst = PhysicalInstance(R, p[0].index_set)
        pts = p[0].index_set
        moved = bench_and_record(benchmark,
                                 lambda: dst.copy_from(src, pts, ["v"]),
                                 rounds=3, bench="micro_substrate",
                                 op="instance_copy_500k", backend="substrate")
        assert moved == 500_000

"""Tests for runtime intersection evaluation (paper §3.3)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.circuit import CircuitProblem
from repro.regions import (
    IntervalSet,
    Partition,
    ispace,
    partition_block,
    partition_blocks_nd,
    partition_by_image,
    partition_from_subsets,
    region,
    shallow_intersection_pairs,
)
from repro.regions.interval_join import PairTable
from repro.runtime import compute_intersections, compute_intersections_sharded
from repro.runtime import spmd

from tests.interval_tree_oracle import tree_intersection_pairs


def brute(src, dst):
    out = {}
    for i in src.colors:
        for j in dst.colors:
            inter = src.subset(i) & dst.subset(j)
            if inter:
                out[(i, j)] = inter
    return out


class TestUnstructured:
    def test_matches_bruteforce(self):
        R = region(ispace(size=60), {"v": np.float64})
        p = partition_block(R, 6)
        rng = np.random.default_rng(3)
        table = rng.integers(0, 60, 60)
        q = partition_by_image(R, p, func=lambda pts: table[pts])
        res = compute_intersections(p, q)
        assert res.pairs == brute(p, q)
        assert res.shallow_seconds >= 0 and res.complete_seconds >= 0
        assert res.candidate_pairs >= len(res.pairs)

    def test_table_is_a_read_only_mapping(self):
        R = region(ispace(size=60), {"v": np.float64})
        p = partition_block(R, 6)
        rng = np.random.default_rng(5)
        image = rng.integers(0, 60, 60)
        q = partition_by_image(R, p, func=lambda pts: image[pts])
        res = compute_intersections(p, q)
        want = brute(p, q)
        assert res.pairs == want and len(res.pairs) == len(want)
        assert list(res.pairs) == sorted(want) == res.nonempty_pairs()
        assert all(res.pairs[k] == v for k, v in want.items())
        assert (0, 99) not in res.pairs
        with pytest.raises(TypeError):
            del res.pairs[next(iter(want))]
        assert res.table.count == sum(v.count for v in want.values())
        # Round trip through the mapping, and the table's rows per pair.
        again = PairTable.from_mapping(want)
        for col in ("src", "dst", "offsets", "intervals"):
            assert np.array_equal(getattr(again, col), getattr(res.table, col))
        nrows, ivals = res.table.select(np.arange(len(want))[::-1])
        assert nrows.tolist() == [v.num_intervals
                                  for _, v in sorted(want.items())][::-1]
        assert np.array_equal(ivals, np.concatenate(
            [v.intervals for _, v in sorted(want.items())][::-1]))

    def test_disjoint_partitions_only_diagonal(self):
        R = region(ispace(size=24), {"v": np.float64})
        p = partition_block(R, 4)
        res = compute_intersections(p, p)
        assert set(res.pairs) == {(i, i) for i in range(4)}
        for i in range(4):
            assert res.pairs[(i, i)] == p.subset(i)


class TestStructured:
    def test_star_halo_matches_bruteforce(self):
        A = region(ispace(shape=(16, 16)), {"v": np.float64})
        p = partition_blocks_nd(A, (4, 4))

        def nbrs(pts):
            x, y = np.unravel_index(pts, (16, 16))
            out = [pts]
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                xx, yy = x + dx, y + dy
                m = (xx >= 0) & (xx < 16) & (yy >= 0) & (yy < 16)
                # -1 (outside every target) where the neighbour is off-grid.
                out.append(np.where(m, np.ravel_multi_index(
                    (xx % 16, yy % 16), (16, 16)), -1))
            return np.stack(out, axis=1)

        q = partition_by_image(A, p, func=nbrs)
        res = compute_intersections(p, q)
        assert res.pairs == brute(p, q)
        # One join for both index-space kinds: no bounding-box candidates
        # that turn out empty (a BVH offered 100 for the 48 real pairs of
        # the 16-tile stencil).
        assert res.candidate_pairs == len(res.pairs)
        # Star halos: interior tiles intersect 5 sources (self + 4 sides).
        j_center = 5  # tile (1,1)
        srcs = [i for (i, j) in res.pairs if j == j_center]
        assert len(srcs) == 5


class TestShardedComplete:
    def test_matches_central_computation(self):
        from repro.runtime import compute_intersections_sharded
        R = region(ispace(size=60), {"v": np.float64})
        p = partition_block(R, 6)
        rng = np.random.default_rng(5)
        table = rng.integers(0, 60, 60)
        q = partition_by_image(R, p, func=lambda pts: table[pts])
        central = compute_intersections(p, q)
        sharded, per_shard = compute_intersections_sharded(p, q, 3)
        assert sharded.pairs == central.pairs
        assert len(per_shard) == 3
        assert all(t >= 0 for t in per_shard)
        # Reported complete time is the slowest shard, not the sum.
        assert sharded.complete_seconds == max(per_shard)

    def test_single_shard_degenerates(self):
        from repro.runtime import compute_intersections_sharded
        R = region(ispace(size=20), {"v": np.float64})
        p = partition_block(R, 4)
        q = partition_by_image(R, p, func=lambda pts: np.minimum(pts + 1, 19))
        sharded, per_shard = compute_intersections_sharded(p, q, 1)
        assert len(per_shard) == 1
        assert sharded.pairs == compute_intersections(p, q).pairs


# Subsets as lists of points below 160 (several short runs each) ...
subsets = st.lists(st.lists(st.integers(0, 159), max_size=14),
                   min_size=1, max_size=7)


@st.composite
def aliased_sides(draw):
    """Two families of subsets of one 160-point space, aliased within and
    across sides, one of them holding a run that spans most of the space
    (the case that made a prefix-max pruned scan quadratic)."""
    a, b = draw(subsets), draw(subsets)
    side, k = draw(st.sampled_from((a, b))), draw(st.integers(0, 6))
    lo, hi = draw(st.integers(0, 30)), draw(st.integers(120, 160))
    side[k % len(side)] = side[k % len(side)] + list(range(lo, hi))
    return a, b


def check_against_brute_force(src, dst, shards):
    want = brute(src, dst)
    res = compute_intersections(src, dst)
    assert res.pairs == want
    assert res.nonempty_pairs() == sorted(want)
    assert res.candidate_pairs == len(want)  # the join is exact
    sharded, per_shard = compute_intersections_sharded(src, dst, shards)
    assert sharded.pairs == want
    assert sharded.candidate_pairs == res.candidate_pairs
    assert len(per_shard) == shards
    return res


class TestAgainstBruteForce:
    @given(aliased_sides(), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_unstructured(self, sides, shards):
        R = region(ispace(size=160), {"v": np.float64})
        src, dst = (partition_from_subsets(
            R, [IntervalSet.from_indices(l) for l in side], disjoint=False)
            for side in sides)
        res = check_against_brute_force(src, dst, shards)
        # The shallow pairs are exact, and agree with the tree.
        sets = [[p.subset(c) for c in p.colors] for p in (src, dst)]
        pairs = shallow_intersection_pairs(src.colour_table, dst.colour_table)
        assert pairs == sorted(res.pairs)
        assert pairs == tree_intersection_pairs(*sets)

    @given(st.sampled_from([(4, 4), (5, 7), (3, 4, 5), (2, 3, 2, 3)]),
           st.data(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_structured(self, shape, data, shards):
        # Arbitrary linearized runs — non-rectangular subsets, most of them
        # crossing a row boundary (the shape a bounding box once got wrong,
        # silently skipping a copy): a structured subset is just its
        # linearised IntervalSet, so the one join must answer it exactly.
        size = int(np.prod(shape))
        runs = st.lists(st.tuples(st.integers(0, size - 1), st.integers(1, 9)),
                        max_size=3)
        A = region(ispace(shape=shape), {"v": np.float64})
        src, dst = (partition_from_subsets(
            A, [IntervalSet([(s, min(s + n, size)) for s, n in runs_])
                for runs_ in data.draw(st.lists(runs, min_size=1, max_size=5))],
            disjoint=False) for _ in range(2))
        res = check_against_brute_force(src, dst, shards)
        assert shallow_intersection_pairs(
            src.colour_table, dst.colour_table) == sorted(res.pairs)

    def test_interval_crossing_a_row_boundary(self):
        # {2..5} on a 4x4 grid holds (0, 2), (0, 3), (1, 0), (1, 1); the box
        # of its two end points alone, [0, 2) x [1, 3), misses both 3 and 4.
        A = region(ispace(shape=(4, 4)), {"v": np.float64})
        src = partition_from_subsets(
            A, [IntervalSet.from_range(2, 6), IntervalSet.from_range(8, 10)],
            disjoint=True)
        dst = partition_from_subsets(
            A, [IntervalSet.from_range(4, 5), IntervalSet.from_range(3, 4)],
            disjoint=True)
        res = compute_intersections(src, dst)
        assert res.nonempty_pairs() == [(0, 0), (0, 1)]
        assert res.pairs == brute(src, dst)


class TestSetupCost:
    """Deterministic stand-ins for set-up timing bounds (counts, no clock)."""

    @pytest.mark.parametrize("pieces", [24, 96])
    def test_unstructured_complete_pass_is_one_join(self, pieces, monkeypatch):
        # The per-pair `&` was 4 333 calls on the 96-piece circuit; the join
        # computes every pair's exact set without one.
        calls = Counter()
        compute = spmd.compute_intersections
        intersection = IntervalSet.intersection

        def counted_compute(src, dst):
            assert src.parent.ispace.shape is None
            calls["inside"] += 1
            try:
                return compute(src, dst)
            finally:
                calls["inside"] -= 1
                calls["pair_sets"] += 1

        def counted_intersection(self, other):
            calls["intersections"] += calls["inside"]
            return intersection(self, other)

        monkeypatch.setattr(spmd, "compute_intersections", counted_compute)
        monkeypatch.setattr(IntervalSet, "intersection", counted_intersection)
        p = CircuitProblem(pieces=pieces, nodes_per_piece=20,
                           wires_per_piece=30, steps=2)
        p.run_control_replicated(2)
        assert calls["pair_sets"] == 5
        assert calls["intersections"] == 0

    @pytest.mark.parametrize("ns", [2, 8])
    def test_copy_setup_counts_colours_not_pairs(self, ns, monkeypatch):
        # A run's set-up — pair tables, colour tables, copy lowerings,
        # send and receive plans, launch-entry and -exit copies — builds
        # interval sets, looks up instances and asks colour owners a
        # bounded number of times per colour and per lowered item, and
        # not once per pair: four times the wires is over three times the
        # pairs and the same counts.
        import sys

        from repro.core import control_replicate
        from repro.core import shards
        from repro.core.ir import ShardLaunch, walk
        from repro.runtime.copy_engine import FusedCopy
        from repro.runtime.launch import launch_spec
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)
            return wrapper

        monkeypatch.setattr(IntervalSet, "__init__",
                            counted("sets", IntervalSet.__init__))
        monkeypatch.setattr(IntervalSet, "_from_normalized", classmethod(
            counted("sets", IntervalSet._from_normalized.__func__)))
        monkeypatch.setattr(spmd.SPMDExecutor, "dist_instance",
                            counted("instances",
                                    spmd.SPMDExecutor.dist_instance))
        owner = shards.owner_of_color
        for mod in list(sys.modules.values()):
            if getattr(mod, "owner_of_color", None) is owner:
                monkeypatch.setattr(mod, "owner_of_color",
                                    counted("owners", owner))
        monkeypatch.setattr(FusedCopy, "build", classmethod(
            counted("items", FusedCopy.build.__func__)))
        seen = []
        for wires in (20, 80):
            p = CircuitProblem(pieces=96, nodes_per_piece=20,
                               wires_per_piece=wires, steps=4)
            prog, _ = control_replicate(p.build_program(), num_shards=ns)
            ex = spmd.SPMDExecutor(num_shards=ns,
                                   instances=p.fresh_instances())
            calls.clear()
            ex.run(prog)
            launch = next(s for s in walk(prog.body)
                          if isinstance(s, ShardLaunch))
            colours = sum(part.num_colors for part in
                          launch_spec(launch, ex._copy_pairs, ns).partitions)
            bound = 4 * (colours + calls["items"])
            assert calls["items"] > 0
            for name in ("sets", "instances", "owners"):
                assert calls[name] <= bound, (name, calls[name], bound)
            seen.append((sum(len(r.pairs) for r in ex.pair_sets.values()),
                         {k: calls[k] for k in ("sets", "instances",
                                                "owners")}))
        (few, at_few), (many, at_many) = seen
        assert many > 3 * few
        assert at_many == at_few

    @pytest.mark.parametrize("pieces", [24, 96])
    def test_partition_containment_is_one_evaluation(self, pieces, monkeypatch):
        # Partition.__init__ asked `issubset` of every subset (866 calls, a
        # Python step per interval each); now one rank query per partition.
        calls = Counter()
        init = Partition.__init__

        def counted_init(self, *args, **kw):
            calls["inside"] += 1
            try:
                init(self, *args, **kw)
            finally:
                calls["inside"] -= 1
                calls["partitions"] += 1

        monkeypatch.setattr(Partition, "__init__", counted_init)
        for name in ("below", "contains_points", "intersection_count",
                     "intersection"):
            def counted(self, *args, _query=getattr(IntervalSet, name), **kw):
                calls["queries"] += calls["inside"]
                return _query(self, *args, **kw)
            monkeypatch.setattr(IntervalSet, name, counted)
        CircuitProblem(pieces=pieces, nodes_per_piece=20, wires_per_piece=30)
        assert calls["partitions"] == 8  # PW, PN, QN and the §4.5 five
        assert calls["queries"] == calls["partitions"]


class TestPartitionAtArraySpeed:
    """A partition is its colour table: building one costs array
    operations, not a Python step and an interval set per colour."""

    CALLS = ("__init__", "_from_normalized", "from_indices", "from_range",
             "to_indices", "union", "intersection", "difference", "union_all")

    def _count(self, monkeypatch, calls):
        for name in self.CALLS:
            fn = IntervalSet.__dict__[name]
            if isinstance(fn, classmethod):
                def counted(cls, *args, _fn=fn.__func__, _name=name, **kw):
                    calls[_name] += 1
                    return _fn(cls, *args, **kw)
                monkeypatch.setattr(IntervalSet, name, classmethod(counted))
            else:
                def counted(self, *args, _fn=fn, _name=name, **kw):
                    calls[_name] += 1
                    return _fn(self, *args, **kw)
                monkeypatch.setattr(IntervalSet, name, counted)

    def test_circuit_partitions_are_flat_in_colours(self, monkeypatch):
        # At the parent of this guard, 96 pieces made 865 normalized sets,
        # 481 intersections and 97 differences, 384 pieces four times that.
        from repro.apps.circuit import app
        graphs = {n: app.CircuitGraph(n, 20, 30, seed=0) for n in (96, 384)}
        monkeypatch.setattr(app, "CircuitGraph", lambda n, *a, **kw: graphs[n])
        calls = Counter()
        self._count(monkeypatch, calls)
        seen = []
        for pieces in graphs:
            calls.clear()
            CircuitProblem(pieces=pieces, nodes_per_piece=20, wires_per_piece=30)
            seen.append(dict(calls))
        assert seen[0] == seen[1]
        assert sum(seen[0].values()) < 40

    def test_batched_views_make_no_point_lists(self, monkeypatch):
        # BatchedView.points and offsets are one gather of the partition's
        # table: the parent made one to_indices per region of a batched
        # view (384 on a 96-piece circuit run).
        from repro.core import control_replicate
        calls = Counter()
        self._count(monkeypatch, calls)
        seen = []
        for pieces in (24, 96):
            p = CircuitProblem(pieces=pieces, nodes_per_piece=20,
                               wires_per_piece=30, steps=2)
            prog, _ = control_replicate(p.build_program(), num_shards=2)
            ex = spmd.SPMDExecutor(num_shards=2, instances=p.fresh_instances())
            calls.clear()
            ex.run(prog)
            assert ex.tasks_executed > 0
            seen.append(calls["to_indices"])
        assert seen == [0, 0]

"""Tests for regions, physical instances, and the runtime aliasing test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regions import (
    FieldSpace,
    IntervalSet,
    PhysicalInstance,
    apply_reduction,
    ispace,
    lca_may_alias,
    partition_block,
    partition_blocks_nd,
    partition_by_image,
    partition_from_subsets,
    reduction_identity,
    region,
)
from repro.regions.intervals import stack_intervals
from repro.regions.partition import ColourTable


@pytest.fixture
def simple_region():
    return region(ispace(size=16, name="u"), {"a": np.float64, "b": np.int64},
                  name="R")


class TestFieldSpace:
    def test_names_and_dtypes(self):
        fs = FieldSpace({"x": np.float64, "v": (np.float32, (3,))})
        assert set(fs.names) == {"x", "v"}
        assert fs.dtype("x") == np.float64
        assert fs.elem_shape("v") == (3,)
        assert "x" in fs and "nope" not in fs

    def test_repr(self):
        assert "x" in repr(FieldSpace({"x": np.float64}))


class TestRegionTree:
    def test_root_region(self, simple_region):
        assert simple_region.parent is None
        assert simple_region.root is simple_region
        assert simple_region.depth == 0
        assert simple_region.volume == 16

    def test_subregion_links(self, simple_region):
        p = partition_block(simple_region, 4, name="P")
        sub = p[1]
        assert sub.parent is simple_region
        assert sub.root is simple_region
        assert sub.depth == 1
        assert sub.color == 1
        assert sub.ancestors() == [sub, simple_region]

    def test_lca_disjoint_siblings(self, simple_region):
        p = partition_block(simple_region, 4)
        assert not lca_may_alias(p[0], p[1])
        assert lca_may_alias(p[0], p[0])

    def test_lca_containment(self, simple_region):
        p = partition_block(simple_region, 4)
        assert lca_may_alias(p[0], simple_region)
        assert lca_may_alias(simple_region, p[3])

    def test_lca_aliased_partition(self, simple_region):
        p = partition_block(simple_region, 4)
        q = partition_by_image(simple_region, p, func=lambda x: (x + 1) % 16)
        assert lca_may_alias(q[0], q[1])
        assert lca_may_alias(p[0], q[2])

    def test_lca_different_trees(self, simple_region):
        other = region(ispace(size=16), {"a": np.float64})
        assert not lca_may_alias(simple_region, other)

    def test_lca_nested_disjoint(self, simple_region):
        top = partition_from_subsets(
            simple_region,
            [IntervalSet.from_range(0, 8), IntervalSet.from_range(8, 16)],
            disjoint=True)
        p0 = partition_block(top[0], 2)
        p1 = partition_block(top[1], 2)
        # Separated by different colors of a disjoint partition.
        assert not lca_may_alias(p0[0], p1[0])
        assert not lca_may_alias(p0[1], top[1])


class TestPhysicalInstance:
    def test_allocation(self, simple_region):
        inst = PhysicalInstance(simple_region)
        assert inst.num_points == 16
        assert inst.fields["a"].shape == (16,)
        assert inst.fields["a"].dtype == np.float64

    def test_element_shape(self):
        r = region(ispace(size=4), {"v": (np.float64, (2,))})
        inst = PhysicalInstance(r)
        assert inst.fields["v"].shape == (4, 2)

    def test_localize(self, simple_region):
        p = partition_block(simple_region, 4)
        inst = PhysicalInstance(p[1])
        assert inst.localize(np.array([4, 7])).tolist() == [0, 3]
        with pytest.raises(IndexError):
            inst.localize(np.array([0]))

    @given(st.lists(st.integers(0, 120), min_size=1, max_size=60), st.data())
    @settings(deadline=None)
    def test_interval_localize_matches_pointwise(self, held, data):
        # The interval-native path (ranks of interval ends) against the
        # point-wise one (searchsorted over the materialized points).
        big = region(ispace(size=128), {"a": np.float64})
        inst = PhysicalInstance(big, IntervalSet.from_indices(held))
        sub = IntervalSet.from_indices(data.draw(st.lists(st.sampled_from(held))))
        want = inst.localize(sub.to_indices())
        got = inst.localize(sub)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert inst.points[got].tolist() == sub.to_indices().tolist()
        # One uncovered point anywhere — inside a gap, below or above the
        # instance — fails both paths alike.
        stray = data.draw(st.integers(-3, 125).filter(lambda p: p not in held))
        for pts in (sub | IntervalSet.from_range(stray, stray + 1),
                    IntervalSet.from_range(min(held), max(max(held), stray) + 1)):
            if not pts.issubset(inst.index_set):
                with pytest.raises(IndexError, match="points not covered"):
                    inst.localize(pts.to_indices())
                with pytest.raises(IndexError, match="points not covered"):
                    inst.localize(pts)

    @given(st.lists(st.lists(st.integers(-40, 90), min_size=1, max_size=25),
                    min_size=1, max_size=6), st.data())
    @settings(deadline=None)
    def test_colour_table_matches_one_by_one(self, helds, data):
        # One rank query on a partition's stacked colours, less the
        # colour's volume prefix, against each colour's own instance.
        big = region(ispace(size=128), {"a": np.float64})
        sets = [IntervalSet.from_indices(h) for h in helds]
        insts = [PhysicalInstance(big, s) for s in sets]
        table = ColourTable(sets)
        which = data.draw(st.lists(st.integers(0, len(insts) - 1), max_size=12))
        subs = [IntervalSet.from_indices(data.draw(st.lists(
            st.sampled_from(helds[w]), min_size=1))) for w in which]
        ivals, row = stack_intervals(subs)
        colours = np.array(which, np.int64)[row]
        first = table.ranks(colours, ivals) - table.prefix[colours]
        want = [insts[w].localize_runs(s.intervals) for w, s in zip(which, subs)]
        assert first.tolist() == [x for f, _ in want for x in f.tolist()]
        assert table.prefix.tolist() == np.cumsum(
            [0] + [x.num_points for x in insts]).tolist()
        # A row asked of the wrong colour must not be found in a
        # neighbour's keys.
        if len(insts) > 1 and subs:
            w = (which[0] + 1) % len(insts)
            if not subs[0].issubset(insts[w].index_set):
                with pytest.raises(IndexError, match="points not covered"):
                    table.ranks(np.full(subs[0].num_intervals, w),
                                subs[0].intervals)

    def test_points_built_on_first_use(self, simple_region):
        # Allocation reads the count off the index set; the point array
        # exists only once something asks for it.
        held = IntervalSet([(2, 5), (9, 12)])
        inst = PhysicalInstance(simple_region, held)
        assert inst._points is None and inst.num_points == 6
        assert inst.fields["a"].shape == (6,)
        assert inst.points.tolist() == [2, 3, 4, 9, 10, 11]
        assert inst.points is inst._points
        assert inst.localize(np.array([9, 3])).tolist() == [3, 1]

    def test_covers(self, simple_region):
        inst = PhysicalInstance(simple_region, IntervalSet.from_range(0, 8))
        assert inst.covers(IntervalSet.from_range(2, 5))
        assert not inst.covers(IntervalSet.from_range(6, 10))

    def test_copy_from(self, simple_region):
        src = PhysicalInstance(simple_region)
        src.fields["a"][:] = np.arange(16)
        dst = PhysicalInstance(simple_region, IntervalSet.from_range(4, 8))
        n = dst.copy_from(src, IntervalSet.from_range(4, 8), ["a"])
        assert n == 4
        assert dst.fields["a"].tolist() == [4, 5, 6, 7]

    def test_copy_from_empty(self, simple_region):
        src = PhysicalInstance(simple_region)
        dst = PhysicalInstance(simple_region)
        assert dst.copy_from(src, IntervalSet.empty()) == 0

    def test_reduction_copy(self, simple_region):
        src = PhysicalInstance(simple_region)
        src.fields["a"][:] = 1.0
        dst = PhysicalInstance(simple_region)
        dst.fields["a"][:] = 10.0
        dst.copy_from(src, IntervalSet.from_range(0, 4), ["a"], redop="+")
        assert dst.fields["a"][:5].tolist() == [11, 11, 11, 11, 10]

    def test_fill(self, simple_region):
        inst = PhysicalInstance(simple_region)
        inst.fill(["a"], 3.5)
        assert np.all(inst.fields["a"] == 3.5)
        assert np.all(inst.fields["b"] == 0)

    def test_field_view_whole(self, simple_region):
        inst = PhysicalInstance(simple_region)
        arr, wb = inst.field_view("a", simple_region.index_set)
        assert wb is None
        arr[0] = 9.0
        assert inst.fields["a"][0] == 9.0  # true view

    def test_field_view_contiguous_slice(self, simple_region):
        inst = PhysicalInstance(simple_region)
        arr, wb = inst.field_view("a", IntervalSet.from_range(4, 8))
        assert wb is None and arr.shape == (4,)
        arr[:] = 7.0
        assert inst.fields["a"][4] == 7.0

    def test_field_view_gather_writeback(self, simple_region):
        inst = PhysicalInstance(simple_region)
        pts = IntervalSet.from_indices([1, 5, 9])
        arr, wb = inst.field_view("a", pts)
        assert wb is not None
        arr[:] = 2.5
        assert inst.fields["a"][1] == 0.0  # not yet written back
        wb()
        assert inst.fields["a"][[1, 5, 9]].tolist() == [2.5, 2.5, 2.5]


    def test_field_view_exact_cover_with_many_runs_is_zero_copy(self):
        # A distributed instance of a 2-D tile covers its region exactly
        # but in one run per grid row: still the array itself.
        reg = region(ispace(shape=(6, 6)), {"a": np.float64}, name="G")
        tile = partition_blocks_nd(reg, (2, 2))[1]
        assert tile.index_set.num_intervals == 3
        inst = PhysicalInstance(tile)
        # An equal set that is not the same object, as a view passes it.
        pts = IntervalSet.from_indices(tile.index_set.to_indices())
        for points in (tile.index_set, pts):
            arr, wb = inst.field_view("a", points)
            assert wb is None
            assert np.shares_memory(arr, inst.fields["a"])
            assert arr.shape == inst.fields["a"].shape
        # A strict subset (also three runs) still gets a gathered copy.
        sub = tile.index_set - IntervalSet.from_indices([int(pts.to_indices()[0])])
        arr, wb = inst.field_view("a", sub)
        assert wb is not None
        assert not np.shares_memory(arr, inst.fields["a"])
        arr[:] = 4.0
        wb()
        assert inst.fields["a"].tolist() == [0.0] + [4.0] * 8


class TestReductions:
    def test_identities(self):
        assert reduction_identity("+", np.float64) == 0
        assert reduction_identity("*", np.float64) == 1
        assert reduction_identity("min", np.float64) == np.inf
        assert reduction_identity("max", np.int32) == np.iinfo(np.int32).min
        assert reduction_identity("min", np.int64) == np.iinfo(np.int64).max

    def test_apply_with_duplicate_slots(self):
        dst = np.zeros(3)
        apply_reduction(dst, np.array([0, 0, 2]), np.array([1.0, 2.0, 5.0]), "+")
        assert dst.tolist() == [3.0, 0.0, 5.0]

    def test_apply_min_max(self):
        dst = np.full(2, 10.0)
        apply_reduction(dst, np.array([0, 0]), np.array([3.0, 7.0]), "min")
        assert dst[0] == 3.0
        apply_reduction(dst, np.array([1]), np.array([99.0]), "max")
        assert dst[1] == 99.0

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            apply_reduction(np.zeros(1), np.array([0]), np.array([1.0]), "xor")

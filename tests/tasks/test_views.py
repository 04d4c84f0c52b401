"""Tests for privilege-checked region views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProgramBuilder
from repro.core.ir import IndexLaunch, walk
from repro.regions import (
    IntervalSet,
    PhysicalInstance,
    ispace,
    partition_block,
    partition_from_subsets,
    region,
)
from repro.runtime.launch_plan import BatchedView, lower_launch
from repro.tasks import (
    PlacedView,
    PrivilegeError,
    R,
    Reduce,
    RegionView,
    RW,
    task,
)
from repro.tasks.views import GeometryView


@pytest.fixture
def setup():
    reg = region(ispace(size=12), {"a": np.float64, "b": np.float64}, name="R")
    inst = PhysicalInstance(reg)
    inst.fields["a"][:] = np.arange(12)
    p = partition_block(reg, 3)
    return reg, inst, p


class TestGeometry:
    def test_points_and_n(self, setup):
        reg, inst, p = setup
        sub_inst = PhysicalInstance(p[1])
        v = RegionView(p[1], sub_inst, R())
        assert v.n == 4
        assert v.points.tolist() == [4, 5, 6, 7]
        assert v.index_set == IntervalSet.from_range(4, 8)

    def test_localize(self, setup):
        reg, inst, p = setup
        v = RegionView(p[1], PhysicalInstance(p[1]), R())
        assert v.localize(np.array([5, 7])).tolist() == [1, 3]
        with pytest.raises(IndexError):
            v.localize(np.array([0]))

    def test_maybe_localize(self, setup):
        reg, inst, p = setup
        v = RegionView(p[1], PhysicalInstance(p[1]), R())
        slots, ok = v.maybe_localize(np.array([3, 4, 8, 7]))
        assert ok.tolist() == [False, True, False, True]
        assert slots[ok].tolist() == [0, 3]

    def test_maybe_localize_empty_region(self, setup):
        reg, inst, p = setup
        from repro.regions import Region
        empty = Region(reg.ispace, reg.fspace, index_set=IntervalSet.empty(),
                       parent_partition=p, color=None)
        v = RegionView(reg, PhysicalInstance(empty), R())
        v.region = empty
        slots, ok = v.maybe_localize(np.array([1, 2]))
        assert not ok.any()


class TestPrivilegeEnforcement:
    def test_read_requires_r(self, setup):
        reg, inst, _ = setup
        v = RegionView(reg, inst, Reduce("+"))
        with pytest.raises(PrivilegeError):
            v.read("a")

    def test_write_requires_w(self, setup):
        reg, inst, _ = setup
        v = RegionView(reg, inst, R())
        with pytest.raises(PrivilegeError):
            v.write("a")

    def test_field_scoping(self, setup):
        reg, inst, _ = setup
        v = RegionView(reg, inst, RW("a"))
        v.read("a")
        with pytest.raises(PrivilegeError):
            v.read("b")

    def test_reduce_requires_matching_op(self, setup):
        reg, inst, _ = setup
        v = RegionView(reg, inst, Reduce("+"))
        v.reduce("a", np.array([0]), np.array([5.0]), "+")
        with pytest.raises(PrivilegeError):
            v.reduce("a", np.array([0]), np.array([5.0]), "min")

    def test_rw_can_reduce(self, setup):
        reg, inst, _ = setup
        v = RegionView(reg, inst, RW())
        v.reduce("a", np.array([0]), np.array([5.0]), "+")
        v.finalize()
        assert inst.fields["a"][0] == 5.0


class TestDataMovement:
    def test_whole_region_is_zero_copy(self, setup):
        reg, inst, _ = setup
        v = RegionView(reg, inst, RW())
        v.write("a")[:] = 1.5
        assert inst.fields["a"][0] == 1.5  # no finalize needed

    def test_gathered_write_needs_finalize(self, setup):
        reg, inst, p = setup
        # Gathered view: sparse subset of the root instance.
        from repro.regions import Region, partition_from_subsets
        sparse = partition_from_subsets(
            reg, [IntervalSet.from_indices([1, 5, 9])], disjoint=True)
        v = RegionView(sparse[0], inst, RW())
        arr = v.write("a")
        arr[:] = -1.0
        assert inst.fields["a"][1] == 1.0  # still old
        v.finalize()
        assert inst.fields["a"][[1, 5, 9]].tolist() == [-1.0, -1.0, -1.0]

    def test_read_write_share_buffer(self, setup):
        reg, inst, _ = setup
        v = RegionView(reg, inst, RW())
        r = v.read("a")
        w = v.write("a")
        assert r is w

    def test_repr(self, setup):
        reg, inst, _ = setup
        assert "reads" in repr(RegionView(reg, inst, R()))


class TestPlacedView:
    """A view over fixed arrays checks every access as a RegionView does,
    and names the task, the region and the field when it refuses."""

    def _view(self, setup, privilege):
        reg, inst, _ = setup
        return PlacedView(reg, inst, privilege, "T")

    def test_accesses_are_the_instance_arrays(self, setup):
        _, inst, _ = setup
        v = self._view(setup, RW())
        assert v.read("a") is inst.fields["a"] is v.write("a")
        v.reduce("b", np.array([1, 1]), np.array([2.0, 3.0]), "+")
        assert inst.fields["b"][1] == 5.0

    @pytest.mark.parametrize("privilege,access", [
        (R("a"), lambda v: v.read("b")),
        (R(), lambda v: v.write("a")),
        (R(), lambda v: v.reduce("a", [0], [1.0], "+")),
        (RW("a"), lambda v: v.write("b")),
        (Reduce("+"), lambda v: v.read("a")),
        (Reduce("+"), lambda v: v.write("a")),
        (Reduce("+"), lambda v: v.reduce("a", [0], [1.0], "max")),
        (Reduce("+", "a"), lambda v: v.reduce("b", [0], [1.0], "+")),
    ])
    def test_every_access_beyond_the_privilege_raises(self, setup, privilege,
                                                      access):
        with pytest.raises(PrivilegeError, match=r"task T .* on R; .*field"):
            access(self._view(setup, privilege))

    def test_a_reduce_privilege_folds_with_its_operator(self, setup):
        _, inst, _ = setup
        v = self._view(setup, Reduce("max"))
        v.reduce("a", np.array([0]), np.array([7.0]), "max")
        assert inst.fields["a"][0] == 7.0


@st.composite
def shard_of_a_partition(draw):
    """A partition (disjoint or aliased, empty colours allowed, not
    necessarily starting at point 0) and one shard's run of its colours:
    ``(partition, lo, hi)``."""
    n = draw(st.integers(min_value=1, max_value=48))
    k = draw(st.integers(min_value=1, max_value=8))
    reg = region(ispace(size=n), {"a": np.float64}, name="R")
    if draw(st.booleans()):
        owner = draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n))
        subsets = [np.flatnonzero(np.array(owner) == c) for c in range(k)]
        disjoint = True
    else:
        subsets = [np.array(sorted(draw(st.sets(st.integers(0, n - 1)))),
                            dtype=int) for _ in range(k)]
        disjoint = False
    part = partition_from_subsets(
        reg, [IntervalSet.from_indices(s) for s in subsets],
        disjoint=disjoint, name="P")
    lo = draw(st.integers(0, k - 1))
    hi = draw(st.integers(lo + 1, k))
    return part, lo, hi


def _batched(part, lo, hi):
    regions = [part[c] for c in range(lo, hi)]
    rows = sum(r.index_set.count for r in regions)
    return BatchedView(regions, {"a": np.zeros(rows)}, R("a"), "T")


class TestSegmentedLocalize:
    """A batched view localizes id ``k`` among point task ``seg[k]``'s
    rows exactly as a view of that point task alone would, shifted by its
    rows' offset in the batch: mask and (clamped) slots both."""

    @given(shard_of_a_partition(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_each_point_tasks_own_view(self, shard, data):
        part, lo, hi = shard
        view = _batched(part, lo, hi)
        m = hi - lo
        n = part.parent.index_set.count
        counts = [part[c].index_set.count for c in range(lo, hi)]
        assert view.offsets.tolist() == np.cumsum([0] + counts).tolist()
        size = data.draw(st.integers(0, 40))
        ids = np.array(data.draw(st.lists(st.integers(-3, n + 3),
                                          min_size=size, max_size=size)),
                       dtype=np.int64)
        seg = np.array(data.draw(st.lists(st.integers(0, m - 1),
                                          min_size=size, max_size=size)),
                       dtype=np.int64)
        slots, ok = view.maybe_localize(ids, seg)
        for j in range(m):
            mine = seg == j
            own = PlacedView(part[lo + j], PhysicalInstance(part[lo + j]),
                             R("a"), "T")
            want_slots, want_ok = own.maybe_localize(ids[mine])
            assert ok[mine].tolist() == want_ok.tolist()
            assert (slots[mine] - view.offsets[j]).tolist() == \
                want_slots.tolist()
            # A contained id's slot is its own point in the batch.
            assert (view.points[slots[mine][want_ok]]
                    == ids[mine][want_ok]).all()
        if ok.all():
            assert view.localize(ids, seg).tolist() == slots.tolist()
        elif size:
            with pytest.raises(IndexError):
                view.localize(ids, seg)

    def test_aliased_point_is_looked_up_in_its_own_colour(self):
        reg = region(ispace(size=10), {"a": np.float64}, name="R")
        part = partition_from_subsets(
            reg, [IntervalSet.from_indices(s)
                  for s in ([1, 4, 7], [4, 5], [0, 4, 9])],
            disjoint=False, name="P")
        view = _batched(part, 0, 3)
        ids = np.array([4, 4, 4, 5, 5])
        slots, ok = view.maybe_localize(ids, np.array([0, 1, 2, 1, 2]))
        assert ok.tolist() == [True, True, True, True, False]
        assert slots[ok].tolist() == [1, 3, 6, 4]

    def test_seg_is_required_across_point_tasks(self):
        reg = region(ispace(size=8), {"a": np.float64}, name="R")
        view = _batched(partition_block(reg, 4), 1, 3)
        for lookup in (view.localize, view.maybe_localize,
                       GeometryView(view, "T").maybe_localize):
            with pytest.raises(TypeError, match=r"T.*batchable.*seg"):
                lookup(np.array([2]))
        with pytest.raises(TypeError, match="index_set"):
            view.index_set
        assert view.maybe_localize(np.array([2, 5]),
                                   np.array([0, 1]))[0].tolist() == [0, 3]

    def test_a_view_of_one_point_task_ignores_seg(self, setup):
        _, _, p = setup
        v = RegionView(p[1], PhysicalInstance(p[1]), R())
        assert v.offsets.tolist() == [0, 4]
        assert v.localize(np.array([5, 7]), np.zeros(2, int)).tolist() == \
            [1, 3]
        assert GeometryView(v, "T").offsets.tolist() == [0, 4]


class TestSegmentedLowering:
    """``lower_launch`` over a shard's colours: one batched call when they
    are adjacent rows of one block, one call per point task when they
    straddle two — and the segmented plan is the per-point plans
    side by side."""

    @staticmethod
    def _launch(part):
        def reverse(Av):
            """Each point task's points, last first, localized in it."""
            seg = np.repeat(np.arange(Av.offsets.size - 1),
                            np.diff(Av.offsets))
            return Av.maybe_localize(Av.points[::-1], seg[::-1])

        @task(privileges=[R("a")], name="rev", batchable=True,
              inspect=reverse)
        def rev(Av, *, plan):
            return None

        b = ProgramBuilder("segmented")
        b.launch(rev, ispace(size=part.num_colors, name="I"), part)
        return next(s for s in walk(b.build().body)
                    if isinstance(s, IndexLaunch))

    @given(shard_of_a_partition(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_straddling_shard_lowers_per_point(self, shard, data):
        part, lo, hi = shard
        split = data.draw(st.integers(lo, hi))  # == lo or hi: one block
        stmt = self._launch(part)
        prefix = part.colour_table.prefix
        blocks = [{"a": np.zeros(prefix[b] - prefix[a])}
                  for a, b in ((lo, split), (split, hi))]
        starts = {c: (0 if c < split else 1,
                      int(prefix[c] - prefix[lo if c < split else split]))
                  for c in range(lo, hi)}

        def block_rows(r):
            which, start = starts[r.color]
            return blocks[which], start, start + r.index_set.count

        plans = {}
        plan = lower_launch(stmt, range(lo, hi), PhysicalInstance,
                            block_rows, plans)
        straddles = lo < split < hi
        if hi - lo < 2 or straddles:
            assert len(plan.calls) == plan.points == hi - lo
            assert len(plans) == hi - lo
        else:
            assert len(plan.calls) == 1 and plan.calls[0].points == hi - lo
            assert not plans  # the batched plan binds no per-point plan
            # Each point task's own slots, shifted by its rows' offset:
            # every point found at its position in the batch.
            slots, ok = plan.calls[0].fn.keywords["plan"]
            assert ok.all()
            total = int(prefix[hi] - prefix[lo])
            assert slots.tolist() == list(range(total))[::-1]

"""The inspector contract: ``@task(..., inspect=fn)``.

An inspector sees geometry and nothing else, runs once per distinct
(task, argument regions) through a memo its caller owns, and its result
reaches the body as keyword-only ``plan``.
"""

import numpy as np
import pytest

from repro.regions import PhysicalInstance, ispace, partition_block, region
from repro.tasks import (
    GeometryView,
    PrivilegeError,
    R,
    RW,
    RegionView,
    call_task,
    task,
)


@pytest.fixture
def setup():
    reg = region(ispace(size=12), {"a": np.float64}, name="R")
    inst = PhysicalInstance(reg)
    inst.fields["a"][:] = np.arange(12)
    return reg, inst, partition_block(reg, 3)


def make_task(seen):
    def plan_double(B, A):
        seen.append((B, A))
        return A.localize(B.points)

    @task(privileges=[RW("a"), R("a")], inspect=plan_double)
    def double(B, A, factor, *, plan):
        B.write("a")[:] = factor * A.read("a")[plan]

    return double


class TestGeometryOnly:
    def test_inspector_receives_geometry_views(self, setup):
        reg, inst, p = setup
        seen = []
        call_task(make_task(seen), [p[1], reg, 2.0], lambda r: inst, {})
        (B, A), = seen
        assert isinstance(B, GeometryView) and isinstance(A, GeometryView)
        assert B.n == 4 and B.points.tolist() == [4, 5, 6, 7]
        assert B.index_set == p[1].index_set and B.region is p[1]
        assert A.localize(np.array([3])).tolist() == [3]
        slots, ok = B.maybe_localize(np.array([0, 5]))
        assert ok.tolist() == [False, True] and slots[1] == 1

    @pytest.mark.parametrize("access", [
        lambda v: v.read("a"),
        lambda v: v.write("a"),
        lambda v: v.reduce("a", np.array([0]), np.array([1.0]), "+"),
    ])
    def test_data_access_raises(self, setup, access):
        reg, inst, _ = setup
        # Even over a view whose own privilege would allow everything.
        view = GeometryView(RegionView(reg, inst, RW()), "double")
        with pytest.raises(PrivilegeError, match="double.*geometry only"):
            access(view)

    def test_inspector_that_reads_fails_the_call(self, setup):
        reg, inst, p = setup

        @task(privileges=[R("a")], inspect=lambda A: A.read("a").sum())
        def peek(A, *, plan):
            return plan

        with pytest.raises(PrivilegeError, match="peek"):
            call_task(peek, [reg], lambda r: inst, {})


class TestPlan:
    def test_body_receives_plan_and_result_lands(self, setup):
        reg, inst, p = setup
        call_task(make_task([]), [p[2], reg, 3.0], lambda r: inst, {})
        assert inst.fields["a"][8:].tolist() == [24.0, 27.0, 30.0, 33.0]

    def test_memo_is_per_task_and_regions(self, setup):
        reg, inst, p = setup
        seen, plans = [], {}
        t = make_task(seen)
        for _ in range(3):
            for c in (0, 1):
                call_task(t, [p[c], reg, 1.0], lambda r: inst, plans)
        assert len(seen) == 2
        assert set(plans) == {(t.uid, p[0].uid, reg.uid),
                              (t.uid, p[1].uid, reg.uid)}
        # A plan that is legitimately None is still memoised.
        calls = []

        @task(privileges=[R("a")], inspect=lambda A: calls.append(1))
        def nothing(A, *, plan):
            assert plan is None

        for _ in range(2):
            call_task(nothing, [reg], lambda r: inst, plans)
        assert calls == [1]

    def test_task_without_inspector_is_called_as_before(self, setup):
        reg, inst, p = setup
        got = []

        @task(privileges=[R("a")])
        def plain(A, x):  # takes no ``plan``: passing one would TypeError
            got.append((type(A), x))
            return A.read("a").sum()

        plans = {}
        assert plain.inspect is None
        assert plain.bound([], plans) is plain.fn
        assert call_task(plain, [reg, 7], lambda r: inst, plans) == 66.0
        assert got == [(RegionView, 7)] and plans == {}

    def test_gathered_writes_are_scattered_back(self, setup):
        # call_task finalizes its views: a strided subregion of a root
        # instance is a gathered copy, and the write must reach the root.
        reg, inst, _ = setup
        from repro.regions import IntervalSet, partition_from_subsets
        odd = partition_from_subsets(
            reg, [IntervalSet.from_indices([1, 5, 9])], disjoint=True)[0]

        @task(privileges=[RW("a")])
        def zero(A):
            A.write("a")[:] = 0.0

        call_task(zero, [odd], lambda r: inst, {})
        assert inst.fields["a"][[1, 5, 9]].tolist() == [0.0, 0.0, 0.0]
        assert inst.fields["a"][2] == 2.0

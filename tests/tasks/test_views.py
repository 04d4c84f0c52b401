"""Tests for privilege-checked region views."""

import numpy as np
import pytest

from repro.regions import IntervalSet, PhysicalInstance, ispace, partition_block, region
from repro.tasks import PlacedView, PrivilegeError, R, Reduce, RegionView, RW


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

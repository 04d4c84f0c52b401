"""Tests for partitions and the dependent-partitioning operators."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regions import (
    IntervalSet,
    PhysicalInstance,
    ispace,
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
    region,
)


@pytest.fixture
def R():
    return region(ispace(size=20, name="u"), {"v": np.float64}, name="R")


class TestPartitionBasics:
    def test_subregions_cached(self, R):
        p = partition_block(R, 4)
        assert p[2] is p[2]
        assert p[2].index_set == p.subset(2)

    def test_colors(self, R):
        p = partition_block(R, 4)
        assert p.num_colors == 4 and len(p) == 4
        assert [r.color for r in p] == [0, 1, 2, 3]

    def test_out_of_range_color(self, R):
        p = partition_block(R, 4)
        with pytest.raises(IndexError):
            p[4]

    def test_subset_containment_enforced(self, R):
        with pytest.raises(ValueError):
            partition_from_subsets(R, [IntervalSet.from_range(0, 100)])

    def test_compute_disjoint_complete(self, R):
        p = partition_block(R, 4)
        assert p.compute_disjoint() and p.compute_complete()
        q = partition_from_subsets(
            R, [IntervalSet.from_range(0, 12), IntervalSet.from_range(8, 20)])
        assert not q.compute_disjoint()
        assert q.compute_complete()

    def test_repr(self, R):
        assert "disjoint" in repr(partition_block(R, 2))


class TestBlockEqual:
    def test_block_even(self, R):
        p = partition_block(R, 4)
        assert [p.subset(c).count for c in p.colors] == [5, 5, 5, 5]
        assert p.disjoint

    def test_block_uneven(self, R):
        p = partition_block(R, 3)
        assert sum(p.subset(c).count for c in p.colors) == 20
        assert max(p.subset(c).count for c in p.colors) - \
               min(p.subset(c).count for c in p.colors) <= 1

    def test_equal_on_sparse_region(self, R):
        top = partition_from_subsets(
            R, [IntervalSet.from_indices([0, 3, 5, 7, 11, 13, 17, 19])],
            disjoint=True)
        p = partition_equal(top[0], 3)
        assert p.compute_disjoint()
        assert p.union_of_subsets() == top[0].index_set

    def test_equal_zero_colors(self, R):
        with pytest.raises(ValueError):
            partition_equal(R, 0)

    def test_blocks_nd(self):
        A = region(ispace(shape=(4, 6)), {"v": np.float64})
        p = partition_blocks_nd(A, (2, 3))
        assert p.num_colors == 6
        assert p.compute_disjoint() and p.compute_complete()
        assert p.subset(0).count == 4

    def test_blocks_nd_requires_structured(self, R):
        with pytest.raises(TypeError):
            partition_blocks_nd(R, (2,))

    def test_blocks_nd_rank_check(self):
        A = region(ispace(shape=(4, 4)), {"v": np.float64})
        with pytest.raises(ValueError):
            partition_blocks_nd(A, (2,))


class TestFieldImagePreimage:
    def test_by_field(self, R):
        inst = PhysicalInstance(R)
        colors = np.arange(20) % 3
        R2 = region(ispace(size=20), {"c": np.int64})
        inst2 = PhysicalInstance(R2)
        inst2.fields["c"][:] = colors
        p = partition_by_field(R2, 3, inst2, "c")
        assert p.disjoint and p.compute_disjoint()
        assert p.subset(0).to_indices().tolist() == list(range(0, 20, 3))

    def test_by_field_out_of_range_colors_dropped(self):
        R2 = region(ispace(size=4), {"c": np.int64})
        inst = PhysicalInstance(R2)
        inst.fields["c"][:] = [0, 1, 7, -2]
        p = partition_by_field(R2, 2, inst, "c")
        assert p.union_of_subsets().count == 2

    def test_image_function(self, R):
        src = partition_block(R, 4)
        q = partition_by_image(R, src, func=lambda pts: np.minimum(pts + 1, 19))
        assert not q.disjoint
        assert q.subset(0).to_indices().tolist() == [1, 2, 3, 4, 5]

    def test_image_subset_of_target(self, R):
        src = partition_block(R, 4)
        q = partition_by_image(R, src, func=lambda pts: pts * 3)
        for c in q.colors:
            assert q.subset(c).issubset(R.index_set)

    def test_image_via_field(self):
        W = region(ispace(size=6), {"ptr": np.int64})
        N = region(ispace(size=10), {"v": np.float64})
        wi = PhysicalInstance(W)
        wi.fields["ptr"][:] = [0, 1, 2, 5, 5, 9]
        pw = partition_block(W, 2)
        q = partition_by_image(N, pw, instance=wi, field="ptr")
        assert q.subset(0).to_indices().tolist() == [0, 1, 2]
        assert q.subset(1).to_indices().tolist() == [5, 9]

    def test_image_arg_validation(self, R):
        src = partition_block(R, 2)
        with pytest.raises(ValueError):
            partition_by_image(R, src)  # neither func nor field

    def test_preimage_disjoint_when_single_valued(self, R):
        tgt = partition_block(R, 4)
        p = partition_by_preimage(R, tgt, func=lambda pts: (pts * 7) % 20)
        assert p.disjoint
        # Every point lands in the color owning f(p).
        for c in p.colors:
            pts = p.subset(c).to_indices()
            assert tgt.subset(c).contains_points((pts * 7) % 20).all()

    def test_preimage_multi_valued_aliased(self):
        W = region(ispace(size=6), {"ptr": (np.int64, (2,))})
        N = region(ispace(size=10), {"v": np.float64})
        wi = PhysicalInstance(W)
        wi.fields["ptr"][:] = [[0, 5], [1, 5], [2, 6], [3, 6], [4, 7], [0, 9]]
        tgt = partition_block(N, 2)
        p = partition_by_preimage(W, tgt, instance=wi, field="ptr")
        assert not p.disjoint
        # wire 0 points at nodes {0, 5}: both colors contain it.
        assert 0 in p.subset(0) and 0 in p.subset(1)


class TestSetOps:
    def test_intersection(self, R):
        a = partition_block(R, 2)
        b = partition_from_subsets(
            R, [IntervalSet.from_range(5, 15), IntervalSet.from_range(5, 15)])
        c = partition_intersection(a, b)
        assert c.subset(0) == IntervalSet.from_range(5, 10)
        assert c.subset(1) == IntervalSet.from_range(10, 15)

    def test_difference(self, R):
        a = partition_block(R, 2)
        b = partition_from_subsets(R, [IntervalSet.from_range(0, 3),
                                       IntervalSet.from_range(0, 3)])
        c = partition_difference(a, b)
        assert c.subset(0) == IntervalSet.from_range(3, 10)
        assert c.subset(1) == IntervalSet.from_range(10, 20)

    def test_union(self, R):
        a = partition_block(R, 2)
        b = partition_block(R, 2)
        c = partition_union(a, b)
        assert not c.disjoint
        assert c.subset(0) == a.subset(0)

    def test_restrict(self, R):
        top = partition_from_subsets(
            R, [IntervalSet.from_range(0, 10), IntervalSet.from_range(10, 20)],
            disjoint=True)
        a = partition_block(R, 4)
        rp = partition_restrict(a, top[0])
        assert rp.parent is top[0]
        assert rp.disjoint
        assert rp.subset(2) == IntervalSet.empty() | (a.subset(2) & top[0].index_set)

    def test_cross_tree_rejected(self, R):
        other = region(ispace(size=20), {"v": np.float64})
        a = partition_block(R, 2)
        b = partition_block(other, 2)
        with pytest.raises(ValueError):
            partition_intersection(a, b)
        with pytest.raises(ValueError):
            partition_union(a, b)
        with pytest.raises(ValueError):
            partition_difference(a, b)
        with pytest.raises(ValueError):
            partition_restrict(a, other)

    def test_from_subsets_computes_disjointness(self, R):
        p = partition_from_subsets(R, [IntervalSet.from_range(0, 10),
                                       IntervalSet.from_range(10, 20)])
        assert p.disjoint
        q = partition_from_subsets(R, [IntervalSet.from_range(0, 12),
                                       IntervalSet.from_range(10, 20)])
        assert not q.disjoint


def point_offset_image(shape, offsets):
    """The oracle: each point moved by each offset, one point at a time,
    kept where the moved point is inside the grid in every dimension (-1,
    which no target holds, where it is not)."""
    offsets = np.asarray(offsets, dtype=np.int64).reshape(-1, len(shape))
    extent = np.array(shape)[:, None]

    def fn(pts):
        coords = np.array(np.unravel_index(pts, shape)).reshape(len(shape), -1)
        out = [np.zeros((coords.shape[1], 0), dtype=np.int64)]
        for d in offsets:
            moved = coords + d[:, None]
            inside = ((moved >= 0) & (moved < extent)).all(axis=0)
            moved = np.clip(moved, 0, extent - 1)
            out.append(np.where(inside, np.ravel_multi_index(tuple(moved), shape),
                                -1)[:, None])
        return np.concatenate(out, axis=1)

    return fn


def square(radius, ndim=2):
    """Every offset with each coordinate in ``[-radius, radius]``."""
    return list(itertools.product(range(-radius, radius + 1), repeat=ndim))


@st.composite
def offset_images(draw):
    """(target, source, offsets) over a random 1-, 2- or 3-D grid."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 12 if ndim == 1 else 6),
                                min_size=ndim, max_size=ndim)))
    A = region(ispace(shape=shape), {"v": np.float64})
    size = int(np.prod(shape))
    kind = draw(st.sampled_from(["blocks", "equal", "subsets"]))
    if kind == "blocks":
        tiles = [draw(st.integers(1, min(e, 3))) for e in shape]
        source = partition_blocks_nd(A, tiles)
    elif kind == "equal":  # runs that cross row ends
        source = partition_equal(A, draw(st.integers(1, 6)))
    else:  # arbitrary point sets, empty colours included
        sets = draw(st.lists(st.lists(st.integers(0, size - 1), max_size=12),
                             min_size=1, max_size=4))
        source = partition_from_subsets(
            A, [IntervalSet.from_indices(np.array(p, dtype=np.int64)) for p in sets])
    reach = 2 * max(shape)  # offsets larger than the grid too
    offsets = draw(st.lists(st.tuples(*[st.integers(-reach, reach)] * ndim),
                            max_size=6))
    if draw(st.booleans()):
        offsets.append((0,) * ndim)
    target = A
    if draw(st.booleans()):  # a target that is not the whole grid
        target = partition_equal(A, 2)[draw(st.integers(0, 1))]
    return target, source, offsets


class TestOffsetImage:
    @settings(max_examples=200, deadline=None)
    @given(offset_images())
    def test_equals_the_point_image(self, case):
        target, source, offsets = case
        shape = target.ispace.shape
        got = partition_by_offsets(target, source, offsets)
        want = partition_by_image(target, source,
                                  func=point_offset_image(shape, offsets))
        assert not got.disjoint
        assert got.parent is target and got.num_colors == source.num_colors
        for c in source.colors:
            assert got.subset(c) == want.subset(c), c

    def test_halo_covers_square_neighbors(self):
        A = region(ispace(shape=(12, 12)), {"v": np.float64})
        blocks = partition_blocks_nd(A, (3, 3))
        halo = partition_by_offsets(A, blocks, square(1))
        assert not halo.disjoint
        # Interior block (1,1) = color 4: its 4x4 box grown to 6x6.
        assert halo.subset(4).count == 36
        # Corner block: clipped at the boundary.
        assert halo.subset(0).count == 25

    def test_exclude_self(self):
        A = region(ispace(shape=(12, 12)), {"v": np.float64})
        blocks = partition_blocks_nd(A, (3, 3))
        ghost = partition_difference(
            partition_by_offsets(A, blocks, square(1)), blocks)
        for c in blocks.colors:
            assert ghost.subset(c).isdisjoint(blocks.subset(c))
        assert ghost.subset(4).count == 36 - 16

    def test_matches_square_image(self):
        n, r = 12, 2
        A = region(ispace(shape=(n, n)), {"v": np.float64})
        blocks = partition_blocks_nd(A, (3, 3))
        img = partition_by_image(A, blocks,
                                 func=point_offset_image((n, n), square(r)))
        halo = partition_by_offsets(A, blocks, square(r))
        for c in blocks.colors:
            assert halo.subset(c) == img.subset(c)

    def test_non_box_blocks(self):
        # Equal chunks of a 12x12 grid are runs that cross row ends, not
        # boxes: colour 0 is row 0, row 1 and 4 points of row 2.  Its
        # radius-1 square image is 41 points, not the 48 of its bounding
        # box grown by one.
        A = region(ispace(shape=(12, 12)), {"v": np.float64})
        chunks = partition_equal(A, 5)
        halo = partition_by_offsets(A, chunks, square(1))
        img = partition_by_image(A, chunks,
                                 func=point_offset_image((12, 12), square(1)))
        assert halo.subset(0).count == 41
        for c in chunks.colors:
            assert halo.subset(c) == img.subset(c)

    def test_3d(self):
        A = region(ispace(shape=(6, 6, 6)), {"v": np.float64})
        blocks = partition_blocks_nd(A, (2, 2, 2))
        halo = partition_by_offsets(A, blocks, square(1, ndim=3))
        assert halo.subset(0).count == 4 ** 3

    def test_requires_structured(self):
        R2 = region(ispace(size=10), {"v": np.float64})
        p = partition_block(R2, 2)
        with pytest.raises(TypeError):
            partition_by_offsets(R2, p, [(1,)])

    def test_one_coordinate_per_dimension(self):
        A = region(ispace(shape=(12, 12)), {"v": np.float64})
        blocks = partition_blocks_nd(A, (3, 3))
        with pytest.raises(ValueError):
            partition_by_offsets(A, blocks, [(1, 0, 0)])
        assert not partition_by_offsets(A, blocks, []).union_of_subsets()

    def test_requires_one_shape(self):
        A = region(ispace(shape=(12, 12)), {"v": np.float64})
        B = region(ispace(shape=(12, 13)), {"v": np.float64})
        blocks = partition_blocks_nd(A, (3, 3))
        with pytest.raises(TypeError):
            partition_by_offsets(B, blocks, square(1))


class TestNoPointImage:
    """The apps' halos are built from row runs: with point expansion
    refused, constructing the problems at benchmark scale still works."""

    @pytest.fixture
    def no_points(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-point set-up while building a halo")
        monkeypatch.setattr(IntervalSet, "to_indices", refuse)
        monkeypatch.setattr(IntervalSet, "from_indices", refuse)

    @pytest.mark.parametrize("shape", ["star", "square"])
    def test_stencil(self, no_points, shape):
        from repro.apps.stencil.app import StencilProblem
        p = StencilProblem(n=768, tiles=8, shape=shape)
        assert all(p.QGHOST.subset(c) for c in p.QGHOST.colors)

    def test_miniaero(self, no_points):
        from repro.apps.miniaero.app import MiniAeroProblem
        p = MiniAeroProblem(shape=(24, 24, 24), tiles=8)
        assert all(p.QC.subset(c) for c in p.QC.colors)

"""Every dependent-partitioning operator against a per-colour oracle.

The operators build a partition's colour table at array speed; the
oracles below are the per-colour loops they replaced (one ``IntervalSet``
operation per colour), kept here as the reference.  Each test draws
regions that are sparse subregions as well as whole index spaces, empty
colours, aliased sources, out-of-range field and image values, and 1-D
to 3-D grids, and asks for ``==`` subsets colour by colour, the same
colour count and the same disjointness flag.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regions import (
    IntervalSet,
    Partition,
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
    private_ghost_decomposition,
    region,
)
from repro.regions.partition import ColourTable
from repro.regions.rects import Rect

# -- the per-colour oracles -----------------------------------------------------


def oracle_equal(reg, n):
    idx = reg.index_set.to_indices()
    cuts = [idx.size * c // n for c in range(n + 1)]
    return [IntervalSet.from_indices(idx[cuts[c]:cuts[c + 1]]) for c in range(n)]


def oracle_blocks_nd(reg, tiles):
    shape = reg.ispace.shape
    per_dim = [[(e * c // t, e * (c + 1) // t) for c in range(t)]
               for e, t in zip(shape, tiles)]
    return [reg.ispace.rect_subset(Rect(
        tuple(per_dim[d][k][0] for d, k in enumerate(coord)),
        tuple(per_dim[d][k][1] for d, k in enumerate(coord))))
        for coord in np.ndindex(*tiles)]


def oracle_by_field(reg, n, vals):
    pts = reg.index_set.to_indices()
    return [IntervalSet.from_indices(pts[vals[pts] == c]) for c in range(n)]


def oracle_by_image(target, source, table):
    out = []
    for c in source.colors:
        v = table[source.subset(c).to_indices()].reshape(-1)
        v = v[(v >= 0) & (v < target.ispace.size)]
        out.append(IntervalSet.from_indices(v) & target.index_set)
    return out


def oracle_by_offsets(target, source, offsets):
    shape = np.array(target.ispace.shape)
    out = []
    for c in source.colors:
        coords = np.array(np.unravel_index(source.subset(c).to_indices(),
                                           tuple(shape))).reshape(len(shape), -1)
        pts = [np.zeros(0, np.int64)]
        for d in offsets:
            moved = coords + np.array(d)[:, None]
            inside = ((moved >= 0) & (moved < shape[:, None])).all(axis=0)
            pts.append(np.ravel_multi_index(tuple(moved[:, inside]), tuple(shape)))
        out.append(IntervalSet.from_indices(np.concatenate(pts)) & target.index_set)
    return out


def oracle_by_preimage(source, target, table):
    pts = source.index_set.to_indices()
    vals = table[pts].reshape(pts.size, -1)
    return [IntervalSet.from_indices(pts[target.subset(c).contains_points(
        vals.reshape(-1)).reshape(vals.shape).any(axis=1)]) for c in target.colors]


def subsets(part, n=None):
    n = part.num_colors if n is None else n
    return [part.subset(c) if c < part.num_colors else IntervalSet.empty()
            for c in range(n)]


def oracle_set_op(a, b, op, n):
    return [op(x, y) for x, y in zip(subsets(a, n), subsets(b, n))]


def assert_matches(part, want, disjoint=None):
    assert part.num_colors == len(want)
    for c, s in enumerate(want):
        assert part.subset(c) == s, c
    if disjoint is not None:
        assert part.disjoint == disjoint
    # The table's own bookkeeping agrees with the slices.
    table = part.colour_table
    assert table.prefix.tolist() == np.cumsum([0] + [s.count for s in want]).tolist()
    assert part.union_of_subsets() == IntervalSet.union_all(want)


# -- strategies ---------------------------------------------------------------


def point_sets(size, max_sets=5, min_sets=0):
    """Lists of sets within [0, size), empty ones included."""
    return st.lists(st.lists(st.integers(0, size - 1), max_size=14).map(
        lambda p: IntervalSet.from_indices(np.array(p, dtype=np.int64))),
        min_size=min_sets, max_size=max_sets)


@st.composite
def unstructured(draw):
    """A region that is a whole index space or a sparse subregion of one."""
    size = draw(st.integers(1, 50))
    root = region(ispace(size=size), {"v": np.float64, "c": np.int64})
    if draw(st.booleans()):
        return root
    pts = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size))
    return partition_from_subsets(root, [IntervalSet.from_indices(pts)])[0]


@st.composite
def family(draw, reg):
    """An arbitrary (aliased, incomplete, empty-coloured) partition of reg."""
    pts = reg.index_set.to_indices()
    sets = draw(st.lists(st.lists(st.sampled_from(pts.tolist()), max_size=12),
                         min_size=1, max_size=6))
    return partition_from_subsets(reg, [IntervalSet.from_indices(
        np.array(s, dtype=np.int64)) for s in sets])


def value_table(draw, size, width):
    """Per point of the space, ``width`` images (out of range included)."""
    shape = (size,) if width == 0 else (size, width)
    vals = draw(st.lists(st.integers(-3, size + 3), min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    return np.array(vals, dtype=np.int64).reshape(shape)


# -- tests ----------------------------------------------------------------------


class TestClosedForm:
    @given(unstructured(), st.integers(1, 9))
    @settings(max_examples=120, deadline=None)
    def test_equal_and_block(self, reg, n):
        want = oracle_equal(reg, n)
        assert_matches(partition_equal(reg, n), want, disjoint=True)
        assert_matches(partition_block(reg, n), want, disjoint=True)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_blocks_nd(self, data):
        ndim = data.draw(st.integers(1, 3))
        shape = tuple(data.draw(st.lists(st.integers(1, 7), min_size=ndim,
                                         max_size=ndim)))
        tiles = tuple(data.draw(st.integers(1, e + 1)) for e in shape)
        reg = region(ispace(shape=shape), {"v": np.float64})
        assert_matches(partition_blocks_nd(reg, tiles),
                       oracle_blocks_nd(reg, tiles), disjoint=True)


class TestFieldAndImage:
    @given(unstructured(), st.integers(0, 7), st.data())
    @settings(max_examples=120, deadline=None)
    def test_by_field(self, reg, n, data):
        size = reg.ispace.size
        vals = np.array(data.draw(st.lists(st.integers(-2, n + 2), min_size=size,
                                           max_size=size)), dtype=np.int64)
        inst = PhysicalInstance(reg.root)
        inst.fields["c"][:] = vals
        assert_matches(partition_by_field(reg, n, inst, "c"),
                       oracle_by_field(reg, n, vals), disjoint=True)

    @given(unstructured(), unstructured(), st.integers(0, 3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_by_image(self, src_reg, target, width, data):
        source = data.draw(family(src_reg))
        table = value_table(data.draw, src_reg.ispace.size, width)
        got = partition_by_image(target, source, func=lambda p: table[p])
        assert_matches(got, oracle_by_image(target, source, table), disjoint=False)

    @given(unstructured(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_by_image_via_field(self, reg, data):
        source = data.draw(family(reg))
        table = value_table(data.draw, reg.ispace.size, 0)
        inst = PhysicalInstance(reg.root)
        inst.fields["c"][:] = table
        got = partition_by_image(reg.root, source, instance=inst, field="c")
        assert_matches(got, oracle_by_image(reg.root, source, table))

    @given(unstructured(), unstructured(), st.integers(0, 3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_by_preimage(self, source, tgt_reg, width, data):
        target = data.draw(family(tgt_reg))
        table = value_table(data.draw, source.ispace.size, width)
        got = partition_by_preimage(source, target, func=lambda p: table[p])
        assert_matches(got, oracle_by_preimage(source, target, table),
                       disjoint=target.disjoint and width == 0)

    def test_image_rows_must_match_points(self):
        R = region(ispace(size=8), {"v": np.float64})
        src = partition_block(R, 2)
        for bad in (lambda p: np.concatenate((p, p)), lambda p: p[:1],
                    lambda p: np.int64(0)):
            try:
                partition_by_image(R, src, func=bad)
            except ValueError as e:
                assert "one row per point" in str(e)
            else:
                raise AssertionError("a wrong-length image was accepted")

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_by_offsets(self, data):
        ndim = data.draw(st.integers(1, 3))
        shape = tuple(data.draw(st.lists(st.integers(1, 6), min_size=ndim,
                                         max_size=ndim)))
        A = region(ispace(shape=shape), {"v": np.float64})
        source = (partition_blocks_nd(A, [data.draw(st.integers(1, e)) for e in shape])
                  if data.draw(st.booleans()) else data.draw(family(A)))
        offsets = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * ndim),
                                     max_size=5))
        target = A if data.draw(st.booleans()) else partition_equal(A, 2)[1]
        assert_matches(partition_by_offsets(target, source, offsets),
                       oracle_by_offsets(target, source, offsets), disjoint=False)


class TestSetOps:
    @given(unstructured(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_pairwise(self, reg, data):
        a, b = data.draw(family(reg)), data.draw(family(reg))
        n = max(a.num_colors, b.num_colors)
        assert_matches(partition_intersection(a, b),
                       oracle_set_op(a, b, IntervalSet.intersection, n))
        assert_matches(partition_union(a, b),
                       oracle_set_op(a, b, IntervalSet.union, n), disjoint=False)
        assert_matches(partition_difference(a, b),
                       oracle_set_op(a, b, IntervalSet.difference, a.num_colors),
                       disjoint=a.disjoint)

    @given(unstructured(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_restrict(self, reg, data):
        part = data.draw(family(reg.root))
        got = partition_restrict(part, reg)
        assert got.parent is reg
        assert_matches(got, [s & reg.index_set for s in subsets(part)],
                       disjoint=part.disjoint)

    @given(st.integers(8, 50), st.integers(1, 6), st.integers(0, 2), st.data())
    @settings(max_examples=100, deadline=None)
    def test_private_ghost(self, size, n, width, data):
        R = region(ispace(size=size), {"v": np.float64})
        owned = partition_block(R, n)
        table = value_table(data.draw, size, width)
        accessed = partition_by_image(R, owned, func=lambda p: table[p])
        pg = private_ghost_decomposition(R, owned, accessed)
        remote = [a - o for a, o in zip(subsets(accessed), subsets(owned))]
        ghost = IntervalSet.union_all(remote)
        assert_matches(pg.top, [R.index_set - ghost, ghost], disjoint=True)
        assert_matches(pg.remote_ghost_part, remote)
        assert_matches(pg.private_part, [s - ghost for s in subsets(owned)])
        assert_matches(pg.shared_part, [s & ghost for s in subsets(owned)])
        assert_matches(pg.ghost_part, [s & ghost for s in subsets(accessed)])


class TestConstructor:
    @given(unstructured(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_mapping_with_holes(self, reg, data):
        pts = reg.index_set.to_indices().tolist()
        # Negative keys are no colour: left out, as they always were.
        colours = data.draw(st.lists(st.integers(-2, 8), max_size=5, unique=True))
        mapping = {c: IntervalSet.from_indices(data.draw(st.lists(
            st.sampled_from(pts), max_size=8))) for c in colours}
        got = Partition(reg, mapping, disjoint=False)
        n = max(max(colours) + 1, 0) if colours else 0
        assert_matches(got, [mapping.get(c, IntervalSet.empty()) for c in range(n)])

    @given(unstructured(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_computed_disjointness(self, reg, data):
        part = data.draw(family(reg))
        sets = subsets(part)
        total = sum(s.count for s in sets)
        assert part.disjoint == (total == IntervalSet.union_all(sets).count)

    def test_points_outside_the_parent_are_refused(self):
        R = region(ispace(size=10), {"v": np.float64})
        sub = partition_from_subsets(R, [IntervalSet.from_range(2, 6)])[0]
        for bad in ([IntervalSet.from_range(0, 3)],
                    {1: IntervalSet.from_range(5, 12)},
                    {0: IntervalSet.from_range(15, 16), 2: IntervalSet.empty()},
                    [IntervalSet.empty(), IntervalSet.from_range(-4, -1)]):
            try:
                Partition(sub, bad, disjoint=True)
            except ValueError as e:
                assert "not contained" in str(e)
            else:
                raise AssertionError(f"{bad} accepted as a partition of {sub}")

    def test_table_keyed_for_another_tree_is_refused(self):
        # A table stacked with its own base and span combines keys of a
        # different key space: refused, also under python -O.
        R = region(ispace(size=10), {"v": np.float64})
        table = ColourTable([IntervalSet.from_range(2, 6)])
        with pytest.raises(ValueError, match="needs base 0, span 11"):
            Partition(R, table, disjoint=True)

"""Tests for the private/ghost hierarchical decomposition (paper §4.5)."""

import numpy as np
import pytest

from repro.core import partitions_may_interfere
from repro.regions import (
    IntervalSet,
    ispace,
    lca_may_alias,
    partition_block,
    partition_by_image,
    private_ghost_decomposition,
    region,
)


@pytest.fixture
def decomp():
    R = region(ispace(size=40), {"v": np.float64}, name="B")
    owned = partition_block(R, 4, name="PB")
    # Each color also reads two elements into its right neighbor.
    def acc(pts):
        return np.stack([pts, np.minimum(pts + 2, 39)], axis=1)
    accessed = partition_by_image(R, owned, func=acc, name="QB")
    return R, owned, accessed, private_ghost_decomposition(R, owned, accessed)


class TestDecomposition:
    def test_top_level_is_disjoint_and_complete(self, decomp):
        R, owned, accessed, pg = decomp
        assert pg.top.disjoint
        assert pg.top.compute_disjoint() and pg.top.compute_complete()
        assert pg.all_private.index_set | pg.all_ghost.index_set == R.index_set

    def test_ghost_set_is_remotely_accessed_elements(self, decomp):
        R, owned, accessed, pg = decomp
        expect = IntervalSet.empty()
        for c in owned.colors:
            expect = expect | (accessed.subset(c) - owned.subset(c))
        assert pg.all_ghost.index_set == expect

    def test_private_shared_split_owned(self, decomp):
        R, owned, accessed, pg = decomp
        for c in owned.colors:
            union = pg.private_part.subset(c) | pg.shared_part.subset(c)
            assert union == owned.subset(c)
            assert pg.private_part.subset(c).isdisjoint(pg.shared_part.subset(c))

    def test_ghost_part_within_all_ghost(self, decomp):
        _, _, _, pg = decomp
        for c in pg.ghost_part.colors:
            assert pg.ghost_part.subset(c).issubset(pg.all_ghost.index_set)

    def test_remote_ghost_disjoint_from_own_shared(self, decomp):
        _, owned, _, pg = decomp
        for c in owned.colors:
            assert pg.remote_ghost_part.subset(c).isdisjoint(pg.shared_part.subset(c))
            assert pg.remote_ghost_part.subset(c).isdisjoint(pg.private_part.subset(c))

    def test_num_colors(self, decomp):
        _, _, _, pg = decomp
        assert pg.num_colors == 4

    def test_requires_disjoint_owned(self, decomp):
        R, owned, accessed, _ = decomp
        with pytest.raises(ValueError):
            private_ghost_decomposition(R, accessed, accessed)

    def test_requires_matching_colors(self):
        R = region(ispace(size=10), {"v": np.float64})
        o1 = partition_block(R, 2)
        a1 = partition_by_image(R, partition_block(R, 5), func=lambda p: p)
        with pytest.raises(ValueError):
            private_ghost_decomposition(R, o1, a1)


class TestAnalysisConsequences:
    """The point of §4.5: the analysis proves the private side copy-free."""

    def test_private_provably_disjoint_from_ghost(self, decomp):
        _, _, _, pg = decomp
        assert not lca_may_alias(pg.private_part[0], pg.ghost_part[1])
        assert not lca_may_alias(pg.private_part[2], pg.shared_part[2])
        assert not partitions_may_interfere(pg.private_part, pg.ghost_part)
        assert not partitions_may_interfere(pg.private_part, pg.shared_part)
        assert not partitions_may_interfere(pg.private_part, pg.remote_ghost_part)

    def test_shared_and_ghost_may_interfere(self, decomp):
        _, _, _, pg = decomp
        assert partitions_may_interfere(pg.shared_part, pg.ghost_part)
        assert partitions_may_interfere(pg.shared_part, pg.remote_ghost_part)

    def test_ghost_aliased_shared_disjoint(self, decomp):
        _, _, _, pg = decomp
        assert pg.shared_part.disjoint
        assert pg.private_part.disjoint
        assert not pg.ghost_part.disjoint

"""Tests for CR phase 5: shard creation and color ownership (paper §3.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import color_owners, owner_of_color, shard_owned_colors
from repro.core.shards import create_shards
from repro.core.ir import Block, Const, ScalarAssign, ShardLaunch
from repro.regions import ispace


class TestBlockOwnership:
    def test_even_split(self):
        blocks = [shard_owned_colors(8, 4, s) for s in range(4)]
        assert [list(b) for b in blocks] == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_uneven_split_covers_all(self):
        got = [c for s in range(3) for c in shard_owned_colors(7, 3, s)]
        assert got == list(range(7))

    def test_more_shards_than_colors(self):
        blocks = [list(shard_owned_colors(2, 4, s)) for s in range(4)]
        assert sum(blocks, []) == [0, 1]
        assert sum(1 for b in blocks if not b) == 2

    def test_owner_inverse_basic(self):
        for c in range(7):
            s = owner_of_color(7, 3, c)
            assert c in shard_owned_colors(7, 3, s)

    def test_owner_out_of_range(self):
        with pytest.raises(IndexError):
            owner_of_color(4, 2, 4)
        with pytest.raises(IndexError):
            owner_of_color(4, 2, -1)

    @given(st.integers(1, 200), st.integers(1, 64))
    @settings(max_examples=100)
    def test_partition_of_domain(self, domain, shards):
        """Owned blocks are disjoint, ordered, and cover the domain."""
        seen = []
        for s in range(shards):
            block = shard_owned_colors(domain, shards, s)
            seen.extend(block)
        assert seen == list(range(domain))

    @given(st.integers(1, 200), st.integers(1, 64), st.data())
    @settings(max_examples=100)
    def test_owner_is_inverse(self, domain, shards, data):
        color = data.draw(st.integers(0, domain - 1))
        s = owner_of_color(domain, shards, color)
        assert color in shard_owned_colors(domain, shards, s)

    def test_color_owners_is_owner_of_every_color(self):
        # The vector form the runtime uses, against the per-colour one,
        # including more shards than colours (empty blocks).
        for domain in range(1, 41):
            for shards in range(1, 10):
                got = color_owners(domain, shards)
                assert got.dtype.kind == "i" and got.shape == (domain,)
                assert got.tolist() == [owner_of_color(domain, shards, c)
                                        for c in range(domain)]
        assert color_owners(0, 3).size == 0

    def test_channel_keys_in_pair_order(self):
        # The distinct (producer, consumer) shards of the pairs, first
        # appearance first, a shard's own pairs none; pairs as a list of
        # tuples or as a (k, 2) array alike.
        from types import SimpleNamespace

        import numpy as np

        from repro.core.shards import channel_keys
        stmt = SimpleNamespace(src=SimpleNamespace(num_colors=6),
                               dst=SimpleNamespace(num_colors=6))
        pairs = [(0, 5), (1, 0), (2, 3), (4, 1), (5, 5), (1, 4), (3, 0)]
        want = []
        for i, j in pairs:
            key = (owner_of_color(6, 3, i), owner_of_color(6, 3, j))
            if key[0] != key[1] and key not in want:
                want.append(key)
        assert want == [(0, 2), (2, 0), (1, 0)]  # not sorted
        assert channel_keys(stmt, pairs, 3) == want
        assert channel_keys(stmt, np.array(pairs), 3) == want
        assert channel_keys(stmt, [], 3) == []


class TestCreateShards:
    def test_wraps_body(self):
        body = [ScalarAssign("x", Const(1))]
        dom = ispace(size=4)
        sl = create_shards(body, [dom], 2)
        assert isinstance(sl, ShardLaunch)
        assert sl.num_shards == 2
        assert sl.launch_domains == (dom,)
        assert isinstance(sl.body, Block)
        assert sl.body.stmts == body

    def test_deferred_shard_count(self):
        sl = create_shards([], [], None)
        assert sl.num_shards == 0  # resolved by the executor

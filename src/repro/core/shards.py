"""Control replication phase 5: creation of shards (paper §3.5).

The fragment's (already copy- and sync-transformed) body becomes the body
of a *shard task*, launched once for every shard.  Each launch domain used
in the fragment is block-partitioned over the shards: shard ``x`` owns the
colors ``SI[x]`` and, inside the replicated control flow, iterates its
inner loops over only those colors; pairwise copies are executed by the
shard owning the *source* color (producer-issued, §3.4).  The shard launch
is a must-epoch launch: all shards run concurrently and synchronize among
themselves.
"""

from __future__ import annotations

import numpy as np

from ..regions.index_space import IndexSpace
from .ir import Block, ShardLaunch, Stmt

__all__ = ["channel_keys", "color_owners", "create_shards",
           "shard_owned_colors", "owner_of_color"]


def shard_owned_colors(domain_size: int, num_shards: int, shard: int) -> range:
    """The block of colors owned by ``shard`` (Fig. 4d, ``SI = block(I, X)``)."""
    lo = domain_size * shard // num_shards
    hi = domain_size * (shard + 1) // num_shards
    return range(lo, hi)


def owner_of_color(domain_size: int, num_shards: int, color: int) -> int:
    """Inverse of :func:`shard_owned_colors`: which shard owns ``color``."""
    if not 0 <= color < domain_size:
        raise IndexError(f"color {color} out of domain of size {domain_size}")
    # The block partition is monotone; invert by direct formula + fixup.
    shard = (color * num_shards) // domain_size
    while color >= shard_owned_colors(domain_size, num_shards, shard).stop:
        shard += 1
    while color < shard_owned_colors(domain_size, num_shards, shard).start:
        shard -= 1
    return shard


def color_owners(domain_size: int, num_shards: int) -> np.ndarray:
    """:func:`owner_of_color` of every colour ``0 .. domain_size - 1`` as
    one array: shard ``x`` repeated once per colour of its block."""
    starts = domain_size * np.arange(num_shards + 1) // num_shards
    return np.repeat(np.arange(num_shards), np.diff(starts))


def channel_keys(stmt, pairs, ns: int) -> list[tuple[int, int]]:
    """The handshake channels of copy statement ``stmt`` under ``ns``
    shards: the distinct ``(producer shard, consumer shard)`` of its
    ``pairs`` (``(i, j)`` rows: a list of tuples or a ``(k, 2)`` array)
    whose two shards differ, in pair order.

    At most ``ns * (ns - 1)`` of them, whatever the pair count.  A shard's
    own pairs get none: its copies into itself already sit between its
    reads of the old data and of the new one in its own program order.
    A pure function of the statement, the pair set and ``ns``, so every
    rank numbers the channels alike without exchanging anything.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    p = color_owners(stmt.src.num_colors, ns)[pairs[:, 0]]
    q = color_owners(stmt.dst.num_colors, ns)[pairs[:, 1]]
    keys = (p * ns + q)[p != q]
    _, first = np.unique(keys, return_index=True)
    return [divmod(k, ns) for k in keys[np.sort(first)].tolist()]


def create_shards(body: list[Stmt], launch_domains: list[IndexSpace],
                  num_shards: int | None) -> ShardLaunch:
    """Hoist the transformed fragment body into a shard launch."""
    return ShardLaunch(Block(body), num_shards or 0, tuple(launch_domains))

"""The copy plan: one statement's pairs, lowered once against the shard
blocks, applied as one batch.

The paper (§3.2–§3.3) moves only ``dst[j] ∩ src[i]``, computed once per
shard and issued every epoch, and argues that copy *cost* is dominated by
how that intersection-restricted movement is issued, not by how much data
moves.  This module owns the issue side, once for every consumer of it:

* **Colour tables.**  Every colour a shard owns in a partition is a row
  range of one block per field (``SPMDExecutor.block_rows``), the
  block's colours in colour order.  A :class:`BlockLayout` says where a
  partition's colours sit: its
  :class:`~repro.regions.partition.ColourTable` (all colours' subsets
  stacked under composite keys, with their volume prefix), each colour's
  block and the stacked rank of that block's first row.
  :func:`place_rows` places the rows of a slice of a pair table with one
  ``below()`` on the colour table: a row's block row is its stacked rank
  less its block's base, so a pair is a few runs of block rows, no
  instance is looked up and no slot array exists until a plan needs one.

* **One lowering.**  :func:`lower_copy` takes a statement's non-empty
  pairs on a shard as their two placed sides, the rows' lengths, the
  pairs' row counts and per-pair fold-lock codes.  It groups the pairs
  by (destination block, fold lock) with one stable argsort, and splits
  a group wherever the source block changes, so pair order holds inside
  a group and between the groups that share a destination block.  Each
  group is one :class:`FusedCopy` — one gather and one scatter per field
  — and the groups make one :class:`FusedBatch`.  A shard's source
  colours sit in its one source block, so a statement costs at most
  ``dst blocks × 2`` items whatever its colour count.  The batch is
  planned before the shard's first statement
  (:func:`repro.runtime.launch_plan.plan_shard`) and kept for the launch:
  the interpreter applies it, the iteration recorder stores it as the
  statement's one ``fused`` op, and a compiled window replays that same
  object.  The ``net`` backend's send gathers and receive scatters select
  and place their pairs with the same :func:`place_pairs`; launch-entry
  and launch-exit copies (root instance to blocks and back) are one
  :class:`FusedCopy` per shard block.

* **Repeated slots.**  A pair's points are distinct, so a slot repeats in
  a group only across pairs; one sort of the group's runs finds whether
  any two overlap.  Without overlap a side is a slice when its runs
  continue one another, else their expanded index array, and a fold is a
  plain gather-op-scatter (``dst[sel] = op(dst[sel], vals)``), the same
  float operations elementwise.  With overlap the slots are expanded: an
  overwrite keeps each slot's last occurrence at plan time — exactly
  last-writer-wins in pair order — and a fold uses ``ufunc.at``, which
  applies its updates in index order, so folding the pair-ordered indices
  is bit-identical to folding pair by pair.

* **Producer disjointness.**  :func:`disjoint_dst_colors` decides, from
  the evaluated intersection pair sets alone (a pure function of the
  replicated program, hence identical on every shard and in every forked
  process), which destination colors can never receive overlapping
  reduction contributions from two different producer shards.  Folds into
  those colours touch disjoint elements and need no lock at all; the rest
  of a destination block's folds share one lock per (statement,
  destination shard), so a block yields at most one lock-free and one
  locked item.

* **Footprints.**  An item moves block rows, but fission reasons about
  the per-colour instance arrays that task footprints name, so every item
  carries the ids of its pairs' instance arrays (``footprint``), looked
  up once per distinct colour.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..core.shards import color_owners
from ..regions.intervals import IntervalSet, expand_ranges
from ..regions.partition import ColourTable
from ..regions.region import _REDUCTION_UFUNCS

__all__ = ["BlockLayout", "FusedBatch", "FusedCopy", "PlacedRows",
           "apply_root_copy", "disjoint_dst_colors", "field_width",
           "footprint_of", "lower_copy", "place_pairs", "place_rows",
           "receive_plan", "send_gathers"]


def _as_index(slots: np.ndarray):
    """A slot array as a slice when it is one increasing run of
    consecutive slots, else the array itself.  A fused side concatenates
    its pairs in pair order and need not be sorted, so the endpoints
    alone do not prove a run."""
    n = slots.size
    if (n and int(slots[-1]) - int(slots[0]) == n - 1
            and (n < 3 or bool((np.diff(slots) == 1).all()))):
        return slice(int(slots[0]), int(slots[-1]) + 1)
    return slots


class BlockLayout(NamedTuple):
    """Where a partition's colour instances sit: colour ``c``'s instance
    is rows ``prefix[c] - base[c]`` to ``prefix[c + 1] - base[c]`` of
    ``blocks[block[c]]`` (``prefix`` being ``table``'s volume prefix;
    ``block`` is non-decreasing: a block's colours are consecutive), and
    ``arrays[c]`` is its own ``{field: array}``."""

    table: ColourTable
    block: np.ndarray
    base: np.ndarray
    blocks: list
    arrays: list


class PlacedRows(NamedTuple):
    """One side of some pairs, placed: per row its first block row
    (``first``); per pair its block (``block_of``, an index into
    ``blocks`` numbered in order of first appearance) and its colour
    (``colours``, an index into ``arrays``, the instances' field
    dicts)."""

    first: np.ndarray
    block_of: np.ndarray
    blocks: list
    colours: np.ndarray
    arrays: list


def _first_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per key, the index of its value among the distinct values in order
    of first appearance, and those values in that order."""
    uniq, first, inverse = np.unique(keys, return_index=True,
                                     return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse.reshape(-1)], uniq[order]


def place_rows(layout: BlockLayout, colours: np.ndarray, nrows: np.ndarray,
               ivals: np.ndarray) -> PlacedRows:
    """Place the rows ``ivals`` of pairs whose colours in ``layout`` are
    ``colours``, ``nrows[p]`` consecutive rows a pair, in pair order:
    one rank query on the colour table, each row's block row its rank
    less its colour's block base."""
    per_row = np.repeat(colours, nrows)
    first = layout.table.ranks(per_row, ivals) - layout.base[per_row]
    block_of, distinct = _first_codes(layout.block[colours])
    return PlacedRows(first, block_of,
                      [layout.blocks[b] for b in distinct.tolist()],
                      colours, layout.arrays)


def place_pairs(table, idx: np.ndarray, src: BlockLayout | None = None,
                dst: BlockLayout | None = None):
    """The one select-and-place step of a copy's pairs ``idx`` (indices
    into its :class:`~repro.regions.interval_join.PairTable` ``table``,
    in pair order), for the in-memory batch, a send and a receive alike:
    ``(source rows, destination rows, row lengths, rows per pair)``, a
    side placed on its layout when one is given, else ``None``."""
    nrows, ivals = table.select(idx)
    return (None if src is None else place_rows(src, table.src[idx], nrows,
                                                ivals),
            None if dst is None else place_rows(dst, table.dst[idx], nrows,
                                                ivals),
            ivals[:, 1] - ivals[:, 0], nrows)


def footprint_of(side: PlacedRows, fields, members=slice(None)) -> set:
    """ids of the ``fields`` arrays of the instances of ``side``'s pairs
    ``members`` (all by default), one lookup per distinct colour."""
    arrays = side.arrays
    return {id(arrays[c][f])
            for c in np.unique(side.colours[members]).tolist()
            for f in fields}


def _expand_runs(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The slots of the non-empty runs ``(first, lengths)`` in order.

    :func:`~repro.regions.intervals.expand_ranges` for runs that may span
    a whole block (a launch-entry gather), in one output-sized array and
    no temporary: unit steps, each run's first slot a jump from the
    previous run's last, summed in place."""
    out = np.ones(int(lengths.sum()), dtype=np.int64)
    out[0] = first[0]
    out[np.cumsum(lengths[:-1])] = first[1:] - first[:-1] - lengths[:-1] + 1
    return np.cumsum(out, out=out)


def _run_index(first: np.ndarray, lengths: np.ndarray):
    """The slots of the runs ``(first, lengths)`` in order: a slice when
    they continue one another, else the index array."""
    if (first[1:] == first[:-1] + lengths[:-1]).all():
        return slice(int(first[0]), int(first[-1] + lengths[-1]))
    return _expand_runs(first, lengths)


def _overlapping(first: np.ndarray, lengths: np.ndarray) -> bool:
    """Whether two of the runs share a slot (one sort of the runs)."""
    if first.size < 2:
        return False
    order = np.argsort(first, kind="stable")
    start, stop = first[order], (first + lengths)[order]
    return bool((start[1:] < np.maximum.accumulate(stop)[:-1]).any())


def _last_writes(slots: np.ndarray) -> np.ndarray:
    """A mask that keeps each slot's last occurrence (one stable sort)."""
    order = np.argsort(slots, kind="stable")
    ranked = slots[order]
    keep = np.ones(slots.size, dtype=bool)
    keep[order[:-1][ranked[1:] == ranked[:-1]]] = False  # the earlier one
    return keep


def _runs(nrows, *codes: np.ndarray) -> list[tuple[int, int, int, int]]:
    """The maximal runs of pairs over which every code array stays
    constant, as ``(first pair, end pair, first row, end row)``; ``nrows``
    are the pairs' row counts."""
    n = codes[0].size
    change = np.zeros(max(n - 1, 0), dtype=bool)
    for c in codes:
        change |= c[1:] != c[:-1]
    cuts = [0, *(np.flatnonzero(change) + 1).tolist(), n]
    ends = [0, *np.cumsum(nrows).tolist()]
    return [(a, b, ends[a], ends[b]) for a, b in zip(cuts, cuts[1:])]


# From this many elements on, an overwrite gathering into a destination
# slice uses ``np.take(..., out=)``: no value temporary (a launch-entry
# gather spans a whole block), and faster than index-then-assign past
# about a thousand elements; below, its keyword handling costs more.
_TAKE_MIN = 1024


class FusedCopy:
    """Pair copies between one source block and one destination block.

    Every apply issues one gather and one scatter per field (a fold's
    scatter is ``ufunc.at`` or a gather-op-scatter).  Aggregate accounting
    (``pair_count`` pairs, ``count`` elements, ``nbytes`` bytes) matches
    what the pairs applied one by one would move exactly, repeats
    included; ``footprint`` holds the ids of the pairs' per-colour
    instance arrays.  A receive-side item has no source arrays: its source
    slots index the message payload (:meth:`receive`).
    """

    __slots__ = ("uid", "ufunc", "lock", "count", "nbytes", "pair_count",
                 "src_arrays", "src_sel", "dst_arrays", "dst_sel",
                 "has_dups", "take", "footprint")

    def __init__(self, uid, ufunc, lock, count, nbytes, pair_count):
        self.uid = uid
        self.ufunc = ufunc
        self.lock = lock
        self.count = count
        self.nbytes = nbytes
        self.pair_count = pair_count
        self.src_arrays = None   # tuple of per-field source block arrays
        self.src_sel = None      # source slots: slice or array
        self.dst_arrays = None   # tuple of per-field destination block arrays
        self.dst_sel = None      # destination slots: slice or array
        self.has_dups = False    # dst_sel repeats a slot: fold by ufunc.at
        self.take = False        # gather straight into the dst slice
        self.footprint = frozenset()

    @classmethod
    def build(cls, src_arrays, src_first, dst_arrays, dst_first, lengths,
              ufunc, lock, uid: int, pair_count: int, width: int,
              footprint=frozenset()) -> "FusedCopy":
        """The item moving the runs ``src_arrays[f][s:s + n]`` into
        ``dst_arrays[f][d:d + n]`` per field, for ``(s, d, n)`` in
        ``zip(src_first, dst_first, lengths)``, in order.

        Overlapping destination runs (only ever across pairs) are the one
        case that materializes: an overwrite keeps each slot's last
        occurrence, a fold goes through ``ufunc.at``."""
        src_first, dst_first, lengths = (np.asarray(x, dtype=np.int64)
                                         for x in (src_first, dst_first,
                                                   lengths))
        count = int(lengths.sum())
        fc = cls(uid=uid, ufunc=ufunc, lock=lock, count=count,
                 nbytes=count * width, pair_count=pair_count)
        fc.src_arrays = None if src_arrays is None else tuple(src_arrays)
        fc.dst_arrays = tuple(dst_arrays)
        fc.footprint = frozenset(footprint)
        if not _overlapping(dst_first, lengths):
            fc.src_sel = _run_index(src_first, lengths)
            fc.dst_sel = _run_index(dst_first, lengths)
            fc.take = (ufunc is None and count >= _TAKE_MIN
                       and isinstance(fc.dst_sel, slice)
                       and not isinstance(fc.src_sel, slice))
            return fc
        src_ix = _expand_runs(src_first, lengths)
        dst_ix = _expand_runs(dst_first, lengths)
        if ufunc is None:
            keep = _last_writes(dst_ix)
            src_ix, dst_ix = src_ix[keep], dst_ix[keep]
        fc.has_dups = ufunc is not None
        fc.src_sel, fc.dst_sel = _as_index(src_ix), _as_index(dst_ix)
        return fc

    def apply(self) -> None:
        if self.lock is None:
            self._apply()
        else:
            # Reduction folds from different producers may target the same
            # destination elements; ufunc.at is not atomic across threads.
            with self.lock:
                self._apply()

    def _apply(self) -> None:
        src_sel = self.src_sel
        for src, dst in zip(self.src_arrays, self.dst_arrays):
            if self.take:
                # The slots are in range, so "clip" is exact and, unlike
                # the default, writes ``out`` unbuffered.
                np.take(src, src_sel, axis=0, out=dst[self.dst_sel],
                        mode="clip")
            else:
                self._put(dst, src[src_sel])

    def receive(self, vals) -> None:
        """Scatter one message's per-field payload ``vals``."""
        src_sel = self.src_sel
        for v, dst in zip(vals, self.dst_arrays):
            self._put(dst, v[src_sel])

    def _put(self, dst, vals) -> None:
        ufunc, dst_sel = self.ufunc, self.dst_sel
        if ufunc is None:
            dst[dst_sel] = vals
        elif self.has_dups:
            ufunc.at(dst, dst_sel, vals)
        else:
            dst[dst_sel] = ufunc(dst[dst_sel], vals)


class FusedBatch:
    """One statement's entire per-shard in-memory copy set, as one op.

    ``items`` are the :class:`FusedCopy` plans of its block groups, in
    order; ``visits`` counts the statement's in-memory pairs of this
    shard, empty ones included.  Batching the *issue* — one op, one flight
    record, one counter pass for the whole statement — removes the
    per-pair dispatch overhead; lowering against blocks removes the
    per-colour numpy calls.
    """

    __slots__ = ("uid", "items", "visits", "pair_count", "count", "nbytes",
                 "lockfree_folds", "locked_folds", "_ops")

    def __init__(self, uid: int, items, visits: int):
        self.uid = uid
        self.items = tuple(items)
        self._ops = tuple(it.apply for it in self.items)
        self.visits = visits
        self.pair_count = sum(it.pair_count for it in self.items)
        self.count = sum(it.count for it in self.items)
        self.nbytes = sum(it.nbytes for it in self.items)
        folds = [it.lock is None for it in self.items if it.ufunc is not None]
        self.lockfree_folds = sum(folds)
        self.locked_folds = len(folds) - self.lockfree_folds

    def counter_deltas(self) -> tuple[tuple[str, int], ...]:
        """The shard counters one apply adds, by name: the interpreter
        bumps them per execution, a compiled window once per replay."""
        return (("pair_visits", self.visits),
                ("copies_performed", self.pair_count),
                ("elements_copied", self.count),
                ("bytes_copied", self.nbytes),
                ("fused_copies", len(self.items)),
                ("fused_pairs", self.pair_count),
                ("lockfree_folds", self.lockfree_folds),
                ("locked_folds", self.locked_folds))

    def apply(self) -> None:
        for op in self._ops:
            op()


def field_width(block, fields) -> int:
    """Bytes per element of ``fields`` (the copy counters' unit)."""
    return sum(block[f].dtype.itemsize for f in fields)


def lower_copy(uid: int, fields, redop, src: PlacedRows, dst: PlacedRows,
               lengths: np.ndarray, nrows: np.ndarray, lock_of: np.ndarray,
               locks, visits: int) -> FusedBatch:
    """The one lowering of a copy's in-memory pairs on a shard.

    ``src`` and ``dst`` place the non-empty pairs' rows in pair order
    (:func:`place_rows`); ``lengths`` are the rows' lengths, ``nrows``
    the pairs' row counts, and pair ``p`` folds under ``locks[lock_of[p]]``
    (``None``: no lock; no object twice in ``locks``); ``visits`` counts
    the shard's pairs of the statement, empty ones included.  The pairs are grouped by
    (destination block, lock) with one stable argsort, each group split
    where its source block changes, and every group lowered to one
    :class:`FusedCopy`; groups sharing a destination block stay in pair
    order, so repeats across them resolve as pair by pair.
    """
    if not nrows.size:
        return FusedBatch(uid, (), visits)
    ufunc = None if redop is None else _REDUCTION_UFUNCS[redop]
    # The locks renumbered in order of first appearance.
    lock_of, used = _first_codes(lock_of)
    lock_list = [locks[k] for k in used.tolist()]
    src_first, dst_first = src.first, dst.first
    order = np.argsort(dst.block_of * len(lock_list) + lock_of,
                       kind="stable")
    if (order[1:] < order[:-1]).any():
        rows = expand_ranges((np.cumsum(nrows) - nrows)[order], nrows[order])
        src_first, dst_first, lengths = (src_first[rows], dst_first[rows],
                                         lengths[rows])
    width = field_width(dst.blocks[0], fields)
    items = []
    for a, b, lo, hi in _runs(nrows[order], dst.block_of[order],
                              lock_of[order], src.block_of[order]):
        members = order[a:b]
        p = int(members[0])
        src_block = src.blocks[src.block_of[p]]
        dst_block = dst.blocks[dst.block_of[p]]
        items.append(FusedCopy.build(
            [src_block[f] for f in fields], src_first[lo:hi],
            [dst_block[f] for f in fields], dst_first[lo:hi],
            lengths[lo:hi], ufunc, lock_list[lock_of[p]], uid, b - a, width,
            footprint_of(src, fields, members)
            | footprint_of(dst, fields, members)))
    return FusedBatch(uid, items, visits)


def apply_root_copy(uid: int, fields, root, layout: BlockLayout,
                    into_blocks: bool) -> None:
    """Launch entry (``into_blocks``) or exit: copy ``fields`` between the
    root instance ``root`` and the blocks of a partition laid out as
    ``layout``, one :class:`FusedCopy` per block, each applied before the
    next is built (a block's plan holds an index as long as the block).

    A block's rows are its colours' stacked intervals in colour order,
    so its side is rows 0, 1, ... in order and the root side is one
    localize of those intervals; the blocks go in colour order and an
    overwrite keeps its last write to a repeated point, so an aliased
    partition's last colour wins, as colour by colour."""
    table = layout.table
    width = field_width(root.fields, fields)
    for x, block in enumerate(layout.blocks):
        lo, hi = np.searchsorted(layout.block, (x, x + 1))
        ivals, _ = table.rows(lo, hi)
        if not ivals.size:
            continue
        root_first, lengths = root.localize_runs(ivals)
        block_first = np.cumsum(lengths) - lengths
        ends = ((root.fields, root_first), (block, block_first))
        (src, src_first), (dst, dst_first) = (ends if into_blocks
                                              else ends[::-1])
        FusedCopy.build([src[f] for f in fields], src_first,
                        [dst[f] for f in fields], dst_first, lengths, None,
                        None, uid, int(hi - lo), width).apply()


def receive_plan(uid: int, fields, redop, dst: PlacedRows,
                 lengths: np.ndarray, nrows: np.ndarray) -> list[FusedCopy]:
    """The scatters of one message whose payload holds the rows ``dst``
    places (non-empty pairs, in pair order): one :class:`FusedCopy` per
    run of pairs in one destination block, its source runs the payload
    positions.  Applied in order with :meth:`FusedCopy.receive`."""
    if not nrows.size:
        return []
    ufunc = None if redop is None else _REDUCTION_UFUNCS[redop]
    payload = np.cumsum(lengths) - lengths
    width = field_width(dst.blocks[0], fields)
    plan = []
    for a, b, lo, hi in _runs(nrows, dst.block_of):
        block = dst.blocks[dst.block_of[a]]
        plan.append(FusedCopy.build(
            None, payload[lo:hi], [block[f] for f in fields],
            dst.first[lo:hi], lengths[lo:hi], ufunc, None, uid, b - a,
            width))
    return plan


def send_gathers(fields, src: PlacedRows, lengths: np.ndarray,
                 nrows: np.ndarray):
    """The gathers of one message carrying the rows ``src`` places, in
    pair order: ``((block field arrays, slots), ...)``, one per run of
    pairs in one source block."""
    if not nrows.size:
        return ()
    return tuple((tuple(src.blocks[src.block_of[a]][f] for f in fields),
                  _run_index(src.first[lo:hi], lengths[lo:hi]))
                 for a, _, lo, hi in _runs(nrows, src.block_of))


def disjoint_dst_colors(table, src_num_colors: int,
                        num_shards: int) -> frozenset:
    """Destination colors whose inbound contributions never overlap
    across producer *shards*.

    ``table`` is the statement's
    :class:`~repro.regions.interval_join.PairTable`: its non-empty pairs
    and their intervals.  Folds into a returned color's instance touch
    disjoint element sets from any two concurrent producers, so
    ``ufunc.at`` needs no lock there.  The decision is a pure function of
    the evaluated pair sets, hence identical on every shard and in every
    forked process.
    """
    if not len(table):
        return frozenset()
    pair = np.repeat(np.arange(len(table)), table.nrows)
    dst = table.dst[pair]
    owner = color_owners(src_num_colors, num_shards)[table.src[pair]]
    ndst = int(dst.max()) + 1
    ivals = table.intervals - table.intervals[:, 0].min()  # every lo >= 0
    span = int(ivals[:, 1].max()) + 1

    def union_counts(group: np.ndarray, ngroups: int) -> np.ndarray:
        # Points in the union of each group's intervals, all groups in one
        # normalization: group g lives in its own stretch [g*span, (g+1)*span).
        # With 0 <= lo < hi <= span - 1 a shifted interval stays inside its
        # stretch (so `// span` recovers the group) and ends at least one
        # point short of the next one, so the normalization, which joins
        # abutting intervals, never merges across groups.
        u = IntervalSet(ivals + (group * span)[:, None]).intervals
        return np.bincount(u[:, 0] // span, weights=u[:, 1] - u[:, 0],
                           minlength=ngroups)

    # A destination's producer shards contribute pairwise disjoint sets iff
    # their union is as large as all of them together.
    per_owner = union_counts(dst * num_shards + owner, ndst * num_shards)
    together = per_owner.reshape(ndst, num_shards).sum(axis=1)
    ok = (union_counts(dst, ndst) == together) & (together > 0)
    return frozenset(np.flatnonzero(ok).tolist())

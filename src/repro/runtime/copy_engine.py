"""The copy plan: one statement's pairs, lowered once against the shard
blocks, applied as one batch.

The paper (§3.2–§3.3) moves only ``dst[j] ∩ src[i]``, computed once per
shard and issued every epoch, and argues that copy *cost* is dominated by
how that intersection-restricted movement is issued, not by how much data
moves.  This module owns the issue side, once for every consumer of it:

* **Block runs.**  Every colour a shard owns in a partition is a row
  range of one block per field (``SPMDExecutor.block_rows``).  A *place*
  function maps an instance to ``(its block's field arrays, its first
  row)``; :func:`block_runs` localizes all pairs of one side in one
  stacked call (:func:`~repro.regions.region.localize_stacked`) and adds
  each pair's row offset per interval, so a pair is a few runs of block
  rows and no slot array exists until a plan needs one.  An instance
  outside any block is its own block from row 0 (:func:`own_rows`).

* **One lowering.**  :func:`lower_copy` groups a statement's
  ``(src_inst, dst_inst, pts, lock)`` pairs by (destination block, fold
  lock) with one stable argsort, and splits a group wherever the source
  block changes, so pair order holds inside a group and between the
  groups that share a destination block.  Each group is one
  :class:`FusedCopy` — one gather and one scatter per field — and the
  groups make one :class:`FusedBatch`.  A shard's source colours sit in
  its one source block, so a statement costs at most ``dst blocks × 2``
  items whatever its colour count.  The executor builds the batch the
  first time the shard runs the statement in a launch and keeps it for
  the launch: the interpreter applies it, the iteration recorder stores it
  as the statement's one ``fused`` op, and a compiled window replays that
  same object.  Launch-entry and launch-exit copies (root instance to
  blocks and back) and the ``net`` backend's send gathers and receive
  scatters use the same :func:`block_runs` and :class:`FusedCopy`.

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
  carries the ids of its pairs' instance arrays (``footprint``).
"""

from __future__ import annotations

import numpy as np

from ..core.shards import owner_of_color
from ..regions.intervals import IntervalSet, expand_ranges, stack_intervals
from ..regions.region import _REDUCTION_UFUNCS, localize_stacked

__all__ = ["FusedBatch", "FusedCopy", "block_runs", "disjoint_dst_colors",
           "field_width", "footprint_of", "lower_copy", "own_rows",
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


def own_rows(inst):
    """The placement of an instance that is its own block: its field
    arrays, from row 0."""
    return inst.fields, 0


def _codes(objs) -> tuple[np.ndarray, list]:
    """Per object, the index of its first occurrence among the distinct
    objects (by identity), and those objects in first-appearance order."""
    table: dict[int, int] = {}
    distinct = []
    codes = []
    for x in objs:
        n = table.get(id(x))
        if n is None:
            n = table[id(x)] = len(distinct)
            distinct.append(x)
        codes.append(n)
    return np.array(codes, dtype=np.int64), distinct


def block_runs(insts, sets, place=own_rows):
    """Where the non-empty point sets ``sets[p]`` of ``insts[p]`` sit in
    their blocks, one row per interval of every set, in pair order:
    ``(first, lengths, block_of, blocks)`` — each interval's first block
    row and length, each pair's block (an index into ``blocks``, the
    distinct ``{field: array}`` dicts from ``place``).

    Every pair is localized in one stacked call, interval by interval, and
    its row offset in its block added per interval; no slot array is
    materialized.  An interval's points are consecutive slots of its
    instance, so both sides of a copy share the rows' lengths."""
    which, distinct = _codes(insts)
    ivals, pair = stack_intervals(sets)
    first, lengths = localize_stacked(distinct, which[pair], ivals)
    rows = [place(x) for x in distinct]
    offsets = np.array([lo for _, lo in rows], dtype=np.int64)
    block_of, blocks = _codes([rows[w][0] for w in which.tolist()])
    return first + offsets[which[pair]], lengths, block_of, blocks


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


def footprint_of(insts, fields) -> frozenset:
    """ids of the ``fields`` arrays of the distinct ``insts``."""
    return frozenset(id(x.fields[f]) for x in {id(x): x for x in insts}.values()
                     for f in fields)


def lower_copy(uid: int, fields, redop, pairs, visits: int,
               place=own_rows) -> FusedBatch:
    """The one lowering of a copy's in-memory pairs on a shard.

    ``pairs`` is a sequence of ``(src_inst, dst_inst, pts, lock)`` with
    non-empty ``pts``, in pair order; ``visits`` counts the shard's pairs
    of the statement, empty ones included; ``place`` maps an instance to
    its block (:func:`block_runs`).  The pairs are grouped by
    (destination block, lock) with one stable argsort, each group split
    where its source block changes, and every group lowered to one
    :class:`FusedCopy`; groups sharing a destination block stay in pair
    order, so repeats across them resolve as pair by pair.
    """
    if not pairs:
        return FusedBatch(uid, (), visits)
    ufunc = None if redop is None else _REDUCTION_UFUNCS[redop]
    srcs, dsts, sets, locks = zip(*pairs)
    src_first, lengths, src_of, src_blocks = block_runs(srcs, sets, place)
    dst_first, _, dst_of, dst_blocks = block_runs(dsts, sets, place)
    lock_of, lock_list = _codes(locks)
    order = np.argsort(dst_of * len(lock_list) + lock_of, kind="stable")
    nrows = np.array([pts.num_intervals for pts in sets], dtype=np.int64)
    if (order[1:] < order[:-1]).any():
        rows = expand_ranges((np.cumsum(nrows) - nrows)[order], nrows[order])
        src_first, dst_first, lengths = (src_first[rows], dst_first[rows],
                                         lengths[rows])
    width = field_width(dst_blocks[0], fields)
    items = []
    for a, b, lo, hi in _runs(nrows[order], dst_of[order], lock_of[order],
                              src_of[order]):
        members = order[a:b].tolist()
        p = members[0]
        src_block, dst_block = src_blocks[src_of[p]], dst_blocks[dst_of[p]]
        items.append(FusedCopy.build(
            [src_block[f] for f in fields], src_first[lo:hi],
            [dst_block[f] for f in fields], dst_first[lo:hi],
            lengths[lo:hi], ufunc, locks[p], uid, len(members), width,
            footprint_of([x for m in members for x in (srcs[m], dsts[m])],
                         fields)))
    return FusedBatch(uid, items, visits)


def receive_plan(uid: int, fields, redop, insts, sets,
                 place=own_rows) -> list[FusedCopy]:
    """The scatters of one message whose payload holds ``sets`` (one
    non-empty point set per pair, in pair order) into ``insts``: one
    :class:`FusedCopy` per run of pairs in one destination block, its
    source runs the payload positions.  Applied in order with
    :meth:`FusedCopy.receive`."""
    if not sets:
        return []
    ufunc = None if redop is None else _REDUCTION_UFUNCS[redop]
    first, lengths, block_of, blocks = block_runs(insts, sets, place)
    payload = np.cumsum(lengths) - lengths
    width = field_width(blocks[0], fields)
    plan = []
    for a, b, lo, hi in _runs([pts.num_intervals for pts in sets],
                              block_of):
        block = blocks[block_of[a]]
        plan.append(FusedCopy.build(
            None, payload[lo:hi], [block[f] for f in fields], first[lo:hi],
            lengths[lo:hi], ufunc, None, uid, b - a, width))
    return plan


def send_gathers(fields, insts, sets, place=own_rows):
    """The gathers of one message carrying ``sets`` from ``insts`` in pair
    order: ``((block field arrays, slots), ...)``, one per run of pairs in
    one source block."""
    if not sets:
        return ()
    first, lengths, block_of, blocks = block_runs(insts, sets, place)
    return tuple((tuple(blocks[block_of[a]][f] for f in fields),
                  _run_index(first[lo:hi], lengths[lo:hi]))
                 for a, _, lo, hi in _runs([pts.num_intervals
                                            for pts in sets], block_of))


def disjoint_dst_colors(pairs, pts_of, src_num_colors: int,
                        num_shards: int) -> frozenset:
    """Destination colors whose inbound contributions never overlap
    across producer *shards*.

    ``pts_of(i, j)`` must return the intersection element set of pair
    ``(i, j)`` (an :class:`~repro.regions.intervals.IntervalSet`).  Folds
    into a returned color's instance touch disjoint element sets from any
    two concurrent producers, so ``ufunc.at`` needs no lock there.  The
    decision is a pure function of the evaluated pair sets, hence
    identical on every shard and in every forked process.
    """
    live = [(i, j, pts) for (i, j) in pairs if (pts := pts_of(i, j))]
    if not live:
        return frozenset()
    ivals, pair = stack_intervals([pts for _, _, pts in live])
    dst = np.array([j for _, j, _ in live])[pair]
    owner = np.array([owner_of_color(src_num_colors, num_shards, i)
                      for i, _, _ in live])[pair]
    ndst = int(dst.max()) + 1
    ivals = ivals - ivals[:, 0].min()  # every lo >= 0
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

"""The copy plan: one statement's pairs, lowered once, applied as one batch.

The paper (§3.2–§3.3) moves only ``dst[j] ∩ src[i]``, computed once per
shard and issued every epoch, and argues that copy *cost* is dominated by
how that intersection-restricted movement is issued, not by how much data
moves.  This module owns the issue side, once for every consumer of it:

* **One lowering.**  :func:`lower_copy` localizes all of a shard's
  ``(src_inst, dst_inst, pts, lock)`` pairs of one ``PairwiseCopy``
  statement in one stacked call (:func:`localize`), groups them by
  destination instance in pair order, and lowers each group
  (:func:`fuse_group`) to :class:`FusedCopy` items of one
  :class:`FusedBatch`.  The executor builds the batch the first time the
  shard runs the statement in a launch and keeps it for the launch: the
  interpreter applies it, the iteration recorder stores it as the
  statement's one ``fused`` op, and a compiled window replays that same
  object.  The ``net`` backend's send gathers and receive scatters come
  from the same :func:`localize`.

* **Pair fusion.**  A :class:`FusedCopy`'s plan is the one every pair
  already has, over the whole group: each side's slots concatenated in
  pair order and lowered by :func:`_as_index` — a slice when they form one
  increasing run, else the index array.  A group with a single source
  instance copies directly; one with several gathers each pair into a
  preallocated staging buffer first.  Either way one scatter per field per
  destination replaces ``pairs × fields`` numpy calls.

* **Reduction semantics.**  ``ufunc.at`` applies its updates in index
  order, so folding the concatenated (pair-ordered) index array is
  bit-identical to folding each pair in turn.  It is used only when the
  concatenated destination repeats a slot; otherwise the fold is a plain
  gather-op-scatter (``dst[sel] = op(dst[sel], vals)``), which is both
  faster and — elementwise on disjoint slots — exactly the same float
  operations.  Plain (overwrite) groups whose destination slots repeat
  across pairs are *not* fused: last-writer-wins order across pairs is
  only guaranteed by applying them in sequence, one item a pair.

* **Producer disjointness.**  :func:`disjoint_dst_colors` decides, from
  the evaluated intersection pair sets alone (a pure function of the
  replicated program, hence identical on every shard and in every forked
  process), which destination colors can never receive overlapping
  reduction contributions from two different producer shards.  Folds into
  those instances touch disjoint elements and need no lock at all — the
  contention-free fast path that replaces the old global reduction lock.
"""

from __future__ import annotations

import numpy as np

from ..core.shards import owner_of_color
from ..regions.intervals import IntervalSet, expand_ranges, stack_intervals
from ..regions.region import _REDUCTION_UFUNCS, localize_stacked

__all__ = ["FusedBatch", "FusedCopy", "disjoint_dst_colors", "fuse_group",
           "localize", "lower_copy"]


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


def _as_fancy(ix) -> np.ndarray:
    """A slot array for ``ix`` (which may be a slice from ``_as_index``)."""
    if isinstance(ix, slice):
        return np.arange(ix.start, ix.stop, dtype=np.int64)
    return np.asarray(ix, dtype=np.int64)


def localize(insts, sets) -> list[np.ndarray]:
    """Per pair ``p``, the local slots of the non-empty point set
    ``sets[p]`` in ``insts[p]``, in point order.

    Every pair is localized in one stacked call
    (:func:`~repro.regions.region.localize_stacked`), interval by
    interval; no point array is materialized.  The arrays are views of one
    slot array."""
    if not sets:
        return []
    ivals, pair = stack_intervals(sets)
    distinct = {id(x): x for x in insts}
    position = {key: n for n, key in enumerate(distinct)}
    which = np.array([position[id(x)] for x in insts])
    slots = expand_ranges(*localize_stacked(
        list(distinct.values()), which[pair], ivals))
    ends = np.cumsum([pts.count for pts in sets]).tolist()
    return [slots[s:e] for s, e in zip([0] + ends[:-1], ends)]


def _joined(ixs) -> np.ndarray:
    """One side of a fused group: its pairs' slots in pair order."""
    return np.concatenate([_as_fancy(ix) for ix in ixs])


class FusedCopy:
    """Some of one statement's pair copies into one destination instance.

    Every apply issues one scatter per field, fed by one gather (single
    source instance) or by one gather per pair into a staging buffer
    (several).  Aggregate accounting (``pair_count`` pairs, ``count``
    elements, ``nbytes`` bytes) matches what the pairs applied one by one
    would move exactly.
    """

    __slots__ = ("uid", "ufunc", "lock", "count", "nbytes", "pair_count",
                 "dst_arrays", "dst_sel", "has_dups", "src_arrays",
                 "src_sel", "gathers", "bufs")

    def __init__(self, uid, ufunc, lock, count, nbytes, pair_count):
        self.uid = uid
        self.ufunc = ufunc
        self.lock = lock
        self.count = count
        self.nbytes = nbytes
        self.pair_count = pair_count
        self.dst_arrays = None   # tuple of per-field destination arrays
        self.dst_sel = None      # concatenated dst slots: slice or array
        self.has_dups = False    # dst_sel repeats a slot: fold by ufunc.at
        # Direct (single-source) plan:
        self.src_arrays = None   # tuple of per-field source arrays
        self.src_sel = None      # concatenated src slots: slice or array
        # Staged (multi-source) plan:
        self.gathers = None      # ((offset, n, src_ix, per-field arrays),...)
        self.bufs = None         # per-field staging buffers, len == count

    @classmethod
    def build(cls, dsts, members, ufunc, lock, uid: int,
              width: int) -> "FusedCopy | None":
        """Fuse ``members`` — ``(src field arrays, src slots, dst slots,
        count)`` per pair, in pair order, each side a slot array or slice
        — into the destination field arrays ``dsts``.  Returns ``None``
        when fusion cannot preserve semantics (overwrite copies with
        destination slots repeating across pairs)."""
        dst_ix = _joined(m[2] for m in members)
        count = int(dst_ix.size)
        has_dups = bool(np.unique(dst_ix).size < count)
        if has_dups and ufunc is None and len(members) > 1:
            return None  # last-writer-wins needs per-pair ordering
        fc = cls(uid=uid, ufunc=ufunc, lock=lock, count=count,
                 nbytes=count * width, pair_count=len(members))
        fc.dst_arrays = tuple(dsts)
        fc.dst_sel = _as_index(dst_ix)
        fc.has_dups = has_dups
        first = members[0][0]
        if all(m[0][0] is first[0] for m in members):
            fc.src_arrays = tuple(first)
            fc.src_sel = _as_index(_joined(m[1] for m in members))
            return fc
        offsets = np.cumsum([0] + [m[3] for m in members]).tolist()
        fc.gathers = tuple((offset, n, _as_index(_as_fancy(src_ix)),
                            tuple(srcs))
                           for offset, (srcs, src_ix, _, n)
                           in zip(offsets, members))
        fc.bufs = tuple(np.empty((count, *d.shape[1:]), dtype=d.dtype)
                        for d in fc.dst_arrays)
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
        ufunc, dst_sel = self.ufunc, self.dst_sel
        for f, dst in enumerate(self.dst_arrays):
            if self.gathers is None:
                vals = self.src_arrays[f][self.src_sel]
            else:
                vals = self.bufs[f]
                for offset, n, src_ix, srcs in self.gathers:
                    vals[offset:offset + n] = srcs[f][src_ix]
            if ufunc is None:
                dst[dst_sel] = vals
            elif self.has_dups:
                ufunc.at(dst, dst_sel, vals)
            else:
                dst[dst_sel] = ufunc(dst[dst_sel], vals)


class FusedBatch:
    """One statement's entire per-shard in-memory copy set, as one op.

    ``items`` are the :class:`FusedCopy` plans of its destination groups,
    in order; ``visits`` counts the statement's in-memory pairs of this
    shard, empty ones included.  Batching the *issue* — one op, one flight
    record, one counter pass for the whole statement — is where the win
    lives when destination groups are small (one halo pair per neighbor):
    the per-pair dispatch overhead disappears even when no numpy calls
    could be merged.
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


def fuse_group(dsts, members, ufunc, lock, uid: int,
               width: int) -> list[FusedCopy]:
    """Lower one destination group (:meth:`FusedCopy.build` arguments) to
    its cheapest form, the items to apply in order.

    Multi-pair groups concatenate into a single :class:`FusedCopy` when
    that reduces numpy work: always for a shared source instance, and for
    reductions from any sources (one staged ``ufunc.at`` beats one per
    pair).  Plain copies from *different* source instances gain nothing
    from staging — it moves the data twice — so each pair becomes its own
    single-pair item, applied in pair order (which also preserves
    last-writer-wins when destination slots repeat across pairs)."""
    if len(members) > 1:
        first = members[0][0][0]
        if ufunc is not None or all(m[0][0] is first for m in members):
            fc = FusedCopy.build(dsts, members, ufunc, lock, uid, width)
            if fc is not None:
                return [fc]
    return [FusedCopy.build(dsts, [m], ufunc, lock, uid, width)
            for m in members]


def lower_copy(stmt, pairs, width: int, visits: int) -> FusedBatch:
    """The one lowering of a copy statement's in-memory pairs on a shard.

    ``pairs`` is a sequence of ``(src_inst, dst_inst, pts, lock)`` with
    non-empty ``pts``, in pair order; ``visits`` counts the shard's pairs
    of the statement, empty ones included; ``width`` is the bytes per
    element of the copied fields.  Both sides of every pair are localized
    in one stacked call each, the pairs grouped by destination instance in
    order of first appearance (pair order inside a group), and each group
    lowered by :func:`fuse_group`.
    """
    ufunc = None if stmt.redop is None else _REDUCTION_UFUNCS[stmt.redop]
    groups: dict[int, tuple] = {}
    if pairs:
        srcs, dsts, sets, locks = zip(*pairs)
        src_ixs = localize(srcs, sets)
        dst_ixs = localize(dsts, sets)
        for src, dst, pts, lock, src_ix, dst_ix in zip(
                srcs, dsts, sets, locks, src_ixs, dst_ixs):
            group = groups.get(id(dst))
            if group is None:
                group = groups[id(dst)] = (
                    tuple(dst.fields[f] for f in stmt.fields), lock, [])
            group[2].append((tuple(src.fields[f] for f in stmt.fields),
                             src_ix, dst_ix, int(pts.count)))
    return FusedBatch(stmt.uid, [
        item for dst_arrays, lock, members in groups.values()
        for item in fuse_group(dst_arrays, members, ufunc, lock, stmt.uid,
                               width)], visits)


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

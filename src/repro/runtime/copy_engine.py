"""Fused copy engine: one gather/scatter per field per destination.

The interpreter issues one numpy fancy-indexed assignment per field per
non-empty ``(i, j)`` intersection pair.  That is exactly the regime the
paper argues against in §3.2–§3.3: copy *cost* is dominated by how the
intersection-restricted data movement is issued, not by how much data
moves.  This module is the issue side of that argument:

* **Pair fusion.**  At trace-freeze time the :class:`PairCopy` objects of
  one ``PairwiseCopy`` statement are grouped by destination instance
  (:func:`fuse_group`) and fused into one :class:`FusedCopy`.  Its plan is
  the one every pair already has, over the whole group: each side's
  slots concatenated in pair order and lowered by :func:`_as_index` — a
  slice when they form one increasing run, else the index array.  A group
  with a single source instance copies directly; one with several gathers
  each pair into a preallocated staging buffer first.  Either way a
  replay issues one scatter per field per destination instead of
  ``pairs × fields`` numpy calls.

* **Reduction semantics.**  ``ufunc.at`` applies its updates in index
  order, so folding the concatenated (pair-ordered) index array is
  bit-identical to folding each pair in turn.  It is used only when the
  concatenated destination repeats a slot; otherwise the fold is a plain
  gather-op-scatter (``dst[sel] = op(dst[sel], vals)``), which is both
  faster and — elementwise on disjoint slots — exactly the same float
  operations.  Plain (overwrite) groups whose destination slots repeat
  across pairs are *not* fused: last-writer-wins order across pairs is
  only guaranteed by applying them in sequence.

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
from ..regions.intervals import IntervalSet, stack_intervals

__all__ = ["FusedBatch", "FusedCopy", "fuse_group", "disjoint_dst_colors"]


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


def _joined(ixs) -> np.ndarray:
    """One side of a fused group: its pairs' slots in pair order."""
    return np.concatenate([_as_fancy(ix) for ix in ixs])


class FusedCopy:
    """All of one statement's pair copies into one destination instance.

    Built once at trace-freeze time from the :class:`~repro.runtime.window.
    PairCopy` objects of the capture iteration; every replay issues one
    scatter per field, fed by one gather (single source instance) or by
    one gather per pair into a staging buffer (several).  Aggregate
    accounting (``pair_count`` pairs, ``count`` elements, ``nbytes``
    bytes) matches what the per-pair interpretation would have recorded
    exactly.
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
    def build(cls, pcs) -> "FusedCopy | None":
        """Fuse the pair copies ``pcs`` (same statement, same destination
        instance, capture pair order).  Returns ``None`` when fusion
        cannot preserve semantics (overwrite copies with destination
        slots repeating across pairs)."""
        first = pcs[0]
        dst_ix = _joined(pc.dst_ix for pc in pcs)
        count = int(dst_ix.size)
        has_dups = bool(np.unique(dst_ix).size < count)
        if has_dups and first.ufunc is None:
            return None  # last-writer-wins needs per-pair ordering
        fc = cls(uid=first.uid, ufunc=first.ufunc, lock=first.lock,
                 count=count, nbytes=sum(pc.nbytes for pc in pcs),
                 pair_count=len(pcs))
        fc.dst_arrays = tuple(d for d, _ in first.arrays)
        fc.dst_sel = _as_index(dst_ix)
        fc.has_dups = has_dups
        if all(pc.arrays[0][1] is first.arrays[0][1] for pc in pcs):
            fc.src_arrays = tuple(s for _, s in first.arrays)
            fc.src_sel = _as_index(_joined(pc.src_ix for pc in pcs))
            return fc
        offsets = np.cumsum([0] + [pc.count for pc in pcs]).tolist()
        fc.gathers = tuple((offset, pc.count, pc.src_ix,
                            tuple(s for _, s in pc.arrays))
                           for offset, pc in zip(offsets, pcs))
        fc.bufs = tuple(np.empty((count, *d.shape[1:]), dtype=d.dtype)
                        for d in fc.dst_arrays)
        return fc

    def apply(self) -> None:
        if self.lock is None:
            self._apply()
        else:
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
    """One statement's entire per-shard copy set, issued as a single op.

    Destination groups that fused become :class:`FusedCopy` items;
    unfusable groups keep their original :class:`~repro.runtime.window.
    PairCopy` objects in capture order.  Batching the *issue* — one
    replay op, one trace span, one counter pass for the whole statement —
    is where the win lives when destination groups are small (one halo
    pair per neighbor): the per-pair dispatch overhead the interpreter
    pays disappears even when no numpy calls could be merged.  Aggregate
    accounting over the batch matches per-pair interpretation exactly.
    """

    __slots__ = ("uid", "items", "_ops", "pair_count", "count", "nbytes",
                 "n_fused", "fused_pairs", "lockfree_folds", "locked_folds")

    def __init__(self, items):
        self.items = tuple(items)
        self._ops = tuple(it.apply for it in self.items)
        self.uid = items[0].uid
        self.pair_count = self.count = self.nbytes = 0
        self.n_fused = self.fused_pairs = 0
        self.lockfree_folds = self.locked_folds = 0
        for it in self.items:
            if isinstance(it, FusedCopy):
                self.pair_count += it.pair_count
                self.n_fused += 1
                self.fused_pairs += it.pair_count
            else:
                self.pair_count += 1
            self.count += it.count
            self.nbytes += it.nbytes
            if it.ufunc is not None:
                if it.lock is None:
                    self.lockfree_folds += 1
                else:
                    self.locked_folds += 1

    def apply(self) -> None:
        for op in self._ops:
            op()


def fuse_group(pcs) -> "list":
    """Lower one destination group to its cheapest fused form.

    Multi-pair groups concatenate into a single :class:`FusedCopy` when
    that reduces numpy work: always for a shared source instance, and for
    reductions from any sources (one staged ``ufunc.at`` beats one per
    pair).  Plain copies from *different* source instances gain nothing
    from staging — it moves the data twice — so each pair keeps its own
    direct plan, applied in capture order (which also preserves
    last-writer-wins when destination slots repeat across pairs).
    Returns the list of objects to apply, in order."""
    first = pcs[0]
    if len(pcs) > 1:
        single_src = all(pc.arrays[0][1] is first.arrays[0][1] for pc in pcs)
        if single_src or first.ufunc is not None:
            fc = FusedCopy.build(pcs)
            if fc is not None:
                return [fc]
    out = []
    for pc in pcs:
        fc = FusedCopy.build([pc])
        out.append(pc if fc is None else fc)
    return out


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

"""Fused copy engine: batched gather/scatter over coalesced slice runs.

The interpreter issues one numpy fancy-indexed assignment per field per
non-empty ``(i, j)`` intersection pair.  That is exactly the regime the paper argues against in §3.2–§3.3:
copy *cost* is dominated by how the intersection-restricted data movement
is issued, not by how much data moves.  This module is the issue side of
that argument:

* **Run coalescing.**  A lowered pair's slot arrays are usually long runs
  of consecutive slots (halo rows, block boundaries) broken at tile
  seams; ``_as_index`` in :mod:`repro.runtime.window.ir` only catches the
  fully-contiguous case.  :func:`coalesce` lowers *any* slot array whose
  average run length clears :data:`MIN_AVG_RUN` to a list of slices, so
  the steady-state copy is a handful of contiguous memcpys instead of a
  gather through an index array.  :func:`uniform_runs` goes further for
  the lattice case — equal-length runs at a constant stride, i.e. the
  rectangle a column halo cuts out of a row-major grid — which becomes a
  single strided-view assignment (the dimension-aware copy a real
  low-level runtime would issue) with no index array at all.

* **Pair fusion.**  At trace-freeze time the :class:`PairCopy` objects of
  one ``PairwiseCopy`` statement are grouped by destination instance
  (:func:`fuse_group`) and fused into one :class:`FusedCopy` whose
  concatenated source/destination index plans are computed once: one
  gather/scatter per field per destination instead of ``pairs × fields``
  numpy calls.  Sources from different instances stage through a
  preallocated buffer; a group with a single source instance copies
  directly over joint source/destination runs.

* **Reduction semantics.**  ``ufunc.at`` applies its updates in index
  order, so folding the concatenated (pair-ordered) index array is
  bit-identical to folding each pair in turn.  When the concatenated
  destination slots contain no duplicates the fold degrades to a plain
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

__all__ = ["FusedBatch", "FusedCopy", "fuse_group", "coalesce",
           "joint_runs", "uniform_runs", "disjoint_dst_colors",
           "MIN_AVG_RUN"]

# Lower an index array to a slice list only when the mean run length is at
# least this: below it, the per-slice call overhead beats the gather.
MIN_AVG_RUN = 4


def _as_fancy(ix) -> np.ndarray:
    """A slot array for ``ix`` (which may be a slice from ``_as_index``)."""
    if isinstance(ix, slice):
        return np.arange(ix.start, ix.stop, dtype=np.int64)
    return np.asarray(ix, dtype=np.int64)


def coalesce(ix: np.ndarray):
    """Lower a slot array to its contiguous-run form.

    Returns a ``slice`` (fully contiguous), a list of ``(start, stop,
    offset)`` runs — ``dst[start:stop]`` pairs with ``buf[offset:offset +
    (stop - start)]`` of a contiguous staging side — or ``None`` when the
    runs are too short for slicing to pay (keep the fancy index array).
    """
    n = int(ix.size)
    if n == 0:
        return slice(0, 0)
    breaks = np.nonzero(np.diff(ix) != 1)[0]
    nruns = breaks.size + 1
    if nruns == 1:
        return slice(int(ix[0]), int(ix[0]) + n)
    if n < nruns * MIN_AVG_RUN:
        return None
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks + 1, [n]))
    return [(int(ix[a]), int(ix[a]) + int(b - a), int(a))
            for a, b in zip(starts, stops)]


def uniform_runs(ix: np.ndarray):
    """Decompose a slot array into equal-length, equal-stride runs.

    Returns ``(start, nruns, run_len, stride)`` when the array is a
    regular lattice of contiguous runs — a rectangle of a row-major grid,
    e.g. a column halo — or ``None``.  A fully contiguous array is the
    one-run case.  ``stride >= run_len`` is required so the runs never
    overlap (a strided *write* view over them is then safe).
    """
    n = int(ix.size)
    if n == 0:
        return None
    breaks = np.nonzero(np.diff(ix) != 1)[0]
    if breaks.size == 0:
        return (int(ix[0]), 1, n, n)
    run_len = int(breaks[0]) + 1
    if n % run_len:
        return None
    ixr = ix.reshape(-1, run_len)
    if np.any(np.diff(ixr, axis=1) != 1):
        return None
    starts = ixr[:, 0]
    deltas = np.diff(starts)
    stride = int(deltas[0])
    if stride < run_len or np.any(deltas != stride):
        return None
    return (int(ix[0]), ixr.shape[0], run_len, stride)


def _strided_view(arr: np.ndarray, uniform) -> np.ndarray:
    """A writable ``(nruns, run_len, *element)`` view of ``arr`` over the
    lattice described by :func:`uniform_runs` output.  Only in-bounds
    elements are addressed: the last run ends inside the array even when
    ``start + nruns * stride`` does not."""
    start, nruns, run_len, stride = uniform
    return np.lib.stride_tricks.as_strided(
        arr[start:], shape=(nruns, run_len) + arr.shape[1:],
        strides=(stride * arr.strides[0],) + arr.strides)


def joint_runs(src_ix: np.ndarray, dst_ix: np.ndarray):
    """Runs over which *both* index arrays are contiguous, as ``(s0, d0,
    n)`` triples, or ``None`` when too fragmented to beat a gather."""
    n = int(src_ix.size)
    if n == 0:
        return []
    breaks = np.nonzero((np.diff(src_ix) != 1) | (np.diff(dst_ix) != 1))[0]
    nruns = breaks.size + 1
    if nruns > 1 and n < nruns * MIN_AVG_RUN:
        return None
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks + 1, [n]))
    return [(int(src_ix[a]), int(dst_ix[a]), int(b - a))
            for a, b in zip(starts, stops)]


class FusedCopy:
    """All of one statement's pair copies into one destination instance.

    Built once at trace-freeze time from the :class:`~repro.runtime.window.
    PairCopy` objects of the capture iteration; every replay issues at
    most one gather and one scatter per field.  Aggregate accounting
    (``pair_count`` pairs, ``count`` elements, ``nbytes`` bytes) matches
    what the per-pair interpretation would have recorded exactly.
    """

    __slots__ = ("uid", "ufunc", "lock", "count", "nbytes", "pair_count",
                 "dst_arrays", "src_arrays", "bufs", "gathers", "runs",
                 "src_sel", "dst_sel", "dst_ix", "has_dups", "view_pairs",
                 "dst_views")

    def __init__(self, uid, ufunc, lock, count, nbytes, pair_count):
        self.uid = uid
        self.ufunc = ufunc
        self.lock = lock
        self.count = count
        self.nbytes = nbytes
        self.pair_count = pair_count
        # Direct (single-source) plan:
        self.src_arrays = None   # tuple of per-field source arrays
        self.runs = None         # [(s0, d0, n)] joint slice runs
        self.view_pairs = None   # per-field (dst_view, src_view|None)
        self.src_sel = None      # fancy source index (when runs is None)
        self.dst_sel = None      # fancy dst index / slice / run list
        # Staged (multi-source) plan:
        self.bufs = None         # per-field staging buffers, len == count
        self.gathers = None      # ((offset, n, src_sel, per-field arrays),...)
        self.dst_arrays = None   # tuple of per-field destination arrays
        self.dst_views = None    # per-field strided dst views for the scatter
        self.dst_ix = None       # concatenated fancy dst index (dup folds)
        self.has_dups = False

    @classmethod
    def build(cls, pcs) -> "FusedCopy | None":
        """Fuse the pair copies ``pcs`` (same statement, same destination
        instance, capture pair order).  Returns ``None`` when fusion
        cannot preserve semantics (overwrite copies with destination
        slots repeating across pairs)."""
        first = pcs[0]
        nfields = len(first.arrays)
        dst_arrays = tuple(d for d, _ in first.arrays)
        dst_parts = [_as_fancy(pc.dst_ix) for pc in pcs]
        dst_ix = (dst_parts[0] if len(dst_parts) == 1
                  else np.concatenate(dst_parts))
        count = int(dst_ix.size)
        has_dups = bool(np.unique(dst_ix).size < count)
        if has_dups and first.ufunc is None:
            return None  # last-writer-wins needs per-pair ordering
        fc = cls(uid=first.uid, ufunc=first.ufunc, lock=first.lock,
                 count=count, nbytes=sum(pc.nbytes for pc in pcs),
                 pair_count=len(pcs))
        fc.dst_arrays = dst_arrays
        fc.has_dups = has_dups
        fc.dst_ix = dst_ix if has_dups else None

        single_src = all(pc.arrays[0][1] is first.arrays[0][1] for pc in pcs)
        if single_src:
            fc.src_arrays = tuple(s for _, s in first.arrays)
            src_ix = np.concatenate([_as_fancy(pc.src_ix) for pc in pcs]) \
                if len(pcs) > 1 else _as_fancy(first.src_ix)
            runs = None if has_dups else joint_runs(src_ix, dst_ix)
            if runs is not None:
                fc.runs = runs
                return fc
            if not has_dups:
                # Rectangle lowering: a lattice of equal runs (a column
                # halo of a row-major grid) becomes one strided-view
                # assignment instead of a gather through an index array.
                du = uniform_runs(dst_ix)
                if du is not None:
                    su = uniform_runs(src_ix)
                    same_shape = su is not None and su[1:3] == du[1:3]
                    fc.view_pairs = tuple(
                        (_strided_view(d, du),
                         _strided_view(s, su) if same_shape else None)
                        for d, s in zip(dst_arrays, fc.src_arrays))
                    if not same_shape:
                        fc.src_sel = src_ix
                    return fc
            fc.src_sel = src_ix
            fc.dst_sel = dst_ix
            return fc

        # Multiple source instances: gather per source segment into a
        # contiguous staging buffer, then one scatter per field.
        gathers = []
        offset = 0
        for pc in pcs:
            n = pc.count
            gathers.append((offset, n, pc.src_ix,
                            tuple(s for _, s in pc.arrays)))
            offset += n
        fc.gathers = tuple(gathers)
        fc.bufs = tuple(
            np.empty((count, *dst_arrays[f].shape[1:]),
                     dtype=dst_arrays[f].dtype) for f in range(nfields))
        if not has_dups:
            du = uniform_runs(dst_ix)
            if du is not None:
                fc.dst_views = tuple(_strided_view(d, du)
                                     for d in dst_arrays)
                return fc
        sel = None if has_dups else coalesce(dst_ix)
        fc.dst_sel = dst_ix if sel is None else sel
        return fc

    # -- application ---------------------------------------------------------
    def apply(self) -> None:
        lock = self.lock
        if lock is None:
            self._apply_unlocked()
        else:
            with lock:
                self._apply_unlocked()

    def _apply_unlocked(self) -> None:
        if self.src_arrays is not None:
            self._apply_direct()
        else:
            self._apply_staged()

    def _apply_direct(self) -> None:
        ufunc = self.ufunc
        if self.runs is not None:
            for dst, src in zip(self.dst_arrays, self.src_arrays):
                if ufunc is None:
                    for s0, d0, n in self.runs:
                        dst[d0:d0 + n] = src[s0:s0 + n]
                else:
                    for s0, d0, n in self.runs:
                        dst[d0:d0 + n] = ufunc(dst[d0:d0 + n],
                                               src[s0:s0 + n])
            return
        if self.view_pairs is not None:
            src_sel = self.src_sel
            for f, (dv, sv) in enumerate(self.view_pairs):
                vals = sv if sv is not None else \
                    self.src_arrays[f][src_sel].reshape(dv.shape)
                if ufunc is None:
                    dv[...] = vals
                else:
                    ufunc(dv, vals, out=dv)
            return
        src_sel, dst_sel = self.src_sel, self.dst_sel
        for dst, src in zip(self.dst_arrays, self.src_arrays):
            if ufunc is None:
                dst[dst_sel] = src[src_sel]
            elif self.has_dups:
                ufunc.at(dst, dst_sel, src[src_sel])
            else:
                dst[dst_sel] = ufunc(dst[dst_sel], src[src_sel])

    def compile(self):
        """A minimal-dispatch callable for this plan, for use inside a
        :class:`FusedBatch` issue loop.  Locked plans keep full
        :meth:`apply` (the lock must be taken per application)."""
        if self.lock is not None:
            return self.apply
        ufunc = self.ufunc
        if (ufunc is None and self.runs is not None
                and len(self.runs) == 1 and len(self.dst_arrays) == 1):
            s0, d0, n = self.runs[0]
            dst, src = self.dst_arrays[0], self.src_arrays[0]

            def run_slice(dst=dst, src=src, d=slice(d0, d0 + n),
                          s=slice(s0, s0 + n)):
                dst[d] = src[s]
            return run_slice
        if (ufunc is None and self.view_pairs is not None
                and self.src_sel is None and len(self.view_pairs) == 1):
            dv, sv = self.view_pairs[0]

            def run_view(dv=dv, sv=sv):
                dv[...] = sv
            return run_view
        return self._apply_unlocked

    def _apply_staged(self) -> None:
        ufunc = self.ufunc
        for f, dst in enumerate(self.dst_arrays):
            buf = self.bufs[f]
            for offset, n, src_sel, src_arrays in self.gathers:
                buf[offset:offset + n] = src_arrays[f][src_sel]
            if self.has_dups:
                ufunc.at(dst, self.dst_ix, buf)
                continue
            if self.dst_views is not None:
                dv = self.dst_views[f]
                if ufunc is None:
                    dv[...] = buf.reshape(dv.shape)
                else:
                    ufunc(dv, buf.reshape(dv.shape), out=dv)
                continue
            sel = self.dst_sel
            if isinstance(sel, list):
                if ufunc is None:
                    for d0, d1, b0 in sel:
                        dst[d0:d1] = buf[b0:b0 + (d1 - d0)]
                else:
                    for d0, d1, b0 in sel:
                        dst[d0:d1] = ufunc(dst[d0:d1], buf[b0:b0 + (d1 - d0)])
            elif ufunc is None:
                dst[sel] = buf
            else:
                dst[sel] = ufunc(dst[sel], buf)


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
        self._ops = tuple(it.compile() if isinstance(it, FusedCopy)
                          else it.apply for it in self.items)
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

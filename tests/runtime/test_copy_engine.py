"""Copy engine: block plans, equivalence, contention-free folds."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.circuit import CircuitProblem
from repro.apps.miniaero import MiniAeroProblem
from repro.apps.pennant import PennantProblem
from repro.apps.stencil import StencilProblem
from repro.core import ProgramBuilder, control_replicate
from repro.regions import (
    IntervalSet,
    PhysicalInstance,
    ispace,
    partition_block,
    partition_by_image,
    region,
)
from repro.runtime import SequentialExecutor, SPMDExecutor, procs_available
from repro.regions.interval_join import PairTable
from repro.regions.partition import ColourTable
from repro.runtime.copy_engine import (
    BlockLayout,
    FusedBatch,
    FusedCopy,
    disjoint_dst_colors,
    lower_copy,
    place_rows,
)
from repro.tasks import R, Reduce, task

ALL_MODES = ["stepped", "threaded"] + (["procs"] if procs_available() else [])

# Tolerance used by the CLI's verify/run equivalence check.  Fusion
# regroups the p2p handshake, which can reorder *overlapping* cross-shard
# reduction folds and shift results by ~1 ULP; everything else is exact.
RTOL, ATOL = 1e-11, 1e-13


# -- FusedCopy plan unit tests -----------------------------------------------

def make_pc(src, dst_ix, src_ix):
    """One pair of a block group: ``src[src_ix]`` into the destination's
    ``dst_ix``."""
    dst_ix = np.asarray(dst_ix, dtype=np.int64)
    src_ix = np.asarray(src_ix, dtype=np.int64)
    return ((src,), src_ix, dst_ix, int(dst_ix.size))


def own_blocks(insts):
    """A layout in which every instance is its own block: colour ``c`` is
    ``insts[c]``."""
    table = ColourTable([x.index_set for x in insts])
    arrays = [x.fields for x in insts]
    return BlockLayout(table, np.arange(len(insts)), table.prefix[:-1],
                       arrays, arrays)


def apply_each(dsts, members, ufunc=None):
    """The oracle: every pair in turn, one numpy assignment (or
    ``ufunc.at`` fold) per field."""
    for srcs, src_ix, dst_ix, _ in members:
        for dst, src in zip(dsts, srcs):
            if ufunc is None:
                dst[dst_ix] = src[src_ix]
            else:
                ufunc.at(dst, dst_ix, src[src_ix])


def as_fancy(ix) -> np.ndarray:
    """A plan side's slots as an array (a slice is one run)."""
    if isinstance(ix, slice):
        return np.arange(ix.start, ix.stop, dtype=np.int64)
    return np.asarray(ix, dtype=np.int64)


def is_run(slots) -> bool:
    slots = np.asarray(slots)
    return bool(slots.size) and bool((np.diff(slots) == 1).all())


UNIVERSE = 48  # points a colour may hold


@st.composite
def point_sets(draw, within=None):
    """A non-empty sorted point list: one run, or any points (of
    ``within`` when given)."""
    pool = list(range(UNIVERSE)) if within is None else within
    if draw(st.booleans()):
        a = draw(st.integers(0, len(pool) - 1))
        b = draw(st.integers(a + 1, len(pool)))
        return pool[a:b]
    return sorted(draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=24, unique=True)))


@st.composite
def copy_statements(draw):
    """One copy statement's pairs on a shard: 1-8 pairs between 1-4 source
    colours and 1-4 destination colours, each side's colours stacked as
    consecutive row ranges of 1-3 blocks (as a shard's colours are), 1-2
    fields, plain or ``+``; a fold into a destination colour is lock-free
    or holds one of two locks.  A pair's points are any non-empty subset
    of its destination colour's, so pairs into one colour may repeat
    slots, and its source colour holds them plus others, so either side's
    slots may be a run (a slice) or not (an array).  Returns the
    statement, a factory of fresh ``((blocks, block of instance, lowering
    inputs), pairs)`` — the inputs being both sides placed on their
    colour tables, the lengths, row counts and lock codes — and the pair
    count."""
    nfields = draw(st.integers(1, 2))
    elem = draw(st.sampled_from([(), (2,)]))
    redop = draw(st.sampled_from([None, "+"]))
    seed = draw(st.integers(0, 2**32 - 1))
    ndst, nsrc = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dst_pts = [draw(point_sets()) for _ in range(ndst)]
    specs = []
    for _ in range(draw(st.integers(1, 8))):
        d = draw(st.integers(0, ndst - 1))
        specs.append((draw(st.integers(0, nsrc - 1)), d,
                       draw(point_sets(within=dst_pts[d]))))
    src_pts = [sorted(set(draw(st.lists(st.integers(0, UNIVERSE - 1),
                                        min_size=1, max_size=8))).union(
        *(pts for s, _, pts in specs if s == c))) for c in range(nsrc)]
    locks = ([draw(st.sampled_from([None, 0, 1])) for _ in range(ndst)]
             if redop else [None] * ndst)

    def cuts(n):
        inner = draw(st.lists(st.integers(1, n - 1), max_size=2, unique=True)
                     if n > 1 else st.just([]))
        bounds = [0, *sorted(inner), n]
        return [range(a, b) for a, b in zip(bounds, bounds[1:])]

    src_groups, dst_groups = cuts(nsrc), cuts(ndst)
    fields = {f"f{k}": (np.float64, elem) for k in range(nfields)}
    root = region(ispace(size=UNIVERSE), fields)

    def make():
        rng = np.random.default_rng(seed)
        lock_objs = (threading.Lock(), threading.Lock())
        blocks, block_by_inst = [], {}

        def stack(colour_pts, groups):
            table = ColourTable([IntervalSet.from_indices(pts)
                                 for pts in colour_pts])
            insts, mine, block, base = [], [], [], []
            for group in groups:
                ends = np.cumsum([0] + [len(colour_pts[c])
                                        for c in group]).tolist()
                blk = {f: rng.standard_normal((ends[-1], *elem))
                       for f in fields}
                blocks.append(blk)
                for c, lo, hi in zip(group, ends, ends[1:]):
                    rows = iter([arr[lo:hi] for arr in blk.values()])
                    x = PhysicalInstance(
                        root, IntervalSet.from_indices(colour_pts[c]),
                        allocator=lambda *_: next(rows))
                    block_by_inst[id(x)] = blk
                    insts.append(x)
                    block.append(len(mine))
                    base.append(table.prefix[group.start])
                mine.append(blk)
            return insts, BlockLayout(table, np.array(block), np.array(base),
                                      mine, [x.fields for x in insts])

        (srcs, src_layout), (dsts, dst_layout) = (stack(src_pts, src_groups),
                                                  stack(dst_pts, dst_groups))
        pairs = [(srcs[s], dsts[d], IntervalSet.from_indices(pts),
                  None if locks[d] is None else lock_objs[locks[d]])
                 for s, d, pts in specs]
        nrows = np.array([pts.num_intervals for _, _, pts, _ in pairs])
        ivals = np.concatenate([pts.intervals for _, _, pts, _ in pairs])
        src_of, dst_of = (np.array(side) for side in zip(
            *((s, d) for s, d, _ in specs)))
        # Lock code 0 is no lock, 1 + k is lock k.
        lock_of = np.array([0 if locks[d] is None else 1 + locks[d]
                            for _, d, _ in specs])
        inputs = (place_rows(src_layout, src_of, nrows, ivals),
                  place_rows(dst_layout, dst_of, nrows, ivals),
                  ivals[:, 1] - ivals[:, 0], nrows, lock_of,
                  (None, *lock_objs))
        return (blocks, block_by_inst, inputs), pairs

    stmt = SimpleNamespace(uid=7, fields=tuple(fields), redop=redop)
    return stmt, make, len(specs)


class TestFusedCopyBuild:
    """One block group — pairs between one source block and one
    destination block, in pair order — is one :class:`FusedCopy`."""

    def setup_method(self):
        rng = np.random.default_rng(42)
        self.src = rng.standard_normal(64)
        self.dst0 = rng.standard_normal(64)

    def _check_equiv(self, members, ufunc=None):
        dst_seq, dst_fused = self.dst0.copy(), self.dst0.copy()
        # A member's slices are one run each; its slot arrays one unit
        # run a slot.
        src_first, dst_first, lengths = (np.concatenate(side) for side in zip(
            *(([s.start], [d.start], [s.stop - s.start])
              if isinstance(s, slice) else (s, d, np.ones_like(s))
              for _, s, d, _ in members)))
        fc = FusedCopy.build(members[0][0], src_first, (dst_fused,),
                             dst_first, lengths, ufunc, None, 7,
                             len(members), 8)
        apply_each((dst_seq,), members, ufunc)
        fc.apply()
        assert np.array_equal(dst_fused, dst_seq)
        assert fc.count == sum(m[3] for m in members)
        return fc

    def test_single_source_joint_runs(self):
        fc = self._check_equiv(
            [make_pc(self.src, np.arange(0, 8), np.arange(8, 16)),
             make_pc(self.src, np.arange(8, 16), np.arange(16, 24))])
        # Both concatenated sides are one run: the copy is two slices.
        assert (fc.src_sel, fc.dst_sel) == (slice(8, 24), slice(0, 16))
        assert fc.pair_count == 2 and fc.count == 16
        assert fc.nbytes == 16 * 8

    def test_single_source_lattice_uses_index_arrays(self):
        # Stride-2 singletons are a regular lattice, and a lattice is not
        # a run: the one plan gathers and scatters through the arrays.
        scattered = np.arange(0, 40, 2)
        fc = self._check_equiv([make_pc(self.src, scattered, scattered + 1)])
        assert np.array_equal(fc.dst_sel, scattered)
        assert np.array_equal(fc.src_sel, scattered + 1)

    def test_single_source_irregular_keeps_fancy_index(self):
        rng = np.random.default_rng(5)
        dst_ix = np.sort(rng.choice(64, size=20, replace=False))
        src_ix = np.sort(rng.choice(64, size=20, replace=False))
        fc = self._check_equiv([make_pc(self.src, dst_ix, src_ix)])
        assert isinstance(fc.src_sel, np.ndarray)
        assert isinstance(fc.dst_sel, np.ndarray)

    def test_overwrite_with_cross_pair_dups_keeps_the_last(self):
        # Slot 2 is written by both pairs: the plan keeps the second
        # write only, which is last-writer-wins in pair order — and the
        # rest of the group is one run again.
        fc = self._check_equiv([make_pc(self.src, [0, 1, 2], [10, 11, 12]),
                                make_pc(self.src, [2, 3, 4], [20, 21, 22])])
        assert fc.dst_sel == slice(0, 5) and not fc.has_dups
        assert np.array_equal(fc.src_sel, [10, 11, 20, 21, 22])
        assert fc.count == 6 and fc.pair_count == 2  # what the pairs move

    def test_reduction_with_dups_matches_sequential_folds(self):
        ix_a, ix_b = [0, 1, 2, 3], [2, 3, 4, 5]  # overlap on 2, 3
        fc = self._check_equiv([make_pc(self.src, ix_a, [0, 1, 2, 3]),
                                make_pc(self.src, ix_b, [40, 41, 42, 43])],
                               np.add)
        assert fc.has_dups  # ufunc.at path: bit-identical by index order

    def test_reduction_without_dups_uses_gather_op_scatter(self):
        fc = self._check_equiv([make_pc(self.src, [0, 1], [0, 1]),
                                make_pc(self.src, [5, 6], [2, 3])], np.add)
        assert not fc.has_dups

    def test_multi_source_blocks_apply_in_pair_order(self):
        # Three pairs into one destination from two source blocks, A B A,
        # overlapping: the groups are the three runs, applied in pair
        # order, so each overlap resolves as pair by pair.
        root = region(ispace(size=16), {"v": np.float64})
        rng = np.random.default_rng(1)

        def inst():
            x = PhysicalInstance(root)
            x.fields["v"][:] = rng.standard_normal(16)
            return x

        a, b, dst = inst(), inst(), inst()
        want = dst.fields["v"].copy()
        pairs = [(a, dst, IntervalSet.from_indices(range(0, 8)), None),
                 (b, dst, IntervalSet.from_indices(range(4, 12)), None),
                 (a, dst, IntervalSet.from_indices(range(10, 14)), None)]
        for src, _, pts, _ in pairs:
            ix = pts.to_indices()
            want[ix] = src.fields["v"][ix]
        nrows = np.ones(3, dtype=np.int64)
        ivals = np.concatenate([pts.intervals for _, _, pts, _ in pairs])
        batch = lower_copy(
            7, ("v",), None,
            place_rows(own_blocks([a, b]), np.array([0, 1, 0]), nrows, ivals),
            place_rows(own_blocks([dst]), np.zeros(3, np.int64), nrows, ivals),
            ivals[:, 1] - ivals[:, 0], nrows, np.zeros(3, np.int64), [None],
            3)
        assert [it.src_arrays[0] for it in batch.items] == [
            a.fields["v"], b.fields["v"], a.fields["v"]]
        batch.apply()
        assert np.array_equal(dst.fields["v"], want)

    def test_large_gather_into_a_slice_takes_in_place(self):
        # A launch-entry-sized gather into destination rows goes through
        # np.take(out=): same values, no value temporary.
        rng = np.random.default_rng(3)
        src = rng.standard_normal((5000, 2))
        dst, want = np.zeros((3000, 2)), np.zeros((3000, 2))
        ix = np.sort(rng.choice(5000, size=2000, replace=False))
        fc = FusedCopy.build((src,), ix, (dst,), 500 + np.arange(2000),
                             np.ones(2000, dtype=np.int64), None, None, 7, 1,
                             16)
        want[500:2500] = src[ix]
        fc.apply()
        assert fc.take and np.array_equal(dst, want)

    def test_slice_index_inputs_accepted(self):
        fc = self._check_equiv([((self.src,), slice(4, 12), slice(0, 8), 8)])
        assert (fc.src_sel, fc.dst_sel) == (slice(4, 12), slice(0, 8))

    @given(copy_statements())
    @settings(max_examples=300, deadline=None)
    def test_fused_group_equals_its_pairs_in_order(self, case):
        stmt, make, npairs = case
        (seq_blocks, _, _), seq_pairs = make()
        (blocks, block_by_inst, inputs), pairs = make()
        batch = lower_copy(stmt.uid, stmt.fields, stmt.redop, *inputs,
                           npairs + 1)
        batch.apply()
        # The oracle: each pair in turn, localized in its own instance.
        ufunc = None if stmt.redop is None else np.add
        for src, dst, pts, _ in seq_pairs:
            apply_each(tuple(dst.fields[f] for f in stmt.fields),
                       [(tuple(src.fields[f] for f in stmt.fields),
                         src.localize(pts), dst.localize(pts), None)], ufunc)
        for got, want in zip(blocks, seq_blocks):
            for f in stmt.fields:
                assert np.array_equal(got[f], want[f])
        # Items are block groups: (destination block, lock) classes, each
        # split where the source block changes; pair order inside.
        block_of = {id(arr): n for n, blk in enumerate(blocks)
                    for arr in blk.values()}

        def key(src, dst, lock):
            # Instances or block arrays, whichever it is handed.
            src, dst = (x if isinstance(x, np.ndarray)
                        else block_by_inst[id(x)][stmt.fields[0]]
                        for x in (src, dst))
            return block_of[id(src)], block_of[id(dst)], id(lock)

        want = {}  # (dst block, lock) -> its runs: [source block, pairs]
        for src, dst, _, lock in pairs:
            s, *cls = key(src, dst, lock)
            runs = want.setdefault(tuple(cls), [])
            if not runs or runs[-1][0] != s:
                runs.append([s, 0])
            runs[-1][1] += 1
        got = {}
        for it in batch.items:
            s, *cls = key(it.src_arrays[0], it.dst_arrays[0], it.lock)
            got.setdefault(tuple(cls), []).append([s, it.pair_count])
        assert got == want
        for item in batch.items:
            assert len(item.src_arrays) == len(item.dst_arrays) == len(
                stmt.fields)
            dst_slots = as_fancy(item.dst_sel)
            if ufunc is None:  # repeats resolved at plan time
                assert np.unique(dst_slots).size == dst_slots.size
            assert item.has_dups == (ufunc is not None and np.unique(
                dst_slots).size < dst_slots.size)
            for sel in (item.src_sel, item.dst_sel):
                assert isinstance(sel, slice) or not is_run(sel)
        assert frozenset().union(*(it.footprint for it in batch.items)) == {
            id(x.fields[f]) for src, dst, _, _ in pairs for x in (src, dst)
            for f in stmt.fields}
        width = sum(blocks[0][f].dtype.itemsize for f in stmt.fields)
        assert batch.pair_count == npairs and batch.visits == npairs + 1
        assert batch.count == sum(pts.count for _, _, pts, _ in pairs)
        assert batch.nbytes == batch.count * width


def iset(*idx):
    return IntervalSet.from_indices(list(idx))


class TestDisjointDstColors:
    def test_distinct_owners_disjoint_points(self):
        pts = {(0, 0): iset(0, 1), (1, 0): iset(2, 3)}
        out = disjoint_dst_colors(PairTable.from_mapping(pts),
                                  src_num_colors=2, num_shards=2)
        assert out == frozenset({0})

    def test_overlapping_owners_excluded(self):
        pts = {(0, 0): iset(0, 1), (1, 0): iset(1, 2)}
        out = disjoint_dst_colors(PairTable.from_mapping(pts),
                                  src_num_colors=2, num_shards=2)
        assert out == frozenset()

    def test_single_owner_always_disjoint(self):
        # Both producer colors land on shard 0: no cross-shard contention
        # even though the point sets overlap.
        pts = {(0, 0): iset(0, 1), (1, 0): iset(1, 2)}
        out = disjoint_dst_colors(PairTable.from_mapping(pts),
                                  src_num_colors=2, num_shards=1)
        assert out == frozenset({0})

    def test_matches_the_per_destination_unions(self):
        # The loop the array form replaced, kept as its oracle: per
        # destination, union each producer shard's parts, then all of them.
        from repro.core.shards import owner_of_color

        def per_destination(pairs, pts_of, src_n, ns):
            by_dst = {}
            for (i, j) in pairs:
                if pts_of(i, j):
                    by_dst.setdefault(j, {}).setdefault(
                        owner_of_color(src_n, ns, i), []).append(pts_of(i, j))
            out = set()
            for j, per_owner in by_dst.items():
                sets = [IntervalSet.union_all(p) for p in per_owner.values()]
                if (IntervalSet.union_all(sets).count
                        == sum(s.count for s in sets)):
                    out.add(j)
            return frozenset(out)

        rng = np.random.default_rng(7)
        disjoint = overlapping = 0
        for _ in range(200):
            src_n, dst_n = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            ns = int(rng.integers(1, src_n + 1))
            pts = {(i, j): IntervalSet.from_indices(
                       rng.choice(40, int(rng.integers(0, 4)), replace=False))
                   for i in range(src_n) for j in range(dst_n)
                   if rng.random() < 0.7}
            got = disjoint_dst_colors(PairTable.from_mapping(pts),
                                      src_n, ns)
            assert got == per_destination(list(pts),
                                          lambda i, j: pts[(i, j)], src_n, ns)
            live = {j for (_, j), p in pts.items() if p}
            disjoint += len(got)
            overlapping += len(live - got)
        assert disjoint > 50 and overlapping > 50

    def test_empty_pairs_ignored(self):
        pts = {(0, 0): iset(0), (1, 0): iset()}
        out = disjoint_dst_colors(PairTable.from_mapping(pts),
                                  src_num_colors=2, num_shards=2)
        assert out == frozenset({0})


    def test_table_matches_brute_force_on_aliased_partitions(self):
        # From the pair table of two random aliased partitions against a
        # per-pair union check over their brute-force intersections.
        from repro.core.shards import owner_of_color
        from repro.regions import Partition
        from repro.runtime import compute_intersections

        def aliased(root, n, rng):
            return Partition(root, [IntervalSet.from_indices(
                rng.choice(60, int(rng.integers(0, 12)), replace=False))
                for _ in range(n)], disjoint=False)

        rng = np.random.default_rng(11)
        disjoint = overlapping = 0
        for _ in range(60):
            root = region(ispace(size=60), {"v": np.float64})
            src, dst = (aliased(root, int(rng.integers(1, 9)), rng)
                        for _ in range(2))
            ns = int(rng.integers(1, src.num_colors + 1))
            table = compute_intersections(src, dst).table
            want = set()
            for j in dst.colors:
                per_owner = {}
                for i in src.colors:
                    pts = src.subset(i) & dst.subset(j)
                    if pts:
                        per_owner.setdefault(owner_of_color(
                            src.num_colors, ns, i), []).append(pts)
                sets = [IntervalSet.union_all(p) for p in per_owner.values()]
                if sets and (IntervalSet.union_all(sets).count
                             == sum(x.count for x in sets)):
                    want.add(j)
            got = disjoint_dst_colors(table, src.num_colors, ns)
            assert got == want
            disjoint += len(got)
            overlapping += len(set(table.dst.tolist()) - got)
        assert disjoint > 20 and overlapping > 20


class TestRootCopies:
    """Launch entry and exit: one localize of a shard block's stacked
    colour rows against the root instance, the block side its rows in
    order."""

    @pytest.mark.parametrize("ns", [1, 2, 3, 7])
    def test_aliased_round_trip_last_colour_wins(self, ns):
        from repro.core.ir import FinalCopy, InitCopy
        from repro.regions import Partition
        rng = np.random.default_rng(ns)
        root = region(ispace(size=50), {"a": np.float64,
                                        "b": (np.int64, (2,))})
        part = Partition(root, [IntervalSet.from_indices(
            rng.choice(50, int(rng.integers(0, 20)), replace=False))
            for _ in range(5)], disjoint=False)
        ex = SPMDExecutor(num_shards=ns)
        r = ex.root_instance(root)
        r.fields["a"][:] = rng.standard_normal(50)
        r.fields["b"][:] = rng.integers(0, 1000, (50, 2))
        before = {f: r.fields[f].copy() for f in r.fields}
        ex._stmt(InitCopy(part, ("a", "b")))
        for c in part.colors:
            ix = part.subset(c).to_indices()
            for f in ("a", "b"):
                assert np.array_equal(ex.dist_instance(part, c).fields[f],
                                      before[f][ix])
        # Every colour writes its own values back, in colour order.
        want = {f: before[f].copy() for f in before}
        for c in part.colors:
            inst, ix = ex.dist_instance(part, c), part.subset(c).to_indices()
            inst.fields["a"][:] = 100.0 * c + np.arange(ix.size)
            inst.fields["b"][:] = -c
            for f in ("a", "b"):
                want[f][ix] = inst.fields[f]
        ex._stmt(FinalCopy(part, ("a", "b")))
        for f in ("a", "b"):
            assert np.array_equal(r.fields[f], want[f])


# -- end-to-end equivalence across the evaluation apps -----------------------

APPS = {
    "stencil": (lambda: StencilProblem(n=24, radius=2, tiles=4, steps=5),
                True),
    "circuit": (lambda: CircuitProblem(pieces=4, nodes_per_piece=25,
                                       wires_per_piece=40, steps=4),
                False),
    "pennant": (lambda: PennantProblem(nx=8, ny=8, pieces=4, steps=4),
                False),
    "miniaero": (lambda: MiniAeroProblem(shape=(6, 6, 6), tiles=4, steps=4),
                 True),
}


def counters(ex):
    return (ex.tasks_executed, ex.pair_visits, ex.copies_performed,
            ex.elements_copied, ex.bytes_copied)


class TestBlockPlan:
    """A statement lowers against the shard blocks: its cost is bounded by
    the blocks, not the colours, and its items name the per-colour
    instance arrays fission reasons about."""

    NS = 3  # uneven blocks: one statement spans several destination blocks

    @staticmethod
    def _lowered(monkeypatch):
        from repro.runtime import launch_plan
        batches = []
        lower = launch_plan.lower_copy

        def recording(uid, fields, redop, src, dst, lengths, nrows, lock_of,
                      locks, visits):
            batch = lower(uid, fields, redop, src, dst, lengths, nrows,
                          lock_of, locks, visits)
            batches.append((fields, (src, dst, lock_of, locks), batch))
            return batch

        monkeypatch.setattr(launch_plan, "lower_copy", recording)
        return batches

    @pytest.mark.parametrize("pieces", [24, 96])
    def test_items_and_numpy_calls_bounded_by_blocks(self, pieces,
                                                     monkeypatch):
        # Deterministic stand-in for the copy cost: per applied batch, at
        # most one lock-free and one locked item per destination block,
        # each one gather and one scatter per field — whatever the colour
        # count.
        batches = self._lowered(monkeypatch)
        scatters, applies = [0], []
        put, take, apply = FusedCopy._put, np.take, FusedBatch.apply

        def counting_put(self, dst, vals):
            scatters[0] += 1
            return put(self, dst, vals)

        def counting_take(*args, **kw):  # a gather straight into rows
            scatters[0] += 1
            return take(*args, **kw)

        def counting_apply(self):
            before = scatters[0]
            apply(self)
            applies.append((self, scatters[0] - before))

        monkeypatch.setattr(FusedCopy, "_put", counting_put)
        monkeypatch.setattr(np, "take", counting_take)
        monkeypatch.setattr(FusedBatch, "apply", counting_apply)
        p = CircuitProblem(pieces=pieces, nodes_per_piece=20,
                           wires_per_piece=30, steps=4)
        _, _, ex, _ = p.run_control_replicated(self.NS)
        fields = {id(b): len(f) for f, _, b in batches}
        assert ex.replay_hits > 0 and applies
        for batch, calls in applies:
            bound = self.NS * 2 * fields[id(batch)]
            assert len(batch.items) <= 2 * self.NS
            assert calls == len(batch.items) * fields[id(batch)] <= bound
            assert len({id(it.dst_arrays[0]) for it in batch.items}) \
                <= self.NS
        # The colours are many more than the items.
        assert max(b.pair_count for _, _, b in batches) > 4 * 2 * self.NS

    @pytest.mark.parametrize("app", sorted(APPS))
    def test_item_footprint_is_its_pairs_instances(self, app, monkeypatch):
        # An item moves block rows but must name the per-colour instance
        # arrays its pairs read and write — the ids task footprints and
        # copy_protect use — or fission could hoist an ack past a task
        # writing those rows.
        from repro.runtime.window.ir import op_arrays
        from repro.runtime.window.recorder import OP_FUSED
        batches = self._lowered(monkeypatch)
        _, _, ex, _ = APPS[app][0]().run_control_replicated(
            self.NS, mode="threaded")
        blocks = {id(arr) for rows, _, _ in ex._block_rows.values()
                  for arr in rows.values()}
        # A placed side names each pair's instance by its colour's field
        # dict; the executor's block_rows says which block holds it.
        inst_of = {id(x.fields): x for x in ex.dist.values()}
        items = 0
        for fields, (src, dst, lock_of, locks), batch in batches:
            pairs = [(inst_of[id(src.arrays[i])], inst_of[id(dst.arrays[j])],
                      locks[k]) for i, j, k in zip(src.colours.tolist(),
                                                    dst.colours.tolist(),
                                                    lock_of.tolist())]
            for it in batch.items:
                mine = [(s, d) for s, d, lock in pairs
                        if lock is it.lock
                        and ex.block_rows(s.region)[0][fields[0]]
                        is it.src_arrays[0]
                        and ex.block_rows(d.region)[0][fields[0]]
                        is it.dst_arrays[0]]
                assert sum(1 for _ in mine) == it.pair_count
                assert it.footprint == {id(x.fields[f]) for pair in mine
                                        for x in pair for f in fields}
                assert not it.footprint & blocks
                items += 1
            assert op_arrays((OP_FUSED, batch)) == frozenset().union(
                *(it.footprint for it in batch.items))
        assert items > 0


class TestAppEquivalence:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_fused_matches_unfused_and_interpretation(self, app, mode,
                                                      interpret_only):
        make, exact = APPS[app]
        with interpret_only:
            want, _, interp_ex, _ = make().run_control_replicated(
                4, mode=mode)
        fused, _, fused_ex, _ = make().run_control_replicated(4, mode=mode)
        # Aggregate copy accounting is *exactly* the interpreted accounting.
        assert counters(fused_ex) == counters(interp_ex)
        for key in want:
            if exact:
                assert np.array_equal(fused[key], want[key]), key
            else:
                # Reduction apps: overlapping cross-shard folds land in a
                # schedule-dependent order (threaded/procs interleaving,
                # and fusion regroups the handshake), so results can
                # reassociate by ~1 ULP — compare to round-off, like the
                # CLI equivalence check.
                assert np.allclose(fused[key], want[key],
                                   rtol=RTOL, atol=ATOL), key
        assert fused_ex.fused_copies > 0
        assert fused_ex.fused_pairs >= fused_ex.fused_copies
        # Interpretation applies the very batches a window replays, so it
        # counts the same fused items and pairs.
        assert interp_ex.fused_copies == fused_ex.fused_copies
        assert interp_ex.fused_pairs == fused_ex.fused_pairs

    @pytest.mark.parametrize("app", sorted(APPS))
    def test_fused_matches_sequential(self, app):
        make, exact = APPS[app]
        seq_state, _, _ = make().run_sequential()
        cr_state, _, ex, _ = make().run_control_replicated(4, mode="stepped")
        for key in seq_state:
            if exact:
                assert np.array_equal(cr_state[key], seq_state[key]), key
            else:
                assert np.allclose(cr_state[key], seq_state[key],
                                   rtol=RTOL, atol=ATOL), key
        assert ex.fused_copies > 0


class TestDivergenceStillDetected:
    def _program_with_branch(self, fig2, steps, special):
        from repro.core.ir import BinOp, Const, ScalarRef
        b = ProgramBuilder("fig2_branch")
        b.let("T", steps)
        with b.for_range("t", 0, "T"):
            b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
            with b.if_stmt(BinOp("==", ScalarRef("t"), Const(special))):
                b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
            b.launch(fig2.TG, fig2.I, fig2.PA, fig2.QB)
        return b.build()

    def test_guard_miss_falls_back_with_fusion_on(self):
        from tests.conftest import Fig2
        fig2 = Fig2(steps=1)
        steps, special = 6, 4
        seq = SequentialExecutor(instances=fig2.fresh_instances())
        seq.run(self._program_with_branch(fig2, steps, special))
        cprog, _ = control_replicate(
            self._program_with_branch(fig2, steps, special), num_shards=4)
        spmd = SPMDExecutor(num_shards=4, instances=fig2.fresh_instances())
        spmd.run(cprog)
        assert np.array_equal(spmd.instances[fig2.A.uid].fields["v"],
                              seq.instances[fig2.A.uid].fields["v"])
        # Fusion must not mask the guard mismatch: the special iteration
        # still misses replay and interprets.
        assert spmd.replay_misses > 2 * 4
        assert spmd.fused_copies > 0


# -- lock-free reduction determinism -----------------------------------------

class ReductionProgram:
    """A reduce-through-image program with a controllable producer overlap.

    ``overlap=False`` maps each source block onto itself (the identity
    image): every destination color has exactly one producer shard, so the
    disjointness analysis must take the lock-free path.  ``overlap=True``
    funnels every block's image into the first block: all producer shards
    fold into the same destination instance and the per-destination lock
    must be taken.
    """

    N = 40
    NT = 4

    def __init__(self, overlap: bool, steps: int = 5):
        self.overlap = overlap
        self.steps = steps
        tag = "ov" if overlap else "dj"
        self.U = ispace(size=self.N, name=f"U_{tag}")
        self.I = ispace(size=self.NT, name=f"I_{tag}")
        self.X = region(self.U, {"a": np.float64}, name=f"X_{tag}")
        self.Y = region(self.U, {"b": np.float64}, name=f"Y_{tag}")
        self.PX = partition_block(self.X, self.I, name=f"PX_{tag}")
        self.PY = partition_block(self.Y, self.I, name=f"PY_{tag}")
        if overlap:
            self.imap = np.arange(self.N) % (self.N // self.NT)
        else:
            self.imap = np.arange(self.N)
        self.QX = partition_by_image(self.X, self.PX,
                                     func=lambda p, m=self.imap: m[p],
                                     name=f"QX_{tag}")
        imap = self.imap

        @task(privileges=[Reduce("+", "a"), R("b")], name=f"red_{tag}")
        def red(Acc, Rv):
            ids = imap[Rv.points]
            slots, ok = Acc.maybe_localize(ids)
            Acc.reduce("a", slots[ok], 0.01 * Rv.read("b")[ok], "+")

        self.red = red

    def build(self):
        b = ProgramBuilder(f"red_{'ov' if self.overlap else 'dj'}")
        b.let("T", self.steps)
        with b.for_range("t", 0, "T"):
            b.launch(self.red, self.I, self.QX, self.PY)
        return b.build()

    def fresh_instances(self):
        ix = PhysicalInstance(self.X)
        iy = PhysicalInstance(self.Y)
        rng = np.random.default_rng(3)
        ix.fields["a"][:] = rng.standard_normal(self.N)
        iy.fields["b"][:] = rng.standard_normal(self.N)
        return {self.X.uid: ix, self.Y.uid: iy}

    def run_spmd(self, mode="stepped", force_locked=False, seed=0):
        prog, _ = control_replicate(self.build(), num_shards=self.NT)
        ex = SPMDExecutor(num_shards=self.NT, mode=mode, seed=seed,
                          instances=self.fresh_instances())
        if force_locked:
            ex._force_locked_reductions = True
        ex.run(prog)
        return ex.instances[self.X.uid].fields["a"].copy(), ex


class TestLockFreeReductions:
    def test_disjoint_producers_take_lockfree_path(self):
        rp = ReductionProgram(overlap=False)
        seq = SequentialExecutor(instances=rp.fresh_instances())
        seq.run(rp.build())
        want = seq.instances[rp.X.uid].fields["a"]
        got, ex = rp.run_spmd()
        assert ex.lockfree_folds > 0
        assert ex.locked_folds == 0
        assert np.array_equal(got, want)

    def test_lockfree_bit_identical_to_locked(self):
        rp = ReductionProgram(overlap=False)
        free, ex_free = rp.run_spmd()
        locked, ex_locked = rp.run_spmd(force_locked=True)
        assert ex_free.lockfree_folds > 0 and ex_free.locked_folds == 0
        assert ex_locked.lockfree_folds == 0 and ex_locked.locked_folds > 0
        assert np.array_equal(free, locked)

    def test_overlapping_producers_take_locked_path(self):
        rp = ReductionProgram(overlap=True)
        seq = SequentialExecutor(instances=rp.fresh_instances())
        seq.run(rp.build())
        want = seq.instances[rp.X.uid].fields["a"]
        got, ex = rp.run_spmd()
        assert ex.locked_folds > 0
        assert ex.lockfree_folds == 0
        # Cross-shard fold order into the shared destination is schedule
        # dependent: compare to round-off, like the CLI equivalence check.
        assert np.allclose(got, want, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_lockfree_across_backends(self, mode):
        rp = ReductionProgram(overlap=False)
        seq = SequentialExecutor(instances=rp.fresh_instances())
        seq.run(rp.build())
        want = seq.instances[rp.X.uid].fields["a"]
        got, ex = rp.run_spmd(mode=mode)
        assert ex.lockfree_folds > 0 and ex.locked_folds == 0
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(5))
    def test_stepped_seed_sweep_deterministic(self, seed):
        rp = ReductionProgram(overlap=False)
        base, _ = rp.run_spmd(seed=0)
        got, ex = rp.run_spmd(seed=seed)
        assert ex.lockfree_folds > 0
        assert np.array_equal(got, base)

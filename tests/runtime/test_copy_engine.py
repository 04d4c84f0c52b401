"""Fused copy engine: fusion plans, equivalence, contention-free folds."""

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
from repro.runtime.copy_engine import (
    FusedBatch,
    FusedCopy,
    disjoint_dst_colors,
    fuse_group,
)
from repro.runtime.window import PairCopy
from repro.tasks import R, Reduce, task

ALL_MODES = ["stepped", "threaded"] + (["procs"] if procs_available() else [])

# Tolerance used by the CLI's verify/run equivalence check.  Fusion
# regroups the p2p handshake, which can reorder *overlapping* cross-shard
# reduction folds and shift results by ~1 ULP; everything else is exact.
RTOL, ATOL = 1e-11, 1e-13


# -- FusedCopy plan unit tests -----------------------------------------------

def make_pc(dst, src, dst_ix, src_ix, redop=False, uid=7):
    dst_ix = np.asarray(dst_ix, dtype=np.int64)
    src_ix = np.asarray(src_ix, dtype=np.int64)
    ufunc = np.add if redop else None
    return PairCopy(((dst, src),), src_ix, dst_ix, ufunc,
                    int(dst_ix.size), int(dst_ix.size) * dst.itemsize,
                    uid=uid, group_key=id(dst))


def apply_each(pcs):
    for pc in pcs:
        pc.apply()


GROUP_SIZE = 24  # slots per instance; six disjoint blocks of four


@st.composite
def destination_groups(draw):
    """One copy statement's pairs into one destination instance: 1-6
    pairs from 1-3 source instances, 1-2 fields, plain or ``+``, slots
    disjoint across pairs (each pair in its own block of four, the blocks
    in random order) or anywhere, each side a slice or a sorted array.
    Returns a factory of fresh ``(arrays, pcs)`` and the pair count."""
    nfields = draw(st.integers(1, 2))
    nsrc = draw(st.integers(1, 3))
    elem = draw(st.sampled_from([(), (2,)]))
    ufunc = draw(st.sampled_from([None, np.add]))
    disjoint = draw(st.booleans())
    blocks = draw(st.permutations(range(GROUP_SIZE // 4)))
    seed = draw(st.integers(0, 2**32 - 1))

    def side(lo, hi, n):
        if draw(st.booleans()):
            start = draw(st.integers(lo, hi - n))
            return slice(start, start + n)
        return np.array(sorted(draw(st.lists(
            st.integers(lo, hi - 1), min_size=n, max_size=n, unique=True))),
            dtype=np.int64)

    specs = []
    for p in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 4))
        lo, hi = ((4 * blocks[p], 4 * blocks[p] + 4) if disjoint
                  else (0, GROUP_SIZE))
        specs.append((draw(st.integers(0, nsrc - 1)),
                      side(0, GROUP_SIZE, n), side(lo, hi, n), n))

    def make():
        rng = np.random.default_rng(seed)
        insts = [[rng.standard_normal((GROUP_SIZE, *elem))
                  for _ in range(nfields)] for _ in range(nsrc + 1)]
        dst = insts[-1]
        width = nfields * dst[0].itemsize * int(np.prod(elem, dtype=int))
        pcs = [PairCopy(tuple(zip(dst, insts[s])), src_ix, dst_ix, ufunc,
                        n, n * width, uid=7, group_key=id(dst[0]))
               for s, src_ix, dst_ix, n in specs]
        return dst, pcs

    return make, len(specs)


class TestFusedCopyBuild:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.src = rng.standard_normal(64)
        self.src2 = rng.standard_normal(64)
        self.dst0 = rng.standard_normal(64)

    def _check_equiv(self, pcs_seq, pcs_fused, dst_fused, dst_seq):
        fc = FusedCopy.build(pcs_fused)
        assert fc is not None
        apply_each(pcs_seq)
        fc.apply()
        assert np.array_equal(dst_fused, dst_seq)
        return fc

    def test_single_source_joint_runs(self):
        dst_seq, dst_fused = self.dst0.copy(), self.dst0.copy()
        pcs_seq = [make_pc(dst_seq, self.src, np.arange(0, 8), np.arange(8, 16)),
                   make_pc(dst_seq, self.src, np.arange(8, 16), np.arange(16, 24))]
        pcs_fused = [make_pc(dst_fused, self.src, np.arange(0, 8), np.arange(8, 16)),
                     make_pc(dst_fused, self.src, np.arange(8, 16), np.arange(16, 24))]
        fc = self._check_equiv(pcs_seq, pcs_fused, dst_fused, dst_seq)
        # Both concatenated sides are one run: the copy is two slices.
        assert (fc.src_sel, fc.dst_sel) == (slice(8, 24), slice(0, 16))
        assert fc.pair_count == 2 and fc.count == 16
        assert fc.nbytes == 16 * 8

    def test_single_source_lattice_uses_index_arrays(self):
        # Stride-2 singletons are a regular lattice, and a lattice is not
        # a run: the one plan gathers and scatters through the arrays.
        dst_seq, dst_fused = self.dst0.copy(), self.dst0.copy()
        scattered = np.arange(0, 40, 2)
        pcs_seq = [make_pc(dst_seq, self.src, scattered, scattered + 1)]
        pcs_fused = [make_pc(dst_fused, self.src, scattered, scattered + 1)]
        fc = self._check_equiv(pcs_seq, pcs_fused, dst_fused, dst_seq)
        assert np.array_equal(fc.dst_sel, scattered)
        assert np.array_equal(fc.src_sel, scattered + 1)

    def test_single_source_irregular_keeps_fancy_index(self):
        dst_seq, dst_fused = self.dst0.copy(), self.dst0.copy()
        rng = np.random.default_rng(5)
        dst_ix = np.sort(rng.choice(64, size=20, replace=False))
        src_ix = np.sort(rng.choice(64, size=20, replace=False))
        pcs_seq = [make_pc(dst_seq, self.src, dst_ix, src_ix)]
        pcs_fused = [make_pc(dst_fused, self.src, dst_ix, src_ix)]
        fc = self._check_equiv(pcs_seq, pcs_fused, dst_fused, dst_seq)
        assert isinstance(fc.src_sel, np.ndarray)
        assert isinstance(fc.dst_sel, np.ndarray)

    def test_overwrite_with_cross_pair_dups_is_unfusable(self):
        dst_seq, dst_fused = self.dst0.copy(), self.dst0.copy()
        mk = lambda d: [make_pc(d, self.src, [0, 1, 2], [10, 11, 12]),
                        make_pc(d, self.src2, [2, 3, 4], [20, 21, 22])]
        # Concatenation cannot preserve last-writer-wins on slot 2 …
        assert FusedCopy.build(mk(dst_fused)) is None
        # … so the group lowers to per-pair plans applied in order.
        out = fuse_group(mk(dst_fused))
        assert len(out) == 2
        assert all(isinstance(o, FusedCopy) and o.pair_count == 1
                   for o in out)
        apply_each(mk(dst_seq))
        for o in out:
            o.apply()
        assert np.array_equal(dst_fused, dst_seq)

    def test_reduction_with_dups_matches_sequential_folds(self):
        dst_seq, dst_fused = self.dst0.copy(), self.dst0.copy()
        ix_a, ix_b = [0, 1, 2, 3], [2, 3, 4, 5]  # overlap on 2, 3
        pcs_seq = [make_pc(dst_seq, self.src, ix_a, [0, 1, 2, 3], redop=True),
                   make_pc(dst_seq, self.src2, ix_b, [4, 5, 6, 7], redop=True)]
        pcs_fused = [make_pc(dst_fused, self.src, ix_a, [0, 1, 2, 3], redop=True),
                     make_pc(dst_fused, self.src2, ix_b, [4, 5, 6, 7], redop=True)]
        fc = self._check_equiv(pcs_seq, pcs_fused, dst_fused, dst_seq)
        assert fc.has_dups  # ufunc.at path: bit-identical by index order

    def test_reduction_without_dups_uses_gather_op_scatter(self):
        dst_seq, dst_fused = self.dst0.copy(), self.dst0.copy()
        pcs_seq = [make_pc(dst_seq, self.src, [0, 1], [0, 1], redop=True),
                   make_pc(dst_seq, self.src2, [5, 6], [2, 3], redop=True)]
        pcs_fused = [make_pc(dst_fused, self.src, [0, 1], [0, 1], redop=True),
                     make_pc(dst_fused, self.src2, [5, 6], [2, 3], redop=True)]
        fc = self._check_equiv(pcs_seq, pcs_fused, dst_fused, dst_seq)
        assert not fc.has_dups

    def test_multi_source_staged_plan(self):
        dst_seq, dst_fused = self.dst0.copy(), self.dst0.copy()
        pcs_seq = [make_pc(dst_seq, self.src, np.arange(0, 8), np.arange(8, 16)),
                   make_pc(dst_seq, self.src2, np.arange(8, 16), np.arange(0, 8))]
        pcs_fused = [make_pc(dst_fused, self.src, np.arange(0, 8), np.arange(8, 16)),
                     make_pc(dst_fused, self.src2, np.arange(8, 16), np.arange(0, 8))]
        fc = self._check_equiv(pcs_seq, pcs_fused, dst_fused, dst_seq)
        assert fc.gathers is not None and len(fc.gathers) == 2
        # Contiguous destination: the scatter is one slice write.
        assert fc.dst_sel == slice(0, 16)

    def test_slice_index_inputs_accepted(self):
        dst_seq, dst_fused = self.dst0.copy(), self.dst0.copy()
        pc_seq = PairCopy(((dst_seq, self.src),), slice(4, 12), slice(0, 8),
                          None, 8, 64)
        pc_fused = PairCopy(((dst_fused, self.src),), slice(4, 12), slice(0, 8),
                            None, 8, 64)
        fc = FusedCopy.build([pc_fused])
        pc_seq.apply()
        fc.apply()
        assert np.array_equal(dst_fused, dst_seq)

    @given(destination_groups())
    @settings(max_examples=300, deadline=None)
    def test_fused_group_equals_its_pairs_in_order(self, group):
        make, npairs = group
        seq_arrays, seq_pcs = make()
        fused_arrays, fused_pcs = make()
        apply_each(seq_pcs)
        batch = FusedBatch(fuse_group(fused_pcs))
        batch.apply()
        for got, want in zip(fused_arrays, seq_arrays):
            assert np.array_equal(got, want)
        assert batch.pair_count == npairs
        assert batch.count == sum(pc.count for pc in seq_pcs)
        assert batch.nbytes == sum(pc.nbytes for pc in seq_pcs)


def iset(*idx):
    return IntervalSet.from_indices(list(idx))


class TestDisjointDstColors:
    def test_distinct_owners_disjoint_points(self):
        pts = {(0, 0): iset(0, 1), (1, 0): iset(2, 3)}
        out = disjoint_dst_colors(list(pts), lambda i, j: pts[(i, j)],
                                  src_num_colors=2, num_shards=2)
        assert out == frozenset({0})

    def test_overlapping_owners_excluded(self):
        pts = {(0, 0): iset(0, 1), (1, 0): iset(1, 2)}
        out = disjoint_dst_colors(list(pts), lambda i, j: pts[(i, j)],
                                  src_num_colors=2, num_shards=2)
        assert out == frozenset()

    def test_single_owner_always_disjoint(self):
        # Both producer colors land on shard 0: no cross-shard contention
        # even though the point sets overlap.
        pts = {(0, 0): iset(0, 1), (1, 0): iset(1, 2)}
        out = disjoint_dst_colors(list(pts), lambda i, j: pts[(i, j)],
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
            got = disjoint_dst_colors(list(pts), lambda i, j: pts[(i, j)],
                                      src_n, ns)
            assert got == per_destination(list(pts),
                                          lambda i, j: pts[(i, j)], src_n, ns)
            live = {j for (_, j), p in pts.items() if p}
            disjoint += len(got)
            overlapping += len(live - got)
        assert disjoint > 50 and overlapping > 50

    def test_empty_pairs_ignored(self):
        pts = {(0, 0): iset(0), (1, 0): iset()}
        out = disjoint_dst_colors(list(pts), lambda i, j: pts[(i, j)],
                                  src_num_colors=2, num_shards=2)
        assert out == frozenset({0})


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
        # Interpretation never builds fused batches.
        assert interp_ex.fused_copies == 0

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

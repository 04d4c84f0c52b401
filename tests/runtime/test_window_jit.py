"""The window compiler: compiled windows must be invisible except for speed.

Covers the window-compiler pipeline end to end: sequential equivalence
and counter parity across all four apps and all three backends against
the interpreter, scalar writes (an evolving scalar is never frozen, and a
guard-fallback iteration that writes one keeps the window), the
verifier's failure path, the batched advance path, the one-sweep
fission pass against its pairwise-swap oracle, the cost of a freeze
(footprint derivations, one copy lowering per statement and shard, the
stacked localization against the per-pair one, finished-run lifetime),
and
the observability surface (``spmd_window_*`` metrics, the
``replay:iteration`` rows a tracer renders, pass dumps).
"""

import gc
import multiprocessing
import time
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.circuit import CircuitProblem
from repro.apps.miniaero import MiniAeroProblem
from repro.apps.pennant import PennantProblem
from repro.apps.stencil import StencilProblem
from repro.core import ProgramBuilder, control_replicate
from repro.core.ir import (
    BinOp,
    Const,
    ForRange,
    PairwiseCopy,
    ScalarRef,
    walk,
)
from repro.core.passes import Pass
from repro.obs import PID_SPMD, MetricsRegistry, Tracer
from repro.regions import (
    IntervalSet,
    PhysicalInstance,
    ispace,
    partition_block,
    region,
)
from repro.regions.shm import live_segment_count
from repro.tasks import R, task
from repro.runtime import (
    ReplayError,
    SequentialExecutor,
    ShardExceptionGroup,
    SPMDExecutor,
    procs_available,
)
from repro.runtime import copy_engine, spmd
from repro.runtime.copy_engine import FusedBatch, FusedCopy, _as_index
from repro.runtime.events import Sequence
from repro.runtime.launch import CommContext, LaunchSpec, channel_keys
from repro.runtime.window import exec as window_exec
from repro.runtime.window import schedule
from repro.runtime.window.ir import (
    WindowIR,
    _BatchedView,
    op_arrays,
)
from repro.runtime.window.recorder import (
    OP_ADVN,
    OP_BARRIER,
    OP_COLL,
    OP_FUSED,
    OP_WAITN,
)
from repro.runtime.window.schedule import FissionPass

from tests.conftest import Fig2, interpreted_iterations

ALL_MODES = ["stepped", "threaded"] + (["procs"] if procs_available() else [])

APPS = {
    "stencil": lambda: StencilProblem(n=24, radius=2, tiles=4, steps=5),
    "circuit": lambda: CircuitProblem(pieces=4, nodes_per_piece=25,
                                      wires_per_piece=40, steps=5),
    "pennant": lambda: PennantProblem(nx=8, ny=8, pieces=4, steps=5),
    "miniaero": lambda: MiniAeroProblem(shape=(6, 6, 6), tiles=4, steps=5),
}

COUNTER_5 = ("tasks_executed", "pair_visits", "copies_performed",
             "elements_copied", "bytes_copied")


def counters(ex):
    return tuple(getattr(ex, k) for k in COUNTER_5)


class TestAppEquivalence:
    """The acceptance matrix: 4 apps x 3 backends, window vs interpreter."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_jit_matches_off_and_sequential(self, app, mode, interpret_only):
        p = APPS[app]()
        seq_state, _, _ = p.run_sequential()

        def run():
            st, _, ex, _ = p.run_control_replicated(4, mode=mode)
            for k in seq_state:
                assert np.allclose(st[k], seq_state[k],
                                   rtol=1e-11, atol=1e-13), (app, mode, k)
            return ex

        with interpret_only:
            interp = run()
        compiled = run()
        # Exact counter parity: the compiled window applies precomputed
        # deltas, so the data-movement counters match interpretation
        # bit-for-bit — not just approximately.
        assert counters(interp) == counters(compiled)
        assert compiled.window_compiles > 0
        assert interp.window_compiles == 0

    def test_lowering_shrinks_the_window(self):
        # The circuit, not the stencil: with a handshake recorded one op a
        # phase the stencil window has no two adjacent same-kind ops left
        # for `CompiledWindow.build` to merge (28 ops, 28 closures).  The
        # passes only freeze, batch and reorder, so what shrinks is the
        # closure count: copies are recorded in their final form.
        p = APPS["circuit"]()
        _, _, ex, _ = p.run_control_replicated(4)
        assert ex.window_compiles == 4  # one compiled window per shard
        assert 0 < ex.window_ops_lowered == ex.window_ops_recorded
        assert 0 < ex.window_closures < ex.window_ops_lowered


class TestGuardFallback:
    """A guard miss interprets one iteration, bit-identically."""

    def _program_with_branch(self, fig2, steps, special):
        b = ProgramBuilder("fig2_branch")
        b.let("T", steps)
        with b.for_range("t", 0, "T"):
            b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
            with b.if_stmt(BinOp("==", ScalarRef("t"), Const(special))):
                b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
            b.launch(fig2.TG, fig2.I, fig2.PA, fig2.QB)
        return b.build()

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_fallback_bit_identical_across_jit_modes(self, mode,
                                                     interpret_only):
        fig2 = Fig2(steps=1)
        prog = self._program_with_branch(fig2, 6, 4)
        seq = SequentialExecutor(instances=fig2.fresh_instances())
        seq.run(self._program_with_branch(fig2, 6, 4))

        def run():
            cprog, _ = control_replicate(prog, num_shards=4)
            ex = SPMDExecutor(num_shards=4, mode=mode,
                              instances=fig2.fresh_instances())
            ex.run(cprog)
            return ex

        with interpret_only:
            interp = run()
        compiled = run()
        assert compiled.replay_guard_fallbacks == 4  # one per shard at t==4
        for uid in (fig2.A.uid, fig2.B.uid):
            want = seq.instances[uid].fields["v"]
            assert np.array_equal(interp.instances[uid].fields["v"], want)
            assert np.array_equal(compiled.instances[uid].fields["v"], want)


class TestConstFold:
    """Nothing is constant-folded: a replayed assignment evaluates its
    expression, so a fallback that writes a scalar keeps the window."""

    def _program_with_written_const(self, fig2, steps, special):
        # `c` is loop-invariant until the t == special branch bumps it,
        # and every iteration's `d = c + 1` reads it.
        b = ProgramBuilder("fig2_constfold")
        b.let("T", steps)
        b.let("c", 7)
        with b.for_range("t", 0, "T"):
            b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
            b.assign("d", BinOp("+", ScalarRef("c"), Const(1)))
            with b.if_stmt(BinOp("==", ScalarRef("t"), Const(special))):
                b.assign("c", BinOp("+", ScalarRef("c"), Const(1)))
            b.launch(fig2.TG, fig2.I, fig2.PA, fig2.QB)
        return b.build()

    def test_fallback_scalar_write_keeps_window(self):
        fig2 = Fig2(steps=1)
        steps, special = 10, 4
        prog = self._program_with_written_const(fig2, steps, special)
        seq = SequentialExecutor(instances=fig2.fresh_instances())
        seq_scalars = seq.run(
            self._program_with_written_const(fig2, steps, special))
        cprog, _ = control_replicate(prog, num_shards=4)
        ex = SPMDExecutor(num_shards=4, instances=fig2.fresh_instances())
        scalars = ex.run(cprog)
        assert scalars["c"] == seq_scalars["c"] == 8
        # The fallback computes d = 8 before it bumps `c`; the last value
        # comes from a replay (t == 9), which read the new `c`.
        assert scalars["d"] == seq_scalars["d"] == 9
        assert np.array_equal(ex.instances[fig2.A.uid].fields["v"],
                              seq.instances[fig2.A.uid].fields["v"])
        # Capture on 0-1, replay 2-3, the fallback at t==4 rewrites `c`,
        # and 5-9 replay the same window: 7 hits / 3 misses per shard and
        # one compile, where a folded `c` used to force a second one.
        assert (ex.replay_hits, ex.replay_misses) == (7 * 4, 3 * 4)
        assert ex.replay_guard_fallbacks == 4
        assert ex.window_compiles == 4

    def test_evolving_scalar_not_frozen(self):
        # pennant's dt is rewritten by a min-collective every step; the
        # constant folder must leave it out of the folded set or every
        # replayed iteration would reuse a stale timestep.
        p = APPS["pennant"]()
        seq_state, seq_scalars, _ = p.run_sequential()
        st, scalars, ex, _ = p.run_control_replicated(4)
        assert ex.replay_hits > 0
        assert ex.window_compiles >= 4
        assert scalars["dt"] == seq_scalars["dt"]
        for k in seq_state:
            assert np.allclose(st[k], seq_state[k], rtol=1e-11, atol=1e-13)


class _DropAdvance(Pass):
    """Bad pass: loses one channel advance (a peer would wait forever)."""

    name = "drop-advance"

    def run(self, wir, ctx):
        k = next(n for n, op in enumerate(wir.ops) if op[0] == OP_ADVN)
        op = wir.ops[k]
        wir.ops = list(wir.ops)
        wir.ops[k] = (OP_ADVN, op[1][1:], *op[2:])
        return wir


class _DoubleBytes(Pass):
    """Bad pass: one copy batch reports twice the bytes it moves."""

    name = "double-bytes"

    def run(self, wir, ctx):
        k = next(n for n, op in enumerate(wir.ops)
                 if op[0] == OP_FUSED and op[1].items)
        fb = wir.ops[k][1]
        fb = FusedBatch(fb.uid, fb.items, fb.visits)
        fb.nbytes *= 2
        wir.ops = list(wir.ops)
        wir.ops[k] = (OP_FUSED, fb)
        return wir


class TestVerifierFailure:
    """A pass that breaks the window fails the launch, by name, in time."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("bad", [_DropAdvance, _DoubleBytes])
    def test_bad_pass_fails_the_launch(self, bad, mode, monkeypatch):
        passes = window_exec.window_passes
        monkeypatch.setattr(window_exec, "window_passes",
                            lambda: [bad()] + passes())
        fig2 = Fig2(steps=6)
        prog, _ = control_replicate(fig2.build(), num_shards=2)
        loop = next(s.uid for s in walk(prog.body) if isinstance(s, ForRange))
        timeout = 30.0
        ex = SPMDExecutor(num_shards=2, mode=mode, deadlock_timeout=timeout,
                          instances=fig2.fresh_instances())
        t0 = time.perf_counter()
        with pytest.raises((ReplayError, ShardExceptionGroup)) as exc_info:
            ex.run(prog)
        assert time.perf_counter() - t0 < timeout / 2
        err = exc_info.value
        errors = (err.exceptions if isinstance(err, ShardExceptionGroup)
                  else [err])
        for e in errors:
            assert isinstance(e, ReplayError)
            msg = str(e)
            assert any(f"shard {x}," in msg for x in range(2)), msg
            assert f"loop {loop}:" in msg and repr(bad.name) in msg, msg
        assert ex.replay_hits == 0 and ex.window_compiles == 0
        assert live_segment_count() == 0
        assert multiprocessing.active_children() == []


def _one_copy_spec():
    """A hand-built launch spec: one copy statement over 6 x 6 colours.
    Under three shards, colours 0-1 live on shard 0, 2-3 on shard 1 and
    4-5 on shard 2, so seen from shard 0 the pairs are, in order: local,
    two inbound from shard 1, one inbound from shard 2, two outbound."""
    part = SimpleNamespace(num_colors=6)
    stmt = SimpleNamespace(uid=7, src=part, dst=part)
    pairs = [(0, 0), (2, 0), (3, 1), (4, 0), (0, 2), (1, 4)]
    keys = channel_keys(stmt, pairs, 3)
    # One channel per shard pair, in pair order; none for the local pair.
    assert keys == [(1, 0), (2, 0), (0, 1), (0, 2)]
    return LaunchSpec(copies=[stmt], channels={7: keys}), keys


class TestAdvanceGroup:
    """Satellite: batched generation bumps, one implementation per launch
    context (the replayed ``OP_ADVN`` calls whichever it was bound to)."""

    def test_plain_sequences_all_advance(self):
        spec, keys = _one_copy_spec()
        ctx = CommContext(spec, 3)
        assert list(ctx.channels[7]) == keys
        seqs = [ctx.channels[7][k].acked for k in keys]
        events = [s.event_for(3) for s in seqs]
        ctx.advance_group(seqs, 3)
        assert all(ev.is_set() for ev in events)
        assert all(s.value == 3 for s in seqs)

    @pytest.mark.skipif(not procs_available(), reason="needs fork")
    def test_shared_domain_hook_dispatches(self):
        """The board's channels share one Condition: a batch is one lock
        round and one broadcast, and a repeat of it wakes nobody."""
        from repro.runtime.procs import BoardContext
        spec, keys = _one_copy_spec()
        ctx = BoardContext(spec, 3)
        assert len(ctx._chan_acked) == len(keys)
        rounds = Counter()
        cond = ctx._cond

        class Counting:
            def __enter__(self):
                rounds["lock"] += 1
                return cond.__enter__()

            def __exit__(self, *exc):
                return cond.__exit__(*exc)

            def notify_all(self):
                rounds["notify"] += 1
                cond.notify_all()

        seqs = [ctx.channels[7][k].acked for k in keys]
        ctx._cond = Counting()
        ctx.advance_group(seqs, 2)
        assert rounds == {"lock": 1, "notify": 1}
        ctx.advance_group(seqs, 2)
        assert rounds == {"lock": 2, "notify": 1}
        ctx._cond = cond
        assert all(s.value == 2 for s in seqs)
        assert all(ctx.channels[7][k].ready.value == 0 for k in keys)

    def test_net_sends_one_credit_per_peer(self):
        """A consumer's ack release is one CREDIT per producer shard, the
        two pairs shard 1 sends it included."""
        from repro.runtime.net import frame
        from repro.runtime.net.sync import NetCommContext
        spec, keys = _one_copy_spec()
        sent = []
        transport = SimpleNamespace(
            rank=0, register=lambda kind, handler: None,
            send=lambda peer, kind, payload: sent.append(
                (peer, kind, payload)))
        ctx = NetCommContext(None, transport, spec, 3)
        assert list(ctx.channels[7]) == keys  # every key names shard 0
        inbound = [ctx.channels[7][k].acked for k in keys if k[1] == 0]
        ctx.advance_group(inbound, 4)
        # Channel ids are positions in the spec's channel order.
        assert sent == [(1, frame.CREDIT, (0, 4)), (2, frame.CREDIT, (1, 4))]
        ctx.advance_group(inbound, 4)  # already granted: nothing on the wire
        assert len(sent) == 2
        ctx.advance_group(inbound[1:], 5)
        assert sent[2:] == [(2, frame.CREDIT, (1, 5))]

    def test_empty_group_is_a_noop(self):
        spec, _ = _one_copy_spec()
        CommContext(spec, 3).advance_group([], 5)


def _pass_stat(metrics, stat):
    return sum(inst.value for name, labels, inst in metrics.items()
               if name == "spmd_window_pass_stat_total"
               and labels.get("stat") == stat)


class TestBatchLaunch:
    """Tentpole lever: batchable point tasks lower to one body call."""

    def _run_stencil(self, tiles=16, shards=4, executor_shards=None):
        p = StencilProblem(n=24, radius=2, tiles=tiles, steps=6)
        metrics = MetricsRegistry()
        prog, _ = control_replicate(p.build_program(), num_shards=shards)
        ex = SPMDExecutor(num_shards=executor_shards or shards,
                          mode="stepped", metrics=metrics,
                          instances=p.fresh_instances())
        ex.run(prog)
        return p.extract_state(ex.instances), ex, metrics

    def test_batched_stencil_bit_identical(self, interpret_only):
        # Oversubscribed tiles (4 per shard) so batching actually fires:
        # the stencil body is coordinate-based, so one call over the
        # union of a shard's tiles must be bitwise equal to per-tile
        # calls — array_equal, not allclose.
        with interpret_only:
            st_off, ex_off, _ = self._run_stencil()
        st_jit, ex_jit, metrics = self._run_stencil()
        for k in st_off:
            assert np.array_equal(st_off[k], st_jit[k]), k
        assert counters(ex_off) == counters(ex_jit)
        # 2 launches x 4 shards batched, 4 point tasks each.
        assert _pass_stat(metrics, "batched_launches") == 8
        assert _pass_stat(metrics, "batched_tasks") == 32

    def test_batched_body_works_on_the_instances(self, monkeypatch):
        # A shard's colours are adjacent rows of one block per field, so
        # the arrays a batched body reads and writes are views of the
        # distributed instances — the same array object on every call,
        # nothing staged into a per-call buffer.
        seen = []

        def spy(accessor):
            def wrapper(view, field):
                arr = accessor(view, field)
                seen.append((view, field, arr))
                return arr
            return wrapper

        monkeypatch.setattr(_BatchedView, "read", spy(_BatchedView.read))
        monkeypatch.setattr(_BatchedView, "write", spy(_BatchedView.write))
        _, ex, metrics = self._run_stencil()
        assert _pass_stat(metrics, "batched_launches") == 8
        assert {field for _, field, _ in seen} == {"v"}
        same = {}
        for view, field, arr in seen:
            assert same.setdefault((id(view), field), arr) is arr
            assert arr.shape[0] == sum(v.n for v in view.views)
            for v in view.views:
                inst = ex.dist[(v.region.parent_partition.uid,
                                v.region.color)]
                assert np.shares_memory(arr, inst.fields[field])
        # OUT, IN and GHOST of the stencil, IN of the increment, per shard.
        assert len(same) == 4 * 4

    def test_straddling_shard_runs_per_point(self, interpret_only):
        # Compiled for 3 shards, run by a 2-shard executor: the executor's
        # blocks hold colours 0-5 and 6-11, so launch shard 1 (colours
        # 4-7) straddles both.  Its launches run per point; shards 0 and 2
        # still batch, and the state is the interpreter's, bit for bit.
        with interpret_only:
            st_off, ex_off, _ = self._run_stencil(tiles=12, shards=3,
                                                  executor_shards=2)
        st, ex, metrics = self._run_stencil(tiles=12, shards=3,
                                            executor_shards=2)
        for k in st_off:
            assert np.array_equal(st_off[k], st[k]), k
        assert counters(ex_off) == counters(ex)
        assert ex.window_compiles == 3
        assert _pass_stat(metrics, "batched_launches") == 2 * 2
        assert _pass_stat(metrics, "batched_tasks") == 2 * 2 * 4
        _, _, aligned = self._run_stencil(tiles=12, shards=3)
        assert _pass_stat(aligned, "batched_launches") == 2 * 3

    def test_single_tile_shards_not_batched(self):
        # One tile per shard: nothing to batch (a 1-entry launch pays no
        # per-tile dispatch), the pass must leave the launch alone.
        _, ex, metrics = self._run_stencil(tiles=4)
        assert ex.window_compiles == 4
        assert _pass_stat(metrics, "batched_launches") == 0

    def test_opt_in_only(self):
        # Fig2's tasks never declared `batchable`, so the pass must not
        # batch them — the contract is the app author's promise.
        fig2 = Fig2(steps=6)
        metrics = MetricsRegistry()
        prog, _ = control_replicate(fig2.build(), num_shards=2)
        ex = SPMDExecutor(num_shards=2, instances=fig2.fresh_instances(),
                          metrics=metrics)
        ex.run(prog)
        assert ex.window_compiles == 2
        assert _pass_stat(metrics, "batched_launches") == 0

    def test_scalar_reduction_launch_not_batched(self):
        # A batchable task folding into a scalar reduction stays
        # unbatched: one body call would regroup the fold order.
        Rg = region(ispace(size=16), {"v": np.float64}, name="R")
        I = ispace(size=4, name="I")
        P = partition_block(Rg, I, name="P")

        @task(privileges=[R("v")], name="lowest", batchable=True)
        def lowest(A):
            return float(A.points.min())

        def build():
            b = ProgramBuilder()
            b.let("T", 6)
            with b.for_range("t", 0, "T"):
                b.launch(lowest, I, P, reduce=("min", "lo"))
            return b.build()

        seq_scalars = SequentialExecutor().run(build())
        metrics = MetricsRegistry()
        prog, _ = control_replicate(build(), num_shards=2)
        ex = SPMDExecutor(num_shards=2, metrics=metrics)
        scalars = ex.run(prog)
        assert scalars["lo"] == seq_scalars["lo"]
        assert ex.window_compiles == 2
        assert _pass_stat(metrics, "batched_launches") == 0


def bubble_fission(ops, protect):
    """The pairwise-swap fission the one-sweep pass replaced, kept as its
    oracle: every ack advance bubbles backward and every ready wait
    forward, one slot at a time, until a fence or an op touching its
    protected arrays stops it.  Returns ``(ops, hoisted, sunk)``."""
    ops = list(ops)

    def stops(other, prot):
        fp = op_arrays(other)
        return (other[0] in (OP_BARRIER, OP_COLL) or fp is None
                or bool(fp & prot))

    hoisted = sunk = 0
    for i in range(len(ops)):
        op = ops[i]
        if op[0] != OP_ADVN or op[4] != "ack":
            continue
        prot = protect.get(op[2])
        if not prot:
            continue
        j = i
        while j > 0 and not stops(ops[j - 1], prot):
            ops[j], ops[j - 1] = ops[j - 1], ops[j]
            j -= 1
        hoisted += j != i
    for i in range(len(ops) - 1, -1, -1):
        op = ops[i]
        if op[0] != OP_WAITN or op[4] != "rdy":
            continue
        prot = protect.get(op[2])
        if not prot:
            continue
        j = i
        while j + 1 < len(ops) and not stops(ops[j + 1], prot):
            ops[j], ops[j + 1] = ops[j + 1], ops[j]
            j += 1
        sunk += j != i
    return ops, hoisted, sunk


def run_fission(ops, protect):
    wir = WindowIR(ops=list(ops), guards=[], copy_protect=protect)
    fission = FissionPass()
    return fission.run(wir, None).ops, fission.stats(wir)


def copy_op(dst, src):
    """A one-pair copy batch, ``src[0]`` into ``dst[0]``."""
    slot = np.zeros(1, dtype=np.int64)
    fc = FusedCopy.build((dst,), [((src,), slot, slot, 1)], None, None, 0, 8)
    return (OP_FUSED, FusedBatch(0, [fc], 1))


def same_ops(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


class TestFission:
    """The one-sweep pass must emit exactly what the swap loops did."""

    @pytest.mark.parametrize("mode", ["stepped", "threaded"])
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_matches_bubble_oracle_on_apps(self, app, mode, monkeypatch):
        windows = []  # appended from shard threads; list.append is atomic
        sweep_run = FissionPass.run

        def run(self, wir, ctx):
            before = list(wir.ops)
            wir = sweep_run(self, wir, ctx)
            windows.append((before, dict(wir.copy_protect), list(wir.ops),
                            self.stats(wir)))
            return wir

        monkeypatch.setattr(FissionPass, "run", run)
        APPS[app]().run_control_replicated(4, mode=mode)
        assert len(windows) >= 4  # one compiled window per shard
        moved = 0
        for before, protect, after, stats in windows:
            want, hoisted, sunk = bubble_fission(before, protect)
            assert same_ops(after, want), (app, mode)
            assert stats == {"hoisted_acks": hoisted,
                             "sunk_ready_waits": sunk}
            moved += hoisted + sunk
        # The comparison is not between two no-ops, on any app.  The
        # stencil's ack advance hoists past its increment launch, which
        # touches no halo destination: that launch used to sit inside a
        # mega-op with the stencil launch, whose footprint stopped it.
        assert moved > 0

    def test_matches_bubble_oracle_on_random_windows(self):
        # Shapes the apps never record: movers sharing a landing slot,
        # acks with nothing to protect, fences and unknown ops anywhere.
        import random
        arrays = [np.zeros(1) for _ in range(5)]

        def random_op(rng):
            r, uid = rng.random(), rng.randrange(4)
            if r < 0.25:
                return (OP_ADVN, ("s",), uid, 1, rng.choice(("ack", "rdy")))
            if r < 0.5:
                return (OP_WAITN, (("s", "w"),), uid, 1,
                        rng.choice(("ack", "rdy")))
            if r < 0.55:
                return (OP_ADVN, ("s", "t"), uid, 1, "ack")
            if r < 0.85:
                x, y = rng.sample(arrays, 2)
                return copy_op(x, y)
            if r < 0.9:
                return (OP_BARRIER, "bar", uid, 1, "barrier:x")
            return (99, "unknown") if r < 0.95 else (OP_COLL, "c", uid, 1, "n")

        moved = 0
        for seed in range(300):
            rng = random.Random(seed)
            protect = {uid: frozenset(id(a) for a in
                                      rng.sample(arrays, rng.randrange(3)))
                       for uid in range(3)}
            ops = [random_op(rng) for _ in range(rng.randrange(40))]
            got, stats = run_fission(ops, protect)
            want, hoisted, sunk = bubble_fission(ops, protect)
            assert same_ops(got, want), seed
            assert stats == {"hoisted_acks": hoisted,
                             "sunk_ready_waits": sunk}, seed
            moved += hoisted + sunk
        assert moved > 300

    def test_unknown_footprint_is_a_fence(self):
        # op_arrays promises that what it does not model is never crossed:
        # an op kind from the future, and a launch not yet frozen.
        a = np.zeros(2)
        copy = copy_op(a, a)
        ack = (OP_ADVN, ("seq",), 1, 1, "ack")
        rdy = (OP_WAITN, (("seq", "w"),), 1, 1, "rdy")
        protect = {1: frozenset({id(a)})}
        for unknown in ((99, "opaque"), (2, "stmt", (0, 1))):
            assert op_arrays(unknown) is None
            ops = [copy, unknown, ack]
            assert same_ops(run_fission(ops, protect)[0], ops)
            ops = [rdy, unknown, copy]
            assert same_ops(run_fission(ops, protect)[0], ops)
        # A known-empty op in the same place is crossed both ways.
        crossable = (OP_WAITN, (("other", "w"),), 9, 1, "ack")
        assert op_arrays(crossable) == frozenset()
        got, stats = run_fission([copy, crossable, ack, rdy, crossable, copy],
                                 protect)
        assert same_ops(got, [copy, ack, crossable, crossable, rdy, copy])
        assert stats == {"hoisted_acks": 1, "sunk_ready_waits": 1}


class TestFreezeCost:
    """Freeze work grows with the ops recorded, not with their square."""

    @pytest.mark.parametrize("pieces", [24, 96])
    def test_one_footprint_per_op(self, pieces, monkeypatch):
        # Deterministic stand-in for a timing bound: the swap loops
        # re-derived a neighbour's footprint at every step (2.27 M calls
        # for the 96-piece window); one sweep needs each op's once.
        calls = []

        def counting(op):
            calls.append(op[0])
            return op_arrays(op)

        monkeypatch.setattr(schedule, "op_arrays", counting)
        p = CircuitProblem(pieces=pieces, nodes_per_piece=20,
                           wires_per_piece=30, steps=4)
        _, _, ex, _ = p.run_control_replicated(2)
        assert ex.window_compiles == 2
        assert 0 < len(calls) <= 2 * ex.window_ops_lowered

    @pytest.mark.parametrize("pieces", [24, 96])
    def test_capture_steps_by_statement_not_by_pair(self, pieces,
                                                    monkeypatch):
        # Deterministic stand-ins for the capture cost: an interpreted copy
        # statement resumes its shard once (its preemption point) plus once
        # per event it actually had to wait for — it used to be four times
        # per pair — and records its copies plus a constant number of ops.
        resumptions = []
        exec_copy = SPMDExecutor._exec_copy

        def counting(self, stmt, state, ctx, rec=None):
            n = unset = 0
            for ev in exec_copy(self, stmt, state, ctx, rec):
                n += 1
                unset += ev is not None
                assert ev is None or not ev.is_set()
                yield ev
            resumptions.append((n, unset, rec is not None))

        monkeypatch.setattr(SPMDExecutor, "_exec_copy", counting)
        p = CircuitProblem(pieces=pieces, nodes_per_piece=20,
                           wires_per_piece=30, steps=4)
        _, _, ex, report = p.run_control_replicated(2)
        assert ex.replay_misses == interpreted_iterations() * 2
        assert resumptions and all(rec for _, _, rec in resumptions)
        assert all(n <= 2 + unset for n, unset, _ in resumptions)
        prog, _ = control_replicate(p.build_program(), num_shards=2)
        loop = next(s for s in walk(prog.body) if isinstance(s, ForRange))
        statements = sum(1 for _ in walk(loop.body))
        copies = ex.copies_performed // p.steps  # of one iteration
        assert copies > 40 * statements  # the bound below is about pairs
        assert ex.window_ops_recorded <= copies + 8 * statements * 2

    @pytest.mark.parametrize("pieces", [24, 96])
    def test_handshake_touches_shard_pairs_not_pairs(self, pieces,
                                                     monkeypatch):
        # Deterministic stand-ins for the handshake's cost: a window's
        # advance and wait ops name at most one sequence per peer shard
        # and phase, and an interpreted copy statement advances at most
        # one sequence per peer shard and direction — whatever the number
        # of intersection pairs.
        ns = 2
        ops = []
        build = window_exec.CompiledWindow.build.__func__

        def recording(cls, wir, state, comm, uid=0):
            ops.append(list(wir.ops))
            return build(cls, wir, state, comm, uid)

        monkeypatch.setattr(window_exec.CompiledWindow, "build",
                            classmethod(recording))
        advances = [0]
        advance_to = Sequence.advance_to

        def counting(self, n):
            advances[0] += 1
            return advance_to(self, n)

        monkeypatch.setattr(Sequence, "advance_to", counting)
        per_stmt = []
        exec_copy = SPMDExecutor._exec_copy

        def measured(self, stmt, state, ctx, rec=None):
            # Only this statement's own turns: under the stepped driver
            # the other shard runs between two of its resumptions.
            gen, n = exec_copy(self, stmt, state, ctx, rec), 0
            while True:
                before = advances[0]
                try:
                    ev = next(gen)
                except StopIteration:
                    n += advances[0] - before
                    break
                n += advances[0] - before
                yield ev
            per_stmt.append(n)

        monkeypatch.setattr(SPMDExecutor, "_exec_copy", measured)
        p = CircuitProblem(pieces=pieces, nodes_per_piece=20,
                           wires_per_piece=30, steps=4)
        _, _, ex, _ = p.run_control_replicated(ns)
        prog, _ = control_replicate(p.build_program(), num_shards=ns)
        loop = next(s for s in walk(prog.body) if isinstance(s, ForRange))
        copies = sum(isinstance(s, PairwiseCopy) for s in walk(loop.body))
        pairs = ex.copies_performed // p.steps  # of one iteration
        assert copies and pairs > 10 * copies * 4 * (ns - 1)
        assert len(ops) == ex.window_compiles == ns
        for window in ops:
            named = sum(len(op[1]) for op in window
                        if op[0] in (OP_ADVN, OP_WAITN))
            assert 0 < named <= 4 * copies * (ns - 1)
        assert len(per_stmt) == copies * ns * interpreted_iterations()
        assert 0 < max(per_stmt) <= 2 * (ns - 1)

    def test_pair_copies_lowered_once_per_run(self, monkeypatch):
        batches, lowered = [], []
        pointwise = Counter()  # per-pair work done inside a lowering
        lower = spmd.lower_copy

        def counting(stmt, pairs, width, visits):
            batches.append(stmt.uid)
            lowered.extend((stmt.uid, id(src), id(dst))
                           for src, dst, _, _ in pairs)
            pointwise["on"] += 1
            try:
                return lower(stmt, pairs, width, visits)
            finally:
                pointwise["on"] -= 1

        monkeypatch.setattr(spmd, "lower_copy", counting)
        for cls, name in ((IntervalSet, "to_indices"),
                          (PhysicalInstance, "localize")):
            def counted(self, *args, _fn=getattr(cls, name)):
                pointwise["calls"] += pointwise["on"]
                return _fn(self, *args)
            monkeypatch.setattr(cls, name, counted)
        fig2 = Fig2(steps=6)
        seq = SequentialExecutor(instances=fig2.fresh_instances())
        seq.run(fig2.build())
        seq.run(fig2.build())
        prog, _ = control_replicate(fig2.build(), num_shards=2)
        copies = sum(isinstance(s, PairwiseCopy) for s in walk(prog.body))
        ex = SPMDExecutor(num_shards=2, instances=fig2.fresh_instances())
        ex.run(prog)
        # The captured iterations of each shard (one: the body has no guard).
        assert ex.replay_misses == interpreted_iterations() * 2
        first = len(lowered)
        # One lowering per copy statement per shard, every pair once.
        assert first > 0 and len(set(lowered)) == first
        assert 0 < len(batches) <= copies * 2
        assert pointwise["calls"] == 0
        # A new run re-allocates the instances, so nothing carries over.
        ex.run(prog)
        assert len(lowered) == 2 * first
        for uid in (fig2.A.uid, fig2.B.uid):
            assert np.array_equal(ex.instances[uid].fields["v"],
                                  seq.instances[uid].fields["v"])
        # A guard-fallback iteration runs under a recorder too, with the
        # batches its launch lowered: after the freeze, a statement that
        # already ran lowers nothing on a miss (the one inside the branch
        # lowers at its first run), in this run or in a resident
        # executor's next one.
        del batches[:], lowered[:]
        fig2 = Fig2(steps=1)
        prog, _ = control_replicate(
            TestGuardFallback()._program_with_branch(fig2, 8, 5),
            num_shards=2)
        copies = sum(isinstance(s, PairwiseCopy) for s in walk(prog.body))
        ex = SPMDExecutor(num_shards=2, instances=fig2.fresh_instances(),
                          retain_plans=True)
        ran, misses = set(), []
        exec_copy = SPMDExecutor._exec_copy

        def watching(self, stmt, state, ctx, rec=None):
            frozen = any(lr.trace is not None
                         for lr in state.loop_replays.values())
            again = (state.shard, stmt.uid) in ran
            ran.add((state.shard, stmt.uid))
            gen, before = exec_copy(self, stmt, state, ctx, rec), len(batches)
            # A statement lowers, if at all, before its first yield: no
            # other shard has run in between.
            ev = next(gen, gen)
            if frozen and again:
                misses.append(len(batches) - before)
            while ev is not gen:
                yield ev
                ev = next(gen, gen)

        monkeypatch.setattr(SPMDExecutor, "_exec_copy", watching)
        try:
            ex.run(prog)
            assert ex.replay_guard_fallbacks == 2  # t == 5, on each shard
            assert len(set(lowered)) == len(lowered)
            assert len(batches) == copies * 2
            ex.run(prog)
            assert ex.replay_guard_fallbacks == 2 * 2
            assert misses and misses == [0] * len(misses)
            assert len(batches) == copies * 2
        finally:
            ex.reset_session()

    @pytest.mark.parametrize("app", sorted(APPS))
    def test_batched_lowering_matches_per_pair(self, app, monkeypatch):
        # The stacked localization against each pair's own, point by point.
        checked = Counter()
        stacked = copy_engine.localize

        def checking(insts, sets):
            out = stacked(insts, sets)
            assert len(out) == len(sets)
            for inst, pts, got in zip(insts, sets, out):
                want = inst.localize(pts.to_indices())
                assert got.dtype == want.dtype and np.array_equal(got, want)
                checked["slices" if isinstance(_as_index(want), slice)
                        else "arrays"] += 1
            if len(sets) > 1:  # one pair alone localizes the same
                assert np.array_equal(stacked(insts[-1:], sets[-1:])[0],
                                      out[-1])
            return out

        monkeypatch.setattr(copy_engine, "localize", checking)
        batches = []
        lower = spmd.lower_copy

        def recording(stmt, pairs, width, visits):
            batch = lower(stmt, pairs, width, visits)
            batches.append((stmt, pairs, width, visits, batch))
            return batch

        monkeypatch.setattr(spmd, "lower_copy", recording)
        # Threaded, so that reduction pairs carry real locks.
        APPS[app]().run_control_replicated(2, mode="threaded")
        assert checked["slices"] + checked["arrays"] > 0
        if app in ("circuit", "pennant"):
            assert checked["arrays"] > 0  # unstructured: gathers, not slices
        for stmt, pairs, width, visits, batch in batches:
            if pairs:
                assert width == sum(pairs[0][1].fields[f].dtype.itemsize
                                    for f in stmt.fields)
            count = sum(int(pts.count) for _, _, pts, _ in pairs)
            assert (batch.uid, batch.visits) == (stmt.uid, visits)
            assert (batch.pair_count, batch.count) == (len(pairs), count)
            assert batch.nbytes == count * width
            assert type(batch.count) is int and type(batch.nbytes) is int
            lock = {id(dst.fields[stmt.fields[0]]): lk
                    for _, dst, _, lk in pairs}
            assert all(item.lock is lock[id(item.dst_arrays[0])]
                       and item.uid == stmt.uid for item in batch.items)

    @pytest.mark.parametrize("mode", ["stepped", "threaded"])
    def test_finished_run_frees_its_windows_without_gc(self, mode,
                                                       monkeypatch):
        # Shard state <-> compiled-window closures is a reference cycle;
        # a finished run must break it itself, or every run's instances
        # sit in memory until the cyclic collector happens to pass.
        windows = []
        build = window_exec.CompiledWindow.build.__func__

        def tracking(cls, *args, **kw):
            cw = build(cls, *args, **kw)
            windows.append(weakref.ref(cw))
            return cw

        monkeypatch.setattr(window_exec.CompiledWindow, "build",
                            classmethod(tracking))
        gc.collect()
        gc.disable()
        try:
            APPS["stencil"]().run_control_replicated(2, mode=mode)
            assert len(windows) == 2
            assert all(ref() is None for ref in windows)
        finally:
            gc.enable()


class TestObservability:
    def test_window_metrics_and_jit_spans(self):
        fig2 = Fig2(steps=6)
        tracer = Tracer()
        metrics = MetricsRegistry()
        prog, _ = control_replicate(fig2.build(), num_shards=2,
                                    tracer=tracer, metrics=metrics)
        ex = SPMDExecutor(num_shards=2, instances=fig2.fresh_instances(),
                          tracer=tracer, metrics=metrics)
        ex.run(prog)
        # Every replayed iteration is a replay:iteration row per shard,
        # category jit (its self time is closure dispatch), holding the
        # window's per-phase compute/copy rows under the loop's uid.
        rows = [e for e in tracer.events()
                if e.get("ph") == "X" and e["pid"] == PID_SPMD]
        iters = [e for e in rows if e["name"] == "replay:iteration"]
        assert len(iters) == ex.replay_hits > 0
        assert all(e["cat"] == "jit" for e in iters)
        loops = {e["args"]["uid"] for e in iters}
        phases = Counter(e["name"] for e in rows
                         if e["args"]["uid"] in loops)
        assert phases["jit:compute"] and phases["jit:copy"]
        # The window passes run without a tracer: one run of each per
        # compiled window (one window per shard), counted in metrics.
        passes = [p.name for p in window_exec.window_passes()]
        assert passes == ["freeze-tasks", "batch-launch", "fission"]
        runs = {labels["pass"]: inst.value
                for name, labels, inst in metrics.items()
                if name == "spmd_window_pass_runs_total"}
        assert runs == {name: 2 for name in passes}
        assert not any(e["name"].startswith("window:")
                       and e["name"] != "window:compile" for e in rows)
        assert _pass_stat(metrics, "launches") > 0
        got = {name for name, _, _ in metrics.items()}
        assert "spmd_window_ops_total" in got
        assert "spmd_window_closures_total" in got
        assert "spmd_window_compiles_total" in got
        assert "spmd_window_pass_runs_total" in got

    def test_window_dump_after(self, capsys):
        fig2 = Fig2(steps=5)
        prog, _ = control_replicate(fig2.build(), num_shards=2)
        dumped = []
        ex = SPMDExecutor(num_shards=2, instances=fig2.fresh_instances())
        ex.window_dump_after = frozenset({"fission"})
        ex.window_dump_sink = lambda name, text: dumped.append((name, text))
        ex.run(prog)
        assert dumped  # one dump per compiled window
        assert all(name == "fission" for name, _ in dumped)
        assert all(text.startswith("window:") for _, text in dumped)

    def test_window_counters_funnel_through_procs(self):
        if not procs_available():
            pytest.skip("fork unavailable")
        p = APPS["stencil"]()
        _, _, ex, _ = p.run_control_replicated(4, mode="procs")
        assert ex.window_compiles == 4
        assert ex.window_ops_recorded == ex.window_ops_lowered > 0
        assert ex.window_closures > 0

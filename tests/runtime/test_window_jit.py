"""The window compiler: compiled windows must be invisible except for speed.

Covers the window-compiler pipeline end to end: sequential equivalence
and counter parity across all four apps and all three backends against
the interpreter, scalar writes (an evolving scalar is never frozen, and a
guard-fallback iteration that writes one keeps the window), the
verifier's failure path, the batched advance path, batched launches and
the one launch plan per (statement, shard) that the interpreter and the
window both run, privilege checks on replayed calls, the one-sweep
fission pass against its pairwise-swap oracle, the cost of a freeze
(footprint derivations, one copy lowering per statement and shard, the
stacked localization against the per-pair one, finished-run lifetime),
and
the observability surface (``spmd_window_*`` metrics, the
``replay:iteration`` rows a tracer renders, pass dumps).
"""

import dataclasses
import gc
import multiprocessing
import re
import threading
import time
import weakref
from collections import Counter, defaultdict
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
from repro.core.shards import owner_of_color
from repro.obs import PID_SPMD, MetricsRegistry, Tracer
from repro.regions import (
    IntervalSet,
    PhysicalInstance,
    ispace,
    partition_block,
    region,
)
from repro.regions.intervals import expand_ranges
from repro.regions.shm import live_segment_count
from repro.tasks import PrivilegeError, R, task
from repro.runtime import (
    ReplayError,
    SequentialExecutor,
    ShardExceptionGroup,
    SPMDExecutor,
    procs_available,
)
from repro.runtime import copy_engine, launch_plan, spmd
from repro.runtime.copy_engine import FusedBatch, FusedCopy, _as_index
from repro.runtime.events import Sequence
from repro.runtime.launch import CommContext, LaunchSpec, channel_keys
from repro.runtime.window import exec as window_exec
from repro.runtime.window import schedule
from repro.runtime.launch_plan import BatchedView, CopyPlan
from repro.runtime.window.ir import WindowIR, op_arrays
from repro.runtime.window.recorder import (
    OP_ADVN,
    OP_COLL,
    OP_FUSED,
    OP_TASK,
    OP_WAITN,
    IterationRecorder,
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
        # one pass only reorders, so what shrinks is the closure count:
        # launches and copies are recorded in their final form.
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


class TestBoundState:
    def test_replay_against_another_shard_state_raises(self, monkeypatch):
        """A window's closures captured the state it was built against;
        replaying it against any other raises instead of running."""
        build = window_exec.CompiledWindow.build.__func__
        built = []

        def spy(cls, *args, **kw):
            built.append(build(cls, *args, **kw))
            return built[-1]

        monkeypatch.setattr(window_exec.CompiledWindow, "build",
                            classmethod(spy))
        fig2 = Fig2(steps=3)
        prog, _ = control_replicate(fig2.build(), num_shards=2)
        SPMDExecutor(num_shards=2, instances=fig2.fresh_instances()).run(prog)
        first, second = built
        assert first.bound_state is not second.bound_state
        with pytest.raises(ReplayError, match="not built for"):
            next(first.replay(second.bound_state))


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
        """A board slot has one waiting shard: a batch stores every slot,
        then rings each distinct waiting shard's bell once, and a repeat
        of it rings none."""
        from repro.runtime.procs import BoardContext
        spec, keys = _one_copy_spec()
        ctx = BoardContext(spec, 3)
        assert len(ctx._chan_acked) == len(keys)
        rings = Counter()

        class Counting:
            def __init__(self, shard, bell):
                self.shard, self.bell = shard, bell

            def release(self):
                rings[self.shard] += 1
                self.bell.release()

        counting = {id(b): Counting(s, b)
                    for s, b in enumerate(ctx._bells.all)}
        seqs = [ctx.channels[7][k].acked for k in keys]
        for seq in seqs:  # an ack wakes the producer: shards 1, 2, 0, 0
            seq._bell = counting[id(seq._bell)]
        ctx.advance_group(seqs, 2)
        assert rings == {0: 1, 1: 1, 2: 1}
        ctx.advance_group(seqs, 2)
        assert rings == {0: 1, 1: 1, 2: 1}
        assert all(s.value == 2 for s in seqs)
        assert all(ctx.channels[7][k].ready.value == 0 for k in keys)

    def test_net_sends_one_credit_per_peer(self):
        """A consumer's ack release queues one CREDIT per producer shard,
        the two pairs shard 1 sends it included; each leaves in the same
        sendall as the next MSG to its peer, or on its own just before
        the rank blocks."""
        from repro.runtime.net import frame
        from repro.runtime.net.sync import NetCommContext
        from repro.runtime.net.transport import Transport, bind_listeners
        spec, keys = _one_copy_spec()
        listeners, addrs = bind_listeners(3)
        ts = [Transport(r, 3, listeners[r], addrs) for r in range(3)]
        got = {1: [], 2: []}
        for r in (1, 2):
            for kind in (frame.MSG, frame.CREDIT):
                ts[r].register(kind, lambda peer, body, r=r, kind=kind:
                               got[r].append((kind, body)))
        ctx = NetCommContext(ts[0], spec, 3)
        assert list(ctx.channels[7]) == keys  # every key names shard 0
        dials = [threading.Thread(target=t.connect_all) for t in ts]
        for th in dials:
            th.start()
        for th in dials:
            th.join(30.0)
        sendalls = Counter()

        class Spy:
            def __init__(self, peer, sock):
                self.peer, self.sock = peer, sock

            def sendall(self, data):
                sendalls[self.peer] += 1
                self.sock.sendall(data)

            def __getattr__(self, name):
                return getattr(self.sock, name)

        ts[0]._socks = {p: Spy(p, s) for p, s in ts[0]._socks.items()}
        for t in ts:
            t.start_receivers()

        def arrived(r, n):
            deadline = time.monotonic() + 10.0
            while len(got[r]) < n and time.monotonic() < deadline:
                time.sleep(0.005)
            return [(kind, frame.credit_body(body) if kind == frame.CREDIT
                     else frame.msg_head(body)) for kind, body in got[r]]

        try:
            inbound = [ctx.channels[7][k].acked for k in keys if k[1] == 0]
            ctx.advance_group(inbound, 4)
            # The handshake's HELLO frames are all shard 0 sent so far.
            assert ts[0].stats()["messages_sent"] == {"hello": 2}
            assert not sendalls
            # The next frame to shard 1 carries its credit; channel ids
            # are positions in the spec's channel order.
            ts[0].send_msg(1, [frame.msg_prefix(7, 0), frame.pack_gen(1)])
            assert sendalls == {1: 1}
            assert arrived(1, 2) == [(frame.CREDIT, (0, 4)),
                                     (frame.MSG, (7, 1))]
            # Shard 2's leaves on its own once the rank is about to block.
            block = ctx.channels[7][(0, 1)].acked.event_for(3)
            assert not block.wait_blocking(0.01)
            assert sendalls == {1: 1, 2: 1}
            assert arrived(2, 1) == [(frame.CREDIT, (1, 4))]
            ctx.advance_group(inbound, 4)  # already granted: nothing queued
            assert not block.wait_blocking(0.01)
            assert sendalls == {1: 1, 2: 1}
            ctx.advance_group(inbound[1:], 5)
            assert not block.wait_blocking(0.01)
            assert arrived(2, 2)[1:] == [(frame.CREDIT, (1, 5))]
            assert ts[0].stats()["messages_sent"] == {
                "hello": 2, "credit": 3, "msg": 1}
            assert sendalls == {1: 1, 2: 2}
        finally:
            for t in ts:
                t.close()

    def test_net_credit_without_a_ride_leaves_at_once(self):
        """A CREDIT to a producer that the consumer's side of the same
        statement sends no MSG has nothing to ride: the ack release sends
        it at once, so the producer is not held to the consumer's next
        block.  The one to a producer it does send waits for that MSG."""
        from repro.runtime.net import frame
        from repro.runtime.net.sync import NetCommContext
        from repro.runtime.net.transport import Transport
        part = SimpleNamespace(num_colors=6)
        stmt = SimpleNamespace(uid=7, src=part, dst=part)
        keys = channel_keys(stmt, [(2, 0), (4, 0), (0, 2)], 3)
        assert keys == [(1, 0), (2, 0), (0, 1)]  # shard 0 sends 2 nothing
        sent = []

        class Recording(Transport):
            def _write(self, peer, data, counts):
                sent.append((peer, data))

        t = Recording(0, 3, None, [("127.0.0.1", 0)] * 3)
        ctx = NetCommContext(t, LaunchSpec(copies=[stmt],
                                                 channels={7: keys}), 3)
        ctx.advance_group([ctx.channels[7][k].acked for k in keys[:2]], 4)
        assert sent == [(2, frame.credit_frame(1, 4))]
        head = [frame.msg_prefix(7, 0), frame.pack_gen(1)]
        t.send_msg(1, head)
        assert sent[1:] == [(1, b"".join([frame.credit_frame(0, 4), *head]))]

    def test_empty_group_is_a_noop(self):
        spec, _ = _one_copy_spec()
        CommContext(spec, 3).advance_group([], 5)


def _pass_stat(metrics, stat):
    return sum(inst.value for name, labels, inst in metrics.items()
               if name == "spmd_window_pass_stat_total"
               and labels.get("stat") == stat)


def lowered_plans(monkeypatch) -> list:
    """Every LaunchPlan the shards lower from here on (in-process
    backends): one per (launch statement, shard)."""
    plans = []
    lower = launch_plan.lower_launch

    def recording(*args, **kw):
        plan = lower(*args, **kw)
        plans.append(plan)
        return plan

    monkeypatch.setattr(launch_plan, "lower_launch", recording)
    return plans


def is_batched(plan) -> bool:
    return len(plan.calls) == 1 and plan.points > 1


def batched(plans) -> tuple[int, int]:
    """``(batched launches, point tasks in them)`` of lowered plans."""
    mine = [p for p in plans if is_batched(p)]
    return len(mine), sum(p.points for p in mine)


class TestBatchLaunch:
    """Batchable point tasks lower to one body call per shard block."""

    def _run_stencil(self, monkeypatch, tiles=16, shards=4,
                     executor_shards=None):
        p = StencilProblem(n=24, radius=2, tiles=tiles, steps=6)
        plans = lowered_plans(monkeypatch)
        prog, _ = control_replicate(p.build_program(), num_shards=shards)
        ex = SPMDExecutor(num_shards=executor_shards or shards,
                          mode="stepped", instances=p.fresh_instances())
        ex.run(prog)
        monkeypatch.undo()
        seq, _, _ = p.run_sequential()
        return p.extract_state(ex.instances), seq, ex, plans

    def test_batched_stencil_bit_identical(self, monkeypatch,
                                           interpret_only):
        # Oversubscribed tiles (4 per shard) so batching actually fires:
        # the stencil body is coordinate-based, so one call over the
        # union of a shard's tiles must be bitwise equal to the sequential
        # executor's per-tile calls — array_equal, not allclose — whether
        # the shard interprets every iteration or replays its window.
        with interpret_only:
            st_off, seq, ex_off, plans_off = self._run_stencil(monkeypatch)
        st_jit, _, ex_jit, plans = self._run_stencil(monkeypatch)
        for k in seq:
            assert np.array_equal(st_off[k], seq[k]), k
            assert np.array_equal(st_jit[k], seq[k]), k
        assert counters(ex_off) == counters(ex_jit)
        assert ex_off.window_compiles == 0 < ex_jit.window_compiles
        # 2 launches x 4 shards batched, 4 point tasks each, both forms.
        assert batched(plans_off) == batched(plans) == (8, 32)

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

        read, write = BatchedView.read, BatchedView.write
        monkeypatch.setattr(BatchedView, "read", spy(read))
        monkeypatch.setattr(BatchedView, "write", spy(write))
        plans = lowered_plans(monkeypatch)
        p = StencilProblem(n=24, radius=2, tiles=16, steps=6)
        _, _, ex, _ = p.run_control_replicated(4)
        assert batched(plans) == (8, 32)
        assert {field for _, field, _ in seen} == {"v"}
        same = {}
        for view, field, arr in seen:
            assert same.setdefault((id(view), field), arr) is arr
            assert arr.shape[0] == sum(r.volume for r in view.regions)
            for r in view.regions:
                inst = ex.dist[(r.parent_partition.uid, r.color)]
                assert np.shares_memory(arr, inst.fields[field])
        # OUT, IN and GHOST of the stencil, IN of the increment, per shard.
        assert len(same) == 4 * 4

    def test_straddling_shard_runs_per_point(self, monkeypatch,
                                             interpret_only):
        # Compiled for 3 shards, run by a 2-shard executor: the executor's
        # blocks hold colours 0-5 and 6-11, so launch shard 1 (colours
        # 4-7) straddles both.  Its launches run per point; shards 0 and 2
        # still batch, and the state is the sequential one, bit for bit,
        # whether the shards interpret every iteration or replay.
        with interpret_only:
            st_off, seq, ex_off, plans_off = self._run_stencil(
                monkeypatch, tiles=12, shards=3, executor_shards=2)
        st, _, ex, plans = self._run_stencil(monkeypatch, tiles=12,
                                             shards=3, executor_shards=2)
        for k in seq:
            assert np.array_equal(st_off[k], seq[k]), k
            assert np.array_equal(st[k], seq[k]), k
        assert counters(ex_off) == counters(ex)
        assert ex_off.window_compiles == 0
        assert batched(plans_off) == batched(plans)
        assert ex.window_compiles == 3
        assert batched(plans) == (2 * 2, 2 * 2 * 4)
        straddling = [p for p in plans if not is_batched(p)]
        assert len(straddling) == 2
        assert all(len(p.calls) == p.points == 4 for p in straddling)
        _, _, _, aligned = self._run_stencil(monkeypatch, tiles=12, shards=3)
        assert batched(aligned) == (2 * 3, 2 * 3 * 4)

    def test_single_tile_shards_not_batched(self, monkeypatch):
        # One tile per shard: nothing to batch (a 1-entry launch pays no
        # per-tile dispatch), the launch keeps its one per-point call.
        _, _, ex, plans = self._run_stencil(monkeypatch, tiles=4)
        assert ex.window_compiles == 4
        assert len(plans) == 2 * 4 and batched(plans) == (0, 0)

    def test_opt_in_only(self, monkeypatch):
        # Fig2's tasks never declared `batchable`, so no launch batches —
        # the contract is the app author's promise.
        fig2 = Fig2(steps=6)
        plans = lowered_plans(monkeypatch)
        prog, _ = control_replicate(fig2.build(), num_shards=2)
        ex = SPMDExecutor(num_shards=2, instances=fig2.fresh_instances())
        ex.run(prog)
        assert ex.window_compiles == 2
        assert len(plans) == 2 * 2 and batched(plans) == (0, 0)
        assert all(len(p.calls) == p.points == 2 for p in plans)

    def test_scalar_reduction_launch_not_batched(self, monkeypatch):
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
        plans = lowered_plans(monkeypatch)
        prog, _ = control_replicate(build(), num_shards=2)
        ex = SPMDExecutor(num_shards=2)
        scalars = ex.run(prog)
        assert scalars["lo"] == seq_scalars["lo"]
        assert ex.window_compiles == 2
        assert len(plans) == 2 and batched(plans) == (0, 0)


class TestBatchedEqualsPerPoint:
    """Circuit's and PENNANT's batched launches against the same tasks
    forced per point: a destination row's contributions come from one
    piece's wires or zones, in their order, either way, so the states are
    bitwise equal wherever the cross-shard fold order is fixed — on
    ``net`` (consumer-side apply in program order) and on one shard.  On
    ``stepped`` with several shards the seed's interleaving orders the
    locked cross-shard folds, and batching changes the interleaving (one
    preemption point per call); there every batched state is one the
    per-point runs reach too.  ``threaded``/``procs`` fold in arrival
    order, which varies from run to run, so they are checked against the
    sequential executor only (``TestAppEquivalence``)."""

    PROBLEMS = {
        "circuit": lambda: CircuitProblem(pieces=12, nodes_per_piece=20,
                                          wires_per_piece=30, steps=4),
        "pennant": lambda: PennantProblem(nx=12, ny=12, pieces=6, steps=4),
    }

    def _state(self, app, per_point, shards=3, **kw):
        p = self.PROBLEMS[app]()
        if per_point:
            p.tasks = tuple(dataclasses.replace(t, batchable=False)
                            for t in p.tasks)
        st, _, ex, _ = p.run_control_replicated(shards, **kw)
        return st, ex

    @staticmethod
    def _key(st):
        return tuple(st[k].tobytes() for k in sorted(st))

    @pytest.mark.parametrize("app", sorted(PROBLEMS))
    def test_one_shard_stepped_and_net_bitwise(self, app):
        seq, _, _ = self.PROBLEMS[app]().run_sequential()
        runs = [((1, "stepped") if backend == "stepped" else (3, backend))
                for backend in ["stepped"] + (
                    ["net"] if procs_available() else [])]
        for shards, mode in runs:
            batched, ex_b = self._state(app, False, shards, mode=mode)
            per_point, ex_p = self._state(app, True, shards, mode=mode)
            assert counters(ex_b) == counters(ex_p)
            for k in seq:
                assert np.array_equal(batched[k], per_point[k]), (mode, k)
                assert np.allclose(batched[k], seq[k], rtol=1e-11,
                                   atol=1e-13), (mode, k)

    @pytest.mark.parametrize("app", sorted(PROBLEMS))
    def test_stepped_states_are_per_point_states(self, app):
        # Circuit reaches 4 distinct states over 40 seeds, PENNANT 6, some
        # of them on 1 seed in 20, batched or not; 40 per-point seeds
        # reach them all.
        seq, _, _ = self.PROBLEMS[app]().run_sequential()
        reachable = {self._key(self._state(app, True, mode="stepped",
                                           seed=seed)[0])
                     for seed in range(40)}
        for seed in range(4):
            st, _ = self._state(app, False, mode="stepped", seed=seed)
            assert self._key(st) in reachable, seed
            for k in seq:
                assert np.allclose(st[k], seq[k], rtol=1e-11, atol=1e-13)


# Up while this thread compiles a window or runs a step of a replay.
_in_window = threading.local()


class TestOneLaunchPlan:
    """An index launch lowers once per (statement, shard), the first time
    the shard reaches it: the plan the interpreter runs is the one the
    window replays, and its inspectors run at that moment only."""

    @staticmethod
    def _count_inspectors(tasks, calls: list):
        """Wrap each task's inspector to log ``(task, first view's region
        uid, its n, inside a window?)`` into ``calls``."""
        for t in tasks:
            def counting(*views, t=t, inner=t.inspect):
                calls.append((t.name, views[0].region.uid, views[0].n,
                              getattr(_in_window, "on", False)))
                return inner(*views)
            t.inspect = counting

    @pytest.mark.parametrize("mode", ["stepped", "threaded"])
    def test_stencil_inspects_once_per_shard_block(self, mode):
        p = StencilProblem(n=24, radius=2, tiles=16, steps=6)
        calls = []
        self._count_inspectors([p.stencil_task], calls)
        _, _, ex, _ = p.run_control_replicated(4, mode=mode)
        assert ex.replay_hits == (6 - interpreted_iterations()) * 4
        # 4 batched plans, not 16 per-tile ones and 4 more at the freeze;
        # each covers its shard's 4 tiles, together every point once.
        assert len(calls) == 4
        assert sum(n for _, _, n, _ in calls) == 24 * 24

    @pytest.mark.parametrize("mode", ["stepped", "threaded"])
    def test_circuit_inspects_once_per_shard(self, mode):
        # Once per (statement, shard): each shard's launches of the three
        # batchable tasks are one call over its 4 pieces' block rows.
        p = CircuitProblem(pieces=8, nodes_per_piece=20, wires_per_piece=30,
                           steps=5)
        calls = []
        self._count_inspectors(p.tasks, calls)
        _, _, ex, _ = p.run_control_replicated(2, mode=mode)
        assert ex.replay_hits > 0
        assert len(calls) == 3 * 2
        assert Counter(name for name, *_ in calls) == {
            t.name: 2 for t in p.tasks}
        # Each covers its shard's half of the wires (or private nodes).
        wires = Counter(n for name, _, n, _ in calls
                        if name != "update_voltage")
        assert wires == {4 * 30: 4}

    @staticmethod
    def _count_bodies(tasks, calls: Counter):
        """Wrap each task's body to count its calls by task name."""
        for t in tasks:
            def counting(*args, t=t, inner=t.fn, **kw):
                calls[t.name] += 1
                return inner(*args, **kw)
            t.fn = counting

    def test_circuit_cold_shape_is_one_call_per_statement_and_shard(self):
        # circuit_cold's shape: 48 pieces a shard, inspected 6 times (3
        # tasks x 2 shards), not 288 (3 x 96), and each shard's circuit
        # launches are 3 body calls an iteration, interpreted or replayed.
        p = CircuitProblem(pieces=96, nodes_per_piece=40, wires_per_piece=60,
                           steps=4)
        inspected, bodies = [], Counter()
        self._count_inspectors(p.tasks, inspected)
        self._count_bodies(p.tasks, bodies)
        _, _, ex, _ = p.run_control_replicated(2, mode="stepped")
        assert ex.replay_hits > 0
        assert len(inspected) == 6
        assert bodies == {t.name: 2 * p.steps for t in p.tasks}
        assert ex.tasks_executed == 3 * 96 * p.steps

    def test_pennant_is_one_call_per_batchable_statement_and_shard(self):
        # calc_state, zero_forces, calc_forces and advance batch (advance's
        # dt is re-read each call but is the same for every point);
        # calc_dt folds a scalar, so it keeps one call per piece.
        p = PennantProblem(nx=12, ny=12, pieces=8, steps=4)
        inspected, bodies = [], Counter()
        planned = [t for t in p.tasks if t.inspect is not None]
        assert {t.name for t in planned} == {"calc_state", "calc_forces"}
        self._count_inspectors(planned, inspected)
        self._count_bodies(p.tasks, bodies)
        _, _, ex, _ = p.run_control_replicated(2, mode="stepped")
        assert ex.replay_hits > 0
        assert len(inspected) == 2 * 2
        batched = {"calc_state", "zero_forces", "calc_forces", "advance"}
        assert bodies == {t.name: 2 * p.steps if t.name in batched
                          else 8 * p.steps for t in p.tasks}

    @pytest.mark.parametrize("mode", ["stepped", "threaded"])
    def test_no_inspector_runs_in_a_window(self, mode, monkeypatch):
        compile_window = window_exec.compile_window
        replay = window_exec.CompiledWindow.replay

        def compiling(*args, **kw):
            _in_window.on = True
            try:
                return compile_window(*args, **kw)
            finally:
                _in_window.on = False

        def replaying(cw, state):
            steps = replay(cw, state)
            while True:
                _in_window.on = True
                try:
                    ev = next(steps)
                except StopIteration:
                    return
                finally:
                    _in_window.on = False
                yield ev

        monkeypatch.setattr(window_exec, "compile_window", compiling)
        monkeypatch.setattr(window_exec.CompiledWindow, "replay", replaying)
        calls = []
        stencil = StencilProblem(n=24, radius=2, tiles=8, steps=5)
        self._count_inspectors([stencil.stencil_task], calls)
        circuit = APPS["circuit"]()
        self._count_inspectors(circuit.tasks, calls)
        for p in (stencil, circuit):
            _, _, ex, _ = p.run_control_replicated(2, mode=mode)
            assert ex.window_compiles == 2 and ex.replay_hits > 0
        assert calls and not any(inside for *_, inside in calls)

    @pytest.mark.parametrize("mode", ["stepped", "threaded"])
    @pytest.mark.parametrize("app", ["circuit", "stencil"])
    def test_interpreter_and_window_run_one_plan(self, app, mode,
                                                 monkeypatch):
        lowered, recorded, replayed = [], [], []
        runs = Counter()  # id(plan) -> body calls made through it
        lower = launch_plan.lower_launch

        def lowering(*args, **kw):
            plan = lower(*args, **kw)
            lowered.append(plan)
            for call in plan.calls:
                def counted(*a, fn=call.fn, key=id(plan)):
                    runs[key] += 1
                    return fn(*a)
                call.fn = counted
            return plan

        launch = IterationRecorder.launch

        def recording(rec, plan):
            recorded.append(plan)
            launch(rec, plan)

        build = window_exec.CompiledWindow.build.__func__

        def tracking(cls, wir, state, comm, uid=0):
            replayed.extend(op[1] for op in wir.ops if op[0] == OP_TASK)
            return build(cls, wir, state, comm, uid)

        monkeypatch.setattr(launch_plan, "lower_launch", lowering)
        monkeypatch.setattr(IterationRecorder, "launch", recording)
        monkeypatch.setattr(window_exec.CompiledWindow, "build",
                            classmethod(tracking))
        p = APPS[app]()
        _, _, ex, _ = p.run_control_replicated(2, mode=mode)
        assert ex.window_compiles == 2 and ex.replay_hits > 0
        # One plan per (launch statement, shard) ...
        assert len(lowered) == (3 if app == "circuit" else 2) * 2
        ids = {id(plan) for plan in lowered}
        # ... that the interpreter records and the window replays ...
        assert {id(plan) for plan in recorded} == ids
        assert {id(plan) for plan in replayed} == ids
        # ... and whose calls ran every step, interpreted or replayed.
        assert runs == {id(plan): p.steps * len(plan.calls)
                        for plan in lowered}


class TestReplayedPrivileges:
    """A replayed call checks privileges as an interpreted one does: a
    body that writes a field it only reads fails on the step it does so,
    whether that step is interpreted or replayed."""

    def _program(self, fig2, steps=5):
        @task(privileges=[R("v")], name="late_writer")
        def late_writer(A, t):
            if t >= 2:
                A.write("v")[:] = 0.0

        b = ProgramBuilder("late_writer")
        b.let("T", steps)
        with b.for_range("t", 0, "T"):
            b.launch(late_writer, fig2.I, fig2.PA, ScalarRef("t"))
        return b.build()

    def test_sequential(self, fig2):
        with pytest.raises(PrivilegeError, match=self.MESSAGE):
            SequentialExecutor(instances=fig2.fresh_instances()).run(
                self._program(fig2))

    MESSAGE = r"task late_writer holds .* on PA\[\d\]; cannot write field 'v'"

    @pytest.mark.parametrize(
        "mode", ["stepped", "threaded"] + (
            ["procs", "net"] if procs_available() else []))
    def test_every_backend_names_task_region_and_field(self, fig2, mode):
        prog, _ = control_replicate(self._program(fig2), num_shards=2)
        ex = SPMDExecutor(num_shards=2, mode=mode, flight=True,
                          instances=fig2.fresh_instances(),
                          deadlock_timeout=20.0)
        with pytest.raises((PrivilegeError, ShardExceptionGroup)) as info:
            ex.run(prog)
        errors = getattr(info.value, "exceptions", (info.value,))
        assert errors and all(re.search(self.MESSAGE, str(e))
                              for e in errors), errors
        # The loop freezes at its first iteration, so the failing step
        # (t = 2) is a replay: steps 0 and 1 alone run clean, one of them
        # replayed on each shard.
        prog, _ = control_replicate(self._program(fig2, steps=2),
                                    num_shards=2)
        ex = SPMDExecutor(num_shards=2, mode=mode,
                          instances=fig2.fresh_instances())
        ex.run(prog)
        assert ex.replay_hits == 1 * 2


def bubble_fission(ops, protect):
    """The pairwise-swap fission the one-sweep pass replaced, kept as its
    oracle: every ack advance bubbles backward and every ready wait
    forward, one slot at a time, until a fence or an op touching its
    protected arrays stops it.  Returns ``(ops, hoisted, sunk)``."""
    ops = list(ops)

    def stops(other, prot):
        fp = op_arrays(other)
        return (other[0] == OP_COLL or fp is None
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
    """The pass over ``ops``, under a shard plan whose copy ``uid``
    protects the arrays ``protect[uid]`` (none when absent)."""
    steps = defaultdict(lambda: SimpleNamespace(protect=frozenset()),
                        {uid: SimpleNamespace(protect=p)
                         for uid, p in protect.items()})
    wir = WindowIR(ops=list(ops), guards=[])
    fission = FissionPass()
    ctx = SimpleNamespace(plan=SimpleNamespace(steps=steps))
    return fission.run(wir, ctx).ops, fission.stats(wir)


def copy_op(dst, src):
    """A one-pair copy batch, ``src[0]`` into ``dst[0]``."""
    slot = np.zeros(1, dtype=np.int64)
    fc = FusedCopy.build((src,), slot, (dst,), slot, [1], None, None, 0,
                         1, 8, footprint=(id(src), id(dst)))
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
            protect = {uid: step.protect
                       for uid, step in ctx.plan.steps.items()
                       if isinstance(step, CopyPlan)}
            windows.append((before, protect, list(wir.ops), self.stats(wir)))
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
            if r < 0.9:  # a barrier: a collective with no scalar name
                return (OP_COLL, "bar", uid, 1, None)
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
        # an op kind from the future.
        a = np.zeros(2)
        copy = copy_op(a, a)
        ack = (OP_ADVN, ("seq",), 1, 1, "ack")
        rdy = (OP_WAITN, (("seq", "w"),), 1, 1, "rdy")
        protect = {1: frozenset({id(a)})}
        unknown = (99, "opaque")
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
        lower, place = launch_plan.lower_copy, copy_engine.place_rows

        def counting(uid, fields, redop, src, dst, *rest):
            batches.append(uid)
            # A pair is its (source, destination) instance, named by its
            # colour's field dict.
            lowered.extend((uid, id(src.arrays[i]), id(dst.arrays[j]))
                           for i, j in zip(src.colours.tolist(),
                                           dst.colours.tolist()))
            pointwise["on"] += 1
            try:
                return lower(uid, fields, redop, src, dst, *rest)
            finally:
                pointwise["on"] -= 1

        def placing(*args):
            pointwise["on"] += 1
            try:
                return place(*args)
            finally:
                pointwise["on"] -= 1

        monkeypatch.setattr(launch_plan, "lower_copy", counting)
        monkeypatch.setattr(copy_engine, "place_rows", placing)
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
        copy_uids = {s.uid for s in walk(prog.body)
                     if isinstance(s, PairwiseCopy)}
        copies = len(copy_uids)
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
        # lowers at its first run).
        del batches[:], lowered[:]
        fig2 = Fig2(steps=1)
        prog, _ = control_replicate(
            TestGuardFallback()._program_with_branch(fig2, 8, 5),
            num_shards=2)
        copy_uids = {s.uid for s in walk(prog.body)
                     if isinstance(s, PairwiseCopy)}
        copies = len(copy_uids)
        ex = SPMDExecutor(num_shards=2, instances=fig2.fresh_instances())
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
        ex.run(prog)
        assert ex.replay_guard_fallbacks == 2  # t == 5, on each shard
        assert len(set(lowered)) == len(lowered)
        assert len(batches) == copies * 2
        assert misses and misses == [0] * len(misses)

    @pytest.mark.parametrize("app", sorted(APPS))
    def test_batched_lowering_matches_per_pair(self, app, monkeypatch):
        # The rows placed on the colour tables against each pair's own
        # localization, point by point: its row offset in its block plus
        # its slots.
        placed = []
        place = copy_engine.place_rows

        def recording_place(layout, colours, nrows, ivals):
            side = place(layout, colours, nrows, ivals)
            placed.append((colours, nrows, ivals, side))
            return side

        monkeypatch.setattr(copy_engine, "place_rows", recording_place)
        batches = []
        lower = launch_plan.lower_copy

        def recording(uid, fields, redop, src, dst, lengths, nrows, lock_of,
                      locks, visits):
            batch = lower(uid, fields, redop, src, dst, lengths, nrows,
                          lock_of, locks, visits)
            batches.append((uid, fields, src, dst, lengths, nrows, lock_of,
                            locks, visits, batch))
            return batch

        monkeypatch.setattr(launch_plan, "lower_copy", recording)
        # Threaded, so that reduction pairs carry real locks.
        ns = 2
        _, _, ex, _ = APPS[app]().run_control_replicated(ns, mode="threaded")
        inst_of = {id(x.fields): x for x in ex.dist.values()}
        checked = Counter()
        for colours, nrows, ivals, side in placed:
            assert len(side.block_of) == len(colours)
            ends = np.cumsum(nrows).tolist()
            want = []
            for c, b, lo, hi in zip(colours.tolist(), side.block_of.tolist(),
                                    [0, *ends], ends):
                inst = inst_of[id(side.arrays[c])]
                rows, first_row, _ = ex.block_rows(inst.region)
                assert rows is side.blocks[b]
                pts = IntervalSet._from_normalized(ivals[lo:hi])
                want.append(first_row + inst.localize(pts.to_indices()))
                checked["slices" if isinstance(_as_index(want[-1]), slice)
                        else "arrays"] += 1
            got = expand_ranges(side.first, ivals[:, 1] - ivals[:, 0])
            if want:
                assert got.dtype == want[0].dtype
                assert np.array_equal(got, np.concatenate(want))
        assert checked["slices"] + checked["arrays"] > 0
        if app in ("circuit", "pennant"):
            assert checked["arrays"] > 0  # unstructured: gathers, not slices
        for (uid, fields, src, dst, lengths, nrows, lock_of, locks, visits,
             batch) in batches:
            width = (sum(dst.arrays[0][f].dtype.itemsize for f in fields)
                     if nrows.size else 0)
            count = int(lengths.sum())
            assert (batch.uid, batch.visits) == (uid, visits)
            assert (batch.pair_count, batch.count) == (len(nrows), count)
            assert batch.nbytes == count * width
            assert type(batch.count) is int and type(batch.nbytes) is int
            assert all(item.uid == uid for item in batch.items)
            for i, j, k in zip(src.colours.tolist(), dst.colours.tolist(),
                               lock_of.tolist()):
                s, d, lock = (inst_of[id(src.arrays[i])],
                              inst_of[id(dst.arrays[j])], locks[k])
                # A fold's lock is its statement's lock of the shard that
                # owns the destination colour; the item it lands in holds
                # that lock.
                if lock is not None:
                    owner = owner_of_color(d.region.parent_partition
                                           .num_colors, ns, d.region.color)
                    assert lock is ex._copy_locks[(uid, owner)]
                item = next(it for it in batch.items
                            if it.lock is lock
                            and it.dst_arrays[0]
                            is ex.block_rows(d.region)[0][fields[0]]
                            and it.src_arrays[0]
                            is ex.block_rows(s.region)[0][fields[0]])
                assert id(d.fields[fields[0]]) in item.footprint

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
        assert passes == ["fission"]
        runs = {labels["pass"]: inst.value
                for name, labels, inst in metrics.items()
                if name == "spmd_window_pass_runs_total"}
        assert runs == {name: 2 for name in passes}
        assert not any(e["name"].startswith("window:")
                       and e["name"] != "window:compile" for e in rows)
        assert _pass_stat(metrics, "hoisted_acks") > 0
        got = {name for name, _, _ in metrics.items()}
        assert "spmd_window_ops_total" in got
        assert "spmd_window_closures_total" in got
        assert "spmd_window_compiles_total" in got
        assert "spmd_window_pass_runs_total" in got

    def test_window_counters_funnel_through_procs(self):
        if not procs_available():
            pytest.skip("fork unavailable")
        p = APPS["stencil"]()
        _, _, ex, _ = p.run_control_replicated(4, mode="procs")
        assert ex.window_compiles == 4
        assert ex.window_ops_recorded == ex.window_ops_lowered > 0
        assert ex.window_closures > 0

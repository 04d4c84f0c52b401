"""Tests for the socket-based SPMD driver (``mode="net"``).

One forked rank process per shard, meshed over localhost TCP.  The net
backend must be observationally identical to the other drivers: same
region state as sequential (bitwise for stencil/circuit/miniaero,
round-off for PENNANT's ``+``-reduction fields, exactly as for threaded
and procs), same invariant copy counters, same error propagation — plus
its own property: a copy statement's pairs to one destination rank
travel as one message, acknowledged by one credit, per iteration.
"""

import numpy as np
import pytest

from repro.core import ProgramBuilder, control_replicate
from repro.regions import PhysicalInstance, ispace, partition_block, region
from repro.runtime import (
    SequentialExecutor,
    ShardExceptionGroup,
    SPMDExecutor,
    procs_available,
)
from repro.tasks import RW, task

from tests.conftest import interpreted_iterations

pytestmark = pytest.mark.skipif(
    not procs_available(),
    reason="fork start method unavailable on this platform")


def run_pair(fig2, num_shards, mode, **kw):
    seq = SequentialExecutor(instances=fig2.fresh_instances())
    seq.run(fig2.build())
    prog, _ = control_replicate(fig2.build(), num_shards=num_shards)
    spmd = SPMDExecutor(num_shards=num_shards, mode=mode,
                        instances=fig2.fresh_instances(), **kw)
    spmd.run(prog)
    return seq, spmd


def sent(ex, *kinds):
    return sum(ex.net_stats[r]["messages_sent"].get(k, 0)
               for r in ex.net_stats for k in kinds)


class TestFig2:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matches_sequential(self, fig2, shards):
        seq, spmd = run_pair(fig2, shards, "net")
        for uid in (fig2.A.uid, fig2.B.uid):
            assert np.array_equal(spmd.instances[uid].fields["v"],
                                  seq.instances[uid].fields["v"])

    def test_net_stats_funneled(self, fig2):
        _, spmd = run_pair(fig2, 4, "net")
        assert sorted(spmd.net_stats) == [0, 1, 2, 3]
        for st in spmd.net_stats.values():
            assert st["bytes_sent"] > 0 and st["bytes_recv"] > 0

    def test_trace_funnels_to_parent(self, fig2):
        from repro.obs import Tracer
        tracer = Tracer()
        prog, _ = control_replicate(fig2.build(), num_shards=2,
                                    tracer=tracer)
        spmd = SPMDExecutor(num_shards=2, mode="net",
                            instances=fig2.fresh_instances(), tracer=tracer)
        spmd.run(prog)
        names = {e.get("name", "") for e in tracer.events()}
        assert "task:TF" in names and "task:TG" in names


class TestApps:
    """Backend equivalence over all four paper applications (§5)."""

    def _seq_and_net(self, p, **kw):
        seq, seq_scal, _ = p.run_sequential()
        cr, cr_scal, ex, _ = p.run_control_replicated(
            4, mode="net", executor_kw=kw or None)
        return seq, seq_scal, cr, cr_scal, ex

    def test_stencil_bitwise(self):
        from repro.apps.stencil import StencilProblem
        p = StencilProblem(n=24, radius=2, tiles=4, steps=3)
        seq, _, cr, _, _ = self._seq_and_net(p)
        assert np.array_equal(cr["in"], seq["in"])
        assert np.array_equal(cr["out"], seq["out"])

    def test_circuit_bitwise(self):
        from repro.apps.circuit import CircuitProblem
        p = CircuitProblem(pieces=4, nodes_per_piece=25, wires_per_piece=40,
                           steps=3)
        seq, _, cr, _, _ = self._seq_and_net(p)
        assert np.array_equal(cr["voltage"], seq["voltage"])
        assert np.array_equal(cr["current"], seq["current"])

    def test_miniaero_bitwise(self):
        from repro.apps.miniaero import MiniAeroProblem
        p = MiniAeroProblem(shape=(6, 6, 6), tiles=4, steps=2)
        seq, _, cr, _, _ = self._seq_and_net(p)
        for key in seq:
            assert np.array_equal(cr[key], seq[key]), key

    def test_pennant_roundoff(self):
        from repro.apps.pennant import PennantProblem
        p = PennantProblem(nx=8, ny=8, pieces=4, steps=3)
        seq, seq_scal, cr, cr_scal, _ = self._seq_and_net(p)
        for key in seq:
            assert np.allclose(cr[key], seq[key], rtol=1e-11, atol=1e-13), key
        # dt goes through the "min" collective: order-insensitive, exact.
        assert cr_scal["dt"] == seq_scal["dt"]

    def test_counters_match_threaded(self):
        # The invariant counters (elements/bytes actually moved) must not
        # change with the transport; message-shape counters may.
        from repro.apps.stencil import StencilProblem
        ths = StencilProblem(n=24, radius=2, tiles=8, steps=4)
        _, _, th, _ = ths.run_control_replicated(4, mode="threaded")
        nts = StencilProblem(n=24, radius=2, tiles=8, steps=4)
        _, _, nt, _ = nts.run_control_replicated(4, mode="net")
        assert nt.tasks_executed == th.tasks_executed
        assert nt.elements_copied == th.elements_copied
        assert nt.bytes_copied == th.bytes_copied


class TestAggregation:
    def _msgs(self, steps):
        from repro.apps.stencil import StencilProblem
        from repro.core.ir import PairwiseCopy, walk
        p = StencilProblem(n=48, radius=2, tiles=64, steps=steps)
        seq, _, _ = p.run_sequential()
        prog, _ = control_replicate(p.build_program(), num_shards=4)
        ex = SPMDExecutor(num_shards=4, mode="net",
                          instances=p.fresh_instances())
        ex.run(prog)
        cr = p.extract_state(ex.instances)
        for k in seq:
            assert np.array_equal(cr[k], seq[k]), k
        copies = [s for s in walk(prog.body) if isinstance(s, PairwiseCopy)]
        return ex, sent(ex, "msg"), copies

    def test_packed_sends_in_steady_state(self, interpret_only):
        # Per-iteration rates via step differencing: one message per
        # (copy statement, producer rank, consumer rank), interpreted or
        # replayed — the interpreter hands the context a peer's pairs as
        # one group, so capture iterations send packed too.
        from repro.core.shards import owner_of_color
        from repro.runtime.launch import channel_keys
        _, on_6, _ = self._msgs(6)
        ex, on_8, copies = self._msgs(8)
        with interpret_only:
            _, off_6, _ = self._msgs(6)
            _, off_8, _ = self._msgs(8)
        channels = sum(len(channel_keys(s, ex._copy_pairs(s), 4))
                       for s in copies)
        assert (on_8 - on_6) / 2 == (off_8 - off_6) / 2 == channels
        assert on_8 == off_8 == 8 * channels
        # 64 tiles on 4 ranks: 8 adjacent pairs per rank boundary share
        # one message per direction -> 8x fewer than pairs, >= 5x.
        crossing = sum(owner_of_color(s.src.num_colors, 4, i)
                       != owner_of_color(s.dst.num_colors, 4, j)
                       for s in copies for (i, j) in ex._copy_pairs(s))
        assert crossing >= 5 * channels, (crossing, channels)

    def test_aggregation_preserves_counters(self, interpret_only):
        ex_on, _, _ = self._msgs(6)
        with interpret_only:
            ex_off, _, _ = self._msgs(6)
        assert ex_on.elements_copied == ex_off.elements_copied
        assert ex_on.bytes_copied == ex_off.bytes_copied
        assert ex_on.pair_visits == ex_off.pair_visits


class TestWindowShape:
    def test_one_fused_and_one_msg_op_per_copy_statement(self, monkeypatch):
        """A copy statement is recorded the same way on net as on every
        backend: its rank-local pairs as the one fused batch it lowered
        to, its cross-rank ones as one packed message per peer (the 96x96
        / 16-tile halo stencil used to freeze into 97 closures a rank, its
        20 rank-local pairs of 24 unfused)."""
        from repro.apps.stencil import StencilProblem
        from repro.core.ir import PairwiseCopy, walk
        from repro.core.shards import owner_of_color
        from repro.obs import MetricsRegistry
        from repro.runtime.window import exec as window_exec
        from repro.runtime.window.recorder import OP_FUSED, OP_MSG
        ns = 2
        build = window_exec.CompiledWindow.build.__func__

        def counting(cls, wir, state, comm, uid=0):
            # Counted through the rank's metrics, which funnel back.
            for op in wir.ops:
                if op[0] in (OP_FUSED, OP_MSG):
                    kind = "fused" if op[0] == OP_FUSED else "msg"
                    state.metrics.counter("test_copy_ops", kind=kind).inc()
                    state.metrics.counter("test_copy_pairs", kind=kind).inc(
                        op[1].pair_count)
            return build(cls, wir, state, comm, uid)

        monkeypatch.setattr(window_exec.CompiledWindow, "build",
                            classmethod(counting))  # forked ranks inherit
        p = StencilProblem(n=96, radius=2, tiles=16, steps=4)
        seq, _, _ = p.run_sequential()
        metrics = MetricsRegistry()
        prog, _ = control_replicate(p.build_program(), num_shards=ns)
        ex = SPMDExecutor(num_shards=ns, mode="net", metrics=metrics,
                          instances=p.fresh_instances())
        ex.run(prog)
        cr = p.extract_state(ex.instances)
        for k in seq:
            assert np.array_equal(cr[k], seq[k]), k
        copies = [s for s in walk(prog.body) if isinstance(s, PairwiseCopy)]
        pairs = [(owner_of_color(s.src.num_colors, ns, i),
                  owner_of_color(s.dst.num_colors, ns, j))
                 for s in copies for (i, j) in ex._copy_pairs(s)]
        crossing = sum(a != b for a, b in pairs)

        def stat(name, kind):
            return sum(inst.value for metric, labels, inst in metrics.items()
                       if metric == name and labels.get("kind") == kind)

        assert ex.window_compiles == ns and 0 < crossing < len(pairs)
        assert (stat("test_copy_ops", "fused") == stat("test_copy_ops", "msg")
                == len(copies) * ns)
        assert stat("test_copy_pairs", "msg") == crossing
        assert stat("test_copy_pairs", "fused") == len(pairs) - crossing
        assert ex.fused_pairs > 0  # the rank-local pairs, batched
        assert ex.window_closures <= 10 * ns
        # One message a rank a copy statement an iteration, interpreted
        # or replayed.
        assert sent(ex, "msg") == ns * len(copies) * p.steps


class TestSharedLocalization:
    @pytest.mark.parametrize("app", ["circuit", "stencil"])
    def test_send_and_receive_plans_match_per_pair_localize(self, app):
        """The gathers of a :class:`PackedSend` and the scatters of
        ``rx_plan`` come from the copy engine's stacked ``localize``; each
        equals the pair's own ``inst.localize(pts)``, in pair order, and
        the receiver's value slices tile the message."""
        from types import SimpleNamespace

        from repro.apps.circuit import CircuitProblem
        from repro.apps.stencil import StencilProblem
        from repro.core.ir import PairwiseCopy, ShardLaunch, walk
        from repro.core.shards import owner_of_color
        from repro.runtime.copy_engine import _as_fancy
        from repro.runtime.launch import launch_spec
        from repro.runtime.net.sync import NetCommContext
        ns = 2
        p = (CircuitProblem(pieces=4, nodes_per_piece=25, wires_per_piece=40,
                            steps=2) if app == "circuit"
             else StencilProblem(n=24, radius=2, tiles=4, steps=2))
        prog, _ = control_replicate(p.build_program(), num_shards=ns)
        ex = SPMDExecutor(num_shards=ns, instances=p.fresh_instances())
        ex.run(prog)  # evaluates the pair sets, allocates the instances
        launch = next(s for s in walk(prog.body) if isinstance(s, ShardLaunch))
        spec = launch_spec(launch, ex._copy_pairs, ns)
        copies = [s for s in walk(prog.body) if isinstance(s, PairwiseCopy)]
        checked = 0
        for rank in range(ns):
            transport = SimpleNamespace(rank=rank, register=lambda *a: None)
            ctx = NetCommContext(ex, transport, spec, ns)
            for stmt in copies:
                for peer in range(ns):
                    if peer == rank:
                        continue
                    # Sent from `rank` to `peer`, in pair order.
                    out = [(i, j) for i, j in ex._copy_pairs(stmt)
                           if owner_of_color(stmt.src.num_colors, ns, i)
                           == rank
                           and owner_of_color(stmt.dst.num_colors, ns, j)
                           == peer]
                    live = [(i, j, ex._pair_points(stmt, i, j))
                            for i, j in out if ex._pair_points(stmt, i, j)]
                    ps = ctx._build_send(stmt, peer, out)
                    assert ps.pair_count == len(out)
                    assert len(ps.gathers) == len(live)
                    for (srcs, ix), (i, _, pts) in zip(ps.gathers, live):
                        inst = ex.dist_instance(stmt.src, i)
                        assert all(a is inst.fields[f]
                                   for a, f in zip(srcs, stmt.fields))
                        assert np.array_equal(_as_fancy(ix),
                                              inst.localize(pts))
                        checked += 1
                    # Received by `rank` from `peer`, in the same order.
                    back = [(i, j, ex._pair_points(stmt, i, j))
                            for i, j in ex._copy_pairs(stmt)
                            if owner_of_color(stmt.src.num_colors, ns, i)
                            == peer
                            and owner_of_color(stmt.dst.num_colors, ns, j)
                            == rank and ex._pair_points(stmt, i, j)]
                    _, plan = ctx.rx_plan(stmt, peer)
                    assert len(plan) == len(back)
                    off = 0
                    for (dsts, ix, sl), (_, j, pts) in zip(plan, back):
                        inst = ex.dist_instance(stmt.dst, j)
                        assert all(a is inst.fields[f]
                                   for a, f in zip(dsts, stmt.fields))
                        assert np.array_equal(_as_fancy(ix),
                                              inst.localize(pts))
                        assert sl == slice(off, off + pts.count)
                        off += pts.count
                        checked += 1
        assert checked > 0


class TestBarrierCopyWait:
    def test_post_barrier_wait_never_sleeps(self, monkeypatch):
        """A barrier-mode copy on net waits for the post barrier and then
        for each inbound arrival on that arrival's own event — not in 1 ms
        sleeps.  No timing: any sleep, in any rank, fails the run."""
        import time
        from repro.apps.stencil import StencilProblem

        def no_sleep(seconds):
            raise AssertionError(f"time.sleep({seconds}) in a net run")

        p = StencilProblem(n=24, radius=2, tiles=4, steps=5)
        seq, _, _ = p.run_sequential()
        monkeypatch.setattr(time, "sleep", no_sleep)  # forked ranks inherit
        cr, _, ex, _ = p.run_control_replicated(4, mode="net",
                                                sync="barrier")
        monkeypatch.undo()
        assert ex.replay_hits > 0 and sent(ex, "msg") > 0
        for k in seq:
            assert np.array_equal(cr[k], seq[k]), k


class TestFailure:
    def _failing_problem(self):
        U = ispace(size=16, name="U")
        I = ispace(size=4, name="I")
        A = region(U, {"v": np.float64}, name="A")
        PA = partition_block(A, I, name="PA")

        @task(privileges=[RW("v")], name="boom")
        def boom(Av):
            raise ValueError(f"bad tile {Av.points[0]}")

        b = ProgramBuilder("failing")
        b.launch(boom, I, PA)
        return b.build(), A

    def test_rank_exception_reaches_parent(self):
        prog, A = self._failing_problem()
        cprog, _ = control_replicate(prog, num_shards=2)
        spmd = SPMDExecutor(num_shards=2, mode="net",
                            instances={A.uid: PhysicalInstance(A)})
        with pytest.raises((ValueError, ShardExceptionGroup)) as exc_info:
            spmd.run(cprog)
        err = exc_info.value
        if isinstance(err, ShardExceptionGroup):
            assert all(isinstance(e, ValueError) for e in err.exceptions)
            assert any("bad tile" in str(e) for e in err.exceptions)
        else:
            assert "bad tile" in str(err)


class TestCleanShutdownFlight:
    def test_flight_dump_on_clean_run(self, tmp_path):
        # Satellite of the net PR: a *successful* run must flush the
        # funneled flight rings to the dump dir, so `repro top` shows
        # the final iteration's records, not only crash windows.
        from repro.apps.stencil import StencilProblem
        p = StencilProblem(n=24, radius=2, tiles=4, steps=3)
        _, _, ex, _ = p.run_control_replicated(
            2, mode="net",
            executor_kw={"flight": True, "flight_dir": str(tmp_path)})
        dumps = list(tmp_path.glob("flight_*.json"))
        assert dumps, "clean run left no flight dump"


class TestCreditDepth:
    def test_depth_one_still_correct(self, monkeypatch):
        # depth=1 degenerates to the classic ack/ready handshake.
        from repro.runtime.net import sync
        monkeypatch.setattr(sync, "CREDIT_DEPTH", 1)  # forked ranks inherit
        from repro.apps.stencil import StencilProblem
        p = StencilProblem(n=24, radius=2, tiles=8, steps=4)
        seq, _, _ = p.run_sequential()
        cr, _, _, _ = p.run_control_replicated(4, mode="net")
        for k in seq:
            assert np.array_equal(cr[k], seq[k]), k


class TestCreditCoalescing:
    """Per copy statement, per iteration, interpreted or replayed, a rank
    sends each peer it consumes from exactly one ``CREDIT`` and each peer
    it produces into exactly one ``MSG``: the channels are shard pairs,
    so there is nothing left to coalesce."""

    @pytest.mark.parametrize("app", ["stencil", "pennant"])
    def test_one_credit_frame_per_statement_per_iteration(self, app):
        from repro.apps.pennant import PennantProblem
        from repro.apps.stencil import StencilProblem
        from repro.core.ir import PairwiseCopy, walk
        from repro.runtime.launch import channel_keys
        ns = 2
        if app == "stencil":
            p = StencilProblem(n=96, radius=2, tiles=16, steps=40)
        else:
            p = PennantProblem(nx=48, ny=48, pieces=8, steps=20)
        seq, _, _ = p.run_sequential()
        prog, _ = control_replicate(p.build_program(), num_shards=ns)
        ex = SPMDExecutor(num_shards=ns, mode="net",
                          instances=p.fresh_instances())
        ex.run(prog)
        cr = p.extract_state(ex.instances)
        for k in seq:
            assert np.allclose(cr[k], seq[k], rtol=1e-11, atol=1e-13), k
        hits, misses = ex.replay_hits // ns, ex.replay_misses // ns
        captured = interpreted_iterations()
        assert hits == p.steps - captured and misses == captured
        copies = [s for s in walk(prog.body) if isinstance(s, PairwiseCopy)]
        keys = [k for s in copies
                for k in channel_keys(s, ex._copy_pairs(s), ns)]
        for r in range(ns):
            want = {"credit": p.steps * sum(cons == r for _, cons in keys),
                    "msg": p.steps * sum(prod == r for prod, _ in keys)}
            got = ex.net_stats[r]["messages_sent"]
            assert want["credit"] and want["msg"]
            assert {k: got.get(k, 0) for k in want} == want, r

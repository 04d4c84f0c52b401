"""Tests for the process-based SPMD driver (``mode="procs"``).

Each shard runs as a forked OS process; partition-named instances live in
``multiprocessing.shared_memory`` segments so cross-shard copies are plain
memcpys between processes.  These tests assert the procs driver is
observationally identical to the threaded one: same region state, same
copy counters, same error propagation.
"""

import sys

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

pytestmark = pytest.mark.skipif(
    not procs_available(),
    reason="fork start method unavailable on this platform")


def run_pair(fig2, num_shards, mode):
    seq = SequentialExecutor(instances=fig2.fresh_instances())
    seq.run(fig2.build())
    prog, _ = control_replicate(fig2.build(), num_shards=num_shards)
    spmd = SPMDExecutor(num_shards=num_shards, mode=mode,
                        instances=fig2.fresh_instances())
    spmd.run(prog)
    return seq, spmd


class TestFig2:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matches_sequential(self, fig2, shards):
        seq, spmd = run_pair(fig2, shards, "procs")
        for uid in (fig2.A.uid, fig2.B.uid):
            assert np.array_equal(spmd.instances[uid].fields["v"],
                                  seq.instances[uid].fields["v"])

    def test_counters_match_threaded(self, fig2):
        _, th = run_pair(fig2, 4, "threaded")
        _, pr = run_pair(fig2, 4, "procs")
        assert pr.tasks_executed == th.tasks_executed
        assert pr.copies_performed == th.copies_performed
        assert pr.elements_copied == th.elements_copied
        assert pr.bytes_copied == th.bytes_copied

    def test_trace_funnels_to_parent(self, fig2):
        from repro.obs import Tracer
        tracer = Tracer()
        prog, _ = control_replicate(fig2.build(), num_shards=2,
                                    tracer=tracer)
        spmd = SPMDExecutor(num_shards=2, mode="procs",
                            instances=fig2.fresh_instances(), tracer=tracer)
        spmd.run(prog)
        names = {e.get("name", "") for e in tracer.events()}
        # Task spans executed inside child processes appear in the parent.
        assert "task:TF" in names and "task:TG" in names

    def test_shared_memory_released(self, fig2):
        import os
        prog, _ = control_replicate(fig2.build(), num_shards=2)
        spmd = SPMDExecutor(num_shards=2, mode="procs",
                            instances=fig2.fresh_instances())
        spmd.run(prog)
        if os.path.isdir("/dev/shm"):
            leftovers = [f for f in os.listdir("/dev/shm")
                         if f.startswith("psm_")]
            assert leftovers == []


class TestApps:
    """Backend equivalence over all four paper applications (§5).

    stencil/circuit/miniaero are bitwise-identical to sequential under
    every backend.  PENNANT's "+"-reduction copies reassociate float adds
    (buffer-then-fold vs direct accumulate), so — exactly as for the
    threaded backend — its point fields match only to round-off.
    """

    def _seq_and_procs(self, p):
        seq, seq_scal, _ = p.run_sequential()
        cr, cr_scal, ex, _ = p.run_control_replicated(4, mode="procs")
        return seq, seq_scal, cr, cr_scal

    def test_stencil_bitwise(self):
        from repro.apps.stencil import StencilProblem
        p = StencilProblem(n=24, radius=2, tiles=4, steps=3)
        seq, _, cr, _ = self._seq_and_procs(p)
        assert np.array_equal(cr["in"], seq["in"])
        assert np.array_equal(cr["out"], seq["out"])

    def test_circuit_bitwise(self):
        from repro.apps.circuit import CircuitProblem
        p = CircuitProblem(pieces=4, nodes_per_piece=25, wires_per_piece=40,
                           steps=3)
        seq, _, cr, _ = self._seq_and_procs(p)
        assert np.array_equal(cr["voltage"], seq["voltage"])
        assert np.array_equal(cr["current"], seq["current"])

    def test_miniaero_bitwise(self):
        from repro.apps.miniaero import MiniAeroProblem
        p = MiniAeroProblem(shape=(6, 6, 6), tiles=4, steps=2)
        seq, _, cr, _ = self._seq_and_procs(p)
        for key in seq:
            assert np.array_equal(cr[key], seq[key]), key

    def test_pennant_roundoff(self):
        from repro.apps.pennant import PennantProblem
        p = PennantProblem(nx=8, ny=8, pieces=4, steps=3)
        seq, seq_scal, cr, cr_scal = self._seq_and_procs(p)
        for key in seq:
            assert np.allclose(cr[key], seq[key], rtol=1e-11, atol=1e-13), key
        # dt goes through the "min" collective: order-insensitive, exact.
        assert cr_scal["dt"] == seq_scal["dt"]


class TestErrorPropagation:
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

    def test_child_exception_reaches_parent(self):
        prog, A = self._failing_problem()
        cprog, _ = control_replicate(prog, num_shards=2)
        spmd = SPMDExecutor(num_shards=2, mode="procs",
                            instances={A.uid: PhysicalInstance(A)})
        with pytest.raises((ValueError, ShardExceptionGroup)) as exc_info:
            spmd.run(cprog)
        err = exc_info.value
        if isinstance(err, ShardExceptionGroup):
            assert all(isinstance(e, ValueError) for e in err.exceptions)
            assert any("bad tile" in str(e) for e in err.exceptions)
        else:
            assert "bad tile" in str(err)


class TestClockRebase:
    """Child flight records land on the parent's clock: the rows a tracer
    renders from the funneled rings start after its epoch."""

    def test_funneled_trace_has_no_negative_times(self, fig2):
        from repro.obs import PID_SPMD, Tracer
        tracer = Tracer()
        prog, _ = control_replicate(fig2.build(), num_shards=2, tracer=tracer)
        spmd = SPMDExecutor(num_shards=2, mode="procs",
                            instances=fig2.fresh_instances(), tracer=tracer)
        spmd.run(prog)
        shard_spans = [e for e in tracer.events()
                       if e.get("ph") == "X" and e.get("pid") == PID_SPMD]
        assert shard_spans
        for ev in shard_spans:
            assert ev["ts"] >= 0.0, ev
            assert ev["dur"] >= 0.0, ev


class TestMetricsFunnel:
    def test_child_metrics_merge_to_parent(self, fig2):
        from repro.obs import MetricsRegistry
        metrics = MetricsRegistry()
        prog, _ = control_replicate(fig2.build(), num_shards=2)
        spmd = SPMDExecutor(num_shards=2, mode="procs",
                            instances=fig2.fresh_instances(), metrics=metrics)
        spmd.run(prog)
        flat = metrics.flat()
        # Per-shard counters recorded inside the forked children arrive
        # in the parent registry via the result pipe.
        for shard in (0, 1):
            assert flat[f'spmd_tasks_total{{shard="{shard}"}}'] > 0
            assert flat[f'spmd_copies_total{{shard="{shard}"}}'] > 0
        total = sum(flat[f'spmd_tasks_total{{shard="{s}"}}'] for s in (0, 1))
        assert total == spmd.tasks_executed

    def test_procs_counters_match_threaded_metrics(self, fig2):
        from repro.obs import MetricsRegistry
        results = {}
        for mode in ("threaded", "procs"):
            metrics = MetricsRegistry()
            prog, _ = control_replicate(fig2.build(), num_shards=2)
            spmd = SPMDExecutor(num_shards=2, mode=mode,
                                instances=fig2.fresh_instances(),
                                metrics=metrics)
            spmd.run(prog)
            results[mode] = {k: v for k, v in metrics.flat().items()
                             if k.startswith(("spmd_tasks_total",
                                              "spmd_copies_total",
                                              "spmd_bytes_copied_total"))}
        assert results["procs"] == results["threaded"]


class TestIntersectionCache:
    def test_repeated_pairs_computed_once(self, fig2):
        """Two fragments emit two ComputeIntersections over the same
        (src, dst) pair; the executor computes the pair set once and
        shares the IntersectionResult object."""
        from repro.core import ComputeIntersections, walk
        from repro.tasks import R

        @task(privileges=[R("v")], name="probe")
        def probe(Av):
            pass

        b = ProgramBuilder("twofrags")
        b.let("T", 2)
        with b.for_range("t", 0, "T"):
            b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
            b.launch(fig2.TG, fig2.I, fig2.PA, fig2.QB)
        b.call(probe, [fig2.A])  # not CR-able: splits the fragment run
        with b.for_range("s", 0, "T"):
            b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
            b.launch(fig2.TG, fig2.I, fig2.PA, fig2.QB)
        cprog, report = control_replicate(b.build(), num_shards=2)
        assert report.num_fragments == 2
        stmts = [s for s in walk(cprog.body)
                 if isinstance(s, ComputeIntersections)]
        assert len(stmts) == 2
        assert (stmts[0].src.uid, stmts[0].dst.uid) == \
               (stmts[1].src.uid, stmts[1].dst.uid)

        spmd = SPMDExecutor(num_shards=2, mode="stepped",
                            instances=fig2.fresh_instances())
        spmd.run(cprog)
        assert spmd.intersections_computed == 1
        assert len(spmd._isect_cache) == 1


class TestDoorbells:
    """A handshake slot rings its one waiting shard's bell; the waiter
    drains it before it re-checks, so rings that no wait needed do not
    pile up past the next wait."""

    def _board(self, ns=2):
        from types import SimpleNamespace

        from repro.runtime.launch import LaunchSpec
        from repro.runtime.procs import BoardContext
        spec = LaunchSpec(copies=[SimpleNamespace(uid=3)],
                          channels={3: [(0, 1)]},
                          collectives=[("b", None, None)])
        return BoardContext(spec, ns)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="sem_getvalue is Linux-only here")
    def test_unwaited_rings_are_drained_by_one_wait(self):
        ctx = self._board()
        ready = ctx.channels[3][(0, 1)].ready  # the consumer, shard 1, waits
        for g in range(1, 10_001):
            ready.advance_to(g)
        consumer, producer = ctx._bells.all[1], ctx._bells.all[0]
        assert producer.get_value() == 0
        assert ready.event_for(10_000).wait_blocking(1.0)
        assert consumer.get_value() <= 1
        # A wait that times out drains as well.
        ready.advance_to(10_001)
        assert not ready.event_for(10_002).wait_blocking(0.01)
        assert consumer.get_value() <= 1

    def test_ring_from_another_process_wakes_the_waiter(self):
        import time

        from repro.runtime.launch import fork_context
        ctx = self._board()
        chan = ctx.channels[3][(0, 1)]

        def producer():
            time.sleep(0.05)
            chan.ready.advance_to(1)

        child = fork_context().Process(target=producer)
        child.start()
        try:
            t0 = time.monotonic()
            assert chan.ready.event_for(1).wait_blocking(10.0)
            assert time.monotonic() - t0 < 5.0
        finally:
            child.join(5.0)

    def test_barrier_completion_rings_every_shard(self):
        """A barrier is a collective with no redop: its completion rings
        every shard's bell, and its result is None."""
        from repro.runtime.launch import fork_context
        ctx = self._board()
        ctx.bind(0)
        bar = ctx.collectives["b"]

        def other():
            ctx.bind(1)
            assert bar.contribute(1, None).wait_blocking(10.0)
            assert bar.result(1) is None

        child = fork_context().Process(target=other)
        child.start()
        try:
            assert bar.contribute(1, None).wait_blocking(10.0)
            assert bar.result(1) is None
        finally:
            child.join(10.0)
        assert child.exitcode == 0

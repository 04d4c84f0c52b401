"""Steady-state trace capture & replay: equivalence, counters, fallback."""

import numpy as np
import pytest

from repro.apps.circuit import CircuitProblem
from repro.apps.pennant import PennantProblem
from repro.apps.stencil import StencilProblem
from repro.core import ProgramBuilder, control_replicate
from repro.core.ir import BinOp, Const, ScalarRef
from repro.obs import Tracer
from repro.obs.flight import COMPILE
from repro.runtime import (
    ReplicationDivergence,
    SequentialExecutor,
    SPMDExecutor,
    procs_available,
)
from repro.runtime.spmd import _ShardState
from repro.tasks import R, RW, task

from tests.conftest import Fig2, interpreted_iterations

ALL_MODES = ["stepped", "threaded"] + (["procs"] if procs_available() else [])


def run_pair(fig2, shards, mode="stepped", **compile_kw):
    seq = SequentialExecutor(instances=fig2.fresh_instances())
    seq.run(fig2.build())
    prog, _ = control_replicate(fig2.build(), num_shards=shards, **compile_kw)
    spmd = SPMDExecutor(num_shards=shards, mode=mode,
                        instances=fig2.fresh_instances())
    spmd.run(prog)
    return seq, spmd


class TestCaptureAndReplay:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_auto_replays_steady_state(self, shards):
        fig2 = Fig2(steps=6)
        seq, spmd = run_pair(fig2, shards)
        for uid in (fig2.A.uid, fig2.B.uid):
            assert np.array_equal(spmd.instances[uid].fields["v"],
                                  seq.instances[uid].fields["v"])
        # A guard-free loop freezes at its first interpreted iteration.
        captured = interpreted_iterations()
        assert spmd.replay_misses == captured * shards
        assert spmd.replay_hits == (fig2.steps - captured) * shards

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_replayed_state_identical_to_interpreted(self, mode,
                                                     interpret_only):
        fig2 = Fig2(steps=6)

        def run():
            prog, _ = control_replicate(fig2.build(), num_shards=4)
            ex = SPMDExecutor(num_shards=4, mode=mode,
                              instances=fig2.fresh_instances())
            ex.run(prog)
            return ex

        with interpret_only:
            interp = run()
        replayed = run()
        assert interp.replay_hits == 0 < replayed.replay_hits
        for uid in (fig2.A.uid, fig2.B.uid):
            assert np.array_equal(interp.instances[uid].fields["v"],
                                  replayed.instances[uid].fields["v"])

    def test_unoptimized_intersections_replay(self):
        # pairs_name is None: every (i, j) pair is visited, including empty
        # ones — replay must reproduce the empty-pair visit accounting.
        fig2 = Fig2(steps=6)
        seq, spmd = run_pair(fig2, 3, optimize_intersection=False)
        assert np.array_equal(spmd.instances[fig2.A.uid].fields["v"],
                              seq.instances[fig2.A.uid].fields["v"])
        assert spmd.replay_hits > 0

    def test_barrier_sync_replay(self):
        fig2 = Fig2(steps=6)
        seq, spmd = run_pair(fig2, 4, sync="barrier")
        assert np.array_equal(spmd.instances[fig2.A.uid].fields["v"],
                              seq.instances[fig2.A.uid].fields["v"])
        assert spmd.replay_hits == (fig2.steps - interpreted_iterations()) * 4

    def test_while_loop_replays(self):
        fig2 = Fig2(steps=1)

        def build():
            b = ProgramBuilder("fig2_while")
            b.let("t", 0)
            with b.while_loop(BinOp("<", ScalarRef("t"), Const(6))):
                b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
                b.launch(fig2.TG, fig2.I, fig2.PA, fig2.QB)
                b.assign("t", BinOp("+", ScalarRef("t"), Const(1)))
            return b.build()

        seq = SequentialExecutor(instances=fig2.fresh_instances())
        seq.run(build())
        prog, _ = control_replicate(build(), num_shards=4)
        spmd = SPMDExecutor(num_shards=4, instances=fig2.fresh_instances())
        spmd.run(prog)
        assert np.array_equal(spmd.instances[fig2.A.uid].fields["v"],
                              seq.instances[fig2.A.uid].fields["v"])
        # The while condition is a hoisted guard over `t`, which changes
        # every iteration — but `t` is written *after* the launches by the
        # loop-counter assign, which replays before the next guard check.
        captured = interpreted_iterations()
        assert spmd.replay_hits == (6 - captured) * 4
        assert spmd.replay_misses == captured * 4


class TestGuardFallback:
    def _program_with_branch(self, fig2, steps, special):
        b = ProgramBuilder("fig2_branch")
        b.let("T", steps)
        with b.for_range("t", 0, "T"):
            b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
            with b.if_stmt(BinOp("==", ScalarRef("t"), Const(special))):
                b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
            b.launch(fig2.TG, fig2.I, fig2.PA, fig2.QB)
        return b.build()

    def test_branch_miss_falls_back_to_interpretation(self):
        fig2 = Fig2(steps=1)
        steps, special = 6, 4
        prog = self._program_with_branch(fig2, steps, special)
        seq = SequentialExecutor(instances=fig2.fresh_instances())
        seq.run(self._program_with_branch(fig2, steps, special))
        cprog, _ = control_replicate(prog, num_shards=4)
        spmd = SPMDExecutor(num_shards=4, instances=fig2.fresh_instances())
        spmd.run(cprog)
        assert np.array_equal(spmd.instances[fig2.A.uid].fields["v"],
                              seq.instances[fig2.A.uid].fields["v"])
        # Iterations 0, 1 interpret (capture), 2, 3 replay, 4 misses the
        # `t == 4` guard and interprets, 5 replays again.
        assert spmd.replay_misses == 3 * 4
        assert spmd.replay_hits == 3 * 4

    def _unfreezable_program(self, fig2, steps):
        # The branch condition reads a scalar written earlier in the same
        # iteration, so it cannot be hoisted to the iteration start.
        b = ProgramBuilder("fig2_unfreezable")
        b.let("T", steps)
        b.let("s", 0)
        with b.for_range("t", 0, "T"):
            b.assign("s", BinOp("+", ScalarRef("s"), Const(1)))
            with b.if_stmt(BinOp("<", ScalarRef("s"), Const(100))):
                b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
            b.launch(fig2.TG, fig2.I, fig2.PA, fig2.QB)
        return b.build()

    def test_unfreezable_never_replays_under_auto(self):
        fig2 = Fig2(steps=1)
        prog = self._unfreezable_program(fig2, 5)
        seq = SequentialExecutor(instances=fig2.fresh_instances())
        seq.run(self._unfreezable_program(fig2, 5))
        cprog, _ = control_replicate(prog, num_shards=4)
        spmd = SPMDExecutor(num_shards=4, instances=fig2.fresh_instances())
        spmd.run(cprog)
        assert np.array_equal(spmd.instances[fig2.A.uid].fields["v"],
                              seq.instances[fig2.A.uid].fields["v"])
        assert spmd.replay_hits == 0
        assert spmd.replay_misses == 5 * 4


class TestCounterParity:
    """Satellite: counters must match interpretation bit-for-bit."""

    APPS = {
        "stencil": lambda: StencilProblem(n=24, radius=2, tiles=4, steps=5),
        "circuit": lambda: CircuitProblem(pieces=4, nodes_per_piece=25,
                                          wires_per_piece=40, steps=5),
    }

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_counters_match_interpreted(self, app, mode, interpret_only):
        p = self.APPS[app]()

        def totals():
            _, _, ex, _ = p.run_control_replicated(4, mode=mode)
            return (ex.tasks_executed, ex.pair_visits, ex.copies_performed,
                    ex.elements_copied, ex.bytes_copied), ex.replay_hits

        with interpret_only:
            interp, interp_hits = totals()
        replayed, hits = totals()
        assert interp_hits == 0 < hits
        assert interp == replayed
        assert interp[2] > 0

    def test_replay_counters_funnel_through_procs(self):
        if not procs_available():
            pytest.skip("fork unavailable")
        p = self.APPS["stencil"]()
        _, _, ex, _ = p.run_control_replicated(4, mode="procs")
        steps, captured = 5, interpreted_iterations()
        assert ex.replay_misses == captured * 4
        assert ex.replay_hits == (steps - captured) * 4


class TestDivergence:
    def test_capture_boundary_mismatch_raises(self, fig2):
        ex = SPMDExecutor(num_shards=2, instances=fig2.fresh_instances())
        s0 = _ShardState(shard=0, scalars={"t": 1})
        s1 = _ShardState(shard=1, scalars={"t": 1})
        s0.capture_points = {7: 2}
        s1.capture_points = {7: 3}
        with pytest.raises(ReplicationDivergence, match="froze replay"):
            ex._merge_scalars([s0, s1])

    def test_matching_boundaries_pass(self, fig2):
        ex = SPMDExecutor(num_shards=2, instances=fig2.fresh_instances())
        s0 = _ShardState(shard=0, scalars={"t": 1})
        s1 = _ShardState(shard=1, scalars={"t": 1})
        s0.capture_points = {7: 2}
        s1.capture_points = {7: 2}
        ex._merge_scalars([s0, s1])  # no raise


class TestObservability:
    def test_capture_and_replay_spans_in_trace(self):
        fig2 = Fig2(steps=5)
        tracer = Tracer()
        prog, _ = control_replicate(fig2.build(), num_shards=2,
                                    tracer=tracer)
        ex = SPMDExecutor(num_shards=2, instances=fig2.fresh_instances(),
                          tracer=tracer)
        ex.run(prog)
        names = [e.get("name") for e in ex.tracer.events()]
        assert "replay:capture" in names
        assert "replay:iteration" in names
        assert "replay" in names  # hit/miss counter track
        captures = [e for e in ex.tracer.events()
                    if e.get("name") == "replay:capture"]
        assert len(captures) == 2  # one frozen window per shard


class TestEvolvingScalars:
    def test_pennant_dt_collective_replays(self):
        # pennant's dt is recomputed by a min-collective every step, so the
        # scalar environment changes each iteration; the trace must
        # re-evaluate scalar expressions and collective results per replay.
        p = PennantProblem(nx=8, ny=8, pieces=4, steps=6)
        seq_state, seq_scalars, _ = p.run_sequential()
        st, scalars, ex, _ = p.run_control_replicated(4)
        assert ex.replay_hits > 0
        assert scalars["dt"] == seq_scalars["dt"]
        for k in seq_state:
            assert np.allclose(st[k], seq_state[k], rtol=1e-11, atol=1e-13)


class TestRepeatedRun:
    """Satellite: a second run() re-resolves instances and intersections."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_double_run_matches_sequential(self, mode):
        fig2 = Fig2(steps=4)
        seq = SequentialExecutor(instances=fig2.fresh_instances())
        seq.run(fig2.build())
        seq.run(fig2.build())
        prog, _ = control_replicate(fig2.build(), num_shards=4)
        spmd = SPMDExecutor(num_shards=4, mode=mode,
                            instances=fig2.fresh_instances())
        spmd.run(prog)
        spmd.run(prog)
        assert np.array_equal(spmd.instances[fig2.A.uid].fields["v"],
                              seq.instances[fig2.A.uid].fields["v"])
        assert np.array_equal(spmd.instances[fig2.B.uid].fields["v"],
                              seq.instances[fig2.B.uid].fields["v"])
        # The intersection cache must not survive into the second run: its
        # results were resolved against instances of the first run.
        assert spmd.intersections_computed == 2
        assert len(spmd._isect_cache) == 1


def _install_roots(ex, problem):
    """Load a problem's freshly initialized roots into an executor's root
    instances, overwriting in place any an earlier run left there."""
    for uid, inst in problem.fresh_instances().items():
        dst = ex.instances.get(uid)
        if dst is None:
            ex.instances[uid] = inst
        else:
            for field, arr in inst.fields.items():
                dst.fields[field][...] = arr


def _fig2_with_boom(fig2, boom):
    """Fig. 2 whose TF raises at iteration ``boom["at"]`` (never when it
    is None), so one program object can fail a run and then pass one."""
    @task(privileges=[RW("v"), R("v")], name="TF")
    def TF(Bv, Av, t):
        if t == boom["at"]:
            raise ValueError("boom")
        Bv.write("v")[:] = np.sin(Av.read("v")) + 1.0

    b = ProgramBuilder("fig2_boom")
    b.let("T", fig2.steps)
    with b.for_range("t", 0, "T"):
        b.launch(TF, fig2.I, fig2.PB, fig2.PA, ScalarRef("t"))
        b.launch(fig2.TG, fig2.I, fig2.PA, fig2.QB)
    return b.build()


class TestResidentExecutor:
    """One executor kept across runs: every run starts fresh, so nothing
    an earlier run resolved, froze or left half done reaches the next."""

    @pytest.mark.parametrize("mode", ["stepped", "threaded"])
    def test_program_switch_resets_stale_plans(self, mode):
        # One executor running back-to-back *different* apps must never
        # replay plans or intersections of the other program/layout.
        fig2 = Fig2(steps=4)
        circuit = CircuitProblem(pieces=4, nodes_per_piece=10,
                                 wires_per_piece=15, steps=3)
        prog_a, _ = control_replicate(fig2.build(), num_shards=4)
        prog_b, _ = control_replicate(circuit.build_program(), num_shards=4)
        ex = SPMDExecutor(num_shards=4, mode=mode,
                          instances=fig2.fresh_instances())
        ex.run(prog_a)
        isects_a = ex.intersections_computed
        assert len(ex._isect_cache) > 0

        _install_roots(ex, circuit)
        ex.run(prog_b)
        # The circuit's intersections were computed anew, not read from
        # the stencil's cache.
        assert ex.intersections_computed > isects_a
        seq_state, _, _ = circuit.run_sequential()
        state = circuit.extract_state(ex.instances)
        for k in seq_state:
            assert np.allclose(state[k], seq_state[k],
                               rtol=1e-11, atol=1e-13)

        # And back again: the first program's intersections are
        # recomputed, and its run is the sequential one.
        _install_roots(ex, fig2)
        isects_b = ex.intersections_computed
        ex.run(prog_a)
        assert ex.intersections_computed - isects_b == isects_a
        seq = SequentialExecutor(instances=fig2.fresh_instances())
        seq.run(fig2.build())
        for uid in (fig2.A.uid, fig2.B.uid):
            assert np.array_equal(ex.instances[uid].fields["v"],
                                  seq.instances[uid].fields["v"])

    def test_failed_run_resets_resident_state(self):
        """A shard failure after the loop froze leaves nothing the next
        run of the same program replays into: it re-captures, recompiles
        and recomputes its intersections, and ends where the sequential
        run does."""
        fig2 = Fig2(steps=4)
        boom = {"at": 2}
        prog, _ = control_replicate(_fig2_with_boom(fig2, boom),
                                    num_shards=2)
        ex = SPMDExecutor(num_shards=2, mode="stepped",
                          instances=fig2.fresh_instances())
        with pytest.raises(ValueError, match="boom"):
            ex.run(prog)  # iteration 2 is a replayed one
        # The failing launch froze its loop first (its counters die with
        # it; its rings do not).
        for shard in range(2):
            assert COMPILE in ex.flight.ring(shard).snapshot()["kind"]
        misses, compiles = ex.replay_misses, ex.window_compiles
        isects = ex.intersections_computed
        boom["at"] = None
        _install_roots(ex, fig2)
        ex.run(prog)
        assert ex.replay_misses - misses == interpreted_iterations() * 2
        assert ex.window_compiles - compiles == 2
        assert ex.intersections_computed - isects == isects
        seq = SequentialExecutor(instances=fig2.fresh_instances())
        seq.run(fig2.build())
        for uid in (fig2.A.uid, fig2.B.uid):
            assert np.array_equal(ex.instances[uid].fields["v"],
                                  seq.instances[uid].fields["v"])

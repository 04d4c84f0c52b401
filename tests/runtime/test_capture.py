"""Capture and freeze: when a loop freezes, and that the interpreter (which
runs a copy statement in the compiled window's phase order) and the window
are the same program on every backend and schedule."""

import numpy as np
import pytest

from repro.apps.circuit import CircuitProblem
from repro.apps.miniaero import MiniAeroProblem
from repro.apps.pennant import PennantProblem
from repro.apps.stencil import StencilProblem
from repro.core import ProgramBuilder, control_replicate
from repro.core.ir import BinOp, Const, ForRange, ScalarRef, walk
from repro.runtime import SequentialExecutor, SPMDExecutor, procs_available
from repro.runtime.spmd import COUNTERS
from repro.runtime.window import exec as window_exec
from repro.runtime.window.recorder import OP_FUSED

from tests.conftest import Fig2, interpreted_iterations

BACKENDS = ["stepped", "threaded"] + (
    ["procs", "net"] if procs_available() else [])


def branch_program(fig2, steps, special):
    """Fig. 2 with an extra TF launch on iteration ``special`` only."""
    b = ProgramBuilder("fig2_branch")
    b.let("T", steps)
    with b.for_range("t", 0, "T"):
        b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
        with b.if_stmt(BinOp("==", ScalarRef("t"), Const(special))):
            b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
        b.launch(fig2.TG, fig2.I, fig2.PA, fig2.QB)
    return b.build()


def run(build, fig2, mode, shards=2, monkeypatch=None, **kw):
    """Run ``build()`` control-replicated; returns the executor, the loop's
    uid and, per launch, every shard's ``capture_points`` (read where the
    parent validates them, so forked ranks are covered)."""
    prog, _ = control_replicate(build(), num_shards=shards)
    loop = next(s.uid for s in walk(prog.body) if isinstance(s, ForRange))
    froze = []
    merge = SPMDExecutor._merge_scalars

    def spy(self, states):
        froze.append([dict(st.capture_points) for st in states])
        merge(self, states)

    monkeypatch.setattr(SPMDExecutor, "_merge_scalars", spy)
    ex = SPMDExecutor(num_shards=shards, mode=mode,
                      instances=fig2.fresh_instances(), **kw)
    ex.run(prog)
    return ex, prog, loop, froze


def same_as_sequential(ex, fig2, build, runs=1):
    seq = SequentialExecutor(instances=fig2.fresh_instances())
    for _ in range(runs):
        seq.run(build())
    return all(np.array_equal(ex.instances[uid].fields["v"],
                              seq.instances[uid].fields["v"])
               for uid in (fig2.A.uid, fig2.B.uid))


class TestFreezeRule:
    """Observed, not configured: no guard recorded, nothing left to
    observe; guards recorded, two equal fingerprints."""

    @pytest.mark.parametrize("mode", BACKENDS)
    def test_flat_loop_freezes_at_once_a_loop_with_an_if_needs_two(
            self, mode, monkeypatch):
        fig2 = Fig2(steps=5)
        ex, _, loop, froze = run(fig2.build, fig2, mode,
                                 monkeypatch=monkeypatch)
        assert interpreted_iterations() == 1
        assert froze == [[{loop: 1}] * 2]
        assert (ex.replay_misses, ex.replay_hits) == (1 * 2, 4 * 2)
        assert ex.window_compiles == 2 and ex.replay_guard_fallbacks == 0
        assert same_as_sequential(ex, fig2, fig2.build)

        fig2 = Fig2(steps=1)

        def build():  # the branch is never taken, but it is evaluated
            return branch_program(fig2, 5, 99)

        ex, _, loop, froze = run(build, fig2, mode, monkeypatch=monkeypatch)
        assert interpreted_iterations(guards=True) == 2
        assert froze == [[{loop: 2}] * 2]
        assert (ex.replay_misses, ex.replay_hits) == (2 * 2, 3 * 2)
        assert ex.window_compiles == 2 and ex.replay_guard_fallbacks == 0
        assert same_as_sequential(ex, fig2, build)

    @pytest.mark.parametrize("mode", ["stepped", "threaded"])
    def test_first_iteration_branch_gets_a_steady_window(self, mode,
                                                         monkeypatch):
        """A branch taken on iteration 0 only: freezing what iteration 0
        ran would leave a window whose guard never holds again.  The
        window is the steady path's."""
        fig2 = Fig2(steps=1)

        def build():
            return branch_program(fig2, 6, 0)

        ex, _, loop, froze = run(build, fig2, mode, monkeypatch=monkeypatch)
        # Iteration 0 took the branch, 1 and 2 agreed: frozen at the 3rd.
        assert froze == [[{loop: 3}] * 2]
        assert (ex.replay_misses, ex.replay_hits) == (3 * 2, 3 * 2)
        assert ex.window_compiles == 2
        assert ex.replay_guard_fallbacks == 0
        assert same_as_sequential(ex, fig2, build)


APPS = {
    "stencil": lambda: StencilProblem(n=24, radius=2, tiles=4, steps=4),
    "circuit": lambda: CircuitProblem(pieces=4, nodes_per_piece=25,
                                      wires_per_piece=40, steps=4),
    "pennant": lambda: PennantProblem(nx=8, ny=8, pieces=4, steps=4),
    "miniaero": lambda: MiniAeroProblem(shape=(6, 6, 6), tiles=4, steps=4),
}
EXACT = {"stencil", "miniaero"}  # bit-identical to sequential; else round-off

# Counters that describe the form an iteration ran in (interpreted or
# replayed), not what it did.  The copy-engine counters are not among
# them: both forms apply the same lowered batches.
FORM = {"replay_hits", "replay_misses", "window_ops_recorded",
        "window_ops_lowered", "window_closures", "window_compiles"}
# What a net run counts differently from the shared-memory backends:
# cross-rank pairs are messages, not fused in-memory items, and fold on
# the receiver; and a statement's pairs to one peer are recorded as one
# send.
NET_FORM = {"fused_copies", "fused_pairs", "lockfree_folds", "locked_folds",
            "window_ops_recorded", "window_ops_lowered", "window_closures"}


class TestInterpreterIsTheWindow:
    """One schedule for a copy statement, interpreted or compiled: same
    state and same counters on every backend and under every stepped
    interleaving."""

    @pytest.mark.parametrize("sync", ["p2p", "barrier"])
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_state_and_counters(self, app, sync, interpret_only):
        p = APPS[app]()
        seq, _, _ = p.run_sequential()
        schedules = [("stepped", seed) for seed in range(10)]
        schedules += [(mode, 0) for mode in BACKENDS[1:]]

        def totals(mode, seed):
            state, _, ex, _ = p.run_control_replicated(
                2, mode=mode, seed=seed, sync=sync)
            for k in seq:
                if app in EXACT:
                    assert np.array_equal(state[k], seq[k]), (mode, seed, k)
                else:
                    assert np.allclose(state[k], seq[k], rtol=1e-11,
                                       atol=1e-13), (mode, seed, k)
            return {name: getattr(ex, name) for name in COUNTERS}

        assert len(COUNTERS) == 16
        want = {}
        for mode, seed in schedules:
            with interpret_only:
                interp = totals(mode, seed)
            compiled = totals(mode, seed)
            assert interp["replay_hits"] == 0 < compiled["replay_hits"]
            # No app's time loop evaluates a guard: one capture a shard.
            assert compiled["replay_misses"] == interpreted_iterations() * 2
            # What ran does not depend on the form it ran in ...
            assert ({k: v for k, v in interp.items() if k not in FORM}
                    == {k: v for k, v in compiled.items() if k not in FORM})
            # ... and neither form depends on the schedule: all 16
            # counters, except on net where the form itself differs.
            for form, got in (("interp", interp), ("compiled", compiled)):
                ref = want.setdefault(form, got)
                skip = NET_FORM if mode == "net" else ()
                assert ({k: v for k, v in got.items() if k not in skip}
                        == {k: v for k, v in ref.items() if k not in skip}), (
                    form, mode, seed)


class TestOneCopyPlan:
    """A copy statement lowers once, to the batch the interpreter applies
    and the window replays: the recorded window is already the lowered
    one, whatever the number of intersection pairs."""

    @pytest.mark.parametrize("mode", BACKENDS)
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_recorded_ops_are_the_lowered_ops(self, app, mode):
        _, _, ex, _ = APPS[app]().run_control_replicated(2, mode=mode)
        assert ex.window_compiles == 2
        assert ex.window_ops_recorded == ex.window_ops_lowered > 0

    def test_window_size_does_not_grow_with_pairs(self):
        got = {}
        for pieces in (24, 96):
            p = CircuitProblem(pieces=pieces, nodes_per_piece=20,
                               wires_per_piece=30, steps=4)
            _, _, ex, _ = p.run_control_replicated(2)
            assert ex.window_compiles == 2
            got[pieces] = (ex.window_ops_recorded, ex.window_ops_lowered)
        assert got[24] == got[96] and got[24][0] == got[24][1]

    @pytest.mark.parametrize("mode", ["stepped", "threaded"])
    @pytest.mark.parametrize("app", ["circuit", "stencil"])
    def test_interpreter_and_window_apply_one_batch(self, app, mode,
                                                    monkeypatch):
        applied, replayed = {}, {}
        apply = SPMDExecutor._apply_batch

        def recording(batch, state):
            applied.setdefault((state.shard, batch.uid), []).append(batch)
            apply(batch, state)

        monkeypatch.setattr(SPMDExecutor, "_apply_batch",
                            staticmethod(recording))
        build = window_exec.CompiledWindow.build.__func__

        def tracking(cls, wir, state, comm, uid=0):
            for op in wir.ops:
                if op[0] == OP_FUSED:
                    replayed.setdefault((state.shard, op[1].uid),
                                        []).append(op[1])
            return build(cls, wir, state, comm, uid)

        monkeypatch.setattr(window_exec.CompiledWindow, "build",
                            classmethod(tracking))
        APPS[app]().run_control_replicated(2, mode=mode)
        assert replayed and set(replayed) <= set(applied)
        for key, batches in applied.items():
            assert all(b is batches[0] for b in batches), key
            assert all(b is batches[0] for b in replayed.get(key, ())), key

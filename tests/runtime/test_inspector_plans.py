"""Inspector plans at run time: inspect once, execute many.

How often a task's inspector runs must not depend on how many steps the
program takes: once per distinct (task, point) under the sequential
executor, and under control replication, on every backend, once per shard
block for a batched launch (no per-point plan is ever built for it: the
stencil's, circuit's and PENNANT's) and once per owned point otherwise.  Re-inspecting every step
fails here by name instead of showing up as a slow benchmark.
"""

import multiprocessing

import numpy as np
import pytest

from repro.apps.circuit import CircuitProblem
from repro.apps.pennant import PennantProblem
from repro.apps.stencil import StencilProblem
from repro.core import ProgramBuilder, control_replicate
from repro.core.ir import BinOp, Const, ScalarRef
from repro.core.shards import shard_owned_colors
from repro.obs import flight as fl
from repro.runtime import (
    SequentialExecutor,
    ShardExceptionGroup,
    SPMDExecutor,
    procs_available,
)
from repro.tasks import R, RW, task

from tests.conftest import Fig2, interpreted_iterations

FORKING = ["procs", "net"] if procs_available() else []
ALL_MODES = ["stepped", "threaded"] + FORKING


class CallLog:
    """Inspector calls as ``(first point, point count)`` of the first
    view, kept in shared memory so forked shards log into it too."""

    def __init__(self, capacity: int = 512):
        self._n = multiprocessing.Value("i", 0)
        self._rows = multiprocessing.Array("q", 2 * capacity)

    def wrap(self, t):
        inner = t.inspect

        def logging_inspector(*views):
            with self._n.get_lock():
                k = self._n.value
                self._n.value += 1
            self._rows[2 * k] = int(views[0].points[0])
            self._rows[2 * k + 1] = views[0].n
            return inner(*views)

        t.inspect = logging_inspector
        return self

    def calls(self) -> list[tuple[int, int]]:
        return sorted((self._rows[2 * k], self._rows[2 * k + 1])
                      for k in range(self._n.value))


def stencil(steps, tiles=8, n=32):
    p = StencilProblem(n=n, radius=2, tiles=tiles, steps=steps)
    return p, CallLog().wrap(p.stencil_task)


def tile_calls(p):
    return sorted((int(p.POUT[c].index_set.to_indices()[0]), p.POUT[c].volume)
                  for c in p.POUT.colors)


def run_cr(p, shards, mode, **kw):
    prog, _ = control_replicate(p.build_program(), num_shards=shards)
    ex = SPMDExecutor(num_shards=shards, mode=mode,
                      instances=p.fresh_instances(), **kw)
    ex.run(prog)
    return ex, prog


class TestCallCounts:
    @pytest.mark.parametrize("steps", [1, 3, 9])
    def test_sequential_inspects_each_point_once(self, steps):
        p, log = stencil(steps)
        SequentialExecutor(instances=p.fresh_instances()).run(p.build_program())
        assert log.calls() == tile_calls(p)

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("shards", [2, 3])
    def test_cr_inspects_once_per_shard_block(self, mode, shards):
        logs = []
        for steps in (4, 9):
            p, log = stencil(steps)
            ex, _ = run_cr(p, shards, mode)
            assert ex.replay_hits == (
                steps - interpreted_iterations()) * shards
            logs.append(log.calls())
        # Per shard: one call, over the batched views of its launch plan;
        # the interpreter runs that plan too, so no tile is inspected.
        expected = []
        for x in range(shards):
            owned = [p.POUT[c] for c in shard_owned_colors(p.tiles, shards, x)]
            assert len(owned) > 1
            expected.append((int(owned[0].index_set.to_indices()[0]),
                             sum(r.volume for r in owned)))
        assert logs[0] == logs[1] == sorted(expected)

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("app", ["circuit", "pennant"])
    def test_pointer_chasing_apps_inspect_once_per_shard(self, app, mode):
        # Segmented localize makes circuit's and PENNANT's inspected tasks
        # batchable: one inspector run per (statement, shard), over the
        # shard's point tasks' views side by side.
        if app == "circuit":
            p = CircuitProblem(pieces=8, nodes_per_piece=20,
                               wires_per_piece=30, steps=4)
            firsts = [p.PW, p.PW, p.pg.private_part]
        else:
            p = PennantProblem(nx=12, ny=12, pieces=8, steps=4)
            firsts = [p.PZ, p.PZ]
        log = CallLog()
        for t in p.tasks:
            if t.inspect is not None:
                log.wrap(t)
        run_cr(p, 2, mode)
        expected = []
        for part in firsts:
            for x in range(2):
                owned = [part[c] for c in shard_owned_colors(8, 2, x)]
                expected.append((int(owned[0].index_set.to_indices()[0]),
                                 sum(r.volume for r in owned)))
        assert log.calls() == sorted(expected)

    def test_guard_fallback_reinspects_at_most_once(self):
        fig2 = Fig2(steps=1)
        h = fig2.h
        count = multiprocessing.Value("i", 0)

        def plan_tg(Av, Bv):
            count.value += 1
            return Bv.localize(h[Av.points])

        @task(privileges=[RW("v"), R("v")], name="TG", inspect=plan_tg)
        def TG(Av, Bv, *, plan):
            Av.write("v")[:] = 0.5 * Bv.read("v")[plan] + 0.1

        def program(steps, special):
            b = ProgramBuilder("branchy")
            b.let("T", steps)
            with b.for_range("t", 0, "T"):
                b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
                with b.if_stmt(BinOp("==", ScalarRef("t"), Const(special))):
                    b.launch(TG, fig2.I, fig2.PA, fig2.QB)
                b.launch(TG, fig2.I, fig2.PA, fig2.QB)
            return b.build()

        seq = SequentialExecutor(instances=fig2.fresh_instances())
        seq.run(program(8, 5))
        assert count.value == fig2.nt
        count.value = 0
        prog, _ = control_replicate(program(8, 5), num_shards=2)
        ex = SPMDExecutor(num_shards=2, instances=fig2.fresh_instances())
        ex.run(prog)
        assert ex.replay_guard_fallbacks == 2
        assert np.array_equal(ex.instances[fig2.A.uid].fields["v"],
                              seq.instances[fig2.A.uid].fields["v"])
        # Once per point: the two TG launches are two plans, but a shard
        # binds both to its one inspector memo, so the t == 5 fallback
        # iteration that lowers the second one inspects nothing.
        assert count.value == fig2.nt


class TestRaisingInspector:
    """A raising inspector surfaces like a raising task: the launch fails
    with the inspector's own error, and the flight ring of the failing
    shard ends on a TASK record naming the launch statement."""

    def _program(self, fig2):
        def plan_boom(Bv, Av):
            if Av.points[0] == 0:
                raise ValueError("inspector boom at point 0")

        @task(privileges=[RW("v"), R("v")], name="planned", inspect=plan_boom)
        def planned(Bv, Av, *, plan):
            Bv.write("v")[:] = Av.read("v")

        b = ProgramBuilder("boom")
        b.let("T", 3)
        with b.for_range("t", 0, "T"):
            b.launch(planned, fig2.I, fig2.PB, fig2.PA)
        return b.build()

    def test_sequential(self, fig2):
        with pytest.raises(ValueError, match="inspector boom"):
            SequentialExecutor(instances=fig2.fresh_instances()).run(
                self._program(fig2))

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_cr_names_shard_and_statement(self, fig2, mode):
        prog, _ = control_replicate(self._program(fig2), num_shards=2)
        ex = SPMDExecutor(num_shards=2, mode=mode, flight=True,
                          instances=fig2.fresh_instances(),
                          deadlock_timeout=20.0)
        with pytest.raises((ValueError, ShardExceptionGroup)) as info:
            ex.run(prog)
        errors = getattr(info.value, "exceptions", (info.value,))
        assert any("inspector boom" in str(e) for e in errors)
        launch_uids = {s.uid for s in _launches(prog)}
        snap = ex.flight.ring(0).snapshot()  # shard 0 owns point 0
        tasks = snap["uid"][snap["kind"] == fl.TASK]
        assert tasks.size and int(tasks[-1]) in launch_uids


def _launches(prog):
    from repro.core.ir import IndexLaunch, walk
    return [s for s in walk(prog.body) if isinstance(s, IndexLaunch)]


class TestBatchableContract:
    """A batched view localizes only with ``seg`` naming each id's point
    task: without it the lookup raises by name, with it the answer is
    the per-point one."""

    @staticmethod
    def _program(fig2, segmented, where, inspected=None):
        h = fig2.h

        def lookup(Av, Bv):
            ids = h[Av.points]
            if not segmented:
                return Bv.localize(ids)
            seg = np.repeat(np.arange(Av.offsets.size - 1),
                            np.diff(Av.offsets))
            return Bv.localize(ids, seg)

        def plan_slots(Av, Bv):
            if inspected is not None:
                inspected.value += 1
            return lookup(Av, Bv) if where == "inspector" else None

        @task(privileges=[RW("v"), R("v")], name="gather", batchable=True,
              inspect=plan_slots)
        def gather(Av, Bv, *, plan):
            if where == "body":
                plan = lookup(Av, Bv)
            Av.write("v")[:] = 0.5 * Bv.read("v")[plan] + 0.1

        b = ProgramBuilder("batched_gather")
        b.let("T", 4)
        with b.for_range("t", 0, "T"):
            b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
            b.launch(gather, fig2.I, fig2.PA, fig2.QB)
        return b.build()

    @pytest.mark.parametrize("where", ["inspector", "body"])
    def test_slot_access_on_a_batched_view_names_the_contract(self, fig2, where):
        prog, _ = control_replicate(self._program(fig2, False, where),
                                    num_shards=2)
        ex = SPMDExecutor(num_shards=2, instances=fig2.fresh_instances())
        with pytest.raises(TypeError,
                           match=r"gather.*batchable.*localize.*seg"):
            ex.run(prog)

    @pytest.mark.parametrize("where", ["inspector", "body"])
    def test_segmented_localize_is_the_per_point_answer(self, fig2, where):
        seq = SequentialExecutor(instances=fig2.fresh_instances())
        seq.run(self._program(fig2, True, where))
        inspected = multiprocessing.Value("i", 0)
        prog, _ = control_replicate(
            self._program(fig2, True, where, inspected), num_shards=2)
        ex = SPMDExecutor(num_shards=2, instances=fig2.fresh_instances())
        ex.run(prog)
        assert inspected.value == 2  # one batched call per shard
        for r in (fig2.A, fig2.B):
            assert np.array_equal(ex.instances[r.uid].fields["v"],
                                  seq.instances[r.uid].fields["v"])


class TestWindowFlightCoverage:
    def test_task_copy_wait_cover_a_replayed_iteration(self):
        # The flight recorder sees inside the compiled window: per shard,
        # the per-phase TASK and COPY records of each replayed iteration
        # plus its WAITs account for (nearly) all of its ITER time.
        p = StencilProblem(n=384, radius=2, tiles=8, steps=12)
        ex, _ = run_cr(p, 2, "threaded", flight=True)
        for shard in (0, 1):
            snap = ex.flight.ring(shard).snapshot()
            dur = snap["t1"] - snap["t0"]
            iters = snap["kind"] == fl.ITER
            assert iters.sum() == p.steps - interpreted_iterations()
            first = snap["t0"][iters].min()
            inside = snap["t0"] >= first
            covered = sum(dur[inside & (snap["kind"] == k)].sum()
                          for k in (fl.TASK, fl.COPY, fl.WAIT))
            assert covered >= 0.9 * dur[iters].sum(), (
                shard, covered, dur[iters].sum())
            # A copy phase's record carries the phase's bytes.
            copies = inside & (snap["kind"] == fl.COPY)
            assert copies.any() and (snap["nbytes"][copies] > 0).all()

"""The one launch path under the four backends (``repro.runtime.launch``).

What the refactor moved and nothing else exercised: the launch spec and
the three contexts built from it agree, and a context indexes its
channels by producer and by consumer; every shard plans its whole body
before its first statement; the counter table is the only list of
counters; a rank that dies hard is reported when it dies, whichever rank
it is; and worker mode (``repro launch-worker``) runs.
"""

import argparse
import json
import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.cli import APP_FACTORIES
from repro.core import ProgramBuilder, control_replicate
from repro.apps.circuit import CircuitProblem
from repro.core.ir import (BinOp, Const, FillReductionBuffer, IfStmt,
                           IndexLaunch, PairwiseCopy, ScalarCollective,
                           ScalarRef, ShardLaunch, walk)
from repro.core.shards import owner_of_color
from repro.obs import MetricsRegistry
from repro.obs import flight as fl
from repro.regions.shm import live_segment_count
from repro.runtime import SPMDExecutor, launch_plan, procs_available, spmd
from repro.runtime.launch import CommContext, channel_keys, launch_spec
from repro.runtime.net.plan import PackedSend, ReceivePlan
from repro.tasks import R, RW, Reduce, task

from tests.conftest import Fig2, interpreted_iterations

needs_fork = pytest.mark.skipif(
    not procs_available(),
    reason="fork start method unavailable on this platform")

APPS = ["stencil", "circuit", "pennant", "miniaero"]


def app_problem(app, steps=3):
    return APP_FACTORIES[app](argparse.Namespace(
        app=app, tiles=4, steps=steps, size=None, shape="star"))


def fake_transport(rank):
    return SimpleNamespace(rank=rank,
                           register=lambda kind, handler: None,
                           send=lambda peer, kind, payload: None)


@needs_fork
class TestSpecParity:
    """One spec per launch; every backend turns the same spec into its
    objects, so independently built contexts agree key for key."""

    @pytest.mark.parametrize("sync", ["p2p", "barrier"])
    @pytest.mark.parametrize("app", APPS)
    def test_contexts_agree_with_the_spec(self, app, sync, monkeypatch):
        from repro.runtime.net.sync import NetCommContext
        from repro.runtime.procs import BoardContext
        seen = []
        derive = spmd.launch_spec

        def recording(stmt, copy_pairs, num_shards):
            spec = derive(stmt, copy_pairs, num_shards)
            seen.append((stmt, spec))
            return spec

        monkeypatch.setattr(spmd, "launch_spec", recording)
        ns = 2
        _, _, ex, _ = app_problem(app).run_control_replicated(ns, sync=sync)
        (launch, spec), = seen

        # The spec against an independent reading of the statement list.
        stmts = list(walk(launch))
        copies = [s for s in stmts if isinstance(s, PairwiseCopy)]
        assert [s.uid for s in spec.copies] == [s.uid for s in copies]
        assert spec.channels == {s.uid: channel_keys(s, ex._copy_pairs(s), ns)
                                 for s in copies}
        for s in copies:
            # A channel is a distinct (producer shard, consumer shard) of
            # the statement's pairs, never a shard with itself.
            crossing = {(owner_of_color(s.src.num_colors, ns, i),
                         owner_of_color(s.dst.num_colors, ns, j))
                        for (i, j) in ex._copy_pairs(s)}
            keys = spec.channels[s.uid]
            assert len(keys) == len(set(keys)) <= ns * (ns - 1)
            assert set(keys) == {(p, q) for (p, q) in crossing if p != q}
        # A ScalarCollective under its uid, a barrier-mode copy's pre and
        # post as value-less collectives naming the copy, in walk order.
        want_colls = []
        for s in stmts:
            if isinstance(s, ScalarCollective):
                want_colls.append((s.uid, s.redop, None))
            elif isinstance(s, PairwiseCopy) and s.sync_mode == "barrier":
                want_colls += [(f"pre:{s.uid}", None, s),
                               (f"post:{s.uid}", None, s)]
        assert spec.collectives == want_colls
        assert (sync == "barrier") == any(
            isinstance(key, str) for key, _, _ in want_colls)
        # One fold lock per (reduction statement, destination shard): a
        # shard's destination colours are rows of one block.
        assert spec.reduction_dsts == [(s.uid, q) for s in copies
                                       if s.redop is not None
                                       for q in range(ns)]

        def keys(ctx):
            return ({uid: list(chans) for uid, chans in ctx.channels.items()},
                    list(ctx.collectives))

        want = (spec.channels, [key for key, _, _ in spec.collectives])
        memory, board = CommContext(spec, ns), BoardContext(spec, ns)
        assert keys(memory) == keys(board) == want
        # Board slots are 0..n-1 in the spec's channel order.
        slots = [board.channels[s.uid][k].ready._idx
                 for s in copies for k in spec.channels[s.uid]]
        assert slots == list(range(len(slots)))
        assert len(board._chan_ready) == max(1, len(slots))

        ranks = [NetCommContext(fake_transport(r), spec, ns)
                 for r in range(ns)]
        for r, ctx in enumerate(ranks):
            chans, colls = keys(ctx)
            assert colls == want[1]
            for s in copies:
                assert chans[s.uid] == [k for k in spec.channels[s.uid]
                                        if r in k]
        # Both ends of a cross-rank channel number it identically without
        # having exchanged anything: the consumer credits the id under
        # which the producer keeps its credit mirror.
        assert any(spec.channels.values())
        for s in copies:
            for (p, q) in spec.channels[s.uid]:
                cid = ranks[q].channels[s.uid][(p, q)].acked.chan_id
                assert (ranks[p]._credit[cid]
                        is ranks[p].channels[s.uid][(p, q)].acked)
        # Whichever context built a channel, it labelled its two waits,
        # once, with the shard pair it connects.
        for ctx in (memory, board, *ranks):
            for s in copies:
                for (p, q), chan in ctx.channels[s.uid].items():
                    assert chan.ack_label == f"copy{s.uid}:ack({p},{q})"
                    assert chan.ready_label == f"copy{s.uid}:ready({p},{q})"
            # ... and each collective its one wait label: a barrier-mode
            # copy's waits name the copy, so they report as copy waits.
            for key, redop, copy in spec.collectives:
                assert ctx.collectives[key].label == (
                    f"coll{key}:{redop}" if copy is None
                    else f"copy{copy.uid}:{key.split(':')[0]}")


class TestChannelIndexes:
    def test_producer_and_consumer_indexes_partition_the_channels(self):
        """``outbound[uid][p]`` and ``inbound[uid][q]`` each hold every
        channel of a copy exactly once, the very objects of
        ``channels[uid]``, each row in spec order — so a shard's plan
        reads its own channels instead of scanning all of them."""
        ns = 8
        p = CircuitProblem(pieces=24, nodes_per_piece=20, wires_per_piece=30,
                           steps=2)
        prog, _ = control_replicate(p.build_program(), num_shards=ns)
        ex = SPMDExecutor(num_shards=ns, instances=p.fresh_instances())
        ex.run(prog)  # evaluates the pair sets
        launch = next(s for s in walk(prog.body)
                      if isinstance(s, ShardLaunch))
        spec = launch_spec(launch, ex._copy_pairs, ns)
        ctx = CommContext(spec, ns)
        assert spec.copies
        for s in spec.copies:
            chans = ctx.channels[s.uid]
            order = list(chans)
            assert order == spec.channels[s.uid]
            by_producer = [((p, q), c)
                           for p, row in ctx.outbound[s.uid].items()
                           for q, c in row.items()]
            by_consumer = [((p, q), c)
                           for q, col in ctx.inbound[s.uid].items()
                           for p, c in col.items()]
            for index in (by_producer, by_consumer):
                assert sorted(k for k, _ in index) == sorted(order)
                assert all(c is chans[k] for k, c in index)
            for p, row in ctx.outbound[s.uid].items():
                assert list(row) == [q for pp, q in order if pp == p]
            for q, col in ctx.inbound[s.uid].items():
                assert list(col) == [p for p, qq in order if qq == q]
        assert sum(map(len, spec.channels.values())) > 2 * ns


def _planned_program(fig2):
    """Fig. 2 plus a reduction into the image partition (a fill and
    reduction copies), a max-reduced scalar (a collective), and a branch
    that is never taken, holding a launch and the copy it needs."""
    h = fig2.h

    @task(privileges=[Reduce("+", "v"), R("v")], name="plan_fold")
    def fold(Bacc, Av):
        slots, ok = Bacc.maybe_localize(h[Av.points])
        Bacc.reduce("v", slots[ok], 0.01 * Av.read("v")[ok], "+")

    @task(privileges=[R("v")], name="plan_max")
    def biggest(Av):
        return float(Av.read("v").max())

    b = ProgramBuilder("plan_then_run")
    b.let("T", 3)
    with b.for_range("t", 0, "T"):
        b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
        b.launch(fig2.TG, fig2.I, fig2.PA, fig2.QB)
        b.launch(fold, fig2.I, fig2.QB, fig2.PA)
        b.launch(biggest, fig2.I, fig2.PA, reduce=("max", "m"))
        with b.if_stmt(BinOp("<", ScalarRef("t"), Const(0))):
            b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
    return b.build()


_PLANNED = (IndexLaunch, PairwiseCopy, FillReductionBuffer, ScalarCollective)


class TestPlanThenRun:
    """A shard plans its whole launch body before its first statement, on
    every backend: its plan has an entry for every index launch, copy,
    fill and collective — also inside a branch never taken — and no
    launch lowering, copy lowering or ``net`` send/receive plan is built
    once the shard has written its first TASK or COPY flight record, nor
    outside a shard's body."""

    @pytest.mark.parametrize("mode", ["stepped", "threaded"] + (
        ["procs", "net"] if procs_available() else []))
    def test_plan_is_built_before_the_first_statement(self, fig2, mode,
                                                      monkeypatch):
        prog, _ = control_replicate(_planned_program(fig2), num_shards=2)
        body = [s for s in walk(prog.body) if isinstance(s, _PLANNED)]
        assert {type(s) for s in body} == set(_PLANNED)
        branch = next(s for s in walk(prog.body) if isinstance(s, IfStmt))
        untaken = {s.uid for s in walk(branch.then_block)
                   if isinstance(s, _PLANNED)}
        assert len(untaken) == 2  # a launch and its copy
        expected = {s.uid for s in body}
        # Shared with forked shards: plans checked, lowerings spied.
        counts = multiprocessing.Array("i", 4)
        current = threading.local()  # the shard state whose step runs

        run_shard = spmd.SPMDExecutor._run_shard

        def stepping(ex, stmt, state, ctx):
            gen = run_shard(ex, stmt, state, ctx)
            while True:
                current.state = state
                try:
                    ev = next(gen)
                except StopIteration:
                    return
                finally:
                    current.state = None
                yield ev

        plan_shard = spmd.plan_shard

        def planning(body, shard, ex, ctx, flight):
            plan = plan_shard(body, shard, ex, ctx, flight)
            assert set(plan.steps) == expected
            with counts.get_lock():
                counts[0] += 1
            return plan

        def spied(slot, fn):
            def spy(*args, **kw):
                state = getattr(current, "state", None)
                assert state is not None, "lowered outside a shard body"
                kinds = state.flight.snapshot()["kind"]
                assert not np.isin(kinds, (fl.TASK, fl.COPY)).any(), (
                    f"shard {state.shard} lowered after its first "
                    f"TASK or COPY record")
                with counts.get_lock():
                    counts[slot] += 1
                return fn(*args, **kw)
            return spy

        monkeypatch.setattr(spmd.SPMDExecutor, "_run_shard", stepping)
        monkeypatch.setattr(spmd, "plan_shard", planning)
        monkeypatch.setattr(launch_plan, "lower_launch",
                            spied(1, launch_plan.lower_launch))
        monkeypatch.setattr(launch_plan, "lower_copy",
                            spied(2, launch_plan.lower_copy))
        monkeypatch.setattr(PackedSend, "__init__",
                            spied(3, PackedSend.__init__))
        monkeypatch.setattr(ReceivePlan, "__init__",
                            spied(3, ReceivePlan.__init__))
        ex = SPMDExecutor(num_shards=2, mode=mode, deadlock_timeout=20.0,
                          instances=fig2.fresh_instances())
        ex.run(prog)
        assert ex.replay_hits > 0
        launches = sum(isinstance(s, IndexLaunch) for s in body)
        copies = sum(isinstance(s, PairwiseCopy) for s in body)
        assert counts[0] == 2
        assert counts[1] == launches * 2 and counts[2] == copies * 2
        assert (counts[3] > 0) == (mode == "net")


class TestLaunchTable:
    """Each copy is lowered once per launch, into one table that every
    shard slices: a shard's plan costs its own pairs and channels.  No
    shard body calls ``color_owners``, builds or searches the whole pair
    table or places pairs; the rows the shards lower sum to the table's,
    each pair in exactly one shard's slice; and the plan's cost is in the
    registry."""

    @pytest.mark.parametrize("ns", [8, 64])
    def test_a_shard_body_only_slices(self, ns, monkeypatch):
        from repro.core import shards
        from repro.regions.interval_join import PairTable
        inside = threading.local()
        run_shard = spmd.SPMDExecutor._run_shard

        def stepping(ex, stmt, state, ctx):
            gen = run_shard(ex, stmt, state, ctx)
            while True:
                inside.shard = state.shard
                try:
                    ev = next(gen)
                except StopIteration:
                    return
                finally:
                    inside.shard = None
                yield ev

        calls = Counter()

        def outside(name, fn):
            def spy(*args, **kw):
                assert getattr(inside, "shard", None) is None, (
                    f"shard {inside.shard} called {name}")
                calls[name] += 1
                return fn(*args, **kw)
            return spy

        monkeypatch.setattr(spmd.SPMDExecutor, "_run_shard", stepping)
        owners = shards.color_owners
        for mod in list(sys.modules.values()):
            if getattr(mod, "color_owners", None) is owners:
                monkeypatch.setattr(mod, "color_owners",
                                    outside("color_owners", owners))
        for name in ("place_pairs", "disjoint_dst_colors"):
            monkeypatch.setattr(launch_plan, name,
                                outside(name, getattr(launch_plan, name)))
        monkeypatch.setattr(launch_plan.CopyTable, "__init__",
                            outside("CopyTable",
                                    launch_plan.CopyTable.__init__))
        for name in ("select", "__getitem__", "__iter__", "__len__"):
            monkeypatch.setattr(PairTable, name,
                                outside(name, getattr(PairTable, name)))
        monkeypatch.setattr(PairTable, "nrows", property(
            outside("nrows", PairTable.nrows.fget)))
        lowered = []
        lower = launch_plan.lower_copy

        def recording(uid, fields, redop, src, dst, lengths, nrows, *rest):
            lowered.append((uid, src.colours.tolist(), dst.colours.tolist(),
                            lengths.size, int(nrows.sum())))
            return lower(uid, fields, redop, src, dst, lengths, nrows, *rest)

        monkeypatch.setattr(launch_plan, "lower_copy", recording)
        p = CircuitProblem(pieces=64, nodes_per_piece=10, wires_per_piece=15,
                           steps=2)
        prog, _ = control_replicate(p.build_program(), num_shards=ns)
        ex = SPMDExecutor(num_shards=ns, instances=p.fresh_instances())
        ex.run(prog)
        assert ex.replay_hits > 0
        copies = [s for s in walk(prog.body) if isinstance(s, PairwiseCopy)]
        assert calls["CopyTable"] == calls["place_pairs"] == len(copies)
        for s in copies:
            table = ex._pair_table(s).table
            mine = [got[1:] for got in lowered if got[0] == s.uid]
            assert len(mine) == ns  # one slice per shard
            rows = sum(n for _, _, n, _ in mine)
            assert rows == sum(n for *_, n in mine) == len(table.intervals)
            assert sorted(pair for src, dst, _, _ in mine
                          for pair in zip(src, dst)) == list(
                zip(table.src.tolist(), table.dst.tolist()))

    def test_slices_are_the_shards_pairs(self):
        # A producer's pairs are one slice of the pair table, and a
        # (producer, consumer) channel's one slice of the consumer order;
        # both in pair order.
        ns = 3
        p = CircuitProblem(pieces=7, nodes_per_piece=10, wires_per_piece=15,
                           steps=2)
        prog, _ = control_replicate(p.build_program(), num_shards=ns)
        ex = SPMDExecutor(num_shards=ns, instances=p.fresh_instances())
        ex.run(prog)
        assert ex.launch_table.copies
        for ct in ex.launch_table.copies.values():
            src, dst = ct.stmt.src, ct.stmt.dst
            owners = [(owner_of_color(src.num_colors, ns, i),
                       owner_of_color(dst.num_colors, ns, j))
                      for i, j in zip(ct.src_colours.tolist(),
                                      ct.dst_colours.tolist())]
            for x in range(ns):
                a, b = ct.produced[x:x + 2]
                assert list(range(a, b)) == [k for k, (o, _) in
                                             enumerate(owners) if o == x]
                for q in range(ns):
                    assert ct._channel(x, q).tolist() == [
                        k for k, key in enumerate(owners) if key == (x, q)]

    @pytest.mark.parametrize("mode", ["stepped"] + (
        ["procs"] if procs_available() else []))
    def test_plan_time_is_in_the_registry(self, mode):
        metrics = MetricsRegistry()
        p = CircuitProblem(pieces=24, nodes_per_piece=10, wires_per_piece=15,
                           steps=2)
        p.run_control_replicated(2, mode=mode, metrics=metrics)
        got = {(name, labels.get("shard")): inst.value
               for name, labels, inst in metrics.items()
               if name in ("spmd_launch_table_seconds", "spmd_plan_seconds")}
        assert set(got) == {("spmd_launch_table_seconds", None),
                            ("spmd_plan_seconds", "0"),
                            ("spmd_plan_seconds", "1")}
        assert all(v > 0 for v in got.values()), got


def test_a_run_imports_no_numpy_ma():
    # np.unique's first plain call imports numpy.ma (np.ma.is_masked): a
    # run's sorted-distinct helper must not pay that import.
    code = ("import sys\n"
            "from repro.apps.circuit import CircuitProblem\n"
            "from repro.apps.stencil import StencilProblem\n"
            "for p in (CircuitProblem(pieces=4, nodes_per_piece=10,\n"
            "                         wires_per_piece=15, steps=2),\n"
            "          StencilProblem(n=24, radius=2, tiles=4, steps=2)):\n"
            "    p.run_control_replicated(2)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@needs_fork
class TestCounterTable:
    def test_a_new_row_round_trips_on_procs(self, fig2, monkeypatch):
        """A counter exists by being a row of the table: zeroing, the
        child -> parent payload, the executor total and the metric mirror
        all follow, with the name spelled nowhere else."""
        class Counted(spmd._ShardState):
            COUNTERS = {**spmd._ShardState.COUNTERS,
                        "epochs_taken": ("spmd_epochs_taken_total",
                                         {"kind": "test"})}

            def next_epoch(self, uid):
                self.epochs_taken += 1  # bumped in the forked child
                return super().next_epoch(uid)

        monkeypatch.setattr(spmd, "_ShardState", Counted)
        metrics = MetricsRegistry()
        prog, _ = control_replicate(fig2.build(), num_shards=2)
        ex = SPMDExecutor(num_shards=2, mode="procs", metrics=metrics,
                          instances=fig2.fresh_instances())
        assert ex.epochs_taken == 0
        ex.run(prog)
        # Only the interpreted iterations take epochs one by one.
        assert ex.epochs_taken > 0 and ex.replay_misses > 0
        flat = metrics.flat()
        mirrored = sum(v for k, v in flat.items()
                       if k.startswith("spmd_epochs_taken_total{")
                       and 'kind="test"' in k)
        assert mirrored == ex.epochs_taken

        st = Counted(shard=0, scalars={})
        st.epochs_taken = st.tasks_executed = 5
        st.zero_counters()
        assert st.epochs_taken == 0 and st.tasks_executed == 0


def _dying_program(fig2, steps, victim_point, at_call):
    """Fig. 2 with a TF that hard-exits the process owning
    ``victim_point`` on its ``at_call``-th execution there."""
    calls = [0]

    @task(privileges=[RW("v"), R("v")], name="TF_dies")
    def tf_dies(Bv, Av):
        if victim_point in set(Av.points):
            calls[0] += 1  # process-private after the fork
            if calls[0] == at_call:
                os._exit(3)
        Bv.write("v")[:] = np.sin(Av.read("v")) + 1.0

    b = ProgramBuilder("dies")
    b.let("T", steps)
    with b.for_range("t", 0, "T"):
        b.launch(tf_dies, fig2.I, fig2.PB, fig2.PA)
        b.launch(fig2.TG, fig2.I, fig2.PA, fig2.QB)
    return b.build()


@needs_fork
class TestDeadRank:
    """First cell of the fault matrix: a rank that dies without reporting
    ends the run when it dies — not after the survivors' deadlock
    timeout — with an error naming it, and leaves nothing behind."""

    @pytest.mark.parametrize("victim", [0, 1])
    @pytest.mark.parametrize("mode", ["procs", "net"])
    def test_reported_when_it_dies(self, mode, victim, monkeypatch):
        from repro.runtime.net import driver
        bound = []
        bind = driver.bind_listeners

        def recording(ns):
            listeners, addrs = bind(ns)
            bound.extend(addrs)
            return listeners, addrs

        monkeypatch.setattr(driver, "bind_listeners", recording)
        fig2 = Fig2(steps=30)
        # Two captured iterations, then the tenth replayed one.
        prog, _ = control_replicate(
            _dying_program(fig2, 30, victim_point=(fig2.n - 1) * victim,
                           at_call=12),
            num_shards=2)
        ex = SPMDExecutor(num_shards=2, mode=mode, deadlock_timeout=30.0,
                          instances=fig2.fresh_instances())
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError) as exc_info:
            ex.run(prog)
        assert time.perf_counter() - t0 < 5.0
        # One error, the dead rank's: survivors unwound as cancelled and
        # contributed no DeadlockError of their own.
        noun = "rank" if mode == "net" else "shard"
        assert str(exc_info.value) == (
            f"{noun} {victim} process died without reporting (exit code 3)")
        assert multiprocessing.active_children() == []
        assert live_segment_count() == 0
        assert len(bound) == (2 if mode == "net" else 0)
        for addr in bound:
            with pytest.raises(OSError):
                socket.create_connection(addr, timeout=1.0).close()


def _free_ports(n):
    socks = [socket.socket() for _ in range(n)]
    try:
        for s in socks:
            s.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


# Rank 0 of a worker-mode launch, in its own interpreter: statement and
# partition uids are process-local counters and travel on the wire, so a
# worker must build its program in the same order `repro launch-worker`
# does (problem, then the replicated run) — which a pytest process that
# has built other programs cannot.  Prints one JSON line.
_RANK0 = """
import argparse, json, sys
import numpy as np
from repro.cli import APP_FACTORIES, _worker_addrs
app, steps, hosts = sys.argv[1], int(sys.argv[2]), sys.argv[3]
problem = APP_FACTORIES[app](argparse.Namespace(
    app=app, tiles=4, steps=steps, size=None, shape="star"))
state, _, ex, _ = problem.run_control_replicated(
    2, mode="net",
    executor_kw={"net_worker": (0, _worker_addrs(argparse.Namespace(hosts=hosts))),
                 "deadlock_timeout": 30.0})
seq, _, _ = problem.run_sequential()
print(json.dumps({
    "bitwise": all(np.array_equal(state[k], seq[k]) for k in seq),
    "close": all(np.allclose(state[k], seq[k], rtol=1e-11, atol=1e-13)
                 for k in seq),
    "ranks": sorted(ex.net_stats),
    "msgs_sent": ex.net_stats[0]["messages_sent"].get("msg", 0),
    "replay_hits": ex.replay_hits}))
"""


class TestWorkerMode:
    """``repro launch-worker``: every rank is its own process that
    rebuilds the program; no fork anywhere."""

    @pytest.mark.parametrize("app", ["stencil", "circuit"])
    def test_cli_worker_meshes_with_an_in_process_rank0(self, app, tmp_path):
        steps = 6
        hosts = tmp_path / "hosts"
        hosts.write_text("".join(f"127.0.0.1:{port}\n"
                                 for port in _free_ports(2)))
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        procs = [subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) for cmd in (
            [sys.executable, "-c", _RANK0, app, str(steps), str(hosts)],
            [sys.executable, "-m", "repro", "launch-worker", app,
             "--rank", "1", "--shards", "2", "--steps", str(steps),
             "--hosts", str(hosts)])]
        try:
            outs = [p.communicate(timeout=90) for p in procs]
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait(timeout=10)
        for p, (out, err) in zip(procs, outs):
            assert p.returncode == 0, err
        assert f"{app}: rank 1/2 done" in outs[1][0]
        # Rank 0 installed the gathered final state of both ranks:
        # stencil bit-for-bit, circuit at `repro run`'s tolerance.
        rank0 = json.loads(outs[0][0].splitlines()[-1])
        assert rank0["close"] and (rank0["bitwise"] or app != "stencil")
        assert rank0["ranks"] == [0] and rank0["msgs_sent"] > 0
        assert rank0["replay_hits"] == steps - interpreted_iterations()

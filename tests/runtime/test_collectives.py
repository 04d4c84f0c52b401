"""Tests for dynamic collectives (paper §4.4)."""

import threading
from collections import Counter

import numpy as np
import pytest

from repro.core import ProgramBuilder, control_replicate
from repro.core.ir import ScalarRef
from repro.regions import ispace, partition_block, region
from repro.runtime import (
    DynamicCollective,
    SequentialExecutor,
    SPMDExecutor,
    procs_available,
)
from repro.tasks import R, task


class TestDynamicCollective:
    def test_min_reduce(self):
        c = DynamicCollective(3, "min")
        c.contribute(1, 5.0)
        c.contribute(1, 2.0)
        ev = c.contribute(1, 9.0)
        assert ev.is_set()
        assert c.result(1) == 2.0

    def test_sum_reduce(self):
        c = DynamicCollective(2, "+")
        c.contribute(1, 1.5)
        c.contribute(1, 2.5)
        assert c.result(1) == 4.0

    def test_none_contributions_skipped(self):
        c = DynamicCollective(3, "max")
        c.contribute(1, None)
        c.contribute(1, 7.0)
        c.contribute(1, None)
        assert c.result(1) == 7.0

    def test_all_none_reduces_to_identity(self):
        """An empty launch domain is legal under §4.4's dynamically
        determined participant counts: every shard contributing None
        yields the redop's identity instead of crashing."""
        import numpy as np

        identities = {"+": 0.0, "*": 1.0, "min": np.inf, "max": -np.inf}
        for redop, ident in identities.items():
            c = DynamicCollective(2, redop)
            c.contribute(1, None)
            ev = c.contribute(1, None)
            assert ev.is_set()
            assert c.result(1) == ident

    def test_generations_independent(self):
        c = DynamicCollective(2, "min")
        c.contribute(1, 3.0)
        c.contribute(2, 10.0)
        c.contribute(2, 20.0)
        assert c.result(2) == 10.0
        assert not c.contribute(1, 4.0).is_set() or c.result(1) == 3.0

    def test_over_arrival_rejected(self):
        c = DynamicCollective(1, "+")
        c.contribute(1, 1.0)
        with pytest.raises(RuntimeError):
            c.contribute(1, 1.0)

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            DynamicCollective(2, "median")

    def test_generations_are_retired_after_reads(self):
        """1000 full contribute/result cycles leave the internal dicts at
        O(live generations) — the long-control-loop leak fix."""
        c = DynamicCollective(3, "+")
        for g in range(1, 1001):
            for i in range(3):
                c.contribute(g, float(i))
            for _ in range(3):  # each shard reads once
                assert c.result(g) == 3.0
        assert len(c._results) == 0
        assert len(c._reads) == 0
        assert len(c._arrived) == 0
        assert len(c._events) == 0
        assert len(c._partial) == 0

    def test_result_before_last_read_keeps_generation(self):
        c = DynamicCollective(2, "min")
        c.contribute(1, 4.0)
        c.contribute(1, 3.0)
        assert c.result(1) == 3.0
        assert 1 in c._results  # one shard still hasn't read
        assert c.result(1) == 3.0
        assert 1 not in c._results

    def test_threaded_allreduce(self):
        c = DynamicCollective(8, "+")
        results = [None] * 8

        def worker(i):
            ev = c.contribute(1, i)
            ev.wait_blocking(1.0)
            results[i] = c.result(1)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [28] * 8

    # -- redop=None: a barrier, the collective that carries nothing --------
    def test_barrier_all_must_arrive(self):
        c = DynamicCollective(3, None)
        e1 = c.contribute(1, None)
        e2 = c.contribute(1, None)
        assert not e1.is_set() and not e2.is_set()
        e3 = c.contribute(1, None)
        assert e1.is_set() and e2.is_set() and e3.is_set()

    def test_barrier_result_is_none(self):
        c = DynamicCollective(2, None)
        c.contribute(1, None)
        assert c.contribute(1, None).is_set()
        assert c.result(1) is None and c.result(1) is None

    def test_barrier_generations_independent(self):
        """A later generation may complete first; each one retires on its
        own last read."""
        c = DynamicCollective(2, None)
        c.contribute(1, None)
        c.contribute(2, None)
        assert c.contribute(2, None).is_set()
        assert not c._events[1].is_set()
        for _ in range(2):
            c.result(2)
        assert 2 not in c._results and 1 in c._arrived
        assert c.contribute(1, None).is_set()

    def test_barrier_long_loop_stays_bounded(self):
        """1000 generations of contribute, wait and read leave no state."""
        c = DynamicCollective(3, None)
        for g in range(1, 1001):
            evs = [c.contribute(g, None) for _ in range(3)]
            assert all(ev.is_set() for ev in evs)
            for _ in range(3):
                assert c.result(g) is None
        assert not (c._results or c._reads or c._arrived or c._events
                    or c._partial)

    def test_barrier_threaded_rendezvous(self):
        c = DynamicCollective(4, None)
        hits = []

        def worker(i):
            assert c.contribute(1, None).wait_blocking(1.0)
            assert c.result(1) is None
            hits.append(i)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(hits) == [0, 1, 2, 3]

    def test_barrier_over_arrival_rejected(self):
        c = DynamicCollective(2, None)
        c.contribute(1, None)
        c.contribute(1, None)
        with pytest.raises(RuntimeError):
            c.contribute(1, None)

    def test_barrier_unknown_redop_rejected(self):
        with pytest.raises(ValueError):
            DynamicCollective(2, "barrier")


class TestRetiredGenerations:
    """A generation every shard has read stays retired: a late
    contribution to it raises instead of starting it afresh."""

    def test_late_contribution_after_the_last_read_raises(self):
        c = DynamicCollective(2, None)
        c.contribute(1, None)
        c.contribute(1, None)
        assert c.result(1) is None and c.result(1) is None
        with pytest.raises(RuntimeError, match="retired generation 1"):
            c.contribute(1, None)
        assert not c._arrived

    def test_out_of_order_retirement_raises_and_compacts(self):
        c = DynamicCollective(1, "+")
        c.contribute(2, 1.0)
        assert c.result(2) == 1.0
        with pytest.raises(RuntimeError, match="retired generation 2"):
            c.contribute(2, 1.0)
        c.contribute(1, 1.0)  # below the gap: still live
        assert c.result(1) == 1.0
        with pytest.raises(RuntimeError, match="retired generation 1"):
            c.contribute(1, 1.0)
        assert c._retired_below == 2 and not c._retired_above

    def test_retired_state_stays_bounded(self):
        """1000 generations retired in pairs, the later one first: the
        out-of-order set never holds more than the one gap's worth."""
        c = DynamicCollective(2, "+")
        peak = 0
        for g in range(1, 1001, 2):
            for gen in (g + 1, g):
                c.contribute(gen, 1.0)
                c.contribute(gen, 2.0)
                assert c.result(gen) == c.result(gen) == 3.0
                peak = max(peak, len(c._retired_above))
        assert peak == 1
        assert c._retired_below == 1000 and not c._retired_above

    @pytest.mark.skipif(not procs_available(), reason="needs fork")
    def test_procs_board_collective_rejects_a_retired_generation(self):
        """``procs``: a completed generation's parity slot is reused two
        generations on, so a late contribution raises instead of folding
        into it."""
        from repro.runtime.launch import LaunchSpec
        from repro.runtime.procs import BoardContext
        ctx = BoardContext(LaunchSpec(collectives=[("s", "+", None)]), 2)
        ctx.bind(0)
        c = ctx.collectives["s"]
        c.contribute(1, 1.0)
        assert c.contribute(1, 2.0).is_set()
        assert c.result(1) == 3.0
        with pytest.raises(RuntimeError, match="retired generation 1"):
            c.contribute(1, 4.0)
        c.contribute(2, 1.0)
        c.contribute(2, 1.0)
        with pytest.raises(RuntimeError, match="retired generation 1"):
            c.contribute(1, 4.0)  # would fold into generation 3's slot
        assert c.result(2) == 2.0

    def test_net_tree_comm_rejects_a_read_generation(self):
        """``net``: reading a result pops its state, so a late
        contribution raises instead of starting the generation afresh."""
        from types import SimpleNamespace

        from repro.runtime.net.sync import TreeComm
        tree = TreeComm(SimpleNamespace(rank=0), 1)
        tree.redops["c:s"] = "+"
        assert tree.contribute("c:s", 1, 5.0).is_set()
        assert tree.result("c:s", 1) == 5.0
        with pytest.raises(RuntimeError, match="retired generation 1"):
            tree.contribute("c:s", 1, 5.0)
        assert not tree._states
        assert tree.contribute("c:s", 2, 1.0).is_set()
        assert tree.result("c:s", 2) == 1.0


BACKENDS = ["stepped", "threaded"] + (
    ["procs", "net"] if procs_available() else [])


class TestScalarTypesOnEveryBackend:
    """A launch's scalar reduction returns what the sequential executor
    folds, on every backend: an integer stays an exact integer."""

    BIG = 2**53 + 7  # not representable as a float64
    HUGE = 2**62  # four of them pass int64

    def _program(self):
        Rg = region(ispace(size=16), {"v": np.float64}, name="R")
        I = ispace(size=4, name="I")
        P = partition_block(Rg, I, name="P")
        big = self.BIG

        @task(privileges=[R("v")], name="biggest")
        def biggest(A, t):
            return big - int(A.points[0] != 0)

        @task(privileges=[R("v")], name="count")
        def count(A, t):
            return int(A.n) + t

        @task(privileges=[R("v")], name="huge")
        def huge(A, t):
            return self.HUGE + int(A.points[0]) + t

        b = ProgramBuilder("int_reductions")
        b.let("T", 3)
        with b.for_range("t", 0, "T"):
            b.launch(biggest, I, P, ScalarRef("t"), reduce=("max", "m"))
            b.launch(count, I, P, ScalarRef("t"), reduce=("+", "s"))
            b.launch(huge, I, P, ScalarRef("t"), reduce=("+", "h"))
        return b.build()

    @pytest.mark.parametrize("mode", BACKENDS)
    def test_integer_reductions_stay_exact_integers(self, mode):
        want = SequentialExecutor().run(self._program())
        assert want["m"] == self.BIG and type(want["s"]) is int
        assert want["h"] > 2**64
        prog, _ = control_replicate(self._program(), num_shards=2)
        got = SPMDExecutor(num_shards=2, mode=mode).run(prog)
        assert got["m"] == self.BIG, (mode, got["m"])
        for k in ("m", "s", "h"):
            assert type(got[k]) is int, (mode, k, got[k])
        assert got["s"] == want["s"]
        assert got["h"] == want["h"], (mode, got["h"])


def _barrier_problem(app):
    from repro.apps.circuit import CircuitProblem
    from repro.apps.miniaero import MiniAeroProblem
    from repro.apps.pennant import PennantProblem
    from repro.apps.stencil import StencilProblem
    return {
        "stencil": lambda: StencilProblem(n=24, radius=2, tiles=4, steps=4),
        "circuit": lambda: CircuitProblem(pieces=4, nodes_per_piece=20,
                                          wires_per_piece=30, steps=4),
        "pennant": lambda: PennantProblem(nx=8, ny=8, pieces=4, steps=4),
        "miniaero": lambda: MiniAeroProblem(shape=(6, 6, 6), tiles=4,
                                            steps=4),
    }[app]()


def _copy_epochs(problem, ns):
    """Per barrier-mode copy uid, the epochs each shard ran it, read from
    the shard states of a stepped run's one launch; and the contributions
    to each (collective, generation)."""
    from repro.runtime import launch as launch_mod
    counts = Counter()
    contribute = DynamicCollective.contribute
    launch_stepped = launch_mod.launch_stepped
    launched = []

    def spy(self, generation, value):
        counts[self.label, generation] += 1
        return contribute(self, generation, value)

    def keep_states(ex, stmt, spec, states):
        launched.append(states)
        return launch_stepped(ex, stmt, spec, states)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DynamicCollective, "contribute", spy)
        mp.setattr(launch_mod, "launch_stepped", keep_states)
        _, _, ex, _ = problem.run_control_replicated(
            ns, mode="stepped", sync="barrier")
    (states,) = launched
    copies = [uid for uid, name in ex.flight.names.items()
              if name.startswith("copy:")]
    epochs = {uid: states[0].epochs[uid] for uid in copies}
    assert copies and all(st.epochs[u] == e for st in states
                          for u, e in epochs.items())
    return epochs, counts


class TestBarrierCount:
    """Barrier mode is §3.4's two barriers per copy: every shard makes
    exactly two collective contributions, ``pre`` and ``post``, per
    barrier-mode copy per epoch (each collective generation takes one
    contribution from each shard)."""

    @pytest.mark.parametrize("app", ["stencil", "circuit", "pennant",
                                     "miniaero"])
    def test_two_per_copy_per_epoch_on_stepped(self, app):
        ns = 3
        epochs, counts = _copy_epochs(_barrier_problem(app), ns)
        rendezvous = Counter({k: n for k, n in counts.items()
                              if k[0].startswith("copy")})
        assert rendezvous == Counter({
            (f"copy{uid}:{tag}", g): ns for uid, e in epochs.items()
            for tag in ("pre", "post") for g in range(1, e + 1)})

    @pytest.mark.skipif(not procs_available(), reason="net needs fork")
    def test_two_per_copy_per_epoch_on_net(self):
        """On net a contribution is one COLL frame from each non-root
        rank to its tree parent; the one extra is the shutdown
        rendezvous."""
        ns = 3
        epochs, _ = _copy_epochs(_barrier_problem("stencil"), ns)
        _, _, ex, _ = _barrier_problem("stencil").run_control_replicated(
            ns, mode="net", sync="barrier")
        for rank in range(1, ns):
            sent = ex.net_stats[rank]["messages_sent"]
            assert sent.get("coll", 0) == 2 * sum(epochs.values()) + 1, rank

"""Oracle equivalence for the vectorized wave scheduler.

The vector engine's contract is not "approximately the same makespan" —
it is the *identical schedule*: the same start, finish, and server for
every task as the event-heap oracle, on any graph both accept.  These
tests enforce that on randomized DAGs (mixed resource kinds, zero
durations, duplicate edges, backward `add_deps` edges) and on all four
paper workloads under all three execution models, including the
degenerate serial schedules where the engine hands off to the heap
mid-run.
"""

import numpy as np
import pytest

from repro.machine import GraphBuilder, UnsupportedGraph
from repro.machine.execution_models import (_noise, _noise_batch,
                                            simulate_mpi, simulate_regent_cr,
                                            simulate_regent_noncr)
from repro.machine.model import PIZ_DAINT
from repro.machine.patterns import (halo_edges_2d, halo_edges_2d_flat,
                                    halo_edges_3d, halo_edges_3d_flat,
                                    random_graph_edges,
                                    random_graph_edges_flat)
from repro.machine.workload import AppWorkload, PhaseSpec, flatten_edge_map

KINDS = ("core", "ctrl", "nic", "none")


def random_graph(seed: int, num_tasks: int = 300) -> GraphBuilder:
    """A randomized DAG exercising the scheduler's corner cases: all four
    resource kinds, zero durations, zero latencies, duplicate edges."""
    rng = np.random.default_rng(seed)
    nodes = int(rng.integers(1, 5))
    cores = int(rng.integers(1, 4))
    g = GraphBuilder(nodes, cores)
    for uid in range(num_tasks):
        dur = 0.0 if rng.random() < 0.2 else float(rng.random())
        kind = KINDS[int(rng.integers(0, len(KINDS)))]
        ndeps = int(rng.integers(0, min(4, uid + 1)))
        deps = []
        for _ in range(ndeps):
            d = int(rng.integers(0, uid)) if uid else 0
            lat = 0.0 if rng.random() < 0.5 else float(rng.random())
            deps.append((d, lat))
        if deps and rng.random() < 0.3:
            deps.append(deps[0])  # duplicate edge (possibly new latency)
        g.add(dur, int(rng.integers(0, nodes)), kind, deps=deps)
    return g


def run_both(build):
    """Run one graph under both engines; returns the two builders."""
    gv, ge = build(), build()
    mv, me = gv.run("vector"), ge.run("event")
    assert mv == me
    assert np.array_equal(gv.start, ge.start)
    assert np.array_equal(gv.finish, ge.finish)
    assert np.array_equal(gv.server, ge.server)
    return gv, ge


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_vector_matches_event_and_legacy(self, seed):
        run_both(lambda: random_graph(seed))

    def test_backward_add_deps_edges(self):
        # A consumer batch created *before* its producer batch: the edge
        # points at a larger uid, which only add_deps can express.
        def build():
            g = GraphBuilder(2, 2)
            a = g.add_batch(np.full(4, 1.0), 0)
            b = g.add_batch(np.full(4, 2.0), 1)
            g.add_deps(a, b[::-1], lats=0.5)
            return g

        gv, _ = run_both(build)
        assert gv.start[:4].min() >= 2.5  # every a waits for some b

    def test_rerun_with_other_engine_recomputes(self):
        g = random_graph(99)
        m1 = g.run("vector")
        m2 = g.run("event")
        assert m1 == m2

    def test_negative_duration_rejected_by_vector(self):
        g = GraphBuilder(1, 1)
        g.add(-1.0, 0)
        with pytest.raises(UnsupportedGraph):
            g.run("vector")
        # auto falls back to the event engine, which tolerates it.
        g2 = GraphBuilder(1, 1)
        g2.add(-1.0, 0)
        g2.run("auto")
        assert g2.last_run_stats["engine"] == "event"


MODELS = [
    ("cr", simulate_regent_cr),
    ("noncr", simulate_regent_noncr),
    ("mpi", simulate_mpi),
]


def app_workloads():
    from repro.apps.circuit.perf import circuit_workload
    from repro.apps.miniaero.perf import miniaero_workload
    from repro.apps.pennant.perf import pennant_workload
    from repro.apps.stencil.perf import stencil_workload
    return [
        ("stencil", stencil_workload(17, 1.45e9)),
        ("miniaero", miniaero_workload(17, 1.45e6)),
        ("pennant", pennant_workload(17, 17.0e6)),
        ("circuit", circuit_workload(17, 76.0e3)),
    ]


class TestAppModelEquivalence:
    @pytest.mark.parametrize("app,workload", app_workloads(),
                             ids=[a for a, _ in app_workloads()])
    @pytest.mark.parametrize("model,fn", MODELS, ids=[m for m, _ in MODELS])
    @pytest.mark.parametrize("nodes", [1, 3, 8])
    def test_schedule_identical(self, app, workload, model, fn, nodes):
        graphs = {}
        results = {}
        for engine in ("vector", "event"):
            sims = []
            results[engine] = fn(workload, PIZ_DAINT, nodes,
                                 on_complete=sims.append, engine=engine)
            graphs[engine] = sims[0]
        gv, ge = graphs["vector"], graphs["event"]
        assert np.array_equal(gv.start, ge.start)
        assert np.array_equal(gv.finish, ge.finish)
        assert np.array_equal(gv.server, ge.server)
        assert (results["vector"].seconds_per_step
                == results["event"].seconds_per_step)

    def test_noncr_heap_handoff_engages_and_stays_exact(self):
        # An un-replicated run serializes through node 0's control thread;
        # the wave engine detects the degenerate frontier and finishes with
        # the heap — still producing the oracle's exact schedule.
        from repro.apps.stencil.perf import stencil_workload
        workload = stencil_workload(17, 1.45e9)
        sims = []
        simulate_regent_noncr(workload, PIZ_DAINT, 8,
                              on_complete=sims.append, engine="vector")
        g = sims[0]
        assert g.last_run_stats["engine"] == "vector+event"
        assert g.last_run_stats["heap_handoff_tasks"] > 0
        sims_e = []
        simulate_regent_noncr(workload, PIZ_DAINT, 8,
                              on_complete=sims_e.append, engine="event")
        assert np.array_equal(g.start, sims_e[0].start)
        assert np.array_equal(g.server, sims_e[0].server)


class TestDeadlockDiagnostics:
    def _cyclic(self):
        g = GraphBuilder(1, 1)
        a = g.add_batch(np.ones(3), 0, label="ring")
        g.add_deps(a, np.roll(a, 1))  # 3-cycle
        g.add(1.0, 0, deps=[int(a[0])], label="downstream")
        return g

    @pytest.mark.parametrize("engine", ["vector", "event"])
    def test_cycle_is_named(self, engine):
        with pytest.raises(RuntimeError, match="deadlock") as exc:
            self._cyclic().run(engine)
        msg = str(exc.value)
        assert "4 tasks never ready" in msg
        assert "ring" in msg and "->" in msg

    def test_legacy_simulation_names_the_cycle(self):
        # Built with the scalar ``add`` (the per-object simulator's API).
        sim = GraphBuilder(1, 1)
        a = sim.add(1.0, 0, label="x")
        b = sim.add(1.0, 0, deps=[a], label="y")
        c = sim.add(1.0, 0, deps=[b], label="z")
        sim.add_deps([a], [c])
        with pytest.raises(RuntimeError, match="deadlock") as exc:
            sim.run(engine="event")
        msg = str(exc.value)
        assert "x" in msg and "->" in msg

    def test_duplicate_edge_keeps_first_latency(self):
        # A release uses the first-listed latency of a repeated edge; the
        # columnar dedup must preserve that in both engines.
        def build():
            s = GraphBuilder(1, 1)
            a = s.add(1.0, 0)
            s.add(1.0, 0, deps=[(a, 5.0), (a, 0.5)])
            return s

        assert build().run("event") == 7.0  # 1 + 5 (first latency) + 1
        assert build().run("vector") == 7.0


class TestConstructionValidation:
    def test_add_batch_rejects_bad_inputs(self):
        g = GraphBuilder(2, 1)
        with pytest.raises(ValueError, match="node out of range"):
            g.add_batch(np.ones(2), 5)
        with pytest.raises(ValueError, match="kind"):
            g.add_batch(np.ones(2), 0, kind="gpu")
        with pytest.raises(ValueError, match="out of range"):
            g.add_batch(np.ones(2), 0, dep_rows=np.array([0]),
                        dep_targets=np.array([7]))
        with pytest.raises(ValueError, match="dep_rows"):
            g.add_batch(np.ones(2), 0, dep_rows=np.array([0]),
                        dep_targets=None)

    def test_add_deps_validates_uids(self):
        g = GraphBuilder(1, 1)
        a = g.add_batch(np.ones(2), 0)
        with pytest.raises(ValueError, match="out of range"):
            g.add_deps(a, np.array([5, 6]))
        g.finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            g.add_deps(a, a[::-1])

    def test_forward_in_batch_refs(self):
        g = GraphBuilder(1, 2)
        uids = g.add_batch(np.ones(3), 0,
                           dep_rows=np.array([1, 2]),
                           dep_targets=np.array([0, 1]))  # chain 0->1->2
        g.run("vector")
        assert list(g.finish[uids]) == [1.0, 2.0, 3.0]


class TestBatchHelpers:
    def test_noise_batch_matches_scalar(self):
        w = AppWorkload(name="t", tiles_per_node=4,
                        phases=[PhaseSpec("p", 1.0)], points_per_node=1.0,
                        noise_prob=0.3, noise_delay=0.07)
        tiles = np.arange(257)
        for step in (0, 3):
            for phase in (0, 2):
                batch = _noise_batch(w, tiles, step, phase,
                                     prob_scale=1.3, delay_scale=0.9)
                scalar = [_noise(w, int(t), step, phase, 1.3, 0.9)
                          for t in tiles]
                assert np.array_equal(batch, np.asarray(scalar))

    @pytest.mark.parametrize("tiles", [1, 2, 5, 12, 64])
    def test_flat_patterns_match_dict_forms(self, tiles):
        for flat, dict_fn, args in (
                (halo_edges_2d_flat, halo_edges_2d, (tiles, 100)),
                (halo_edges_3d_flat, halo_edges_3d, (tiles, 100)),
                (random_graph_edges_flat, random_graph_edges,
                 (tiles, 3, 100))):
            cons, prod, nbytes = flat(*args)
            dcons, dprod, dbytes = flatten_edge_map(dict_fn(*args))
            assert np.array_equal(cons, dcons)
            assert np.array_equal(prod, dprod)
            assert np.array_equal(nbytes, dbytes)

"""Simulator behaviors under load: bandwidth, trees, pipelining."""

import math

import pytest

from repro.machine import GraphBuilder, MachineModel
from repro.machine.execution_models import _collective_tree


class TestBandwidth:
    def test_nic_serializes_large_sends(self):
        """Many messages from one node: NIC occupancy adds up."""
        m = MachineModel()
        sim = GraphBuilder(2, 1)
        per_msg = m.copy_seconds(1_000_000)  # 1 MB
        for _ in range(10):
            sim.add(per_msg, 0, kind="nic")
        makespan = sim.run(engine="event")
        assert makespan == pytest.approx(10 * per_msg, rel=1e-6)

    def test_copy_seconds_formula(self):
        m = MachineModel(net_bandwidth=1e9, msg_overhead=1e-6)
        assert m.copy_seconds(1_000_000) == pytest.approx(1e-6 + 1e-3)


class TestCollectiveTree:
    @pytest.mark.parametrize("nodes", [1, 2, 3, 8, 13, 64])
    def test_every_node_receives_result(self, nodes):
        m = MachineModel()
        sim = GraphBuilder(nodes, 1)
        leaves = {n: sim.add(0.01, n) for n in range(nodes)}
        result = _collective_tree(sim, m, leaves, nodes)
        sim.run(engine="event")
        assert sorted(result) == list(range(nodes))
        finishes = [sim.finish_of(result[n]) for n in range(nodes)]
        assert all(f >= 0.01 for f in finishes)

    def test_latency_scales_logarithmically(self):
        m = MachineModel()

        def tree_time(nodes):
            sim = GraphBuilder(nodes, 1)
            leaves = {n: sim.add(0.0, n) for n in range(nodes)}
            result = _collective_tree(sim, m, leaves, nodes)
            sim.run(engine="event")
            return max(sim.finish_of(result[n]) for n in range(nodes))

        t8, t64, t512 = tree_time(8), tree_time(64), tree_time(512)
        # Doubling the exponent should roughly double the time, not 8x it.
        assert t64 < 3.0 * t8
        assert t512 < 3.0 * t64
        assert t512 > t8

    def test_allreduce_seconds_model(self):
        m = MachineModel(allreduce_alpha=1e-5)
        assert m.allreduce_seconds(1) == 0.0
        assert m.allreduce_seconds(2) == pytest.approx(2e-5)
        assert m.allreduce_seconds(1024) == pytest.approx(2 * 10 * 1e-5)


class TestPipelining:
    def test_ctrl_thread_runs_ahead_of_workers(self):
        """Deferred execution: launches pipeline ahead of slow tasks."""
        m = MachineModel()
        sim = GraphBuilder(1, 1)
        finishes = []
        for _ in range(5):
            launch = sim.add(0.001, 0, kind="ctrl")
            finishes.append(sim.add(0.1, 0, kind="core", deps=[launch]))
        makespan = sim.run(engine="event")
        # Control work (5ms) hides entirely behind 500ms of task work.
        assert makespan == pytest.approx(0.001 + 5 * 0.1, rel=1e-6)

    def test_many_tasks_scale(self):
        sim = GraphBuilder(8, 4)
        prev = {}
        for step in range(5):
            cur = {}
            for t in range(64):
                deps = [prev[t]] if t in prev else []
                cur[t] = sim.add(0.01, t % 8, deps=deps)
            prev = cur
        assert sim.run(engine="event") == pytest.approx(5 * 2 * 0.01, rel=1e-6)

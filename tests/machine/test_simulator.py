"""Tests for the discrete-event simulator (the event-heap oracle)."""

import pytest

from repro.machine import GraphBuilder


class TestScheduling:
    def test_serial_chain(self):
        sim = GraphBuilder(1, 1)
        a = sim.add(1.0, 0)
        b = sim.add(2.0, 0, deps=[a])
        assert sim.run(engine="event") == pytest.approx(3.0)
        assert sim.finish_of(a) == pytest.approx(1.0)
        assert sim.finish_of(b) == pytest.approx(3.0)

    def test_parallel_on_cores(self):
        sim = GraphBuilder(1, 2)
        sim.add(1.0, 0)
        sim.add(1.0, 0)
        assert sim.run(engine="event") == pytest.approx(1.0)

    def test_core_contention(self):
        sim = GraphBuilder(1, 1)
        sim.add(1.0, 0)
        sim.add(1.0, 0)
        assert sim.run(engine="event") == pytest.approx(2.0)

    def test_ctrl_thread_serializes(self):
        sim = GraphBuilder(1, 8)
        for _ in range(4):
            sim.add(0.5, 0, kind="ctrl")
        assert sim.run(engine="event") == pytest.approx(2.0)

    def test_nic_serializes_per_node(self):
        sim = GraphBuilder(2, 1)
        sim.add(1.0, 0, kind="nic")
        sim.add(1.0, 0, kind="nic")
        sim.add(1.0, 1, kind="nic")
        assert sim.run(engine="event") == pytest.approx(2.0)

    def test_edge_latency(self):
        sim = GraphBuilder(2, 1)
        a = sim.add(1.0, 0)
        b = sim.add(1.0, 1, deps=[(a, 0.25)])
        assert sim.run(engine="event") == pytest.approx(2.25)

    def test_none_kind_is_pure_delay(self):
        sim = GraphBuilder(1, 1)
        a = sim.add(1.0, 0)
        marker = sim.add(0.0, 0, kind="none", deps=[a])
        busy = sim.add(5.0, 0)
        sim.run(engine="event")
        assert sim.finish_of(marker) == pytest.approx(1.0)  # no core needed

    def test_diamond_dependencies(self):
        sim = GraphBuilder(1, 2)
        a = sim.add(1.0, 0)
        b = sim.add(2.0, 0, deps=[a])
        c = sim.add(1.0, 0, deps=[a])
        d = sim.add(1.0, 0, deps=[b, c])
        assert sim.run(engine="event") == pytest.approx(4.0)

    def test_cycle_detected(self):
        sim = GraphBuilder(1, 1)
        a = sim.add(1.0, 0)
        b = sim.add(1.0, 0, deps=[a])
        sim.add_deps([a], [b])
        with pytest.raises(RuntimeError, match="deadlock"):
            sim.run(engine="event")

    def test_validation(self):
        with pytest.raises(ValueError):
            GraphBuilder(0, 1)
        sim = GraphBuilder(1, 1)
        with pytest.raises(ValueError):
            sim.add(1.0, 5)
        with pytest.raises(ValueError):
            sim.add(1.0, 0, kind="gpu")

"""Tests for utilization analysis of simulations."""

import pytest

from repro.machine import GraphBuilder, MachineModel
from repro.machine.tracing import analyze_simulation


class TestUtilization:
    def test_single_task(self):
        sim = GraphBuilder(1, 2)
        sim.add(1.0, 0, label="work:phase1")
        sim.run(engine="event")
        rep = analyze_simulation(sim)
        assert rep.makespan == pytest.approx(1.0)
        assert rep.utilization("core") == pytest.approx(0.5)  # 1 of 2 cores
        assert rep.by_label["work"] == pytest.approx(1.0)

    def test_ctrl_saturation_detection(self):
        sim = GraphBuilder(2, 1)
        prev = None
        for _ in range(10):
            prev = sim.add(0.1, 0, kind="ctrl", deps=[prev] if prev else [])
        sim.run(engine="event")
        rep = analyze_simulation(sim)
        assert rep.ctrl_saturated(0)
        assert not rep.ctrl_saturated(1)

    def test_unrun_simulation_rejected(self):
        sim = GraphBuilder(1, 1)
        sim.add(1.0, 0)
        with pytest.raises(ValueError):
            analyze_simulation(sim)

    def test_format(self):
        sim = GraphBuilder(1, 1)
        sim.add(0.5, 0, label="launch:tf")
        sim.add(0.25, 0, kind="nic", label="halo")
        sim.run(engine="event")
        text = analyze_simulation(sim).format()
        assert "makespan" in text and "core" in text and "nic" in text

    def test_simulation_metrics_export(self):
        from repro.machine import simulation_metrics
        from repro.obs import MetricsRegistry, parse_prometheus_text
        sim = GraphBuilder(1, 2)
        sim.add(1.0, 0, label="work:phase1")
        sim.add(0.25, 0, kind="nic", label="halo")
        sim.run(engine="event")
        metrics = MetricsRegistry()
        simulation_metrics(sim, metrics, name_prefix="toy-cr")
        flat = metrics.flat()
        assert flat['sim_makespan_seconds{run="toy-cr"}'] == pytest.approx(1.0)
        assert flat['sim_busy_seconds_total{kind="core",run="toy-cr"}'] == \
            pytest.approx(1.0)
        assert flat['sim_utilization{kind="core",run="toy-cr"}'] == \
            pytest.approx(0.5)
        assert flat['sim_virtual_seconds_total{phase="work",run="toy-cr"}'] \
            == pytest.approx(1.0)
        # Virtual-time gauges survive the text exposition round-trip.
        assert parse_prometheus_text(metrics.prometheus_text()) == flat

    def test_noncr_model_is_ctrl_bound_at_scale(self):
        """Tie the utilization tool to the paper's claim: at collapse the
        control thread is saturated while the workers idle."""
        from repro.machine.execution_models import simulate_regent_noncr
        from repro.machine import AppWorkload, PhaseSpec
        w = AppWorkload("toy", 4, [PhaseSpec("p", 0.01, None)], 1.0)
        machine = MachineModel(cores_per_node=4)
        # Re-derive via the graph machinery: large node count -> saturation.
        res = simulate_regent_noncr(w, machine, 64)
        # 64 nodes x 4 tiles x 0.7ms = 179ms/step >> 10ms of compute.
        assert res.seconds_per_step > 0.15

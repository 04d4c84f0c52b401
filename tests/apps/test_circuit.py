"""Tests for the Circuit application (paper §5.4)."""

import numpy as np
import pytest

from repro.apps.circuit import CircuitGraph, CircuitProblem
from repro.core import InitCopy, PairwiseCopy, walk

from tests.conftest import interpreted_iterations


class TestGraph:
    def test_shapes(self):
        g = CircuitGraph(4, 10, 20, seed=1)
        assert g.num_nodes == 40 and g.num_wires == 80
        assert g.in_node.shape == (80,) and g.out_node.shape == (80,)
        assert np.all((g.in_node >= 0) & (g.in_node < 40))
        assert np.all((g.out_node >= 0) & (g.out_node < 40))

    def test_in_nodes_are_piece_local(self):
        g = CircuitGraph(4, 10, 20, seed=1)
        assert np.all(g.node_piece[g.in_node] == g.wire_piece)

    def test_locality_bias(self):
        g = CircuitGraph(8, 50, 100, pct_local=0.8, seed=2)
        frac_local = np.mean(g.node_piece[g.out_node] == g.wire_piece)
        assert 0.65 < frac_local < 0.95

    def test_deterministic(self):
        a = CircuitGraph(4, 10, 20, seed=5)
        b = CircuitGraph(4, 10, 20, seed=5)
        assert np.array_equal(a.out_node, b.out_node)


class TestFunctional:
    def test_sequential_matches_reference(self):
        p = CircuitProblem(pieces=4, nodes_per_piece=25, wires_per_piece=40,
                           steps=5)
        ref = p.reference_state()
        seq, _, _ = p.run_sequential()
        assert np.allclose(seq["voltage"], ref["voltage"], rtol=1e-12, atol=1e-14)
        assert np.allclose(seq["current"], ref["current"], rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_cr_matches_sequential(self, shards):
        p = CircuitProblem(pieces=4, nodes_per_piece=25, wires_per_piece=40,
                           steps=4)
        seq, _, _ = p.run_sequential()
        cr, _, _, _ = p.run_control_replicated(shards, seed=9)
        assert np.allclose(cr["voltage"], seq["voltage"], rtol=1e-12, atol=1e-13)
        assert np.allclose(cr["current"], seq["current"], rtol=1e-12, atol=1e-13)

    def test_charge_conserved_before_leakage(self):
        """distribute_charge moves charge between nodes: net zero."""
        p = CircuitProblem(pieces=4, nodes_per_piece=25, wires_per_piece=40,
                           steps=1, dt=0.01)
        g = p.graph
        cur = (g.init_voltage[g.in_node] - g.init_voltage[g.out_node]) / g.resistance
        dq = np.zeros(g.num_nodes)
        np.add.at(dq, g.in_node, -p.dt * cur)
        np.add.at(dq, g.out_node, p.dt * cur)
        assert abs(dq.sum()) < 1e-12

    def test_private_partition_gets_no_exchange_copies(self):
        """The §4.5 payoff, on the real app."""
        from repro.core import control_replicate
        p = CircuitProblem(pieces=4, nodes_per_piece=25, wires_per_piece=40)
        prog, report = control_replicate(p.build_program(), num_shards=2)
        priv = p.pg.private_part.name
        for s in walk(prog.body):
            if isinstance(s, PairwiseCopy):
                assert s.dst.name != priv
                assert s.src.name != priv or s.redop is not None

    def test_reduction_copies_present(self):
        from repro.core import control_replicate
        p = CircuitProblem(pieces=4, nodes_per_piece=25, wires_per_piece=40)
        _, report = control_replicate(p.build_program(), num_shards=2)
        assert report.fragments[0].reduction_copies >= 2
        assert report.fragments[0].reduction_temps


class TestInspectorPlan:
    """Planning the private/shared/ghost routing must not move a bit: the
    checksums are of the bodies as they were before they had inspectors
    (``maybe_localize`` per view per endpoint on every call)."""

    RECORDED = {  # seed -> sha256[:16] of (voltage, current)
        "sequential": {0: ("a79088f220b34356", "c948c27a2b240093"),
                       1: ("21b7d9132ba66212", "16044eb217ecc88b"),
                       2: ("1847dfd06952d605", "f33357493acd26d0")},
        "stepped": {0: ("7dd90d937f981c1a", "c60316cd16eeec6f"),
                    1: ("21b7d9132ba66212", "349deacb6d0cf755"),
                    2: ("286a02fa35a905bc", "aa7ff7d9cbac7bd9")},
    }

    @staticmethod
    def _digest(state):
        import hashlib
        return tuple(hashlib.sha256(state[f].tobytes()).hexdigest()[:16]
                     for f in ("voltage", "current"))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_state_equals_the_unplanned_bodies(self, seed):
        p = CircuitProblem(pieces=4, nodes_per_piece=40, wires_per_piece=60,
                           steps=5, seed=seed)
        seq, _, _ = p.run_sequential()
        assert self._digest(seq) == self.RECORDED["sequential"][seed]
        cr, _, ex, _ = p.run_control_replicated(2, mode="stepped")
        assert ex.replay_hits == (p.steps - interpreted_iterations()) * 2
        assert self._digest(cr) == self.RECORDED["stepped"][seed]

    def test_bodies_do_no_lookups(self):
        import inspect
        calc, dist, update = CircuitProblem().tasks
        for t in (calc, dist, update):
            assert t.inspect is not None
            body = inspect.getsource(t.fn)
            for name in ("searchsorted", "localize", "unravel", "clip"):
                assert name not in body

"""Circuit: sparse unstructured-graph circuit simulation (paper §5.4).

The application of the original Legion paper [6]: a randomly generated
sparse circuit, partitioned into *pieces*.  Each iteration runs three
phases over the pieces:

1. ``calc_new_currents`` — wire currents from the voltage drop across the
   endpoints (reads node voltages through private/shared/ghost views);
2. ``distribute_charge`` — each wire deposits ``±dt·I`` of charge on its
   endpoint nodes, a ``reduces(+)`` into potentially remote nodes — the
   region-reduction path of paper §4.3;
3. ``update_voltage`` — every owned node integrates its accumulated
   charge, with capacitance and leakage.

The node region uses the full hierarchical private/ghost decomposition of
paper §4.5 (Fig. 5): nodes only ever touched by their owning piece live
under ``all_private`` and are provably copy-free; nodes on piece
boundaries live under ``all_ghost`` as a disjoint ``shared`` partition
(owner's view) plus an aliased ``ghost`` partition (readers' views).
"""

from __future__ import annotations

import numpy as np

from ...core.builder import ProgramBuilder
from ...core.ir import Program
from ...regions import (
    PhysicalInstance,
    ispace,
    partition_by_field,
    partition_by_image,
    private_ghost_decomposition,
    region,
)
from ...tasks import R, RW, Reduce, task
from ..common import AppProblem, first_view_index, fold_routes, segments

__all__ = ["CircuitGraph", "CircuitProblem", "make_circuit_graph"]


class CircuitGraph:
    """A random sparse circuit with piece-local bias."""

    def __init__(self, pieces: int, nodes_per_piece: int, wires_per_piece: int,
                 pct_local: float = 0.8, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.pieces = pieces
        self.num_nodes = pieces * nodes_per_piece
        self.num_wires = pieces * wires_per_piece
        self.node_piece = np.repeat(np.arange(pieces), nodes_per_piece)
        in_node = np.empty(self.num_wires, dtype=np.int64)
        out_node = np.empty(self.num_wires, dtype=np.int64)
        wire_piece = np.repeat(np.arange(pieces), wires_per_piece)
        for p in range(pieces):
            sel = slice(p * wires_per_piece, (p + 1) * wires_per_piece)
            base = p * nodes_per_piece
            in_node[sel] = base + rng.integers(0, nodes_per_piece, wires_per_piece)
            local = rng.random(wires_per_piece) < pct_local
            dst_piece = np.where(
                local, p,
                # neighbour-biased remote endpoints (ring topology bias)
                (p + rng.integers(1, max(2, pieces), wires_per_piece)) % max(1, pieces))
            out_node[sel] = (dst_piece * nodes_per_piece
                             + rng.integers(0, nodes_per_piece, wires_per_piece))
        self.in_node = in_node
        self.out_node = out_node
        self.wire_piece = wire_piece
        self.resistance = rng.uniform(1.0, 10.0, self.num_wires)
        self.capacitance = rng.uniform(1.0, 2.0, self.num_nodes)
        self.leakage = rng.uniform(0.01, 0.05, self.num_nodes)
        self.init_voltage = rng.uniform(-1.0, 1.0, self.num_nodes)


def make_circuit_graph(pieces=4, nodes_per_piece=40, wires_per_piece=60,
                       seed=0) -> CircuitGraph:
    return CircuitGraph(pieces, nodes_per_piece, wires_per_piece, seed=seed)


def _make_tasks(graph: CircuitGraph, dt: float):
    """The three point tasks.  Mesh topology is constant, so everything a
    body needs to know about *where* its nodes live — which of the
    private/shared/ghost views of a §4.5 region tree holds each wire
    endpoint, at which slot — is an inspector plan; the bodies only move
    field values along it.  A view may hold several pieces (a batched
    launch, ``Task.batchable``): each wire's endpoints are looked up in
    its own piece's views (``segments``)."""
    in_node, out_node = graph.in_node, graph.out_node

    def plan_currents(W, PRIV, SHR, GHOST):
        """Per endpoint array, each wire's node as an index into the three
        views' values laid end to end."""
        seg = segments(W)
        return [first_view_index((PRIV, SHR, GHOST), ends[W.points], seg)
                for ends in (in_node, out_node)]

    @task(privileges=[RW("current", "resistance"), R("voltage"), R("voltage"),
                      R("voltage")],
          name="calc_new_currents", batchable=True, inspect=plan_currents)
    def calc_new_currents(W, PRIV, SHR, GHOST, *, plan):
        volts = np.concatenate([view.read("voltage")
                                for view in (PRIV, SHR, GHOST)])
        v_in, v_out = (volts[index] for index in plan)
        W.write("current")[:] = (v_in - v_out) / W.read("resistance")

    def plan_charge(W, PRIV, SHR, GHOST):
        """Per endpoint array, where each wire's contribution goes."""
        seg = segments(W)
        return [fold_routes(PRIV, SHR, GHOST, ends[W.points], seg)
                for ends in (in_node, out_node)]

    @task(privileges=[R("current"), RW("charge"), Reduce("+", "charge"),
                      Reduce("+", "charge")],
          name="distribute_charge", batchable=True, inspect=plan_charge)
    def distribute_charge(W, PRIV, SHR, GHOST, *, plan):
        cur = W.read("current")
        priv_charge = PRIV.write("charge")
        # In-node contributions fold before out-node ones, wire order
        # within each: the fold order is part of the result's bits.  A
        # node's rows belong to one piece's view, so a batched call folds
        # each row in the same order as that piece's own call.
        for sign, (private, shared, ghost) in zip((-dt, dt), plan):
            vals = sign * cur
            np.add.at(priv_charge, private[1], vals[private[0]])
            if shared is not None:
                SHR.reduce("charge", shared[1], vals[shared[0]], "+")
            if ghost is not None:
                GHOST.reduce("charge", ghost[1], vals[ghost[0]], "+")

    def plan_voltage(PRIV, SHR):
        return [(graph.capacitance[view.points],
                 1.0 - graph.leakage[view.points]) for view in (PRIV, SHR)]

    @task(privileges=[RW("voltage", "charge"), RW("voltage", "charge")],
          name="update_voltage", batchable=True, inspect=plan_voltage)
    def update_voltage(PRIV, SHR, *, plan):
        for view, (capacitance, retained) in zip((PRIV, SHR), plan):
            v = view.write("voltage")
            q = view.write("charge")
            v[:] = (v + q / capacitance) * retained
            q[:] = 0.0

    return calc_new_currents, distribute_charge, update_voltage


class CircuitProblem(AppProblem):
    """One circuit problem instance (functional scale)."""

    name = "circuit"

    def __init__(self, pieces: int = 4, nodes_per_piece: int = 40,
                 wires_per_piece: int = 60, steps: int = 4, dt: float = 0.01,
                 seed: int = 0):
        self.graph = CircuitGraph(pieces, nodes_per_piece, wires_per_piece,
                                  seed=seed)
        g = self.graph
        self.steps, self.dt = steps, dt
        self.NODES_IS = ispace(size=g.num_nodes, name="nodes_is")
        self.WIRES_IS = ispace(size=g.num_wires, name="wires_is")
        self.I = ispace(size=pieces, name="pieces")
        self.NODES = region(self.NODES_IS,
                            {"voltage": np.float64, "charge": np.float64,
                             "piece": np.int64}, name="nodes")
        self.WIRES = region(self.WIRES_IS,
                            {"current": np.float64, "resistance": np.float64,
                             "piece": np.int64, "in_ptr": np.int64,
                             "out_ptr": np.int64}, name="wires")
        # Color wires and nodes by piece (field partitions, disjoint).
        winst = PhysicalInstance(self.WIRES)
        winst.fields["piece"][:] = g.wire_piece
        winst.fields["in_ptr"][:] = g.in_node
        winst.fields["out_ptr"][:] = g.out_node
        ninst = PhysicalInstance(self.NODES)
        ninst.fields["piece"][:] = g.node_piece
        self.PW = partition_by_field(self.WIRES, self.I, winst, "piece", name="PW")
        owned = partition_by_field(self.NODES, self.I, ninst, "piece", name="PN")
        # Nodes each piece touches: image of both endpoint pointer fields.
        accessed = partition_by_image(
            self.NODES, self.PW,
            func=lambda pts: np.stack((g.in_node[pts], g.out_node[pts]), axis=1),
            name="QN")
        # Hierarchical private/ghost decomposition (paper §4.5 / Fig. 5).
        self.pg = private_ghost_decomposition(self.NODES, owned, accessed,
                                              name="circuit")
        self.tasks = _make_tasks(g, dt)

    def build_program(self) -> Program:
        calc, dist, update = self.tasks
        pg = self.pg
        b = ProgramBuilder("circuit")
        b.let("T", self.steps)
        with b.for_range("t", 0, "T"):
            b.launch(calc, self.I, self.PW, pg.private_part, pg.shared_part,
                     pg.remote_ghost_part)
            b.launch(dist, self.I, self.PW, pg.private_part, pg.shared_part,
                     pg.remote_ghost_part)
            b.launch(update, self.I, pg.private_part, pg.shared_part)
        return b.build()

    def fresh_instances(self) -> dict[int, PhysicalInstance]:
        g = self.graph
        ninst = PhysicalInstance(self.NODES)
        ninst.fields["voltage"][:] = g.init_voltage
        ninst.fields["piece"][:] = g.node_piece
        winst = PhysicalInstance(self.WIRES)
        winst.fields["resistance"][:] = g.resistance
        winst.fields["piece"][:] = g.wire_piece
        winst.fields["in_ptr"][:] = g.in_node
        winst.fields["out_ptr"][:] = g.out_node
        return {self.NODES.uid: ninst, self.WIRES.uid: winst}

    def extract_state(self, instances) -> dict[str, np.ndarray]:
        return {"voltage": instances[self.NODES.uid].fields["voltage"].copy(),
                "current": instances[self.WIRES.uid].fields["current"].copy()}

    def reference_state(self) -> dict[str, np.ndarray]:
        g, dt = self.graph, self.dt
        v = g.init_voltage.copy()
        q = np.zeros(g.num_nodes)
        cur = np.zeros(g.num_wires)
        for _ in range(self.steps):
            cur = (v[g.in_node] - v[g.out_node]) / g.resistance
            np.add.at(q, g.in_node, -dt * cur)
            np.add.at(q, g.out_node, dt * cur)
            v = (v + q / g.capacitance) * (1.0 - g.leakage)
            q[:] = 0.0
        return {"voltage": v, "current": cur}

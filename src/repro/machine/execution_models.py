"""Execution models: one workload, four runtime structures.

Each function turns an :class:`~repro.machine.workload.AppWorkload` into a
task graph on the discrete-event simulator and returns the steady-state
time per step.  The *same* phases, durations, and communication edges are
used everywhere; the models differ exactly where the paper says the
implementations differ:

* ``simulate_regent_cr`` — one shard (control thread) per node; each shard
  launches only its owned tasks (deferred, non-blocking), copies are
  producer-issued point-to-point messages, scalar reductions are
  asynchronous collective trees over nodes.
* ``simulate_regent_noncr`` — identical task graph, but every launch is
  serialized through the single control thread on node 0 at
  ``launch_overhead`` per task: the O(N)-per-step control cost of paper §1.
* ``simulate_mpi`` — rank-per-core or rank-per-node (OpenMP) SPMD: no
  control-thread costs, full use of all cores, blocking allreduce trees
  over *ranks*, per-step progress overhead.

Regent configurations reserve one core per node for runtime analysis
(``dedicated_analysis_core``), reproducing the single-node gap of §5.3.

Graphs are built columnar (:class:`~repro.machine.graph.GraphBuilder`):
every index launch — thousands of point tasks plus their halo messages —
lands in a handful of ``add_batch`` calls, and the ``engine`` parameter
selects the scheduler (``"vector"`` wave engine by default via ``"auto"``;
see :mod:`repro.machine.vector_sim`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import GraphBuilder
from .model import MachineModel
from .workload import AppWorkload

__all__ = ["StepResult", "simulate_regent_cr", "simulate_regent_noncr",
           "simulate_mpi", "throughput_per_node"]

_EMPTY_I = np.zeros(0, dtype=np.int64)
_EMPTY_F = np.zeros(0, dtype=np.float64)


@dataclass
class StepResult:
    seconds_per_step: float
    makespan: float
    num_sim_tasks: int

    def throughput_per_node(self, points_per_node: float) -> float:
        return points_per_node / self.seconds_per_step


def _tile_nodes(tiles_arr: np.ndarray, tiles: int, nodes: int) -> np.ndarray:
    return tiles_arr * np.int64(nodes) // np.int64(tiles)


def _noise(workload: AppWorkload, tile: int, step: int, phase: int,
           prob_scale: float = 1.0, delay_scale: float = 1.0) -> float:
    """Deterministic pseudo-random system noise for one point task.

    A splitmix-style integer hash of (tile, step, phase) drives a Bernoulli
    delay, so sweeps are reproducible and every execution model sees the
    *same* noise realization — the models differ only in how their
    synchronization structure amplifies it.
    """
    p = workload.noise_prob * prob_scale
    if p <= 0.0:
        return 0.0
    x = (tile * 0x9E3779B97F4A7C15 + step * 0xBF58476D1CE4E5B9
         + phase * 0x94D049BB133111EB + 0xDA3E39CB94B95BDB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    u = (x & 0xFFFFFFFF) / 2.0 ** 32
    return workload.noise_delay * delay_scale if u < p else 0.0


def _noise_batch(workload: AppWorkload, tiles_arr: np.ndarray, step: int,
                 phase: int, prob_scale: float = 1.0,
                 delay_scale: float = 1.0) -> np.ndarray:
    """Vectorized :func:`_noise` — bit-identical realization per tile."""
    p = workload.noise_prob * prob_scale
    n = tiles_arr.shape[0]
    if p <= 0.0:
        return np.zeros(n)
    add = np.uint64((step * 0xBF58476D1CE4E5B9 + phase * 0x94D049BB133111EB
                     + 0xDA3E39CB94B95BDB) & 0xFFFFFFFFFFFFFFFF)
    x = tiles_arr.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) + add
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    u = (x & np.uint64(0xFFFFFFFF)).astype(np.float64) / 2.0 ** 32
    return np.where(u < p, workload.noise_delay * delay_scale, 0.0)


def _steady_state(step_ends: list[float], makespan: float, ntasks: int) -> StepResult:
    if len(step_ends) >= 2:
        per_step = (step_ends[-1] - step_ends[0]) / (len(step_ends) - 1)
    else:
        per_step = step_ends[-1]
    return StepResult(seconds_per_step=per_step, makespan=makespan,
                      num_sim_tasks=ntasks)


def _collective_tree(sim, machine: MachineModel,
                     leaf_uids: dict[int, int], nodes: int) -> dict[int, int]:
    """Binomial reduce + broadcast over nodes; returns per-node result uids.

    Built from explicit hop messages so its latency genuinely overlaps
    whatever else the simulator has in flight (Legion dynamic collectives
    are asynchronous, paper §4.4/§5.3).  Scalar reference, one
    :meth:`~repro.machine.graph.GraphBuilder.add` per hop.
    """
    level = dict(leaf_uids)
    span = 1
    while span < nodes:
        nxt: dict[int, int] = {}
        for n in range(0, nodes, span * 2):
            partner = n + span
            if partner < nodes:
                uid = sim.add(machine.allreduce_alpha, n, kind="none",
                              deps=[level[n], (level[partner], machine.net_latency)],
                              label="allreduce-up")
            else:
                uid = level[n]
            nxt[n] = uid
        level = nxt
        span *= 2
    # Broadcast back down.
    have = {0: level[0]}
    span = 1 << max(0, (nodes - 1).bit_length() - 1)
    while span >= 1:
        for n in list(have):
            partner = n + span
            if partner < nodes and partner not in have:
                have[partner] = sim.add(machine.allreduce_alpha, partner, kind="none",
                                        deps=[(have[n], machine.net_latency)],
                                        label="allreduce-down")
        span //= 2
    return have


def _collective_tree_batch(g: GraphBuilder, machine: MachineModel,
                           leaf_uids: np.ndarray, nodes: int) -> np.ndarray:
    """Vectorized :func:`_collective_tree`: one ``add_batch`` per tree
    level, same hop structure and per-node durations/latencies."""
    level = np.array(leaf_uids, dtype=np.int64, copy=True)
    span = 1
    while span < nodes:
        left = np.arange(0, nodes, span * 2, dtype=np.int64)
        right = left + span
        left = left[right < nodes]
        if left.shape[0]:
            k = left.shape[0]
            tgts = np.empty(2 * k, dtype=np.int64)
            tgts[0::2] = level[left]
            tgts[1::2] = level[left + span]
            lats = np.zeros(2 * k)
            lats[1::2] = machine.net_latency
            level[left] = g.add_batch(
                np.full(k, machine.allreduce_alpha), left, kind="none",
                dep_rows=np.repeat(np.arange(k, dtype=np.int64), 2),
                dep_targets=tgts, dep_lats=lats, label="allreduce-up")
        span *= 2
    have = np.full(nodes, -1, dtype=np.int64)
    have[0] = level[0]
    span = 1 << max(0, (nodes - 1).bit_length() - 1)
    while span >= 1:
        src = np.flatnonzero(have >= 0)
        dst = src + span
        sel = dst < nodes
        src, dst = src[sel], dst[sel]
        sel = have[dst] < 0
        src, dst = src[sel], dst[sel]
        if dst.shape[0]:
            have[dst] = g.add_batch(
                np.full(dst.shape[0], machine.allreduce_alpha), dst,
                kind="none", dep_targets=have[src],
                dep_lats=machine.net_latency, label="allreduce-down")
        span //= 2
    return have


def _wire_comm_batch(g: GraphBuilder, machine: MachineModel, edges_flat,
                     prev_uids: np.ndarray | None, tiles: int, nodes: int):
    """Wire one phase's communication as a batch of message tasks.

    ``edges_flat`` is the ``(consumers, producers, nbytes)`` triple from
    :meth:`AppWorkload.phase_edges_flat`.  Same-node edges become direct
    dependencies on the producer's previous-phase task; cross-node edges
    get one NIC message task on the producer's node, consumed at network
    latency.  Returns ``(dep_rows, dep_targets, dep_lats)`` to splice into
    the consuming compute batch (rows are tile indices).
    """
    cons, prod, nbytes = edges_flat
    if prev_uids is None or cons.shape[0] == 0:
        return _EMPTY_I, _EMPTY_I, _EMPTY_F
    ni = _tile_nodes(prod, tiles, nodes)
    local = ni == _tile_nodes(cons, tiles, nodes)
    rows_l = cons[local]
    tgts_l = prev_uids[prod[local]]
    remote = ~local
    rows_r = cons[remote]
    if rows_r.shape[0] == 0:
        return rows_l, tgts_l, np.zeros(rows_l.shape[0])
    dur = (machine.msg_overhead
           + nbytes[remote].astype(np.float64) / machine.net_bandwidth)
    msg_uids = g.add_batch(dur, ni[remote], kind="nic",
                           dep_targets=prev_uids[prod[remote]], label="halo")
    rows = np.concatenate([rows_l, rows_r])
    tgts = np.concatenate([tgts_l, msg_uids])
    lats = np.zeros(rows.shape[0])
    lats[rows_l.shape[0]:] = machine.net_latency
    return rows, tgts, lats


def _merge_deps(*parts):
    """Concatenate ``(rows, targets, lats)`` triples for one add_batch."""
    rows = np.concatenate([p[0] for p in parts])
    tgts = np.concatenate([p[1] for p in parts])
    lats = np.concatenate([p[2] for p in parts])
    return rows, tgts, lats


def _step_marker(g: GraphBuilder, prev_uids: np.ndarray,
                 label: str = "") -> int:
    uid = g.add_batch(np.zeros(1), 0, kind="none",
                      dep_rows=np.zeros(prev_uids.shape[0], dtype=np.int64),
                      dep_targets=prev_uids, label=label)
    return int(uid[0])


def simulate_regent_cr(workload: AppWorkload, machine: MachineModel,
                       nodes: int, nodes_per_shard: int = 1,
                       on_complete: Callable[[GraphBuilder], None] | None = None,
                       engine: str = "auto") -> StepResult:
    """CR execution.  ``nodes_per_shard`` is the mapping study knob of
    paper §4.2: the default maps one shard (control thread) per node;
    larger values make one shard drive several nodes, whose launches then
    serialize on a single control thread — interpolating between full
    control replication and the single-thread limit.

    ``on_complete`` (all three models take it) receives the finished
    :class:`GraphBuilder` — the hook the trace exporter and utilization
    analyses use, since the graph object is otherwise internal."""
    if nodes_per_shard < 1:
        raise ValueError("nodes_per_shard must be >= 1")
    tiles = workload.num_tiles(nodes)
    cores = machine.cores_per_node - (1 if machine.dedicated_analysis_core else 0)
    g = GraphBuilder(nodes, max(1, cores))
    t_arr = np.arange(tiles, dtype=np.int64)
    node_of = _tile_nodes(t_arr, tiles, nodes)
    ctrl_of = (node_of // nodes_per_shard) * nodes_per_shard
    no_lat = np.zeros(tiles)
    prev_uids: np.ndarray | None = None
    end_markers: list[int] = []
    collective_dep: np.ndarray | None = None  # per-node dt future
    for _step in range(workload.steps):
        for pi, phase in enumerate(workload.phases):
            comm = _wire_comm_batch(g, machine,
                                    workload.phase_edges_flat(pi, nodes),
                                    prev_uids, tiles, nodes)
            # Shard control threads pay a small per-launch cost; deferred
            # execution means a task just depends on its launch op.
            launches = g.add_batch(
                np.full(tiles, machine.shard_launch_overhead), ctrl_of,
                kind="ctrl", label=f"launch:{phase.name}")
            parts = [(t_arr, launches, no_lat), comm]
            if prev_uids is not None:
                parts.append((t_arr, prev_uids, no_lat))
            if (collective_dep is not None
                    and pi == workload.collective_consumer_phase):
                # Deferred execution: only the phase that actually uses
                # the reduced scalar waits on the collective (§4.4).
                parts.append((t_arr, collective_dep[node_of], no_lat))
            dur = phase.task_seconds + _noise_batch(workload, t_arr, _step, pi)
            rows, tgts, lats = _merge_deps(*parts)
            prev_uids = g.add_batch(dur, node_of, kind="core", dep_rows=rows,
                                    dep_targets=tgts, dep_lats=lats,
                                    label=phase.name)
            if pi == workload.collective_consumer_phase:
                collective_dep = None
        if workload.collective:
            # Per-node merge of the leaf futures, then the async tree.
            per_node = g.add_batch(np.zeros(nodes),
                                   np.arange(nodes, dtype=np.int64),
                                   kind="none", dep_rows=node_of,
                                   dep_targets=prev_uids)
            collective_dep = _collective_tree_batch(g, machine, per_node,
                                                    nodes)
        end_markers.append(_step_marker(g, prev_uids, label="step-end"))
    makespan = g.run(engine)
    if on_complete is not None:
        on_complete(g)
    step_ends = [g.finish_of(m) for m in end_markers]
    return _steady_state(step_ends, makespan, g.num_tasks)


def simulate_regent_noncr(workload: AppWorkload, machine: MachineModel,
                          nodes: int,
                          on_complete: Callable[[GraphBuilder], None] | None = None,
                          engine: str = "auto") -> StepResult:
    tiles = workload.num_tiles(nodes)
    cores = machine.cores_per_node - (1 if machine.dedicated_analysis_core else 0)
    g = GraphBuilder(nodes, max(1, cores))
    t_arr = np.arange(tiles, dtype=np.int64)
    node_of = _tile_nodes(t_arr, tiles, nodes)
    no_lat = np.zeros(tiles)
    prev_uids: np.ndarray | None = None
    end_markers: list[int] = []
    collective_dep: int | None = None
    for _step in range(workload.steps):
        for pi, phase in enumerate(workload.phases):
            comm = _wire_comm_batch(g, machine,
                                    workload.phase_edges_flat(pi, nodes),
                                    prev_uids, tiles, nodes)
            # Every launch goes through the single control thread on
            # node 0 — dynamic dependence analysis plus distribution.
            launches = g.add_batch(np.full(tiles, machine.launch_overhead),
                                   0, kind="ctrl",
                                   label=f"launch:{phase.name}")
            parts = [(t_arr, launches, no_lat), comm]
            if prev_uids is not None:
                parts.append((t_arr, prev_uids, no_lat))
            if (collective_dep is not None
                    and pi == workload.collective_consumer_phase):
                parts.append((t_arr, np.full(tiles, collective_dep,
                                             dtype=np.int64), no_lat))
            dur = phase.task_seconds + _noise_batch(workload, t_arr, _step, pi)
            rows, tgts, lats = _merge_deps(*parts)
            prev_uids = g.add_batch(dur, node_of, kind="core", dep_rows=rows,
                                    dep_targets=tgts, dep_lats=lats,
                                    label=phase.name)
            if pi == workload.collective_consumer_phase:
                collective_dep = None
        if workload.collective:
            # The single control thread folds the future values.
            uid = g.add_batch(np.array([machine.launch_overhead]), 0,
                              kind="ctrl",
                              dep_rows=np.zeros(tiles, dtype=np.int64),
                              dep_targets=prev_uids,
                              dep_lats=machine.net_latency,
                              label="scalar-reduce")
            collective_dep = int(uid[0])
        end_markers.append(_step_marker(g, prev_uids))
    makespan = g.run(engine)
    if on_complete is not None:
        on_complete(g)
    return _steady_state([g.finish_of(m) for m in end_markers], makespan,
                         g.num_tasks)


def simulate_mpi(workload: AppWorkload, machine: MachineModel, nodes: int,
                 on_complete: Callable[[GraphBuilder], None] | None = None,
                 engine: str = "auto") -> StepResult:
    """MPI (rank per tile).  ``tiles_per_node`` selects the configuration:
    cores-per-node tiles = rank/core, one tile = rank/node (+OpenMP)."""
    tiles = workload.num_tiles(nodes)
    ranks = tiles
    # A rank spanning the whole node via threads stalls if *any* of its
    # threads takes the noise hit, so the per-task hit probability scales
    # with the number of cores the rank covers — and the stall is worse
    # (the team idles at the join barrier and restarts with cold caches).
    spans_node = workload.tiles_per_node < machine.cores_per_node
    noise_scale = (machine.cores_per_node / max(1, workload.tiles_per_node)
                   if spans_node else 1.0)
    delay_scale = 1.3 if spans_node else 1.0
    g = GraphBuilder(nodes, machine.cores_per_node)
    t_arr = np.arange(tiles, dtype=np.int64)
    node_of = _tile_nodes(t_arr, tiles, nodes)
    no_lat = np.zeros(tiles)
    prev_uids: np.ndarray | None = None
    end_markers: list[int] = []
    barrier_dep: int | None = None
    for _step in range(workload.steps):
        for pi, phase in enumerate(workload.phases):
            comm = _wire_comm_batch(g, machine,
                                    workload.phase_edges_flat(pi, nodes),
                                    prev_uids, tiles, nodes)
            parts = [comm]
            if prev_uids is not None:
                parts.append((t_arr, prev_uids, no_lat))
            if barrier_dep is not None:
                parts.append((t_arr, np.full(tiles, barrier_dep,
                                             dtype=np.int64), no_lat))
            dur = phase.task_seconds + _noise_batch(
                workload, t_arr, _step, pi, noise_scale, delay_scale)
            rows, tgts, lats = _merge_deps(*parts)
            prev_uids = g.add_batch(dur, node_of, kind="core", dep_rows=rows,
                                    dep_targets=tgts, dep_lats=lats,
                                    label=phase.name)
            barrier_dep = None
        # Per-step progress overhead, and the blocking allreduce if any.
        prev_uids = g.add_batch(np.full(tiles, machine.mpi_per_step_overhead),
                                node_of, kind="core", dep_targets=prev_uids,
                                label="mpi-progress")
        if workload.collective:
            uid = g.add_batch(np.array([machine.allreduce_seconds(ranks)]),
                              0, kind="none",
                              dep_rows=np.zeros(tiles, dtype=np.int64),
                              dep_targets=prev_uids,
                              dep_lats=machine.net_latency,
                              label="mpi-allreduce")
            barrier_dep = int(uid[0])
        end_markers.append(_step_marker(g, prev_uids))
    makespan = g.run(engine)
    if on_complete is not None:
        on_complete(g)
    return _steady_state([g.finish_of(m) for m in end_markers], makespan,
                         g.num_tasks)


def throughput_per_node(workload: AppWorkload, result: StepResult) -> float:
    return workload.points_per_node / result.seconds_per_step

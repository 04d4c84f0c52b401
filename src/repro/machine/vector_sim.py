"""Wave-based vectorized scheduler for columnar task graphs.

Replaces the heap oracle's one-pop-per-event loop with batch numpy steps
while reproducing its schedule *bit-exactly* — the equivalence suite
asserts identical ``start``/``finish``/``server`` for every task.

Why this is exact
-----------------
The oracle (``GraphBuilder._run_event``) pops ``(ready_time, uid)`` keys from a
heap.  With non-negative durations and edge latencies, a task released by
a pop can never carry a smaller key than its releaser, so the pop
sequence is exactly the total order by final ``(ready_time, uid)`` — the
classic Dijkstra argument.  That lets us commit whole *waves*:

1. The ready frontier (dependencies all scheduled, so ready times are
   final) is sorted by ``(ready_time, uid)``.
2. A prefix is committed using the lower bound ``finish >= ready +
   duration``: task ``i`` commits while ``ready_i`` is strictly below
   every earlier committed task's possible finish (a running prefix-min).
   Any task released later must then sort strictly after every committed
   task, so no oracle pop could interleave the wave.
3. Committed tasks are placed pool-by-pool.  Grouping is a stable argsort
   by ``(kind, node)``, so each pool sees its tasks in oracle pop order;
   placement replays the oracle's greedy rule with one numpy step per
   *rank* (the k-th task of every pool at once) — ``argmin`` over server
   free times, ``start = maximum(ready, free)`` — or, for a single-server
   pool swallowing a huge wave (the un-replicated control thread), a
   busy-run scan that commits back-to-back runs with one
   ``np.add.accumulate`` per run.  Both perform the oracle's exact
   float operations (one ``max``, one add per task), so no
   reassociation-induced rounding drift is possible.
4. Dependency release is a CSR scatter: ``finish + latency`` maxed into
   successor ready times (``np.maximum.at``), in-degrees decremented in
   bulk.  ``kind="none"`` tasks occupy no pool and their schedule is a
   pure function of their ready time, so they resolve eagerly the moment
   their in-degree hits zero (collective trees collapse into one
   vector step per tree level).

Graphs with negative durations or latencies void the argument; they
raise :class:`~repro.machine.graph.UnsupportedGraph` (``engine="auto"``
falls back to the event engine).
"""

from __future__ import annotations

import numpy as np

from .graph import (GraphBuilder, KIND_CORE, KIND_CTRL, KIND_NIC, KIND_NONE,
                    UnsupportedGraph)

__all__ = ["run_vectorized"]

# Below this many tasks in a single-server pool wave, the rank loop wins
# over per-pool busy-run scans (fewer Python-level steps).
_RUN_SCAN_MIN = 32

# Degenerate-schedule detection: when the last _DEGEN_WAVES waves committed
# fewer than _DEGEN_TASKS tasks in total, the remaining graph is
# effectively serial (e.g. the un-replicated model's control-thread-bound
# tail, where consecutive pops are genuinely dependent) and per-wave numpy
# overhead loses to a plain heap.  The run then hands off to an exact
# event-loop continuation from the current scheduler state.
_DEGEN_WAVES = 16
_DEGEN_TASKS = 64


def _gather_edges(uids: np.ndarray, out_indptr: np.ndarray,
                  out_counts: np.ndarray):
    """Concatenated CSR ranges (edge indices, repeated sources)."""
    cnt = out_counts[uids]
    total = int(cnt.sum())
    if total == 0:
        return None, None
    ends = np.cumsum(cnt)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - cnt, cnt)
    idx = np.repeat(out_indptr[uids], cnt) + offsets
    return idx, np.repeat(uids, cnt)


def _place_rank_loop(tids: np.ndarray, nodes: np.ndarray, free: np.ndarray,
                     ready: np.ndarray, dur: np.ndarray, start: np.ndarray,
                     finish: np.ndarray, server: np.ndarray) -> None:
    """Greedy placement, one vector step per within-pool rank.

    ``tids`` are pool-grouped (contiguous per node) and in oracle pop
    order within each pool; ``free`` is the ``(num_nodes, servers)``
    availability matrix of this resource kind.
    """
    seg_start = np.flatnonzero(np.r_[True, np.diff(nodes) != 0])
    seg_node = nodes[seg_start]
    counts = np.diff(np.r_[seg_start, nodes.shape[0]])
    servers = free.shape[1]
    for k in range(int(counts.max())):
        sel = counts > k
        tid = tids[seg_start[sel] + k]
        rows = seg_node[sel]
        if servers == 1:
            j = np.zeros(rows.shape[0], dtype=np.int64)
            fm = free[rows, 0]
        else:
            fmat = free[rows]
            j = fmat.argmin(axis=1)
            fm = fmat[np.arange(rows.shape[0]), j]
        s = np.maximum(ready[tid], fm)
        f = s + dur[tid]
        free[rows, j] = f
        start[tid] = s
        finish[tid] = f
        server[tid] = j


def _place_single_server_runs(tids: np.ndarray, free0: float,
                              ready: np.ndarray, dur: np.ndarray,
                              start: np.ndarray,
                              finish: np.ndarray) -> float:
    """Exact single-server placement by maximal busy runs.

    While the server never idles, each finish is ``prev + duration`` —
    one sequential ``np.add.accumulate`` commits the whole run at the
    oracle's exact rounding.  A new run starts at each idle gap.
    """
    r = ready[tids]
    d = dur[tids]
    m = tids.shape[0]
    free = free0
    i = 0
    while i < m:
        s0 = r[i] if r[i] > free else free
        acc = np.add.accumulate(np.concatenate(([s0 + d[i]], d[i + 1:])))
        busy = r[i + 1:] <= acc[:-1]
        v = int(busy.shape[0] if busy.all() else np.argmin(busy))
        sl = slice(i, i + 1 + v)
        start[tids[sl]] = np.concatenate(([s0], acc[:v]))
        finish[tids[sl]] = acc[:v + 1]
        free = float(acc[v])
        i += 1 + v
    return free


def run_vectorized(g: GraphBuilder) -> float:
    """Schedule ``g`` (finalized, run arrays allocated) in waves."""
    g.finalize()
    n = g.num_tasks
    if g.start is None:
        g.start = np.full(n, -1.0)
        g.finish = np.full(n, -1.0)
        g.server = np.zeros(n, dtype=np.int32)
    if n == 0:
        g.last_run_stats = {"engine": "vector", "tasks": 0, "edges": 0,
                            "waves": 0, "max_wave_tasks": 0,
                            "mean_wave_tasks": 0.0}
        return 0.0
    dur = g.duration
    kind = g.kind
    node = g.node
    if float(dur.min()) < 0.0:
        raise UnsupportedGraph("vector engine requires durations >= 0")
    if g.dep_lats.shape[0] and float(g.dep_lats.min()) < 0.0:
        raise UnsupportedGraph("vector engine requires edge latencies >= 0")

    m = g.dep_uids.shape[0]
    indeg = np.diff(g.dep_indptr).astype(np.int64)
    csr = out_succ, out_lat, out_indptr = g.dependents_csr()
    out_counts = np.diff(out_indptr)

    ready = np.zeros(n)
    start, finish, server = g.start, g.finish, g.server
    num_nodes = g.num_nodes
    free = g.idle_pools()

    scheduled = 0
    waves = 0
    wave_tasks_max = 0

    def release(uids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Propagate finishes along out-edges; returns (pool, none) uids
        that just became ready."""
        idx, preds = _gather_edges(uids, out_indptr, out_counts)
        if idx is None:
            return _EMPTY, _EMPTY
        succ = out_succ[idx]
        cand = finish[preds] + out_lat[idx]
        np.maximum.at(ready, succ, cand)
        uniq, inv = np.unique(succ, return_inverse=True)
        indeg[uniq] -= np.bincount(inv)
        newly = uniq[indeg[uniq] == 0]
        if newly.shape[0] == 0:
            return _EMPTY, _EMPTY
        is_none = kind[newly] == KIND_NONE
        return newly[~is_none], newly[is_none]

    def resolve_none(none_uids: np.ndarray) -> np.ndarray:
        """Eagerly finalize ready "none" tasks (and chains of them);
        returns pool tasks they release."""
        pool_parts = []
        while none_uids.shape[0]:
            nonlocal_sched = none_uids.shape[0]
            r = ready[none_uids]
            start[none_uids] = r
            finish[none_uids] = r + dur[none_uids]
            _bump(nonlocal_sched)
            pool_new, none_uids = release(none_uids)
            if pool_new.shape[0]:
                pool_parts.append(pool_new)
        if not pool_parts:
            return _EMPTY
        return np.concatenate(pool_parts)

    def _bump(k: int) -> None:
        nonlocal scheduled
        scheduled += k

    _EMPTY = np.zeros(0, dtype=np.int64)

    initial = np.flatnonzero(indeg == 0)
    init_none = initial[kind[initial] == KIND_NONE]
    frontier = initial[kind[initial] != KIND_NONE]
    if init_none.shape[0]:
        extra = resolve_none(init_none)
        if extra.shape[0]:
            frontier = np.concatenate([frontier, extra])

    window_waves = 0
    window_committed = 0
    while frontier.shape[0]:
        waves += 1
        before = scheduled
        # Oracle pop order: sort the frontier by (ready, uid).
        fr = frontier[np.lexsort((frontier, ready[frontier]))]
        r = ready[fr]
        # Commit the longest exact prefix: ready_i strictly below every
        # earlier committed task's finish lower bound (ready + duration).
        lb = r + dur[fr]
        pmf_prev = np.empty(lb.shape[0])
        pmf_prev[0] = np.inf
        np.minimum.accumulate(lb[:-1], out=pmf_prev[1:])
        ok = r < pmf_prev
        commit_n = int(ok.shape[0] if ok.all() else np.argmin(ok))
        commit, rest = fr[:commit_n], fr[commit_n:]
        wave_tasks_max = max(wave_tasks_max, commit_n)

        # Pool-grouped placement: stable sort by (kind, node) keeps each
        # pool's tasks in oracle pop order.
        ck = kind[commit]
        grp = commit[np.argsort(ck * np.int64(num_nodes) + node[commit],
                                kind="stable")]
        gk = kind[grp]
        for kcode in (KIND_CORE, KIND_CTRL, KIND_NIC):
            sel = grp[gk == kcode]
            if sel.shape[0] == 0:
                continue
            fmat = free[kcode]
            nodes_arr = node[sel]
            if fmat.shape[1] == 1 and sel.shape[0] >= _RUN_SCAN_MIN:
                # Few pools, long queues -> busy-run scans; many pools,
                # short queues -> the rank loop below.
                seg_start = np.flatnonzero(
                    np.r_[True, np.diff(nodes_arr) != 0])
                seg_end = np.r_[seg_start[1:], nodes_arr.shape[0]]
                if int((seg_end - seg_start).max()) > seg_start.shape[0]:
                    for a, b in zip(seg_start.tolist(), seg_end.tolist()):
                        nd = int(nodes_arr[a])
                        fmat[nd, 0] = _place_single_server_runs(
                            sel[a:b], float(fmat[nd, 0]), ready, dur,
                            start, finish)
                    continue
            _place_rank_loop(sel, nodes_arr, fmat, ready, dur,
                             start, finish, server)
        _bump(commit_n)

        pool_new, none_new = release(commit)
        extra = resolve_none(none_new)
        parts = [p for p in (rest, pool_new, extra) if p.shape[0]]
        frontier = np.concatenate(parts) if parts else _EMPTY

        window_committed += scheduled - before
        window_waves += 1
        if window_waves == _DEGEN_WAVES:
            if window_committed < _DEGEN_TASKS and frontier.shape[0]:
                # The committed prefix equals the oracle's first pops, so
                # this is a reachable oracle state: the oracle's own loop
                # resumed from it yields the rest of its schedule.  Eagerly
                # resolved "none" tasks are final already and hold no
                # resources, so skipping their pops changes nothing.
                handed = g.run_heap(ready, indeg, frontier, free, csr)
                scheduled += handed
                frontier = _EMPTY
                if scheduled != n:
                    g._raise_deadlock(finish >= 0)
                g.last_run_stats = {
                    "engine": "vector+event", "tasks": n, "edges": m,
                    "waves": waves, "max_wave_tasks": wave_tasks_max,
                    "mean_wave_tasks": scheduled / max(waves, 1),
                    "heap_handoff_tasks": handed}
                return float(finish.max())
            window_waves = 0
            window_committed = 0

    if scheduled != n:
        g.last_run_stats = {"engine": "vector", "tasks": n, "edges": m,
                            "waves": waves,
                            "max_wave_tasks": wave_tasks_max,
                            "mean_wave_tasks": scheduled / max(waves, 1)}
        g._raise_deadlock(finish >= 0)
    g.last_run_stats = {"engine": "vector", "tasks": n, "edges": m,
                        "waves": waves, "max_wave_tasks": wave_tasks_max,
                        "mean_wave_tasks": scheduled / max(waves, 1)}
    return float(finish.max())

"""Columnar (struct-of-arrays) task graphs for the machine simulator.

A Realm-flavoured execution model: a simulation is a DAG of *sim tasks*,
each bound to a resource pool of its node.  A task becomes ready when all
its dependencies have completed (plus any per-edge latency, used for
network transit time), and then occupies the earliest-available server
of its pool.  List scheduling in ready order — greedy, deterministic,
and adequate for the structural phenomena we reproduce (control-thread
saturation, halo-exchange pipelines, collective trees).

Resource kinds per node:

* ``core`` — ``cores_per_node`` servers running point tasks;
* ``ctrl`` — one server; the control thread that pays launch overhead
  (this is the resource whose saturation kills un-replicated scaling);
* ``nic`` — one server; serializes message injection at the sender;
* ``none`` — no resource, pure delay.

A paper-scale graph (fig. 6-9) has ~10^5-10^6 sim tasks per 1024-node
sweep point, so :class:`GraphBuilder` stores it as numpy columns —
``duration`` / ``node`` / ``kind`` plus a CSR dependency structure with
per-edge latencies — and grows it with bulk :meth:`add_batch` calls: the
execution models construct whole index launches (thousands of tasks)
with a handful of array operations.

Two engines execute a built graph, selected by :meth:`run`:

* ``"event"`` — the heap scheduler, reading the columnar arrays
  directly: one heap pop per task, greedy ready-order list scheduling.
  This is the oracle semantics.
* ``"vector"`` — the wave-based batch scheduler in
  :mod:`repro.machine.vector_sim`, which produces bit-identical
  ``start`` / ``finish`` / ``server`` assignments (asserted by the
  equivalence suite) while advancing thousands of tasks per numpy step.
* ``"auto"`` — ``vector`` unless the graph uses features the vectorized
  engine rejects (negative durations or edge latencies), in which case it
  falls back to ``event``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GraphBuilder", "KINDS", "KIND_CODE",
           "KIND_CORE", "KIND_CTRL", "KIND_NIC", "KIND_NONE",
           "UnsupportedGraph", "format_cycle"]

KINDS = ("core", "ctrl", "nic", "none")
KIND_CODE = {k: i for i, k in enumerate(KINDS)}
KIND_CORE, KIND_CTRL, KIND_NIC, KIND_NONE = range(4)

ENGINES = ("auto", "vector", "event")


class UnsupportedGraph(ValueError):
    """The vectorized engine cannot schedule this graph exactly."""


def find_cycle(deps_of, stuck) -> list[int]:
    """A concrete dependency cycle among ``stuck`` task uids.

    ``deps_of(uid)`` yields the uids ``uid`` waits on; ``stuck`` is the
    set of tasks that never became ready.  Returns the cycle as a uid
    list (first == last edge implied), or a short witness path if the
    walk leaves ``stuck`` (malformed deps rather than a cycle).
    """
    stuck = set(stuck)
    visited: set[int] = set()
    for root in sorted(stuck):
        if root in visited:
            continue
        path: list[int] = []
        index: dict[int, int] = {}
        cur = root
        while cur is not None and cur not in visited:
            if cur in index:
                return path[index[cur]:]
            index[cur] = len(path)
            path.append(cur)
            nxt = None
            for d in deps_of(cur):
                if d in stuck:
                    nxt = d
                    break
            cur = nxt
        visited.update(path)
    return sorted(stuck)[:8]  # no in-stuck edge: report a witness set


def format_cycle(cycle: list[int], label_of) -> str:
    """Human-readable ``uid(label) -> uid(label)`` chain for errors."""
    def name(uid: int) -> str:
        label = label_of(uid)
        return f"{uid}({label})" if label else str(uid)
    chain = " -> ".join(name(u) for u in cycle)
    if len(cycle) > 1:
        chain += f" -> {name(cycle[0])}"
    return chain


class GraphBuilder:
    """Build a task graph as struct-of-arrays, then :meth:`run` it."""

    def __init__(self, num_nodes: int, cores_per_node: int):
        if num_nodes <= 0 or cores_per_node <= 0:
            raise ValueError("need positive node and core counts")
        self.num_nodes = int(num_nodes)
        self.cores_per_node = int(cores_per_node)
        self._n = 0
        # Per-batch column chunks, concatenated once at finalize.
        self._dur: list[np.ndarray] = []
        self._node: list[np.ndarray] = []
        self._kind: list[np.ndarray] = []
        self._label_id: list[np.ndarray] = []
        self._labels: list[str] = []
        self._label_index: dict[str, int] = {}
        # Dependency edges as (consumer uid, producer uid, latency) columns.
        self._dep_rows: list[np.ndarray] = []
        self._dep_uids: list[np.ndarray] = []
        self._dep_lats: list[np.ndarray] = []
        self._frozen = False
        # Filled by finalize():
        self.duration: np.ndarray | None = None
        self.node: np.ndarray | None = None
        self.kind: np.ndarray | None = None
        self.label_id: np.ndarray | None = None
        self.dep_indptr: np.ndarray | None = None
        self.dep_uids: np.ndarray | None = None
        self.dep_lats: np.ndarray | None = None
        # Filled by run():
        self.start: np.ndarray | None = None
        self.finish: np.ndarray | None = None
        self.server: np.ndarray | None = None
        self.last_run_stats: dict | None = None

    # -- construction -------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return self._n

    def _label_to_id(self, label: str) -> int:
        lid = self._label_index.get(label)
        if lid is None:
            lid = len(self._labels)
            self._label_index[label] = lid
            self._labels.append(label)
        return lid

    def label_of(self, uid: int) -> str:
        self.finalize()
        return self._labels[int(self.label_id[uid])]

    def add_batch(self, durations, nodes, kind: str = "core",
                  dep_rows=None, dep_targets=None, dep_lats=None,
                  label: str = "") -> np.ndarray:
        """Append ``len(durations)`` tasks; returns their uids.

        ``nodes`` is a scalar or per-task array.  Dependencies come as
        parallel arrays: ``dep_rows`` indexes *into this batch* (0-based),
        ``dep_targets`` holds absolute producer uids, and ``dep_lats`` the
        per-edge latencies (``None`` -> 0, scalar -> broadcast).  Rows may
        repeat (variable fan-in) and arrive unsorted.
        """
        if self._frozen:
            raise RuntimeError("graph already finalized; build before run()")
        dur = np.ascontiguousarray(durations, dtype=np.float64)
        if dur.ndim != 1:
            raise ValueError("durations must be one-dimensional")
        n = dur.shape[0]
        if kind not in KIND_CODE:
            raise ValueError(f"unknown resource kind {kind!r}")
        node = np.broadcast_to(np.asarray(nodes, dtype=np.int64), (n,))
        if n and (node.min() < 0 or node.max() >= self.num_nodes):
            raise ValueError("node out of range")
        base = self._n
        self._dur.append(dur)
        self._node.append(np.ascontiguousarray(node))
        self._kind.append(np.full(n, KIND_CODE[kind], dtype=np.uint8))
        self._label_id.append(np.full(n, self._label_to_id(label),
                                      dtype=np.int32))
        if dep_targets is not None:
            tgt = np.ascontiguousarray(dep_targets, dtype=np.int64)
            if dep_rows is None:
                if tgt.shape[0] != n:
                    raise ValueError("dep_rows required unless one dep/task")
                rows = np.arange(n, dtype=np.int64)
            else:
                rows = np.ascontiguousarray(dep_rows, dtype=np.int64)
            if rows.shape != tgt.shape:
                raise ValueError("dep_rows and dep_targets differ in length")
            if rows.size and (rows.min() < 0 or rows.max() >= n):
                raise ValueError("dep row out of batch range")
            if tgt.size and (tgt.min() < 0 or tgt.max() >= base + n):
                raise ValueError("dep target uid out of range")
            if dep_lats is None:
                lats = np.zeros(tgt.shape[0], dtype=np.float64)
            else:
                lats = np.ascontiguousarray(
                    np.broadcast_to(np.asarray(dep_lats, dtype=np.float64),
                                    tgt.shape), dtype=np.float64)
            self._dep_rows.append(rows + base)
            self._dep_uids.append(tgt)
            self._dep_lats.append(lats)
        elif dep_rows is not None:
            raise ValueError("dep_rows given without dep_targets")
        self._n += n
        return np.arange(base, base + n, dtype=np.int64)

    def add_deps(self, rows, targets, lats=None) -> None:
        """Attach extra edges to tasks that already exist.

        ``rows`` are absolute consumer uids, ``targets`` absolute producer
        uids — the escape hatch for graphs whose producer/consumer batches
        interleave (e.g. message tasks between two compute batches).
        """
        if self._frozen:
            raise RuntimeError("graph already finalized; build before run()")
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        tgt = np.ascontiguousarray(targets, dtype=np.int64)
        if rows.shape != tgt.shape:
            raise ValueError("rows and targets differ in length")
        if rows.size == 0:
            return
        if rows.min() < 0 or rows.max() >= self._n:
            raise ValueError("dep row uid out of range")
        if tgt.min() < 0 or tgt.max() >= self._n:
            raise ValueError("dep target uid out of range")
        if lats is None:
            arr = np.zeros(tgt.shape[0], dtype=np.float64)
        else:
            arr = np.ascontiguousarray(
                np.broadcast_to(np.asarray(lats, dtype=np.float64),
                                tgt.shape), dtype=np.float64)
        self._dep_rows.append(rows)
        self._dep_uids.append(tgt)
        self._dep_lats.append(arr)

    def add(self, duration: float, node: int, kind: str = "core",
            deps=None, label: str = "") -> int:
        """Add one task; ``deps`` entries are uids or (uid, latency) pairs."""
        targets: list[int] = []
        lats: list[float] = []
        for d in deps or []:
            if isinstance(d, tuple):
                targets.append(int(d[0]))
                lats.append(float(d[1]))
            else:
                targets.append(int(d))
                lats.append(0.0)
        uids = self.add_batch(
            np.array([float(duration)]), int(node), kind,
            dep_rows=np.zeros(len(targets), dtype=np.int64),
            dep_targets=np.array(targets, dtype=np.int64),
            dep_lats=np.array(lats, dtype=np.float64), label=label)
        return int(uids[0])

    def finalize(self) -> "GraphBuilder":
        """Concatenate batch chunks into flat columns (idempotent).

        Duplicate ``(task, dep)`` pairs are collapsed keeping the first
        occurrence's latency — the same edge the heap oracle's
        first-match lookup would use — so both engines release each
        logical edge exactly once.
        """
        if self._frozen:
            return self
        n = self._n
        self.duration = (np.concatenate(self._dur) if self._dur
                         else np.zeros(0))
        self.node = (np.concatenate(self._node) if self._node
                     else np.zeros(0, dtype=np.int64))
        self.kind = (np.concatenate(self._kind) if self._kind
                     else np.zeros(0, dtype=np.uint8))
        self.label_id = (np.concatenate(self._label_id) if self._label_id
                         else np.zeros(0, dtype=np.int32))
        if self._dep_rows:
            rows = np.concatenate(self._dep_rows)
            tgts = np.concatenate(self._dep_uids)
            lats = np.concatenate(self._dep_lats)
            packed = rows * np.int64(max(n, 1)) + tgts
            uniq, first = np.unique(packed, return_index=True)
            if uniq.shape[0] != packed.shape[0]:
                first.sort()  # keep original first-occurrence latencies
                rows, tgts, lats = rows[first], tgts[first], lats[first]
                order = np.argsort(rows * np.int64(max(n, 1)) + tgts,
                                   kind="stable")
            else:
                order = np.argsort(packed, kind="stable")
            rows, tgts, lats = rows[order], tgts[order], lats[order]
            counts = np.bincount(rows, minlength=n)
            self.dep_uids = tgts
            self.dep_lats = lats
        else:
            counts = np.zeros(n, dtype=np.int64)
            self.dep_uids = np.zeros(0, dtype=np.int64)
            self.dep_lats = np.zeros(0, dtype=np.float64)
        self.dep_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.dep_indptr[1:])
        self._frozen = True
        # Release chunk storage.
        self._dur = self._node = self._kind = self._label_id = None
        self._dep_rows = self._dep_uids = self._dep_lats = None
        return self

    @property
    def labels(self) -> list[str]:
        return self._labels

    def deps_of(self, uid: int) -> list[tuple[int, float]]:
        """The ``(producer uid, latency)`` list of one task (finalizes)."""
        self.finalize()
        lo, hi = self.dep_indptr[uid], self.dep_indptr[uid + 1]
        return [(int(d), float(l)) for d, l in
                zip(self.dep_uids[lo:hi], self.dep_lats[lo:hi])]

    # -- execution ----------------------------------------------------------
    def run(self, engine: str = "auto") -> float:
        """Schedule everything; returns the makespan.

        Re-running (e.g. with a different engine) recomputes the schedule
        from scratch on the same graph.
        """
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        self.finalize()
        n = self._n
        self.start = np.full(n, -1.0)
        self.finish = np.full(n, -1.0)
        self.server = np.zeros(n, dtype=np.int32)
        if engine == "event":
            return self._run_event()
        from .vector_sim import run_vectorized
        if engine == "auto":
            try:
                return run_vectorized(self)
            except UnsupportedGraph:
                return self._run_event()
        return run_vectorized(self)

    def finish_of(self, uid: int) -> float:
        return float(self.finish[uid])

    def _raise_deadlock(self, scheduled_mask: np.ndarray) -> None:
        stuck = np.flatnonzero(~scheduled_mask)
        cycle = find_cycle(self.deps_of_uids, stuck.tolist())
        raise RuntimeError(
            f"simulation deadlock: {stuck.shape[0]} tasks never ready; "
            f"dependency cycle: {format_cycle(cycle, self.label_of)}")

    def deps_of_uids(self, uid: int):
        lo, hi = self.dep_indptr[uid], self.dep_indptr[uid + 1]
        return self.dep_uids[lo:hi].tolist()

    def dependents_csr(self):
        """Per producer, its consumers and edge latencies: the CSR
        ``(succ, lat, indptr)`` transpose of the dependency arrays."""
        n = self._n
        order = np.argsort(self.dep_uids, kind="stable")
        succ = np.repeat(np.arange(n, dtype=np.int64),
                         np.diff(self.dep_indptr))[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.dep_uids, minlength=n), out=indptr[1:])
        return succ, self.dep_lats[order], indptr

    def idle_pools(self) -> dict:
        """Per resource kind, every server's free time, all at zero."""
        return {KIND_CORE: np.zeros((self.num_nodes, self.cores_per_node)),
                KIND_CTRL: np.zeros((self.num_nodes, 1)),
                KIND_NIC: np.zeros((self.num_nodes, 1))}

    def _run_event(self) -> float:
        """The heap oracle reading columnar arrays (reference engine)."""
        n = self._n
        if n == 0:
            self.last_run_stats = {"engine": "event", "tasks": 0, "edges": 0}
            return 0.0
        indeg = np.diff(self.dep_indptr).astype(np.int64)
        completed = self.run_heap(np.zeros(n), indeg,
                                  np.flatnonzero(indeg == 0),
                                  self.idle_pools(), self.dependents_csr())
        self.last_run_stats = {"engine": "event", "tasks": n,
                               "edges": self.dep_uids.shape[0],
                               "waves": completed}
        if completed != n:
            self._raise_deadlock(self.finish >= 0)
        return max(0.0, float(self.finish.max()))

    def run_heap(self, ready: np.ndarray, indeg: np.ndarray,
                 frontier: np.ndarray, free: dict, csr) -> int:
        """The oracle's pop loop, from a given scheduler state.

        ``ready``/``indeg`` per task, the ``frontier`` of tasks whose
        dependencies are all scheduled, each pool's server free times
        (:meth:`idle_pools` layout) and the :meth:`dependents_csr`: the
        initial state of a run, or a mid-run state of the vector engine
        handing off.  Pops ``(ready, uid)`` keys, places each task on its
        pool's first free server, writes ``start``/``finish``/``server``,
        and returns how many tasks it scheduled.
        """
        import heapq
        succ_l, lat_l, iptr = (a.tolist() for a in csr)
        dur = self.duration.tolist()
        node = self.node.tolist()
        kind = self.kind.tolist()
        ready_l = ready.tolist()
        indeg_l = indeg.tolist()
        core_free = [row.tolist() for row in free[KIND_CORE]]
        ctrl_free = free[KIND_CTRL][:, 0].tolist()
        nic_free = free[KIND_NIC][:, 0].tolist()
        start, finish, server = self.start, self.finish, self.server
        heap = [(ready_l[u], u) for u in frontier.tolist()]
        heapq.heapify(heap)
        done = 0
        while heap:
            rt, uid = heapq.heappop(heap)
            k = kind[uid]
            nd = node[uid]
            d = dur[uid]
            if k == KIND_NONE:
                s, sv = rt, 0
            elif k == KIND_CORE:
                row = core_free[nd]
                sv = min(range(len(row)), key=row.__getitem__)
                s = max(rt, row[sv])
                row[sv] = s + d
            elif k == KIND_CTRL:
                sv = 0
                s = max(rt, ctrl_free[nd])
                ctrl_free[nd] = s + d
            else:
                sv = 0
                s = max(rt, nic_free[nd])
                nic_free[nd] = s + d
            f = s + d
            start[uid] = s
            finish[uid] = f
            server[uid] = sv
            done += 1
            for e in range(iptr[uid], iptr[uid + 1]):
                succ = succ_l[e]
                cand = f + lat_l[e]
                if cand > ready_l[succ]:
                    ready_l[succ] = cand
                indeg_l[succ] -= 1
                if indeg_l[succ] == 0:
                    heapq.heappush(heap, (ready_l[succ], succ))
        return done

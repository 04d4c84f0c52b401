"""Socket-based SPMD driver: one rank process per shard over a TCP mesh.

Two shapes share the rank body (:func:`_run_rank`), chosen by whether
the executor was given a worker identity:

* fork mode — the CI / single-host shape.  The parent pre-binds one
  listening socket per rank on ephemeral localhost ports and hands the
  launch to :func:`repro.runtime.launch.fork_and_funnel`, so every child
  starts with the full address map and its own already-listening socket:
  no rendezvous file, no port race.

* worker mode — the multi-host shape behind ``repro launch-worker``
  (``net_worker=(rank, addrs)``).  No fork: this process *is* one rank,
  binds its own listener at the address the host file assigned it, and
  runs only its shard inline.

There is no shared sync board and no cross-process fold lock: a remote
pair's payload is applied on the consumer, in the consumer's own shard
thread, at its ready-wait point in replicated program order (see
:mod:`repro.runtime.net.sync`), so cross-rank folds are single-writer by
construction and the in-memory handshake state stays process-private.

Failure semantics: a failing rank sets the shared cancel flag (fork
mode) and broadcasts an ``ERROR`` frame (both modes); sibling ranks trip
their local failure event, unwind as cancelled, and report no error of
their own.

On success the final owned region state funnels up the binomial gather
tree to rank 0 (each rank ships only the colors it owns), so the parent
— whose fork-COW instances never saw the children's writes — can install
the authoritative arrays before ``FinalCopy`` runs.
"""

from __future__ import annotations

import socket
import threading

from ...core.shards import shard_owned_colors
from ..launch import drive_shard, fork_and_funnel
from . import frame
from .sync import NetCommContext
from .transport import Transport, bind_listeners

__all__ = ["run_shard_launch_net"]


class _CancelUnion:
    """Cancel surface a rank polls: the driver flag OR a peer's failure."""

    __slots__ = ("_a", "_b")

    def __init__(self, a, b) -> None:
        self._a = a
        self._b = b

    def is_set(self) -> bool:
        return self._a.is_set() or self._b.is_set()

    def set(self) -> None:
        self._a.set()


def _owned_state(ex, spec, ns: int, rank: int) -> dict:
    """This rank's final region state: every owned color of every
    partition the launch touches, as ``(uid, color) -> {field: array}``."""
    data: dict = {}
    for p in spec.partitions:
        for c in shard_owned_colors(p.num_colors, ns, rank):
            inst = ex.dist.get((p.uid, c))
            if inst is not None:
                data[(p.uid, c)] = dict(inst.fields)
    return data


def _apply_final_state(ex, final_state: dict) -> None:
    for (uid, c), fields in final_state.items():
        inst = ex.dist.get((uid, c))
        if inst is None:  # pragma: no cover - gather of an unknown instance
            continue
        for f, arr in fields.items():
            inst.fields[f][...] = arr


def _run_rank(ex, stmt, spec, st, ns: int, transport, cancel):
    """Drive one rank's shard body over a fresh transport.

    Returns ``(error, final_state, nctx)``; ``final_state`` is the
    merged gather on rank 0 and ``None`` elsewhere.  Shared by the fork
    child and the worker process.
    """
    rank = st.shard
    nctx = NetCommContext(transport, spec, ns)
    transport.connect_all()
    transport.start_receivers()
    final = []

    def body():
        yield from ex._run_shard(stmt, st, nctx)
        # The last iteration's credits have no message left to ride.
        transport.flush_credits()
        # Funnel this rank's owned region state up the gather tree, then
        # hold everyone at the shutdown rendezvous so no rank closes its
        # sockets while a peer still needs them.
        final.append((yield from nctx.tree.gather(
            _owned_state(ex, spec, ns, rank))))
        yield nctx.done.contribute(1, None)
        nctx.done.result(1)

    error = drive_shard(ex, body(), st, _CancelUnion(cancel, nctx.failed))
    if error is not None:
        wire = (error if isinstance(error, Exception)
                else RuntimeError(repr(error)))
        transport.broadcast(frame.ERROR, wire)
    return error, (final[0] if final else None), nctx


def run_shard_launch_net(ex, stmt, spec, states) -> None:
    """Run one launch over TCP: this process as one rank when the executor
    carries a worker identity, else one forked rank per shard."""
    if ex.net_worker is not None:
        _run_worker(ex, stmt, spec, states)
        return
    ns = len(states)
    listeners, addrs = bind_listeners(ns)
    final_state = []

    def close_listeners() -> None:
        for lst in listeners:
            lst.close()

    def body(st, cancel):
        rank = st.shard
        for r, lst in enumerate(listeners):
            if r != rank:
                lst.close()
        transport = Transport(rank, ns, listeners[rank], addrs)
        try:
            error, final, _ = _run_rank(ex, stmt, spec, st, ns, transport,
                                        cancel)
        finally:
            net_stats = transport.stats()
            transport.close()
        return error, {"net": net_stats, "final_state": final}

    def on_extras(rank: int, extras: dict) -> None:
        ex.net_stats[rank] = extras["net"]
        if extras["final_state"] is not None:
            final_state.append(extras["final_state"])

    try:
        fork_and_funnel(ex, states, body, noun="rank",
                        on_forked=close_listeners, on_extras=on_extras)
    finally:
        close_listeners()
    if final_state:
        _apply_final_state(ex, final_state[0])


def _run_worker(ex, stmt, spec, states) -> None:
    """Run exactly one rank inline, per ``ex.net_worker = (rank, addrs)``.

    Every participating process rebuilds the same program (same app,
    same seed, same shard count) and reaches this launch with identical
    replicated control flow; only the shard body of ``rank`` executes
    here.  After the run, rank 0 installs the gathered final state
    directly — it is the process whose ``FinalCopy`` output matters —
    and this rank's scalar environment is replicated into the sibling
    shard states so the executor's replication validation still checks
    a full, consistent set.
    """
    rank, addrs = ex.net_worker
    ns = len(states)
    if not 0 <= rank < ns:
        raise ValueError(f"worker rank {rank} out of range for {ns} shards")
    if len(addrs) != ns:
        raise ValueError(
            f"host file lists {len(addrs)} ranks but the launch has {ns}")
    lst = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lst.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    lst.bind(tuple(addrs[rank]))
    lst.listen(ns)
    st = states[rank]
    ex._dist_frozen = True
    transport = Transport(rank, ns, lst, addrs)
    try:
        error, final_state, nctx = _run_rank(ex, stmt, spec, st, ns,
                                             transport, threading.Event())
    finally:
        ex._dist_frozen = False
        ex.net_stats[rank] = transport.stats()
        transport.close()
    if error is None and nctx.failed.is_set():
        # We were unwound by a peer's failure; surface its error.
        error = nctx.failure or RuntimeError(
            f"rank {rank} cancelled by a peer failure")
    if error is not None:
        raise error
    if final_state is not None:
        _apply_final_state(ex, final_state)
    for other in states:
        if other is not st:
            other.scalars = dict(st.scalars)
            other.capture_points = dict(st.capture_points)

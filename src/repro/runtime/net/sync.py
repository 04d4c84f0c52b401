"""Distributed synchronization endpoints for the ``net`` backend.

:class:`NetCommContext` is the launch context
(:class:`repro.runtime.launch.CommContext`) of one rank: it turns the
launch spec into channel *endpoints* — objects with the
:class:`~repro.runtime.events.Sequence` surface (``advance_to`` /
``event_for``) — so the shard interpreter and the frozen windows run
unchanged.  A channel is one (copy statement, producer rank, consumer
rank); this rank gets one wire-backed endpoint per role it plays in it
(the table is in ``docs/runtime.md``, "A shard launch"), and a channel
between two other ranks gets none.  Its pairs to itself need no channel.

Per (statement, peer) the wire then carries one ``MSG`` frame from
producer to consumer (all the statement's pairs between the two, see
:mod:`repro.runtime.net.plan`) and one ``CREDIT`` frame back, per epoch.
The credit window generalizes the classic per-epoch handshake: because a
remote payload is buffered on arrival and only *applied* at the
consumer's own ready-wait point in replicated program order, the
write-after-read hazard the in-memory handshake guards against cannot
occur — credits exist purely to bound per-channel buffering.  Depth 1 is
exactly the classic handshake; depth 2 (``CREDIT_DEPTH``) lets a producer
run one iteration ahead of its consumers' acks.

An ack release only *queues* its ``CREDIT`` (see
:mod:`repro.runtime.net.transport`) when the same statement sends that
producer a ``MSG`` — in a halo exchange, a moment later — and the
credit rides it; a credit with no such ride leaves at once.  Every event
here flushes the queue before its wait blocks, so a credit is late only
while its rank runs without blocking up to its ride, and no wait cycle
can hold one.

Init/finalize-style synchronization — dynamic collectives (a barrier
being one that carries no value), the final state gather, the shutdown
rendezvous — runs over a binomial tree (:class:`TreeComm`):
contributions flow up ``COLL``/``GATHER`` edges to rank 0 and results
flow back down ``COLLR`` edges, O(log ranks) frames per rank per
operation.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ...obs import flight as _flight
from ...regions.region import reduction_identity
from ..collectives import SCALAR_REDUCTIONS
from ..copy_engine import (field_width, footprint_of, place_pairs,
                           receive_plan, send_gathers)
from ..events import Event, Sequence
from ..launch import Channel, CommContext
from ..launch_plan import CopyPlan
from . import frame
from .plan import PackedSend, ReceivePlan

__all__ = ["NetCommContext", "TreeComm", "CREDIT_DEPTH"]

# Generations a producer may send ahead of its consumer's acks.
CREDIT_DEPTH = 2


# -- channel endpoints ------------------------------------------------------
class _MirrorSequence:
    """The producer's no-op ``ready`` endpoint of a remote channel.

    The ``MSG`` frame itself carries readiness to the consumer, so the
    producer's ready advance has nothing left to do.  One instance per
    channel (never shared) so identity-keyed window summaries treat the
    channels as distinct.
    """

    __slots__ = ()

    def advance_to(self, n: int) -> None:
        pass


class _CreditMirror(Sequence):
    """The producer's ``acked`` endpoint of a remote channel: the
    consumer's credits advance it (receiver thread), started
    ``CREDIT_DEPTH`` generations ahead; a wait on it flushes this rank's
    own queued credits before it blocks."""

    def __init__(self, transport):
        super().__init__(start=CREDIT_DEPTH)
        self.transport = transport

    def event_for(self, n: int, label: str | None = None):
        ev = super().event_for(n, label)
        return ev if ev.is_set() else _NetEvent(ev, self.transport, label)


class _TxSequence:
    """The consumer's ``acked`` endpoint of a remote channel: advancing it
    queues a ``CREDIT`` frame to the producer.

    The credit ``rides`` when this rank's side of the same statement
    sends the producer a ``MSG``, a moment after the ack release; else
    it leaves at once, so a producer that gets nothing back is not held
    to its consumer's next block.  Single-writer: only the consumer's
    shard thread advances its own ack sequences, so the monotonic
    ``_sent`` guard needs no lock.
    """

    __slots__ = ("transport", "peer", "chan_id", "rides", "_sent")

    def __init__(self, transport, peer: int, chan_id: int, rides: bool):
        self.transport = transport
        self.peer = peer
        self.chan_id = chan_id
        self.rides = rides
        self._sent = 0

    @property
    def value(self) -> int:
        return self._sent

    def advance_to(self, n: int) -> None:
        if n > self._sent:
            self._sent = n
            self.transport.queue_credit(self.peer, self.chan_id, n)
            if not self.rides:
                self.transport.flush_credits(self.peer)


class _RxChannel:
    """Consumer-side state of one inbound channel: one copy statement's
    messages from one producer rank.

    The receiver thread *delivers* (buffers the payload, then advances
    ``arrived``); the shard thread *applies* at its own ready-wait point,
    strictly in generation order, through the channel's
    :class:`ReceivePlan`, built from the shard's plan before its first
    statement (``NetCommContext.bind_plan``).  The split is the net
    backend's correctness core: all writes into consumer instances happen
    in the single shard thread at the consumer's replicated program
    point, so remote reductions need no locks and remote pairs no WAR
    handshake.
    """

    __slots__ = ("nctx", "arrived", "applied", "pending", "_lock", "plan")

    def __init__(self, nctx):
        self.nctx = nctx
        self.arrived = Sequence()
        self.applied = 0          # shard-thread-only watermark
        self.pending: dict[int, list] = {}
        self._lock = threading.Lock()
        self.plan: ReceivePlan | None = None

    def deliver(self, gen: int, body) -> None:
        # Receiver thread.  Store under the lock *before* advancing so a
        # shard thread woken by the arrival always finds the payload.
        with self._lock:
            self.pending[gen] = body
        self.arrived.advance_to(gen)

    def apply_up_to(self, g: int) -> None:
        # Shard thread only, so a body that does not fit the plan fails
        # this rank, not a receiver thread.
        while self.applied < g:
            gen = self.applied + 1
            with self._lock:
                body = self.pending.pop(gen)
            self.plan.apply(body)
            self.applied = gen


class _RxEvent:
    """The consumer's ready event of one channel generation: set when the
    payload has arrived; checking it applies everything up to ``g``."""

    __slots__ = ("chan", "g", "label", "_inner")

    def __init__(self, chan: _RxChannel, g: int, label):
        self.chan = chan
        self.g = g
        self.label = label
        self._inner = chan.arrived.event_for(g, label=label)

    def is_set(self) -> bool:
        if not self._inner.is_set():
            return False
        self.chan.apply_up_to(self.g)
        return True

    def wait_blocking(self, timeout: float | None = None) -> bool:
        self.chan.nctx.transport.flush_credits()
        if not self._inner.wait_blocking(timeout):
            return False
        self.chan.apply_up_to(self.g)
        return True


class _RxReady:
    """The consumer's ``ready`` endpoint of a remote channel."""

    __slots__ = ("chan",)

    def __init__(self, chan: _RxChannel):
        self.chan = chan

    @property
    def value(self) -> int:
        return self.chan.arrived.value

    def advance_to(self, n: int) -> None:  # pragma: no cover -- not driven
        raise RuntimeError("consumer cannot advance a remote ready endpoint")

    def event_for(self, n: int, label: str | None = None) -> _RxEvent:
        return _RxEvent(self.chan, n, label)


# -- tree collectives -------------------------------------------------------
def tree_parent(rank: int) -> int:
    """Binomial-tree parent: clear the lowest set bit."""
    return rank & (rank - 1)


def tree_children(rank: int, ns: int) -> list[int]:
    """Binomial-tree children: ``rank + 2**k`` below the lowest set bit."""
    out = []
    limit = (rank & -rank) if rank else ns
    k = 1
    while k < limit:
        child = rank + k
        if child >= ns:
            break
        out.append(child)
        k <<= 1
    return out


class _CollState:
    __slots__ = ("expect", "parts", "event", "result")

    def __init__(self, expect: int):
        self.expect = expect
        self.parts: dict[int, object] = {}
        self.event = Event()
        self.result = None


class _NetEvent:
    """A wait of this rank's shard thread on an
    :class:`~repro.runtime.events.Event`: flushes the rank's queued
    credits before it blocks."""

    __slots__ = ("_ev", "_transport", "label")

    def __init__(self, ev: Event, transport, label: str | None = None):
        self._ev = ev
        self._transport = transport
        self.label = label

    def is_set(self) -> bool:
        return self._ev.is_set()

    def wait_blocking(self, timeout: float | None = None) -> bool:
        self._transport.flush_credits()
        return self._ev.wait_blocking(timeout)


class TreeComm:
    """Collectives and the final gather over a binomial tree.

    Keys are strings (``c:<spec key>``) and generations follow the shard
    epoch counters.  A node completes ``(key, gen)`` once its own
    contribution and one per child are in, folds them in ascending
    source-rank order, and either sends the partial to its parent
    (``COLL``) or — at the root — resolves the result and broadcasts it
    back down (``COLLR``).  Completion can happen on a receiver thread or
    the shard thread, whichever arrives last; sends from receiver threads
    are safe under the transport's per-peer send locks.
    """

    def __init__(self, transport, ns: int):
        self.transport = transport
        self.rank = transport.rank
        self.ns = ns
        self.parent = tree_parent(self.rank)
        self.children = tree_children(self.rank, ns)
        # key -> scalar redop name, or None for a barrier.  Registered
        # at endpoint construction (before receivers start) so receiver
        # threads can fold without the contributing context.
        self.redops: dict[str, str | None] = {}
        self._lock = threading.Lock()
        self._states: dict[tuple[str, int], _CollState] = {}
        # key -> the newest generation this rank has read.  A rank reads
        # a key's generations in order, so every one up to it is retired
        # and a contribution to one raises.
        self._read: dict[str, int] = {}
        self._gather: dict[int, object] = {}
        self._gather_evs = {c: Event() for c in self.children}

    def _state(self, key: str, gen: int) -> _CollState:
        st = self._states.get((key, gen))
        if st is None:
            # Get-or-create on both paths: a fast child's COLL frame may
            # beat the local shard thread's own contribution.
            st = self._states[(key, gen)] = _CollState(1 + len(self.children))
        return st

    def contribute(self, key: str, gen: int, value) -> _NetEvent:
        if gen <= self._read.get(key, 0):
            raise RuntimeError(f"contribution to retired generation {gen}")
        return _NetEvent(self._arrive(key, gen, self.rank, value),
                         self.transport)

    def _arrive(self, key: str, gen: int, src: int, value) -> Event:
        with self._lock:
            st = self._state(key, gen)
            st.parts[src] = value
            done = len(st.parts) == st.expect
        if done:
            self._complete(key, gen, st)
        return st.event

    def _complete(self, key: str, gen: int, st: _CollState) -> None:
        redop = self.redops[key]
        folded = None
        if redop is not None:
            fold = SCALAR_REDUCTIONS[redop]
            vals = [st.parts[s] for s in sorted(st.parts)
                    if st.parts[s] is not None]
            if vals:
                folded = vals[0]
                for v in vals[1:]:
                    folded = fold(folded, v)
        if self.rank == 0:
            result = None
            if redop is not None:
                result = (folded if folded is not None
                          else float(reduction_identity(redop, np.float64)))
            self._resolve(key, gen, result)
        else:
            self.transport.send(self.parent, frame.COLL,
                                (key, gen, self.rank, folded))

    def _resolve(self, key: str, gen: int, result) -> None:
        with self._lock:
            st = self._state(key, gen)
            st.result = result
        # Relay downward BEFORE releasing the local waiter: the waiter
        # may be the shutdown rendezvous, and the rank would close its
        # sockets while the subtree's release is still unsent.
        for child in self.children:
            self.transport.send(child, frame.COLLR, (key, gen, result))
        st.event.trigger()

    def result(self, key: str, gen: int):
        # Each rank reads a collective result exactly once (the shard
        # interpreter's contract), so the read retires the generation.
        with self._lock:
            st = self._states.pop((key, gen))
            self._read[key] = gen
        return st.result

    # -- final gather ------------------------------------------------------
    def gather(self, data: dict):
        """Merge ``data`` with every child subtree's gather payload.

        A generator in the shard interpreter's protocol: it yields the
        event of each child it still waits for, so the rank's own drive
        loop blocks on it (cancel-aware — a dead sibling cannot hang the
        gather).  Non-root ranks forward the merged dict to their parent
        and return ``None``; the root returns it.
        """
        merged = dict(data)
        for child in self.children:
            yield _NetEvent(self._gather_evs[child], self.transport,
                            label="net:gather")
            merged.update(self._gather[child])
        if self.rank:
            self.transport.send(self.parent, frame.GATHER,
                                (self.rank, merged))
            return None
        return merged

    # -- frame handlers (receiver threads) ---------------------------------
    def on_coll(self, peer: int, payload) -> None:
        key, gen, src, value = payload
        self._arrive(key, gen, src, value)

    def on_collr(self, peer: int, payload) -> None:
        key, gen, result = payload
        self._resolve(key, gen, result)

    def on_gather(self, peer: int, payload) -> None:
        src, data = payload
        self._gather[src] = data
        self._gather_evs[src].trigger()


class _NetCollective:
    """Duck-types :class:`~repro.runtime.collectives.DynamicCollective`
    over the tree.  Values travel as they are — a float as F64, an int
    exactly (as I64, or as its digits past int64) — so an integer
    reduction returns the int the sequential executor folds; with no
    redop it is a barrier, one up-and-down sweep per generation."""

    __slots__ = ("tree", "key", "label")

    def __init__(self, tree: TreeComm, key, redop: str | None):
        self.tree = tree
        self.key = f"c:{key}"
        tree.redops[self.key] = redop

    def contribute(self, generation: int, value) -> _NetEvent:
        ev = self.tree.contribute(self.key, generation, value)
        ev.label = self.label
        return ev

    def result(self, generation: int):
        return self.tree.result(self.key, generation)


class _CopyPostEvent:
    """``post`` event of a barrier-synchronized copy statement: set once
    the rendezvous completed *and* every inbound payload arrived, at
    which point checking it applies them in the shard thread.

    The tree sweep and the data frames travel different socket paths
    (tree edges vs. the direct producer link), so the sweep's completion
    alone does not imply arrival.
    """

    __slots__ = ("inner", "rx", "g", "transport")

    def __init__(self, inner, rx, g: int, transport):
        self.inner = inner
        self.rx = rx
        self.g = g
        self.transport = transport

    @property
    def label(self):
        return self.inner.label

    def is_set(self) -> bool:
        if not self.inner.is_set():
            return False
        g = self.g
        for chan in self.rx:
            if chan.arrived.value < g:
                return False
        for chan in self.rx:
            chan.apply_up_to(g)
        return True

    def wait_blocking(self, timeout: float | None = None) -> bool:
        # The sweep, then each arrival still outstanding, all inside the
        # caller's timeout; every one of them has an event to block on.
        self.transport.flush_credits()
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        waits = [self.inner] + [chan.arrived.event_for(self.g)
                                for chan in self.rx]
        for ev in waits:
            left = (None if deadline is None
                    else max(0.0, deadline - time.monotonic()))
            if not ev.wait_blocking(left):
                return False
        return self.is_set()


class _CopyPostCollective(_NetCollective):
    """The ``post:<uid>`` rendezvous of a barrier-mode copy, its event
    composed with the statement's inbound channel arrivals.  Barrier-mode
    statements exchange no credits: the lockstep pre/post sweeps already
    bound every producer to at most one outstanding generation."""

    __slots__ = ("rx",)

    def __init__(self, tree: TreeComm, key, rx):
        super().__init__(tree, key, None)
        self.rx = rx

    def contribute(self, generation: int, value) -> _CopyPostEvent:
        return _CopyPostEvent(super().contribute(generation, value), self.rx,
                              generation, self.tree.transport)


# -- the per-launch communication context -----------------------------------
class NetCommContext(CommContext):
    """Everything one rank needs to run a shard launch over the wire.

    Builds the channel endpoints (channel ids are the spec's — statement
    walk order crossed with channel-key order — so forked ranks and
    independently started workers agree without any exchanged spec) and
    the tree endpoints for collectives, and registers all frame handlers;
    the sends and receive plans follow from the rank's shard plan
    (:meth:`bind_plan`).  Construct *before* ``transport.start_receivers()``.
    """

    messages = True

    def __init__(self, transport, spec, ns: int):
        self.transport = transport
        self.rank = transport.rank
        self.tree = TreeComm(transport, ns)
        self.failed = threading.Event()
        self.failure: BaseException | None = None
        # Channel id -> this producer's credit mirror of it.
        self._credit: dict[int, _CreditMirror] = {}
        # (copy uid, producer rank) -> its inbound channel on this rank.
        self._rx: dict[tuple[int, int], _RxChannel] = {}
        self._inbound: dict[int, list[_RxChannel]] = {}
        # copy uid -> this rank's sends of it, one per peer rank.
        self._outbox: dict[int, tuple[PackedSend, ...]] = {}
        self.done = _NetCollective(self.tree, "__done__", None)
        self.done.label = "net:done"
        self._keys = spec.channels
        super().__init__(spec, ns)

        transport.register(frame.MSG, self._on_msg)
        transport.register(frame.CREDIT, self._on_credit)
        transport.register(frame.COLL, self.tree.on_coll)
        transport.register(frame.COLLR, self.tree.on_collr)
        transport.register(frame.GATHER, self.tree.on_gather)
        transport.register(frame.ERROR, self._on_error)

    # -- factories --------------------------------------------------------
    def _channel(self, stmt, key, cid: int):
        producer, consumer = key
        if producer == self.rank:
            # ``ready`` is a no-op (the MSG frame itself carries
            # readiness); ``acked`` mirrors the consumer's credits, started
            # CREDIT_DEPTH generations ahead.
            mirror = self._credit[cid] = _CreditMirror(self.transport)
            return Channel(_MirrorSequence(), mirror)
        if consumer == self.rank:
            rx = self._rx[(stmt.uid, producer)] = _RxChannel(self)
            self._inbound.setdefault(stmt.uid, []).append(rx)
            rides = (self.rank, producer) in self._keys[stmt.uid]
            return Channel(_RxReady(rx), _TxSequence(
                self.transport, producer, cid, rides))
        # A channel between two other ranks: the interpreter only touches
        # channels it produces into or consumes from.
        return None

    def _collective(self, key, redop: str | None, copy):
        if copy is not None and key == f"post:{copy.uid}":
            return _CopyPostCollective(self.tree, key,
                                       self._inbound.get(copy.uid, []))
        return _NetCollective(self.tree, key, redop)

    # -- operations (shard thread) ----------------------------------------
    def bind_plan(self, plan) -> None:
        """Build this rank's messages from its shard plan, before its first
        statement: per copy statement one :class:`PackedSend` per peer it
        sends to, gathering against this rank's source block, and one
        :class:`ReceivePlan` per inbound channel, scattering into its
        destination block.  Both sides select and place the same pairs in
        the same order (:func:`~repro.runtime.copy_engine.place_pairs`),
        so a frame carries only the generation and one buffer per field."""
        for cp in plan.steps.values():
            if not isinstance(cp, CopyPlan):
                continue
            uid, fields = cp.stmt.uid, cp.stmt.fields
            sends = []
            for peer, pairs, visits in cp.sends:
                src, _, lengths, nrows = place_pairs(cp.table, pairs,
                                                     src=cp.src)
                count = int(lengths.sum())
                width = (field_width(src.blocks[0], fields) if src.blocks
                         else 0)
                sends.append(PackedSend(
                    self.transport, peer, uid,
                    send_gathers(fields, src, lengths, nrows), visits, count,
                    count * width, footprint_of(src, fields)))
            self._outbox[uid] = tuple(sends)
            for producer, pairs in cp.receives:
                _, dst, lengths, nrows = place_pairs(cp.table, pairs,
                                                     dst=cp.dst)
                self._rx[(uid, producer)].plan = ReceivePlan(
                    receive_plan(uid, fields, cp.stmt.redop, dst, lengths,
                                 nrows), uid, producer)

    def send(self, stmt, state, rec) -> None:
        """``stmt``'s pair copies from this rank, one ``MSG`` frame per
        peer rank."""
        for ps in self._outbox[stmt.uid]:
            if rec is not None:
                rec.send(ps)
            t0 = time.perf_counter()
            ps.apply()
            # An empty member still counts as a performed copy here
            # (unlike the in-memory path's early return), exactly as the
            # window counts the recorded send.
            state.pair_visits += ps.pair_count
            state.copies_performed += ps.pair_count
            state.elements_copied += ps.count
            state.bytes_copied += ps.nbytes
            state.flight.record(_flight.COPY, stmt.uid, t0,
                                time.perf_counter(), ps.nbytes)

    # -- frame handlers (receiver threads) ---------------------------------
    def _on_msg(self, peer: int, body) -> None:
        uid, gen = frame.msg_head(body)
        self._rx[(uid, peer)].deliver(gen, body)

    def _on_credit(self, peer: int, body) -> None:
        cid, gen = frame.credit_body(body)
        self._credit[cid].advance_to(gen - 1 + CREDIT_DEPTH)

    def _on_error(self, peer: int, exc) -> None:
        if not isinstance(exc, BaseException):
            exc = RuntimeError(f"rank {peer} failed: {exc!r}")
        self.failure = exc
        self.failed.set()

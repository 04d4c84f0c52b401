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

Init/finalize-style synchronization — dynamic collectives, named
barriers, the final state gather, the shutdown barrier — runs over a
binomial tree (:class:`TreeComm`): contributions flow up ``COLL``/
``GATHER`` edges to rank 0 and results flow back down ``COLLR`` edges,
O(log ranks) frames per rank per operation.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ...core.shards import owner_of_color
from ...obs import flight as _flight
from ...regions.region import _REDUCTION_UFUNCS, reduction_identity
from ..collectives import SCALAR_REDUCTIONS
from ..copy_engine import _as_index, localize
from ..events import Sequence
from ..launch import Channel, CommContext
from . import frame
from .plan import PackedSend

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


class _TxSequence:
    """The consumer's ``acked`` endpoint of a remote channel: advancing it
    sends a ``CREDIT`` frame to the producer.

    Single-writer: only the consumer's shard thread advances its own ack
    sequences, so the monotonic ``_sent`` guard needs no lock.
    """

    __slots__ = ("transport", "peer", "chan_id", "_sent")

    def __init__(self, transport, peer: int, chan_id: int):
        self.transport = transport
        self.peer = peer
        self.chan_id = chan_id
        self._sent = 0

    @property
    def value(self) -> int:
        return self._sent

    def advance_to(self, n: int) -> None:
        if n > self._sent:
            self._sent = n
            self.transport.send(self.peer, frame.CREDIT, (self.chan_id, n))


class _RxChannel:
    """Consumer-side state of one inbound channel: one copy statement's
    messages from one producer rank.

    The receiver thread *delivers* (buffers the payload, then advances
    ``arrived``); the shard thread *applies* at its own ready-wait point,
    strictly in generation order.  The split is the net backend's
    correctness core: all writes into consumer instances happen in the
    single shard thread at the consumer's replicated program point, so
    remote reductions need no locks and remote pairs no WAR handshake.
    """

    __slots__ = ("nctx", "stmt", "producer", "arrived", "applied",
                 "pending", "_lock", "_plan")

    def __init__(self, nctx, stmt, producer: int):
        self.nctx = nctx
        self.stmt = stmt
        self.producer = producer
        self.arrived = Sequence()
        self.applied = 0          # shard-thread-only watermark
        self.pending: dict[int, list] = {}
        self._lock = threading.Lock()
        self._plan = None

    def deliver(self, gen: int, vals) -> None:
        # Receiver thread.  Store under the lock *before* advancing so a
        # shard thread woken by the arrival always finds the payload.
        with self._lock:
            self.pending[gen] = vals
        self.arrived.advance_to(gen)

    def apply_up_to(self, g: int) -> None:
        # Shard thread only.  The unpack plan is built on first use:
        # destination localization resolved once, like the sender's
        # gathers.
        if self._plan is None:
            self._plan = self.nctx.rx_plan(self.stmt, self.producer)
        ufunc, plan = self._plan
        while self.applied < g:
            gen = self.applied + 1
            with self._lock:
                vals = self.pending.pop(gen)
            for arrs, dst_ix, sl in plan:
                for arr, v in zip(arrs, vals):
                    if ufunc is None:
                        arr[dst_ix] = v[sl]
                    else:
                        ufunc.at(arr, dst_ix, v[sl])
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
        self.event = threading.Event()
        self.result = None


class _NetEvent:
    """Adapter: a ``threading.Event`` with the runtime's event surface."""

    __slots__ = ("_ev", "label")

    def __init__(self, ev: threading.Event, label: str | None = None):
        self._ev = ev
        self.label = label

    def is_set(self) -> bool:
        return self._ev.is_set()

    def wait_blocking(self, timeout: float | None = None) -> bool:
        return self._ev.wait(timeout)


class TreeComm:
    """Collectives, barriers, and the final gather over a binomial tree.

    Keys are strings (``c:<uid>`` for collectives, ``b:<tag>`` for
    barriers) and generations follow the shard epoch counters.  A node
    completes ``(key, gen)`` once its own contribution and one per child
    are in, folds them in ascending source-rank order, and either sends
    the partial to its parent (``COLL``) or — at the root — resolves the
    result and broadcasts it back down (``COLLR``).  Completion can
    happen on a receiver thread or the shard thread, whichever arrives
    last; sends from receiver threads are safe under the transport's
    per-peer send locks.
    """

    def __init__(self, transport, ns: int):
        self.transport = transport
        self.rank = transport.rank
        self.ns = ns
        self.parent = tree_parent(self.rank)
        self.children = tree_children(self.rank, ns)
        # key -> scalar redop name, or None for pure barriers.  Registered
        # at endpoint construction (before receivers start) so receiver
        # threads can fold without the contributing context.
        self.redops: dict[str, str | None] = {}
        self._lock = threading.Lock()
        self._states: dict[tuple[str, int], _CollState] = {}
        self._gather: dict[int, object] = {}
        self._gather_evs = {c: threading.Event() for c in self.children}

    def _state(self, key: str, gen: int) -> _CollState:
        st = self._states.get((key, gen))
        if st is None:
            # Get-or-create on both paths: a fast child's COLL frame may
            # beat the local shard thread's own contribution.
            st = self._states[(key, gen)] = _CollState(1 + len(self.children))
        return st

    def contribute(self, key: str, gen: int, value) -> threading.Event:
        return self._arrive(key, gen, self.rank, value)

    def _arrive(self, key: str, gen: int, src: int,
                value) -> threading.Event:
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
        # may be the shutdown barrier, and the rank would close its
        # sockets while the subtree's release is still unsent.
        for child in self.children:
            self.transport.send(child, frame.COLLR, (key, gen, result))
        st.event.set()

    def result(self, key: str, gen: int):
        # Each rank reads a collective result exactly once (the shard
        # interpreter's contract), so the read retires the generation.
        with self._lock:
            st = self._states.pop((key, gen))
        return st.result

    def retire(self, key: str, gen: int) -> None:
        with self._lock:
            self._states.pop((key, gen), None)

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
            yield _NetEvent(self._gather_evs[child], label="net:gather")
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
        self._gather_evs[src].set()


class _NetCollective:
    """Duck-types :class:`~repro.runtime.collectives.DynamicCollective`
    over the tree.  Values are cast to float on contribution so every
    rank re-reads the identical wire value — the replication-divergence
    validator compares these scalars across shards."""

    __slots__ = ("tree", "key", "label")

    def __init__(self, tree: TreeComm, uid: int, redop: str):
        self.tree = tree
        self.key = f"c:{uid}"
        tree.redops[self.key] = redop

    def contribute(self, generation: int, value) -> _NetEvent:
        v = None if value is None else float(value)
        return _NetEvent(self.tree.contribute(self.key, generation, v),
                         label=self.label)

    def result(self, generation: int):
        return self.tree.result(self.key, generation)


class _NetBarrier:
    """Duck-types :class:`~repro.runtime.events.GlobalBarrier` over the
    tree: one up-and-down sweep per generation."""

    __slots__ = ("tree", "key")

    def __init__(self, tree: TreeComm, tag: str):
        self.tree = tree
        self.key = f"b:{tag}"
        tree.redops[self.key] = None

    def arrive_and_wait_event(self, generation: int,
                              label: str | None = None) -> _NetEvent:
        # My arrival at generation g proves g-1 fully resolved everywhere
        # in my subtree and at my parent, so no frame for g-1 can still
        # arrive: retire its state here to keep the dict O(live gens).
        self.tree.retire(self.key, generation - 1)
        return _NetEvent(self.tree.contribute(self.key, generation, None),
                         label=label)


class _CopyPostEvent:
    """Post-barrier event of a barrier-synchronized copy statement: set
    once the barrier completed *and* every inbound payload arrived, at
    which point checking it applies them in the shard thread.

    The barrier sweep and the data frames travel different socket paths
    (tree edges vs. the direct producer link), so barrier completion
    alone does not imply arrival.
    """

    __slots__ = ("inner", "rx", "g")

    def __init__(self, inner, rx, g: int):
        self.inner = inner
        self.rx = rx
        self.g = g

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
        # The barrier, then each arrival still outstanding, all inside the
        # caller's timeout; every one of them has an event to block on.
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


class _CopyPostBarrier:
    """The ``post:<uid>`` barrier of a barrier-mode copy, composed with
    the statement's inbound channel arrivals.  Barrier-mode statements
    exchange no credits: the lockstep pre/post sweeps already bound every
    producer to at most one outstanding generation."""

    __slots__ = ("barrier", "rx")

    def __init__(self, barrier: _NetBarrier, rx):
        self.barrier = barrier
        self.rx = rx

    def arrive_and_wait_event(self, generation: int,
                              label: str | None = None) -> _CopyPostEvent:
        inner = self.barrier.arrive_and_wait_event(generation, label=label)
        return _CopyPostEvent(inner, self.rx, generation)


# -- the per-launch communication context -----------------------------------
class NetCommContext(CommContext):
    """Everything one rank needs to run a shard launch over the wire.

    Builds the channel endpoints (channel ids are the spec's — statement
    walk order crossed with channel-key order — so forked ranks and
    independently started workers agree without any exchanged spec), the
    tree endpoints for collectives and barriers, and the send and
    receive plans; registers all frame handlers.  Construct *before*
    ``transport.start_receivers()``.
    """

    def __init__(self, ex, transport, spec, ns: int):
        self.ex = ex
        self.transport = transport
        self.rank = transport.rank
        self.tree = TreeComm(transport, ns)
        self.failed = threading.Event()
        self.failure: BaseException | None = None
        # Channel id -> this producer's credit mirror of it.
        self._credit: dict[int, Sequence] = {}
        # (copy uid, producer rank) -> its inbound channel on this rank.
        self._rx: dict[tuple[int, int], _RxChannel] = {}
        self._inbound: dict[int, list[_RxChannel]] = {}
        # (copy uid, consumer rank) -> the lowered send.
        self._sends: dict[tuple[int, int], PackedSend] = {}
        self.done_barrier = _NetBarrier(self.tree, "__done__")
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
            mirror = self._credit[cid] = Sequence(start=CREDIT_DEPTH)
            return Channel(_MirrorSequence(), mirror)
        if consumer == self.rank:
            rx = self._rx[(stmt.uid, producer)] = _RxChannel(
                self, stmt, producer)
            self._inbound.setdefault(stmt.uid, []).append(rx)
            return Channel(_RxReady(rx),
                           _TxSequence(self.transport, producer, cid))
        # A channel between two other ranks: the interpreter only touches
        # channels it produces into or consumes from.
        return None

    def _collective(self, uid: int, redop: str):
        return _NetCollective(self.tree, uid, redop)

    def _barrier(self, tag: str, copy):
        barrier = _NetBarrier(self.tree, tag)
        if copy is None:
            return barrier
        return _CopyPostBarrier(barrier, self._inbound.get(copy.uid, []))

    # -- operations (shard thread) ----------------------------------------
    def is_local(self, stmt, j: int) -> bool:
        """Whether destination color ``j`` of ``stmt`` lives on this rank."""
        return (owner_of_color(stmt.dst.num_colors, self.num_shards, j)
                == self.rank)

    def send_pairs(self, stmt, peer: int, pairs, state, rec) -> None:
        """All of ``stmt``'s pair copies from this rank to ``peer``, as one
        ``MSG`` frame."""
        ps = self._sends.get((stmt.uid, peer))
        if ps is None:
            ps = self._sends[(stmt.uid, peer)] = self._build_send(
                stmt, peer, pairs)
        if rec is not None:
            rec.send(ps)
        t0 = time.perf_counter()
        ps.apply()
        # An empty member still counts as a performed copy here (unlike
        # the in-memory path's early return), exactly as the window
        # counts the recorded send.
        state.pair_visits += ps.pair_count
        state.copies_performed += ps.pair_count
        state.elements_copied += ps.count
        state.bytes_copied += ps.nbytes
        state.flight.record(_flight.COPY, stmt.uid, t0, time.perf_counter(),
                            ps.nbytes)

    def _build_send(self, stmt, peer: int, pairs) -> PackedSend:
        """The gathers of ``stmt``'s non-empty ``pairs`` to ``peer``, in
        pair order, localized in one call."""
        insts, sets = self._live(stmt, stmt.src, pairs, 0)
        gathers = [(tuple(inst.fields[f] for f in stmt.fields), _as_index(ix))
                   for inst, ix in zip(insts, localize(insts, sets))]
        count = sum(int(pts.count) for pts in sets)
        return PackedSend(self.transport, peer, stmt.uid, gathers, len(pairs),
                          count, count * self.ex._field_width(stmt))

    def _live(self, stmt, part, pairs, side: int):
        """``(instances, point sets)`` of the non-empty ``pairs``, in pair
        order: each one's instance of ``part`` at the pair's source
        (``side`` 0) or destination (1) colour."""
        ex, insts, sets = self.ex, [], []
        for pair in pairs:
            pts = ex._pair_points(stmt, *pair)
            if pts:
                insts.append(ex.dist_instance(part, pair[side]))
                sets.append(pts)
        return insts, sets

    # -- frame handlers (receiver threads) ---------------------------------
    def _on_msg(self, peer: int, payload) -> None:
        uid, gen, vals = payload
        self._rx[(uid, peer)].deliver(gen, vals)

    def _on_credit(self, peer: int, payload) -> None:
        cid, gen = payload
        self._credit[cid].advance_to(gen - 1 + CREDIT_DEPTH)

    def _on_error(self, peer: int, exc) -> None:
        if not isinstance(exc, BaseException):
            exc = RuntimeError(f"rank {peer} failed: {exc!r}")
        self.failure = exc
        self.failed.set()

    # -- receive-side plans (shard thread) ---------------------------------
    def rx_plan(self, stmt, producer: int):
        """``(ufunc, [(dst field arrays, dst index, value slice), ...])``
        for ``stmt``'s messages from ``producer``: its non-empty pairs into
        this rank, in pair order — the order the producer's
        :class:`PackedSend` gathers them in, since both filter the same
        pair list and localize through the same
        :func:`~repro.runtime.copy_engine.localize`."""
        ns = self.num_shards
        src_n, dst_n = stmt.src.num_colors, stmt.dst.num_colors
        pairs = [(i, j) for i, j in self.ex._copy_pairs(stmt)
                 if owner_of_color(dst_n, ns, j) == self.rank
                 and owner_of_color(src_n, ns, i) == producer]
        insts, sets = self._live(stmt, stmt.dst, pairs, 1)
        plan, off = [], 0
        for inst, pts, ix in zip(insts, sets, localize(insts, sets)):
            cnt = int(pts.count)
            plan.append((tuple(inst.fields[f] for f in stmt.fields),
                         _as_index(ix), slice(off, off + cnt)))
            off += cnt
        ufunc = None if stmt.redop is None else _REDUCTION_UFUNCS[stmt.redop]
        return ufunc, plan

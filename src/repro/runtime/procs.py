"""Process-based SPMD driver: one forked OS process per shard.

The threaded driver only overlaps where numpy drops the GIL; this driver
gives each shard a real OS process, so replicated control flow and
pure-Python task bodies genuinely run in parallel — the regime the
paper's weak-scaling argument (§1, Fig. 1) is about.

The launch itself — fork, drive, funnel, failure containment — is
:func:`repro.runtime.launch.fork_and_funnel`, shared with ``net``.
What is specific to this backend:

* **shared-memory instances.**  Every ``PhysicalInstance`` named by a
  partition is allocated from a :class:`~repro.regions.shm.SharedMemoryArena`
  *before* the fork (the registry row says so), so all shards map the
  same buffers and a pairwise copy is a numpy fancy-indexed assignment
  between shared buffers: a true zero-serialization memcpy between
  processes.  Reduction-fold locks are ``multiprocessing`` locks for the
  same reason.

* **one sync board.**  :class:`BoardContext` lays the launch spec's
  objects out in flat ``ctypes`` arrays in anonymous shared memory —
  the ready/ack sequences of the §3.4 handshake, one slot pair per
  (copy statement, producer shard, consumer shard) channel in spec order,
  and dynamic-collective slots (§4.4), a barrier being a collective
  with no value.  A handshake slot has one writer and one waiting shard,
  so an advance is a plain store and one ring of the waiter's doorbell
  (one semaphore per shard); collective counters take one lock and ring
  every bell when a generation completes.  Waiters drain their bell and
  re-check monotone predicates.  Collective values travel as exact
  integers while every contribution is an integer, as float64 otherwise
  (double-buffered by generation parity, which is safe because
  generation ``g+2`` contributions cannot begin until every shard has
  read generation ``g``).
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from ..regions.region import reduction_identity
from .collectives import SCALAR_REDUCTIONS
from .launch import (Channel, CommContext, ProcsUnavailableError,
                     drive_shard, ensure_procs_available, fork_and_funnel,
                     fork_context, procs_available)

__all__ = ["procs_available", "ensure_procs_available", "ProcsUnavailableError",
           "BoardContext"]

# _ScalarSlots kinds.
_EMPTY, _FLOAT, _INT = 0, 1, 2
# Width of an int slot, two's complement: every int a float64 can hold
# below 2**1023 fits, so an integer reduction stays exact wherever a
# float one would not overflow.
_INT_BYTES = 128


# ---------------------------------------------------------------------------
# Cross-process synchronization primitives
# ---------------------------------------------------------------------------

class _BoardEvent:
    """Event facade over a monotone predicate on shared sync state, woken
    by the waiting shard's doorbell.

    Duck-types :class:`repro.runtime.events.Event` as far as the drivers
    need: ``is_set`` / ``wait_blocking`` / ``label``.  Every writer stores
    first and rings after, so a ring drained before the re-check is never
    a lost wake-up: either the check sees the store or the bell still
    holds its ring.
    """

    __slots__ = ("_bell", "_check", "label")

    def __init__(self, bell, check: Callable[[], bool],
                 label: str | None = None):
        self._bell = bell
        self._check = check
        self.label = label

    def is_set(self) -> bool:
        # Lock-free read: every predicate is monotone (a false positive is
        # impossible; a stale False only costs one wait round-trip).
        return bool(self._check())

    def wait_blocking(self, timeout: float | None = None) -> bool:
        bell, check = self._bell, self._check
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            while bell.acquire(False):  # rings this wait has subsumed
                pass
            if check():
                return True
            left = (None if deadline is None
                    else max(0.0, deadline - time.monotonic()))
            if not bell.acquire(True, left):
                return bool(check())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_BoardEvent({self.label or 'event'}, {'set' if self.is_set() else 'unset'})"


class _BoardSequence:
    """Cross-process :class:`~repro.runtime.events.Sequence`: a monotone
    counter at a fixed slot of a shared array.  One shard writes it and
    one shard waits on it; ``bell`` is the waiting shard's doorbell."""

    __slots__ = ("_bell", "_arr", "_idx")

    def __init__(self, bell, arr, idx: int):
        self._bell = bell
        self._arr = arr
        self._idx = idx

    @property
    def value(self) -> int:
        return self._arr[self._idx]

    def advance_to(self, n: int) -> None:
        # The one writer: a plain store, then one ring.
        if n > self._arr[self._idx]:
            self._arr[self._idx] = n
            self._bell.release()

    def event_for(self, n: int, label: str | None = None) -> _BoardEvent:
        arr, idx = self._arr, self._idx
        return _BoardEvent(self._bell, lambda: arr[idx] >= n, label)


class _Bells:
    """One doorbell (a ``multiprocessing`` semaphore) per shard, made
    before the fork, and the calling shard's own: a forked child sets
    ``mine`` to its shard's bell before it runs."""

    __slots__ = ("all", "mine")

    def __init__(self, mpctx, num_shards: int):
        self.all = tuple(mpctx.Semaphore(0) for _ in range(num_shards))
        self.mine = None

    def ring_all(self) -> None:
        for bell in self.all:
            bell.release()


class _ScalarSlots:
    """Shared scalar slots that keep an integer an integer: slot ``s``
    holds an int as ``_INT_BYTES`` two's-complement bytes, anything else
    (or an int too wide for them) as a float64, and ``kinds[s]`` says
    which (0: empty)."""

    __slots__ = ("_floats", "_ints", "kinds")

    def __init__(self, mpctx, n: int):
        self._floats = mpctx.RawArray("d", n)
        self._ints = mpctx.RawArray("c", n * _INT_BYTES)
        self.kinds = mpctx.RawArray("b", n)

    def store(self, s: int, value) -> None:
        if value is None:
            self.kinds[s] = _EMPTY
            return
        if isinstance(value, (int, np.integer)):
            lo = s * _INT_BYTES
            try:
                raw = int(value).to_bytes(_INT_BYTES, "little", signed=True)
            except OverflowError:
                pass
            else:
                self._ints[lo:lo + _INT_BYTES] = raw
                self.kinds[s] = _INT
                return
        self._floats[s] = float(value)
        self.kinds[s] = _FLOAT

    def load(self, s: int):
        kind = self.kinds[s]
        if kind == _INT:
            lo = s * _INT_BYTES
            return int.from_bytes(self._ints[lo:lo + _INT_BYTES], "little",
                                  signed=True)
        return self._floats[s] if kind == _FLOAT else None


class _BoardCollective:
    """Cross-process :class:`~repro.runtime.collectives.DynamicCollective`.

    Values are reduced in shared :class:`_ScalarSlots` double-buffered by
    generation parity, so an integer reduction returns the int the
    sequential executor folds.  Slot reuse is safe: a contribution to
    generation ``g+2`` can only happen after ``g+1`` completed, which
    requires every shard to have read ``result(g)`` first.  Completed
    slots are reset at trigger time, so the state is O(1) per collective
    regardless of how many generations a control loop runs — the
    cross-process counterpart of the in-process generation retirement.
    A completed generation stays retired: a contribution to it (or to any
    generation before it) raises instead of folding into the parity slot
    a later generation reuses.
    """

    __slots__ = ("_lock", "_bells", "_partial", "_arrived", "_result",
                 "_done", "_base", "_k", "_participants", "redop", "_fold",
                 "label")

    def __init__(self, lock, bells: _Bells, partial: _ScalarSlots, arrived,
                 result: _ScalarSlots, done, k: int, participants: int,
                 redop: str | None):
        self._lock = lock
        self._bells = bells
        self._partial = partial
        self._arrived = arrived
        self._result = result
        self._done = done
        self._k = k
        self._base = 2 * k
        self._participants = participants
        self.redop = redop
        self._fold = SCALAR_REDUCTIONS.get(redop)

    def contribute(self, generation: int, value: Any | None) -> _BoardEvent:
        s = self._base + (generation & 1)
        with self._lock:
            if generation <= self._done[self._k]:
                raise RuntimeError(
                    f"contribution to retired generation {generation}")
            if value is not None:
                prev = self._partial.load(s)
                self._partial.store(
                    s, value if prev is None else self._fold(prev, value))
            got = self._arrived[s] + 1
            last = got == self._participants
            if last:
                folded = self._partial.load(s)
                if folded is None and self.redop is not None:
                    # Every shard contributed None (legal: §4.4 empty
                    # launch domain) — reduce to the identity.
                    folded = reduction_identity(self.redop, np.float64)
                self._result.store(s, folded)
                self._arrived[s] = 0
                self._partial.store(s, None)
                self._done[self._k] = generation
            else:
                self._arrived[s] = got
        if last:
            self._bells.ring_all()
        done, k = self._done, self._k
        return _BoardEvent(self._bells.mine, lambda: done[k] >= generation,
                           label=self.label)

    def result(self, generation: int):
        with self._lock:
            return self._result.load(self._base + (generation & 1))


class BoardContext(CommContext):
    """One launch's sync objects on a shared board (see module docstring).

    Slots are assigned in spec order — channel ``cid`` is slot ``cid`` of
    the ready and acked arrays, sized by the spec's channel keys (at most
    ``ns * (ns - 1)`` per copy statement).  A channel's ``ready`` slot
    rings its consumer's bell, its ``acked`` slot its producer's; the
    collective counters share one lock.  Bells and lock are
    created pre-fork so all children inherit them; each child calls
    :meth:`bind` with its shard first.
    """

    def __init__(self, spec, num_shards: int):
        mpctx = fork_context()
        self._bells = _Bells(mpctx, num_shards)
        self._lock = mpctx.Lock()
        n = max(1, sum(len(keys) for keys in spec.channels.values()))
        self._chan_ready = mpctx.RawArray("q", n)
        self._chan_acked = mpctx.RawArray("q", n)
        nc = max(1, len(spec.collectives))
        self._coll_index = {key: i
                            for i, (key, _, _) in enumerate(spec.collectives)}
        self._coll_partial = _ScalarSlots(mpctx, 2 * nc)
        self._coll_arrived = mpctx.RawArray("q", 2 * nc)
        self._coll_result = _ScalarSlots(mpctx, 2 * nc)
        self._coll_done = mpctx.RawArray("q", nc)
        super().__init__(spec, num_shards)

    def bind(self, shard: int) -> None:
        """Make ``shard`` the one whose bell collective waits block on
        (in a forked child: its own shard)."""
        self._bells.mine = self._bells.all[shard]

    def _channel(self, stmt, key, cid: int) -> Channel:
        producer, consumer = key
        bells = self._bells.all
        return Channel(
            _BoardSequence(bells[consumer], self._chan_ready, cid),
            _BoardSequence(bells[producer], self._chan_acked, cid))

    def _collective(self, key, redop: str | None, copy) -> _BoardCollective:
        return _BoardCollective(self._lock, self._bells, self._coll_partial,
                                self._coll_arrived, self._coll_result,
                                self._coll_done, self._coll_index[key],
                                self.num_shards, redop)

    def advance_group(self, seqs, n: int) -> None:
        # Store every slot, then ring each distinct waiting shard once.
        rung = []
        for seq in seqs:
            if n > seq._arr[seq._idx]:
                seq._arr[seq._idx] = n
                if seq._bell not in rung:
                    rung.append(seq._bell)
        for bell in rung:
            bell.release()


def shared_lock():
    """Reduction-fold lock factory: producers are separate processes."""
    return fork_context().Lock()


def run_shard_launch_procs(ex, stmt, spec, states) -> None:
    """Fork one process per shard over a shared sync board."""
    ctx = BoardContext(spec, len(states))

    def body(state, cancel):
        ctx.bind(state.shard)
        gen = ex._run_shard(stmt, state, ctx)
        return drive_shard(ex, gen, state, cancel), None

    fork_and_funnel(ex, states, body)

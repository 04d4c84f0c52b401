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
  global-barrier generations, dynamic-collective slots (§4.4) — guarded
  by a single ``multiprocessing`` condition variable.  Waiters re-check
  monotone predicates; every state change notifies.  Collective values
  travel as exact integers while every contribution is an integer, as
  float64 otherwise (double-buffered by generation parity, which is safe
  because generation ``g+2`` contributions cannot begin until every
  shard has read generation ``g``).
"""

from __future__ import annotations

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
    """Event facade over a monotone predicate on shared sync state.

    Duck-types :class:`repro.runtime.events.Event` as far as the drivers
    need: ``is_set`` / ``wait_blocking`` / ``label``.
    """

    __slots__ = ("_cond", "_check", "label")

    def __init__(self, cond, check: Callable[[], bool], label: str | None = None):
        self._cond = cond
        self._check = check
        self.label = label

    def is_set(self) -> bool:
        # Lock-free read: every predicate is monotone (a false positive is
        # impossible; a stale False only costs one wait round-trip).
        return bool(self._check())

    def wait_blocking(self, timeout: float | None = None) -> bool:
        with self._cond:
            return self._cond.wait_for(self._check, timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_BoardEvent({self.label or 'event'}, {'set' if self.is_set() else 'unset'})"


class _BoardSequence:
    """Cross-process :class:`~repro.runtime.events.Sequence`: a monotone
    counter at a fixed slot of a shared array."""

    __slots__ = ("_cond", "_arr", "_idx")

    def __init__(self, cond, arr, idx: int):
        self._cond = cond
        self._arr = arr
        self._idx = idx

    @property
    def value(self) -> int:
        with self._cond:
            return self._arr[self._idx]

    def advance_to(self, n: int) -> None:
        with self._cond:
            if n > self._arr[self._idx]:
                self._arr[self._idx] = n
                self._cond.notify_all()

    def event_for(self, n: int, label: str | None = None) -> _BoardEvent:
        arr, idx = self._arr, self._idx
        return _BoardEvent(self._cond, lambda: arr[idx] >= n, label)


class _BoardBarrier:
    """Cross-process :class:`~repro.runtime.events.GlobalBarrier`.

    Generations complete strictly in order (every participant waits for
    generation ``g`` before arriving at ``g+1``), so one arrival counter
    plus a last-completed-generation watermark per barrier suffices —
    the shared-state analogue of the eager pruning the in-process
    :class:`~repro.runtime.events.PhaseBarrier` does.
    """

    __slots__ = ("_cond", "_count", "_done", "_idx", "_participants")

    def __init__(self, cond, count, done, idx: int, participants: int):
        self._cond = cond
        self._count = count
        self._done = done
        self._idx = idx
        self._participants = participants

    def arrive_and_wait_event(self, generation: int,
                              label: str | None = None) -> _BoardEvent:
        with self._cond:
            got = self._count[self._idx] + 1
            if got == self._participants:
                self._count[self._idx] = 0
                self._done[self._idx] = generation
                self._cond.notify_all()
            else:
                self._count[self._idx] = got
        done, idx = self._done, self._idx
        return _BoardEvent(self._cond, lambda: done[idx] >= generation, label)


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
    """

    __slots__ = ("_cond", "_partial", "_arrived", "_result", "_done",
                 "_base", "_k", "_participants", "redop", "_fold", "label")

    def __init__(self, cond, partial: _ScalarSlots, arrived,
                 result: _ScalarSlots, done, k: int, participants: int,
                 redop: str):
        self._cond = cond
        self._partial = partial
        self._arrived = arrived
        self._result = result
        self._done = done
        self._k = k
        self._base = 2 * k
        self._participants = participants
        self.redop = redop
        self._fold = SCALAR_REDUCTIONS[redop]

    def contribute(self, generation: int, value: Any | None) -> _BoardEvent:
        s = self._base + (generation & 1)
        with self._cond:
            if value is not None:
                prev = self._partial.load(s)
                self._partial.store(
                    s, value if prev is None else self._fold(prev, value))
            got = self._arrived[s] + 1
            if got == self._participants:
                folded = self._partial.load(s)
                if folded is None:
                    # Every shard contributed None (legal: §4.4 empty
                    # launch domain) — reduce to the identity.
                    folded = reduction_identity(self.redop, np.float64)
                self._result.store(s, folded)
                self._arrived[s] = 0
                self._partial.kinds[s] = _EMPTY
                self._done[self._k] = generation
                self._cond.notify_all()
            else:
                self._arrived[s] = got
        done, k = self._done, self._k
        return _BoardEvent(self._cond, lambda: done[k] >= generation,
                           label=self.label)

    def result(self, generation: int):
        with self._cond:
            return self._result.load(self._base + (generation & 1))


class BoardContext(CommContext):
    """One launch's sync objects on a shared board (see module docstring).

    Slots are assigned in spec order — channel ``cid`` is slot ``cid`` of
    the ready and acked arrays, sized by the spec's channel keys (at most
    ``ns * (ns - 1)`` per copy statement) — and every object hangs off the
    one Condition, created pre-fork so all children inherit it.
    """

    def __init__(self, spec, num_shards: int):
        mpctx = fork_context()
        self._cond = mpctx.Condition()
        n = max(1, sum(len(keys) for keys in spec.channels.values()))
        self._chan_ready = mpctx.RawArray("q", n)
        self._chan_acked = mpctx.RawArray("q", n)
        nb = max(1, len(spec.barriers))
        self._bar_index = {tag: i for i, tag in enumerate(spec.barriers)}
        self._bar_count = mpctx.RawArray("q", nb)
        self._bar_done = mpctx.RawArray("q", nb)
        nc = max(1, len(spec.collectives))
        self._coll_index = {uid: i
                            for i, (uid, _) in enumerate(spec.collectives)}
        self._coll_partial = _ScalarSlots(mpctx, 2 * nc)
        self._coll_arrived = mpctx.RawArray("q", 2 * nc)
        self._coll_result = _ScalarSlots(mpctx, 2 * nc)
        self._coll_done = mpctx.RawArray("q", nc)
        super().__init__(spec, num_shards)

    def _channel(self, stmt, key, cid: int) -> Channel:
        return Channel(_BoardSequence(self._cond, self._chan_ready, cid),
                       _BoardSequence(self._cond, self._chan_acked, cid))

    def _collective(self, uid: int, redop: str) -> _BoardCollective:
        return _BoardCollective(self._cond, self._coll_partial,
                                self._coll_arrived, self._coll_result,
                                self._coll_done, self._coll_index[uid],
                                self.num_shards, redop)

    def _barrier(self, tag: str, copy) -> _BoardBarrier:
        return _BoardBarrier(self._cond, self._bar_count, self._bar_done,
                             self._bar_index[tag], self.num_shards)

    def advance_group(self, seqs, n: int) -> None:
        # Every slot hangs off the one Condition, so a batched ack release
        # is a single lock round and a single notify_all.
        with self._cond:
            changed = False
            for seq in seqs:
                if n > seq._arr[seq._idx]:
                    seq._arr[seq._idx] = n
                    changed = True
            if changed:
                self._cond.notify_all()


def shared_lock():
    """Reduction-fold lock factory: producers are separate processes."""
    return fork_context().Lock()


def run_shard_launch_procs(ex, stmt, spec, states) -> None:
    """Fork one process per shard over a shared sync board."""
    ctx = BoardContext(spec, len(states))

    def body(state, cancel):
        gen = ex._shard_body(stmt.body, state, ctx)
        return drive_shard(ex, gen, state, cancel), None

    fork_and_funnel(ex, states, body)

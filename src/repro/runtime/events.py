"""Realm-style events and monotone sequences.

Legion's deferred execution model is built on events produced and consumed
by the low-level Realm runtime (paper §4.1): every operation completes by
triggering an event, and operations declare event preconditions instead of
blocking a control thread.  The functional executors here use the same
vocabulary: shard interpreters *yield* the events they need, and a
scheduler (deterministic single-threaded, or OS threads) resumes them when
the events trigger.

:class:`Sequence` is the functional form of the Legion phase barriers
§3.4's point-to-point synchronization uses: a monotone generation counter
whose wait event for any future generation can be taken without blocking.
A global barrier is a :class:`~repro.runtime.collectives.DynamicCollective`
whose contributions and result are ``None``.
"""

from __future__ import annotations

import threading

__all__ = ["Event", "Sequence"]


class Event:
    """A one-shot trigger, safe for both cooperative and threaded use.

    ``label`` optionally names what the event stands for (e.g. which
    channel's handshake); the threaded driver uses it to attribute
    blocked-wait time on shard timelines.
    """

    __slots__ = ("_ev", "label")

    def __init__(self, triggered: bool = False, label: str | None = None):
        self._ev = threading.Event()
        self.label = label
        if triggered:
            self._ev.set()

    def trigger(self) -> None:
        self._ev.set()

    def is_set(self) -> bool:
        return self._ev.is_set()

    def wait_blocking(self, timeout: float | None = None) -> bool:
        return self._ev.wait(timeout)

    def __repr__(self) -> str:
        return f"Event({'set' if self.is_set() else 'unset'})"


_TRIGGERED = Event(triggered=True)


class Sequence:
    """A monotone counter with an event per threshold.

    ``event_for(n)`` triggers once ``advance_to(m)`` has been called with
    ``m >= n``.  This is the building block of the per-channel copy
    handshake: "data generation n is ready" / "generation n consumed".
    """

    def __init__(self, start: int = 0):
        self._value = start
        self._waiters: dict[int, Event] = {}
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        # Reads take the lock so an observer (e.g. a deadlock detector
        # polling from another thread) never sees a torn or stale value
        # relative to the waiter dict it inspects next.
        with self._lock:
            return self._value

    def advance_to(self, n: int) -> None:
        # Lock-free fast path, mirroring event_for: _value is monotone, so
        # a stale read can only under-report and fall through to the lock.
        if n <= self._value:
            return
        with self._lock:
            if n <= self._value:
                return
            self._value = n
            ready = [g for g in self._waiters if g <= n]
            for g in ready:
                self._waiters.pop(g).trigger()

    def event_for(self, n: int, label: str | None = None) -> Event:
        # Lock-free fast path: _value is monotone, so a stale read can only
        # under-report it — and then we fall through to the locked check.
        # This is the hot call on replayed steady-state iterations, where
        # the producer has usually already advanced past n.
        if self._value >= n:
            return _TRIGGERED  # shared singleton: never label it
        with self._lock:
            if self._value >= n:
                return _TRIGGERED
            if n not in self._waiters:
                self._waiters[n] = Event(label=label)
            return self._waiters[n]

"""Realm-style events and phase barriers.

Legion's deferred execution model is built on events produced and consumed
by the low-level Realm runtime (paper §4.1): every operation completes by
triggering an event, and operations declare event preconditions instead of
blocking a control thread.  The functional executors here use the same
vocabulary: shard interpreters *yield* the events they need, and a
scheduler (deterministic single-threaded, or OS threads) resumes them when
the events trigger.

:class:`PhaseBarrier` is the generation-based barrier Legion uses for
point-to-point synchronization (§3.4): each generation must receive a
fixed number of arrivals before its wait event triggers, and the barrier
can be arrived at / waited on for any future generation without blocking.
"""

from __future__ import annotations

import threading

__all__ = ["Event", "Sequence", "PhaseBarrier", "GlobalBarrier"]


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


class PhaseBarrier:
    """A generational barrier: each generation needs ``arrivals`` arrivals.

    Generations are 1-based (generation 0 is the barrier's initial,
    already-completed state — matching the shard interpreter's epoch
    counters, which start at 1).

    Completed generations are retired eagerly: a long-running control loop
    advances through one generation per time step, so ``_counts`` and
    ``_events`` must hold O(live generations), not O(total generations).
    A watermark (plus a small set for out-of-order completions) remembers
    which generations already completed so late waiters still get a
    triggered event.
    """

    def __init__(self, arrivals: int):
        if arrivals <= 0:
            raise ValueError("arrivals must be positive")
        self.arrivals = arrivals
        self._counts: dict[int, int] = {}
        self._events: dict[int, Event] = {}
        self._lock = threading.Lock()
        self._completed_through = 0  # all generations <= this completed
        self._completed_beyond: set[int] = set()  # out-of-order completions

    def _is_completed(self, generation: int) -> bool:
        return (generation <= self._completed_through
                or generation in self._completed_beyond)

    def _event(self, generation: int, label: str | None = None) -> Event:
        if generation not in self._events:
            self._events[generation] = Event(label=label)
        return self._events[generation]

    def arrive(self, generation: int, count: int = 1) -> None:
        with self._lock:
            if generation <= 0:
                raise ValueError("phase barrier generations are 1-based")
            if self._is_completed(generation):
                raise RuntimeError(
                    f"phase barrier over-arrived: generation {generation} "
                    f"already completed with {self.arrivals} arrivals")
            got = self._counts.get(generation, 0) + count
            if got > self.arrivals:
                raise RuntimeError(
                    f"phase barrier over-arrived: generation {generation} got "
                    f"{got} > {self.arrivals}")
            self._counts[generation] = got
            if got == self.arrivals:
                # Retire the generation: drop its count, trigger and drop
                # its event (waiters hold their own references), and fold
                # it into the completion watermark.
                self._counts.pop(generation)
                ev = self._events.pop(generation, None)
                if ev is not None:
                    ev.trigger()
                self._completed_beyond.add(generation)
                while self._completed_through + 1 in self._completed_beyond:
                    self._completed_through += 1
                    self._completed_beyond.discard(self._completed_through)

    def wait_event(self, generation: int, label: str | None = None) -> Event:
        with self._lock:
            if self._is_completed(generation):
                return _TRIGGERED  # shared singleton: never label it
            return self._event(generation, label)


class GlobalBarrier:
    """A reusable all-shards barrier (the naive §3.4 synchronization).

    Implemented as a phase barrier sequence: generation ``g`` completes when
    all participants have arrived ``g`` times.
    """

    def __init__(self, participants: int):
        self._pb = PhaseBarrier(participants)

    def arrive_and_wait_event(self, generation: int,
                              label: str | None = None) -> Event:
        self._pb.arrive(generation)
        return self._pb.wait_event(generation, label)

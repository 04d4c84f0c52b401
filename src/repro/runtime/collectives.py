"""Dynamic collectives for scalar reductions (paper §4.4).

Scalar variables are replicated across shards; reductions into scalars
(e.g. the global ``dt`` in PENNANT) are accumulated locally on each shard
and combined with a *dynamic collective* — an asynchronous all-reduce with
a generation counter, so successive loop iterations use successive
generations of the same collective object.  Shards that own no tasks for a
launch contribute nothing (``None``), matching Legion's dynamically
determined participant counts.

A collective with ``redop=None`` is a global barrier (§3.4's naive
synchronization): every contribution and the result are ``None``, and
its event triggers once every shard has arrived.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

import numpy as np

from ..regions.region import reduction_identity
from .events import Event

__all__ = ["DynamicCollective", "SCALAR_REDUCTIONS"]

SCALAR_REDUCTIONS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "*": lambda a, b: a * b,
    "min": min,
    "max": max,
}


class DynamicCollective:
    """A generational all-reduce over a fixed set of shards.

    Generations are retired once every shard has read their result, so a
    long control loop (one generation per ``dt`` reduction per time step)
    keeps the internal dicts at O(live generations), not O(total).  Each
    shard must read :meth:`result` exactly once per generation it
    contributed to — which is exactly what the shard interpreter does.
    A retired generation stays retired: every generation up to
    ``_retired_below`` is, plus those in ``_retired_above`` (retired out
    of order, folded into the watermark as the gaps below them retire),
    and a contribution to one raises.  ``label`` names its completion
    events (the launch context sets it).
    """

    label: str | None = None

    def __init__(self, num_shards: int, redop: str | None):
        if redop is not None and redop not in SCALAR_REDUCTIONS:
            raise ValueError(f"unknown scalar reduction {redop!r}")
        self.num_shards = num_shards
        self.redop = redop
        self._fold = SCALAR_REDUCTIONS.get(redop)
        self._lock = threading.Lock()
        self._partial: dict[int, Any] = {}
        self._arrived: dict[int, int] = {}
        self._results: dict[int, Any] = {}
        self._events: dict[int, Event] = {}
        self._reads: dict[int, int] = {}
        self._retired_below = 0  # generations start at 1
        self._retired_above: set[int] = set()

    def _event(self, generation: int) -> Event:
        if generation not in self._events:
            self._events[generation] = Event(label=self.label)
        return self._events[generation]

    def contribute(self, generation: int, value: Any | None) -> Event:
        """Add one shard's partial value (or ``None``); returns the
        completion event for this generation."""
        with self._lock:
            if (generation <= self._retired_below
                    or generation in self._retired_above):
                raise RuntimeError(
                    f"contribution to retired generation {generation}")
            if value is not None:
                if generation in self._partial:
                    self._partial[generation] = self._fold(self._partial[generation], value)
                else:
                    self._partial[generation] = value
            n = self._arrived.get(generation, 0) + 1
            self._arrived[generation] = n
            ev = self._event(generation)
            if n == self.num_shards:
                if generation in self._partial:
                    self._results[generation] = self._partial.pop(generation)
                else:
                    # Every shard contributed None: a barrier, or an empty
                    # launch domain under §4.4's dynamically determined
                    # participant counts, which reduces to the identity.
                    self._results[generation] = (
                        None if self.redop is None
                        else reduction_identity(self.redop, np.float64))
                ev.trigger()
            elif n > self.num_shards:
                raise RuntimeError("collective over-arrived")
        return ev

    def result(self, generation: int) -> Any:
        """The reduced value; only valid once the generation's event fired.

        The ``num_shards``-th read retires the generation (every shard
        reads the result exactly once, so the last read means no one can
        still need it).
        """
        with self._lock:
            value = self._results[generation]
            reads = self._reads.get(generation, 0) + 1
            if reads >= self.num_shards:
                del self._results[generation]
                self._reads.pop(generation, None)
                self._arrived.pop(generation, None)
                self._events.pop(generation, None)
                self._retire(generation)
            else:
                self._reads[generation] = reads
            return value

    def _retire(self, generation: int) -> None:
        above = self._retired_above
        above.add(generation)
        while self._retired_below + 1 in above:
            self._retired_below += 1
            above.remove(self._retired_below)

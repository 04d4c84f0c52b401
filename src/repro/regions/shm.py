"""Shared-memory backing for physical instances (the procs SPMD backend).

The process-based SPMD driver launches each shard as a forked OS process.
For the distributed-memory implementation of region semantics to work
across processes, every instance named by a partition must live in memory
that all shards map: this module carves zero-initialized numpy arrays out
of :class:`multiprocessing.shared_memory.SharedMemory` segments.  Segments
are created (and every instance allocated) in the parent *before* the
fork, so children inherit the same ``MAP_SHARED`` mappings at no cost —
a pairwise copy between two instances is then a plain numpy fancy-indexed
assignment between two shared buffers: a true cross-process memcpy with
no serialization.

Allocation is bump-pointer only (instances live for the whole run; there
is no free list).  :meth:`SharedMemoryArena.release` unlinks the segment
names from the OS so nothing leaks in ``/dev/shm``; the mappings
themselves stay valid for every process that holds them until it exits,
so instances remain readable after release.

Leak containment: ``/dev/shm`` is a machine-wide resource, so a segment
that outlives its run holds memory no later run on the machine gets back.
Every live (unreleased) arena is tracked in a process-level registry:
:func:`live_arena_count` / :func:`live_segment_count` expose it for leak
regression tests, and :func:`release_all_arenas` —
registered as an :mod:`atexit` backstop — force-releases whatever error
path dodged both the executor's ``try/finally`` and the arena's
``__del__``.  (Forked shard children exit through ``os._exit`` and never
run the backstop, so a crashing shard cannot unlink segments its parent
still maps.)
"""

from __future__ import annotations

import atexit
import math
import threading
import weakref

import numpy as np

__all__ = ["SharedMemoryArena", "live_arena_count", "live_segment_count",
           "release_all_arenas"]

_ALIGN = 64  # cache-line align every carved array

# Every unreleased arena in this process.  Weak references: an arena
# reachable only from here is garbage, and its __del__ releases it.
_LIVE_ARENAS: "weakref.WeakSet[SharedMemoryArena]" = weakref.WeakSet()
_LIVE_LOCK = threading.Lock()


def live_arena_count() -> int:
    """Arenas created in this process and not yet released."""
    with _LIVE_LOCK:
        return sum(1 for a in _LIVE_ARENAS if not a._released)


def live_segment_count() -> int:
    """Shared-memory segments held by all live (unreleased) arenas."""
    with _LIVE_LOCK:
        return sum(a.num_segments for a in _LIVE_ARENAS if not a._released)


def release_all_arenas() -> int:
    """Force-release every live arena; returns how many were released.

    The :mod:`atexit` backstop for error paths that leak an arena (a
    crashed run, an executor whose owner never called ``close()``).
    """
    with _LIVE_LOCK:
        live = [a for a in _LIVE_ARENAS if not a._released]
    for arena in live:
        arena.release()
    return len(live)


atexit.register(release_all_arenas)


class SharedMemoryArena:
    """Zero-initialized numpy arrays carved from shared-memory segments."""

    def __init__(self, segment_bytes: int = 1 << 24):
        self._segment_bytes = int(segment_bytes)
        self._segments: list = []
        self._offset = 0
        self._released = False
        with _LIVE_LOCK:
            _LIVE_ARENAS.add(self)

    # -- allocation --------------------------------------------------------
    def allocate(self, shape, dtype) -> np.ndarray:
        """Return a zeroed array of ``shape``/``dtype`` in shared memory.

        Matches the ``allocator(shape, dtype)`` protocol of
        :class:`repro.regions.region.PhysicalInstance`.
        """
        from multiprocessing import shared_memory

        if self._released:
            raise RuntimeError("arena already released")
        dtype = np.dtype(dtype)
        nbytes = int(math.prod(shape)) * dtype.itemsize
        if nbytes == 0:
            # Zero-size instances need no shared storage.
            return np.zeros(shape, dtype=dtype)
        if not self._segments or self._offset + nbytes > self._segments[-1].size:
            seg = shared_memory.SharedMemory(
                create=True, size=max(self._segment_bytes, nbytes))
            # Register the segment before carving from it: if the ndarray
            # construction below fails, release() still unlinks it.
            self._segments.append(seg)
            self._offset = 0
        arr = np.ndarray(shape, dtype=dtype,
                         buffer=self._segments[-1].buf, offset=self._offset)
        # Fresh segments are zero-filled by the OS; no memset needed.
        self._offset += -(-nbytes // _ALIGN) * _ALIGN
        return arr

    # -- accounting --------------------------------------------------------
    @property
    def num_segments(self) -> int:
        return len(self._segments)

    # -- teardown ----------------------------------------------------------
    def release(self) -> None:
        """Unlink every segment name.

        Existing mappings (and therefore every array handed out) remain
        valid in each process that holds them; the OS reclaims the memory
        when the last mapping disappears.  Safe to call more than once.
        """
        if self._released:
            return
        self._released = True
        with _LIVE_LOCK:
            _LIVE_ARENAS.discard(self)
        for seg in self._segments:
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.release()
        except Exception:
            pass

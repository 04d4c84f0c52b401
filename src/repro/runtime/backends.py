"""The backend registry: one row per SPMD driver, and the row *is* the
backend as far as the executor is concerned.

Every consumer of "the list of backends" — the CLI's ``--backend``
choices, the executor's mode validation — reads this registry instead of
repeating the literal tuple, and the executor asks the row, never the
name, for what differs between drivers: where instances live, which
lock a reduction fold needs, and the callable that runs a launch.  Adding a backend is
its row here plus its driver.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable

__all__ = ["BACKENDS", "Backend", "backend_names", "ensure_backend"]


def _no_check() -> None:
    return None


def _lazy(module: str, name: str) -> Callable:
    """``module.name``, imported at first call: the drivers pull in
    multiprocessing and sockets, which most runs never need."""
    def call(*args):
        return getattr(import_module(module, __package__), name)(*args)
    return call


@dataclass(frozen=True)
class Backend:
    """One SPMD execution strategy selectable via ``--backend``."""

    name: str
    description: str
    # ``launch(ex, stmt, spec, states)`` runs one ShardLaunch to the end,
    # leaving each shard's result in its state (repro.runtime.launch).
    launch: Callable = field(repr=False)
    # Raises (e.g. ProcsUnavailableError) when the platform can't run it.
    ensure: Callable[[], None] = field(default=_no_check, repr=False)
    # Partition instances are allocated in shared memory.
    shared_instances: bool = False
    # Lock factory for interfering reduction folds: producers are threads
    # of one process unless the row says otherwise.
    lock: Callable = field(default=threading.Lock, repr=False)


BACKENDS: dict[str, Backend] = {
    b.name: b
    for b in (
        Backend("stepped",
                "deterministic single-thread round-robin interpreter",
                launch=_lazy(".launch", "launch_stepped")),
        Backend("threaded", "one OS thread per shard, in-memory handshakes",
                launch=_lazy(".launch", "launch_threaded")),
        Backend("procs",
                "one forked process per shard over shared-memory instances",
                launch=_lazy(".procs", "run_shard_launch_procs"),
                ensure=_lazy(".launch", "ensure_procs_available"),
                shared_instances=True,
                lock=_lazy(".procs", "shared_lock")),
        # The net driver's single-host shape needs fork too, but that
        # check lives in the driver at fork time so worker mode (no
        # fork) stays usable on fork-less platforms.
        Backend("net", "one rank process per shard over a TCP peer mesh",
                launch=_lazy(".net.driver", "run_shard_launch_net")),
    )
}


def backend_names() -> tuple[str, ...]:
    return tuple(BACKENDS)


def ensure_backend(name: str) -> Backend:
    """Look up ``name``, raising a ``ValueError`` naming the valid set."""
    backend = BACKENDS.get(name)
    if backend is None:
        raise ValueError(
            f"unknown backend {name!r}; valid backends: "
            + ", ".join(backend_names()))
    backend.ensure()
    return backend

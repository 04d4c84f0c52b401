"""Request canonicalization and plan fingerprints for ``repro serve``.

The whole control-replication pipeline — CR compile, capture, window
compile — depends only on the *structure* of the request: which app,
the parameters that shape its control program and partitions, the shard
count, the backend, and the synchronization mode.  Region *data* never
enters compilation, so two requests that agree on structure can share
one compiled SPMD program and its frozen replay/window plans.

:class:`ServeRequest` is the closed set of structural fields; its
:meth:`~ServeRequest.fingerprint` is the SHA-256 of the canonical JSON
encoding and is the plan-cache key.  Anything *not* in the fingerprint
must not influence compilation or plan capture — that is the cache's
correctness contract (see ``docs/serving.md``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import asdict, dataclass, fields

__all__ = ["ServeRequest", "build_problem"]

_APPS = ("circuit", "miniaero", "pennant", "stencil")


def _backend_choices() -> tuple[str, ...]:
    from ..runtime.backends import backend_names

    return backend_names()


_BACKENDS = _backend_choices()
_CHOICES = {
    "backend": _BACKENDS,
    "sync": ("p2p", "barrier"),
    "shape": ("star", "square"),
}
_INT_FIELDS = ("tiles", "steps", "shards", "seed")


@dataclass(frozen=True)
class ServeRequest:
    """One structural request: everything the plan cache keys on.

    ``seed`` is structural because the stepped driver's interleaving —
    and therefore the captured trace — is a function of it; ``size`` and
    ``shape`` are structural because they shape regions and partitions.
    """

    app: str
    tiles: int = 4
    steps: int = 3
    size: int | None = None
    shape: str = "star"
    shards: int = 4
    backend: str = "threaded"
    sync: str = "p2p"
    seed: int = 0

    @classmethod
    def from_dict(cls, payload: dict) -> "ServeRequest":
        """Validate a JSON request body; raises ``ValueError`` on bad input."""
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown request field(s): {', '.join(unknown)}")
        if "app" not in payload:
            raise ValueError("request needs an 'app' field")
        req = cls(**payload)
        if req.app not in _APPS:
            raise ValueError(f"unknown app {req.app!r}; "
                             f"choose from {', '.join(_APPS)}")
        for name, choices in _CHOICES.items():
            value = getattr(req, name)
            if value not in choices:
                raise ValueError(f"bad {name} {value!r}; "
                                 f"choose from {', '.join(choices)}")
        for name in _INT_FIELDS:
            value = getattr(req, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        if req.tiles < 1 or req.steps < 1 or req.shards < 1:
            raise ValueError("tiles, steps, and shards must be >= 1")
        if req.size is not None and (not isinstance(req.size, int)
                                     or req.size < 1):
            raise ValueError("size must be a positive integer or null")
        return req

    def canonical(self) -> dict:
        """The canonical (sorted-key) form the fingerprint hashes."""
        return {k: asdict(self)[k] for k in sorted(asdict(self))}

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON encoding: the plan-cache key."""
        blob = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_problem(req: ServeRequest):
    """Instantiate the app's :class:`~repro.apps.common.AppProblem`.

    Delegates to the CLI's factories so serve and ``repro run`` agree
    exactly on how request knobs map to problem parameters.
    """
    from ..cli import APP_FACTORIES
    ns = argparse.Namespace(tiles=req.tiles, steps=req.steps, size=req.size,
                            shape=req.shape)
    return APP_FACTORIES[req.app](ns)

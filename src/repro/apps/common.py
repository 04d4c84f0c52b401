"""Shared scaffolding for the four evaluation applications (paper §5).

Each application provides an :class:`AppProblem`: the regions, partitions,
tasks, and control program of one problem instance, plus an independent
pure-numpy reference implementation.  The integration tests run every app
three ways — reference, sequential executor, control-replicated SPMD — and
demand agreement.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from ..core.ir import Program
from ..regions.region import PhysicalInstance

__all__ = ["AppProblem", "first_view_index", "fold_routes", "grid_dims_2d",
           "grid_dims_3d", "segments"]


class AppProblem:
    """One problem instance of an evaluation application."""

    name: str = "app"

    def build_program(self) -> Program:
        """The implicitly parallel control program (Fig. 2 style)."""
        raise NotImplementedError

    def fresh_instances(self) -> dict[int, PhysicalInstance]:
        """Freshly initialized root instances, keyed by root region uid."""
        raise NotImplementedError

    def extract_state(self, instances: Mapping[int, PhysicalInstance]) -> dict[str, np.ndarray]:
        """The observable state (for comparisons), from root instances."""
        raise NotImplementedError

    def reference_state(self) -> dict[str, np.ndarray]:
        """Run an independent pure-numpy implementation to completion."""
        raise NotImplementedError

    # -- conveniences used by tests/examples ------------------------------
    def run_sequential(self):
        from ..runtime.sequential import SequentialExecutor
        ex = SequentialExecutor(instances=self.fresh_instances())
        scalars = ex.run(self.build_program())
        return self.extract_state(ex.instances), scalars, ex

    def run_control_replicated(self, num_shards: int, mode: str = "stepped",
                               seed: int = 0, sync: str = "p2p",
                               tracer=None, metrics=None,
                               executor_kw: dict | None = None,
                               **compile_kw):
        from ..core.compiler import control_replicate
        from ..obs import NULL_METRICS, NULL_TRACER
        from ..runtime.spmd import SPMDExecutor
        tracer = tracer if tracer is not None else NULL_TRACER
        metrics = metrics if metrics is not None else NULL_METRICS
        prog, report = control_replicate(self.build_program(),
                                         num_shards=num_shards, sync=sync,
                                         tracer=tracer, metrics=metrics,
                                         **compile_kw)
        ex = SPMDExecutor(num_shards=num_shards, mode=mode, seed=seed,
                          instances=self.fresh_instances(), tracer=tracer,
                          metrics=metrics, **(executor_kw or {}))
        scalars = ex.run(prog)
        return self.extract_state(ex.instances), scalars, ex, report


# -- inspector helpers for the §4.5 private/shared/ghost region tree ------
# Their views may hold several point tasks (a batched launch,
# ``Task.batchable``): every lookup is segmented, ``seg[k]`` naming the
# point task whose points ``ids[k]`` is looked up in.

def segments(view, per: int = 1) -> np.ndarray:
    """Per point of ``view`` (``per`` consecutive entries each), the
    point task it belongs to, from the view's ``offsets``."""
    offsets = view.offsets
    return np.repeat(np.arange(offsets.shape[0] - 1),
                     per * np.diff(offsets))


def first_view_index(views, ids: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Each id as an index into the views' values laid end to end — the
    first view that contains it wins."""
    index = np.full(ids.shape[0], -1)
    offset = 0
    for view in views:
        slots, ok = view.maybe_localize(ids, seg)
        take = ok & (index < 0)
        index[take] = offset + slots[take]
        offset += view.n
    if (index < 0).any():
        raise IndexError("id not present in any view")
    return index


def fold_routes(private, shared, ghost, ids: np.ndarray, seg: np.ndarray):
    """Where a contribution to each id goes: ``(positions, slots)`` in
    the private view, then (only if some id is left over) in the shared
    one, then (likewise) in the ghost one; ``None`` marks a view the body
    must not touch at all."""
    slots, ok = private.maybe_localize(ids, seg)
    to_shared = to_ghost = None
    rem = np.flatnonzero(~ok)
    if rem.size:
        s_slots, s_ok = shared.maybe_localize(ids[rem], seg[rem])
        to_shared = (rem[s_ok], s_slots[s_ok])
        rem2 = rem[~s_ok]
        if rem2.size:
            to_ghost = (rem2, ghost.localize(ids[rem2], seg[rem2]))
    return (np.flatnonzero(ok), slots[ok]), to_shared, to_ghost


def grid_dims_2d(tiles: int) -> tuple[int, int]:
    """Near-square factorization of a tile count."""
    gx = int(math.isqrt(tiles))
    while tiles % gx:
        gx -= 1
    return gx, tiles // gx


def grid_dims_3d(tiles: int) -> tuple[int, int, int]:
    """Near-cubic factorization of a tile count."""
    best = (1, 1, tiles)
    best_cost = tiles * 3
    for a in range(1, int(round(tiles ** (1 / 3))) + 2):
        if tiles % a:
            continue
        rem = tiles // a
        for b in range(a, int(math.isqrt(rem)) + 1):
            if rem % b:
                continue
            c = rem // b
            cost = a + b + c
            if cost < best_cost:
                best, best_cost = (a, b, c), cost
    return best

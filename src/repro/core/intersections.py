"""Control replication phase 3: copy intersection optimization (paper §3.3).

Pairwise copies are semantically over all of ``I × I``, but only pairs with
non-empty intersection ``dst[j] ∩ src[i]`` move data.  This phase gives each
(src, dst) partition pair a named intersection set, emits one
``ComputeIntersections`` statement per pair into the fragment's
initialization section (the paper observes that in all evaluated
applications the shallow intersections end up hoisted to program start),
and rewrites each copy to iterate over the named pair set — turning the
copy loop from O(N²) to O(N) for bounded-degree communication patterns.

The actual two-phase computation — *shallow* (which pairs overlap, via an
overlap join of the intervals for unstructured regions and a bounding
volume hierarchy for structured ones) then *complete* (the exact shared
elements, computed per-shard) — lives in :mod:`repro.runtime.intersection_exec`; it is a
runtime activity, deferred exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..regions.partition import Partition
from .ir import (
    Block,
    ComputeIntersections,
    ForRange,
    IfStmt,
    PairwiseCopy,
    Stmt,
    WhileLoop,
)

__all__ = ["IntersectionStats", "optimize_intersections"]


@dataclass
class IntersectionStats:
    pair_sets: int = 0
    copies_rewritten: int = 0


class _Namer:
    def __init__(self) -> None:
        self.names: dict[tuple[int, int], str] = {}
        self.stmts: list[ComputeIntersections] = []

    def name_for(self, src: Partition, dst: Partition) -> str:
        key = (src.uid, dst.uid)
        if key not in self.names:
            name = f"I_{dst.name}_{src.name}_{len(self.names)}"
            self.names[key] = name
            self.stmts.append(ComputeIntersections(name, src, dst))
        return self.names[key]


def _rewrite(block: Block, namer: _Namer, stats: IntersectionStats) -> Block:
    out: list[Stmt] = []
    for s in block.stmts:
        if isinstance(s, ForRange):
            out.append(ForRange(s.var, s.start, s.stop, _rewrite(s.body, namer, stats)))
        elif isinstance(s, WhileLoop):
            out.append(WhileLoop(s.cond, _rewrite(s.body, namer, stats)))
        elif isinstance(s, IfStmt):
            out.append(IfStmt(s.cond, _rewrite(s.then_block, namer, stats),
                              _rewrite(s.else_block, namer, stats)))
        elif isinstance(s, PairwiseCopy) and s.pairs_name is None:
            name = namer.name_for(s.src, s.dst)
            stats.copies_rewritten += 1
            out.append(PairwiseCopy(s.src, s.dst, s.fields, pairs_name=name,
                                    redop=s.redop, sync_mode=s.sync_mode))
        else:
            out.append(s)
    return Block(out)


def optimize_intersections(init: list[Stmt], body: list[Stmt],
                           final: list[Stmt]) -> tuple[list[Stmt], list[Stmt], list[Stmt], IntersectionStats]:
    """Name intersection pair sets and rewrite copies to use them."""
    stats = IntersectionStats()
    namer = _Namer()
    new_body = _rewrite(Block(body), namer, stats).stmts
    new_final = _rewrite(Block(final), namer, stats).stmts
    stats.pair_sets = len(namer.stmts)
    # Intersection computations go first in initialization: they depend only
    # on the (immutable) partitions, and everything else may consume them.
    new_init = [*namer.stmts, *init]
    return new_init, new_body, new_final, stats

"""Projection normalization (paper §2.2).

Region arguments of index launches must have the form ``p[f(i)]`` with
``f`` a pure function of the launch index.  Control replication proper
only handles the identity form ``q[i]``; any non-trivial ``f`` is
rewritten here by materializing a fresh partition ``q`` with
``q[i] = p[f(i)]`` — "we make essential use of Regent's ability to define
multiple partitions of the same data."

The fresh partition is conservatively marked *aliased*: ``f`` is
unconstrained, so distinct launch indices may project to the same color.
(This mirrors Regent's static treatment of images.)  Out-of-range colors
map to empty subregions, matching clamped-boundary access patterns.
"""

from __future__ import annotations

from ..regions.index_space import IndexSpace
from ..regions.partition import Partition
from .ir import (
    Block,
    ForRange,
    IfStmt,
    IndexLaunch,
    Program,
    Proj,
    RegionArg,
    ShardLaunch,
    Stmt,
    WhileLoop,
)

__all__ = ["normalize_projections"]


class _ProjCache:
    def __init__(self) -> None:
        self._cache: dict[tuple[int, int, int], Partition] = {}

    def materialize(self, proj: Proj, domain: IndexSpace) -> Partition:
        key = (proj.partition.uid, id(proj.fn), domain.uid)
        if key not in self._cache:
            part = proj.partition
            colours = [proj.color_for(i) for i in range(domain.size)]
            q = Partition(part.parent, part.colour_table.take(colours),
                          disjoint=False,
                          name=f"{part.name}.{proj.fn_name}")
            self._cache[key] = q
        return self._cache[key]


def _rewrite(stmt: Stmt, cache: _ProjCache) -> Stmt:
    if isinstance(stmt, Block):
        return Block([_rewrite(s, cache) for s in stmt.stmts])
    if isinstance(stmt, ForRange):
        return ForRange(stmt.var, stmt.start, stmt.stop, _rewrite(stmt.body, cache))
    if isinstance(stmt, WhileLoop):
        return WhileLoop(stmt.cond, _rewrite(stmt.body, cache))
    if isinstance(stmt, IfStmt):
        return IfStmt(stmt.cond, _rewrite(stmt.then_block, cache),
                      _rewrite(stmt.else_block, cache))
    if isinstance(stmt, ShardLaunch):
        return ShardLaunch(_rewrite(stmt.body, cache), stmt.num_shards,
                           stmt.launch_domains)
    if isinstance(stmt, IndexLaunch):
        if all(a.proj.is_identity for a in stmt.region_args):
            return stmt
        new_args = []
        for a in stmt.args:
            if isinstance(a, RegionArg) and not a.proj.is_identity:
                q = cache.materialize(a.proj, stmt.domain)
                new_args.append(RegionArg(Proj(q)))
            else:
                new_args.append(a)
        return IndexLaunch(stmt.task, stmt.domain, new_args, reduce=stmt.reduce)
    return stmt


def normalize_projections(program: Program) -> Program:
    """Rewrite all non-identity projections into fresh identity partitions."""
    cache = _ProjCache()
    body = _rewrite(program.body, cache)
    assert isinstance(body, Block)
    return Program(body=body, scalars=dict(program.scalars), name=program.name)

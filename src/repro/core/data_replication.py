"""Control replication phase 1: data replication (paper §3.1, §4.3).

Rewrites a fragment so that every partition has its own storage, making
coherence explicit:

* *Initialization*: every used partition is copied down from its parent
  region (Fig. 4a lines 2–4).
* *Intra-fragment copies*: after every launch that writes partition ``P``,
  a pairwise copy ``Q[j] <- P[i]`` is inserted for every other used
  partition ``Q`` that may interfere with ``P`` per the region-tree test —
  provably disjoint partitions (e.g. the hierarchical private side, §4.5)
  receive no copies.
* *Reductions* (§4.3): a launch argument with ``reduces(op)`` privilege is
  redirected to a fresh temporary partition (the reduction buffer), which
  is filled with the operator identity before the launch; after the
  launch, *reduction copies* apply the buffer to every interfering
  destination — including the reduced partition itself.
* *Finalization*: written/reduced partitions are copied back to their
  parent regions (Fig. 4a lines 14–15).

Copies are emitted in the naive all-pairs form (``pairs_name=None``) and
without synchronization; later phases optimize and synchronize them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..regions.partition import Partition
from .ir import (
    Block,
    FinalCopy,
    ForRange,
    IfStmt,
    IndexLaunch,
    InitCopy,
    FillReductionBuffer,
    PairwiseCopy,
    Proj,
    RegionArg,
    Stmt,
    WhileLoop,
)
from .region_tree import partitions_may_interfere
from .target import Fragment, FragmentUsage, fragment_usage

__all__ = ["DataReplicationResult", "replicate_data"]


@dataclass
class DataReplicationResult:
    init: list[Stmt]
    body: list[Stmt]
    final: list[Stmt]
    usage: FragmentUsage
    reduction_temps: list[Partition] = field(default_factory=list)
    num_exchange_copies: int = 0
    num_reduction_copies: int = 0


class _Replicator:
    def __init__(self, usage: FragmentUsage):
        self.usage = usage
        self.temps: list[Partition] = []
        self.n_exchange = 0
        self.n_reduction = 0
        self._temp_cache: dict[tuple[int, int], Partition] = {}

    # -- destinations -----------------------------------------------------
    def _copy_dests(self, src: Partition, fields: set[str]) -> list[tuple[Partition, tuple[str, ...]]]:
        # Destinations are partitions that *use* the overlapping fields
        # (paper §3.1: "any aliased partitions that are also used within the
        # transformed code").  Reduce-only users count: reduction applies
        # read-modify-write their instances and finalization copies them
        # back, so stale base values would corrupt the result.
        out = []
        for q in self.usage.partitions:
            if q is src:
                continue
            shared = fields & self.usage.accessed_fields(q)
            if shared and partitions_may_interfere(src, q):
                out.append((q, tuple(sorted(shared))))
        return out

    def _reduction_dests(self, src: Partition, fields: set[str]) -> list[tuple[Partition, tuple[str, ...]]]:
        # The reduced partition itself always receives its contributions.
        out = [(src, tuple(sorted(fields)))]
        out.extend(self._copy_dests(src, fields))
        return out

    def _temp_for(self, launch_uid: int, argpos: int, part: Partition,
                  fields: tuple[str, ...], redop: str) -> Partition:
        key = (launch_uid, argpos)
        if key not in self._temp_cache:
            # Colour tables are immutable: the temporary shares part's.
            temp = Partition(part.parent, part.colour_table,
                             disjoint=part.disjoint,
                             name=f"{part.name}$red{len(self.temps)}")
            temp.is_reduction_temp = True  # type: ignore[attr-defined]
            temp.reduction_source = part  # type: ignore[attr-defined]
            self._temp_cache[key] = temp
            self.temps.append(temp)
        return self._temp_cache[key]

    # -- rewriting -----------------------------------------------------------
    def rewrite_block(self, block: Block) -> Block:
        out: list[Stmt] = []
        for stmt in block.stmts:
            out.extend(self.rewrite_stmt(stmt))
        return Block(out)

    def rewrite_stmt(self, stmt: Stmt) -> list[Stmt]:
        if isinstance(stmt, ForRange):
            return [ForRange(stmt.var, stmt.start, stmt.stop, self.rewrite_block(stmt.body))]
        if isinstance(stmt, WhileLoop):
            return [WhileLoop(stmt.cond, self.rewrite_block(stmt.body))]
        if isinstance(stmt, IfStmt):
            return [IfStmt(stmt.cond, self.rewrite_block(stmt.then_block),
                           self.rewrite_block(stmt.else_block))]
        if isinstance(stmt, IndexLaunch):
            return self.rewrite_launch(stmt)
        return [stmt]

    def rewrite_launch(self, launch: IndexLaunch) -> list[Stmt]:
        pre: list[Stmt] = []
        post: list[Stmt] = []
        new_args: list = []
        region_pos = -1
        for arg in launch.args:
            if not isinstance(arg, RegionArg):
                new_args.append(arg)
                continue
            region_pos += 1
            priv = launch.task.privileges[region_pos]
            part = arg.proj.partition
            fields = set(priv.field_names(part.parent.fspace.names))
            if priv.redop is not None:
                temp = self._temp_for(launch.uid, region_pos, part,
                                      tuple(sorted(fields)), priv.redop)
                new_args.append(RegionArg(Proj(temp)))
                pre.append(FillReductionBuffer(temp, tuple(sorted(fields)), priv.redop))
                for q, shared in self._reduction_dests(part, fields):
                    post.append(PairwiseCopy(temp, q, shared, redop=priv.redop))
                    self.n_reduction += 1
            else:
                new_args.append(arg)
                if priv.write:
                    for q, shared in self._copy_dests(part, fields):
                        post.append(PairwiseCopy(part, q, shared))
                        self.n_exchange += 1
        new_launch = IndexLaunch(launch.task, launch.domain, new_args,
                                 reduce=launch.reduce)
        return [*pre, new_launch, *post]


def replicate_data(frag: Fragment) -> DataReplicationResult:
    """Apply data replication to a fragment, returning init/body/final parts."""
    usage = fragment_usage(frag)
    repl = _Replicator(usage)
    body = repl.rewrite_block(Block(frag.stmts)).stmts

    init: list[Stmt] = []
    final: list[Stmt] = []
    for part in usage.partitions:
        accessed = usage.accessed_fields(part)
        if accessed:
            init.append(InitCopy(part, tuple(sorted(accessed))))
        written = set(usage.writes.get(part, set()))
        for op_fields in usage.reduces.get(part, {}).values():
            written |= op_fields
        if written:
            final.append(FinalCopy(part, tuple(sorted(written))))
    return DataReplicationResult(
        init=init, body=body, final=final, usage=usage,
        reduction_temps=repl.temps,
        num_exchange_copies=repl.n_exchange,
        num_reduction_copies=repl.n_reduction)

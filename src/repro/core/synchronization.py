"""Control replication phase 4: synchronization insertion (paper §3.4).

Copies are issued by the *producer* shard, so on the producer side they
follow ordinary sequential semantics; only consumers need explicit
synchronization.  Two forms are produced:

* ``barrier`` mode — the naive Fig. 4c form: a global barrier before each
  copy loop (write-after-read: previous consumers must finish) and one
  after it (read-after-write: subsequent consumers must wait).  The copy
  is only marked; the executors run the two barriers as the copy's own
  ``pre``/``post`` rendezvous.
* ``p2p`` mode — the optimized form: the tasks that must synchronize are
  exactly those with non-empty intersections, so each copy statement is
  annotated with its *consumer launches* (found by a dataflow scan over
  the fragment: every launch reading the copy's destination partition
  fields), and the executors attach per-(i, j)-pair phase barriers as
  task pre/postconditions — they never block the shard's control thread.

The same pass also lowers scalar reductions (§4.4): an index launch that
reduces into a scalar is followed by a dynamic-collective all-reduce so
every shard observes the global value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import (
    Block,
    ForRange,
    IfStmt,
    IndexLaunch,
    PairwiseCopy,
    ScalarCollective,
    Stmt,
    WhileLoop,
    walk,
)

__all__ = ["SyncStats", "insert_synchronization"]


@dataclass
class SyncStats:
    barriers: int = 0
    p2p_copies: int = 0
    collectives: int = 0


def _copy_consumers(copy: PairwiseCopy, all_stmts: list[Stmt]) -> tuple[int, ...]:
    """Launch uids that read (or write) the copy's destination fields.

    These are the tasks that must synchronize with the copy: readers must
    wait for it (RAW) and the copy must wait for the previous epoch's
    readers (WAR).  Writers through the destination partition are included
    for the WAR direction.
    """
    consumers: list[int] = []
    fields = set(copy.fields)
    for top in all_stmts:
        for stmt in walk(top):
            if not isinstance(stmt, IndexLaunch):
                continue
            for priv, proj in stmt.privilege_pairs():
                if proj.partition.uid != copy.dst.uid:
                    continue
                touched = set(priv.field_names(proj.partition.parent.fspace.names))
                if touched & fields and (priv.read or priv.write or priv.redop):
                    consumers.append(stmt.uid)
                    break
    return tuple(consumers)


def _rewrite(block: Block, mode: str, all_stmts: list[Stmt], stats: SyncStats) -> Block:
    out: list[Stmt] = []
    for s in block.stmts:
        if isinstance(s, ForRange):
            out.append(ForRange(s.var, s.start, s.stop,
                                _rewrite(s.body, mode, all_stmts, stats)))
        elif isinstance(s, WhileLoop):
            out.append(WhileLoop(s.cond, _rewrite(s.body, mode, all_stmts, stats)))
        elif isinstance(s, IfStmt):
            out.append(IfStmt(s.cond, _rewrite(s.then_block, mode, all_stmts, stats),
                              _rewrite(s.else_block, mode, all_stmts, stats)))
        elif isinstance(s, PairwiseCopy):
            new = PairwiseCopy(s.src, s.dst, s.fields, pairs_name=s.pairs_name,
                               redop=s.redop, sync_mode=mode)
            new.consumers = _copy_consumers(s, all_stmts)  # type: ignore[attr-defined]
            out.append(new)
            if mode == "barrier":
                # The copy's own pre/post rendezvous (WAR, RAW).
                stats.barriers += 2
            else:
                stats.p2p_copies += 1
        elif isinstance(s, IndexLaunch):
            out.append(s)
            if s.reduce is not None:
                op, scalar = s.reduce
                out.append(ScalarCollective(scalar, op))
                stats.collectives += 1
        else:
            out.append(s)
    return Block(out)


def insert_synchronization(body: list[Stmt], mode: str = "p2p") -> tuple[list[Stmt], SyncStats]:
    """Annotate copies with sync mode/consumers; lower scalar reductions."""
    if mode not in ("barrier", "p2p"):
        raise ValueError(f"unknown sync mode {mode!r}")
    stats = SyncStats()
    new_body = _rewrite(Block(body), mode, body, stats).stmts
    return new_body, stats

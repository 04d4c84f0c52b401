"""Inter-pass IR well-formedness verifier for the control replication pipeline.

Every pass of :mod:`repro.core.passes` leaves the IR in a state that later
passes (and the executors) rely on.  This module checks those structural
invariants between passes, so a broken transformation fails at the pass
boundary with a precise message instead of as a mysterious executor error:

* **unique-uids** — no statement object appears twice in the IR (aliased
  statements break CFG construction and epoch counting);
* **no-nested-shard-launch** — shard launches never nest (the executors
  reject them, the compiler must never build them);
* **copy-fields** — every copy/fill references fields that exist on both
  partitions' parent regions;
* **pairs-defined** — a ``PairwiseCopy`` naming an intersection pair set
  is preceded by the matching ``ComputeIntersections`` over the *same*
  (src, dst) partitions (dangling or mismatched ``pairs_name`` would make
  the executor build channels for the wrong pairs);
* conditional on pipeline progress (the ``invariants`` tags accumulated
  by the passes that establish them):

  - ``normalized`` — every index-launch projection is the identity;
  - ``replicated`` — copies only reference partitions the fragment uses
    (or its reduction temporaries);
  - ``synchronized`` — every copy in a (future) shard body carries a
    synchronization mode, so the executor builds its channels or its
    pre/post rendezvous;
  - ``sharded`` — main-level-only statements (init/final copies,
    intersection computations) do not appear inside shard bodies.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .ir import (
    ComputeIntersections,
    FillReductionBuffer,
    FinalCopy,
    IndexLaunch,
    InitCopy,
    PairwiseCopy,
    ShardLaunch,
    SingleCall,
    Stmt,
    walk,
)

__all__ = ["IRVerificationError", "verify_ir", "verify_view"]


class IRVerificationError(Exception):
    """The IR violates a structural invariant; message lists all violations."""

    def __init__(self, stage: str, violations: list[str]):
        self.stage = stage
        self.violations = violations
        bullet = "\n  - ".join(violations)
        super().__init__(
            f"IR verification failed after pass {stage!r} "
            f"({len(violations)} violation(s)):\n  - {bullet}")


def _iter_view(stmts: Sequence[Stmt]) -> Iterable[Stmt]:
    for top in stmts:
        yield from walk(top)


def _check_unique_uids(stmts: Sequence[Stmt], where: str,
                       seen: dict[int, str], out: list[str]) -> None:
    for s in _iter_view(stmts):
        prev = seen.get(s.uid)
        if prev is not None:
            out.append(f"duplicate stmt uid {s.uid} "
                       f"({type(s).__name__} in {where}, first seen in {prev})")
        else:
            seen[s.uid] = where


def _check_nesting(stmts: Sequence[Stmt], where: str, out: list[str]) -> None:
    for s in _iter_view(stmts):
        if isinstance(s, ShardLaunch):
            for inner in walk(s.body):
                if isinstance(inner, ShardLaunch):
                    out.append(f"nested ShardLaunch (uid {inner.uid}) inside "
                               f"ShardLaunch (uid {s.uid}) in {where}")


def _check_copy_fields(stmts: Sequence[Stmt], where: str, out: list[str]) -> None:
    for s in _iter_view(stmts):
        if isinstance(s, PairwiseCopy):
            for part, side in ((s.src, "src"), (s.dst, "dst")):
                missing = set(s.fields) - set(part.parent.fspace.names)
                if missing:
                    out.append(
                        f"copy uid {s.uid} in {where}: fields {sorted(missing)} "
                        f"missing on {side} partition {part.name}")
        elif isinstance(s, (InitCopy, FinalCopy, FillReductionBuffer)):
            missing = set(s.fields) - set(s.partition.parent.fspace.names)
            if missing:
                out.append(
                    f"{type(s).__name__} uid {s.uid} in {where}: fields "
                    f"{sorted(missing)} missing on partition {s.partition.name}")


def _check_pairs_defined(stmts: Sequence[Stmt], where: str, out: list[str]) -> None:
    defined: dict[str, tuple[int, int]] = {}
    for s in _iter_view(stmts):
        if isinstance(s, ComputeIntersections):
            defined[s.name] = (s.src.uid, s.dst.uid)
        elif isinstance(s, PairwiseCopy) and s.pairs_name is not None:
            key = defined.get(s.pairs_name)
            if key is None:
                out.append(f"copy uid {s.uid} in {where}: dangling pairs_name "
                           f"{s.pairs_name!r} (no preceding ComputeIntersections)")
            elif key != (s.src.uid, s.dst.uid):
                out.append(
                    f"copy uid {s.uid} in {where}: pairs_name {s.pairs_name!r} "
                    f"was computed for different partitions "
                    f"(copy moves {s.src.name} -> {s.dst.name})")


def _check_normalized(stmts: Sequence[Stmt], where: str, out: list[str]) -> None:
    for s in _iter_view(stmts):
        if isinstance(s, IndexLaunch):
            for arg in s.region_args:
                if not arg.proj.is_identity:
                    out.append(
                        f"launch of {s.task.name} (uid {s.uid}) in {where}: "
                        f"non-identity projection {arg.proj!r} survived "
                        f"normalization")


def _check_replicated(frag, out: list[str]) -> None:
    live = {p.uid for p in frag.usage.partitions} if frag.usage else set()
    live |= {p.uid for p in frag.reduction_temps}
    where = f"fragment [{frag.start},{frag.stop})"
    for s in _iter_view(frag.parts()):
        if isinstance(s, PairwiseCopy):
            for part, side in ((s.src, "src"), (s.dst, "dst")):
                if part.uid not in live:
                    out.append(
                        f"copy uid {s.uid} in {where}: {side} partition "
                        f"{part.name} is not used by the fragment (dead "
                        f"partition reference)")


def _shard_bodies(stmts: Sequence[Stmt]) -> Iterable[Sequence[Stmt]]:
    """Statement sequences that execute replicated (inside shards)."""
    for s in _iter_view(stmts):
        if isinstance(s, ShardLaunch):
            yield s.body.stmts


def _check_synchronized(body_stmts: Sequence[Stmt], where: str,
                        out: list[str]) -> None:
    for s in _iter_view(body_stmts):
        if (isinstance(s, PairwiseCopy)
                and s.sync_mode not in ("p2p", "barrier")):
            out.append(f"copy uid {s.uid} in {where}: sync_mode "
                       f"{s.sync_mode!r} inside replicated code (no channel "
                       f"will be built for it)")


_MAIN_LEVEL_ONLY = (InitCopy, FinalCopy, ComputeIntersections, SingleCall)


def _check_sharded(stmts: Sequence[Stmt], where: str, out: list[str]) -> None:
    for s in _iter_view(stmts):
        if isinstance(s, ShardLaunch):
            for inner in walk(s.body):
                if isinstance(inner, _MAIN_LEVEL_ONLY):
                    out.append(
                        f"{type(inner).__name__} uid {inner.uid} inside shard "
                        f"body in {where}: main-level-only statement was "
                        f"sharded")


def verify_view(stmts: Sequence[Stmt], where: str, invariants: set[str],
                seen_uids: dict[int, str] | None = None,
                replicated_body: Sequence[Stmt] | None = None) -> list[str]:
    """Check one top-level statement sequence; returns violation messages.

    ``replicated_body`` names the subsequence that will execute inside
    shards; when ``None`` (an assembled program) the bodies of the view's
    ``ShardLaunch`` statements are used instead.
    """
    out: list[str] = []
    _check_unique_uids(stmts, where, seen_uids if seen_uids is not None else {},
                       out)
    _check_nesting(stmts, where, out)
    _check_copy_fields(stmts, where, out)
    _check_pairs_defined(stmts, where, out)
    if "normalized" in invariants:
        _check_normalized(stmts, where, out)
    if "synchronized" in invariants:
        bodies = ([replicated_body] if replicated_body is not None
                  else list(_shard_bodies(stmts)))
        for body in bodies:
            _check_synchronized(body, where, out)
    if "sharded" in invariants:
        _check_sharded(stmts, where, out)
    return out


def verify_ir(ir, stage: str = "?") -> None:
    """Verify a :class:`repro.core.passes.PipelineIR`; raises on violation.

    Before fragments exist (or after reassembly) the whole program is one
    view; during the per-fragment passes each fragment's init/body/final
    sequence is a view of its own (the original program slices they
    replace are excluded).
    """
    violations: list[str] = []
    seen: dict[int, str] = {}
    if ir.fragments and not ir.assembled:
        for k, frag in enumerate(ir.fragments):
            where = f"fragment {k} [{frag.start},{frag.stop})"
            violations += verify_view(frag.parts(), where, ir.invariants,
                                      seen_uids=seen,
                                      replicated_body=frag.body)
            if "replicated" in ir.invariants and frag.replicated:
                _check_replicated(frag, violations)
    else:
        violations += verify_view(ir.program.body.stmts, "program",
                                  ir.invariants, seen_uids=seen)
    if violations:
        raise IRVerificationError(stage, violations)

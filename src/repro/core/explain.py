"""Per-shard explanation of a control-replicated program.

``explain_shard`` renders what ONE shard of the transformed program will
concretely do: which colors of each launch domain it owns, which point
tasks it launches, which intersection pairs it produces (sends) and
consumes (receives) for every copy, and where it synchronizes.  This is
the debugging view an SPMD programmer would have written by hand — seeing
it generated is the productivity claim of the paper made tangible.
"""

from __future__ import annotations

from typing import NamedTuple

from ..regions.interval_join import shallow_intersection_pairs
from .ir import (
    Block,
    FillReductionBuffer,
    ForRange,
    IfStmt,
    IndexLaunch,
    PairwiseCopy,
    Program,
    ScalarAssign,
    ScalarCollective,
    ShardLaunch,
    Stmt,
    WhileLoop,
    format_program,
    format_stmts,
    walk,
)
from .shards import channel_keys, owner_of_color, shard_owned_colors

__all__ = ["explain_shard", "shard_communication_summary", "format_pipeline_ir",
           "Traffic"]


class Traffic(NamedTuple):
    """What one (producer shard, consumer shard) exchanges per epoch of
    the loop body: the handshake channels the runtime builds for it (one
    per copy statement with a pair between them, none from a shard to
    itself) and the intersection pairs those channels carry."""

    channels: int
    pairs: int


def _copy_pairs(stmt: PairwiseCopy) -> list[tuple[int, int]]:
    """All potentially non-empty pairs, statically (exact pairs are a
    runtime artifact; here we enumerate subset-overlap pairs)."""
    return shallow_intersection_pairs(stmt.src.colour_table,
                                      stmt.dst.colour_table)


def _fmt(stmt: Stmt, shard: int, ns: int, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    if isinstance(stmt, Block):
        for s in stmt.stmts:
            _fmt(s, shard, ns, lines, depth)
    elif isinstance(stmt, ForRange):
        lines.append(f"{pad}for {stmt.var} = ... do")
        _fmt(stmt.body, shard, ns, lines, depth + 1)
        lines.append(f"{pad}end")
    elif isinstance(stmt, WhileLoop):
        lines.append(f"{pad}while ... do")
        _fmt(stmt.body, shard, ns, lines, depth + 1)
        lines.append(f"{pad}end")
    elif isinstance(stmt, IfStmt):
        lines.append(f"{pad}if ... then")
        _fmt(stmt.then_block, shard, ns, lines, depth + 1)
        if stmt.else_block.stmts:
            lines.append(f"{pad}else")
            _fmt(stmt.else_block, shard, ns, lines, depth + 1)
        lines.append(f"{pad}end")
    elif isinstance(stmt, IndexLaunch):
        owned = list(shard_owned_colors(stmt.domain.size, ns, shard))
        red = f" -> reduce {stmt.reduce[0]} into {stmt.reduce[1]}" if stmt.reduce else ""
        lines.append(f"{pad}launch {stmt.task.name} for colors {owned}{red}")
    elif isinstance(stmt, PairwiseCopy):
        pairs = _copy_pairs(stmt)
        sends = [(i, j) for (i, j) in pairs
                 if owner_of_color(stmt.src.num_colors, ns, i) == shard]
        recvs = [(i, j) for (i, j) in pairs
                 if owner_of_color(stmt.dst.num_colors, ns, j) == shard]
        chans = [k for k in channel_keys(stmt, pairs, ns) if shard in k]
        op = f" ({stmt.redop}=)" if stmt.redop else ""
        lines.append(
            f"{pad}copy{op} {stmt.src.name} -> {stmt.dst.name} "
            f"[{stmt.sync_mode}]: produce {sends or 'nothing'}, "
            f"consume {recvs or 'nothing'}; channels {chans}")
    elif isinstance(stmt, FillReductionBuffer):
        owned = list(shard_owned_colors(stmt.partition.num_colors, ns, shard))
        lines.append(f"{pad}fill {stmt.partition.name}{owned} with "
                     f"identity({stmt.redop})")
    elif isinstance(stmt, ScalarCollective):
        lines.append(f"{pad}allreduce({stmt.redop}) -> {stmt.name}")
    elif isinstance(stmt, ScalarAssign):
        lines.append(f"{pad}{stmt.name} = ...  (replicated)")
    else:
        lines.append(f"{pad}{type(stmt).__name__}")


def format_pipeline_ir(ir) -> str:
    """Render a :class:`repro.core.passes.PipelineIR` (the dump-after view).

    Before fragments are split out (or after reassembly) this is the whole
    program; during the per-fragment passes each fragment is shown as its
    ``init`` / ``body`` / ``final`` parts so dumps track exactly what the
    next pass will see.
    """
    if not ir.fragments or ir.assembled:
        return format_program(ir.program)
    out: list[str] = [f"-- program {ir.program.name}: "
                      f"{len(ir.fragments)} fragment(s)"]
    for k, frag in enumerate(ir.fragments):
        out.append(f"-- fragment {k}: stmts [{frag.start}, {frag.stop})")
        if not frag.replicated:
            out.append(format_stmts(frag.stmts, indent=1))
            continue
        for label, part in (("init", frag.init), ("body", frag.body),
                            ("final", frag.final)):
            out.append(f"  -- {label}:")
            if part:
                out.append(format_stmts(part, indent=2))
    return "\n".join(s for s in out if s)


def explain_shard(program: Program, shard: int,
                  num_shards: int | None = None) -> str:
    """Explain what ``shard`` does in a control-replicated ``program``."""
    shard_launches = [s for s in walk(program.body) if isinstance(s, ShardLaunch)]
    if not shard_launches:
        raise ValueError("program has no shard launch — run control_replicate first")
    out: list[str] = []
    for k, sl in enumerate(shard_launches):
        ns = sl.num_shards or num_shards
        if not ns:
            raise ValueError("shard count unresolved; pass num_shards=")
        if not 0 <= shard < ns:
            raise ValueError(f"shard {shard} out of range 0..{ns - 1}")
        out.append(f"-- shard {shard} of {ns} (fragment {k}):")
        _fmt(sl.body, shard, ns, out, 1)
    return "\n".join(out)


def shard_communication_summary(
        program: Program,
        num_shards: int | None = None) -> dict[tuple[int, int], Traffic]:
    """Shard-to-shard traffic: ``(producer, consumer) -> Traffic``, the
    channels from ``channel_keys`` (what the runtime builds) and the pairs
    they carry.

    A shard's copies into itself are included under ``(s, s)``, with
    pairs and no channel.
    """
    channels: dict[tuple[int, int], int] = {}
    pairs: dict[tuple[int, int], int] = {}
    for sl in (s for s in walk(program.body) if isinstance(s, ShardLaunch)):
        ns = sl.num_shards or num_shards
        if not ns:
            raise ValueError("shard count unresolved; pass num_shards=")
        for stmt in walk(sl):
            if not isinstance(stmt, PairwiseCopy):
                continue
            stmt_pairs = _copy_pairs(stmt)
            for key in channel_keys(stmt, stmt_pairs, ns):
                channels[key] = channels.get(key, 0) + 1
            for (i, j) in stmt_pairs:
                key = (owner_of_color(stmt.src.num_colors, ns, i),
                       owner_of_color(stmt.dst.num_colors, ns, j))
                pairs[key] = pairs.get(key, 0) + 1
    return {key: Traffic(channels.get(key, 0), n) for key, n in pairs.items()}

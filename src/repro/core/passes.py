"""The control replication pass pipeline (paper §3, as a pass manager).

The seven phases of the compiler are first-class :class:`Pass` objects
over a :class:`PipelineIR` — the whole program plus, between the target
and shard passes, the per-fragment ``init``/``body``/``final`` parts the
phases rewrite.  A :class:`PassManager` runs them in order, recording
per-pass wall time and stats, verifying structural invariants between
passes (:mod:`repro.core.verify`), tracing each pass as a span on the
shared :mod:`repro.obs` timeline, and honoring ``dump-after`` hooks that
render the intermediate IR (unified with :mod:`repro.core.explain`).

The default pipeline is::

    normalize -> target -> replicate -> placement -> intersections
              -> synchronization -> shards

Ablations drop passes: :func:`default_passes` omits ``placement`` /
``intersections`` when the corresponding flag is off, and the report
then carries zeroed stats for them — disabling either preserves
semantics (paper §3.2/§3.3).  :func:`repro.core.compiler.control_replicate`
is a thin wrapper over this module, so existing call sites are unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..obs import NULL_TRACER, PID_COMPILER, MetricsRegistry, Tracer
from ..regions.partition import Partition
from .copy_placement import PlacementStats, place_copies
from .data_replication import replicate_data
from .intersections import IntersectionStats, optimize_intersections
from .ir import Block, Program, Stmt, walk
from .normalize import normalize_projections
from .shards import create_shards
from .synchronization import SyncStats, insert_synchronization
from .target import Fragment, find_fragments, fragment_usage
from .verify import verify_ir

__all__ = [
    "CompilationReport", "FragmentReport", "FragmentIR", "PipelineIR",
    "Pass", "PassContext", "PassManager", "PassTiming",
    "PASS_NAMES", "default_passes", "export_pass_metrics", "ir_size",
    "run_pass_pipeline",
]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class FragmentReport:
    """What the pipeline did to one CR fragment."""

    start: int
    stop: int
    partitions: list[str]
    exchange_copies: int
    reduction_copies: int
    reduction_temps: list[Partition]
    placement: PlacementStats
    intersections: IntersectionStats
    sync: SyncStats


@dataclass
class PassTiming:
    """Wall time, summary stats and output IR size of one pass."""

    name: str
    seconds: float
    stats: dict[str, float] = field(default_factory=dict)
    # The pipeline's size_fn of the pass's output IR.
    ir_stmts: int = 0

    def format(self) -> str:
        extra = " ".join(f"{k}={v:g}" for k, v in self.stats.items())
        return f"{self.name:<16} {self.seconds * 1e3:8.3f} ms  {extra}".rstrip()


@dataclass
class CompilationReport:
    fragments: list[FragmentReport] = field(default_factory=list)
    passes: list[PassTiming] = field(default_factory=list)

    @property
    def num_fragments(self) -> int:
        return len(self.fragments)

    def pass_stats(self, name: str) -> dict[str, float]:
        """Summary stats of the named pass (empty if it did not run)."""
        for t in self.passes:
            if t.name == name:
                return t.stats
        return {}

    def pass_table(self) -> str:
        """Per-pass timing/stats, the ``--explain-passes`` view."""
        total = sum(t.seconds for t in self.passes)
        lines = [f"pass pipeline: {len(self.passes)} passes, "
                 f"{total * 1e3:.3f} ms total, {self.num_fragments} fragment(s)"]
        lines += [f"  {t.format()}" for t in self.passes]
        return "\n".join(lines)

    def summary(self) -> str:
        lines = [f"control replication: {self.num_fragments} fragment(s)"]
        for i, f in enumerate(self.fragments):
            lines.append(
                f"  fragment {i}: stmts [{f.start}, {f.stop}); "
                f"partitions {f.partitions}; "
                f"{f.exchange_copies} exchange + {f.reduction_copies} reduction copies inserted; "
                f"{f.placement.hoisted} hoisted, "
                f"{f.placement.removed_redundant} redundant + {f.placement.removed_dead} dead removed; "
                f"{f.intersections.pair_sets} intersection pair sets; "
                f"{f.sync.p2p_copies} p2p copies, {f.sync.barriers} barriers, "
                f"{f.sync.collectives} collectives")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The pipeline IR
# ---------------------------------------------------------------------------

@dataclass
class FragmentIR:
    """One CR fragment as it flows through the per-fragment passes."""

    start: int
    stop: int
    stmts: list[Stmt]                 # original statements (pre-replication)
    usage: object | None = None       # FragmentUsage once replicated
    init: list[Stmt] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    final: list[Stmt] = field(default_factory=list)
    replicated: bool = False
    reduction_temps: list[Partition] = field(default_factory=list)
    num_exchange_copies: int = 0
    num_reduction_copies: int = 0
    placement: PlacementStats = field(default_factory=PlacementStats)
    intersections: IntersectionStats = field(default_factory=IntersectionStats)
    sync: SyncStats = field(default_factory=SyncStats)

    def parts(self) -> list[Stmt]:
        """The fragment's current statement sequence (one verifier view)."""
        if not self.replicated:
            return list(self.stmts)
        return [*self.init, *self.body, *self.final]

    def report(self) -> FragmentReport:
        return FragmentReport(
            start=self.start, stop=self.stop,
            partitions=([p.name for p in self.usage.partitions]
                        if self.usage else []),
            exchange_copies=self.num_exchange_copies,
            reduction_copies=self.num_reduction_copies,
            reduction_temps=self.reduction_temps,
            placement=self.placement, intersections=self.intersections,
            sync=self.sync)


@dataclass
class PipelineIR:
    """What flows between passes: the program plus per-fragment parts."""

    program: Program
    fragments: list[FragmentIR] = field(default_factory=list)
    invariants: set[str] = field(default_factory=set)
    assembled: bool = False


# ---------------------------------------------------------------------------
# Pass context and base class
# ---------------------------------------------------------------------------

@dataclass
class PassContext:
    """Options, instrumentation, and accumulated results of one pipeline run."""

    num_shards: int | None = None
    sync: str = "p2p"
    tracer: Tracer = NULL_TRACER
    verify: bool = True
    dump_after: frozenset[str] = frozenset()
    dump_sink: Callable[[str, str], None] | None = None
    timings: list[PassTiming] = field(default_factory=list)


class Pass:
    """One named IR-to-IR transformation with ``run(ir, ctx) -> ir``."""

    name: str = "?"
    # Invariant tags this pass establishes; the verifier checks them from
    # the pass boundary onward (see repro.core.verify).
    establishes: tuple[str, ...] = ()

    def run(self, ir: PipelineIR, ctx: PassContext) -> PipelineIR:
        raise NotImplementedError

    def stats(self, ir: PipelineIR) -> dict[str, float]:
        """Summary numbers for the pass table (after the pass has run)."""
        return {}


# ---------------------------------------------------------------------------
# The seven passes
# ---------------------------------------------------------------------------

class NormalizePass(Pass):
    """Projection normalization (§2.2): only identity projections remain."""

    name = "normalize"
    establishes = ("normalized",)

    def run(self, ir: PipelineIR, ctx: PassContext) -> PipelineIR:
        ir.program = normalize_projections(ir.program)
        return ir


class TargetPass(Pass):
    """Target-fragment identification (§2.2): find maximal CR fragments."""

    name = "target"
    establishes = ("fragments",)

    def run(self, ir: PipelineIR, ctx: PassContext) -> PipelineIR:
        fragments: list[Fragment] = find_fragments(ir.program)
        ir.fragments = [FragmentIR(start=f.start, stop=f.stop,
                                   stmts=list(f.stmts)) for f in fragments]
        return ir

    def stats(self, ir: PipelineIR) -> dict[str, float]:
        return {"fragments": len(ir.fragments)}


class DataReplicationPass(Pass):
    """Data replication (§3.1, §4.3): per-partition storage, explicit copies."""

    name = "replicate"
    establishes = ("replicated",)

    def run(self, ir: PipelineIR, ctx: PassContext) -> PipelineIR:
        for frag in ir.fragments:
            repl = replicate_data(Fragment(frag.start, frag.stop, frag.stmts))
            frag.init, frag.body, frag.final = repl.init, repl.body, repl.final
            frag.usage = repl.usage
            frag.reduction_temps = repl.reduction_temps
            frag.num_exchange_copies = repl.num_exchange_copies
            frag.num_reduction_copies = repl.num_reduction_copies
            frag.replicated = True
        return ir

    def stats(self, ir: PipelineIR) -> dict[str, float]:
        return {"exchange_copies": sum(f.num_exchange_copies for f in ir.fragments),
                "reduction_copies": sum(f.num_reduction_copies for f in ir.fragments)}


class CopyPlacementPass(Pass):
    """Copy placement (§3.2): LICM + both PRE dataflow passes."""

    name = "placement"

    def run(self, ir: PipelineIR, ctx: PassContext) -> PipelineIR:
        for frag in ir.fragments:
            frag.init, frag.body, frag.final, frag.placement = place_copies(
                frag.init, frag.body, frag.final)
        return ir

    def stats(self, ir: PipelineIR) -> dict[str, float]:
        return {"hoisted": sum(f.placement.hoisted for f in ir.fragments),
                "removed_redundant": sum(f.placement.removed_redundant
                                         for f in ir.fragments),
                "removed_dead": sum(f.placement.removed_dead
                                    for f in ir.fragments)}


class IntersectionPass(Pass):
    """Copy intersection optimization (§3.3): named pair sets, O(N²) -> O(N)."""

    name = "intersections"

    def run(self, ir: PipelineIR, ctx: PassContext) -> PipelineIR:
        for frag in ir.fragments:
            frag.init, frag.body, frag.final, frag.intersections = \
                optimize_intersections(frag.init, frag.body, frag.final)
        return ir

    def stats(self, ir: PipelineIR) -> dict[str, float]:
        return {"pair_sets": sum(f.intersections.pair_sets for f in ir.fragments),
                "copies_rewritten": sum(f.intersections.copies_rewritten
                                        for f in ir.fragments)}


class SynchronizationPass(Pass):
    """Synchronization insertion (§3.4) + scalar-reduction lowering (§4.4)."""

    name = "synchronization"
    establishes = ("synchronized",)

    def run(self, ir: PipelineIR, ctx: PassContext) -> PipelineIR:
        for frag in ir.fragments:
            frag.body, frag.sync = insert_synchronization(frag.body,
                                                          mode=ctx.sync)
        return ir

    def stats(self, ir: PipelineIR) -> dict[str, float]:
        return {"p2p_copies": sum(f.sync.p2p_copies for f in ir.fragments),
                "barriers": sum(f.sync.barriers for f in ir.fragments),
                "collectives": sum(f.sync.collectives for f in ir.fragments)}


class ShardPass(Pass):
    """Shard creation (§3.5): wrap bodies in shard launches, reassemble."""

    name = "shards"
    establishes = ("sharded",)

    def run(self, ir: PipelineIR, ctx: PassContext) -> PipelineIR:
        program = ir.program
        new_body: list[Stmt] = []
        cursor = 0
        for frag in ir.fragments:
            new_body.extend(program.body.stmts[cursor:frag.start])
            usage = frag.usage or fragment_usage(
                Fragment(frag.start, frag.stop, frag.stmts))
            shard_launch = create_shards(frag.body, usage.launch_domains,
                                         ctx.num_shards)
            new_body.extend([*frag.init, shard_launch, *frag.final])
            cursor = frag.stop
        new_body.extend(program.body.stmts[cursor:])
        ir.program = Program(body=Block(new_body),
                             scalars=dict(program.scalars), name=program.name)
        ir.assembled = True
        return ir

    def stats(self, ir: PipelineIR) -> dict[str, float]:
        return {"shard_launches": len(ir.fragments)}


PASS_NAMES = ("normalize", "target", "replicate", "placement",
              "intersections", "synchronization", "shards")


def default_passes(optimize_placement: bool = True,
                   optimize_intersection: bool = True) -> list[Pass]:
    """The standard pipeline; the two flags drop ablated passes."""
    passes: list[Pass] = [NormalizePass(), TargetPass(), DataReplicationPass()]
    if optimize_placement:
        passes.append(CopyPlacementPass())
    if optimize_intersection:
        passes.append(IntersectionPass())
    passes += [SynchronizationPass(), ShardPass()]
    return passes


# ---------------------------------------------------------------------------
# The pass manager
# ---------------------------------------------------------------------------

def run_pass_pipeline(ir, passes: Sequence[Pass], ctx: PassContext, *,
                      size_fn: Callable,
                      verify_fn: Callable | None = None,
                      dump_fn: Callable | None = None):
    """Run ``passes`` over any IR with the shared pass-manager protocol.

    This is the pass-running loop factored out of :class:`PassManager` so
    other pipelines (the runtime window compiler in
    :mod:`repro.runtime.window`) get the same per-pass timing, verifier
    hooks, and ``dump-after`` rendering over their own IR type;
    ``ctx.tracer`` gets a ``pass:<name>`` span per pass.  Each pass
    appends one :class:`PassTiming` to ``ctx.timings`` — the record a
    caller exports with :func:`export_pass_metrics`; the loop itself
    writes no metric.  ``verify_fn(ir, stage)`` runs after each pass when
    ``ctx.verify``; ``dump_fn(ir) -> str`` renders the IR for dumps;
    ``size_fn(ir) -> int`` gives the timing's ``ir_stmts``.
    """
    for p in passes:
        with ctx.tracer.span(f"pass:{p.name}", cat="compiler",
                             pid=PID_COMPILER):
            t0 = time.perf_counter()
            ir = p.run(ir, ctx)
            elapsed = time.perf_counter() - t0
        invariants = getattr(ir, "invariants", None)
        if invariants is not None:
            invariants.update(p.establishes)
        ctx.timings.append(PassTiming(p.name, elapsed, p.stats(ir),
                                      size_fn(ir)))
        if ctx.verify and verify_fn is not None:
            verify_fn(ir, p.name)
        if p.name in ctx.dump_after:
            text = dump_fn(ir) if dump_fn is not None else repr(ir)
            if ctx.dump_sink is not None:
                ctx.dump_sink(p.name, text)
            else:
                print(f"== IR after pass {p.name} ==\n{text}")
    return ir


def export_pass_metrics(registry: MetricsRegistry, prefix: str,
                        timings: Sequence[PassTiming]) -> None:
    """Write pass timings into ``registry``: per pass
    ``<prefix>_seconds_total``, ``<prefix>_runs_total``, the
    ``<prefix>_ir_stmts`` gauge and ``<prefix>_stat_total{pass,stat}``.
    The compiler exports its report as ``compiler_pass``, the executor its
    shards' window compiles as ``spmd_window_pass``."""
    for t in timings:
        registry.counter(f"{prefix}_seconds_total",
                         **{"pass": t.name}).inc(t.seconds)
        registry.counter(f"{prefix}_runs_total", **{"pass": t.name}).inc()
        registry.gauge(f"{prefix}_ir_stmts",
                       **{"pass": t.name}).set(t.ir_stmts)
        for key, value in t.stats.items():
            registry.counter(f"{prefix}_stat_total",
                             **{"pass": t.name, "stat": key}).inc(value)


def ir_size(ir: "PipelineIR | Program") -> int:
    """Statement count of the in-flight IR (or a bare :class:`Program`).

    Counts the program tree plus, mid-pipeline, the rewritten fragment
    parts (which live outside ``program.body`` until ``shards``
    reassembles them; unreplicated fragments still alias the program body
    and are not double-counted).
    """
    program = ir if isinstance(ir, Program) else ir.program
    n = sum(1 for _ in walk(program.body))
    if not getattr(ir, "assembled", True):
        for frag in ir.fragments:
            if frag.replicated:
                for s in frag.parts():
                    n += sum(1 for _ in walk(s))
    return n


class PassManager:
    """Run a pass sequence with timing, verification, tracing, and dumps."""

    def __init__(self, passes: Sequence[Pass] | None = None):
        self.passes: list[Pass] = list(passes) if passes is not None \
            else default_passes()

    def run(self, program: Program,
            ctx: PassContext | None = None) -> tuple[Program, CompilationReport]:
        ctx = ctx or PassContext()

        def dump_fn(ir):
            from .explain import format_pipeline_ir
            return format_pipeline_ir(ir)

        ir = run_pass_pipeline(
            PipelineIR(program=program), self.passes, ctx, size_fn=ir_size,
            verify_fn=lambda ir, stage: verify_ir(ir, stage=stage),
            dump_fn=dump_fn)
        report = CompilationReport(
            fragments=[f.report() for f in ir.fragments],
            passes=list(ctx.timings))
        return ir.program, report

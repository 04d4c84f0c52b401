"""The control replication compiler driver (paper §3).

``control_replicate`` runs the full pipeline on a control program:

1. projection normalization (§2.2),
2. target-fragment identification (§2.2),
3. data replication (§3.1) with reduction support (§4.3),
4. copy placement — LICM + PRE (§3.2),
5. copy intersection optimization (§3.3),
6. synchronization insertion (§3.4),
7. shard creation (§3.5) and scalar-reduction lowering (§4.4).

The result is a new program in which each CR fragment has become
``initialization; shard launch; finalization`` (paper Fig. 4d), plus a
:class:`CompilationReport` describing what every phase did.  Phases can be
individually disabled for the ablation benchmarks.

The pipeline itself lives in :mod:`repro.core.passes` as a pass-manager
(`PassManager` over seven named `Pass` objects with per-pass timing,
inter-pass verification, tracing, and dump hooks); this module is a thin
compatibility wrapper over it.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..obs import NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer
from .ir import Program
from .passes import (
    CompilationReport,
    FragmentReport,
    PassContext,
    PassManager,
    default_passes,
    export_pass_metrics,
)

__all__ = ["CompilationReport", "FragmentReport", "control_replicate"]


def control_replicate(program: Program, num_shards: int | None = None,
                      sync: str = "p2p", optimize_placement: bool = True,
                      optimize_intersection: bool = True, *,
                      tracer: Tracer = NULL_TRACER,
                      metrics: MetricsRegistry = NULL_METRICS,
                      verify: bool = True,
                      dump_after: Iterable[str] = (),
                      dump_sink: Callable[[str, str], None] | None = None,
                      ) -> tuple[Program, CompilationReport]:
    """Apply control replication to every eligible fragment of ``program``.

    ``sync`` selects ``"p2p"`` (default, phase-barrier point-to-point) or
    ``"barrier"`` (the naive Fig. 4c form).  The two ``optimize_*`` flags
    exist for ablation studies; disabling them preserves semantics.

    ``tracer`` records per-pass spans, ``metrics`` receives the report's
    per-pass time / IR-size / rewrite-count instruments
    (``compiler_pass_*``), ``verify`` runs the inter-pass IR verifier (on
    by default), and ``dump_after`` names passes whose output IR is
    rendered through ``dump_sink`` (or printed).
    """
    pm = PassManager(default_passes(optimize_placement=optimize_placement,
                                    optimize_intersection=optimize_intersection))
    ctx = PassContext(num_shards=num_shards, sync=sync, tracer=tracer,
                      verify=verify, dump_after=frozenset(dump_after),
                      dump_sink=dump_sink)
    program, report = pm.run(program, ctx)
    export_pass_metrics(metrics, "compiler_pass", report.passes)
    return program, report

"""Post-run profile analysis: where did each shard's time go?

Input is the shard rows of one SPMD run (any backend) as Chrome trace
events: the flight rings rendered by :func:`repro.obs.flight.chrome_trace`
— what a :class:`~repro.obs.trace.Tracer` the executor was given shows,
or ``ex.flight.to_chrome()["traceEvents"]`` of any run.  This module
turns them into the attribution the paper's evaluation argues from:

* **Wall-time buckets per shard.**  Shard rows nest (a
  ``replay:iteration`` contains the compute and copy phases of its
  window and the waits they block on; a ``replay:capture`` contains the
  tasks and copies it interprets), so rows are first flattened into
  non-overlapping *segments* — each instant of a shard's timeline is
  attributed to the deepest active row.  Segment self-times then sum
  into six buckets: ``compute`` (point tasks and window compute phases),
  ``copy`` (pairwise copies and window copy phases), ``sync_wait``
  (blocked on channels / barriers / collectives, and on ``stepped``
  descheduled while another shard ran), ``replay`` (capture and window
  compile), ``jit`` (compiled-window closure dispatch — the self-time of
  ``replay:iteration``), and ``launch`` (everything between rows: the
  interpreter walking the IR outside any loop, the per-statement
  overhead control replication amortizes).  By construction the buckets
  sum exactly to the shard's wall time.

* **Critical path.**  Segments form a DAG: program order within a shard,
  plus release edges into each ``sync_wait`` segment from the segment
  (on another shard) that finished last before the wait ended — the
  standard "who released this wait" attribution.  The longest chains
  through that DAG, named by the statement uid each span carries, are
  the paths a perf PR must shorten to matter.

* **Parallel efficiency.**  ``T_seq / (N · T_spmd)`` against the
  sequential interpreter, the paper's headline metric (Fig. 6-9) applied
  to our own functional executors.

The resulting :class:`ProfileReport` renders a human table, a JSON
document, and (via :meth:`ProfileReport.export_metrics`) gauges on a
:class:`~repro.obs.metrics.MetricsRegistry` so the whole report survives
the Prometheus text round-trip.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterable

from .metrics import MetricsRegistry
from .trace import PID_SPMD

__all__ = ["Segment", "ShardAttribution", "ChainStep", "Chain",
           "ProfileReport", "flatten_spans", "attribute_shards",
           "critical_chains", "build_profile", "BUCKETS"]

BUCKETS = ("compute", "copy", "sync_wait", "launch", "replay", "jit")

_CAT_TO_BUCKET = {"task": "compute", "copy": "copy", "wait": "sync_wait",
                  "replay": "replay", "jit": "jit"}

# Span timestamps are float µs; jitter below a nanosecond is noise.
_EPS = 1e-3

_UID_IN_LABEL = re.compile(r"copy(\d+)")


@dataclass
class Segment:
    """A non-overlapping slice of one shard's timeline."""

    name: str
    cat: str
    shard: int
    start: float  # µs
    end: float    # µs
    uid: int | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def bucket(self) -> str:
        return _CAT_TO_BUCKET.get(self.cat, "launch")


@dataclass
class ShardAttribution:
    """One shard's wall time split into the six buckets (sums exactly)."""

    shard: int
    wall_s: float
    buckets: dict[str, float]

    def to_dict(self) -> dict[str, Any]:
        return {"shard": self.shard, "wall_s": self.wall_s,
                "buckets": dict(self.buckets)}


@dataclass
class ChainStep:
    """A run of consecutive identical spans on one critical chain."""

    name: str
    uid: int | None
    shard: int
    count: int
    dur_s: float

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "uid": self.uid, "shard": self.shard,
                "count": self.count, "dur_s": self.dur_s}


@dataclass
class Chain:
    dur_s: float
    steps: list[ChainStep]

    def to_dict(self) -> dict[str, Any]:
        return {"dur_s": self.dur_s,
                "steps": [s.to_dict() for s in self.steps]}


def _span_uid(ev: dict[str, Any]) -> int | None:
    args = ev.get("args") or {}
    for key in ("uid", "loop"):
        if key in args:
            return int(args[key])
    m = _UID_IN_LABEL.search(ev.get("name", ""))
    return int(m.group(1)) if m else None


def flatten_spans(events: Iterable[dict[str, Any]],
                  pid: int = PID_SPMD) -> dict[int, list[Segment]]:
    """Flatten each shard's nested spans into non-overlapping segments.

    Spans on one shard thread are properly nested (they come from one
    interpreter); each segment carries the deepest span active over its
    extent, so container self-time (e.g. replay dispatch around the waits
    it yields) becomes its own segments.
    """
    by_tid: dict[int, list[dict[str, Any]]] = {}
    for ev in events:
        if ev.get("ph") == "X" and ev.get("pid") == pid:
            by_tid.setdefault(int(ev.get("tid", 0)), []).append(ev)

    out: dict[int, list[Segment]] = {}
    for tid, spans in by_tid.items():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        segments: list[Segment] = []
        stack: list[list] = []  # [event, cursor]

        def emit(entry: list, upto: float) -> None:
            ev, cursor = entry
            if upto > cursor + _EPS:
                segments.append(Segment(
                    name=ev["name"], cat=ev.get("cat", ""), shard=tid,
                    start=cursor, end=upto, uid=_span_uid(ev)))
            entry[1] = upto

        def close_through(t: float) -> None:
            while stack:
                top = stack[-1]
                end = top[0]["ts"] + top[0]["dur"]
                if end > t + _EPS:
                    break
                emit(top, end)
                stack.pop()
                if stack:
                    stack[-1][1] = max(stack[-1][1], end)

        for ev in spans:
            close_through(ev["ts"])
            if stack:
                emit(stack[-1], ev["ts"])
            stack.append([ev, ev["ts"]])
        close_through(float("inf"))
        segments.sort(key=lambda s: s.start)
        out[tid] = segments
    return out


def attribute_shards(segments_by_shard: dict[int, list[Segment]]
                     ) -> list[ShardAttribution]:
    """Bucket every shard's wall time; the residual is ``launch``."""
    out = []
    for shard in sorted(segments_by_shard):
        segs = segments_by_shard[shard]
        if not segs:
            continue
        wall_us = max(s.end for s in segs) - min(s.start for s in segs)
        buckets = {b: 0.0 for b in BUCKETS}
        covered = 0.0
        for s in segs:
            buckets[s.bucket] += s.dur / 1e6
            covered += s.dur
        buckets["launch"] += max(0.0, (wall_us - covered)) / 1e6
        out.append(ShardAttribution(shard=shard, wall_s=wall_us / 1e6,
                                    buckets=buckets))
    return out


def _release_predecessors(segments_by_shard: dict[int, list[Segment]]):
    """For each sync-wait segment, the cross-shard segment that released it."""
    ends: dict[int, list[tuple[float, Segment]]] = {}
    for shard, segs in segments_by_shard.items():
        ends[shard] = sorted(((s.end, s) for s in segs), key=lambda p: p[0])
    releases: dict[int, Segment] = {}
    for shard, segs in segments_by_shard.items():
        for seg in segs:
            if seg.bucket != "sync_wait":
                continue
            best: Segment | None = None
            for other, lst in ends.items():
                if other == shard:
                    continue
                i = bisect_right(lst, seg.end + _EPS, key=lambda p: p[0]) - 1
                if i >= 0 and (best is None or lst[i][0] > best.end):
                    best = lst[i][1]
            if best is not None:
                releases[id(seg)] = best
    return releases


def critical_chains(segments_by_shard: dict[int, list[Segment]],
                    top_k: int = 3) -> list[Chain]:
    """The ``top_k`` longest dependency chains through the segment DAG."""
    all_segs: list[Segment] = [s for segs in segments_by_shard.values()
                               for s in segs]
    if not all_segs:
        return []
    prev_on_shard: dict[int, Segment] = {}
    preds: dict[int, list[Segment]] = {}
    for shard in sorted(segments_by_shard):
        prev = None
        for seg in segments_by_shard[shard]:
            if prev is not None:
                preds.setdefault(id(seg), []).append(prev)
            prev = seg
    releases = _release_predecessors(segments_by_shard)
    for seg_id, rel in releases.items():
        preds.setdefault(seg_id, []).append(rel)

    order = sorted(all_segs, key=lambda s: (s.end, s.start))
    chains: list[Chain] = []
    used: set[int] = set()
    for _ in range(max(1, top_k)):
        dist: dict[int, float] = {}
        via: dict[int, Segment | None] = {}
        best_tail: Segment | None = None
        for seg in order:
            if id(seg) in used:
                continue
            d, p = seg.dur, None
            for pred in preds.get(id(seg), ()):
                if id(pred) in used or id(pred) not in dist:
                    continue
                if dist[id(pred)] + seg.dur > d:
                    d, p = dist[id(pred)] + seg.dur, pred
            dist[id(seg)] = d
            via[id(seg)] = p
            if best_tail is None or d > dist[id(best_tail)]:
                best_tail = seg
        if best_tail is None or dist[id(best_tail)] <= 0:
            break
        path: list[Segment] = []
        node: Segment | None = best_tail
        while node is not None:
            path.append(node)
            node = via[id(node)]
        path.reverse()
        used.update(id(s) for s in path)
        chains.append(Chain(dur_s=dist[id(best_tail)] / 1e6,
                            steps=_collapse(path)))
    return chains


def _collapse(path: list[Segment]) -> list[ChainStep]:
    steps: list[ChainStep] = []
    for seg in path:
        last = steps[-1] if steps else None
        if (last is not None and last.name == seg.name
                and last.uid == seg.uid and last.shard == seg.shard):
            last.count += 1
            last.dur_s += seg.dur / 1e6
        else:
            steps.append(ChainStep(name=seg.name, uid=seg.uid,
                                   shard=seg.shard, count=1,
                                   dur_s=seg.dur / 1e6))
    return steps


# ---------------------------------------------------------------------------
# The full report
# ---------------------------------------------------------------------------

@dataclass
class ProfileReport:
    app: str
    backend: str
    num_shards: int
    shards: list[ShardAttribution]
    chains: list[Chain]
    t_seq_s: float | None = None
    t_spmd_s: float | None = None
    replay: dict[str, int] = field(default_factory=dict)
    window: dict[str, int] = field(default_factory=dict)
    copy_engine: dict[str, int] = field(default_factory=dict)
    copy_table: list[dict[str, Any]] = field(default_factory=list)
    intersections: dict[str, Any] = field(default_factory=dict)
    compiler_passes: list[dict[str, Any]] = field(default_factory=list)
    # Records the rings overwrote before they were read: a profile with
    # any covers only the tail of the run.
    dropped_records: int = 0

    @property
    def critical_path(self) -> Chain | None:
        return self.chains[0] if self.chains else None

    @property
    def parallel_efficiency(self) -> float | None:
        if not self.t_seq_s or not self.t_spmd_s or self.num_shards <= 0:
            return None
        return self.t_seq_s / (self.num_shards * self.t_spmd_s)

    # -- exports ------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "app": self.app,
            "backend": self.backend,
            "num_shards": self.num_shards,
            "t_seq_s": self.t_seq_s,
            "t_spmd_s": self.t_spmd_s,
            "parallel_efficiency": self.parallel_efficiency,
            "shards": [a.to_dict() for a in self.shards],
            "critical_path": (self.critical_path.to_dict()
                              if self.critical_path else None),
            "chains": [c.to_dict() for c in self.chains],
            "replay": dict(self.replay),
            "window": dict(self.window),
            "copy_engine": dict(self.copy_engine),
            "copy_table": list(self.copy_table),
            "intersections": dict(self.intersections),
            "compiler": {"passes": list(self.compiler_passes)},
            "dropped_records": self.dropped_records,
        }

    def export_metrics(self, metrics: MetricsRegistry) -> None:
        """Mirror the report's numbers as gauges, for Prometheus scrape."""
        for a in self.shards:
            lab = {"shard": str(a.shard)}
            metrics.gauge("profile_shard_wall_seconds", **lab).set(a.wall_s)
            for bucket, secs in a.buckets.items():
                metrics.gauge("profile_bucket_seconds", bucket=bucket,
                              **lab).set(secs)
        if self.t_seq_s is not None:
            metrics.gauge("profile_sequential_seconds").set(self.t_seq_s)
        if self.t_spmd_s is not None:
            metrics.gauge("profile_spmd_seconds").set(self.t_spmd_s)
        eff = self.parallel_efficiency
        if eff is not None:
            metrics.gauge("profile_parallel_efficiency").set(eff)
        if self.critical_path is not None:
            metrics.gauge("profile_critical_path_seconds").set(
                self.critical_path.dur_s)
        for key, n in self.replay.items():
            metrics.gauge("profile_replay_iterations", outcome=key).set(n)
        for key, n in self.window.items():
            metrics.gauge("profile_window_jit", stat=key).set(n)
        for key, n in self.copy_engine.items():
            metrics.gauge("profile_copy_engine", stat=key).set(n)

    def format(self) -> str:
        lines = [f"profile: {self.app} on {self.backend} "
                 f"x {self.num_shards} shard(s)"]
        if self.dropped_records:
            lines.append(f"  {self.dropped_records} flight records were "
                         f"overwritten: this covers only the run's tail")
        if self.t_seq_s is not None and self.t_spmd_s is not None:
            eff = self.parallel_efficiency
            lines.append(
                f"  T_seq {self.t_seq_s:.4f}s   T_spmd {self.t_spmd_s:.4f}s"
                f"   parallel efficiency T_seq/(N*T_spmd) = {eff * 100:.1f}%")
        header = (f"  {'shard':>5} {'wall(s)':>9} "
                  + " ".join(f"{b:>10}" for b in BUCKETS))
        lines.append(header)
        for a in self.shards:
            row = (f"  {a.shard:>5} {a.wall_s:>9.4f} "
                   + " ".join(f"{a.buckets[b]:>10.4f}" for b in BUCKETS))
            lines.append(row)
        for rank, chain in enumerate(self.chains):
            title = "critical path" if rank == 0 else f"chain #{rank + 1}"
            lines.append(f"  {title} ({chain.dur_s:.4f}s):")
            for s in chain.steps:
                uid = f" (uid {s.uid})" if s.uid is not None else ""
                lines.append(f"    {s.count:>4}x {s.name}{uid} "
                             f"on shard {s.shard}  {s.dur_s:.4f}s")
        if self.replay:
            lines.append("  replay: "
                         + ", ".join(f"{v} {k}" for k, v in
                                     sorted(self.replay.items())))
        if self.window.get("compiles"):
            w = self.window
            lines.append(
                f"  window jit: {w['compiles']} window(s) compiled, "
                f"{w['ops_recorded']} ops recorded -> {w['ops_lowered']} "
                f"lowered -> {w['closures']} closures")
        if self.copy_engine:
            ce = self.copy_engine
            lines.append(
                f"  copy engine: {ce.get('fused_copies', 0)} block copies "
                f"({ce.get('fused_pairs', 0)} pairs), reduction folds "
                f"{ce.get('lockfree_folds', 0)} lock-free / "
                f"{ce.get('locked_folds', 0)} locked")
        if self.copy_table:
            lines.append(f"  {'shard':>5} {'copies':>8} {'elements':>10} "
                         f"{'bytes':>12}")
            for row in self.copy_table:
                lines.append(f"  {row['shard']:>5} {row['copies']:>8} "
                             f"{row['elements']:>10} {row['bytes']:>12}")
        isect = self.intersections
        if isect:
            lines.append(f"  intersections: {isect.get('computed', 0)} "
                         f"computed")
            for ps in isect.get("pair_sets", ()):
                lines.append(f"    {ps['name']}: {ps['nonempty_pairs']} "
                             f"pairs, {ps['elements']} elements")
        if self.compiler_passes:
            lines.append("  compiler passes:")
            for p in self.compiler_passes:
                lines.append(f"    {p['name']:<16} {p['seconds'] * 1e3:8.3f} ms")
        return "\n".join(lines)


def _copy_table_from_metrics(metrics: MetricsRegistry | None
                             ) -> list[dict[str, Any]]:
    if metrics is None or not metrics.enabled:
        return []
    per_shard: dict[str, dict[str, float]] = {}
    wanted = {"spmd_copies_total": "copies",
              "spmd_elements_copied_total": "elements",
              "spmd_bytes_copied_total": "bytes"}
    for name, labels, inst in metrics.items():
        col = wanted.get(name)
        if col is not None and "shard" in labels:
            per_shard.setdefault(labels["shard"], {})[col] = inst.value
    return [{"shard": int(shard),
             "copies": int(row.get("copies", 0)),
             "elements": int(row.get("elements", 0)),
             "bytes": int(row.get("bytes", 0))}
            for shard, row in sorted(per_shard.items(),
                                     key=lambda kv: int(kv[0]))]


def build_profile(events: Iterable[dict[str, Any]], *,
                  app: str = "", backend: str = "", num_shards: int,
                  t_seq_s: float | None = None,
                  executor: Any | None = None,
                  compile_report: Any | None = None,
                  metrics: MetricsRegistry | None = None,
                  top_k: int = 3) -> ProfileReport:
    """Analyze one run's timeline into a :class:`ProfileReport`."""
    events = list(events)
    segments = flatten_spans(events)
    shards = attribute_shards(segments)
    if not shards:
        raise ValueError(
            "no shard spans found in the trace: pass a tracer the executor "
            "was given, or the executor's flight.to_chrome() rows")
    chains = critical_chains(segments, top_k=top_k)
    t_spmd_s = max(a.wall_s for a in shards)
    report = ProfileReport(app=app, backend=backend, num_shards=num_shards,
                           shards=shards, chains=chains, t_seq_s=t_seq_s,
                           t_spmd_s=t_spmd_s,
                           copy_table=_copy_table_from_metrics(metrics),
                           dropped_records=sum(
                               ev["args"]["dropped"] for ev in events
                               if ev.get("name") == "flight:dropped"))
    if executor is not None:
        report.replay = {
            "hits": int(getattr(executor, "replay_hits", 0)),
            "misses": int(getattr(executor, "replay_misses", 0)),
            "guard_fallbacks": int(getattr(executor,
                                           "replay_guard_fallbacks", 0)),
        }
        report.window = {
            "ops_recorded": int(getattr(executor,
                                        "window_ops_recorded", 0)),
            "ops_lowered": int(getattr(executor, "window_ops_lowered", 0)),
            "closures": int(getattr(executor, "window_closures", 0)),
            "compiles": int(getattr(executor, "window_compiles", 0)),
        }
        report.copy_engine = {
            "fused_copies": int(getattr(executor, "fused_copies", 0)),
            "fused_pairs": int(getattr(executor, "fused_pairs", 0)),
            "lockfree_folds": int(getattr(executor, "lockfree_folds", 0)),
            "locked_folds": int(getattr(executor, "locked_folds", 0)),
        }
        pair_sets = [{"name": name,
                      "nonempty_pairs": len(res.pairs),
                      "elements": res.table.count}
                     for name, res in
                     sorted(getattr(executor, "pair_sets", {}).items())]
        report.intersections = {
            "computed": int(getattr(executor, "intersections_computed", 0)),
            "pair_sets": pair_sets,
        }
    if compile_report is not None:
        report.compiler_passes = [
            {"name": t.name, "seconds": t.seconds, **t.stats}
            for t in compile_report.passes]
    return report

"""Benchmark-side spans: the ledger's only timing primitive.

Every call the ledger makes into a public function of ``repro`` runs
inside :meth:`Spans.span`, so one mechanism yields both the numbers
(``durations()``) and, on a traced run, the span list written to
``--out``.  A span is ``name, start, end, parent, workload``; spans stay
in memory until the child process reports.  Spans *inside* ``src/`` are
a later issue — the repo's own ``Tracer`` covers those on traced runs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Spans:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        rec = {"id": len(self.records), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload,
               "start": time.perf_counter(), "end": None}
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, parent: int) -> dict[str, float]:
        """``name -> seconds`` of the direct children of span ``parent``."""
        return {r["name"]: r["end"] - r["start"]
                for r in self.records if r["parent"] == parent}


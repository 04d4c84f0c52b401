"""Compare two ledgers written by ``run.py --out``: ``compare.py A.json B.json``.

For every workload and end-to-end metric it prints both values, the
ratio B / A (A is the base), the metric's bound from ``BENCHMARK.json``
and a verdict:

``ok``          B is no worse than A by more than the bound;
``worse``       B is worse by more than the bound and more than the spread;
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so "unchanged" cannot be claimed.

What is compared is the lower quartile of ``n`` samples, so the spread
that matters is the one such quartiles show from run to run: about
``1.36 * IQR / sqrt(n)`` of the samples (a quartile's standard error is
``1.36 sigma / sqrt(n)`` and an IQR spans ``1.35 sigma``, twice over).

A ``worse`` cell names the layer whose time moved most.  Counts that
differ between the two ledgers are listed (they should repeat exactly on
one commit).  Exits non-zero on any ``worse`` cell or any rise in
``fail_share``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SECONDS = {"s": 1.0, "ms": 1e-3}
# Whole-run totals and baselines: they restate the end-to-end cell.
NOT_A_LAYER = ("spmd.cold_run_s", "spmd.long_run_s", "sequential.", "host.")


def verdict(a: dict, b: dict, bound: float, better: str) -> tuple[str, float]:
    ratio = b["value"] / a["value"]
    worse_by = ratio - 1 if better == "lower" else 1 - ratio
    noise = max(1.36 * m["iqr"] / math.sqrt(m["n"]) / abs(m["median"])
                for m in (a, b))
    if worse_by > max(bound, noise):
        return "worse", ratio
    return ("unresolved" if noise > bound else "ok"), ratio


def moved_most(a: dict, b: dict, units: dict[str, str]) -> str:
    """The layer metric whose time grew most from ledger A to B."""
    best, best_delta = "no layer time grew", 0.0
    for key in sorted(set(a) & set(b)):
        scale = SECONDS.get(units.get(key, ""))
        if scale is None or key.startswith(NOT_A_LAYER):
            continue
        delta = (b[key]["value"] - a[key]["value"]) * scale
        if delta > best_delta:
            best_delta = delta
            best = (f"{key} {a[key]['value']:.6g} -> {b[key]['value']:.6g} "
                    f"{units[key]}")
    return best


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        ledger_a = json.load(fh)["workloads"]
    with open(argv[1]) as fh:
        ledger_b = json.load(fh)["workloads"]
    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    bad = 0
    print(f"{'workload':<20}{'metric':<13}{'A':>12}{'B':>12}{'B/A':>8}"
          f"{'bound':>7}  verdict")
    for name in ledger_a:
        if name not in ledger_b:
            print(f"{name:<20}only in {argv[0]}")
            continue
        row_a, row_b = ledger_a[name], ledger_b[name]
        ma, mb = row_a["metrics"], row_b["metrics"]
        for spec in contract["end_to_end"]:
            key = spec["name"]
            if key not in ma or key not in mb:
                continue
            what, ratio = verdict(ma[key], mb[key], spec["bound"],
                                  spec["better"])
            line = (f"{name:<20}{key:<13}{ma[key]['value']:>12.5g}"
                    f"{mb[key]['value']:>12.5g}{ratio:>8.3f}"
                    f"{spec['bound'] * 100:>6.0f}%  {what}")
            if what == "worse":
                bad += 1
                line += f"  <- {moved_most(ma, mb, units)}"
            print(line)
        fa, fb = row_a["fail_share"], row_b["fail_share"]
        rose = fb > fa
        bad += rose
        print(f"{name:<20}{'fail_share':<13}{fa:>12.3f}{fb:>12.3f}"
              f"{'':>8}{'0 abs':>7}  {'worse' if rose else 'ok'}")
        for key in sorted(set(ma) & set(mb)):
            if units.get(key) == "count" and ma[key]["value"] != mb[key]["value"]:
                print(f"{name:<20}count {key}: {ma[key]['value']:g} -> "
                      f"{mb[key]['value']:g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Checks of the ledger itself; not part of tier-1.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q``.
"""

import copy
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(script: str, *args: str, cwd: Path = ROOT):
    return subprocess.run([sys.executable, str(HERE / script), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    t0 = time.perf_counter()
    proc = run("run.py", "--smoke", "--trace", "--out", str(out))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60, f"smoke took {elapsed:.0f}s"
    return out


def test_contract_is_well_formed(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in contract[k]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in contract["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in contract["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in contract["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.fullmatch(m["unit"])
               for m in contract["end_to_end"] + contract["per_layer"])
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_contract_gates_ledger_workloads(contract):
    """The contract's rows are ledger rows, in ledger order; the ledger
    has two more (README, "Workloads")."""
    gated = [w["name"] for w in contract["workloads"]]
    assert gated == [n for n in WORKLOADS if n in gated]
    assert set(WORKLOADS) - set(gated) == {"pennant_collective", "sim_fig7"}


def test_smoke_emits_exactly_the_declared_metrics(smoke, contract):
    rows = json.loads(smoke.read_text())["workloads"]
    declared = {m["name"]
                for m in contract["end_to_end"] + contract["per_layer"]}
    emitted = {k for row in rows.values() for k in row["metrics"]}
    assert emitted == declared, (sorted(declared - emitted),
                                 sorted(emitted - declared))
    end_to_end = {m["name"] for m in contract["end_to_end"]}
    for name, row in rows.items():
        assert row["failed"] == 0, (name, row["errors"])
        assert end_to_end <= set(row["metrics"]), name


def test_smoke_leaves_spans_of_every_workload(smoke):
    spans = json.loads(smoke.read_text())["spans"]
    assert {s["workload"] for s in spans} == set(WORKLOADS)
    by_id = {(s["workload"], s["id"]): s for s in spans}
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = by_id[(s["workload"], s["parent"])]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_compare_against_itself_is_all_ok(smoke):
    proc = run("compare.py", str(smoke), str(smoke))
    assert proc.returncode == 0, proc.stdout
    assert "worse" not in proc.stdout and "unresolved" not in proc.stdout
    assert "count " not in proc.stdout


def test_compare_names_a_synthetic_slowdown(smoke, contract, tmp_path):
    ledger = json.loads(smoke.read_text())
    slow = copy.deepcopy(ledger)
    cell = slow["workloads"]["stencil_compute"]["metrics"]
    bound = {m["name"]: m["bound"] for m in contract["end_to_end"]}["run_s"]
    for key in ("run_s", "spmd.capture_s"):
        for field in ("value", "median", "min", "max"):
            cell[key][field] *= 1 + 2 * bound
    slow_path = tmp_path / "slow.json"
    slow_path.write_text(json.dumps(slow))
    proc = run("compare.py", str(smoke), str(slow_path))
    assert proc.returncode == 1
    worse = [ln for ln in proc.stdout.splitlines() if ln.endswith("worse")
             or "  worse  " in ln]
    assert len(worse) == 1, proc.stdout
    assert worse[0].startswith("stencil_compute") and "run_s" in worse[0]
    assert "spmd.capture_s" in worse[0]


def test_compare_fails_on_a_rise_in_fail_share(smoke, tmp_path):
    ledger = json.loads(smoke.read_text())
    ledger["workloads"]["circuit_reduce"]["fail_share"] = 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(ledger))
    assert run("compare.py", str(smoke), str(bad)).returncode == 1


def test_contract_mode_prints_one_result_line(contract):
    base = ["--workload", "circuit_reduce", "--seed", "3",
            "--seconds", "1"]
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run("run.py", *base, "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 6
        assert list(result["metrics"]) == [m["name"] for m in contract[key]]
        if key == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not list(ROOT.glob(".ledger-*"))


def test_no_result_without_the_program(tmp_path):
    """In a tree that holds only the benchmark, it must fail, not report."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "circuit_reduce", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""End-to-end integration: every application, every execution path.

The correctness contract of control replication (paper §3): for any legal
program, the SPMD execution of the transformed program is observationally
equivalent to the sequential execution of the original.  These tests
exercise it across applications, shard counts, drivers, synchronization
modes, and with each optimization phase disabled.
"""

import numpy as np
import pytest

from repro.apps.circuit import CircuitProblem
from repro.apps.miniaero import MiniAeroProblem
from repro.apps.pennant import PennantProblem
from repro.apps.stencil import StencilProblem
from repro.core import PairwiseCopy, control_replicate, walk
from repro.runtime import SequentialExecutor, SPMDExecutor

APPS = {
    "stencil": lambda: StencilProblem(n=24, radius=2, tiles=4, steps=3),
    "circuit": lambda: CircuitProblem(pieces=4, nodes_per_piece=25,
                                      wires_per_piece=40, steps=3),
    "pennant": lambda: PennantProblem(nx=8, ny=8, pieces=4, steps=3),
    "miniaero": lambda: MiniAeroProblem(shape=(6, 6, 6), tiles=4, steps=2),
}

TOL = dict(rtol=1e-11, atol=1e-13)


def assert_state_close(got, want, label):
    for key in want:
        assert np.allclose(got[key], want[key], **TOL), \
            f"{label}: field {key} diverged by {np.abs(got[key] - want[key]).max()}"


@pytest.mark.parametrize("app_name", list(APPS))
class TestEquivalenceMatrix:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_stepped(self, app_name, shards):
        p = APPS[app_name]()
        seq, seq_scalars, _ = p.run_sequential()
        cr, cr_scalars, _, _ = p.run_control_replicated(shards, mode="stepped",
                                                        seed=shards)
        assert_state_close(cr, seq, f"{app_name}/{shards}")

    def test_threaded(self, app_name):
        p = APPS[app_name]()
        seq, _, _ = p.run_sequential()
        cr, _, _, _ = p.run_control_replicated(4, mode="threaded")
        assert_state_close(cr, seq, f"{app_name}/threaded")

    def test_barrier_sync(self, app_name):
        p = APPS[app_name]()
        seq, _, _ = p.run_sequential()
        cr, _, _, _ = p.run_control_replicated(4, sync="barrier", seed=2)
        assert_state_close(cr, seq, f"{app_name}/barrier")

    def test_ablation_no_placement(self, app_name):
        p = APPS[app_name]()
        seq, _, _ = p.run_sequential()
        cr, _, _, _ = p.run_control_replicated(2, optimize_placement=False)
        assert_state_close(cr, seq, f"{app_name}/no-placement")

    def test_ablation_no_intersections(self, app_name):
        p = APPS[app_name]()
        seq, _, _ = p.run_sequential()
        cr, _, ex, _ = p.run_control_replicated(2, optimize_intersection=False)
        assert_state_close(cr, seq, f"{app_name}/no-intersections")

    def test_intersection_opt_reduces_copy_work(self, app_name):
        p = APPS[app_name]()
        _, _, ex_opt, _ = p.run_control_replicated(2)
        p2 = APPS[app_name]()
        _, _, ex_raw, _ = p2.run_control_replicated(2, optimize_intersection=False)
        # Same data volume either way; the optimization skips empty pairs.
        assert ex_opt.elements_copied == ex_raw.elements_copied
        assert ex_opt.copies_performed <= ex_raw.copies_performed


@pytest.mark.parametrize("app_name", list(APPS))
class TestFailureInjection:
    """Compiler-inserted synchronization is load-bearing on every app."""

    def test_stripped_sync_diverges_somewhere(self, app_name):
        p = APPS[app_name]()
        seq, _, _ = p.run_sequential()
        prog, _ = control_replicate(p.build_program(), num_shards=4)
        for s in walk(prog.body):
            if isinstance(s, PairwiseCopy):
                s.sync_mode = "none"
        diverged = False
        for seed in range(10):
            ex = SPMDExecutor(num_shards=4, mode="stepped", seed=seed,
                              instances=p.fresh_instances(),
                              validate_replication=False)
            ex.run(prog)
            got = p.extract_state(ex.instances)
            if any(not np.allclose(got[k], seq[k], **TOL) for k in seq):
                diverged = True
                break
        assert diverged, (
            f"{app_name}: stripping synchronization was not observable in "
            f"10 adversarial schedules — sync may be redundant")


class TestDeterminism:
    def test_stepped_schedules_all_agree(self):
        p = APPS["miniaero"]()
        results = []
        for seed in (0, 5, 9):
            cr, _, _, _ = p.run_control_replicated(4, seed=seed)
            results.append(cr["u"])
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[1], results[2])

    def test_shard_count_does_not_change_stencil_bits(self):
        p = APPS["stencil"]()
        outs = []
        for shards in (1, 2, 4):
            cr, _, _, _ = p.run_control_replicated(shards)
            outs.append(cr["out"])
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[1], outs[2])


class TestIntersectionFailureInjection:
    """DESIGN.md §5: deleting intersection pairs must also be observable —
    the dynamically computed pair sets are load-bearing data movement."""

    def test_dropped_pair_corrupts_halo(self):
        from dataclasses import replace

        from repro.core.ir import ComputeIntersections
        from repro.regions.interval_join import PairTable
        from repro.runtime.intersection_exec import compute_intersections

        p = APPS["stencil"]()
        seq, _, _ = p.run_sequential()
        prog, _ = control_replicate(p.build_program(), num_shards=2)

        class LossyExecutor(SPMDExecutor):
            def _stmt(self, stmt):
                if isinstance(stmt, ComputeIntersections):
                    res = compute_intersections(stmt.src, stmt.dst)
                    # Drop one genuine cross-color pair's rows from the
                    # table.
                    victim = next((k for k in res.pairs if k[0] != k[1]),
                                  None)
                    assert victim is not None
                    table = PairTable.from_mapping(
                        {k: v for k, v in res.pairs.items() if k != victim})
                    assert len(table) == len(res.pairs) - 1
                    self.pair_sets[stmt.name] = replace(res, table=table)
                else:
                    super()._stmt(stmt)

        ex = LossyExecutor(num_shards=2, mode="stepped",
                           instances=p.fresh_instances())
        ex.run(prog)
        got = p.extract_state(ex.instances)
        assert not np.array_equal(got["out"], seq["out"]), \
            "dropping an intersection pair must corrupt the halo exchange"

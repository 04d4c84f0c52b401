"""Tests for the SPMD executor's distributed instance management."""

import numpy as np
import pytest

from repro.core import ProgramBuilder, control_replicate
from repro.core.shards import shard_owned_colors
from repro.regions import PhysicalInstance, ispace, partition_block, region
from repro.runtime import SPMDExecutor, procs_available
from repro.tasks import R, RW, task


@task(privileges=[RW("v")], name="incr")
def incr(A):
    A.write("v")[:] += 1.0


@pytest.fixture
def env():
    Rg = region(ispace(size=12), {"v": np.float64, "w": np.float64}, name="R")
    P = partition_block(Rg, 3, name="P")
    I = ispace(size=3)
    return Rg, P, I


class TestInstances:
    def test_one_instance_per_color(self, env):
        Rg, P, I = env
        b = ProgramBuilder()
        b.launch(incr, I, P)
        prog, _ = control_replicate(b.build(), num_shards=3)
        ex = SPMDExecutor(num_shards=3, instances={Rg.uid: PhysicalInstance(Rg)})
        ex.run(prog)
        colors = {c for (puid, c) in ex.dist if puid == P.uid}
        assert colors == {0, 1, 2}
        for c in range(3):
            inst = ex.dist[(P.uid, c)]
            assert inst.num_points == 4
            assert np.all(inst.fields["v"] == 1.0)

    @pytest.mark.parametrize(
        "mode", ["stepped"] + (["procs"] if procs_available() else []))
    def test_shard_colours_are_slices_of_one_block(self, mode):
        """A shard's colours of P are adjacent slices, in colour order, of
        one array per field; no array is shared across shards."""
        Rg = region(ispace(size=24), {"v": np.float64, "w": np.int32},
                    name="RB")
        P = partition_block(Rg, 6, name="PB")
        b = ProgramBuilder()
        b.launch(incr, ispace(size=6), P)
        prog, _ = control_replicate(b.build(), num_shards=2)
        ex = SPMDExecutor(num_shards=2, mode=mode,
                          instances={Rg.uid: PhysicalInstance(Rg)})
        ex.run(prog)
        assert np.all(ex.instances[Rg.uid].fields["v"] == 1.0)
        owned = [shard_owned_colors(6, 2, x) for x in range(2)]
        shard_blocks = []
        for colors in owned:
            blocks, lo, _ = ex.block_rows(P[colors[0]])
            assert lo == 0
            for field, block in blocks.items():
                arrs = [ex.dist[(P.uid, c)].fields[field] for c in colors]
                assert block.shape[0] == sum(a.shape[0] for a in arrs)
                assert arrs[0].ctypes.data == block.ctypes.data
                for a, nxt in zip(arrs, arrs[1:]):
                    assert a.ctypes.data + a.nbytes == nxt.ctypes.data
                assert all(np.shares_memory(a, block) for a in arrs)
            for c in colors:
                assert ex.block_rows(P[c])[0] is blocks
            shard_blocks.append(blocks)
        for field in ("v", "w"):
            assert not np.shares_memory(shard_blocks[0][field],
                                        shard_blocks[1][field])

    def test_instances_reused_across_fragment_reexecution(self, env):
        """Running two fragments over the same partitions reuses storage
        (refreshed by init copies each time)."""
        Rg, P, I = env
        b = ProgramBuilder()
        b.launch(incr, I, P)

        @task(privileges=[R("v")], name="peek")
        def peek(A):
            return float(A.read("v").sum())

        b.call(peek, [Rg], result="mid")
        b.launch(incr, I, P)
        prog, report = control_replicate(b.build(), num_shards=3)
        assert report.num_fragments == 2
        ex = SPMDExecutor(num_shards=3, instances={Rg.uid: PhysicalInstance(Rg)})
        scalars = ex.run(prog)
        assert scalars["mid"] == 12.0
        # One instance per (partition, color) despite two fragments.
        assert len([k for k in ex.dist if k[0] == P.uid]) == 3
        assert np.all(ex.instances[Rg.uid].fields["v"] == 2.0)

    def test_untouched_fields_not_copied_back(self, env):
        """Finalization is field-precise: w is never written, so the root
        keeps its original w even though instances were allocated."""
        Rg, P, I = env
        root = PhysicalInstance(Rg)
        root.fields["w"][:] = 7.0
        b = ProgramBuilder()
        b.launch(incr, I, P)
        prog, _ = control_replicate(b.build(), num_shards=2)
        ex = SPMDExecutor(num_shards=2, instances={Rg.uid: root})
        ex.run(prog)
        assert np.all(root.fields["w"] == 7.0)
        assert np.all(root.fields["v"] == 1.0)

    def test_reduction_temp_instances_exist_but_not_finalized(self):
        from repro.regions import partition_by_image
        from repro.tasks import Reduce
        Rg = region(ispace(size=12), {"v": np.float64}, name="RR")
        Src = region(ispace(size=12), {"v": np.float64}, name="RS")
        SP = partition_block(Src, 3, name="RSP")
        P = partition_block(Rg, 3, name="RP")
        Q = partition_by_image(Rg, P, func=lambda p: (p + 1) % 12, name="RQ")
        I = ispace(size=3)

        @task(privileges=[Reduce("+", "v"), R("v")], name="dep")
        def dep(Acc, Rv):
            # Contributions target (p+1)%12 of the *other* region's points,
            # which is exactly this color's image window.
            ids = (Rv.points + 1) % 12
            slots, ok = Acc.maybe_localize(ids)
            Acc.reduce("v", slots[ok], np.ones(int(ok.sum())), "+")

        b = ProgramBuilder()
        with b.for_range("t", 0, 2):
            b.launch(dep, I, Q, SP)
        prog, report = control_replicate(b.build(), num_shards=3)
        temps = report.fragments[0].reduction_temps
        assert len(temps) == 1
        ex = SPMDExecutor(num_shards=3,
                          instances={Rg.uid: PhysicalInstance(Rg),
                                     Src.uid: PhysicalInstance(Src)})
        ex.run(prog)
        # Temp instances were allocated per color...
        assert any(k[0] == temps[0].uid for k in ex.dist)
        # ...and every element received exactly 2 (two iterations, one
        # contribution each from its unique producer).
        assert np.all(ex.instances[Rg.uid].fields["v"] == 2.0)


class TestLazyColours:
    def test_racing_threads_see_one_object_per_colour(self):
        # A colour's arrays, instance and subregion are made on their
        # first lookup, from whichever shard thread gets there first;
        # every thread must get the one object stored, or the array ids
        # that footprints name would disagree between shards.
        import sys
        import threading
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                Rg = region(ispace(size=256), {"v": np.float64,
                                               "w": np.float64})
                P = partition_block(Rg, 64)
                ex = SPMDExecutor(num_shards=4, mode="threaded")
                arrays = ex._layout(P).arrays
                seen = []
                start = threading.Barrier(8)

                def look():
                    start.wait(timeout=10)
                    seen.append([(id(arrays[c]), id(ex.dist[(P.uid, c)]),
                                  id(P[c])) for c in range(64)])

                threads = [threading.Thread(target=look) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert len(seen) == 8 and all(s == seen[0] for s in seen)
                assert all(ex.dist[(P.uid, c)].fields is arrays[c]
                           for c in range(64))
        finally:
            sys.setswitchinterval(switch)

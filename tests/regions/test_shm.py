"""SharedMemoryArena lifecycle: accounting, release, leak backstops."""

import numpy as np
import pytest

from repro.regions import shm
from repro.regions.shm import (
    SharedMemoryArena,
    live_arena_count,
    live_segment_count,
    release_all_arenas,
)
from repro.runtime import procs_available

pytestmark = pytest.mark.skipif(not procs_available(),
                                reason="no usable shared memory on this host")


@pytest.fixture(autouse=True)
def _clean_slate():
    # Other tests may hold arenas; work relative to the baseline, and
    # never leak anything past this module.
    import weakref
    created: list = []  # weak refs: must not defeat the GC backstop test
    original = SharedMemoryArena.__init__

    def tracking(self, *a, **kw):
        original(self, *a, **kw)
        created.append(weakref.ref(self))

    SharedMemoryArena.__init__ = tracking
    try:
        yield
    finally:
        SharedMemoryArena.__init__ = original
        for ref in created:
            arena = ref()
            if arena is not None:
                arena.release()


class TestArenaAccounting:
    def test_live_counts_track_allocation_and_release(self):
        arenas0, segs0 = live_arena_count(), live_segment_count()
        arena = SharedMemoryArena(segment_bytes=1 << 12)
        assert live_arena_count() == arenas0 + 1
        assert live_segment_count() == segs0  # no segment until first alloc
        a = arena.allocate((16,), np.float64)
        assert live_segment_count() == segs0 + 1
        assert np.count_nonzero(a) == 0
        # Overflowing the segment opens a second one.
        arena.allocate(((1 << 12) // 8,), np.float64)
        assert live_segment_count() == segs0 + 2
        arena.release()
        assert live_arena_count() == arenas0
        assert live_segment_count() == segs0
        arena.release()  # idempotent

    def test_allocate_after_release_raises(self):
        arena = SharedMemoryArena()
        arena.allocate((4,), np.float64)
        arena.release()
        with pytest.raises(RuntimeError, match="released"):
            arena.allocate((4,), np.float64)

    def test_release_all_arenas_backstop(self):
        segs0 = live_segment_count()
        leaked = [SharedMemoryArena(segment_bytes=1 << 12) for _ in range(3)]
        for arena in leaked:
            arena.allocate((8,), np.int64)
        assert live_segment_count() == segs0 + 3
        released = release_all_arenas()
        assert released >= 3
        assert live_segment_count() == 0

    def test_garbage_collected_arena_releases_itself(self):
        segs0 = live_segment_count()
        arena = SharedMemoryArena()
        arena.allocate((8,), np.float64)
        assert live_segment_count() == segs0 + 1
        del arena
        import gc
        gc.collect()
        assert live_segment_count() == segs0


class TestExecutorArenaLifecycle:
    def test_one_shot_run_leaves_no_segments(self):
        from repro.core import control_replicate
        from repro.runtime import SPMDExecutor
        from tests.conftest import Fig2
        segs0 = live_segment_count()
        fig2 = Fig2(steps=3)
        prog, _ = control_replicate(fig2.build(), num_shards=2)
        ex = SPMDExecutor(num_shards=2, mode="procs",
                          instances=fig2.fresh_instances())
        ex.run(prog)
        assert live_segment_count() == segs0

    def test_failed_resident_run_releases_arena(self):
        """A run whose shard raises after the arena was allocated leaks
        no segment, and the executor runs its next program cleanly."""
        from repro.core import ProgramBuilder, control_replicate
        from repro.runtime import ShardExceptionGroup, SPMDExecutor
        from repro.tasks import R, RW, task
        from tests.conftest import Fig2
        segs0 = live_segment_count()
        fig2 = Fig2(steps=3)

        @task(privileges=[RW("v"), R("v")], name="shm_boom")
        def boom(Bv, Av):
            raise ValueError("boom")

        b = ProgramBuilder()
        with b.for_range("t", 0, 2):
            b.launch(fig2.TF, fig2.I, fig2.PB, fig2.PA)
            b.launch(boom, fig2.I, fig2.PB, fig2.PA)
        bad, _ = control_replicate(b.build(), num_shards=2)
        prog, _ = control_replicate(fig2.build(), num_shards=2)
        ex = SPMDExecutor(num_shards=2, mode="procs",
                          instances=fig2.fresh_instances())
        with pytest.raises((ValueError, ShardExceptionGroup)):
            ex.run(bad)  # one failed shard raises its own error
        assert live_segment_count() == segs0
        ex.run(prog)
        assert live_segment_count() == segs0

    def test_shm_module_registers_atexit_backstop(self):
        import atexit
        # The backstop is registered exactly once at import; verify it is
        # the module-level function (unregister returns it to the table
        # afterwards so real exit still runs it).
        atexit.unregister(shm.release_all_arenas)
        atexit.register(shm.release_all_arenas)

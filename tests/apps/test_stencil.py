"""Tests for the Stencil application (paper §5.1)."""

import numpy as np
import pytest

from repro.apps.stencil import StencilProblem, star_weights, stencil_offsets
from repro.tasks import R, RW, task

from tests.conftest import interpreted_iterations


class TestWeights:
    def test_prk_star_weights(self):
        w = star_weights(2)
        assert len(w) == 8
        lookup = {(dx, dy): v for dx, dy, v in w}
        assert lookup[(1, 0)] == pytest.approx(1 / 4)
        assert lookup[(-2, 0)] == pytest.approx(1 / 8)
        assert lookup[(0, 2)] == lookup[(0, -2)]

    def test_radius_one(self):
        w = star_weights(1)
        assert all(v == pytest.approx(0.5) for _, _, v in w)


class TestFunctional:
    def test_sequential_matches_reference(self):
        p = StencilProblem(n=24, radius=2, tiles=4, steps=3)
        ref = p.reference_state()
        seq, _, _ = p.run_sequential()
        assert np.array_equal(seq["in"], ref["in"])
        assert np.allclose(seq["out"], ref["out"], rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_cr_matches_sequential(self, shards):
        p = StencilProblem(n=24, radius=2, tiles=4, steps=3)
        seq, _, _ = p.run_sequential()
        cr, _, ex, report = p.run_control_replicated(shards, seed=3)
        assert np.array_equal(cr["in"], seq["in"])
        assert np.array_equal(cr["out"], seq["out"])
        assert report.fragments[0].exchange_copies == 1

    def test_radius_one_and_uneven_tiles(self):
        p = StencilProblem(n=20, radius=1, tiles=2, steps=2)
        seq, _, _ = p.run_sequential()
        cr, _, _, _ = p.run_control_replicated(2)
        assert np.array_equal(cr["out"], seq["out"])

    def test_boundary_untouched(self):
        p = StencilProblem(n=16, radius=2, tiles=4, steps=2)
        seq, _, _ = p.run_sequential()
        out = seq["out"].reshape(16, 16)
        assert np.all(out[:2, :] == 0) and np.all(out[:, :2] == 0)
        assert np.all(out[-2:, :] == 0) and np.all(out[:, -2:] == 0)
        assert np.any(out[2:-2, 2:-2] != 0)

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            StencilProblem(n=4, radius=2)

    def test_halo_only_touches_neighbor_tiles(self):
        p = StencilProblem(n=32, radius=2, tiles=4, steps=1)
        _, _, ex, _ = p.run_control_replicated(2)
        # Only halos move: 4 tiles of 16x16, each imports 2 interior sides
        # of radius 2 -> well under a quarter of the grid.
        assert 0 < ex.elements_copied <= 32 * 32 / 4


class TestSquareShape:
    def test_square_weights_normalized_per_ring(self):
        from repro.apps.stencil import square_weights
        w = square_weights(2)
        assert len(w) == 24  # 5x5 minus center
        # Ring 1 has 8 points of weight 1/(4*1*1*2); ring 2: 16 of 1/(4*2*3*2).
        ring1 = [v for dx, dy, v in w if max(abs(dx), abs(dy)) == 1]
        ring2 = [v for dx, dy, v in w if max(abs(dx), abs(dy)) == 2]
        assert len(ring1) == 8 and all(v == pytest.approx(1 / 8) for v in ring1)
        assert len(ring2) == 16 and all(v == pytest.approx(1 / 48) for v in ring2)

    def test_square_cr_matches_sequential(self):
        p = StencilProblem(n=24, radius=2, tiles=4, steps=2, shape="square")
        ref = p.reference_state()
        seq, _, _ = p.run_sequential()
        assert np.allclose(seq["out"], ref["out"], rtol=1e-13, atol=1e-13)
        cr, _, ex, _ = p.run_control_replicated(4, seed=1)
        assert np.array_equal(cr["out"], seq["out"])

    def test_square_exchanges_more_than_star(self):
        star = StencilProblem(n=24, radius=2, tiles=4, steps=1, shape="star")
        square = StencilProblem(n=24, radius=2, tiles=4, steps=1,
                                shape="square")
        _, _, ex_star, _ = star.run_control_replicated(2)
        _, _, ex_sq, _ = square.run_control_replicated(2)
        # The dense shape reaches diagonal tiles: strictly more halo.
        assert ex_sq.elements_copied > ex_star.elements_copied

    def test_unknown_shape_rejected(self):
        from repro.apps.stencil import stencil_offsets
        with pytest.raises(ValueError):
            stencil_offsets("hexagon", 2)


def clip_and_gather_step(n, radius, shape, a):
    """One stencil step as the task body computed it before it had an
    inspector: per point, gather each clipped neighbour out of a dense
    window (here the whole grid), accumulate in offset order from zero,
    add into the interior."""
    x, y = (c.ravel() for c in np.meshgrid(np.arange(n), np.arange(n),
                                           indexing="ij"))
    win = a.reshape(n, n)
    acc = np.zeros(n * n)
    for dx, dy, w in stencil_offsets(shape, radius):
        acc += w * win[np.clip(x + dx, 0, n - 1), np.clip(y + dy, 0, n - 1)]
    interior = ((x >= radius) & (x < n - radius)
                & (y >= radius) & (y < n - radius))
    out = np.zeros(n * n)
    out[interior] += acc[interior]
    return out


class TestInspectorPlan:
    """One body, every executor: the planned stencil is bit-identical
    across sequential / interpreted CR / compiled CR, on every point-set
    shape the plan meets (one tile, rectangular and ragged batches)."""

    @pytest.mark.parametrize("shape", ["star", "square"])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("tiles", [1, 4, 6, 16])
    def test_bit_identical_on_every_executor(self, shape, radius, tiles,
                                             interpret_only):
        def make(steps):
            return StencilProblem(n=24, radius=radius, tiles=tiles,
                                  steps=steps, shape=shape)

        one, _, _ = make(1).run_sequential()
        assert np.array_equal(
            one["out"],
            clip_and_gather_step(24, radius, shape, make(1).initial_in()))
        p = make(5)
        seq, _, _ = p.run_sequential()
        for shards in (1, 2, 3):  # 3 shards x 16 tiles: ragged batches
            with interpret_only:
                interp, _, ex, _ = p.run_control_replicated(shards)
            assert ex.replay_hits == 0
            compiled, _, ex, _ = p.run_control_replicated(shards)
            assert ex.replay_hits == (
                p.steps - interpreted_iterations()) * shards
            for state in (interp, compiled):
                assert np.array_equal(state["out"], seq["out"])
                assert np.array_equal(state["in"], seq["in"])

    @pytest.mark.parametrize("mode", ["threaded", "procs", "net"])
    def test_ragged_batches_on_the_concurrent_backends(self, mode):
        from repro.runtime import procs_available
        if mode != "threaded" and not procs_available():
            pytest.skip("fork start method unavailable")
        p = StencilProblem(n=24, radius=3, tiles=16, steps=5, shape="square")
        seq, _, _ = p.run_sequential()
        cr, _, ex, _ = p.run_control_replicated(3, mode=mode)
        assert ex.replay_hits == (p.steps - interpreted_iterations()) * 3
        assert np.array_equal(cr["out"], seq["out"])
        assert np.array_equal(cr["in"], seq["in"])

    def test_body_does_no_index_arithmetic(self):
        # The loop-invariant work lives in the inspector, by grep.
        import inspect
        body = inspect.getsource(StencilProblem().stencil_task.fn)
        for name in ("unravel", "clip", "searchsorted", "localize"):
            assert name not in body


def point_index_stencil_task(n, radius, shape):
    """The stencil task as it was while its plan addressed points through
    index arrays (a scatter of ``IN`` into the window, a gather of the
    core at ``OUT``, an interior selection), kept verbatim as the oracle
    the box kernel must equal bit for bit."""
    weights = stencil_offsets(shape, radius)

    def unravel(points):
        return np.unravel_index(points, (n, n))

    def extent(coords):
        lo = min(int(c.min()) - pad for c, pad in coords if c.size)
        hi = max(int(c.max()) + pad for c, pad in coords if c.size)
        return lo, hi - lo + 1

    def plan_stencil(OUT, IN, GHOST):
        if not OUT.n:
            return None
        ox, oy = unravel(OUT.points)
        ix, iy = unravel(IN.points)
        gx, gy = unravel(GHOST.points)
        x0, height = extent(((ox, radius), (ix, 0), (gx, 0)))
        y0, width = extent(((oy, radius), (iy, 0), (gy, 0)))
        core = width - 2 * radius
        index = np.int32 if height * width < 2 ** 31 else np.int64
        interior = ((ox >= radius) & (ox < n - radius)
                    & (oy >= radius) & (oy < n - radius))
        win = np.zeros((height, width))
        acc = np.empty((height - 2 * radius, core))
        return (win, acc, np.empty_like(acc),
                ((ix - x0) * width + (iy - y0)).astype(index),
                ((gx - x0) * width + (gy - y0)).astype(index),
                ((ox - x0 - radius) * core + (oy - y0 - radius)).astype(index),
                None if interior.all()
                else np.flatnonzero(interior).astype(index))

    @task(privileges=[RW("v"), R("v"), R("v")], name="stencil",
          batchable=True, inspect=plan_stencil)
    def stencil_task(OUT, IN, GHOST, *, plan):
        if plan is None:
            return
        win, acc, term, in_cells, ghost_cells, out_cells, interior = plan
        cells = win.reshape(-1)
        cells[in_cells] = IN.read("v")
        cells[ghost_cells] = GHOST.read("v")
        height, width = win.shape
        acc[...] = 0.0
        for dx, dy, w in weights:
            np.multiply(win[radius + dx:height - radius + dx,
                            radius + dy:width - radius + dy], w, out=term)
            acc += term
        vals = acc.reshape(-1)[out_cells]
        out = OUT.write("v")
        if interior is None:
            out += vals
        else:
            out[interior] += vals[interior]

    return stencil_task


def oracle_state(p, shards=None, mode="stepped"):
    """``p``'s final state under the point-index kernel: sequential, or
    control-replicated on ``shards`` shards."""
    kernel = p.stencil_task
    p.stencil_task = point_index_stencil_task(p.n, p.radius, p.shape)
    try:
        if shards is None:
            return p.run_sequential()[0]
        return p.run_control_replicated(shards, mode=mode)[0]
    finally:
        p.stencil_task = kernel


def assert_same_state(got, want):
    assert np.array_equal(got["in"], want["in"])
    assert np.array_equal(got["out"], want["out"])


SHAPES = [(shape, radius) for shape in ("star", "square")
          for radius in (1, 2, 3, 4)]
SIZES = [(n, tiles) for n in (24, 50, 97, 300) for tiles in (4, 6, 9, 16)]


class TestBoxKernel:
    """The box kernel (slice-placed window, strip sweep, slice
    accumulate) equals the point-index kernel it replaced, `==`, on every
    point-set shape it meets: one tile, ragged tiles, batches of 1-3
    shards, windows of one strip and of several."""

    @pytest.mark.parametrize("shape,radius", SHAPES)
    @pytest.mark.parametrize("n,tiles", SIZES)
    def test_sequential_equals_point_index_kernel(self, shape, radius, n,
                                                  tiles):
        p = StencilProblem(n=n, radius=radius, tiles=tiles, steps=2,
                           shape=shape)
        assert_same_state(p.run_sequential()[0], oracle_state(p))

    @pytest.mark.parametrize("n,tiles", SIZES)
    def test_batched_equals_point_index_kernel(self, n, tiles):
        # Every (n, tiles) with one of the eight shapes, in rotation, so
        # each shape meets two sizes; all shard counts on both in-process
        # backends.
        shape, radius = SHAPES[SIZES.index((n, tiles)) % len(SHAPES)]
        p = StencilProblem(n=n, radius=radius, tiles=tiles, steps=3,
                           shape=shape)
        want = oracle_state(p)
        for mode in ("stepped", "threaded"):
            for shards in (1, 2, 3):
                assert_same_state(
                    p.run_control_replicated(shards, mode=mode)[0], want)

    def test_ledger_shape(self):
        # stencil_compute's shape: 768^2, 8 tiles, 2 threaded shards.
        p = StencilProblem(n=768, radius=2, tiles=8, steps=6)
        got = p.run_control_replicated(2, mode="threaded")[0]
        assert_same_state(got, oracle_state(p, 2, "threaded"))
        assert_same_state(got, oracle_state(p))


def integer_bytes(plan):
    """Bytes of every integer array a plan holds, however nested."""
    if isinstance(plan, np.ndarray):
        return plan.nbytes if plan.dtype.kind in "iu" else 0
    if isinstance(plan, (tuple, list)):
        return sum(integer_bytes(x) for x in plan)
    return 0


class TestNoPointIndexTraffic:
    """A call moves boxes: one IN and one OUT box per tile of the call,
    and the only index array is the halo's, so a return to per-point
    scatters and gathers fails here by name."""

    @pytest.mark.parametrize("n,tiles,shards", [(300, 9, 2), (97, 16, 3),
                                                (768, 8, 2)])
    def test_a_batched_plan_is_boxes_and_halo_cells(self, n, tiles, shards):
        p = StencilProblem(n=n, radius=2, tiles=tiles, steps=3)
        inspect = p.stencil_task.inspect
        firsts = {int(p.POUT[c].index_set.to_indices()[0])
                  for c in p.POUT.colors}
        calls = []

        def recording_inspector(OUT, IN, GHOST):
            plan = inspect(OUT, IN, GHOST)
            calls.append((len(firsts.intersection(OUT.points.tolist())),
                          GHOST.n, plan))
            return plan

        p.stencil_task.inspect = recording_inspector
        p.run_control_replicated(shards)
        batched = [c for c in calls if c[0] > 1]
        assert len(batched) == shards
        for tiles_in_call, ghost_n, plan in calls:
            _, placed, _, strips, added = plan
            assert len(placed) == len(added) == tiles_in_call
            assert integer_bytes(plan) <= 8 * ghost_n
        if n >= 300:
            assert all(len(plan[3]) > 1 for _, _, plan in batched)

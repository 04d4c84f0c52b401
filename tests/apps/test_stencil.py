"""Tests for the Stencil application (paper §5.1)."""

import numpy as np
import pytest

from repro.apps.stencil import StencilProblem, star_weights, stencil_offsets

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

"""Stencil: the PRK 2D star-shaped stencil benchmark (paper §5.1).

A radius-``R`` star stencil on an ``n × n`` grid of doubles, straight from
the Parallel Research Kernels: each iteration applies

    out(x, y) += Σ_{k=1..R} w_k · [in(x±k, y) + in(x, y±k)]

to all interior points (``R <= x, y < n-R``) with the standard PRK weights
``w_k = 1/(2·k·R)``, then increments every ``in`` value by one.

Regions: ``IN`` and ``OUT`` over the same structured index space.  ``OUT``
and ``IN`` get 2D block partitions; a second, *aliased* partition
``QGHOST`` of ``IN`` is the image of the blocks under the stencil's
offsets, less the blocks themselves — exactly the multiple-partitions
idiom control replication leverages.  The halo exchange the compiler must
synthesize is the copy ``PIN → QGHOST`` after the increment phase.
"""

from __future__ import annotations

import numpy as np

from ...core.builder import ProgramBuilder
from ...core.ir import Program
from ...regions import (
    PhysicalInstance,
    ispace,
    partition_blocks_nd,
    partition_by_offsets,
    partition_difference,
    region,
    row_major_boxes,
)
from ...tasks import R, RW, task
from ..common import AppProblem, grid_dims_2d

__all__ = ["StencilProblem", "star_weights", "square_weights", "stencil_offsets", "make_stencil_tasks"]

# Bytes of one row strip of the accumulator (and of ``term``) in the
# stencil body's sweep: small enough that a strip stays in cache across
# the offsets, large enough that per-strip numpy calls stay few.
STRIP_BYTES = 256 * 1024


def star_weights(radius: int) -> list[tuple[int, int, float]]:
    """PRK star weights: offsets (dx, dy) with weight 1/(2·k·R)."""
    out = []
    for k in range(1, radius + 1):
        w = 1.0 / (2.0 * k * radius)
        out.extend([(k, 0, w), (-k, 0, w), (0, k, w), (0, -k, w)])
    return out


def square_weights(radius: int) -> list[tuple[int, int, float]]:
    """PRK square (dense) weights: ring ``k = max(|dx|,|dy|)`` carries
    weight ``1/(4·k·(2k-1)·R)`` per point (the PRK ``wsquare`` table)."""
    out = []
    for dx in range(-radius, radius + 1):
        for dy in range(-radius, radius + 1):
            if dx == 0 and dy == 0:
                continue
            k = max(abs(dx), abs(dy))
            out.append((dx, dy, 1.0 / (4.0 * k * (2 * k - 1) * radius)))
    return out


def stencil_offsets(shape: str, radius: int) -> list[tuple[int, int, float]]:
    """The paper's "stencil of configurable shape and radius" (§5.1)."""
    if shape == "star":
        return star_weights(radius)
    if shape == "square":
        return square_weights(radius)
    raise ValueError(f"unknown stencil shape {shape!r} (star or square)")


def make_stencil_tasks(n: int, radius: int, shape: str = "star"):
    """Build the two point tasks for an ``n × n`` grid.

    The stencil task reads its own tile through the *private* block
    partition and only the halo through the aliased ghost partition — the
    same private+ghost structure the Regent stencil uses, so the only
    compiler-synthesized communication is the halo exchange.
    """
    weights = stencil_offsets(shape, radius)

    def extent(*spans):
        """``(origin, length)`` of the window side that holds every
        ``(lows, highs, pad)`` span of coordinates, widened by its pad."""
        lo = min(int(a.min()) - pad for a, _, pad in spans if a.size)
        hi = max(int(b.max()) + pad for _, b, pad in spans if b.size)
        return lo, hi - lo + 1

    def plan_stencil(OUT, IN, GHOST):
        """Everything about a call that its point sets decide.

        A dense window over the tile(s) plus halo, whose core (the window
        less ``radius`` on every side) holds every ``OUT`` point.  ``IN``
        and ``OUT`` arrive as boxes (:func:`row_major_boxes`; one per
        tile), so the body places ``IN`` and accumulates into ``OUT``
        with one slice per box; ``OUT`` boxes are cut to the grid
        interior here, once.  ``GHOST`` (a thin halo of short runs) stays
        a cell scatter.  The core is swept in row strips of about
        ``STRIP_BYTES`` each: every strip's offset terms are precomputed
        window views, and one strip-sized ``term`` keeps the accumulator
        strip in cache.
        """
        if not OUT.n:
            return None
        out_boxes = row_major_boxes(OUT.points, (n, n))
        in_boxes = row_major_boxes(IN.points, (n, n))
        _, ox, oy, oh, ow = out_boxes.T
        _, ix, iy, ih, iw = in_boxes.T
        gx, gy = np.divmod(GHOST.points, n)
        # The core must hold every OUT point, the window every input.
        x0, height = extent((ox, ox + oh - 1, radius), (ix, ix + ih - 1, 0),
                            (gx, gx, 0))
        y0, width = extent((oy, oy + ow - 1, radius), (iy, iy + iw - 1, 0),
                           (gy, gy, 0))
        core = width - 2 * radius
        index = np.int32 if height * width < 2 ** 31 else np.int64
        win = np.zeros((height, width))
        acc = np.empty((height - 2 * radius, core))
        rows = max(1, STRIP_BYTES // acc[0].nbytes)
        term = np.empty((min(rows, acc.shape[0]), core))
        strips = []
        for a in range(0, acc.shape[0], rows):
            b = min(a + rows, acc.shape[0])
            strips.append((acc[a:b], term[:b - a], tuple(
                (win[radius + dx + a:radius + dx + b,
                     radius + dy:width - radius + dy], w)
                for dx, dy, w in weights)))
        placed = tuple(
            (s, s + h * w, win[x - x0:x - x0 + h, y - y0:y - y0 + w])
            for s, x, y, h, w in in_boxes.tolist())
        added = []
        for s, x, y, h, w in out_boxes.tolist():
            # The part of the box inside the grid interior.
            r0, r1 = max(x, radius), min(x + h, n - radius)
            c0, c1 = max(y, radius), min(y + w, n - radius)
            if r0 < r1 and c0 < c1:
                added.append((s, s + h * w, w,
                              (slice(r0 - x, r1 - x), slice(c0 - y, c1 - y)),
                              acc[r0 - x0 - radius:r1 - x0 - radius,
                                  c0 - y0 - radius:c1 - y0 - radius]))
        return (win, placed,
                ((gx - x0) * width + (gy - y0)).astype(index),
                tuple(strips), tuple(added))

    # Batchable: every access is by global grid coordinate (the plan
    # places boxes and halo cells in the window by their grid
    # coordinates), so one call over the union of a shard's tiles
    # computes bit-identical per-point results.  Points outside the grid
    # interior read window cells no input wrote; the plan cut them out of
    # the OUT boxes.
    @task(privileges=[RW("v"), R("v"), R("v")], name="stencil",
          batchable=True, inspect=plan_stencil)
    def stencil_task(OUT, IN, GHOST, *, plan):
        if plan is None:
            return
        win, placed, ghost_cells, strips, added = plan
        # Cells no input covers keep the 0.0 they were allocated with.
        values = IN.read("v")
        for s, e, box in placed:
            box[...] = values[s:e].reshape(box.shape)
        win.reshape(-1)[ghost_cells] = GHOST.read("v")
        for acc, term, terms in strips:
            acc[...] = 0.0
            for src, weight in terms:
                np.multiply(src, weight, out=term)
                acc += term
        out = OUT.write("v")
        for s, e, w, inner, vals in added:
            out[s:e].reshape(-1, w)[inner] += vals

    @task(privileges=[RW("v")], name="increment", batchable=True)
    def increment_task(IN):
        IN.write("v")[:] += 1.0

    return stencil_task, increment_task


class StencilProblem(AppProblem):
    """One stencil problem instance (functional scale)."""

    name = "stencil"

    def __init__(self, n: int = 48, radius: int = 2, tiles: int = 4,
                 steps: int = 4, seed: int = 0, shape: str = "star"):
        if n < 2 * radius + 2:
            raise ValueError("grid too small for the stencil radius")
        self.n, self.radius, self.tiles, self.steps = n, radius, tiles, steps
        self.shape = shape
        self.seed = seed
        gx, gy = grid_dims_2d(tiles)
        self.grid = ispace(shape=(n, n), name="grid")
        self.IN = region(self.grid, {"v": np.float64}, name="IN")
        self.OUT = region(self.grid, {"v": np.float64}, name="OUT")
        self.I = ispace(size=tiles, name="tiles")
        self.PIN = partition_blocks_nd(self.IN, (gx, gy), name="PIN")
        self.POUT = partition_blocks_nd(self.OUT, (gx, gy), name="POUT")
        # The halo proper: the tile's image under the stencil offsets minus
        # the tile itself (aliased).  Reading the tile through PIN and only
        # the halo through QGHOST restricts the synthesized exchange to the
        # halo, as in the Regent stencil.
        offsets = [(dx, dy) for dx, dy, _ in stencil_offsets(shape, radius)]
        self.QGHOST = partition_difference(
            partition_by_offsets(self.IN, self.PIN, offsets), self.PIN,
            name="QGHOST")
        self.stencil_task, self.increment_task = make_stencil_tasks(
            n, radius, shape)

    def initial_in(self) -> np.ndarray:
        # The PRK initial condition: in(x, y) = x + y.
        x, y = np.meshgrid(np.arange(self.n), np.arange(self.n), indexing="ij")
        return (x + y).astype(np.float64).ravel()

    def build_program(self) -> Program:
        b = ProgramBuilder("stencil")
        b.let("T", self.steps)
        with b.for_range("t", 0, "T"):
            b.launch(self.stencil_task, self.I, self.POUT, self.PIN, self.QGHOST)
            b.launch(self.increment_task, self.I, self.PIN)
        return b.build()

    def fresh_instances(self) -> dict[int, PhysicalInstance]:
        i_in = PhysicalInstance(self.IN)
        i_out = PhysicalInstance(self.OUT)
        i_in.fields["v"][:] = self.initial_in()
        return {self.IN.uid: i_in, self.OUT.uid: i_out}

    def extract_state(self, instances) -> dict[str, np.ndarray]:
        return {"in": instances[self.IN.uid].fields["v"].copy(),
                "out": instances[self.OUT.uid].fields["v"].copy()}

    def reference_state(self) -> dict[str, np.ndarray]:
        n, radius = self.n, self.radius
        a = self.initial_in().reshape(n, n).copy()
        out = np.zeros((n, n))
        for _ in range(self.steps):
            acc = np.zeros((n - 2 * radius, n - 2 * radius))
            sl = slice(radius, n - radius)
            for dx, dy, w in stencil_offsets(self.shape, radius):
                acc += w * a[radius + dx:n - radius + dx, radius + dy:n - radius + dy]
            out[sl, sl] += acc
            a += 1.0
        return {"in": a.ravel(), "out": out.ravel()}

"""Stencil: the PRK 2D star-shaped stencil benchmark (paper §5.1).

A radius-``R`` star stencil on an ``n × n`` grid of doubles, straight from
the Parallel Research Kernels: each iteration applies

    out(x, y) += Σ_{k=1..R} w_k · [in(x±k, y) + in(x, y±k)]

to all interior points (``R <= x, y < n-R``) with the standard PRK weights
``w_k = 1/(2·k·R)``, then increments every ``in`` value by one.

Regions: ``IN`` and ``OUT`` over the same structured index space.  ``OUT``
and ``IN`` get 2D block partitions; a second, *aliased* partition ``QIN``
of ``IN`` is the image of the star-neighbor map over the blocks — exactly
the multiple-partitions idiom control replication leverages.  The halo
exchange the compiler must synthesize is the copy ``PIN → QIN`` after the
increment phase.
"""

from __future__ import annotations

import numpy as np

from ...core.builder import ProgramBuilder
from ...core.ir import Program
from ...regions import (
    PhysicalInstance,
    ispace,
    partition_blocks_nd,
    partition_by_image,
    region,
)
from ...tasks import R, RW, task
from ..common import AppProblem, grid_dims_2d

__all__ = ["StencilProblem", "star_weights", "square_weights", "stencil_offsets", "make_stencil_tasks"]


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

    def unravel(points):
        return np.unravel_index(points, (n, n))

    def extent(coords):
        """``(origin, length)`` of the window side that holds every
        coordinate array of ``coords``, each widened by its padding."""
        lo = min(int(c.min()) - pad for c, pad in coords if c.size)
        hi = max(int(c.max()) + pad for c, pad in coords if c.size)
        return lo, hi - lo + 1

    def plan_stencil(OUT, IN, GHOST):
        """Everything about a call that its point sets decide: a dense
        window over the tile(s) plus halo, where ``IN`` and ``GHOST`` land
        in it, and where each ``OUT`` point sits in the window's
        (H-2r) x (W-2r) core, over which the body sums by dense slices."""
        if not OUT.n:
            return None
        ox, oy = unravel(OUT.points)
        ix, iy = unravel(IN.points)
        gx, gy = unravel(GHOST.points)
        # The core must hold every OUT point, the window every input.
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

    # Batchable: every access is by global grid coordinate (the plan
    # places points in the window by their unravelled coordinates), so one
    # call over the union of a shard's tiles computes bit-identical
    # per-point results.  Points outside the grid interior read window
    # cells no input wrote; the interior selection discards them.
    @task(privileges=[RW("v"), R("v"), R("v")], name="stencil",
          batchable=True, inspect=plan_stencil)
    def stencil_task(OUT, IN, GHOST, *, plan):
        if plan is None:
            return
        win, acc, term, in_cells, ghost_cells, out_cells, interior = plan
        # Cells no input covers keep the 0.0 they were allocated with.
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

    @task(privileges=[RW("v")], name="increment", batchable=True)
    def increment_task(IN):
        IN.write("v")[:] += 1.0

    return stencil_task, increment_task


def star_image_fn(n: int, radius: int, shape: str = "star"):
    """Vectorized neighbor map used to build the ghost partition."""
    offsets = [(dx, dy) for dx, dy, _ in stencil_offsets(shape, radius)]

    def fn(pts: np.ndarray) -> np.ndarray:
        x, y = np.unravel_index(pts, (n, n))
        out = [pts]
        for dx, dy in offsets:
            xx, yy = x + dx, y + dy
            m = (xx >= 0) & (xx < n) & (yy >= 0) & (yy < n)
            out.append(np.ravel_multi_index((xx[m], yy[m]), (n, n)))
        return np.concatenate(out)

    return fn


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
        self.QIN = partition_by_image(
            self.IN, self.PIN, func=star_image_fn(n, radius, shape), name="QIN")
        # The halo proper: image minus the tile itself (aliased).  Reading
        # the tile through PIN and only the halo through QGHOST restricts
        # the synthesized exchange to the halo, as in the Regent stencil.
        from ...regions import Partition
        self.QGHOST = Partition(
            self.IN,
            [self.QIN.subset(c) - self.PIN.subset(c) for c in self.PIN.colors],
            disjoint=False, name="QGHOST")
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

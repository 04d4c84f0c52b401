"""PENNANT: 2D unstructured-mesh Lagrangian hydrodynamics (paper §5.3).

A proxy of LANL's PENNANT mini-app: a staggered-grid compressible
Lagrangian scheme on a quad mesh.  Zones carry thermodynamic state
(volume, density, pressure); points carry kinematics (position, velocity,
force, mass).  Each cycle:

1. ``calc_state``   — zone volume (shoelace), density, and gamma-law
   pressure from the current corner coordinates (reads ghost points);
2. ``zero_forces``  — clear accumulated corner forces on owned points;
3. ``calc_forces``  — every zone deposits pressure forces on its four
   corners: a ``reduces(+)`` into potentially remote points (§4.3);
4. ``advance``      — integrate owned point velocity and position with the
   *global* time step;
5. ``calc_dt``      — per-zone Courant estimate, min-reduced into the
   scalar ``dt`` used by the *next* cycle — the dynamic-collective scalar
   reduction of paper §4.4, and the latency the paper says Regent hides
   better than MPI at scale.

The physics is simplified (fixed specific internal energy, predictor-only
integration); the region/partition/task structure — the only thing control
replication sees — matches the real code: disjoint zone pieces, a
private/shared/ghost point hierarchy (§4.5), force reductions, and a
per-cycle global scalar reduction.
"""

from __future__ import annotations

import numpy as np

from ...core.builder import ProgramBuilder
from ...core.ir import BinOp, Program, ScalarRef
from ...regions import (
    PhysicalInstance,
    ispace,
    partition_blocks_nd,
    partition_by_image,
    private_ghost_decomposition,
    region,
)
from ...tasks import R, RW, Reduce, task
from ..common import (
    AppProblem,
    first_view_index,
    fold_routes,
    grid_dims_2d,
    segments,
)

__all__ = ["PennantMesh", "PennantProblem"]

GAMMA = 5.0 / 3.0
CFL = 0.3
DT_GROWTH = 1.05


class PennantMesh:
    """A rectangular quad mesh: nx×ny zones, (nx+1)×(ny+1) points."""

    def __init__(self, nx: int, ny: int, pieces: int):
        self.nx, self.ny, self.pieces = nx, ny, pieces
        self.num_zones = nx * ny
        self.pnx, self.pny = nx + 1, ny + 1
        self.num_points = self.pnx * self.pny
        zx, zy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        zx, zy = zx.ravel(), zy.ravel()
        # Corner point ids of each zone, counter-clockwise.
        def pid(x, y):
            return x * self.pny + y
        self.corners = np.stack(
            [pid(zx, zy), pid(zx + 1, zy), pid(zx + 1, zy + 1), pid(zx, zy + 1)],
            axis=1)
        # Initial geometry: unit square, uniform grid.
        px, py = np.meshgrid(np.linspace(0, 1, self.pnx),
                             np.linspace(0, 1, self.pny), indexing="ij")
        self.init_x = np.stack([px.ravel(), py.ravel()], axis=1)
        # A smooth initial velocity field to get real motion.
        self.init_v = 0.05 * np.stack(
            [np.sin(np.pi * px.ravel()) * np.cos(np.pi * py.ravel()),
             -np.cos(np.pi * px.ravel()) * np.sin(np.pi * py.ravel())], axis=1)
        rho0 = 1.0
        self.zone_mass = np.full(self.num_zones, rho0 / self.num_zones)
        self.init_energy = np.full(self.num_zones, 1.0)  # specific internal e
        # Point masses: quarter of each adjacent zone's mass.
        pm = np.zeros(self.num_points)
        np.add.at(pm, self.corners.ravel(),
                  np.repeat(self.zone_mass / 4.0, 4))
        self.point_mass = pm


def _zone_geometry(x: np.ndarray, corners: np.ndarray):
    """Shoelace volume (area) of each quad, given point coords (n,2)."""
    c = x[corners]  # (nz, 4, 2)
    nxt = np.roll(np.arange(4), -1)
    vol = 0.5 * np.abs(
        (c[:, :, 0] * c[:, nxt, 1] - c[:, nxt, 0] * c[:, :, 1]).sum(axis=1))
    return vol


def _make_tasks(mesh: PennantMesh):
    """The five point tasks.  Mesh topology is constant, so where each
    zone's corner points live — which of the private/shared/ghost views
    of a §4.5 region tree holds them, at which slot — is an inspector
    plan; the bodies only move field values along it.  A view may hold
    several pieces (a batched launch, ``Task.batchable``): each corner is
    looked up in its own piece's views (``segments``)."""
    corners = mesh.corners

    def gather_coords(views, index):
        """The zones' corner coordinates, ``(nz, 4, 2)``."""
        xs = np.concatenate([view.read("x") for view in views])
        return xs[index].reshape(-1, 4, 2)

    def plan_state(Z, PRIV, SHR, GHOST):
        ids = corners[Z.points].ravel()
        return (first_view_index((PRIV, SHR, GHOST), ids, segments(Z, 4)),
                mesh.zone_mass[Z.points])

    @task(privileges=[RW("vol", "rho", "p", "e"), R("x"), R("x"), R("x")],
          name="calc_state", batchable=True, inspect=plan_state)
    def calc_state(Z, PRIV, SHR, GHOST, *, plan):
        index, zm = plan
        coords = gather_coords((PRIV, SHR, GHOST), index)
        nxt = np.roll(np.arange(4), -1)
        vol = 0.5 * np.abs((coords[:, :, 0] * coords[:, nxt, 1]
                            - coords[:, nxt, 0] * coords[:, :, 1]).sum(axis=1))
        # pdV work against the previous cycle's pressure (energy equation).
        e = Z.write("e")
        e -= Z.read("p") * (vol - Z.read("vol")) / zm
        Z.write("vol")[:] = vol
        rho = zm / vol
        Z.write("rho")[:] = rho
        Z.write("p")[:] = (GAMMA - 1.0) * rho * e

    @task(privileges=[RW("f"), RW("f")], name="zero_forces", batchable=True)
    def zero_forces(PRIV, SHR):
        PRIV.write("f")[:] = 0.0
        SHR.write("f")[:] = 0.0

    def plan_forces(Z, PRIV, SHR, GHOST, XPRIV, XSHR, XGHOST):
        """Where each corner's coordinates come from, and where its force
        goes."""
        ids = corners[Z.points].ravel()
        seg = segments(Z, 4)
        return (first_view_index((XPRIV, XSHR, XGHOST), ids, seg),
                *fold_routes(PRIV, SHR, GHOST, ids, seg))

    @task(privileges=[R("p"), RW("f"), Reduce("+", "f"), Reduce("+", "f"),
                      R("x"), R("x"), R("x")],
          name="calc_forces", batchable=True, inspect=plan_forces)
    def calc_forces(Z, PRIV, SHR, GHOST, XPRIV, XSHR, XGHOST, *, plan):
        gather, private, shared, ghost = plan
        p = Z.read("p")
        coords = gather_coords((XPRIV, XSHR, XGHOST), gather)
        nxt = np.roll(np.arange(4), -1)
        prv = np.roll(np.arange(4), 1)
        diag = coords[:, nxt, :] - coords[:, prv, :]  # P_{k+1} - P_{k-1}
        force = 0.5 * p[:, None, None] * np.stack(
            [diag[:, :, 1], -diag[:, :, 0]], axis=2)  # outward rotation
        vals = force.reshape(-1, 2)
        # Corner order within each destination row: a point's rows belong
        # to one piece's view, so a batched call folds each row in the
        # same order as that piece's own call.
        np.add.at(PRIV.write("f"), private[1], vals[private[0]])
        if shared is not None:
            SHR.reduce("f", shared[1], vals[shared[0]], "+")
        if ghost is not None:
            GHOST.reduce("f", ghost[1], vals[ghost[0]], "+")

    @task(privileges=[RW("x", "v", "f", "m"), RW("x", "v", "f", "m")],
          name="advance", batchable=True)
    def advance(PRIV, SHR, dt):
        for view in (PRIV, SHR):
            m = view.read("m")
            v = view.write("v")
            v += dt * view.read("f") / m[:, None]
            view.write("x")[:] += dt * v

    @task(privileges=[R("vol", "rho", "p")], name="calc_dt")
    def calc_dt(Z):
        vol = Z.read("vol")
        cs = np.sqrt(GAMMA * Z.read("p") / Z.read("rho"))
        return float(np.min(CFL * np.sqrt(vol) / cs))

    return calc_state, zero_forces, calc_forces, advance, calc_dt


class PennantProblem(AppProblem):
    """One PENNANT problem instance (functional scale)."""

    name = "pennant"

    def __init__(self, nx: int = 12, ny: int = 12, pieces: int = 4,
                 steps: int = 4, dt0: float = 1e-3):
        self.mesh = PennantMesh(nx, ny, pieces)
        m = self.mesh
        self.steps, self.dt0 = steps, dt0
        gx, gy = grid_dims_2d(pieces)
        self.ZIS = ispace(shape=(nx, ny), name="zones_is")
        self.PIS = ispace(shape=(m.pnx, m.pny), name="points_is")
        self.I = ispace(size=pieces, name="pieces")
        self.ZONES = region(self.ZIS, {"vol": np.float64, "rho": np.float64,
                                       "p": np.float64, "e": np.float64},
                            name="zones")
        self.POINTS = region(self.PIS, {
            "x": (np.float64, (2,)), "v": (np.float64, (2,)),
            "f": (np.float64, (2,)), "m": np.float64}, name="points")
        self.PZ = partition_blocks_nd(self.ZONES, (gx, gy), name="PZ")
        owned_points = partition_blocks_nd(self.POINTS, (gx, gy), name="PP")
        accessed = partition_by_image(
            self.POINTS, self.PZ,
            func=lambda zids: m.corners[zids], name="QP")
        self.pg = private_ghost_decomposition(self.POINTS, owned_points,
                                              accessed, name="pennant")
        self.tasks = _make_tasks(m)

    def build_program(self) -> Program:
        calc_state, zero_forces, calc_forces, advance, calc_dt = self.tasks
        pg = self.pg
        b = ProgramBuilder("pennant")
        b.let("T", self.steps)
        b.let("dt", self.dt0)
        with b.for_range("t", 0, "T"):
            b.launch(calc_state, self.I, self.PZ, pg.private_part,
                     pg.shared_part, pg.remote_ghost_part)
            b.launch(zero_forces, self.I, pg.private_part, pg.shared_part)
            b.launch(calc_forces, self.I, self.PZ, pg.private_part,
                     pg.shared_part, pg.remote_ghost_part, pg.private_part,
                     pg.shared_part, pg.remote_ghost_part)
            b.launch(advance, self.I, pg.private_part, pg.shared_part, "dt")
            b.launch(calc_dt, self.I, self.PZ, reduce=("min", "dtnew"))
            # dt for the next cycle: Courant bound, capped growth.
            b.assign("dt", BinOp("min",
                                 BinOp("*", ScalarRef("dt"), ScalarRef("growth")),
                                 ScalarRef("dtnew")))
        b.let("growth", DT_GROWTH)
        return b.build()

    def fresh_instances(self) -> dict[int, PhysicalInstance]:
        m = self.mesh
        zi = PhysicalInstance(self.ZONES)
        zi.fields["e"][:] = m.init_energy
        zi.fields["vol"][:] = _zone_geometry(m.init_x, m.corners)
        pi = PhysicalInstance(self.POINTS)
        pi.fields["x"][:] = m.init_x
        pi.fields["v"][:] = m.init_v
        pi.fields["m"][:] = m.point_mass
        return {self.ZONES.uid: zi, self.POINTS.uid: pi}

    def extract_state(self, instances) -> dict[str, np.ndarray]:
        return {"x": instances[self.POINTS.uid].fields["x"].copy(),
                "v": instances[self.POINTS.uid].fields["v"].copy(),
                "p": instances[self.ZONES.uid].fields["p"].copy()}

    def reference_state(self) -> dict[str, np.ndarray]:
        m = self.mesh
        x = m.init_x.copy()
        v = m.init_v.copy()
        dt = self.dt0
        nxt = np.roll(np.arange(4), -1)
        prv = np.roll(np.arange(4), 1)
        p = np.zeros(m.num_zones)
        e = m.init_energy.copy()
        vol = _zone_geometry(x, m.corners)
        for _ in range(self.steps):
            vol_new = _zone_geometry(x, m.corners)
            e -= p * (vol_new - vol) / m.zone_mass
            vol = vol_new
            rho = m.zone_mass / vol
            p = (GAMMA - 1.0) * rho * e
            f = np.zeros((m.num_points, 2))
            c = x[m.corners]
            diag = c[:, nxt, :] - c[:, prv, :]
            force = 0.5 * p[:, None, None] * np.stack(
                [diag[:, :, 1], -diag[:, :, 0]], axis=2)
            np.add.at(f, m.corners.ravel(), force.reshape(-1, 2))
            v += dt * f / m.point_mass[:, None]
            x += dt * v
            cs = np.sqrt(GAMMA * p / rho)
            dtnew = float(np.min(CFL * np.sqrt(vol) / cs))
            dt = min(dt * DT_GROWTH, dtnew)
        return {"x": x, "v": v, "p": p, "dt": dt}

"""MiniAero: explicit compressible Navier-Stokes on a 3D mesh (paper §5.2).

A proxy of Sandia's Mantevo MiniAero mini-app: a cell-centered finite
volume solver for the compressible Navier-Stokes equations with explicit
Runge-Kutta time integration.  Conserved state per cell is
``U = (ρ, ρu, ρv, ρw, E)``.  Face fluxes combine a Rusanov (local
Lax-Friedrichs) inviscid flux with a simple viscous dissipation term;
boundaries are zero-gradient (missing neighbor sees the cell's own state).

Each time step runs a 4-stage low-storage Runge-Kutta scheme
(``U^(k) = U0 + α_k·dt·R(U^(k-1))``, α = 1/4, 1/3, 1/2, 1), so one step
is *nine* index launches — the many-small-tasks profile that makes
MiniAero collapse earliest without control replication (paper Fig. 7).

Cells are block-partitioned in 3D; a second aliased partition (the image
of the 6-neighbor map) names each block's halo, and the compiler turns
the per-stage writes into per-stage halo exchanges.
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
    region,
)
from ...tasks import R, RW, task
from ..common import AppProblem, grid_dims_3d

__all__ = ["MiniAeroProblem", "RK_ALPHAS", "conserved_to_flux"]

GAMMA = 1.4
RK_ALPHAS = (0.25, 1.0 / 3.0, 0.5, 1.0)
VISCOSITY = 0.05


def conserved_to_flux(u: np.ndarray, axis: int) -> np.ndarray:
    """Inviscid flux vector along ``axis`` for conserved states ``(..., 5)``."""
    rho = u[..., 0]
    vel = u[..., 1:4] / rho[..., None]
    e = u[..., 4]
    pressure = (GAMMA - 1.0) * (e - 0.5 * rho * (vel ** 2).sum(axis=-1))
    f = np.empty_like(u)
    vn = vel[..., axis]
    f[..., 0] = rho * vn
    for d in range(3):
        f[..., 1 + d] = u[..., 1 + d] * vn
    f[..., 1 + axis] += pressure
    f[..., 4] = (e + pressure) * vn
    return f


def _sound_speed(u: np.ndarray) -> np.ndarray:
    rho = u[..., 0]
    vel = u[..., 1:4] / rho[..., None]
    e = u[..., 4]
    pressure = (GAMMA - 1.0) * (e - 0.5 * rho * (vel ** 2).sum(axis=-1))
    return np.sqrt(GAMMA * np.maximum(pressure, 1e-12) / rho)


def _rusanov(ul: np.ndarray, ur: np.ndarray, axis: int) -> np.ndarray:
    """Rusanov numerical flux across a face, left -> right along ``axis``."""
    fl = conserved_to_flux(ul, axis)
    fr = conserved_to_flux(ur, axis)
    smax = np.maximum(
        np.abs(ul[..., 1 + axis] / ul[..., 0]) + _sound_speed(ul),
        np.abs(ur[..., 1 + axis] / ur[..., 0]) + _sound_speed(ur))
    flux = 0.5 * (fl + fr) - 0.5 * smax[..., None] * (ur - ul)
    # Simple viscous dissipation on momentum and energy.
    flux[..., 1:] -= VISCOSITY * (ur[..., 1:] - ul[..., 1:])
    return flux


def _residual_dense(u: np.ndarray) -> np.ndarray:
    """Residual R(U) on a dense (nx, ny, nz, 5) block with zero-gradient BCs.

    Used both by the task bodies (on a tile+halo window) and by the pure
    reference implementation (on the whole grid).
    """
    res = np.zeros_like(u)
    for axis in range(3):
        # Face k separates cell k-1 (left) from cell k (right); duplicated
        # boundary cells give the zero-gradient condition.
        left = np.concatenate((u.take([0], axis=axis), u), axis=axis)
        right = np.concatenate((u, u.take([-1], axis=axis)), axis=axis)
        flux = _rusanov(left, right, axis)  # n+1 faces along `axis`
        take_lo = tuple(slice(None, -1) if a == axis else slice(None) for a in range(3))
        take_hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(3))
        res -= flux[take_hi] - flux[take_lo]
    return res


def _make_tasks(shape: tuple[int, int, int]):
    @task(privileges=[RW("res"), R("u")], name="compute_residual")
    def compute_residual(C, G):
        cpts = C.points
        cx, cy, cz = np.unravel_index(cpts, shape)
        gpts = G.points
        gx, gy, gz = np.unravel_index(gpts, shape)
        x0, y0, z0 = int(gx.min()), int(gy.min()), int(gz.min())
        win = np.zeros((int(gx.max()) - x0 + 1, int(gy.max()) - y0 + 1,
                        int(gz.max()) - z0 + 1, 5))
        have = np.zeros(win.shape[:3], dtype=bool)
        win[gx - x0, gy - y0, gz - z0] = G.read("u")
        have[gx - x0, gy - y0, gz - z0] = True
        res = np.zeros((cpts.shape[0], 5))
        uc = win[cx - x0, cy - y0, cz - z0]
        for axis in range(3):
            for d in (-1, 1):
                nx = [cx - x0, cy - y0, cz - z0]
                nx[axis] = nx[axis] + d
                inb = (nx[axis] >= 0) & (nx[axis] < win.shape[axis])
                idx = [np.clip(nx[0], 0, win.shape[0] - 1),
                       np.clip(nx[1], 0, win.shape[1] - 1),
                       np.clip(nx[2], 0, win.shape[2] - 1)]
                un = win[idx[0], idx[1], idx[2]]
                ok = inb & have[idx[0], idx[1], idx[2]]
                un = np.where(ok[:, None], un, uc)  # zero-gradient boundary
                if d < 0:
                    flux = _rusanov(un, uc, axis)
                    res += flux
                else:
                    flux = _rusanov(uc, un, axis)
                    res -= flux
        C.write("res")[:] = res

    @task(privileges=[RW("u", "u0", "res")], name="rk_update")
    def rk_update(C, alpha, dt):
        C.write("u")[:] = C.read("u0") + alpha * dt * C.read("res")

    @task(privileges=[RW("u", "u0")], name="save_state")
    def save_state(C):
        C.write("u0")[:] = C.read("u")

    return compute_residual, rk_update, save_state


class MiniAeroProblem(AppProblem):
    """One MiniAero problem instance (functional scale)."""

    name = "miniaero"

    def __init__(self, shape: tuple[int, int, int] = (8, 8, 8), tiles: int = 4,
                 steps: int = 3, dt: float = 5e-3):
        self.shape = tuple(shape)
        self.tiles, self.steps, self.dt = tiles, steps, dt
        tx, ty, tz = grid_dims_3d(tiles)
        self.CIS = ispace(shape=self.shape, name="cells_is")
        self.I = ispace(size=tiles, name="tiles")
        self.CELLS = region(self.CIS, {"u": (np.float64, (5,)),
                                       "u0": (np.float64, (5,)),
                                       "res": (np.float64, (5,))}, name="cells")
        self.PC = partition_blocks_nd(self.CELLS, (tx, ty, tz), name="PC")
        faces = np.vstack(([0, 0, 0], np.eye(3, dtype=np.int64),
                           -np.eye(3, dtype=np.int64)))
        self.QC = partition_by_offsets(self.CELLS, self.PC, faces, name="QC")
        self.tasks = _make_tasks(self.shape)

    def initial_u(self) -> np.ndarray:
        nx, ny, nz = self.shape
        x, y, z = np.meshgrid(np.linspace(0, 1, nx), np.linspace(0, 1, ny),
                              np.linspace(0, 1, nz), indexing="ij")
        rho = 1.0 + 0.2 * np.exp(-30.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2
                                          + (z - 0.5) ** 2))
        p = rho ** GAMMA  # isentropic pulse
        u = np.zeros((nx, ny, nz, 5))
        u[..., 0] = rho
        u[..., 4] = p / (GAMMA - 1.0)
        return u.reshape(-1, 5)

    def build_program(self) -> Program:
        compute_residual, rk_update, save_state = self.tasks
        b = ProgramBuilder("miniaero")
        b.let("T", self.steps)
        b.let("dt", self.dt)
        with b.for_range("t", 0, "T"):
            b.launch(save_state, self.I, self.PC)
            for alpha in RK_ALPHAS:
                b.launch(compute_residual, self.I, self.PC, self.QC)
                b.launch(rk_update, self.I, self.PC, alpha, "dt")
        return b.build()

    def fresh_instances(self) -> dict[int, PhysicalInstance]:
        ci = PhysicalInstance(self.CELLS)
        ci.fields["u"][:] = self.initial_u()
        return {self.CELLS.uid: ci}

    def extract_state(self, instances) -> dict[str, np.ndarray]:
        return {"u": instances[self.CELLS.uid].fields["u"].copy()}

    def reference_state(self) -> dict[str, np.ndarray]:
        u = self.initial_u().reshape(*self.shape, 5).copy()
        for _ in range(self.steps):
            u0 = u.copy()
            for alpha in RK_ALPHAS:
                res = _residual_dense(u)
                u = u0 + alpha * self.dt * res
        return {"u": u.reshape(-1, 5)}

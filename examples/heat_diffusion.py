"""A downstream user's application: 2D heat diffusion, written from scratch.

Shows what adopting the library looks like for a new code (not one of the
paper's four): declare regions and partitions, write numpy task bodies
behind privilege declarations, build the implicit loop — and get a
scalable SPMD program from ``control_replicate`` without writing any
communication or synchronization.

The example also demonstrates a *scalar reduction* (the global residual
used as a convergence check) driving a ``while`` loop — dynamic control
flow replicated across shards.

Run:  python examples/heat_diffusion.py
"""

import numpy as np

from repro.core import BinOp, Const, ProgramBuilder, ScalarRef, control_replicate
from repro.regions import (
    PhysicalInstance,
    ispace,
    partition_blocks_nd,
    partition_by_offsets,
    partition_difference,
    region,
)
from repro.runtime import SequentialExecutor, SPMDExecutor
from repro.tasks import R, RW, task

N, TILES, SHARDS = 48, 4, 4
ALPHA = 0.2  # diffusion number (stable: <= 0.25)
FACES = ((1, 0), (-1, 0), (0, 1), (0, -1))  # a point's four neighbours


def main():
    grid = ispace(shape=(N, N), name="grid")
    T_OLD = region(grid, {"u": np.float64}, name="Told")
    T_NEW = region(grid, {"u": np.float64}, name="Tnew")
    I = ispace(size=TILES, name="tiles")
    P_OLD = partition_blocks_nd(T_OLD, (2, 2), name="Pold")
    P_NEW = partition_blocks_nd(T_NEW, (2, 2), name="Pnew")
    # Each tile's halo: its neighbours' points, less the tile (aliased).
    halo = partition_by_offsets(T_OLD, P_OLD, FACES, name="Qold")
    GHOST = partition_difference(halo, P_OLD, name="Ghost")

    # The mesh never changes, so where each point's four neighbours live —
    # which view (own tile or halo), which slot, or off the grid — is
    # worked out once by an inspector and handed to the body as ``plan``.
    # The runtime decides when: once per tile, never per step.
    def plan_diffuse(NEW, OLD, HALO):
        x, y = np.unravel_index(NEW.points, (N, N))
        plan = []
        for dx, dy in FACES:
            xx, yy = x + dx, y + dy
            m = (xx >= 0) & (xx < N) & (yy >= 0) & (yy < N)
            ids = np.ravel_multi_index((np.clip(xx, 0, N - 1),
                                        np.clip(yy, 0, N - 1)), (N, N))
            found = np.zeros(x.shape[0], dtype=bool)
            legs = []
            for view in (OLD, HALO):
                slots, ok = view.maybe_localize(ids)
                take = ok & ~found & m
                legs.append((np.flatnonzero(take), slots[take]))
                found |= ok & m
            plan.append((legs, np.flatnonzero(~m)))
        return plan

    @task(privileges=[RW("u"), R("u"), R("u")], inspect=plan_diffuse)
    def diffuse(NEW, OLD, HALO, *, plan):
        center = OLD.read("u")
        fields = (center, HALO.read("u"))

        def sample(legs, off_grid):
            out = np.zeros(center.shape[0])
            for arr, (positions, slots) in zip(fields, legs):
                out[positions] = arr[slots]
            out[off_grid] = center[off_grid]  # insulated boundary
            return out

        east, west, north, south = (sample(*side) for side in plan)
        lap = east + west + north + south - 4.0 * center
        NEW.write("u")[:] = center + ALPHA * lap

    @task(privileges=[RW("u"), R("u")])
    def commit(OLD, NEW):
        OLD.write("u")[:] = NEW.read("u")

    @task(privileges=[R("u"), R("u")])
    def residual(NEW, OLD):
        return float(np.max(np.abs(NEW.read("u") - OLD.read("u"))))

    # Iterate until the field stops changing (replicated while loop).
    b = ProgramBuilder("heat")
    b.let("resid", 1.0)
    b.let("iters", 0)
    with b.while_loop(BinOp("and",
                            BinOp(">", ScalarRef("resid"), Const(1e-4)),
                            BinOp("<", ScalarRef("iters"), Const(200)))):
        b.launch(diffuse, I, P_NEW, P_OLD, GHOST)
        b.launch(residual, I, P_NEW, P_OLD, reduce=("max", "resid"))
        b.launch(commit, I, P_OLD, P_NEW)
        b.assign("iters", BinOp("+", ScalarRef("iters"), Const(1)))
    program = b.build()

    def fresh():
        hot = PhysicalInstance(T_OLD)
        u = np.zeros((N, N))
        u[N // 4:3 * N // 4, N // 4:3 * N // 4] = 100.0  # hot square
        hot.fields["u"][:] = u.ravel()
        return {T_OLD.uid: hot, T_NEW.uid: PhysicalInstance(T_NEW)}

    seq = SequentialExecutor(instances=fresh())
    seq_scalars = seq.run(program)

    transformed, report = control_replicate(program, num_shards=SHARDS)
    print(report.summary())
    spmd = SPMDExecutor(num_shards=SHARDS, mode="threaded", instances=fresh())
    spmd_scalars = spmd.run(transformed)

    seq_u = seq.instances[T_OLD.uid].fields["u"]
    spmd_u = spmd.instances[T_OLD.uid].fields["u"]
    print(f"converged after {spmd_scalars['iters']} iterations "
          f"(residual {spmd_scalars['resid']:.2e})")
    print(f"sequential == SPMD: {np.array_equal(seq_u, spmd_u)}; "
          f"mean temperature {spmd_u.mean():.4f}")
    assert spmd_scalars["iters"] == seq_scalars["iters"]
    assert np.array_equal(seq_u, spmd_u)
    # Heat is conserved by the insulated boundary.
    assert abs(spmd_u.sum() - 100.0 * (N // 2) ** 2) < 1e-6
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

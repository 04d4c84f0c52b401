"""Shared fixtures: the paper's Figure 2 program and variants, and the
interpreter as the reference executor."""

from unittest import mock

import numpy as np
import pytest

from repro.core import ProgramBuilder
from repro.regions import (
    ispace,
    partition_block,
    partition_by_image,
    region,
)
from repro.tasks import R, RW, Reduce, task


class Fig2:
    """The running example of the paper (Fig. 2): TF/TG over A, B."""

    def __init__(self, n=32, nt=4, steps=3, seed=0):
        rng = np.random.default_rng(seed)
        self.n, self.nt, self.steps = n, nt, steps
        self.h = rng.integers(0, n, size=n)
        self.U = ispace(size=n, name="U")
        self.I = ispace(size=nt, name="I")
        self.A = region(self.U, {"v": np.float64}, name="A")
        self.B = region(self.U, {"v": np.float64}, name="B")
        self.PA = partition_block(self.A, self.I, name="PA")
        self.PB = partition_block(self.B, self.I, name="PB")
        self.QB = partition_by_image(self.B, self.PB,
                                     func=lambda p: self.h[p], name="QB")
        h = self.h

        @task(privileges=[RW("v"), R("v")], name="TF")
        def TF(Bv, Av):
            Bv.write("v")[:] = np.sin(Av.read("v")) + 1.0

        @task(privileges=[RW("v"), R("v")], name="TG")
        def TG(Av, Bv):
            src = Bv.localize(h[Av.points])
            Av.write("v")[:] = 0.5 * Bv.read("v")[src] + 0.1

        self.TF, self.TG = TF, TG

    def build(self):
        b = ProgramBuilder("fig2")
        b.let("T", self.steps)
        with b.for_range("t", 0, "T"):
            b.launch(self.TF, self.I, self.PB, self.PA)
            b.launch(self.TG, self.I, self.PA, self.QB)
        return b.build()

    def fresh_instances(self, seed=1):
        from repro.regions import PhysicalInstance
        rng = np.random.default_rng(seed)
        ia, ib = PhysicalInstance(self.A), PhysicalInstance(self.B)
        ia.fields["v"][:] = rng.standard_normal(self.n)
        return {self.A.uid: ia, self.B.uid: ib}


def interpreted_iterations(guards: bool = False) -> int:
    """How many iterations a loop interprets before it holds a window: a
    body that evaluates no guard freezes at its first, one with an ``if``,
    a ``while`` or an inner loop bound needs two with equal fingerprints.
    Every count assertion that depends on it reads it from here."""
    return 2 if guards else 1


@pytest.fixture
def fig2():
    return Fig2()


@pytest.fixture
def interpret_only():
    """``with interpret_only:`` — no loop freezes, so every iteration runs
    through the statement interpreter (forked shards inherit the patch)."""
    from repro.runtime.window import LoopReplay

    def never_freeze(self, state):
        self.iterations_recorded += 1
    return mock.patch.object(LoopReplay, "end_iteration", never_freeze)

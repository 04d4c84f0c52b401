"""Tests for the per-shard explanation tooling."""

import pytest

from repro.core import (
    control_replicate,
    explain_shard,
    shard_communication_summary,
)


class TestExplain:
    def test_lists_owned_colors(self, fig2):
        prog, _ = control_replicate(fig2.build(), num_shards=2)
        text = explain_shard(prog, 0)
        assert "shard 0 of 2" in text
        assert "launch TF for colors [0, 1]" in text
        text1 = explain_shard(prog, 1)
        assert "launch TF for colors [2, 3]" in text1

    def test_copy_produce_consume(self, fig2):
        prog, _ = control_replicate(fig2.build(), num_shards=2)
        text = explain_shard(prog, 0)
        assert "copy PB -> QB [p2p]" in text
        assert "produce" in text and "consume" in text

    def test_requires_transformed_program(self, fig2):
        with pytest.raises(ValueError, match="control_replicate"):
            explain_shard(fig2.build(), 0)

    def test_shard_out_of_range(self, fig2):
        prog, _ = control_replicate(fig2.build(), num_shards=2)
        with pytest.raises(ValueError, match="out of range"):
            explain_shard(prog, 5)

    def test_unresolved_shard_count(self, fig2):
        prog, _ = control_replicate(fig2.build())  # num_shards deferred
        with pytest.raises(ValueError, match="unresolved"):
            explain_shard(prog, 0)
        text = explain_shard(prog, 0, num_shards=4)
        assert "shard 0 of 4" in text

    def test_collective_and_scalar_shown(self):
        from repro.apps.pennant import PennantProblem
        p = PennantProblem(nx=8, ny=8, pieces=4, steps=1)
        prog, _ = control_replicate(p.build_program(), num_shards=2)
        text = explain_shard(prog, 0)
        assert "allreduce(min) -> dtnew" in text
        assert "(replicated)" in text
        assert "fill " in text


class TestCommunicationSummary:
    def test_stencil_neighbors_only(self):
        from repro.apps.stencil import StencilProblem
        p = StencilProblem(n=32, radius=2, tiles=4, steps=1)
        prog, _ = control_replicate(p.build_program(), num_shards=4)
        comm = shard_communication_summary(prog)
        # 2x2 tile grid, one shard per tile: diagonal tiles never talk.
        assert (0, 3) not in comm and (3, 0) not in comm
        assert (0, 1) in comm and (0, 2) in comm

    def test_counts_positive(self, fig2):
        prog, _ = control_replicate(fig2.build(), num_shards=2)
        comm = shard_communication_summary(prog)
        assert comm and all(t.pairs > 0 for t in comm.values())

    def test_channels_are_the_runtimes(self):
        """One channel per copy statement and shard pair it crosses, none
        for a shard's own pairs — the keys the runtime builds."""
        from repro.apps.circuit import CircuitProblem
        from repro.core.ir import PairwiseCopy, ShardLaunch, walk
        p = CircuitProblem(pieces=8, nodes_per_piece=10, wires_per_piece=20,
                           steps=1)
        prog, _ = control_replicate(p.build_program(), num_shards=2)
        comm = shard_communication_summary(prog)
        launch = next(s for s in walk(prog.body) if isinstance(s, ShardLaunch))
        copies = sum(isinstance(s, PairwiseCopy) for s in walk(launch))
        assert comm[(0, 0)].channels == comm[(1, 1)].channels == 0
        for key in ((0, 1), (1, 0)):
            assert 0 < comm[key].channels <= copies < comm[key].pairs
        text = explain_shard(prog, 0)
        assert "channels [(0, 1), (1, 0)]" in text


class TestExplainControlFlow:
    def test_while_and_if_rendered(self):
        """Shard explanation handles all structured control flow."""
        import numpy as np
        from repro.core import BinOp, Const, ProgramBuilder, ScalarRef
        from repro.regions import ispace, partition_block, region
        from repro.tasks import R, RW, task

        Rg = region(ispace(size=8), {"v": np.float64})
        P = partition_block(Rg, 2)
        I = ispace(size=2)

        @task(privileges=[RW("v")], name="b1")
        def b1(A):
            A.write("v")[:] += 1

        @task(privileges=[R("v")], name="m1")
        def m1(A):
            return float(A.read("v").max())

        b = ProgramBuilder()
        b.let("go", 0.0)
        with b.while_loop(BinOp("<", ScalarRef("go"), Const(2.0))):
            with b.if_stmt(BinOp(">", ScalarRef("go"), Const(-1.0))):
                b.launch(b1, I, P)
            b.launch(m1, I, P, reduce=("max", "go"))
        prog, _ = control_replicate(b.build(), num_shards=2)
        text = explain_shard(prog, 0)
        assert "while ... do" in text
        assert "if ... then" in text
        assert "reduce max into go" in text


def _brute_copy_pairs(stmt):
    """The overlap test of every (source, destination) colour pair."""
    return [(i, j) for i in stmt.src.colors for j in stmt.dst.colors
            if stmt.src.subset(i).intersects(stmt.dst.subset(j))]


@pytest.mark.parametrize("app", ["circuit", "stencil", "pennant"])
def test_copy_pairs_equal_the_pairwise_loop(app):
    # explain's static pair list is one join of the two colour tables;
    # it must be the all-pairs loop's list, in the same order.
    from repro.apps.circuit import CircuitProblem
    from repro.apps.pennant import PennantProblem
    from repro.apps.stencil import StencilProblem
    from repro.core.explain import _copy_pairs
    from repro.core.ir import PairwiseCopy, walk
    problem = {"circuit": lambda: CircuitProblem(pieces=24),
               "stencil": lambda: StencilProblem(),
               "pennant": lambda: PennantProblem()}[app]()
    prog, _ = control_replicate(problem.build_program(), num_shards=3)
    copies = [s for s in walk(prog.body) if isinstance(s, PairwiseCopy)]
    assert copies
    for stmt in copies:
        assert _copy_pairs(stmt) == _brute_copy_pairs(stmt)

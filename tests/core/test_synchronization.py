"""Tests for CR phase 4: synchronization insertion (paper §3.4, §4.4)."""

import numpy as np
import pytest

from repro.core import (
    IndexLaunch,
    PairwiseCopy,
    ProgramBuilder,
    ScalarCollective,
    find_fragments,
    walk,
)
from repro.core.data_replication import replicate_data
from repro.core.synchronization import insert_synchronization
from repro.regions import ispace, partition_block, partition_by_image, region
from repro.tasks import R, RW, task


def transformed_body(fig2, mode):
    frag = find_fragments(fig2.build())[0]
    out = replicate_data(frag)
    body, stats = insert_synchronization(out.body, mode=mode)
    return body, stats


class TestP2P:
    def test_copies_get_p2p_mode(self, fig2):
        body, stats = transformed_body(fig2, "p2p")
        copies = [s for top in body for s in walk(top)
                  if isinstance(s, PairwiseCopy)]
        assert len(copies) == 1 and copies[0].sync_mode == "p2p"
        assert stats.p2p_copies == 1 and stats.barriers == 0

    def test_consumers_are_dst_readers(self, fig2):
        body, _ = transformed_body(fig2, "p2p")
        stmts = [s for top in body for s in walk(top)]
        copy = next(s for s in stmts if isinstance(s, PairwiseCopy))
        launches = [s for s in stmts if isinstance(s, IndexLaunch)]
        tg = next(l for l in launches if l.task.name == "TG")
        tf = next(l for l in launches if l.task.name == "TF")
        assert tg.uid in copy.consumers
        assert tf.uid not in copy.consumers

    def test_no_barriers_inserted(self, fig2):
        body, _ = transformed_body(fig2, "p2p")
        kinds = [type(s).__name__ for s in body[0].body.stmts]
        assert kinds == ["IndexLaunch", "PairwiseCopy", "IndexLaunch"]


class TestBarrier:
    def test_barriers_bracket_copies(self, fig2):
        """Barrier mode emits only the copy: its own pre/post rendezvous
        are the WAR and RAW barriers, counted two per copy."""
        body, stats = transformed_body(fig2, "barrier")
        loop = body[0]
        kinds = [type(s).__name__ for s in loop.body.stmts]
        assert kinds == ["IndexLaunch", "PairwiseCopy", "IndexLaunch"]
        assert loop.body.stmts[1].sync_mode == "barrier"
        assert stats.barriers == 2 and stats.p2p_copies == 0

    def test_copy_mode_marked(self, fig2):
        body, _ = transformed_body(fig2, "barrier")
        copies = [s for top in body for s in walk(top)
                  if isinstance(s, PairwiseCopy)]
        assert copies[0].sync_mode == "barrier"


class TestScalarReductions:
    def test_collective_follows_reduce_launch(self):
        Rg = region(ispace(size=16), {"v": np.float64}, name="R")
        I = ispace(size=4, name="I")
        P = partition_block(Rg, I, name="P")

        @task(privileges=[R("v")], name="mn")
        def mn(A):
            return 0.0

        b = ProgramBuilder()
        with b.for_range("t", 0, 2):
            b.launch(mn, I, P, reduce=("min", "dt"))
        frag = find_fragments(b.build())[0]
        out = replicate_data(frag)
        body, stats = insert_synchronization(out.body, mode="p2p")
        loop = body[0]
        kinds = [type(s).__name__ for s in loop.body.stmts]
        assert kinds == ["IndexLaunch", "ScalarCollective"]
        coll = loop.body.stmts[1]
        assert coll.name == "dt" and coll.redop == "min"
        assert stats.collectives == 1

    def test_unknown_mode_rejected(self, fig2):
        frag = find_fragments(fig2.build())[0]
        out = replicate_data(frag)
        with pytest.raises(ValueError):
            insert_synchronization(out.body, mode="magic")

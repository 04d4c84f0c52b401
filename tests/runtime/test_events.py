"""Tests for events, sequences and barriers.

A barrier is a :class:`DynamicCollective` with ``redop=None``: every
contribution and the result are ``None``, and its event triggers once
every shard has arrived.
"""

import threading

import pytest

from repro.runtime import DynamicCollective, Event, Sequence


class TestEvent:
    def test_trigger(self):
        e = Event()
        assert not e.is_set()
        e.trigger()
        assert e.is_set()
        assert e.wait_blocking(0.01)

    def test_pre_triggered(self):
        assert Event(triggered=True).is_set()

    def test_repr(self):
        assert "unset" in repr(Event())


class TestSequence:
    def test_monotone(self):
        s = Sequence()
        assert s.value == 0
        s.advance_to(3)
        s.advance_to(1)  # no going back
        assert s.value == 3

    def test_event_for_past_threshold(self):
        s = Sequence()
        s.advance_to(2)
        assert s.event_for(2).is_set()
        assert s.event_for(1).is_set()

    def test_event_for_future_threshold(self):
        s = Sequence()
        ev = s.event_for(5)
        assert not ev.is_set()
        s.advance_to(4)
        assert not ev.is_set()
        s.advance_to(5)
        assert ev.is_set()

    def test_skipping_triggers_intermediate(self):
        s = Sequence()
        e3, e7 = s.event_for(3), s.event_for(7)
        s.advance_to(10)
        assert e3.is_set() and e7.is_set()

    def test_waiters_pruned_on_advance(self):
        """Satisfied thresholds are popped eagerly: 1000 epochs of the
        copy handshake leave no garbage behind."""
        s = Sequence()
        for g in range(1, 1001):
            ev = s.event_for(g)
            s.advance_to(g)
            assert ev.is_set()
        assert len(s._waiters) == 0
        assert s.value == 1000

    def test_value_read_is_locked(self):
        """The property must acquire the lock (regression: torn reads
        observed by the stepped driver's deadlock detector)."""
        s = Sequence()
        assert s._lock.acquire(blocking=False)
        try:
            reader = threading.Thread(target=lambda: s.value)
            reader.start()
            reader.join(timeout=0.2)
            assert reader.is_alive()  # blocked on the lock, as required
        finally:
            s._lock.release()
        reader.join(timeout=2.0)
        assert not reader.is_alive()


def _barrier(num_shards):
    return DynamicCollective(num_shards, None)


def _is_empty(c):
    return not (c._results or c._reads or c._arrived or c._events
                or c._partial)


class TestPhaseBarrier:
    def test_generation_completion(self):
        pb = _barrier(3)
        ev = pb.contribute(1, None)
        pb.contribute(1, None)
        assert not ev.is_set()
        pb.contribute(1, None)
        assert ev.is_set()

    def test_generations_independent(self):
        pb = _barrier(2)
        pb.contribute(2, None)
        assert pb.contribute(2, None).is_set()
        assert not pb.contribute(1, None).is_set()

    def test_over_arrival_rejected(self):
        pb = _barrier(1)
        pb.contribute(1, None)
        with pytest.raises(RuntimeError):
            pb.contribute(1, None)

    def test_over_arrival_within_generation_rejected(self):
        pb = _barrier(2)
        pb.contribute(1, None)
        pb.contribute(1, None)
        with pytest.raises(RuntimeError):
            pb.contribute(1, None)

    def test_completed_generations_are_retired(self):
        """After 1000 generations the internal dicts hold O(live), not
        O(total) entries (the long-control-loop leak)."""
        pb = _barrier(3)
        for g in range(1, 1001):
            ev = pb.contribute(g, None)
            pb.contribute(g, None)
            pb.contribute(g, None)
            assert ev.is_set()
            for _ in range(3):
                assert pb.result(g) is None
        assert _is_empty(pb)

    def test_out_of_order_completion_compacts(self):
        pb = _barrier(1)
        assert pb.contribute(2, None).is_set()
        assert 1 not in pb._events
        assert pb.result(2) is None
        assert _is_empty(pb)  # generation 2 retired with 1 never started
        assert pb.contribute(1, None).is_set()
        assert pb.result(1) is None
        assert _is_empty(pb)
        # The retired-generation record folded into its watermark too.
        assert pb._retired_below == 2 and not pb._retired_above


class TestGlobalBarrier:
    def test_all_must_arrive(self):
        gb = _barrier(2)
        e1 = gb.contribute(1, None)
        assert not e1.is_set()
        e2 = gb.contribute(1, None)
        assert e1.is_set() and e2.is_set()

    def test_long_loop_stays_bounded(self):
        gb = _barrier(2)
        for g in range(1, 1001):
            e1 = gb.contribute(g, None)
            e2 = gb.contribute(g, None)
            assert e1.is_set() and e2.is_set()
            assert gb.result(g) is None and gb.result(g) is None
        assert len(gb._arrived) == 0
        assert len(gb._events) == 0

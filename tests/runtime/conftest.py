"""Runtime test fixtures: the interpreter as the reference executor."""

from unittest import mock

import pytest

from repro.runtime.window import LoopReplay


@pytest.fixture
def interpret_only():
    """``with interpret_only:`` — no loop freezes, so every iteration runs
    through the statement interpreter (forked shards inherit the patch)."""
    def never_freeze(self, ex, state):
        self.iterations_recorded += 1
        return False
    return mock.patch.object(LoopReplay, "end_iteration", never_freeze)

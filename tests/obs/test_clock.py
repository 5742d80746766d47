"""Unit tests for the simulated clock."""

import pytest

from repro.obs.clock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_tick_is_monotonic_but_tiny(self):
        clock = SimClock()
        before = clock.now
        clock.tick()
        assert 0 < clock.now - before < 1e-3

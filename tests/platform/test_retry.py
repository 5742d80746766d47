"""Unit tests for the retry policy and its Vinci bus wiring."""

import random

import pytest

from repro.platform.faults import FaultPlan
from repro.platform.retry import RetryPolicy, RetryStats
from repro.platform.vinci import VinciBus, VinciError

pytestmark = pytest.mark.chaos


class TestPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(max_attempts=5, base_backoff=0.1, multiplier=2.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)

    def test_jitter_bounds_and_determinism(self):
        policy = RetryPolicy(max_attempts=3, base_backoff=1.0, jitter=0.5)
        a = [policy.backoff(1, random.Random(9)) for _ in range(10)]
        b = [policy.backoff(1, random.Random(9)) for _ in range(10)]
        assert a == b  # same seed, same jitter stream
        assert all(0.5 <= cost <= 1.5 for cost in a)

    def test_no_rng_means_no_jitter(self):
        policy = RetryPolicy(base_backoff=1.0, jitter=0.5)
        assert policy.backoff(1) == 1.0

    def test_allows_retry(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows_retry(1)
        assert policy.allows_retry(2)
        assert not policy.allows_retry(3)

    def test_no_retry_sentinel(self):
        policy = RetryPolicy(max_attempts=1)
        assert not policy.allows_retry(1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_backoff": -0.1},
            {"multiplier": 0.5},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)


class TestStats:
    def test_record_retry_accumulates(self):
        stats = RetryStats()
        stats.record_retry("a", 0.1)
        stats.record_retry("a", 0.2)
        stats.record_retry("b", 0.4)
        assert stats.retries == 3
        assert stats.backoff_cost == pytest.approx(0.7)
        assert stats.by_service == {"a": 2, "b": 1}
        assert stats.snapshot()["retries"] == 3


class TestBusRetries:
    def _flaky(self, failures):
        """A handler that fails its first *failures* calls, then succeeds."""
        state = {"calls": 0}

        def handler(payload):
            state["calls"] += 1
            if state["calls"] <= failures:
                raise RuntimeError("transient")
            return {"calls": state["calls"]}

        return handler

    def test_transient_failure_recovered(self):
        bus = VinciBus(retry_policy=RetryPolicy(max_attempts=3, base_backoff=0.1))
        bus.register("svc", self._flaky(2))
        assert bus.request("svc") == {"calls": 3}
        assert bus.retry_stats.retries == 2
        assert bus.retry_stats.recovered == 1
        assert bus.retry_stats.backoff_cost == pytest.approx(0.1 + 0.2)
        assert bus.stats()["svc"] == {"requests": 3, "failures": 2}

    def test_attempts_exhausted_raises(self):
        bus = VinciBus(retry_policy=RetryPolicy(max_attempts=2, base_backoff=0.1))
        bus.register("svc", self._flaky(5))
        with pytest.raises(VinciError):
            bus.request("svc")
        assert bus.retry_stats.exhausted == 1
        assert bus.retry_stats.retries == 1

    def test_unknown_service_not_retried(self):
        bus = VinciBus(retry_policy=RetryPolicy(max_attempts=5))
        with pytest.raises(VinciError, match="no such service"):
            bus.request("ghost")
        assert bus.retry_stats.retries == 0

    def test_no_policy_fails_fast(self):
        bus = VinciBus()
        bus.register("svc", self._flaky(1))
        with pytest.raises(VinciError):
            bus.request("svc")
        assert bus.retry_stats.retries == 0
        assert bus.retry_stats.exhausted == 1

    def test_injected_faults_retried_through(self):
        plan = FaultPlan().fail_service("svc", count=2)
        bus = VinciBus(retry_policy=RetryPolicy(max_attempts=3, base_backoff=0.1), fault_plan=plan)
        bus.register("svc", lambda p: {"ok": True})
        assert bus.request("svc") == {"ok": True}
        assert bus.retry_stats.retries == 2
        attempts = [envelope.attempt for envelope in bus.trace()]
        assert attempts == [1, 2, 3]

    def test_trace_marks_retry_attempts(self):
        bus = VinciBus(retry_policy=RetryPolicy(max_attempts=2, base_backoff=0.0))
        bus.register("svc", self._flaky(1))
        bus.request("svc")
        first, second = bus.trace()
        assert (first.ok, first.attempt) == (False, 1)
        assert (second.ok, second.attempt) == (True, 2)

"""CircuitBreaker state machine."""

import pytest

from repro.server.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def breaker(clock):
    return CircuitBreaker(threshold=3, cooldown_s=5.0, clock=clock)


class TestClosedState:
    def test_starts_closed_and_allows(self, breaker):
        assert breaker.state == CLOSED
        assert breaker.allow() is True
        assert breaker.retry_after() == 0.0

    def test_failures_below_threshold_stay_closed(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow() is True
        assert breaker.opens == 0

    def test_success_resets_the_failure_count(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never reached 3 consecutive

    def test_constructor_validation(self, clock):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0, clock=clock)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=0.0, clock=clock)


class TestOpenState:
    def test_threshold_trips_open(self, breaker):
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opens == 1

    def test_open_rejects_and_counts(self, breaker):
        for _ in range(3):
            breaker.record_failure()
        assert breaker.allow() is False
        assert breaker.allow() is False
        assert breaker.rejections == 2

    def test_retry_after_counts_down(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        assert breaker.retry_after() == 5.0
        clock.advance(2.0)
        assert breaker.retry_after() == 3.0
        clock.advance(10.0)
        assert breaker.retry_after() == 0.0


class TestHalfOpenState:
    def _trip(self, breaker):
        for _ in range(3):
            breaker.record_failure()

    def test_cooldown_elapsed_reports_half_open(self, breaker, clock):
        self._trip(breaker)
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN

    def test_exactly_one_probe_allowed(self, breaker, clock):
        self._trip(breaker)
        clock.advance(5.0)
        assert breaker.allow() is True  # the probe
        assert breaker.allow() is False  # everyone else waits
        assert breaker.allow() is False

    def test_probe_success_closes(self, breaker, clock):
        self._trip(breaker)
        clock.advance(5.0)
        assert breaker.allow() is True
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow() is True
        assert breaker.opens == 1

    def test_probe_failure_reopens_immediately(self, breaker, clock):
        self._trip(breaker)
        clock.advance(5.0)
        assert breaker.allow() is True
        breaker.record_failure()  # one bad probe is proof enough
        assert breaker.state == OPEN
        assert breaker.opens == 2
        assert breaker.allow() is False
        # A fresh cooldown starts from the failed probe.
        assert breaker.retry_after() == 5.0

    def test_reopen_then_recover(self, breaker, clock):
        self._trip(breaker)
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED

"""Circuit breaker for the gateway's scoring path.

:class:`CircuitBreaker` is the classic closed / open / half-open state
machine.  Consecutive failures trip it open; while open every request is
rejected instantly (the gateway answers 503 + ``Retry-After`` instead of
queueing doomed work behind a broken model); after a cooldown exactly
one probe request is let through and its outcome decides between
closing the breaker and re-opening it.  It takes an injectable clock, so
it is deterministic under test.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

#: Breaker states (exposed via :attr:`CircuitBreaker.state`).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Trip after ``threshold`` consecutive failures; probe after cooldown.

    Thread-safe; all transitions happen under one lock.  Usage::

        breaker = CircuitBreaker(threshold=5, cooldown_s=2.0)
        if not breaker.allow():
            return 503  # degraded — retry after breaker.retry_after()
        try:
            result = score(...)
        except Exception:
            breaker.record_failure()
            raise
        breaker.record_success()

    Args:
        threshold: consecutive failures that open the breaker (>= 1).
        cooldown_s: seconds the breaker stays open before letting one
            half-open probe through.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be > 0")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        #: Times the breaker tripped open (monotonic counter, metrics).
        self.opens = 0
        #: Requests rejected while open (monotonic counter, metrics).
        self.rejections = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``"closed"`` / ``"open"`` / ``"half-open"`` (non-mutating)."""
        with self._lock:
            if self._state == OPEN and self._cooled_down():
                return HALF_OPEN
            return self._state

    def _cooled_down(self) -> bool:
        return self._clock() - self._opened_at >= self.cooldown_s

    def allow(self) -> bool:
        """Whether a request may proceed right now.

        Closed: always.  Open: no, until the cooldown elapses.  After
        the cooldown exactly one caller gets ``True`` (the half-open
        probe); everyone else keeps getting ``False`` until the probe's
        outcome is recorded.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN and self._cooled_down():
                self._state = HALF_OPEN
                self._probe_inflight = False
            if self._state == HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                return True
            self.rejections += 1
            return False

    def record_success(self) -> None:
        """A scoring call succeeded: close the breaker, reset counters."""
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0
            self._probe_inflight = False

    def record_failure(self) -> None:
        """A scoring call failed: count it, trip open at the threshold.

        A failed half-open probe re-opens immediately (one bad probe is
        proof enough that the fault persists).
        """
        with self._lock:
            self._consecutive_failures += 1
            if (
                self._state == HALF_OPEN
                or self._consecutive_failures >= self.threshold
            ):
                if self._state != OPEN:
                    self.opens += 1
                self._state = OPEN
                self._opened_at = self._clock()
                self._probe_inflight = False

    def retry_after(self) -> float:
        """Seconds until the next half-open probe window (0 when serving)."""
        with self._lock:
            if self._state == CLOSED:
                return 0.0
            return max(0.0, self.cooldown_s - (self._clock() - self._opened_at))

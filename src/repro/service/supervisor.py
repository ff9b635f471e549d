"""Executor supervision: batch health probes and a circuit breaker.

The engine's executor can get into pathological states the per-run
resilience layer (PR 5) cannot see: a worker pool that breaks on *every*
batch (bad node, OOM death spiral), or a backend bug hanging every run.
Retrying into that storm burns the retry budget of every queued job.

:class:`Supervisor` watches per-batch health — a batch counts as a
failure when the pool raised out of the batch call, or when every run in
it came back ``crashed``/``hung``/``quarantined`` — and trips a
:class:`CircuitBreaker`:

* ``closed`` — normal operation; consecutive failures are counted.
* ``open``   — after ``failure_threshold`` consecutive bad batches.  New
  submissions are shed with :class:`BreakerOpen` (HTTP 503 +
  ``Retry-After``), and no batch dispatches until ``reset_timeout``
  elapses.
* ``half_open`` — the first batch dispatched after the timeout is the
  recovery probe.  It stays a single batch of the runs it started with:
  the engine runs one batch call at a time and hands a running batch no
  further runs unless the breaker is closed.  A healthy probe closes
  the breaker; a bad one reopens it and restarts the timeout.

State transitions are counted under ``service.breaker.*`` and the clock
is injectable, so tests drive the whole state machine deterministically.
:class:`OverloadedError` is also the admission-backpressure signal: the
engine raises it when the queued-run bound would be exceeded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricScope

__all__ = [
    "BreakerConfig",
    "BreakerOpen",
    "CircuitBreaker",
    "OverloadedError",
    "Supervisor",
]


class OverloadedError(RuntimeError):
    """The service is shedding load (HTTP 503 + ``Retry-After``)."""

    def __init__(self, message: str, retry_after: float = 5.0):
        super().__init__(message)
        self.retry_after = retry_after


class BreakerOpen(OverloadedError):
    """The circuit breaker is open; resubmit after ``retry_after``."""

    def __init__(self, retry_after: float):
        super().__init__(
            f"executor circuit breaker is open; "
            f"retry in {retry_after:.1f}s",
            retry_after=retry_after,
        )


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recovery policy for the executor circuit breaker."""

    #: consecutive failed batches that open the breaker.
    failure_threshold: int = 3
    #: seconds the breaker stays open before a half-open probe.
    reset_timeout: float = 30.0


class CircuitBreaker:
    """Closed / open / half-open breaker with an injectable clock."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, config: Optional[BreakerConfig] = None,
                 metrics: Optional["MetricScope"] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config or BreakerConfig()
        self.metrics = metrics
        self._clock = clock
        self.state = self.CLOSED
        #: consecutive failures observed while closed.
        self.failures = 0
        self._opened_at = 0.0

    def _transition(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        if self.metrics is not None:
            # closed -> breaker.closed, open -> breaker.opened, ...
            name = {self.CLOSED: "closed", self.OPEN: "opened",
                    self.HALF_OPEN: "half_open"}[state]
            self.metrics.inc(f"breaker.{name}")

    def allow_dispatch(self) -> bool:
        """True when a batch may launch now.

        While open, flips to half-open once the reset timeout elapses —
        the caller's next batch is the recovery probe."""
        if self.state == self.OPEN:
            if self._clock() - self._opened_at >= self.config.reset_timeout:
                self._transition(self.HALF_OPEN)
                return True
            return False
        return True

    def retry_after(self) -> float:
        """Seconds until the next half-open probe (0 unless open)."""
        if self.state != self.OPEN:
            return 0.0
        return max(
            0.0,
            self.config.reset_timeout - (self._clock() - self._opened_at),
        )

    def record_success(self) -> None:
        self.failures = 0
        self._transition(self.CLOSED)

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == self.HALF_OPEN \
                or self.failures >= self.config.failure_threshold:
            self._opened_at = self._clock()
            self._transition(self.OPEN)


class Supervisor:
    """Health supervision the engine consults at admission and dispatch."""

    #: run statuses that indicate executor damage rather than a bad spec.
    BROKEN_STATUSES = frozenset({"crashed", "hung", "quarantined"})

    def __init__(self, breaker: Optional[BreakerConfig] = None,
                 metrics: Optional["MetricScope"] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.metrics = metrics
        self.breaker = CircuitBreaker(breaker, metrics=metrics, clock=clock)

    def admit(self) -> None:
        """Admission gate: shed new submissions while the breaker is open."""
        if self.breaker.state == CircuitBreaker.OPEN:
            retry_after = self.breaker.retry_after()
            if retry_after > 0:
                if self.metrics is not None:
                    self.metrics.inc("breaker.rejected")
                raise BreakerOpen(retry_after)

    def allow_dispatch(self) -> bool:
        return self.breaker.allow_dispatch()

    def observe_batch(self, statuses: Sequence[str],
                      broke: bool = False) -> None:
        """Per-batch health probe.

        ``broke`` means the batch call itself raised (e.g. the executor
        died under it); a batch where *every* run came back broken is
        equally damning — one bad run in an otherwise-healthy batch is
        the resilience layer's business, not the breaker's."""
        unhealthy = broke or (
            len(statuses) > 0
            and all(s in self.BROKEN_STATUSES for s in statuses)
        )
        if unhealthy:
            if self.metrics is not None:
                self.metrics.inc("breaker.batch_failures")
            self.breaker.record_failure()
        else:
            self.breaker.record_success()

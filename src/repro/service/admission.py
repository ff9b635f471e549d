"""Cache-aware admission: collapse identical in-flight work across clients.

The harness already dedupes identical requests *within* one grid call
(:func:`~repro.harness.parallel.run_requests_resilient`) and serves
repeats *after* completion from the content-addressed disk cache.  The
service closes the remaining window: two clients submitting the same
:class:`~repro.harness.parallel.RunRequest` while it is queued or
executing must share one execution, not race two.

:class:`AdmissionController` keys in-flight executions by
:attr:`RunRequest.identity` (the full-field content digest — stable
across pickling and process boundaries, see the Hypothesis suite in
``tests/harness/test_request_identity.py``).  Every (job, run-index) pair
interested in a request subscribes to its execution; the first
subscriber creates it, later ones attach (``service.admission.deduped``).
When the engine resolves the execution, every subscriber receives the
same outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..harness.parallel import RunOutcome, RunRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricScope

__all__ = ["AdmissionController", "Execution"]

#: one interested party: (job id, run index within the job).
Subscriber = Tuple[str, int]


@dataclass
class Execution:
    """One scheduled execution of a unique request, with its audience."""

    request: RunRequest
    subscribers: List[Subscriber] = field(default_factory=list)
    #: set once the engine has put the request into a running batch —
    #: a draining engine persists unstarted work, not running work.
    started: bool = False


class AdmissionController:
    """In-flight execution registry keyed by request identity."""

    def __init__(self, metrics: Optional["MetricScope"] = None):
        self._inflight: Dict[str, Execution] = {}
        self.metrics = metrics
        self.deduped = 0

    def __len__(self) -> int:
        return len(self._inflight)

    def pending(self) -> List[Execution]:
        """Executions not yet handed to a batch, in insertion order."""
        return [e for e in self._inflight.values() if not e.started]

    def acquire(self, request: RunRequest, subscriber: Subscriber) -> bool:
        """Subscribe to ``request``; True iff this created the execution
        (the caller is then responsible for getting it scheduled)."""
        identity = request.identity
        execution = self._inflight.get(identity)
        if execution is None:
            self._inflight[identity] = Execution(request, [subscriber])
            return True
        execution.subscribers.append(subscriber)
        self.deduped += 1
        if self.metrics is not None:
            self.metrics.inc("admission.deduped")
        return False

    def unsubscribe(self, job_id: str) -> None:
        """Drop a cancelled job's interest; executions nobody wants and
        that have not started are discarded."""
        for identity in list(self._inflight):
            execution = self._inflight[identity]
            execution.subscribers = [
                s for s in execution.subscribers if s[0] != job_id
            ]
            if not execution.subscribers and not execution.started:
                del self._inflight[identity]

    def is_inflight(self, request: RunRequest) -> bool:
        return request.identity in self._inflight

    def execution(self, identity: str) -> Optional[Execution]:
        """The in-flight execution for an identity, if any."""
        return self._inflight.get(identity)

    def mark_started(self, request: RunRequest) -> None:
        execution = self._inflight.get(request.identity)
        if execution is not None:
            execution.started = True

    def unstart(self, request: RunRequest) -> bool:
        """Undo :meth:`mark_started` for an execution no batch took.

        True iff it should be queued again; one nobody wants any more
        is discarded instead."""
        execution = self._inflight.get(request.identity)
        if execution is None:
            return False
        if not execution.subscribers:
            del self._inflight[request.identity]
            return False
        execution.started = False
        return True

    def resolve(self, request: RunRequest,
                outcome: RunOutcome) -> List[Subscriber]:
        """Retire the execution; returns every subscriber to notify."""
        execution = self._inflight.pop(request.identity, None)
        if execution is None:
            return []
        return list(execution.subscribers)

"""Job store, priority scheduler, and crash-consistent persistence.

:class:`ServiceEngine` is the daemon's core and is HTTP-free: the app
layer (:mod:`repro.service.app`) translates requests into these calls,
and the whole engine is testable in-process on a plain event loop.

Execution model
---------------

All engine state lives on the event-loop thread.  Simulation happens in
**batches**: the scheduler drains the priority heap of (job, run) work
items, dedupes them through the :class:`AdmissionController`, and hands
the unique requests to one executor thread running
:meth:`SuiteRunner.run_grid_outcomes` — cache hits return instantly,
misses run on the runner's long-lived process pool, and every per-run
outcome is marshalled back onto the loop via ``call_soon_threadsafe``
the moment it lands (the ``on_outcome`` hook added to the harness for
exactly this).

One batch call runs at a time, so the :class:`SuiteRunner` never sees
concurrent mutation, but a running batch keeps taking work.  With more
than one worker it gets a :class:`~repro.harness.parallel.RunFeed`, and
whenever fewer than ``jobs`` of its runs are unresolved — a worker
freed, or it never had enough — the engine hands it the most urgent
queued runs, journaling a ``start`` record for each hand-over first.
Hand-overs stop once the batch has taken ``max_batch_runs`` runs, while
draining, and whenever the breaker is not closed.  A run the batch
refuses (it closed its feed first) goes back on the queue for the next
batch.  Requests submitted while a batch runs attach to its in-flight
executions (admission dedupe), join it by hand-over, or queue.

The PR-5 resilience machinery is the service's SLO layer: the engine's
``FaultPolicy``/``WatchdogConfig`` bound per-run wall-clock and retries,
and quarantined/hung/crashed runs surface as per-run outcome events
rather than wedging the daemon.  Above it, the :class:`Supervisor`
watches *batch* health: repeated pool breakage opens a circuit breaker
that sheds new submissions (503 + ``Retry-After``) and pauses dispatch
until a half-open probe proves recovery.  Per-job deadlines degrade
gracefully — finished runs keep their outcomes, the remainder is marked
``expired`` — and admission is backpressure-bounded.

Crash consistency
-----------------

With a ``state_path``, every mutation is journaled through
:class:`~repro.service.journal.JournalStore` **before** it is applied in
memory or published to clients (write-ahead ordering).  A killed daemon
restarts from snapshot + journal replay: outcomes that were journaled
are served verbatim (never re-executed — exactly-once accounting), runs
that never produced a journaled outcome are re-dispatched through the
``jobs/runs.resumed`` path, where the content-addressed disk cache
makes any re-dispatch of work that *simulated* but didn't *journal* a
cheap, deterministic cache hit.  Replay restores each job as it was
admitted, without today's admission checks; a missing run that no longer
passes them gets a ``crashed`` outcome instead of a dispatch.
``drain()`` additionally compacts the journal into the snapshot so a
graceful shutdown leaves a plain JSON state file.
"""

from __future__ import annotations

import asyncio
import heapq
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..harness.faults import service_kill_point
from ..harness.parallel import (FaultPolicy, RunFeed, RunOutcome, RunRequest,
                                is_positive_finite)
from ..harness.runner import SuiteRunner
from ..obs.metrics import MetricsRegistry, bucket_125
from ..sim.watchdog import WatchdogConfig
from .admission import AdmissionController
from .journal import JournalStore
from .quotas import QuotaGate, TenantQuota
from .schemas import SpecError, job_to_wire, outcome_to_wire, \
    request_from_record, request_from_wire, request_to_wire
from .supervisor import BreakerConfig, CircuitBreaker, OverloadedError, \
    Supervisor

if TYPE_CHECKING:  # pragma: no cover
    from ..harness.cache import ResultCache
    from ..sim.config import GPUConfig

__all__ = [
    "DrainingError",
    "Job",
    "Priority",
    "ServiceConfig",
    "ServiceEngine",
]


class Priority:
    """Priority classes, most urgent first."""

    INTERACTIVE = "interactive"
    BATCH = "batch"
    BULK = "bulk"

    ORDER = {INTERACTIVE: 0, BATCH: 1, BULK: 2}
    NAMES = frozenset(ORDER)


class DrainingError(RuntimeError):
    """The daemon is draining and accepts no new jobs (HTTP 503)."""


@dataclass
class Job:
    """One submitted grid spec and everything recorded about it."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    id: str
    tenant: str
    priority: str
    requests: List[RunRequest]
    tags: Dict[str, Any] = field(default_factory=dict)
    status: str = QUEUED
    created: float = 0.0
    finished_at: float = 0.0
    #: run index -> wire-form outcome record (see ``outcome_to_wire``) —
    #: JSON-safe by construction, so persistence is a plain dump.
    outcomes: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    error: str = ""
    #: per-job deadline in seconds from ``created`` (``None`` = never).
    deadline_s: Optional[float] = None
    #: monotonic submission timestamp for queue-wait metrics — transient
    #: (not persisted); ``created``/``finished_at`` stay wall-clock for
    #: display, but a wall step must not skew ``queue.wait_ms``.
    submitted_mono: float = field(default=0.0, repr=False, compare=False)

    @property
    def terminal(self) -> bool:
        return self.status in (self.DONE, self.FAILED, self.CANCELLED)

    def missing_indices(self) -> List[int]:
        return [i for i in range(len(self.requests)) if i not in self.outcomes]

    def to_record(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "tenant": self.tenant,
            "priority": self.priority,
            "status": self.status,
            "created": self.created,
            "finished_at": self.finished_at,
            "tags": dict(self.tags),
            "error": self.error,
            "deadline_s": self.deadline_s,
            "requests": [request_to_wire(r) for r in self.requests],
            "outcomes": {str(i): o for i, o in self.outcomes.items()},
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "Job":
        return cls(
            id=record["id"],
            tenant=record["tenant"],
            priority=record["priority"],
            requests=[request_from_record(r) for r in record["requests"]],
            tags=dict(record.get("tags", {})),
            status=record["status"],
            created=record.get("created", 0.0),
            finished_at=record.get("finished_at", 0.0),
            outcomes={int(i): o for i, o in record.get("outcomes", {}).items()},
            error=record.get("error", ""),
            deadline_s=record.get("deadline_s"),
        )


@dataclass
class ServiceConfig:
    """Everything the engine needs besides an event loop."""

    #: worker processes (the runner's long-lived pool; 1 = in-process).
    jobs: int = 1
    #: unique runs one executor batch takes, hand-overs included.
    max_batch_runs: int = 32
    #: default per-tenant limits (override per tenant via ``per_tenant``).
    quota: TenantQuota = field(default_factory=TenantQuota)
    per_tenant: Dict[str, TenantQuota] = field(default_factory=dict)
    #: per-run SLO: wall-clock deadline, retries, quarantine (PR 5).
    policy: Optional[FaultPolicy] = None
    watchdog: Optional[WatchdogConfig] = None
    #: job-store path for drain/restart; ``None`` = in-memory only.
    state_path: Optional[str] = None
    #: forwarded to :class:`SuiteRunner` (``None`` = default disk cache).
    cache: Any = None
    config: Optional["GPUConfig"] = None
    #: journal records between snapshot compactions.
    compact_every: int = 256
    #: fsync every journal append (disable only for throwaway tests).
    journal_fsync: bool = True
    #: executor circuit breaker policy (``None`` = defaults).
    breaker: Optional[BreakerConfig] = None
    #: admission backpressure: max runs queued (not yet dispatched).
    max_queued_runs: int = 4096
    #: default per-job deadline in seconds; a spec's ``deadline_s``
    #: overrides it (``None`` = jobs never expire).
    default_deadline: Optional[float] = None
    #: deadline sweeper poll interval in seconds.
    deadline_poll: float = 0.25


#: a priority-heap item: (class order, seq, request identity).
WorkItem = Tuple[int, int, str]


@dataclass
class _Batch:
    """The executing batch: every run it took, in hand-over order."""

    #: extra runs for the executor thread (``None`` = one worker, no
    #: hand-overs).
    feed: Optional[RunFeed]
    #: per run index: (heap item, request, perf_counter at hand-over).
    runs: List[Tuple[WorkItem, RunRequest, float]] = field(
        default_factory=list)
    #: runs handed over and not yet resolved.
    unresolved: int = 0
    #: run statuses, for the supervisor's batch health probe.
    statuses: List[str] = field(default_factory=list)


def _check_deadline(name: str, value: Optional[float]) -> None:
    """Reject a deadline the sweeper or the journal would misread: 0
    reads as "never", a negative or NaN one as "already overdue", and inf
    is not JSON."""
    if value is not None and not is_positive_finite(value):
        raise ValueError(
            f"{name} must be a positive finite number of seconds, "
            f"got {value!r}")


class ServiceEngine:
    """The daemon core: submit/track/stream jobs, drain, restart."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 runner: Optional[SuiteRunner] = None):
        self.config = config or ServiceConfig()
        _check_deadline("default_deadline", self.config.default_deadline)
        self.runner = runner or SuiteRunner(
            config=self.config.config,
            cache=self.config.cache,
            policy=self.config.policy,
            watchdog=self.config.watchdog,
        )
        self.registry = MetricsRegistry()
        self.metrics = self.registry.scope("service")
        self.quotas = QuotaGate(self.config.quota, self.config.per_tenant)
        self.admission = AdmissionController(self.metrics)
        self.supervisor = Supervisor(self.config.breaker,
                                     metrics=self.metrics)
        self.store = JournalStore(
            self.config.state_path,
            fsync=self.config.journal_fsync,
            compact_every=self.config.compact_every,
            metrics=self.metrics.scope("journal"),
        ) if self.config.state_path else None
        self.jobs: Dict[str, Job] = {}
        self._order: List[str] = []  # submission order, for listings
        self._seq = 0
        #: priority heap of queued executions.
        self._work: List[WorkItem] = []
        self._wake = asyncio.Event()
        self._subscribers: Dict[str, List[asyncio.Queue]] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-batch"
        )
        self._scheduler_task: Optional[asyncio.Task] = None
        self._deadline_task: Optional[asyncio.Task] = None
        self._batch: Optional[_Batch] = None
        self._idle = asyncio.Event()
        self._idle.set()
        self.draining = False
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Replay persisted state and start the scheduler task."""
        if self.store is not None:
            records, seq = self.store.load()
            self._seq = seq
            resumed_runs = 0
            for record in records:
                job = Job.from_record(record)
                self.jobs[job.id] = job
                self._order.append(job.id)
                if job.terminal:
                    continue
                job.status = Job.QUEUED
                job.submitted_mono = time.monotonic()
                # What _finalize or cancel releases: one job, every run.
                self.quotas.charge(job.tenant, len(job.requests))
                missing = []
                for index in job.missing_indices():
                    try:  # admitted once; today's checks may be stricter
                        request_from_wire(request_to_wire(job.requests[index]))
                    except SpecError as exc:
                        self._close_run(job, index, RunOutcome.CRASHED,
                                        f"rejected on resume: {exc}")
                    else:
                        missing.append(index)
                if not missing:
                    # every run has an outcome, journaled before the
                    # crash or rejected above; only the finish record is
                    # missing — close the job out without dispatching
                    # anything (exactly-once).
                    self._finalize(job)
                    continue
                for index in missing:
                    self._admit_work(job, index)
                resumed_runs += len(missing)
                self.metrics.inc("jobs.resumed")
            if resumed_runs:
                self.metrics.inc("runs.resumed", resumed_runs)
        self._scheduler_task = asyncio.ensure_future(self._scheduler())
        self._deadline_task = asyncio.ensure_future(self._deadline_sweeper())
        self._wake.set()

    async def stop(self) -> None:
        """Stop without draining (tests; prefer :meth:`drain` + stop)."""
        self._stopped = True
        self._wake.set()
        for task in (self._scheduler_task, self._deadline_task):
            if task is None:
                continue
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._executor.shutdown(wait=False)
        self.runner.close()
        if self.store is not None:
            self.store.close()

    async def drain(self) -> None:
        """Graceful shutdown step 1: refuse new jobs, finish the in-flight
        batch, compact the journal into the snapshot.  Queued-but-unstarted
        work survives in the store for the next life of the daemon."""
        if not self.draining:
            self.metrics.inc("drains")
        self.draining = True  # the app's signal handler may have set it
        self._wake.set()
        await self._idle.wait()
        self.persist()
        self._close_streams()

    def persist(self) -> None:
        """Compact journaled state into the snapshot (atomic rewrite)."""
        if self.store is not None:
            self.store.compact(
                [self.jobs[j].to_record() for j in self._order], self._seq
            )

    def _journal(self, entry: Dict[str, Any]) -> None:
        """Durably journal one mutation *before* the caller applies it."""
        if self.store is None:
            return
        entry.setdefault("seq", self._seq)
        self.store.append(entry)

    def _maybe_compact(self) -> None:
        """Fold the journal into the snapshot once it has grown enough.

        Called only at points where the in-memory table reflects every
        journaled record (never between a journal append and its apply)."""
        if self.store is not None and self.store.should_compact():
            self.persist()

    # -- submission and queries --------------------------------------------

    def submit(self, requests: List[RunRequest], tenant: str = "anon",
               priority: str = Priority.BATCH,
               tags: Optional[Dict[str, Any]] = None,
               deadline_s: Optional[float] = None) -> Job:
        if self.draining or self._stopped:
            raise DrainingError("service is draining; resubmit after restart")
        if priority not in Priority.NAMES:
            raise ValueError(f"unknown priority {priority!r}")
        _check_deadline("deadline_s", deadline_s)
        self.supervisor.admit()  # raises BreakerOpen while shedding
        queued = len(self._work)
        if queued + len(requests) > self.config.max_queued_runs:
            self.metrics.inc("backpressure.shed")
            raise OverloadedError(
                f"queue is full ({queued} run(s) queued, "
                f"bound {self.config.max_queued_runs}); retry later",
            )
        self.quotas.admit(tenant, len(requests))  # raises QuotaError/RateLimited
        self._seq += 1
        job = Job(
            id=uuid.uuid4().hex[:12],
            tenant=tenant,
            priority=priority,
            requests=list(requests),
            tags=dict(tags or {}),
            created=time.time(),
            deadline_s=deadline_s if deadline_s is not None
            else self.config.default_deadline,
            submitted_mono=time.monotonic(),
        )
        # Write-ahead: the job is durable before any client can see it.
        self._journal({"type": "submit", "seq": self._seq,
                       "job": job.to_record()})
        self.jobs[job.id] = job
        self._order.append(job.id)
        for index in range(len(job.requests)):
            self._admit_work(job, index)
        self.metrics.inc("jobs.submitted")
        self.metrics.inc("runs.submitted", len(job.requests))
        self._maybe_compact()
        self._hand_over()
        self._wake.set()
        return job

    def cancel(self, job_id: str) -> Job:
        job = self.jobs[job_id]
        if job.terminal:
            return job
        finished_at = time.time()
        self._journal({"type": "cancel", "job": job.id,
                       "finished_at": finished_at})
        job.status = Job.CANCELLED
        job.finished_at = finished_at
        self.admission.unsubscribe(job_id)
        self.quotas.release(job.tenant, len(job.requests))
        self.metrics.inc("jobs.cancelled")
        self._publish(job, self._terminal_event(job), final=True)
        self._maybe_compact()
        return job

    def job(self, job_id: str) -> Job:
        return self.jobs[job_id]

    def list_jobs(self) -> List[Job]:
        return [self.jobs[j] for j in self._order]

    # -- event streams -----------------------------------------------------

    def subscribe(self, job_id: str, after: int = -1) -> Tuple[
            List[Dict[str, Any]], Optional[asyncio.Queue]]:
        """(replay of events so far, live queue or ``None`` if terminal).

        The live queue yields event dicts and finally ``None``.  Events
        carry a per-job ``seq``; ``after`` skips the replay up to and
        including that sequence number, so a reconnecting client resumes
        exactly where its stream died."""
        job = self.jobs[job_id]
        records = [job.outcomes[i] for i in sorted(job.outcomes)]
        for position, record in enumerate(records):
            record.setdefault("seq", position)  # pre-journal records
        records.sort(key=lambda r: r["seq"])
        replay = [r for r in records if r["seq"] > after]
        if job.terminal:
            terminal = self._terminal_event(job)
            if terminal["seq"] > after:
                replay = replay + [terminal]
            return replay, None
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.setdefault(job_id, []).append(queue)
        return replay, queue

    def unsubscribe_queue(self, job_id: str, queue: asyncio.Queue) -> None:
        queues = self._subscribers.get(job_id, [])
        if queue in queues:
            queues.remove(queue)

    def _terminal_event(self, job: Job) -> Dict[str, Any]:
        return {"event": "job", "id": job.id, "status": job.status,
                "seq": len(job.outcomes)}

    def _publish(self, job: Job, event: Dict[str, Any],
                 final: bool = False) -> None:
        for queue in self._subscribers.get(job.id, []):
            queue.put_nowait(event)
            if final:
                queue.put_nowait(None)
        if final:
            self._subscribers.pop(job.id, None)

    def _close_streams(self) -> None:
        """Drain: end every live stream with a service marker so clients
        know to reconnect (``?after=<seq>``) once the daemon restarts."""
        for job_id, queues in list(self._subscribers.items()):
            for queue in queues:
                queue.put_nowait({"event": "service", "status": "draining",
                                  "job": job_id})
                queue.put_nowait(None)
        self._subscribers.clear()

    # -- scheduling --------------------------------------------------------

    def _admit_work(self, job: Job, index: int) -> None:
        """Admission-dedupe one (job, run) at submit/resume time.

        Only the subscriber that *creates* the execution enqueues a work
        item — a request identical to one already queued or executing
        (even mid-batch, submitted by another client) attaches to it and
        receives the same outcome when it resolves."""
        if self.admission.acquire(job.requests[index], (job.id, index)):
            heapq.heappush(
                self._work,
                (Priority.ORDER[job.priority], self._seq,
                 job.requests[index].identity),
            )

    def _pop_queued(
            self, limit: int) -> List[Tuple[WorkItem, RunRequest]]:
        """Pop up to ``limit`` queued executions, most urgent first."""
        batch: List[Tuple[WorkItem, RunRequest]] = []
        while self._work and len(batch) < limit:
            item = heapq.heappop(self._work)
            execution = self.admission.execution(item[2])
            # Gone (cancelled away), already batched, or orphaned: skip.
            if execution is None or execution.started \
                    or not execution.subscribers:
                continue
            batch.append((item, execution.request))
        return batch

    def _taken(self, request: RunRequest) -> None:
        """The executing batch took ``request``: its queued jobs run."""
        execution = self.admission.execution(request.identity)
        for job_id, _ in (execution.subscribers if execution else ()):
            job = self.jobs.get(job_id)
            if job is not None and job.status == Job.QUEUED:
                job.status = Job.RUNNING
                # Queue-wait latency: submit -> first run taken, into a
                # 1-2-5 bucketed histogram (``service.queue.wait_ms``).
                # Monotonic on both ends: a wall-clock step must not
                # produce negative or inflated samples.
                wait_ms = max(
                    0.0, (time.monotonic() - job.submitted_mono) * 1000.0
                )
                self.metrics.observe("queue.wait_ms", bucket_125(wait_ms))

    async def _scheduler(self) -> None:
        while not self._stopped:
            await self._wake.wait()
            self._wake.clear()
            while not self._stopped and not self.draining:
                if not self.supervisor.allow_dispatch():
                    if not self._work:
                        break
                    # Breaker open with queued work: wait out the reset
                    # timeout in small slices so drain/stop stay prompt.
                    await asyncio.sleep(min(
                        0.05,
                        max(0.005, self.supervisor.breaker.retry_after()),
                    ))
                    continue
                runs = self._pop_queued(self.config.max_batch_runs)
                if not runs:
                    break
                self._idle.clear()
                try:
                    await self._run_batch(runs)
                finally:
                    if not self._work or self.draining:
                        self._idle.set()
            if self.draining:
                self._idle.set()
                return

    def _start(self, batch: _Batch,
               runs: List[Tuple[WorkItem, RunRequest]]) -> None:
        """Journal ``runs`` as started, then add them to ``batch``."""
        service_kill_point("dispatch.pre")
        self._journal({"type": "start",
                       "runs": [request.identity for _, request in runs]})
        now = time.perf_counter()
        for item, request in runs:
            self.admission.mark_started(request)
            batch.runs.append((item, request, now))
        batch.unresolved += len(runs)
        self.metrics.inc("runs.dispatched", len(runs))

    def _hand_over(self) -> None:
        """Top the running batch up to ``jobs`` unresolved runs with the
        most urgent queued ones (never past ``max_batch_runs``)."""
        batch = self._batch
        if batch is None or batch.feed is None or self.draining \
                or self._stopped \
                or self.supervisor.breaker.state != CircuitBreaker.CLOSED:
            return
        room = min(self.config.jobs - batch.unresolved,
                   self.config.max_batch_runs - len(batch.runs))
        if room <= 0 or not self._work:
            return
        runs = self._pop_queued(room)
        if not runs:
            return
        self._start(batch, runs)
        for pushed, (_, request) in enumerate(runs):
            if not batch.feed.push(request):
                self._return(batch, len(runs) - pushed)
                break
            self._taken(request)
            self.metrics.inc("runs.handed_over")

    def _return(self, batch: _Batch, count: int) -> None:
        """Put the batch's last ``count`` runs, which it never took, back
        on the queue for the next batch."""
        keep = len(batch.runs) - count
        returned, batch.runs[keep:] = batch.runs[keep:], []
        batch.unresolved -= count
        self.metrics.inc("runs.dispatched", -count)
        for item, request, _ in returned:
            if self.admission.unstart(request):
                heapq.heappush(self._work, item)
        self._wake.set()

    async def _run_batch(self,
                         runs: List[Tuple[WorkItem, RunRequest]]) -> None:
        loop = asyncio.get_running_loop()
        batch = _Batch(RunFeed() if self.config.jobs > 1 else None)
        self._start(batch, runs)
        self.metrics.inc("batches")
        initial = [request for _, request in runs]
        for request in initial:
            self._taken(request)

        def callback(index: int, outcome: RunOutcome) -> None:
            # Executor-thread side: marshal onto the loop and return.
            # Exec latency = this run's hand-over -> outcome arrival (cache
            # hits land in the lowest buckets, simulations in the upper).
            _, request, handed = batch.runs[index]
            exec_ms = (time.perf_counter() - handed) * 1000.0
            batch.statuses.append(outcome.status)
            loop.call_soon_threadsafe(
                self._run_resolved, batch, request, outcome, exec_ms
            )

        def run() -> None:
            self.runner.run_grid_outcomes(
                initial, jobs=self.config.jobs, on_outcome=callback,
                feed=batch.feed,
            )

        self._batch = batch
        broke = False
        try:
            await loop.run_in_executor(self._executor, run)
        except Exception as exc:  # noqa: BLE001 — engine must not die
            broke = True
            self.metrics.inc("batches.broken")
            error = f"batch execution failed: {type(exc).__name__}: {exc}"
        finally:
            self._batch = None
        if batch.feed is not None:
            untaken = batch.feed.close()
            if untaken:
                self._return(batch, len(untaken))
        if broke:
            for _, request, _ in batch.runs:
                if self.admission.is_inflight(request):
                    batch.statuses.append(RunOutcome.CRASHED)
                    self._on_outcome(
                        request,
                        RunOutcome(request, RunOutcome.CRASHED, error=error),
                    )
        self.supervisor.observe_batch(batch.statuses, broke=broke)

    def _run_resolved(self, batch: _Batch, request: RunRequest,
                       outcome: RunOutcome, exec_ms: float) -> None:
        """A run of ``batch`` resolved: publish it, then refill the worker
        it freed."""
        batch.unresolved -= 1
        self._on_outcome(request, outcome, exec_ms)
        self._hand_over()

    def _on_outcome(self, request: RunRequest, outcome: RunOutcome,
                    exec_ms: Optional[float] = None) -> None:
        """Loop-thread side of the streaming hook: fan the outcome out to
        every (job, index) subscribed to this execution."""
        self.metrics.inc(f"runs.{outcome.status}")
        if exec_ms is not None:
            self.metrics.observe("run.exec_ms", bucket_125(exec_ms))
        finished: List[Job] = []
        for position, (job_id, index) in enumerate(
            self.admission.resolve(request, outcome)
        ):
            job = self.jobs.get(job_id)
            if job is None or job.terminal or index in job.outcomes:
                continue
            record = outcome_to_wire(index, outcome, deduped=position > 0)
            self._record_outcome(job, index, record)
            if not job.missing_indices():
                finished.append(job)
        for job in finished:
            self._finalize(job)
        self._maybe_compact()

    def _record_outcome(self, job: Job, index: int,
                        record: Dict[str, Any]) -> None:
        """Journal one outcome, apply it, publish it — in that order."""
        record["job"] = job.id
        record["seq"] = len(job.outcomes)
        self._journal({"type": "outcome", "job": job.id, "index": index,
                       "record": record})
        job.outcomes[index] = record
        self._publish(job, record)

    def _close_run(self, job: Job, index: int, status: str,
                   error: str) -> None:
        """Record a terminal outcome for a run that will never execute."""
        self._record_outcome(job, index, {
            "event": "outcome",
            "index": index,
            "request": request_to_wire(job.requests[index]),
            "status": status,
            "attempts": 0,
            "error": error,
        })
        self.metrics.inc(f"runs.{status}")

    def _finalize(self, job: Job) -> None:
        failed = [o for o in job.outcomes.values()
                  if o.get("status") != RunOutcome.OK]
        status = Job.FAILED if failed else Job.DONE
        finished_at = time.time()
        error = ""
        if failed:
            error = (
                f"{len(failed)}/{len(job.requests)} run(s) failed: "
                + ", ".join(sorted({o.get("status", "?") for o in failed}))
            )
        self._journal({"type": "finish", "job": job.id, "status": status,
                       "finished_at": finished_at, "error": error})
        job.status = status
        job.finished_at = finished_at
        job.error = error
        self.quotas.release(job.tenant, len(job.requests))
        self.metrics.inc(f"jobs.{job.status}")
        self._publish(job, self._terminal_event(job), final=True)

    # -- deadlines ---------------------------------------------------------

    async def _deadline_sweeper(self) -> None:
        while not self._stopped:
            self.expire_overdue()
            await asyncio.sleep(self.config.deadline_poll)

    def expire_overdue(self, now: Optional[float] = None) -> List[Job]:
        """Expire jobs past their deadline (graceful degradation).

        Finished runs keep their recorded outcomes; the remainder is
        journaled and published as ``expired`` outcome records, and the
        job finalizes ``failed``.  In-flight executions are left to
        resolve — their results still land in the disk cache — but their
        late outcomes are ignored (the job is terminal by then)."""
        now = time.time() if now is None else now
        expired: List[Job] = []
        for job_id in self._order:
            job = self.jobs[job_id]
            if job.terminal or not job.deadline_s:
                continue
            if now - job.created < job.deadline_s:
                continue
            expired.append(job)
            self.metrics.inc("jobs.expired")
            self.admission.unsubscribe(job.id)
            for index in job.missing_indices():
                self._close_run(job, index, "expired",
                                f"job deadline of {job.deadline_s:g}s exceeded")
            self._finalize(job)
        if expired:
            self._maybe_compact()
        return expired

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Operational snapshot for ``GET /healthz``."""
        by_status: Dict[str, int] = {}
        for job in self.jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "status": "draining" if self.draining else "ok",
            "jobs": by_status,
            "queued_work": len(self._work),
            "inflight_executions": len(self.admission),
            "deduped": self.admission.deduped,
            "batch_busy": self._batch is not None,
            "breaker": self.supervisor.breaker.state,
        }

    def describe(self, job_id: str, runs: bool = False) -> Dict[str, Any]:
        return job_to_wire(self.jobs[job_id], runs=runs)

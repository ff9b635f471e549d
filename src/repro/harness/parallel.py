"""Parallel fan-out of simulation-grid runs over worker processes.

The evaluation grid — (benchmark x backend x OSU capacity) — is
embarrassingly parallel: every run is an independent cycle-level
simulation.  :func:`run_requests_resilient` executes a batch of
:class:`RunRequest`\\ s and returns one :class:`RunOutcome` per request,
in request order.  It is the one retry loop: it drives a
:class:`WorkerPool` when a grid fans out, and an
:class:`InProcessWorkers` when the grid stays in the calling process
(one effective worker, or one miss).

A :class:`WorkerPool` outlives the grid calls that use it: its processes
start at the first submitted run, are replaced only after a broken pool
or a timeout kill, and stop at :meth:`WorkerPool.close`.  Each worker
holds one private :class:`~repro.harness.runner.SuiteRunner` (disk cache
off — the parent coordinates the cache) and keeps only what makes the
next run cheaper: workloads and compiled kernels.  It keeps no run
results.

A running call can take more work: requests pushed into its
:class:`RunFeed` join the same retry loop until the loop closes the
feed, which it does the moment it has nothing left to run.

Worker count resolution order: explicit argument, then ``REPRO_JOBS``, then
``os.cpu_count()``.

Fault tolerance
---------------

:func:`run_requests_resilient` survives the three failure classes a
long sweep actually hits:

* **Worker death** (OOM kill, segfault, injected ``kill``) — the pool
  raises :class:`~concurrent.futures.process.BrokenProcessPool` on *every*
  in-flight future, so the culprit is unattributable; each in-flight run
  is charged one crashed attempt (documented over-charging beats losing
  the sweep) and the pool is rebuilt.  A worker that dies idle — between
  runs, or between calls on a long-lived pool — breaks the pool too; the
  next submit finds that out and rebuilds it.
* **Run hangs** (livelock, injected ``hang``) — a per-run deadline; on
  expiry the whole pool is killed (a future can't be cancelled once
  running), expired runs are charged a hung attempt, and *innocent*
  in-flight runs are requeued uncharged.
* **Ordinary crashes** (exceptions, incl. :class:`SimulationHang` from an
  in-worker watchdog) — retried in place; the pool survives.

Retries back off exponentially with deterministic jitter (hash of the
request key and attempt number — reproducible, yet de-synchronized across
requests); a request waiting out its backoff holds no worker, so the
next request runs meanwhile.  A request whose failures reach
``quarantine_after`` while budget remains is **quarantined** — stops
burning retries on a run that keeps killing workers.  The sweep always
completes: every request ends in exactly one :class:`RunOutcome`
(``ok`` / ``hung`` / ``crashed`` / ``quarantined``) and partial results
survive.

In-process runs get the same retries, backoff, quarantine and metrics,
but no per-run timeout (a run in the calling thread cannot be stopped;
the runner's watchdog still can), and ``REPRO_FAULTS`` specs fire only
in pool workers.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
    Union,
)

from ..energy.model import OSU_ENTRIES
from ..sim.watchdog import SimulationHang, WatchdogConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..energy.model import EnergyParams
    from ..obs.metrics import MetricScope
    from ..sim.config import GPUConfig
    from .runner import RunResult, SuiteRunner

__all__ = [
    "FaultPolicy",
    "GridFailure",
    "InProcessWorkers",
    "RunFeed",
    "RunOutcome",
    "RunRequest",
    "WorkerPool",
    "is_positive_finite",
    "resolve_jobs",
    "run_requests_resilient",
]


@dataclass(frozen=True)
class RunRequest:
    """One cell of the simulation grid, in picklable/hashable form."""

    benchmark: str
    backend: str
    osu_entries: int = OSU_ENTRIES
    window_series: Tuple[str, ...] = ()
    #: sorted ``GPUConfig`` override items (e.g. ``(("scheduler", "lrr"),)``).
    overrides: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls,
        benchmark: str,
        backend: str,
        osu_entries: int = OSU_ENTRIES,
        window_series: Sequence[str] = (),
        **overrides: Any,
    ) -> "RunRequest":
        return cls(
            benchmark=benchmark,
            backend=backend,
            osu_entries=osu_entries,
            window_series=tuple(window_series),
            overrides=tuple(sorted(overrides.items())),
        )

    @property
    def key(self) -> str:
        """The ``benchmark/backend`` form fault specs match against.

        This is a *grouping* key (several grid cells share it); the full
        per-cell identity is :attr:`identity`.
        """
        return f"{self.benchmark}/{self.backend}"

    @property
    def identity(self) -> str:
        """Content digest over every request field.

        Two requests are the same run iff their identities match, and the
        digest is stable across pickling and process boundaries — the
        invariant the service's cross-client admission dedupe relies on
        (equal identities collapse to one execution)."""
        h = hashlib.sha256()
        h.update(repr((
            self.benchmark,
            self.backend,
            int(self.osu_entries),
            tuple(self.window_series),
            tuple(self.overrides),
        )).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class FaultPolicy:
    """Retry/timeout budget for one resilient grid sweep.

    ``retries`` counts *re*-tries: a request runs at most ``retries + 1``
    times.  ``quarantine_after`` failures stop a request early even with
    retry budget left (a poison run that keeps killing workers must not
    stall the whole sweep).  ``timeout`` is the per-run wall-clock
    deadline in seconds (``None`` disables hang detection).
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.25
    backoff_cap: float = 4.0
    quarantine_after: int = 3

    def delay(self, key: str, attempt: int) -> float:
        """Exponential backoff with deterministic per-request jitter."""
        base = min(self.backoff_cap, self.backoff * (2 ** max(0, attempt - 1)))
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        jitter = digest[0] / 255.0 * 0.25  # up to +25%
        return base * (1.0 + jitter)


@dataclass
class RunOutcome:
    """Terminal fate of one grid request under the resilient runner."""

    OK = "ok"
    HUNG = "hung"
    CRASHED = "crashed"
    QUARANTINED = "quarantined"

    request: RunRequest
    status: str
    result: Optional["RunResult"] = None
    attempts: int = 0
    retried: int = 0
    error: str = ""
    #: the watchdog's JSON-safe hang snapshot (dominant shard, stall
    #: bins, CM admission state) for ``hung`` outcomes; ``None`` otherwise.
    diagnostics: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == self.OK


class GridFailure(RuntimeError):
    """A resilient sweep finished with at least one non-``ok`` outcome.

    Partial results are preserved: ``outcomes`` holds every request's
    :class:`RunOutcome` in request order.
    """

    def __init__(self, outcomes: Sequence[RunOutcome]):
        self.outcomes = list(outcomes)
        self.failed = [o for o in self.outcomes if not o.ok]
        parts = ", ".join(
            f"{o.request.key}={o.status}" for o in self.failed[:6]
        )
        more = "" if len(self.failed) <= 6 else f" (+{len(self.failed) - 6} more)"
        super().__init__(
            f"{len(self.failed)}/{len(self.outcomes)} grid runs failed: "
            f"{parts}{more}"
        )


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_JOBS`` > CPU count."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def is_positive_finite(value: Any) -> bool:
    """True for a real number in (0, inf).  Timeouts and deadlines must be:
    0 reads as "none" in some places and "at once" in others, a negative
    or NaN one trips at once, and infinity overflows a wait."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value < float("inf"))


# -- worker side ------------------------------------------------------------

_WORKER_RUNNER: Optional["SuiteRunner"] = None


def _init_worker(
    config: "GPUConfig",
    energy_params: "EnergyParams",
    watchdog: Optional[WatchdogConfig],
    parent: int,
) -> None:
    global _WORKER_RUNNER
    from ..energy.model import EnergyModel
    from .runner import SuiteRunner

    # A worker forked from the service daemon inherits its event loop's
    # signal handling, under which SIGTERM (a pool kill) is a no-op.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)

    _WORKER_RUNNER = SuiteRunner(
        config=config,
        energy_model=EnergyModel(energy_params),
        cache=False,
        watchdog=watchdog,
    )
    threading.Thread(
        target=_exit_with_parent, args=(parent,), daemon=True,
        name="repro-worker-parent-watch",
    ).start()


def _exit_with_parent(parent: int) -> None:
    """A parent that dies hard (``SIGKILL``, ``os._exit``) never stops
    its pool, and an idle worker would wait on it forever — so a worker
    whose parent is gone exits by itself.  ``parent`` is the pid the pool
    recorded before forking: a parent that died while this worker was
    still starting is caught too."""
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(0)


def _run_request(request: RunRequest) -> "RunResult":
    assert _WORKER_RUNNER is not None, "worker not initialized"
    if os.environ.get("REPRO_FAULTS"):
        from .faults import maybe_fire

        maybe_fire(request.key)
    # ``execute``, not ``run``: the parent memoizes and caches results, so
    # a long-lived worker keeps none of them.
    return _WORKER_RUNNER.execute(request)


# -- parent side ------------------------------------------------------------


class WorkerPool:
    """Worker processes shared by every grid call that is handed the pool.

    Each worker runs requests on a private runner built from ``config``,
    ``energy_params`` and ``watchdog``.  The processes are forked at the
    first :meth:`submit`, replaced only after :meth:`rebuild`, and
    stopped by :meth:`close`, after which the pool refuses work.
    """

    def __init__(
        self,
        config: "GPUConfig",
        energy_params: "EnergyParams",
        jobs: int,
        watchdog: Optional[WatchdogConfig] = None,
    ):
        self.config = config
        self.energy_params = energy_params
        self.jobs = max(1, int(jobs))
        self.watchdog = watchdog
        self._executor: Optional[ProcessPoolExecutor] = None
        self._running: Set[Future] = set()
        self._closed = False

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Run ``fn(*args)`` in a worker, starting the workers if needed.

        Raises :class:`BrokenProcessPool` once a worker has died, even an
        idle one; :meth:`rebuild` replaces the workers."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(self.config, self.energy_params, self.watchdog,
                          os.getpid()),
            )
        future = self._executor.submit(fn, *args)
        self._running.add(future)
        future.add_done_callback(self._running.discard)
        return future

    def submit_run(self, request: RunRequest) -> Future:
        """Run ``request`` on a worker's private runner."""
        return self.submit(_run_request, request)

    def rebuild(self, kill: bool = False) -> None:
        """Abandon the current workers; the next :meth:`submit` forks new
        ones.  ``kill`` terminates them first — the only way to stop a
        run that is already executing."""
        self._drop(kill, wait=False)

    def close(self) -> None:
        """Stop every worker and wait for it to exit.  Idle workers exit
        on the shutdown sentinel; if a run is still executing, the
        workers are terminated."""
        self._closed = True
        self._drop(kill=bool(self._running), wait=True)

    def _drop(self, kill: bool, wait: bool) -> None:
        executor, self._executor = self._executor, None
        if executor is None:
            return
        if kill:
            for proc in list((executor._processes or {}).values()):
                proc.terminate()
        executor.shutdown(wait=wait, cancel_futures=True)


class InProcessWorkers:
    """The pool surface :func:`run_requests_resilient` drives, in the
    calling thread: :meth:`submit_run` executes the request on
    ``runner`` and returns an already-completed future.  A run cannot be
    stopped once started, so the loop's per-run deadline never fires
    here (the runner's watchdog still applies), and :meth:`rebuild` has
    nothing to replace."""

    jobs = 1

    def __init__(self, runner: "SuiteRunner"):
        self.runner = runner

    def submit_run(self, request: RunRequest) -> Future:
        future: Future = Future()
        try:
            future.set_result(self.runner.execute(request))
        except Exception as exc:  # noqa: BLE001 - the loop classifies it
            future.set_exception(exc)
        return future

    def rebuild(self, kill: bool = False) -> None:
        pass


class RunFeed:
    """Thread-safe inbox of extra requests for one running grid call.

    A producer :meth:`push`\\ es requests while the call runs.  The call
    :meth:`take`\\ s them as it goes and :meth:`close`\\ s the feed when
    it has nothing left to run, collecting whatever was pushed just
    before.  A push after the close is refused (returns ``False``): the
    producer still owns that request.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._items: List[RunRequest] = []
        self._closed = False
        self._wake: Future = Future()

    @property
    def wake(self) -> Future:
        """Completes when a request is pushed; renewed by :meth:`take`."""
        with self._lock:
            return self._wake

    def push(self, request: RunRequest) -> bool:
        with self._lock:
            if self._closed:
                return False
            self._items.append(request)
            if not self._wake.done():
                self._wake.set_result(None)
            return True

    def take(self) -> List[RunRequest]:
        """Every request pushed since the last take, in push order."""
        with self._lock:
            items, self._items = self._items, []
            if self._wake.done():
                self._wake = Future()
            return items

    def close(self) -> List[RunRequest]:
        """Refuse further pushes; returns the requests never taken."""
        with self._lock:
            self._closed = True
            items, self._items = self._items, []
            return items


@dataclass
class _Tracked:
    request: RunRequest
    attempts: int = 0
    failures: int = 0
    last_error: str = ""
    last_diagnostics: Optional[Dict[str, Any]] = None
    outcome: Optional[RunOutcome] = None


def run_requests_resilient(
    pool: Union[WorkerPool, InProcessWorkers],
    requests: Sequence[RunRequest],
    policy: Optional[FaultPolicy] = None,
    metrics: Optional["MetricScope"] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    on_outcome: Optional[Callable[[int, RunOutcome], None]] = None,
    feed: Optional[RunFeed] = None,
    admit: Optional[Callable[[RunRequest], bool]] = None,
) -> List[RunOutcome]:
    """Run the grid on ``pool`` with timeouts, retries, and dead-worker
    recovery.

    ``pool`` is anything with ``jobs``, ``submit_run(request) -> Future``
    and ``rebuild(kill=False)``: a :class:`WorkerPool` or an
    :class:`InProcessWorkers`.  Never raises for per-run failures: every
    request terminates in a :class:`RunOutcome` (request order); a
    recovered run's outcome keeps its last error text.  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricScope`) receives ``grid.*`` failure
    events.  ``sleep``/``clock`` are injectable for tests.  The caller
    keeps ``pool`` (and its workers) for later calls and closes it.

    Every request given or fed is executed: deduping identical requests
    is the caller's job (:meth:`SuiteRunner.run_grid_outcomes` passes only
    the first occurrence of each, and screens fed ones through ``admit``).

    ``feed`` adds requests while the call runs: each one taken gets the
    next index after those already known, in push order.  ``admit(request)``
    screens every fed request first; returning False means the caller
    settled it itself (a cache hit, say) and it is not run here.  The call
    closes the feed once nothing is left to run, so it never returns with
    an accepted request unrun.  The returned list covers the fed requests
    that were run, after the given ones.

    ``on_outcome`` is called as ``on_outcome(index, outcome)`` the moment
    a request reaches its terminal outcome — out of request order, from
    the calling thread.  This is the streaming hook the async service
    layer bridges onto an event loop; callbacks must not block.
    """
    policy = policy or FaultPolicy()
    tracked: List[_Tracked] = []
    queue: deque = deque()  # indices ready to submit now
    waiting: List[Tuple[float, int]] = []  # (eligible_at, index) backoff heap
    inflight: Dict[Any, Tuple[int, Optional[float]]] = {}  # fut -> (idx, deadline)
    done_count = 0

    def add(requests: Iterable[RunRequest], screen: bool = False) -> int:
        added = 0
        for req in requests:
            if screen and admit is not None and not admit(req):
                continue
            queue.append(len(tracked))
            tracked.append(_Tracked(req))
            added += 1
        return added

    add(requests)
    if not tracked and feed is None:
        return []

    def emit(name: str, amount: float = 1.0) -> None:
        if metrics is not None:
            metrics.inc(name, amount)

    def finalize(idx: int, status: str, result=None) -> None:
        nonlocal done_count
        t = tracked[idx]
        t.outcome = RunOutcome(
            request=t.request,
            status=status,
            result=result,
            attempts=t.attempts,
            retried=max(0, t.attempts - 1),
            error=t.last_error,
            diagnostics=t.last_diagnostics if status != RunOutcome.OK else None,
        )
        done_count += 1
        emit(f"grid.{status}")
        if on_outcome is not None:
            on_outcome(idx, t.outcome)

    def record_failure(idx: int, kind: str, error: str, now: float,
                       diagnostics: Optional[Dict[str, Any]] = None) -> None:
        t = tracked[idx]
        t.failures += 1
        t.last_error = error
        if diagnostics is not None:
            t.last_diagnostics = diagnostics
        emit(f"grid.failure_{kind}")
        if t.attempts > policy.retries:
            finalize(idx, kind)
        elif t.failures >= policy.quarantine_after:
            finalize(idx, RunOutcome.QUARANTINED)
        else:
            emit("grid.retries")
            eligible = now + policy.delay(t.request.key, t.attempts)
            heapq.heappush(waiting, (eligible, idx))

    def lose_pool(now: float) -> None:
        # A dead worker poisons every in-flight future and the culprit is
        # unattributable — charge them all rather than retry a
        # possibly-poisonous run for free — then replace the workers.
        for idx, _ in inflight.values():
            record_failure(
                idx, RunOutcome.CRASHED, "worker died (pool broken)", now,
            )
        inflight.clear()
        pool.rebuild()
        emit("grid.pool_rebuilds")

    try:
        while True:
            if feed is not None:
                add(feed.take(), screen=True)
            if done_count == len(tracked):
                # Nothing left to run: close the feed, then run whatever
                # was pushed before the close.
                if feed is None or not add(feed.close(), screen=True):
                    break
                continue
            now = clock()
            while waiting and waiting[0][0] <= now:
                queue.append(heapq.heappop(waiting)[1])
            # Keep in-flight <= workers so the submit timestamp
            # approximates the start timestamp — the per-run deadline then
            # measures run time, not queue time.
            while queue and len(inflight) < pool.jobs:
                idx = queue.popleft()
                tracked[idx].attempts += 1
                try:
                    fut = pool.submit_run(tracked[idx].request)
                except BrokenProcessPool:
                    # A worker died since the last submit — between runs,
                    # even between calls: the pool refuses all work.
                    lose_pool(now)
                    fut = pool.submit_run(tracked[idx].request)
                deadline = (now + policy.timeout) if policy.timeout else None
                inflight[fut] = (idx, deadline)
            if not inflight:
                if waiting:
                    sleep(max(0.0, waiting[0][0] - clock()))
                    continue
                break  # defensive: nothing running, nothing waiting
            wait_for: List[float] = []
            deadlines = [d for (_, d) in inflight.values() if d is not None]
            if deadlines:
                wait_for.append(min(deadlines) - now)
            if waiting:
                wait_for.append(waiting[0][0] - now)
            timeout = max(0.0, min(wait_for)) if wait_for else None
            watched = set(inflight)
            wake = feed.wake if feed is not None else None
            if wake is not None:
                watched.add(wake)
            done, _ = futures_wait(
                watched, timeout=timeout, return_when=FIRST_COMPLETED
            )
            done.discard(wake)  # a push: taken at the top of the loop
            now = clock()
            if done:
                broken = False
                for fut in done:
                    idx, _ = inflight.pop(fut)
                    try:
                        result = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        record_failure(
                            idx, RunOutcome.CRASHED, "worker died (pool broken)",
                            now,
                        )
                    except SimulationHang as exc:
                        record_failure(idx, RunOutcome.HUNG, str(exc), now,
                                       diagnostics=exc.diagnostics)
                    except Exception as exc:  # noqa: BLE001
                        record_failure(
                            idx, RunOutcome.CRASHED,
                            f"{type(exc).__name__}: {exc}", now,
                        )
                    else:
                        finalize(idx, RunOutcome.OK, result)
                if broken:
                    lose_pool(now)
                continue
            # No future finished before the wait timeout: check deadlines.
            expired = [
                (fut, idx)
                for fut, (idx, d) in inflight.items()
                if d is not None and d <= now and not fut.done()
            ]
            if not expired:
                continue
            expired_set = {fut for fut, _ in expired}
            # A running future can't be cancelled — kill the pool.  The
            # expired runs are charged; innocent in-flight runs requeue
            # with their attempt refunded.
            for fut, (idx, _) in list(inflight.items()):
                if fut in expired_set:
                    record_failure(
                        idx, RunOutcome.HUNG,
                        f"run exceeded {policy.timeout}s deadline", now,
                    )
                else:
                    tracked[idx].attempts -= 1
                    queue.append(idx)
            inflight.clear()
            pool.rebuild(kill=True)
            emit("grid.pool_rebuilds")
            emit("grid.pool_kills")
    finally:
        if inflight:  # left by an exception: stop the runs we abandon
            pool.rebuild(kill=True)
    outcomes = [t.outcome for t in tracked]
    assert all(o is not None for o in outcomes)
    return outcomes  # type: ignore[return-value]

"""The runner's long-lived worker pool and the run feed.

A :class:`WorkerPool` outlives the grid calls that use it, so these tests
pin its lifetime — reuse across calls, rebuild after a worker death
during a run or between calls, nothing alive after ``close()`` — and
check that a worker keeps no run results.  The feed tests pin the hand-over race: every request pushed
before the loop closes its feed runs, and a later push is refused.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.energy.model import EnergyModel
from repro.harness import RunOutcome, SuiteRunner
from repro.harness.faults import FaultSpec, injected_faults
from repro.harness.parallel import (
    FaultPolicy,
    RunFeed,
    RunRequest,
    WorkerPool,
    run_requests_resilient,
)
from repro.sim import GPUConfig

SMALL = dict(warps_per_sm=8, schedulers_per_sm=2, cta_size_warps=4)
BFS = RunRequest.make("bfs", "baseline")
NW = RunRequest.make("nw", "baseline")
HOTSPOT = RunRequest.make("hotspot", "baseline")


def worker_state(delay: float = 0.2):
    """Runs in a worker: its pid and what its private runner holds."""
    from repro.harness import parallel

    time.sleep(delay)  # keep this worker busy so the next probe lands
    runner = parallel._WORKER_RUNNER
    return os.getpid(), len(runner._runs), len(runner._compiled)


def worker_pids(pool: WorkerPool) -> set:
    """The pool's worker pids, as the workers themselves report them."""
    probes = [pool.submit(worker_state) for _ in range(2 * pool.jobs)]
    return {probe.result(timeout=60)[0] for probe in probes}


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.fixture
def runner():
    r = SuiteRunner(config=GPUConfig(**SMALL), cache=False, jobs=2)
    yield r
    r.close()


def small_pool(jobs: int = 2) -> WorkerPool:
    return WorkerPool(GPUConfig(**SMALL), EnergyModel().params, jobs)


class TestFeed:
    def test_push_after_close_is_refused(self):
        feed = RunFeed()
        assert feed.push(BFS)
        assert feed.wake.done()
        assert feed.take() == [BFS]
        assert not feed.wake.done()  # renewed by the take
        assert feed.push(NW)
        assert feed.close() == [NW]  # pushed, never taken
        assert not feed.push(HOTSPOT)
        assert feed.take() == []

    def test_every_request_pushed_before_close_runs(self):
        feed = RunFeed()
        feed.push(NW)  # waiting before the loop starts
        pushed = []

        def on_outcome(index, outcome):
            # a producer reacting to a freed worker, as the engine does
            if outcome.request == BFS and not pushed:
                pushed.append(feed.push(HOTSPOT))

        pool = small_pool()
        try:
            outcomes = run_requests_resilient(
                pool, [BFS], feed=feed, on_outcome=on_outcome,
            )
        finally:
            pool.close()
        assert pushed == [True]
        assert [o.request for o in outcomes][0] == BFS
        assert sorted(o.request.benchmark for o in outcomes) == \
            ["bfs", "hotspot", "nw"]
        assert all(o.ok for o in outcomes)
        assert not feed.push(BFS)  # the loop closed its feed on the way out

    def test_loop_closes_feed_when_every_fed_request_is_settled(self):
        # Every fed request is a hit the caller settles itself: the loop
        # must still close the feed, or later pushes would be dropped.
        feed = RunFeed()
        feed.push(BFS)
        feed.push(NW)
        screened = []

        def admit(request):
            screened.append(request)
            return False

        before = multiprocessing.active_children()
        pool = small_pool()
        outcomes = run_requests_resilient(pool, [], feed=feed, admit=admit)
        assert outcomes == []
        assert screened == [BFS, NW]
        assert not feed.push(HOTSPOT)
        # nothing ran, so nothing was forked
        assert multiprocessing.active_children() == before
        pool.close()


class EchoWorkers:
    """Stands in for a WorkerPool: threads that return the request."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self._threads = ThreadPoolExecutor(max_workers=jobs)

    def submit(self, fn, request):
        return self._threads.submit(lambda: request)

    def rebuild(self, kill=False):
        pass


def test_feed_race_loses_no_request():
    """A producer pushes while the loop takes, runs and closes: every
    accepted push gets exactly one outcome, every refused one none."""
    workers = EchoWorkers(4)
    feed = RunFeed()
    accepted, refused = [], []
    requests = [RunRequest.make("bfs", "baseline", osu_entries=i)
                for i in range(1, 400)]

    def produce():
        for request in requests:
            (accepted if feed.push(request) else refused).append(request)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        producer = threading.Thread(target=produce)
        producer.start()
        outcomes = run_requests_resilient(workers, [BFS], feed=feed)
        producer.join(timeout=30)
        assert not producer.is_alive()
    finally:
        sys.setswitchinterval(old)
        workers._threads.shutdown(wait=True)
    ran = [o.request for o in outcomes]
    assert all(o.ok for o in outcomes)
    assert ran[0] == BFS
    assert sorted(ran[1:], key=requests.index) == accepted
    assert len(accepted) + len(refused) == len(requests)
    assert not set(refused) & set(ran)


class TestPoolLifetime:
    def test_grid_calls_reuse_the_same_workers(self, runner):
        first = runner.run_grid_outcomes([BFS, NW])
        pids = worker_pids(runner._pool)
        assert len(pids) == 2
        second = runner.run_grid_outcomes([HOTSPOT,
                                           RunRequest.make("bfs", "regless")])
        assert worker_pids(runner._pool) == pids
        assert all(o.ok for o in first + second)

    def test_kill_rebuilds_pool_and_next_call_succeeds(self, tmp_path):
        specs = [FaultSpec("kill", "bfs/baseline", count=1)]
        with injected_faults(specs, str(tmp_path / "claims")):
            runner = SuiteRunner(
                config=GPUConfig(**SMALL), cache=False, jobs=2,
                policy=FaultPolicy(retries=3, backoff=0.05),
            )
            try:
                killed = runner.run_grid_outcomes([BFS, NW])
                assert runner.metrics.get("harness.grid.pool_rebuilds") >= 1
                after = runner.run_grid_outcomes(
                    [HOTSPOT, RunRequest.make("nw", "regless")]
                )
            finally:
                runner.close()
        assert [o.status for o in killed] == [RunOutcome.OK] * 2
        assert killed[0].attempts >= 2
        assert [o.status for o in after] == [RunOutcome.OK] * 2

    def test_worker_killed_between_calls_is_replaced(self, runner):
        assert all(o.ok for o in runner.run_grid_outcomes([BFS, NW]))
        pids = worker_pids(runner._pool)
        os.kill(min(pids), signal.SIGKILL)  # an idle worker dies
        # the pool sees the death and stops the other worker too
        deadline = time.monotonic() + 30
        while any(alive(p) for p in pids):
            assert time.monotonic() < deadline, "broken pool not noticed"
            time.sleep(0.05)
        after = runner.run_grid_outcomes([HOTSPOT,
                                          RunRequest.make("nw", "regless")])
        assert [o.status for o in after] == [RunOutcome.OK] * 2
        assert [o.attempts for o in after] == [1, 1]  # nothing charged
        assert runner.metrics.get("harness.grid.pool_rebuilds") == 1
        assert not worker_pids(runner._pool) & pids

    def test_close_leaves_no_worker_alive(self, runner):
        runner.run_grid_outcomes([BFS, NW])
        pids = worker_pids(runner._pool)
        assert pids and all(alive(p) for p in pids)
        runner.close()
        assert not any(alive(p) for p in pids)
        # the runner stays usable: the next fan-out forks a new pool
        assert all(o.ok for o in runner.run_grid_outcomes([HOTSPOT, NW]))

    def test_closed_pool_refuses_work(self):
        pool = small_pool()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit(worker_state)

    def test_workers_keep_no_run_results(self, runner):
        runner.run_grid_outcomes([BFS, NW, HOTSPOT,
                                  RunRequest.make("bfs", "regless")])
        pids = worker_pids(runner._pool)
        probes = [runner._pool.submit(worker_state) for _ in range(6)]
        states = [p.result(timeout=60) for p in probes]
        assert {pid for pid, _, _ in states} == pids  # every worker probed
        assert all(runs == 0 for _, runs, _ in states)
        # what makes the next run cheaper stays: compiled kernels
        assert sum(compiled for _, _, compiled in states) > 0
        # the parent memoized every result
        assert len(runner._runs) == 4

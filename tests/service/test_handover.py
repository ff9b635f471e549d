"""Hand-overs: a running batch takes new runs as workers free up.

The engine drives a real :class:`SuiteRunner` and its retry loop; only
the worker pool is replaced, by threads whose runs can be held until the
test releases them.  That makes "submitted while a batch runs"
deterministic without forking.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.harness import SuiteRunner
from repro.harness.parallel import RunFeed, RunRequest
from repro.service import ServiceConfig, ServiceEngine
from repro.service import queue as queue_module
from repro.service.supervisor import CircuitBreaker

from .test_queue import FakeRunner, collect_events, fake_result, run

BFS = RunRequest.make("bfs", "baseline")
NW = RunRequest.make("nw", "baseline")
HOTSPOT = RunRequest.make("hotspot", "baseline")


class ThreadWorkers:
    """Stands in for the runner's WorkerPool: one thread per worker, and
    a run whose key is held waits until the test releases it."""

    def __init__(self, jobs: int, hold=()):
        self.jobs = jobs
        self.held = {key: threading.Event() for key in hold}
        self.started = []
        self._threads = ThreadPoolExecutor(max_workers=jobs)

    def submit_run(self, request):
        return self._threads.submit(self._run, request)

    def _run(self, request):
        self.started.append(request)
        gate = self.held.get(request.key)
        if gate is not None:
            assert gate.wait(timeout=30)
        return fake_result(request)

    def release(self, request):
        self.held[request.key].set()

    def rebuild(self, kill=False):
        pass

    def close(self):
        for gate in self.held.values():
            gate.set()
        self._threads.shutdown(wait=True)


class ThreadRunner(SuiteRunner):
    """A real runner whose fan-out lands on :class:`ThreadWorkers`."""

    def __init__(self, workers: ThreadWorkers):
        super().__init__(cache=False)
        self.workers = workers
        self.feeds = []

    def run_grid_outcomes(self, requests, jobs=None, on_outcome=None,
                          feed=None):
        self.feeds.append(feed)
        return super().run_grid_outcomes(requests, jobs=jobs,
                                         on_outcome=on_outcome, feed=feed)

    def _pool_for(self, jobs):
        return self.workers

    def close(self):
        self.workers.close()


async def job_events(engine, job_id):
    """The job's events through its terminal record, within 10 s."""
    return await asyncio.wait_for(collect_events(engine, job_id), 10)


async def until(predicate, timeout: float = 10.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.005)


def engine_with(hold=(), jobs=2, **config):
    workers = ThreadWorkers(jobs, hold)
    runner = ThreadRunner(workers)
    engine = ServiceEngine(ServiceConfig(jobs=jobs, **config), runner=runner)
    return engine, runner, workers


class TestHandOver:
    def test_job_submitted_mid_batch_starts_before_batch_ends(self):
        async def main():
            engine, runner, workers = engine_with(hold=[BFS.key])
            await engine.start()
            job_a = engine.submit([BFS])
            await until(lambda: BFS in workers.started)
            job_b = engine.submit([NW])  # a worker is free: handed over
            await job_events(engine, job_b.id)
            assert not job_a.terminal  # its batch is still running
            batches = engine.registry.get("service.batches")
            workers.release(BFS)
            await job_events(engine, job_a.id)
            await engine.stop()
            return engine, runner, batches

        engine, runner, batches = run(main())
        assert batches == 1
        assert engine.registry.get("service.runs.dispatched") == 2
        assert engine.registry.get("service.runs.handed_over") == 1
        assert runner.feeds[0] is not None

    def test_handed_run_times_from_its_own_hand_over(self):
        async def main():
            engine, _, workers = engine_with(hold=[BFS.key])
            await engine.start()
            job_a = engine.submit([BFS])
            await until(lambda: BFS in workers.started)
            await asyncio.sleep(0.3)  # the batch has run 300 ms
            job_b = engine.submit([NW])
            await job_events(engine, job_b.id)
            handed = engine.registry.as_dict()
            workers.release(BFS)
            await job_events(engine, job_a.id)
            await engine.stop()
            return handed, engine.registry.as_dict()

        handed, final = run(main())
        prefix = "service.run.exec_ms.bucket."

        def buckets(snap):
            return {float(k[len(prefix):]): v for k, v in snap.items()
                    if k.startswith(prefix) and v}

        # the handed-over run is timed from its hand-over, not from the
        # batch's dispatch 300 ms earlier
        assert handed["service.run.exec_ms.count"] == 1
        assert max(buckets(handed)) < 300
        assert max(buckets(final)) >= 300  # the held run waited >= 300 ms

    def test_hand_over_passes_the_dispatch_kill_point(self, monkeypatch):
        points = []
        monkeypatch.setattr(queue_module, "service_kill_point",
                            points.append)

        async def main():
            engine, _, workers = engine_with(hold=[BFS.key])
            await engine.start()
            job_a = engine.submit([BFS])
            await until(lambda: BFS in workers.started)
            assert points == ["dispatch.pre"]
            job_b = engine.submit([NW])
            assert points == ["dispatch.pre", "dispatch.pre"]
            await job_events(engine, job_b.id)
            workers.release(BFS)
            await job_events(engine, job_a.id)
            await engine.stop()

        run(main())

    def test_in_flight_runs_stay_within_jobs(self):
        async def main():
            engine, _, workers = engine_with(hold=[BFS.key, NW.key])
            await engine.start()
            job_a = engine.submit([BFS])
            await until(lambda: BFS in workers.started)
            job_b = engine.submit([NW])  # fills the free worker
            job_c = engine.submit([HOTSPOT])  # waits in the queue
            await until(lambda: NW in workers.started)
            await asyncio.sleep(0.05)
            # not handed over at all, not merely queued inside the batch
            waiting = job_c.status == "queued" and \
                engine.registry.get("service.runs.dispatched") == 2
            workers.release(NW)  # frees a worker: HOTSPOT is handed over
            await until(lambda: HOTSPOT in workers.started)
            batches = engine.registry.get("service.batches")
            workers.release(BFS)
            for job in (job_a, job_b, job_c):
                await job_events(engine, job.id)
            await engine.stop()
            return waiting, batches

        waiting, batches = run(main())
        assert waiting
        assert batches == 1

    def test_batch_stays_within_batch_runs(self):
        async def main():
            engine, _, workers = engine_with(hold=[BFS.key],
                                             max_batch_runs=2)
            await engine.start()
            job_a = engine.submit([BFS])
            await until(lambda: BFS in workers.started)
            job_b = engine.submit([NW])  # handed over: the batch's 2nd run
            job_c = engine.submit([HOTSPOT])
            await job_events(engine, job_b.id)
            await asyncio.sleep(0.05)
            capped = HOTSPOT not in workers.started
            workers.release(BFS)
            for job in (job_a, job_c):
                await job_events(engine, job.id)
            await engine.stop()
            return engine, capped

        engine, capped = run(main())
        assert capped  # the batch had taken its 2 runs
        assert engine.registry.get("service.batches") == 2

    def test_refused_hand_over_goes_back_to_the_queue(self):
        class ClosedFeedRunner(ThreadRunner):
            """The batch closes its feed before the engine hands over."""

            def run_grid_outcomes(self, requests, jobs=None,
                                  on_outcome=None, feed=None):
                assert feed.close() == []
                return super().run_grid_outcomes(
                    requests, jobs=jobs, on_outcome=on_outcome,
                    feed=RunFeed())

        async def main():
            workers = ThreadWorkers(2, hold=[BFS.key])
            engine = ServiceEngine(ServiceConfig(jobs=2),
                                   runner=ClosedFeedRunner(workers))
            await engine.start()
            job_a = engine.submit([BFS])
            await until(lambda: BFS in workers.started)
            job_b = engine.submit([NW])  # refused: back in the queue
            await asyncio.sleep(0.1)
            refused = NW not in workers.started and job_b.status == "queued"
            workers.release(BFS)
            for job in (job_a, job_b):
                events = await job_events(engine, job.id)
                assert events[-1]["status"] == "done"
            await engine.stop()
            return engine, refused

        engine, refused = run(main())
        assert refused
        assert engine.registry.get("service.batches") == 2
        # a refused hand-over is not counted as dispatched
        assert engine.registry.get("service.runs.dispatched") == 2
        assert engine.registry.get("service.runs.handed_over") == 0
        # job_b's queue wait runs to the start of the second batch, not
        # to the refused hand-over 100 ms earlier
        snap = engine.registry.as_dict()
        prefix = "service.queue.wait_ms.bucket."
        waits = {float(k[len(prefix):]): v for k, v in snap.items()
                 if k.startswith(prefix) and v}
        assert sum(waits.values()) == 2
        assert sum(v for bound, v in waits.items() if bound >= 100) == 1


class TestNoHandOver:
    def hold_and_queue(self, engine, workers, mid_batch):
        """Fill both workers, queue NW, apply ``mid_batch``, free one
        worker; returns both jobs and whether NW stayed out of the
        running batch."""

        async def scenario():
            job_a = engine.submit([BFS, HOTSPOT])
            await until(lambda: len(workers.started) == 2)
            job_b = engine.submit([NW])  # no free worker: queued
            mid_batch()
            workers.release(HOTSPOT)
            await until(lambda: len(job_a.outcomes) == 1)
            await asyncio.sleep(0.05)
            return job_a, job_b, NW not in workers.started

        return scenario()

    def test_nothing_handed_over_while_draining(self):
        async def main():
            engine, _, workers = engine_with(hold=[BFS.key, HOTSPOT.key])
            await engine.start()
            job_a, job_b, kept_out = await self.hold_and_queue(
                engine, workers, lambda: setattr(engine, "draining", True))
            workers.release(BFS)
            await engine.drain()
            await engine.stop()
            return job_a, job_b, kept_out, workers

        job_a, job_b, kept_out, workers = run(main())
        assert kept_out
        assert job_a.status == "done"
        assert not job_b.terminal  # persisted for the next life
        assert NW not in workers.started

    @pytest.mark.parametrize("state", [CircuitBreaker.OPEN,
                                       CircuitBreaker.HALF_OPEN])
    def test_nothing_handed_over_unless_breaker_closed(self, state):
        async def main():
            engine, _, workers = engine_with(hold=[BFS.key, HOTSPOT.key])
            breaker = engine.supervisor.breaker
            await engine.start()
            job_a, job_b, kept_out = await self.hold_and_queue(
                engine, workers, lambda: breaker._transition(state))
            breaker.record_success()  # the probe batch turns out healthy
            workers.release(BFS)
            for job in (job_a, job_b):
                await job_events(engine, job.id)
            await engine.stop()
            return job_b, kept_out

        job_b, kept_out = run(main())
        assert kept_out
        assert job_b.status == "done"

    def test_one_worker_one_run_batches_behave_as_before(self):
        class RecordingRunner(FakeRunner):
            def __init__(self):
                super().__init__()
                self.feeds = []

            def run_grid_outcomes(self, requests, jobs=None,
                                  on_outcome=None, feed=None):
                self.feeds.append(feed)
                return super().run_grid_outcomes(
                    requests, jobs=jobs, on_outcome=on_outcome, feed=feed)

        async def main():
            runner = RecordingRunner()
            engine = ServiceEngine(ServiceConfig(jobs=1, max_batch_runs=1),
                                   runner=runner)
            await engine.start()
            job = engine.submit([BFS, NW, HOTSPOT])
            await job_events(engine, job.id)
            await engine.stop()
            return runner, engine

        runner, engine = run(main())
        assert sorted(r.benchmark for [r] in runner.batches) == \
            ["bfs", "hotspot", "nw"]
        assert runner.feeds == [None, None, None]
        assert engine.registry.get("service.batches") == 3
        assert engine.registry.get("service.runs.dispatched") == 3

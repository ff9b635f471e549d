"""Engine core: job store, priorities, dedupe, drain/restart resume.

Simulation is stubbed with a gateable fake runner, so these tests pin
the *scheduling* semantics deterministically — the real-simulator path
is covered end to end in ``test_http_e2e.py``.
"""

from __future__ import annotations

import asyncio
import threading
from types import SimpleNamespace

import pytest

from repro.harness.parallel import RunOutcome, RunRequest
from repro.service import DrainingError, Job, JournalStore, Priority, \
    ServiceConfig, ServiceEngine


BFS = RunRequest.make("bfs", "baseline")
NW = RunRequest.make("nw", "baseline")
HOTSPOT = RunRequest.make("hotspot", "baseline")


def fake_result(request):
    stats = SimpleNamespace(cycles=100, instructions=50, warps_done=4,
                            warps_total=4, finished=True, counters={},
                            stalls={})
    return SimpleNamespace(
        benchmark=request.benchmark, backend=request.backend,
        osu_entries=request.osu_entries, stats=stats,
        energy=SimpleNamespace(as_dict=lambda: {"total": 1.0}),
        timings={},
    )


class FakeRunner:
    """Stands in for SuiteRunner: instant, gateable, records executions."""

    def __init__(self, fail_keys=()):
        self.executed = []
        self.batches = []
        self.fail_keys = set(fail_keys)
        self.gate = threading.Event()
        self.gate.set()
        self.dispatched = threading.Event()

    def run_grid_outcomes(self, requests, jobs=None, on_outcome=None,
                          feed=None):
        self.batches.append(list(requests))
        self.dispatched.set()
        assert self.gate.wait(timeout=30)
        outcomes = []
        for i, request in enumerate(requests):
            self.executed.append(request)
            if request.key in self.fail_keys:
                outcome = RunOutcome(request, RunOutcome.CRASHED,
                                     attempts=3, error="injected")
            else:
                outcome = RunOutcome(request, RunOutcome.OK,
                                     result=fake_result(request), attempts=1)
            if on_outcome is not None:
                on_outcome(i, outcome)
            outcomes.append(outcome)
        return outcomes

    def close(self):
        pass


def make_engine(runner=None, **config):
    return ServiceEngine(ServiceConfig(**config), runner=runner or FakeRunner())


async def collect_events(engine, job_id):
    """Replay + live events until the terminal ``job`` record."""
    replay, queue = engine.subscribe(job_id)
    events = list(replay)
    while queue is not None:
        event = await queue.get()
        if event is None:
            break
        events.append(event)
    return events


def run(coro):
    return asyncio.run(coro)


class TestJobRecord:
    def job(self):
        return Job(id="j1", tenant="a", priority="batch",
                   requests=[BFS, NW], tags={"k": "v"}, created=12.5,
                   outcomes={0: {"status": "ok", "index": 0}})

    def test_record_round_trip(self):
        job = self.job()
        clone = Job.from_record(job.to_record())
        assert clone.requests == job.requests
        assert clone.outcomes == job.outcomes
        assert clone.tags == job.tags
        assert clone.status == job.status

    def test_missing_indices(self):
        assert self.job().missing_indices() == [1]

    @staticmethod
    def load(path):
        store = JournalStore(str(path), fsync=False)
        try:
            return store.load()
        finally:
            store.close()

    def test_store_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        store = JournalStore(str(path), fsync=False)
        store.load()
        store.compact([self.job().to_record()], seq=7)
        store.close()
        records, seq = self.load(path)
        jobs = [Job.from_record(r) for r in records]
        assert seq == 7
        assert [j.id for j in jobs] == ["j1"]
        assert jobs[0].requests == [BFS, NW]

    def test_missing_or_garbage_store_loads_empty(self, tmp_path):
        path = tmp_path / "state.json"
        assert self.load(path) == ([], 0)
        path.write_text("{ not json")
        assert self.load(path) == ([], 0)
        path.write_text('{"version": 999, "jobs": []}')
        assert self.load(path) == ([], 0)


class TestEngine:
    def test_submit_stream_finalize(self):
        async def main():
            runner = FakeRunner()
            engine = make_engine(runner)
            await engine.start()
            job = engine.submit([BFS, NW], tenant="t1")
            events = await collect_events(engine, job.id)
            await engine.stop()
            return runner, engine, job, events

        runner, engine, job, events = run(main())
        assert job.status == Job.DONE
        assert [e["event"] for e in events] == ["outcome", "outcome", "job"]
        assert {e["index"] for e in events[:2]} == {0, 1}
        assert all(e["status"] == "ok" for e in events[:2])
        assert events[-1]["status"] == Job.DONE
        assert len(runner.executed) == 2
        assert engine.registry.get("service.jobs.done") == 1
        assert engine.quotas.active("t1") == {"jobs": 0, "runs": 0}

    def test_latency_histograms_populated(self):
        async def main():
            engine = make_engine()
            await engine.start()
            job = engine.submit([BFS, NW])
            await collect_events(engine, job.id)
            await engine.stop()
            return engine

        engine = run(main())
        snap = engine.registry.as_dict()
        assert snap["service.queue.wait_ms.count"] == 1  # per job dispatch
        assert snap["service.run.exec_ms.count"] == 2    # per run outcome
        for path in ("service.queue.wait_ms", "service.run.exec_ms"):
            buckets = [k for k in snap if k.startswith(path + ".bucket.")]
            assert buckets, path
            assert sum(snap[k] for k in buckets) == snap[path + ".count"]

    def test_failed_run_fails_job_with_summary(self):
        async def main():
            engine = make_engine(FakeRunner(fail_keys={"nw/baseline"}))
            await engine.start()
            job = engine.submit([BFS, NW])
            await collect_events(engine, job.id)
            await engine.stop()
            return job

        job = run(main())
        assert job.status == Job.FAILED
        assert "1/2 run(s) failed" in job.error
        assert "crashed" in job.error

    def test_identical_requests_across_jobs_execute_once(self):
        async def main():
            runner = FakeRunner()
            runner.gate.clear()  # hold job A's batch in flight
            engine = make_engine(runner)
            await engine.start()
            job_a = engine.submit([BFS])
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, runner.dispatched.wait)
            # Job B arrives while A's identical run is executing: it must
            # attach to the in-flight execution, not start a second one.
            job_b = engine.submit([RunRequest.make("bfs", "baseline")])
            runner.gate.set()
            events_b = await collect_events(engine, job_b.id)
            events_a = await collect_events(engine, job_a.id)
            await engine.stop()
            return runner, engine, events_a, events_b

        runner, engine, events_a, events_b = run(main())
        assert len(runner.executed) == 1
        assert events_a[0].get("deduped") is None
        assert events_b[0]["deduped"] is True
        assert events_b[0]["run"] == events_a[0]["run"]
        assert engine.admission.deduped == 1
        assert engine.registry.get("service.admission.deduped") == 1

    def test_priority_orders_work(self):
        async def main():
            runner = FakeRunner()
            engine = make_engine(runner, max_batch_runs=1)
            # Submit before the scheduler exists: bulk first, then
            # interactive — the heap must still run interactive first.
            bulk = engine.submit([NW], priority=Priority.BULK)
            inter = engine.submit([BFS], priority=Priority.INTERACTIVE)
            await engine.start()
            await collect_events(engine, bulk.id)
            await collect_events(engine, inter.id)
            await engine.stop()
            return runner

        runner = run(main())
        assert runner.executed == [BFS, NW]

    def test_cancel_queued_job_never_executes(self):
        async def main():
            runner = FakeRunner()
            runner.gate.clear()
            engine = make_engine(runner, max_batch_runs=1)
            await engine.start()
            job_a = engine.submit([BFS])
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, runner.dispatched.wait)
            job_b = engine.submit([NW])  # queued behind the 1-run batch
            cancelled = engine.cancel(job_b.id)
            runner.gate.set()
            await collect_events(engine, job_a.id)
            await engine.stop()
            return runner, cancelled

        runner, cancelled = run(main())
        assert cancelled.status == Job.CANCELLED
        assert NW not in runner.executed

    def test_draining_engine_refuses_submissions(self):
        async def main():
            engine = make_engine()
            await engine.start()
            await engine.drain()
            with pytest.raises(DrainingError):
                engine.submit([BFS])
            await engine.stop()

        run(main())

    def test_quota_violations_surface_from_submit(self):
        from repro.service import QuotaError, RateLimited, TenantQuota

        async def main():
            engine = make_engine(
                quota=TenantQuota(max_active_runs=2, submit_burst=2,
                                  submit_rate=0.0),
            )
            await engine.start()
            with pytest.raises(QuotaError):
                engine.submit([BFS, NW, HOTSPOT])
            job = engine.submit([BFS])
            with pytest.raises(RateLimited):
                engine.submit([NW])  # burst of 2 spent, zero refill
            await collect_events(engine, job.id)
            await engine.stop()

        run(main())


class TestDrainRestart:
    def test_drain_persists_and_restart_resumes(self, tmp_path):
        state = str(tmp_path / "state.json")

        async def first_life():
            engine = make_engine(state_path=state)
            # The scheduler never starts: everything stays queued, as
            # after a SIGTERM that lands before the batch dispatches.
            job = engine.submit([BFS, NW])
            await engine.drain()
            await engine.stop()
            return job.id

        async def second_life(job_id):
            runner = FakeRunner()
            engine = ServiceEngine(ServiceConfig(state_path=state),
                                   runner=runner)
            await engine.start()
            job = engine.job(job_id)
            assert not job.terminal
            events = await collect_events(engine, job_id)
            await engine.stop()
            return runner, engine, job, events

        job_id = run(first_life())
        runner, engine, job, events = run(second_life(job_id))
        assert job.status == Job.DONE
        assert len(runner.executed) == 2
        assert engine.registry.get("service.jobs.resumed") == 1
        assert engine.registry.get("service.runs.resumed") == 2
        assert events[-1]["status"] == Job.DONE

    def test_restart_runs_only_missing_indices(self, tmp_path):
        state = str(tmp_path / "state.json")

        async def first_life():
            engine = make_engine(state_path=state)
            job = engine.submit([BFS, NW])
            # Simulate a drain that caught index 0 already finished.
            from repro.service import outcome_to_wire
            done = RunOutcome(BFS, RunOutcome.OK, result=fake_result(BFS),
                              attempts=1)
            job.outcomes[0] = outcome_to_wire(0, done)
            job.status = Job.RUNNING
            engine.persist()
            return job.id

        async def second_life(job_id):
            runner = FakeRunner()
            engine = ServiceEngine(ServiceConfig(state_path=state),
                                   runner=runner)
            await engine.start()
            job = engine.job(job_id)
            await collect_events(engine, job_id)
            await engine.stop()
            return runner, job

        job_id = run(first_life())
        runner, job = run(second_life(job_id))
        assert job.status == Job.DONE
        # Only the missing run was re-executed; index 0 kept its record.
        assert runner.executed == [NW]
        assert sorted(job.outcomes) == [0, 1]

    def test_terminal_jobs_survive_restart_untouched(self, tmp_path):
        state = str(tmp_path / "state.json")

        async def first_life():
            runner = FakeRunner()
            engine = ServiceEngine(ServiceConfig(state_path=state),
                                   runner=runner)
            await engine.start()
            job = engine.submit([BFS])
            await collect_events(engine, job.id)
            await engine.drain()
            await engine.stop()
            return job.id

        async def second_life(job_id):
            runner = FakeRunner()
            engine = ServiceEngine(ServiceConfig(state_path=state),
                                   runner=runner)
            await engine.start()
            job = engine.job(job_id)
            replay, queue = engine.subscribe(job_id)
            assert queue is None  # terminal: replay only
            await engine.stop()
            return runner, job, replay

        job_id = run(first_life())
        runner, job, replay = run(second_life(job_id))
        assert job.status == Job.DONE
        assert runner.executed == []
        assert replay[-1]["status"] == Job.DONE
        assert replay[0]["run"]["stats"]["cycles"] == 100

    def test_journal_persists_without_drain(self, tmp_path):
        # The crash case: the first life never drains or persists — the
        # write-ahead journal alone must carry every outcome across.
        state = str(tmp_path / "state.json")

        async def first_life():
            runner = FakeRunner()
            engine = ServiceEngine(ServiceConfig(state_path=state),
                                   runner=runner)
            await engine.start()
            job = engine.submit([BFS])
            await collect_events(engine, job.id)
            await engine.stop()  # no drain(), no compaction
            return job.id

        async def second_life(job_id):
            runner = FakeRunner()
            engine = ServiceEngine(ServiceConfig(state_path=state),
                                   runner=runner)
            await engine.start()
            job = engine.job(job_id)
            await engine.stop()
            return runner, job

        job_id = run(first_life())
        import os
        assert os.path.exists(state + ".wal")
        runner, job = run(second_life(job_id))
        assert job.status == Job.DONE
        assert runner.executed == []  # exactly-once: nothing re-ran
        assert job.outcomes[0]["status"] == "ok"


class TestEventSequences:
    def test_events_carry_monotonic_seqs(self):
        async def main():
            engine = make_engine()
            await engine.start()
            job = engine.submit([BFS, NW])
            events = await collect_events(engine, job.id)
            await engine.stop()
            return events

        events = run(main())
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert events[-1]["event"] == "job"

    def test_subscribe_after_skips_seen_events(self):
        async def main():
            engine = make_engine()
            await engine.start()
            job = engine.submit([BFS, NW])
            await collect_events(engine, job.id)
            replay, queue = engine.subscribe(job.id, after=0)
            await engine.stop()
            return replay, queue

        replay, queue = run(main())
        assert queue is None
        assert [e["seq"] for e in replay] == [1, 2]
        assert replay[-1]["event"] == "job"

    def test_drain_marks_live_streams(self):
        async def main():
            engine = make_engine()
            # scheduler never started: the job stays queued, and drain
            # must end the attached stream with an explicit marker
            job = engine.submit([BFS])
            _, queue = engine.subscribe(job.id)
            await engine.drain()
            marker = await queue.get()
            sentinel = await queue.get()
            await engine.stop()
            return job, marker, sentinel

        job, marker, sentinel = run(main())
        assert marker == {"event": "service", "status": "draining",
                          "job": job.id}
        assert sentinel is None


class TestDeadlines:
    def test_overdue_job_degrades_to_partial_results(self):
        class OneBatchRunner(FakeRunner):
            def run_grid_outcomes(self, requests, jobs=None, on_outcome=None,
                                  feed=None):
                result = super().run_grid_outcomes(
                    requests, jobs=jobs, on_outcome=on_outcome, feed=feed
                )
                self.gate.clear()  # the next batch blocks until released
                return result

        async def main():
            runner = OneBatchRunner()
            engine = make_engine(runner, max_batch_runs=1,
                                 deadline_poll=3600.0)
            await engine.start()
            job = engine.submit([BFS, NW], deadline_s=5.0)
            # let the first run finish; the second batch sits on the gate
            while not job.outcomes:
                await asyncio.sleep(0.005)
            engine.expire_overdue(now=job.created + 10.0)
            events = await collect_events(engine, job.id)
            runner.gate.set()  # release the straggler batch
            await engine.stop()
            return engine, job, events

        engine, job, events = run(main())
        assert job.status == Job.FAILED
        done = next(iter(job.outcomes))  # whichever run dispatched first
        late = 1 - done
        assert job.outcomes[done]["status"] == "ok"   # finished runs kept
        assert job.outcomes[late]["status"] == "expired"
        assert "deadline" in job.outcomes[late]["error"]
        assert engine.registry.get("service.jobs.expired") == 1
        assert engine.registry.get("service.runs.expired") == 1

    def test_default_deadline_applies(self):
        async def main():
            engine = make_engine(default_deadline=7.0, deadline_poll=3600.0)
            await engine.start()
            job = engine.submit([BFS])
            await collect_events(engine, job.id)
            await engine.stop()
            return job

        assert run(main()).deadline_s == 7.0

    def test_jobs_without_deadline_never_expire(self):
        async def main():
            engine = make_engine(deadline_poll=3600.0)
            await engine.start()
            job = engine.submit([BFS])
            assert engine.expire_overdue(now=job.created + 1e9) == []
            await collect_events(engine, job.id)
            await engine.stop()

        run(main())

    # -5 and NaN would expire a fresh job at the first sweep, 0 would
    # silently mean "never", and inf is not JSON in the job's journal
    # record.
    BAD_DEADLINES = [-5.0, 0, 0.0, float("nan"), float("inf"), True]

    @pytest.mark.parametrize("deadline", BAD_DEADLINES)
    def test_bad_default_deadline_rejected(self, deadline):
        with pytest.raises(ValueError, match="default_deadline"):
            make_engine(default_deadline=deadline)

    @pytest.mark.parametrize("deadline", BAD_DEADLINES)
    def test_bad_submit_deadline_rejected(self, deadline):
        async def main():
            engine = make_engine(deadline_poll=3600.0)
            await engine.start()
            try:
                with pytest.raises(ValueError, match="deadline_s"):
                    engine.submit([BFS], deadline_s=deadline)
                return dict(engine.jobs)
            finally:
                await engine.stop()

        assert run(main()) == {}


class TestBackpressureAndBreaker:
    def test_queue_bound_sheds_submissions(self):
        from repro.service import OverloadedError

        async def main():
            runner = FakeRunner()
            runner.gate.clear()
            engine = make_engine(runner, max_batch_runs=1,
                                 max_queued_runs=2)
            await engine.start()
            engine.submit([BFS])
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, runner.dispatched.wait)
            engine.submit([NW, HOTSPOT])  # fills the queue bound
            with pytest.raises(OverloadedError) as err:
                engine.submit([RunRequest.make("srad", "baseline")])
            runner.gate.set()
            for job_id in list(engine.jobs):
                await collect_events(engine, job_id)
            await engine.stop()
            return engine, err.value

        engine, err = run(main())
        assert err.retry_after > 0
        assert engine.registry.get("service.backpressure.shed") == 1

    def test_broken_batches_open_breaker_and_recover(self):
        from repro.service import BreakerConfig, BreakerOpen

        class ExplodingRunner(FakeRunner):
            def __init__(self):
                super().__init__()
                self.explosions = 0

            def run_grid_outcomes(self, requests, jobs=None, on_outcome=None,
                                  feed=None):
                if self.explosions < 2:
                    self.explosions += 1
                    raise RuntimeError("pool burned down")
                return super().run_grid_outcomes(
                    requests, jobs=jobs, on_outcome=on_outcome, feed=feed
                )

        async def main():
            runner = ExplodingRunner()
            engine = make_engine(
                runner,
                breaker=BreakerConfig(failure_threshold=2,
                                      reset_timeout=0.05),
            )
            await engine.start()
            # each broken batch fails its job; two in a row trip the breaker
            job_a = engine.submit([BFS])
            await collect_events(engine, job_a.id)
            job_b = engine.submit([NW])
            await collect_events(engine, job_b.id)
            assert engine.supervisor.breaker.state == "open"
            with pytest.raises(BreakerOpen):
                engine.submit([HOTSPOT])
            # after the reset timeout the half-open probe dispatches and
            # the healthy batch closes the breaker again
            await asyncio.sleep(0.1)
            job_c = engine.submit([HOTSPOT])
            events = await collect_events(engine, job_c.id)
            await engine._idle.wait()  # let the batch's health probe land
            await engine.stop()
            return engine, job_a, job_b, events

        engine, job_a, job_b, events = run(main())
        assert job_a.status == Job.FAILED
        assert job_b.status == Job.FAILED
        assert events[-1]["status"] == Job.DONE
        assert engine.supervisor.breaker.state == "closed"
        assert engine.registry.get("service.breaker.opened") == 1
        assert engine.registry.get("service.breaker.rejected") == 1
        assert engine.registry.get("service.batches.broken") == 2

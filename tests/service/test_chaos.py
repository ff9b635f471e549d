"""Kill-anywhere chaos suite: the real daemon dies at every injection
point and the restarted daemon must converge.

Convergence means, for every point:

* no lost outcomes — the job (resubmitted only if its submit was never
  acknowledged) finishes ``done`` with every run ``ok``;
* no duplicated outcomes — each run index carries exactly one record and
  event sequence numbers are gap- and duplicate-free;
* bit-identical results — ``SimStats`` match the committed golden grid
  (``tests/golden/simstats_bfs_nw.json``) exactly, crash or no crash.

The suite shares one result-cache directory across tests: re-dispatch of
work that simulated-but-never-journaled becomes a deterministic cache
hit, which is exactly the production recovery path and keeps the suite
fast.  Fault claims live in per-test directories and persist across
daemon restarts, so an exhausted fault never re-fires in the second
life.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.harness.faults import KILL_EXIT_CODE, FaultSpec, \
    ServiceFaultSpec, encode_service_plan, injected_faults
from repro.harness.parallel import FaultPolicy
from repro.harness.runner import SuiteRunner
from repro.service import BreakerConfig, ServiceClient, ServiceConfig, \
    ServiceEngine, ServiceError
from repro.sim import GPUConfig

from .test_http_e2e import REPO_ROOT, SMALL, call, serve_inprocess

GOLDEN = REPO_ROOT / "tests" / "golden" / "simstats_bfs_nw.json"
GOLDEN_KEYS = ("cycles", "instructions", "warps_done", "counters", "stalls")

#: the chaos grid — default config, so results diff against the golden.
RUNS = [{"benchmark": "bfs", "backend": "baseline"},
        {"benchmark": "nw", "backend": "baseline"}]

#: every named injection point on the journal/dispatch paths.
KILL_POINTS = [
    "journal.submit.pre",    # die before the job is durable
    "journal.submit.post",   # durable but the 201 never sent
    "journal.start.post",    # batch journaled, never dispatched
    "dispatch.pre",          # die entering the dispatch path
    "journal.outcome.pre",   # run finished, outcome not journaled
    "journal.outcome.post",  # outcome durable, not yet applied
    "journal.finish.pre",    # all outcomes durable, job not finalized
    "journal.finish.post",   # finalized, died right after
    "compact.pre",           # die entering compaction
    "compact.post",          # snapshot rotated, died right after
]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("chaos-cache"))


def boot_daemon(tmp_path, env, jobs=1, batch_runs=1):
    """Start the real CLI daemon; returns (process, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.harness", "serve", "--port", "0",
         "--state-dir", str(tmp_path / "state"), "--jobs", str(jobs),
         "--batch-runs", str(batch_runs), "--compact-every", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=str(REPO_ROOT),
    )
    line = proc.stdout.readline().strip()
    assert "repro-service listening on" in line, line
    return proc, int(line.rsplit(":", 1)[1])


def chaos_env(tmp_path, cache_dir, specs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE_DIR"] = cache_dir
    env["REPRO_SERVICE_FAULTS"] = encode_service_plan(specs)
    env["REPRO_FAULT_DIR"] = str(tmp_path / "claims")
    os.makedirs(env["REPRO_FAULT_DIR"], exist_ok=True)
    return env


def end_daemon(proc):
    """SIGTERM a (possibly already dead) daemon and reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        return proc.communicate(timeout=120)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.communicate()[0]


def submit_expecting_crash(client, runs):
    """Submit to a daemon that may die mid-request; job id or ``None``."""
    try:
        return client.submit(runs)["id"]
    except (ServiceError, OSError):
        return None


def assert_converged(result, golden, runs=RUNS):
    assert result["job"]["status"] == "done"
    assert len(result["runs"]) == len(runs)
    seen = set()
    for spec, run in zip(runs, result["runs"]):
        key = f"{spec['benchmark']}/{spec['backend']}"
        assert run["status"] == "ok", (key, run.get("error"))
        assert run["index"] not in seen  # no duplicated outcomes
        seen.add(run["index"])
        stats = run["run"]["stats"]
        for field in GOLDEN_KEYS:
            assert stats[field] == golden[key][field], (key, field)


class TestKillAnywhere:
    """SIGKILL-equivalent death at every injection point, then converge."""

    @pytest.mark.parametrize("point", KILL_POINTS)
    def test_daemon_killed_at_point_converges(self, tmp_path, cache_dir,
                                              golden, point):
        env = chaos_env(tmp_path, cache_dir,
                        [ServiceFaultSpec("kill", point)])
        proc, port = boot_daemon(tmp_path, env)
        job_id = None
        try:
            client = ServiceClient("127.0.0.1", port, timeout=120, retries=0)
            job_id = submit_expecting_crash(client, RUNS)
            proc.wait(timeout=120)  # the armed fault kills the daemon
        finally:
            output = end_daemon(proc)
        assert proc.returncode == KILL_EXIT_CODE, (point, output)

        # Second life: same fault plan armed, but the claim is spent.
        proc2, port2 = boot_daemon(tmp_path, env)
        try:
            client2 = ServiceClient("127.0.0.1", port2, timeout=120)
            if job_id is None:
                # the crash beat the 201: recover the job id if the
                # submit was journaled, else resubmit
                jobs = client2.jobs()
                assert len(jobs) <= 1
                job_id = jobs[0]["id"] if jobs else \
                    client2.submit(RUNS)["id"]
            result = client2.wait(job_id)
            metrics = client2.metrics("service")
        finally:
            end_daemon(proc2)
        assert_converged(result, golden)
        # resumed work is bounded by the grid — nothing ran twice into
        # the journal, and completed jobs are never re-dispatched
        assert metrics.get("service.runs.resumed", 0) <= len(RUNS)

    def test_journaled_outcomes_never_reexecute(self, tmp_path, cache_dir,
                                                golden):
        """Exactly-once: die after every outcome is journaled but before
        the finish record — the restarted daemon must finalize the job
        from the journal alone, dispatching nothing."""
        env = chaos_env(tmp_path, cache_dir,
                        [ServiceFaultSpec("kill", "journal.finish.pre")])
        proc, port = boot_daemon(tmp_path, env)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=120, retries=0)
            job_id = submit_expecting_crash(client, RUNS)
            assert job_id is not None
            proc.wait(timeout=120)
        finally:
            end_daemon(proc)
        assert proc.returncode == KILL_EXIT_CODE

        proc2, port2 = boot_daemon(tmp_path, env)
        try:
            client2 = ServiceClient("127.0.0.1", port2, timeout=120)
            result = client2.wait(job_id)
            metrics = client2.metrics("service")
        finally:
            end_daemon(proc2)
        assert_converged(result, golden)
        assert metrics.get("service.runs.dispatched", 0) == 0
        assert metrics.get("service.jobs.done", 0) == 1


def children(pid):
    """Live (non-zombie) child processes of ``pid``, from ``/proc``."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if int(ppid) == pid and state not in "ZX":
            kids.append(int(entry))
    return kids


def running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except OSError:
        return False


class TestPooledDaemon:
    """The same convergence with a 2-worker pool and multi-run batches:
    the first life's two jobs arrive back to back, so the second one's
    run is usually handed over to the first one's running batch."""

    # ``skip`` lets earlier firings pass (a ``torn`` spec is consumed and
    # ignored at a non-journal point), so ``dispatch.pre`` also dies at
    # the second dispatch — a hand-over when the timing allows.
    @pytest.mark.parametrize("point,skip", [(p, 0) for p in KILL_POINTS]
                             + [("dispatch.pre", 1)])
    def test_pooled_daemon_killed_at_point_converges(self, tmp_path, golden,
                                                     point, skip):
        specs = [ServiceFaultSpec("torn", point, count=skip)] if skip else []
        specs.append(ServiceFaultSpec("kill", point))
        # a private cache, so the runs simulate on the pool
        env = chaos_env(tmp_path, str(tmp_path / "cache"), specs)
        proc, port = boot_daemon(tmp_path, env, jobs=2, batch_runs=4)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=120, retries=0)
            ids = [submit_expecting_crash(client, [run]) for run in RUNS]
            proc.wait(timeout=120)
        finally:
            end_daemon(proc)
        assert proc.returncode == KILL_EXIT_CODE, point

        proc2, port2 = boot_daemon(tmp_path, env, jobs=2, batch_runs=4)
        try:
            client2 = ServiceClient("127.0.0.1", port2, timeout=120)
            # at most one submit can be in doubt: the one the crash cut
            unknown = [j["id"] for j in client2.jobs() if j["id"] not in ids]
            assert len(unknown) <= 1
            results = []
            for run, job_id in zip(RUNS, ids):
                if job_id is None:
                    job_id = unknown.pop() if unknown else \
                        client2.submit([run])["id"]
                results.append((run, client2.wait(job_id)))
        finally:
            end_daemon(proc2)
        for run, result in results:
            assert_converged(result, golden, runs=[run])


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestWorkerLifetime:
    """The daemon's long-lived pool never outlives it."""

    def pooled_daemon(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        proc, port = boot_daemon(tmp_path, env, jobs=2, batch_runs=4)
        client = ServiceClient("127.0.0.1", port, timeout=120)
        runs = [{"benchmark": name, "backend": "baseline",
                 "overrides": SMALL} for name in ("bfs", "nw")]
        result = client.wait(client.submit(runs)["id"])
        assert result["job"]["status"] == "done"
        workers = children(proc.pid)
        assert len(workers) == 2  # forked at the first dispatch, kept
        return proc, client, workers

    def test_worker_killed_between_jobs_is_replaced(self, tmp_path):
        proc, client, workers = self.pooled_daemon(tmp_path)
        try:
            os.kill(workers[0], signal.SIGKILL)  # dies idle, between jobs
            # the pool sees the death and stops the other worker too
            deadline = time.monotonic() + 30
            while any(running(pid) for pid in workers):
                assert time.monotonic() < deadline, "broken pool not noticed"
                time.sleep(0.05)
            runs = [{"benchmark": name, "backend": "regless",
                     "overrides": SMALL} for name in ("bfs", "nw")]
            result = client.wait(client.submit(runs)["id"])
            replaced = children(proc.pid)
        finally:
            output = end_daemon(proc)
        assert proc.returncode == 0, output
        assert result["job"]["status"] == "done"
        assert [(run["status"], run["attempts"]) for run in result["runs"]] \
            == [("ok", 1)] * 2  # nothing charged for the idle death
        assert len(replaced) == 2 and not set(replaced) & set(workers)

    def test_sigterm_drain_leaves_no_worker(self, tmp_path):
        proc, _, workers = self.pooled_daemon(tmp_path)
        output = end_daemon(proc)
        assert proc.returncode == 0, output
        assert not any(running(pid) for pid in workers)

    def test_hard_killed_daemon_workers_exit(self, tmp_path):
        proc, _, workers = self.pooled_daemon(tmp_path)
        proc.kill()  # no drain, no atexit: the workers are orphaned
        proc.wait(timeout=60)
        try:
            deadline = time.monotonic() + 10
            while any(running(pid) for pid in workers):
                assert time.monotonic() < deadline, "orphaned workers linger"
                time.sleep(0.1)
        finally:
            proc.stdout.close()


class TestTornJournal:
    """Torn and bit-flipped journal writes truncate-and-continue."""

    @pytest.mark.parametrize("kind,point", [
        ("torn", "journal.outcome.pre"),
        ("torn", "journal.submit.pre"),
        ("bitflip", "journal.outcome.pre"),
    ])
    def test_damaged_tail_recovers(self, tmp_path, cache_dir, golden,
                                   kind, point):
        env = chaos_env(tmp_path, cache_dir, [ServiceFaultSpec(kind, point)])
        proc, port = boot_daemon(tmp_path, env)
        job_id = None
        try:
            client = ServiceClient("127.0.0.1", port, timeout=120, retries=0)
            job_id = submit_expecting_crash(client, RUNS)
            proc.wait(timeout=120)
        finally:
            end_daemon(proc)
        assert proc.returncode == KILL_EXIT_CODE

        proc2, port2 = boot_daemon(tmp_path, env)
        try:
            client2 = ServiceClient("127.0.0.1", port2, timeout=120)
            if job_id is None:
                jobs = client2.jobs()
                job_id = jobs[0]["id"] if jobs else \
                    client2.submit(RUNS)["id"]
            result = client2.wait(job_id)
            metrics = client2.metrics("service")
        finally:
            end_daemon(proc2)
        assert_converged(result, golden)
        # replay saw the damaged tail, counted it, and kept going
        assert metrics.get("service.journal.torn_tails", 0) >= 1


class TestDrainWithAttachedStream:
    """SIGTERM drain while a client is attached to the live NDJSON
    stream: the stream must end with a clean terminal marker, and a
    reconnect after restart replays exactly the missed tail."""

    BENCHMARKS = ("bfs", "nw", "streamcluster")

    def test_stream_gets_drain_marker_and_resumes(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        runs = [{"benchmark": name, "backend": "baseline",
                 "overrides": SMALL} for name in self.BENCHMARKS]

        proc, port = boot_daemon(tmp_path, env)
        streamed = []
        try:
            client = ServiceClient("127.0.0.1", port, timeout=120)
            job = client.submit(runs)

            done = threading.Event()

            def consume():
                # raw single-connection stream: no client-side reconnect,
                # we want to see exactly what the drain delivers
                for event in client._stream_once(job["id"], -1):
                    streamed.append(event)
                done.set()

            thread = threading.Thread(target=consume, daemon=True)
            thread.start()
            while not streamed:  # first outcome arrives
                assert thread.is_alive()
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            output = end_daemon(proc)
            thread.join(timeout=60)
            assert done.is_set()
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0
        assert "draining" in output and "stopped" in output
        # the stream ended with the explicit drain marker, not a cut wire
        assert streamed[-1] == {"event": "service", "status": "draining",
                                "job": job["id"]}
        outcomes = [e for e in streamed if e.get("event") == "outcome"]
        assert outcomes and len(outcomes) < len(runs)
        last_seq = max(e["seq"] for e in outcomes)

        proc2, port2 = boot_daemon(tmp_path, env)
        try:
            client2 = ServiceClient("127.0.0.1", port2, timeout=120)
            tail = list(client2.events(job["id"], after=last_seq))
        finally:
            end_daemon(proc2)
        # the reconnect replays only the missed tail, then terminates
        assert tail[-1]["event"] == "job" and tail[-1]["status"] == "done"
        tail_seqs = [e["seq"] for e in tail]
        assert min(tail_seqs) == last_seq + 1  # gapless, no duplicates
        assert sorted(tail_seqs) == list(range(last_seq + 1,
                                               last_seq + 1 + len(tail)))
        statuses = {e["index"]: e["status"] for e in streamed + tail
                    if e.get("event") == "outcome"}
        assert statuses == {i: "ok" for i in range(len(runs))}


class TestBreakerStorm:
    """A pool-breakage storm opens the breaker over HTTP; recovery runs."""

    def test_storm_sheds_then_recovers(self, tmp_path):
        claim_dir = str(tmp_path / "claims")
        # every run in a storm batch is a targeted kill — the batch comes
        # back all-crashed no matter how the pool schedules the deaths
        storm = [{"benchmark": "bfs", "backend": "baseline",
                  "overrides": SMALL},
                 {"benchmark": "nw", "backend": "baseline",
                  "overrides": SMALL}]
        recovery = [{"benchmark": "hotspot", "backend": "baseline",
                     "overrides": SMALL},
                    {"benchmark": "streamcluster", "backend": "baseline",
                     "overrides": SMALL}]
        faults = [FaultSpec("kill", "bfs/baseline", count=2),
                  FaultSpec("kill", "nw/baseline", count=2)]
        with injected_faults(faults, claim_dir):
            runner = SuiteRunner(
                config=GPUConfig(**SMALL), cache=False,
                policy=FaultPolicy(retries=0),
            )
            engine = ServiceEngine(
                ServiceConfig(
                    jobs=2,  # a real worker pool, so kill faults fire
                    breaker=BreakerConfig(failure_threshold=2,
                                          reset_timeout=0.2),
                ),
                runner=runner,
            )

            async def body(app, client):
                # two worker-kill batches in a row open the breaker
                for _ in range(2):
                    job = await call(client.submit, storm)
                    for event in await call(
                        lambda: list(client.events(job["id"]))
                    ):
                        if event.get("event") == "outcome":
                            assert event["status"] == "crashed"
                with pytest.raises(ServiceError) as err:
                    await call(client.submit, recovery)
                assert err.value.status == 503
                assert err.value.retry_after is not None
                health = await call(client.health)
                assert health["breaker"] == "open"
                # after the reset timeout, the half-open probe dispatches
                # the next batch; it matches no fault target, so it heals
                await asyncio.sleep(0.3)
                job = await call(client.submit, recovery)
                result = await call(client.wait, job["id"])
                assert [r["status"] for r in result["runs"]] == ["ok", "ok"]
                metrics = await call(client.metrics, "service")
                assert metrics["service.breaker.opened"] == 1
                assert metrics["service.breaker.rejected"] == 1
                health = await call(client.health)
                assert health["breaker"] == "closed"

            serve_inprocess(engine, body)


class TestClientReconnect:
    """Client disconnect mid-stream + reconnect-with-backoff plumbing."""

    def test_events_resume_across_dropped_connection(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        runs = [{"benchmark": name, "backend": "baseline",
                 "overrides": SMALL} for name in ("bfs", "nw")]

        proc, port = boot_daemon(tmp_path, env)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=120)
            job = client.submit(runs)

            # sabotage the first connection after one event: the client
            # must reconnect with ?after= and finish the stream gapless
            real_stream = client._stream_once
            dropped = {"count": 0}

            def breaking_stream(job_id, after):
                for i, event in enumerate(real_stream(job_id, after)):
                    yield event
                    if dropped["count"] == 0 and i == 0:
                        dropped["count"] += 1
                        raise ConnectionResetError("injected disconnect")

            client._stream_once = breaking_stream
            events = list(client.events(job["id"]))
        finally:
            end_daemon(proc)
        assert dropped["count"] == 1
        assert events[-1]["event"] == "job"
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(set(seqs))  # gapless, duplicate-free
        outcomes = [e for e in events if e["event"] == "outcome"]
        assert {e["index"] for e in outcomes} == {0, 1}
        assert all(e["status"] == "ok" for e in outcomes)

    def test_idempotent_gets_retry_through_backoff(self):
        naps = []
        client = ServiceClient("127.0.0.1", 1, timeout=0.2, retries=3,
                               backoff=0.01, sleep=naps.append)
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 503
        assert naps == [0.01, 0.02, 0.04]  # exponential backoff
        # mutating requests are never replayed
        naps.clear()
        with pytest.raises(ServiceError):
            client._request("POST", "/jobs", {"runs": []})
        assert naps == []

"""End-to-end service tests over a real HTTP socket.

Covers the PR's acceptance criteria:

* submit → stream per-run outcomes → fetch results returns stats
  **bit-identical** to ``tests/golden/simstats_bfs_nw.json``;
* identical concurrent submissions from two clients execute once;
* SIGTERM drains gracefully and a restarted daemon completes the
  remaining grid (subprocess CLI test, below);
* HTTP error mapping: 400/404/405/409/429/503.
"""

from __future__ import annotations

import asyncio
import functools
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.harness.cache import ResultCache
from repro.harness.runner import SuiteRunner
from repro.service import ServiceApp, ServiceClient, ServiceConfig, \
    ServiceEngine, ServiceError, TenantQuota
from repro.sim import GPUConfig

from .test_queue import FakeRunner

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN = REPO_ROOT / "tests" / "golden" / "simstats_bfs_nw.json"
SMALL = dict(warps_per_sm=8, schedulers_per_sm=2, cta_size_warps=4)
GOLDEN_BACKENDS = ("baseline", "rfh", "rfv", "regless", "regless-nc")
GOLDEN_KEYS = ("cycles", "instructions", "warps_done", "counters", "stalls")


async def call(fn, *args, **kwargs):
    """Run a blocking client call off the loop thread."""
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(
        None, functools.partial(fn, *args, **kwargs)
    )


def serve_inprocess(engine_or_config, body):
    """Start a real server on a free port, run ``body(client)``, shut down."""

    async def main():
        if isinstance(engine_or_config, ServiceEngine):
            app = ServiceApp(engine=engine_or_config)
        else:
            app = ServiceApp(engine_or_config)
        host, port = await app.start("127.0.0.1", 0)
        try:
            return await body(app, ServiceClient(host, port, tenant="test"))
        finally:
            await app.shutdown(drain=False)

    return asyncio.run(main())


class TestGoldenIdentity:
    """Service results must be bit-identical to the committed golden."""

    def test_submit_stream_result_matches_golden(self, tmp_path):
        golden = json.loads(GOLDEN.read_text())
        config = ServiceConfig(jobs=2,
                               cache=ResultCache(str(tmp_path / "cache")))
        runs = [{"benchmark": "bfs", "backend": b} for b in GOLDEN_BACKENDS]

        async def body(app, client):
            job = await call(client.submit, runs, priority="interactive",
                             tags={"suite": "e2e"})
            events = await call(lambda: list(client.events(job["id"])))
            result = await call(client.result, job["id"])
            listing = await call(client.jobs)
            return job, events, result, listing

        job, events, result, listing = serve_inprocess(config, body)
        # The stream carried every outcome, then the terminal job event.
        assert [e["event"] for e in events] == ["outcome"] * 5 + ["job"]
        assert all(e["status"] == "ok" for e in events[:5])
        assert events[-1]["status"] == "done"
        assert [j["id"] for j in listing] == [job["id"]]
        # The result bundle is bit-identical to the golden grid.
        assert result["job"]["status"] == "done"
        assert result["job"]["tags"] == {"suite": "e2e"}
        by_backend = {r["request"]["backend"]: r for r in result["runs"]}
        assert set(by_backend) == set(GOLDEN_BACKENDS)
        for backend, run in by_backend.items():
            assert run["status"] == "ok"
            want = golden[f"bfs/{backend}"]
            stats = run["run"]["stats"]
            for key in GOLDEN_KEYS:
                assert stats[key] == want[key], f"bfs/{backend} {key}"


class GatedRunner(SuiteRunner):
    """Real SuiteRunner whose batches block until the test releases them —
    makes "submitted while in flight" deterministic."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.gate = threading.Event()
        self.dispatched = threading.Event()
        self.batches = []

    def run_grid_outcomes(self, requests, jobs=None, on_outcome=None,
                          feed=None):
        self.batches.append(list(requests))
        self.dispatched.set()
        assert self.gate.wait(timeout=60)
        return super().run_grid_outcomes(requests, jobs=jobs,
                                         on_outcome=on_outcome, feed=feed)


class TestConcurrentDedupe:
    def test_identical_concurrent_submissions_execute_once(self):
        runner = GatedRunner(config=GPUConfig(**SMALL), cache=False)
        engine = ServiceEngine(ServiceConfig(jobs=1), runner=runner)
        spec = {"benchmark": "bfs", "backend": "baseline"}

        async def body(app, client_a):
            client_b = ServiceClient(client_a.host, client_a.port,
                                     tenant="other")
            job_a = await call(client_a.submit, [spec])
            await call(runner.dispatched.wait)
            # Second client submits the identical run mid-flight.
            job_b = await call(client_b.submit, [spec])
            runner.gate.set()
            result_b = await call(client_b.wait, job_b["id"])
            result_a = await call(client_a.wait, job_a["id"])
            metrics = await call(client_a.metrics, "service")
            return result_a, result_b, metrics

        result_a, result_b, metrics = serve_inprocess(engine, body)
        assert len(runner.batches) == 1  # one simulation, two clients
        assert metrics["service.admission.deduped"] == 1
        assert metrics["service.runs.dispatched"] == 1
        run_a, run_b = result_a["runs"][0], result_b["runs"][0]
        assert run_a["status"] == run_b["status"] == "ok"
        assert run_b["deduped"] is True
        assert "deduped" not in run_a
        assert run_b["run"]["stats"] == run_a["run"]["stats"]


class TestHTTPContract:
    def test_error_mapping_and_introspection(self):
        runner = FakeRunner()
        runner.gate.clear()
        engine = ServiceEngine(
            ServiceConfig(quota=TenantQuota(submit_rate=0.5, submit_burst=1)),
            runner=runner,
        )
        spec = {"benchmark": "bfs", "backend": "baseline"}

        async def body(app, client):
            health = await call(client.health)
            assert health["status"] == "ok"

            with pytest.raises(ServiceError) as err:
                await call(client.submit, [{"benchmark": "nope",
                                            "backend": "baseline"}])
            assert err.value.status == 400

            with pytest.raises(ServiceError) as err:
                await call(client.job, "no-such-job")
            assert err.value.status == 404

            job = await call(client.submit, [spec])
            with pytest.raises(ServiceError) as err:
                await call(client.result, job["id"])  # still running
            assert err.value.status == 409

            with pytest.raises(ServiceError) as err:  # burst of 1 spent
                await call(client.submit, [spec])
            assert err.value.status == 429
            assert err.value.retry_after is not None

            runner.gate.set()
            result = await call(client.wait, job["id"])
            assert result["job"]["status"] == "done"

            metrics = await call(client.metrics, "service")
            assert metrics["service.jobs.submitted"] == 1
            assert metrics["service.jobs.done"] == 1
            text = await call(self.raw_get, client, "/metrics?prefix=service")
            assert "service.jobs.done 1" in text.splitlines()

            app.request_drain()
            with pytest.raises(ServiceError) as err:
                await call(client.submit, [spec])
            assert err.value.status == 503
            health = await call(client.health)
            assert health["status"] == "draining"

        serve_inprocess(engine, body)

    @staticmethod
    def raw_get(client, path):
        conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            assert response.status == 200
            return response.read().decode()
        finally:
            conn.close()


class TestHangDiagnostics:
    """The watchdog's hang snapshot rides /events and /result."""

    DIAG = {"cycle": 420, "no_progress_cycles": 64,
            "warps": [{"warp": 0, "state": "parked"}]}

    def test_hung_outcome_carries_diagnostics(self):
        from repro.harness.parallel import RunOutcome

        diag = self.DIAG

        class HangRunner(FakeRunner):
            def run_grid_outcomes(self, requests, jobs=None, on_outcome=None,
                                  feed=None):
                outcomes = []
                for i, request in enumerate(requests):
                    outcome = RunOutcome(
                        request, RunOutcome.HUNG, attempts=2,
                        error="watchdog: no forward progress",
                        diagnostics=diag,
                    )
                    if on_outcome is not None:
                        on_outcome(i, outcome)
                    outcomes.append(outcome)
                return outcomes

        engine = ServiceEngine(ServiceConfig(), runner=HangRunner())
        spec = {"benchmark": "bfs", "backend": "baseline"}

        async def body(app, client):
            job = await call(client.submit, [spec])
            events = await call(lambda: list(client.events(job["id"])))
            result = await call(client.result, job["id"])
            return events, result

        events, result = serve_inprocess(engine, body)
        outcome = events[0]
        assert outcome["status"] == "hung"
        assert outcome["diagnostics"] == self.DIAG
        run = result["runs"][0]
        assert run["status"] == "hung"
        assert run["diagnostics"] == self.DIAG
        assert result["job"]["status"] == "failed"


class TestSigtermDrainRestart:
    """Boot the real CLI daemon, SIGTERM it mid-grid, restart, finish."""

    BENCHMARKS = ("bfs", "nw", "streamcluster")

    def boot(self, tmp_path, env):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness", "serve", "--port", "0",
             "--state-dir", str(tmp_path / "state"), "--jobs", "1",
             "--batch-runs", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=str(REPO_ROOT),
        )
        line = proc.stdout.readline().strip()
        assert "repro-service listening on" in line, line
        return proc, int(line.rsplit(":", 1)[1])

    def test_drain_persists_and_restart_completes(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        runs = [{"benchmark": name, "backend": "baseline",
                 "overrides": SMALL} for name in self.BENCHMARKS]

        proc, port = self.boot(tmp_path, env)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=120)
            job = client.submit(runs)
            events = client.events(job["id"])
            first = next(events)
            assert first["event"] == "outcome" and first["status"] == "ok"
            events.close()
            # --batch-runs 1: at most one more run is in flight; the rest
            # of the grid must survive the drain in the job store.
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0
        assert "draining" in output and "stopped" in output
        state = json.loads(
            (tmp_path / "state" / "service-state.json").read_text()
        )
        [record] = state["jobs"]
        assert record["id"] == job["id"]
        assert record["status"] != "done"
        persisted = len(record["outcomes"])
        assert 1 <= persisted < len(runs)

        proc2, port2 = self.boot(tmp_path, env)
        try:
            client2 = ServiceClient("127.0.0.1", port2, timeout=120)
            result = client2.wait(job["id"])
            metrics = client2.metrics("service")
        finally:
            proc2.send_signal(signal.SIGTERM)
            try:
                proc2.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc2.kill()
        assert result["job"]["status"] == "done"
        assert [r["status"] for r in result["runs"]] == ["ok"] * len(runs)
        assert metrics["service.jobs.resumed"] == 1
        assert metrics["service.runs.resumed"] == len(runs) - persisted

"""Fault-injection suite: every failure class detected, retried or surfaced.

Injects the four failure classes the resilience layer exists for — worker
kills, run hangs, cache corruption, and wedged backends — and proves:

* the sweep completes with structured :class:`RunOutcome`\\ s (never a
  lost grid),
* retried/recovered runs produce **bit-identical** ``SimStats`` to a
  clean run (checked against ``tests/golden/simstats_bfs_nw.json``),
* wedged backends surface as :class:`SimulationHang` with the offending
  shard and stall bin named in the payload.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.compiler import compile_kernel
from repro.energy.model import EnergyModel
from repro.harness import (
    FaultPolicy,
    GridFailure,
    InjectedFault,
    ResultCache,
    RunOutcome,
    SuiteRunner,
    injected_faults,
)
from repro.harness.cache import CACHE_SCHEMA_VERSION
from repro.harness.faults import (
    FaultSpec,
    bitflip_file,
    drop_wakes,
    encode_plan,
    freeze_admission,
    maybe_fire,
    parse_plan,
    truncate_file,
)
from repro.harness.parallel import RunRequest, WorkerPool, \
    run_requests_resilient
from repro.obs.metrics import MetricsRegistry
from repro.regless import ReglessStorage
from repro.sim import (
    GPUConfig,
    SimulationHang,
    Watchdog,
    WatchdogConfig,
    run_simulation,
)
from repro.workloads import make_workload

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "simstats_bfs_nw.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def assert_matches_golden(stats, want) -> None:
    assert stats.finished
    assert stats.cycles == want["cycles"]
    assert stats.instructions == want["instructions"]
    assert stats.counters == want["counters"]
    assert stats.stalls == want["stalls"]


# -- fault-plan plumbing ------------------------------------------------------


class TestFaultPlan:
    def test_encode_parse_roundtrip(self):
        specs = [
            FaultSpec("kill", "bfs/regless", count=2),
            FaultSpec("hang", "*", count=1, delay=30.0),
            FaultSpec("raise", "nw/baseline"),
        ]
        assert parse_plan(encode_plan(specs)) == specs

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("explode")

    def test_claims_fire_exactly_count_times(self, tmp_path):
        spec = FaultSpec("raise", "*", count=2)
        with injected_faults([spec], str(tmp_path / "claims")):
            with pytest.raises(InjectedFault):
                maybe_fire("a/b")
            with pytest.raises(InjectedFault):
                maybe_fire("a/b")
            maybe_fire("a/b")  # budget exhausted: silent

    def test_target_matching(self, tmp_path):
        spec = FaultSpec("raise", "bfs/regless", count=10)
        with injected_faults([spec], str(tmp_path / "claims")):
            maybe_fire("nw/baseline")  # no match, no fire
            with pytest.raises(InjectedFault):
                maybe_fire("bfs/regless")

    def test_backoff_deterministic_and_bounded(self):
        policy = FaultPolicy(backoff=0.25, backoff_cap=4.0)
        assert policy.delay("bfs/regless", 1) == policy.delay("bfs/regless", 1)
        for attempt in range(1, 10):
            assert 0.0 < policy.delay("k", attempt) <= 4.0 * 1.25
        # jitter de-synchronizes different requests at the same attempt
        delays = {policy.delay(f"req{i}", 3) for i in range(8)}
        assert len(delays) > 1


# -- worker death -------------------------------------------------------------


class TestWorkerDeath:
    def test_kill_recovered_bit_identical(self, tmp_path, golden):
        specs = [FaultSpec("kill", "bfs/regless", count=1)]
        with injected_faults(specs, str(tmp_path / "claims")):
            runner = SuiteRunner(
                cache=False,
                policy=FaultPolicy(retries=3, backoff=0.05),
            )
            outcomes = runner.run_grid_outcomes(
                [("bfs", "regless"), ("bfs", "baseline")], jobs=2
            )
        assert [o.status for o in outcomes] == [RunOutcome.OK, RunOutcome.OK]
        assert sum(o.retried for o in outcomes) >= 1
        assert_matches_golden(outcomes[0].result.stats, golden["bfs/regless"])
        assert_matches_golden(outcomes[1].result.stats, golden["bfs/baseline"])

    def test_poison_request_quarantined_with_partial_results(self, tmp_path):
        specs = [FaultSpec("raise", "bfs/regless", count=1000)]
        with injected_faults(specs, str(tmp_path / "claims")):
            runner = SuiteRunner(
                cache=False,
                policy=FaultPolicy(retries=6, quarantine_after=2,
                                   backoff=0.01),
            )
            outcomes = runner.run_grid_outcomes(
                [("bfs", "regless"), ("bfs", "baseline")], jobs=2
            )
        poisoned, healthy = outcomes
        assert poisoned.status == RunOutcome.QUARANTINED
        assert poisoned.attempts == 2  # stopped early, budget remained
        assert "InjectedFault" in poisoned.error
        assert healthy.status == RunOutcome.OK
        # the healthy result survived into the memo
        assert runner.run("bfs", "baseline") is healthy.result

    def test_exhausted_retries_surface_as_grid_failure(self, tmp_path):
        specs = [FaultSpec("raise", "bfs/regless", count=1000)]
        with injected_faults(specs, str(tmp_path / "claims")):
            runner = SuiteRunner(
                cache=False,
                policy=FaultPolicy(retries=1, quarantine_after=5,
                                   backoff=0.01),
            )
            with pytest.raises(GridFailure) as ei:
                runner.run_grid([("bfs", "regless"), ("bfs", "baseline")],
                                jobs=2)
        failure = ei.value
        assert [o.status for o in failure.outcomes] == [
            RunOutcome.CRASHED, RunOutcome.OK
        ]
        assert "bfs/regless=crashed" in str(failure)
        # partial results installed despite the failure
        assert failure.outcomes[1].result is runner.run("bfs", "baseline")


# -- one worker: the same retry loop, in-process -----------------------------


SMALL = GPUConfig(warps_per_sm=8, schedulers_per_sm=2, cta_size_warps=4)
FLAKY = RunRequest.make("bfs", "baseline")
CLEAN = RunRequest.make("nw", "baseline")


def flaky_execute(monkeypatch, failures: int, error=None):
    """Make ``SuiteRunner.execute`` raise on FLAKY's first ``failures``
    calls (``error()`` if given, else a RuntimeError), then run it for
    real.  Returns the keys of every call, in order."""
    real = SuiteRunner.execute
    calls = []

    def execute(self, request):
        calls.append(request.key)
        if request == FLAKY and calls.count(FLAKY.key) <= failures:
            raise error() if error else RuntimeError("transient glitch")
        return real(self, request)

    monkeypatch.setattr(SuiteRunner, "execute", execute)
    return calls


def one_worker_runner(**policy) -> SuiteRunner:
    return SuiteRunner(config=SMALL, cache=False,
                       policy=FaultPolicy(backoff=0.01, **policy))


class TestOneWorkerRetries:
    """``jobs=1`` grids run in this process through the pool's retry loop:
    same retries, backoff, quarantine, outcomes and metrics (no per-run
    timeout, and no REPRO_FAULTS, which fire only in pool workers)."""

    def test_transient_crashes_recover(self, monkeypatch):
        flaky_execute(monkeypatch, failures=2)
        runner = one_worker_runner(retries=2)
        (outcome,) = runner.run_grid_outcomes([FLAKY], jobs=1)
        assert outcome.status == RunOutcome.OK
        assert outcome.attempts == 3 and outcome.retried == 2
        assert outcome.result.stats.finished
        # a recovered outcome keeps its last error text, as pool ones do
        assert outcome.error == "RuntimeError: transient glitch"
        assert runner.metrics.get("harness.grid.failure_crashed") == 2
        assert runner.metrics.get("harness.grid.retries") == 2
        assert runner.metrics.get("harness.grid.ok") == 1
        assert runner.run("bfs", "baseline") is outcome.result

    def test_exhausted_retries_crash(self, monkeypatch):
        flaky_execute(monkeypatch, failures=1000)
        runner = one_worker_runner(retries=1, quarantine_after=5)
        (outcome,) = runner.run_grid_outcomes([FLAKY], jobs=1)
        assert outcome.status == RunOutcome.CRASHED
        assert outcome.attempts == 2 and outcome.result is None
        assert outcome.error == "RuntimeError: transient glitch"
        assert runner.metrics.get("harness.grid.crashed") == 1

    def test_poison_run_quarantined(self, monkeypatch):
        flaky_execute(monkeypatch, failures=1000)
        runner = one_worker_runner(retries=6, quarantine_after=2)
        (outcome,) = runner.run_grid_outcomes([FLAKY], jobs=1)
        assert outcome.status == RunOutcome.QUARANTINED
        assert outcome.attempts == 2  # stopped early, budget remained
        assert runner.metrics.get("harness.grid.quarantined") == 1

    def test_watchdog_hang_surfaces_with_diagnostics(self, monkeypatch):
        diagnostics = {"dominant": {"sm": 0, "shard": 1,
                                    "stall": "cm_inactive"}}
        flaky_execute(monkeypatch, failures=1000, error=lambda: SimulationHang(
            "no_progress", cycle=4096, diagnostics=diagnostics))
        runner = one_worker_runner(retries=1)
        (outcome,) = runner.run_grid_outcomes([FLAKY], jobs=1)
        assert outcome.status == RunOutcome.HUNG
        assert outcome.attempts == 2
        assert outcome.diagnostics == diagnostics
        assert "simulation hang (no_progress) at cycle 4096" in outcome.error
        assert runner.metrics.get("harness.grid.failure_hung") == 2
        assert runner.metrics.get("harness.grid.hung") == 1

    def test_backoff_does_not_block_the_next_request(self, monkeypatch):
        calls = flaky_execute(monkeypatch, failures=1)
        runner = one_worker_runner(retries=2)
        seen = []
        outcomes = runner.run_grid_outcomes(
            [FLAKY, CLEAN], jobs=1,
            on_outcome=lambda index, outcome: seen.append(index),
        )
        assert all(o.ok for o in outcomes)
        # CLEAN runs while FLAKY waits out its backoff
        assert calls == [FLAKY.key, CLEAN.key, FLAKY.key]
        assert seen == [1, 0]


# -- run hangs ----------------------------------------------------------------


class TestHangs:
    def test_hang_detected_killed_and_retried(self, tmp_path, golden):
        specs = [FaultSpec("hang", "nw/baseline", count=1, delay=60.0)]
        registry = MetricsRegistry()
        pool = WorkerPool(GPUConfig(), EnergyModel().params, jobs=1)
        with injected_faults(specs, str(tmp_path / "claims")):
            try:
                outcomes = run_requests_resilient(
                    pool,
                    [RunRequest.make("nw", "baseline")],
                    policy=FaultPolicy(timeout=5.0, retries=2, backoff=0.05),
                    metrics=registry.scope("harness"),
                )
            finally:
                pool.close()
        (outcome,) = outcomes
        assert outcome.status == RunOutcome.OK
        assert outcome.attempts == 2
        assert registry.get("harness.grid.failure_hung") == 1
        assert registry.get("harness.grid.pool_rebuilds") >= 1
        assert_matches_golden(outcome.result.stats, golden["nw/baseline"])


# -- wedged backends (watchdog payload) --------------------------------------


WEDGE_CFG = GPUConfig(warps_per_sm=8, schedulers_per_sm=2,
                      cta_size_warps=4, max_cycles=100_000)


class TestWedgedBackends:
    def _compiled_bfs(self):
        workload = make_workload("bfs")
        return workload, compile_kernel(workload.kernel())

    def test_frozen_admission_trips_with_shard_and_bin_named(self):
        workload, ck = self._compiled_bfs()
        factory = freeze_admission(lambda sm, sh: ReglessStorage(ck))
        watchdog = Watchdog(
            WatchdogConfig(no_progress_cycles=20_000, check_interval=512)
        )
        with pytest.raises(SimulationHang) as ei:
            run_simulation(WEDGE_CFG, ck, workload, factory,
                           watchdog=watchdog)
        exc = ei.value
        assert exc.reason == "no_progress"
        assert watchdog.trips == 1
        diag = exc.diagnostics
        # the payload names the offending shard and stall bin
        assert diag["dominant"]["stall"] == "cm_inactive"
        assert "cm_inactive" in str(exc)
        assert f"sm{diag['dominant']['sm']}.shard" in str(exc)
        # CM admission state — including the blocked-candidate memo — rides
        # along for post-mortems
        wedged = [s for s in diag["shards"] if s.get("cm") is not None]
        assert wedged
        assert all("memo_blocked" in s["cm"] for s in wedged)
        assert any(s["parked"] for s in diag["shards"])
        assert diag["warps_done"] == 0

    def test_dropped_wakes_surface_as_structured_hang(self):
        workload, ck = self._compiled_bfs()
        factory = drop_wakes(lambda sm, sh: ReglessStorage(ck))
        watchdog = Watchdog(
            WatchdogConfig(no_progress_cycles=20_000, check_interval=512)
        )
        with pytest.raises(SimulationHang) as ei:
            run_simulation(WEDGE_CFG, ck, workload, factory,
                           watchdog=watchdog)
        exc = ei.value
        assert exc.reason in ("wheel_empty", "no_progress")
        assert exc.diagnostics["shards"]
        # starved warps are visible in the parked sets
        assert any(s["parked"] for s in exc.diagnostics["shards"])


# -- CLI policy surface -------------------------------------------------------


class TestCLIResilience:
    def test_seeds_verb(self, monkeypatch, capsys):
        from repro.harness import cli

        monkeypatch.setattr(cli, "seed_robustness", lambda **kw: {"stub": 1})
        monkeypatch.setattr(cli, "render_robustness",
                            lambda stats: "SEEDS-OK")
        assert cli.main(["seeds"]) == 0
        captured = capsys.readouterr()
        assert "SEEDS-OK" in captured.out
        assert "deprecated" not in captured.err

    @pytest.mark.parametrize("flags", [
        ["--timeout", "0"], ["--timeout", "-1"], ["--retries", "-1"],
        ["--deadline", "0"], ["--deadline", "-5"], ["--deadline", "nan"],
    ])
    def test_contradictory_flags_rejected(self, flags, capsys):
        from repro.harness import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["stalls", "bfs", *flags])
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_timeout_and_retries_reach_the_runner(self, monkeypatch):
        from repro.harness import cli

        seen = []
        monkeypatch.setattr(
            cli, "_dispatch_runner",
            lambda args, runner, names: seen.append(runner) or 0,
        )
        assert cli.main(["stalls", "bfs", "--timeout", "300",
                         "--retries", "2", "--no-cache"]) == 0
        (runner,) = seen
        assert runner.policy == FaultPolicy(timeout=300.0, retries=2)
        assert runner.watchdog == WatchdogConfig(max_wall_seconds=300.0)

    def test_no_flags_keep_the_default_retry_budget(self, monkeypatch):
        from repro.harness import cli

        seen = []
        monkeypatch.setattr(
            cli, "_dispatch_runner",
            lambda args, runner, names: seen.append(runner) or 0,
        )
        assert cli.main(["stalls", "bfs", "--no-cache"]) == 0
        (runner,) = seen
        assert runner.policy == FaultPolicy(timeout=None, retries=2)
        assert runner.watchdog is None

    def test_unrecoverable_sweep_exits_nonzero(self, tmp_path, capsys):
        from repro.harness import cli

        specs = [FaultSpec("raise", "bfs/baseline", count=1000)]
        with injected_faults(specs, str(tmp_path / "claims")):
            code = cli.main([
                "stalls", "bfs", "nw", "--backend", "baseline",
                "--retries", "0", "--jobs", "2", "--no-cache",
            ])
        assert code == 3
        err = capsys.readouterr().err
        assert "bfs/baseline" in err
        assert "crashed" in err


# -- cache corruption ---------------------------------------------------------


class TestCacheCorruption:
    DIGEST = "ab" * 32

    def _seeded(self, tmp_path, payload={"answer": 42}):
        cache = ResultCache(root=str(tmp_path))
        cache.put(self.DIGEST, payload)
        return cache, cache._path(self.DIGEST)

    def test_truncated_entry_is_miss_and_evicted(self, tmp_path):
        cache, path = self._seeded(tmp_path)
        truncate_file(path, keep=8)
        assert cache.get(self.DIGEST) is None
        assert cache.corrupt_evictions == 1
        assert not os.path.exists(path)

    def test_bitflipped_payload_is_miss_and_evicted(self, tmp_path):
        cache, path = self._seeded(tmp_path)
        bitflip_file(path, offset=-3)
        assert cache.get(self.DIGEST) is None
        assert cache.corrupt_evictions == 1
        assert not os.path.exists(path)

    def test_version_mismatch_is_miss_and_evicted(self, tmp_path):
        cache, path = self._seeded(tmp_path)
        with open(path, "r+b") as fh:
            data = bytearray(fh.read())
            data[4:6] = (CACHE_SCHEMA_VERSION + 1).to_bytes(2, "big")
            fh.seek(0)
            fh.write(data)
        assert cache.get(self.DIGEST) is None
        assert cache.corrupt_evictions == 1
        assert not os.path.exists(path)

    def test_legacy_unframed_pickle_is_miss_and_evicted(self, tmp_path):
        import pickle

        cache = ResultCache(root=str(tmp_path))
        path = cache._path(self.DIGEST)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            pickle.dump({"old": "format"}, fh)
        assert cache.get(self.DIGEST) is None
        assert cache.corrupt_evictions == 1

    def test_eviction_metric_emitted(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(root=str(tmp_path),
                            metrics=registry.scope("harness.cache"))
        cache.put(self.DIGEST, {"v": 1})
        truncate_file(cache._path(self.DIGEST))
        assert cache.get(self.DIGEST) is None
        assert registry.get("harness.cache.corrupt_evictions") == 1

    def test_concurrent_writers_last_wins_readable(self, tmp_path):
        a = ResultCache(root=str(tmp_path))
        b = ResultCache(root=str(tmp_path))
        a.put(self.DIGEST, {"writer": "a"})
        b.put(self.DIGEST, {"writer": "b"})
        assert a.get(self.DIGEST) == {"writer": "b"}

    def test_end_to_end_recovery_bit_identical(self, tmp_path, golden):
        runner = SuiteRunner(cache=ResultCache(root=str(tmp_path)))
        first = runner.run("bfs", "baseline")
        assert_matches_golden(first.stats, golden["bfs/baseline"])
        entries = list(Path(tmp_path).rglob("*.pkl"))
        assert len(entries) == 1
        bitflip_file(str(entries[0]))
        # A fresh runner re-simulates through the corruption and heals the
        # store.
        runner2 = SuiteRunner(cache=ResultCache(root=str(tmp_path)))
        second = runner2.run("bfs", "baseline")
        assert runner2.cache.corrupt_evictions == 1
        assert second.stats.cycles == first.stats.cycles
        assert second.stats.counters == first.stats.counters
        runner3 = SuiteRunner(cache=ResultCache(root=str(tmp_path)))
        third = runner3.run("bfs", "baseline")
        assert runner3.cache.hits == 1
        assert third.stats.counters == first.stats.counters

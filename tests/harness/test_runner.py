import dataclasses
import time

import pytest

from repro.harness import ResultCache, RunRequest, SuiteRunner
from repro.sim import GPUConfig, SimStats

SMALL = dict(warps_per_sm=8, schedulers_per_sm=2, cta_size_warps=4)


@pytest.fixture(scope="module")
def runner():
    # Small configuration keeps the whole module fast.
    return SuiteRunner(config=GPUConfig(**SMALL))


class TestMemoization:
    def test_same_key_returns_same_object(self, runner):
        a = runner.run("bfs", "baseline")
        b = runner.run("bfs", "baseline")
        assert a is b

    def test_different_backend_differs(self, runner):
        a = runner.run("bfs", "baseline")
        b = runner.run("bfs", "regless")
        assert a is not b

    def test_overrides_are_part_of_key(self, runner):
        a = runner.run("bfs", "baseline")
        b = runner.run("bfs", "baseline", scheduler="two_level")
        assert a is not b

    def test_compiled_kernel_shared(self, runner):
        assert runner.compiled("bfs") is runner.compiled("bfs")


class TestBackends:
    @pytest.mark.parametrize("backend", ["baseline", "rfh", "rfv", "regless",
                                          "regless-nc"])
    def test_all_backends_run(self, runner, backend):
        result = runner.run("streamcluster", backend)
        assert result.stats.finished
        assert result.cycles > 0
        assert result.gpu_energy > 0

    def test_unknown_backend_rejected(self, runner):
        with pytest.raises(ValueError):
            runner.run("bfs", "magic")

    @pytest.mark.parametrize("cached", [False, True])
    def test_unknown_benchmark_rejected_before_dispatch(self, tmp_path,
                                                        cached):
        # Dispatched, it would fail every attempt and wait out the retry
        # backoff; with a store, the key would be a KeyError instead.
        runner = SuiteRunner(
            cache=ResultCache(root=str(tmp_path)) if cached else False)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="unknown benchmark 'nope'"):
            runner.run_grid([("nope", "baseline")], jobs=1)
        with pytest.raises(ValueError, match="unknown benchmark 'nope'"):
            runner.run("nope", "baseline")
        assert time.perf_counter() - t0 < 0.5

    def test_rfh_and_rfv_use_two_level(self, runner):
        assert runner.config_for("rfh").scheduler == "two_level"
        assert runner.config_for("rfv").scheduler == "two_level"
        assert runner.config_for("baseline").scheduler == "gto"

    def test_osu_capacity_passed_through(self, runner):
        small = runner.run("streamcluster", "regless", osu_entries=128)
        big = runner.run("streamcluster", "regless", osu_entries=512)
        assert small.osu_entries == 128
        assert big.osu_entries == 512


class TestEnergyAccounting:
    def test_no_rf_bound_below_baseline(self, runner):
        base = runner.run("bfs", "baseline")
        assert runner.no_rf_energy("bfs") < base.gpu_energy

    def test_regless_rf_energy_below_baseline(self, runner):
        base = runner.run("bfs", "baseline")
        rl = runner.run("bfs", "regless")
        assert rl.rf_energy < base.rf_energy

    def test_static_energy_is_charged_for_every_sm(self, runner):
        per_cycle = runner.energy_model.params.static_other_per_cycle
        one = runner.run("bfs", "baseline")
        two = runner.run("bfs", "baseline", n_sms=2)
        assert one.energy.static == per_cycle * one.stats.cycles
        assert two.energy.static == per_cycle * two.stats.cycles * 2


class TestUnreadCapacity:
    """Only the RegLess backends read the OSU capacity, so the runner
    keys every other backend's runs at the default one."""

    @staticmethod
    def fresh_run(backend, osu_entries):
        with SuiteRunner(cache=False, config=GPUConfig(**SMALL)) as runner:
            return runner.run("nw", backend, osu_entries=osu_entries)

    @pytest.mark.parametrize("backend", ["baseline", "rfh", "rfv"])
    def test_non_osu_backends_ignore_the_capacity(self, backend):
        # The premise of the key: if a backend without an OSU starts
        # reading the capacity, the runner would serve it a wrong result.
        default = self.fresh_run(backend, 512)
        big = self.fresh_run(backend, 1024)
        for f in dataclasses.fields(SimStats):
            assert getattr(big.stats, f.name) == \
                getattr(default.stats, f.name), f.name
        assert big.energy == default.energy

    def test_regless_reads_the_capacity(self):
        assert self.fresh_run("regless", 1024).energy != \
            self.fresh_run("regless", 512).energy

    def test_store_serves_an_unread_capacity(self, tmp_path, monkeypatch):
        store = str(tmp_path / "cache")
        with SuiteRunner(cache=ResultCache(store),
                         config=GPUConfig(**SMALL)) as filler:
            filler.run("bfs", "baseline", osu_entries=512)

        def no_execute(self, request):
            raise AssertionError(f"executed {request}")

        monkeypatch.setattr(SuiteRunner, "execute", no_execute)
        runner = SuiteRunner(cache=ResultCache(store),
                             config=GPUConfig(**SMALL))
        served = runner.run("bfs", "baseline", osu_entries=1024)
        assert served.osu_entries == 1024
        assert runner.cache.hits == 1
        with pytest.raises(AssertionError, match="executed"):
            runner.run("bfs", "regless", osu_entries=1024)

    def test_grid_runs_an_unread_capacity_once(self):
        requests = [RunRequest.make("bfs", "baseline", 512),
                    RunRequest.make("bfs", "baseline", 1024),
                    RunRequest.make("bfs", "baseline", 512)]
        with SuiteRunner(cache=False, config=GPUConfig(**SMALL)) as runner:
            outcomes = runner.run_grid_outcomes(requests, jobs=2)
            assert runner.metrics.as_dict()["harness.grid.ok"] == 1
        for request, outcome in zip(requests, outcomes):
            assert outcome.ok
            assert outcome.request == request
            assert outcome.result.osu_entries == request.osu_entries
        assert outcomes[2].result is outcomes[0].result
        assert outcomes[1].result.stats is outcomes[0].result.stats

import time

import pytest

from repro.harness import ResultCache, SuiteRunner
from repro.sim import GPUConfig


@pytest.fixture(scope="module")
def runner():
    # Small configuration keeps the whole module fast.
    return SuiteRunner(config=GPUConfig(warps_per_sm=8, schedulers_per_sm=2,
                                        cta_size_warps=4))


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

"""Cross-cutting integration invariants over the full pipeline.

These run three structurally different benchmarks end-to-end under every
backend and check the conservation laws that tie the subsystems together.
"""

import pytest

from repro.compiler import compile_kernel
from repro.harness import SuiteRunner
from repro.regless import ReglessStorage
from repro.sim import GPUConfig, run_simulation
from repro.workloads import make_workload

NAMES = ["bfs", "hotspot", "streamcluster"]
BACKENDS = ["baseline", "rfh", "rfv", "regless"]


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner(config=GPUConfig(warps_per_sm=16, schedulers_per_sm=2,
                                        cta_size_warps=8))


@pytest.mark.parametrize("name", NAMES)
class TestConservation:
    def test_instruction_counts_identical_across_backends(self, runner, name):
        counts = {
            b: runner.run(name, b).stats.instructions for b in BACKENDS
        }
        assert len(set(counts.values())) == 1, counts

    def test_warps_all_finish_everywhere(self, runner, name):
        for b in BACKENDS:
            stats = runner.run(name, b).stats
            assert stats.finished, (name, b)
            assert stats.warps_done == stats.warps_total

    def test_operand_access_conservation(self, runner, name):
        """Total operand reads/writes are a property of the program, not of
        the storage backend."""
        base = runner.run(name, "baseline").stats
        rl = runner.run(name, "regless").stats
        rfv = runner.run(name, "rfv").stats
        assert base.counter("rf_read") == rl.counter("osu_read")
        assert base.counter("rf_read") == rfv.counter("rfv_read")
        assert base.counter("rf_write") == rl.counter("osu_write")

    def test_regless_contract_no_staging_misses(self, runner, name):
        rl = runner.run(name, "regless").stats
        assert rl.counter("osu_read_miss") == 0
        assert rl.counter("region_activations") == rl.counter(
            "region_executions"
        )

    def test_preload_partition(self, runner, name):
        rl = runner.run(name, "regless").stats
        sources = sum(
            rl.counter(f"preload_src_{s}")
            for s in ("osu", "compressor", "const", "l1", "l2dram")
        )
        assert sources == rl.counter("preloads")

    def test_static_preload_counts_bound_dynamic(self, runner, name):
        """Dynamic preloads = sum over executed regions of their static
        preload count; each activation preloads exactly its annotation."""
        rl = runner.run(name, "regless")
        ck = runner.compiled(name)
        max_static = max((a.n_preloads for a in ck.annotations), default=0)
        executions = rl.stats.counter("region_executions")
        assert rl.stats.counter("preloads") <= max_static * executions


class TestEnergyInvariants:
    def test_rf_energy_ordering(self, runner):
        for name in NAMES:
            base = runner.run(name, "baseline")
            rl = runner.run(name, "regless")
            assert rl.rf_energy < base.rf_energy

    def test_gpu_energy_above_no_rf_bound(self, runner):
        for name in NAMES:
            bound = runner.no_rf_energy(name)
            for b in BACKENDS:
                assert runner.run(name, b).gpu_energy >= bound * 0.999


class TestDeterminismAcrossProcess:
    def test_fresh_runner_reproduces(self):
        cfg = GPUConfig(warps_per_sm=16, schedulers_per_sm=2, cta_size_warps=8)
        a = SuiteRunner(config=cfg).run("bfs", "regless")
        b = SuiteRunner(config=cfg).run("bfs", "regless")
        assert a.cycles == b.cycles
        assert a.stats.counters == b.stats.counters


class TestFullMachineScale:
    def test_gtx980_config_runs(self):
        """The full 16-SM machine on one small benchmark."""
        cfg = GPUConfig.gtx980().with_(max_cycles=200_000)
        wl = make_workload("streamcluster")
        ck = compile_kernel(wl.kernel())
        stats = run_simulation(cfg, ck, wl,
                               lambda sm, sh: ReglessStorage(ck))
        assert stats.finished
        assert stats.warps_total == 16 * 64
        assert stats.counter("osu_read_miss") == 0

"""Capacity-manager state machine, exercised through a full RegLess run.

The CM cannot be meaningfully driven without the OSU/shard around it, so
these tests run small kernels end-to-end and assert on the visible state
transitions and counters.
"""

from repro.compiler import compile_kernel
from repro.regless import ReglessConfig, ReglessStorage, WarpState
from repro.sim import run_simulation
from repro.sim.gpu import GPU


def run_regless(workload, config, rcfg=None, **kwargs):
    ck = compile_kernel(workload.kernel())
    return run_simulation(
        config, ck, workload,
        lambda sm, sh: ReglessStorage(ck, rcfg or ReglessConfig()),
        **kwargs,
    )


class TestLifecycle:
    def test_all_warps_complete(self, loop_workload, fast_config):
        stats = run_regless(loop_workload, fast_config)
        assert stats.finished

    def test_every_region_execution_activates_once(self, loop_workload, fast_config):
        stats = run_regless(loop_workload, fast_config)
        assert stats.counter("region_activations") == stats.counter(
            "region_executions"
        )

    def test_no_osu_read_misses(self, loop_workload, fast_config):
        """The contract: a warp only issues when its region is staged."""
        stats = run_regless(loop_workload, fast_config)
        assert stats.counter("osu_read_miss") == 0

    def test_final_state_machine_all_finished(self, loop_workload, fast_config):
        ck = compile_kernel(loop_workload.kernel())
        gpu = GPU(fast_config, ck, loop_workload,
                  lambda sm, sh: ReglessStorage(ck))
        gpu.run()
        for shard in gpu.sms[0].shards:
            cm = shard.storage.cm
            for wid, ctx in cm.ctx.items():
                assert ctx.state is WarpState.FINISHED
            assert all(v == 0 for v in cm.reserved)

    def test_divergent_kernel_completes(self, diamond_workload, fast_config):
        stats = run_regless(diamond_workload, fast_config)
        assert stats.finished
        assert stats.counter("osu_read_miss") == 0


class TestCapacityPressure:
    def test_tiny_osu_still_completes(self, loop_workload, fast_config):
        rcfg = ReglessConfig(osu_entries_per_sm=64)
        stats = run_regless(loop_workload, fast_config, rcfg)
        assert stats.finished

    def test_tiny_osu_spills_to_l1(self, loop_workload, fast_config):
        rcfg = ReglessConfig(osu_entries_per_sm=32)
        small = run_regless(loop_workload, fast_config, rcfg)
        big = run_regless(loop_workload, fast_config,
                          ReglessConfig(osu_entries_per_sm=512))
        assert small.counter("l1_access") >= big.counter("l1_access")

    def test_larger_osu_not_slower(self, loop_workload, fast_config):
        small = run_regless(
            loop_workload, fast_config,
            ReglessConfig(osu_entries_per_sm=64))
        big = run_regless(
            loop_workload, fast_config,
            ReglessConfig(osu_entries_per_sm=1024))
        assert big.cycles <= small.cycles * 1.1


class TestAblations:
    def test_fifo_activation_still_completes(self, loop_workload, fast_config):
        rcfg = ReglessConfig(warp_stack_lifo=False)
        stats = run_regless(loop_workload, fast_config, rcfg)
        assert stats.finished

    def test_random_eviction_still_completes(self, loop_workload, fast_config):
        rcfg = ReglessConfig(ordered_eviction=False)
        stats = run_regless(loop_workload, fast_config, rcfg)
        assert stats.finished

    def test_no_compressor_still_completes(self, loop_workload, fast_config):
        rcfg = ReglessConfig(compressor_enabled=False)
        stats = run_regless(loop_workload, fast_config, rcfg)
        assert stats.finished
        assert stats.counter("compressor_store") == 0


class TestMetadata:
    def test_metadata_charged_once_per_activation(self, loop_workload, fast_config):
        ck = compile_kernel(loop_workload.kernel())
        stats = run_regless(loop_workload, fast_config)
        # Total metadata <= activations * max(per-region metadata).
        per_region_max = max(a.n_metadata_insns for a in ck.annotations)
        assert stats.counter("metadata_issue") <= (
            stats.counter("region_activations") * per_region_max
        )
        assert stats.counter("metadata_issue") >= stats.counter(
            "region_activations"
        )


class TestDrainSemantics:
    def test_region_cycles_accumulated(self, loop_workload, fast_config):
        stats = run_regless(loop_workload, fast_config)
        assert stats.counter("region_cycles_total") > 0
        mean = stats.counter("region_cycles_total") / stats.counter(
            "region_executions"
        )
        assert 1 <= mean < stats.cycles

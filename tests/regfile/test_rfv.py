from repro.compiler import compile_kernel
from repro.regfile import BaselineRF, RFVStorage
from repro.sim import run_simulation


class TestRenaming:
    def test_completes_with_ample_capacity(self, loop_workload, fast_config):
        ck = compile_kernel(loop_workload.kernel())
        stats = run_simulation(fast_config, ck, loop_workload,
                               lambda sm, sh: RFVStorage(ck))
        assert stats.finished
        assert stats.counter("rfv_read") > 0
        assert stats.counter("rfv_write") > 0

    def test_access_counts_match_baseline(self, loop_workload, fast_config):
        ck = compile_kernel(loop_workload.kernel())
        base = run_simulation(fast_config, ck, loop_workload,
                              lambda sm, sh: BaselineRF())
        rfv = run_simulation(fast_config, ck, loop_workload,
                             lambda sm, sh: RFVStorage(ck))
        assert rfv.counter("rfv_read") == base.counter("rf_read")
        assert rfv.counter("rfv_write") == base.counter("rf_write")


class TestPressure:
    def test_scarce_physical_registers_stall(self, loop_workload, fast_config):
        # Per-SM sizes; the fixture's 2 shards get 16 and 256 each.
        ck = compile_kernel(loop_workload.kernel())
        tight = run_simulation(
            fast_config, ck, loop_workload,
            lambda sm, sh: RFVStorage(ck, entries_per_sm=32),
        )
        ample = run_simulation(
            fast_config, ck, loop_workload,
            lambda sm, sh: RFVStorage(ck, entries_per_sm=512),
        )
        assert tight.finished
        assert tight.counter("rfv_stall_cycles") > ample.counter("rfv_stall_cycles")
        assert tight.cycles >= ample.cycles

    def test_dead_registers_recycled(self, loop_workload, fast_config):
        # Capacity far below (warps x total regs) but enough for live values:
        # the run still completes because deaths free physical registers.
        ck = compile_kernel(loop_workload.kernel())
        n_live = ck.liveness.max_live()
        per_shard = n_live * fast_config.warps_per_scheduler + 4
        stats = run_simulation(
            fast_config, ck, loop_workload,
            lambda sm, sh: RFVStorage(
                ck, entries_per_sm=per_shard * fast_config.schedulers_per_sm
            ),
        )
        assert stats.finished


class TestExitCleanup:
    def test_warp_exit_frees_mappings(self, loop_workload, fast_config):
        from repro.sim.gpu import GPU

        ck = compile_kernel(loop_workload.kernel())
        storages = []

        def factory(sm, sh):
            s = RFVStorage(ck)
            storages.append(s)
            return s

        gpu = GPU(fast_config, ck, loop_workload, factory)
        gpu.run()
        assert all(s.allocated == 0 for s in storages)

"""Watchdog + invariant sanitizer: trips, diagnostics, zero-cost cleanness."""

import pickle

import pytest

from repro.compiler import compile_kernel
from repro.isa import KernelBuilder
from repro.regfile import BaselineRF
from repro.sim import (
    GPUConfig,
    SimDeadlock,
    SimulationHang,
    Watchdog,
    WatchdogConfig,
    check_invariants,
    run_simulation,
)
from repro.sim.gpu import DEFAULT_MAX_CYCLES, GPU
from repro.workloads import Workload


def run(workload, config, **kwargs):
    ck = compile_kernel(workload.kernel())
    return run_simulation(config, ck, workload,
                          lambda sm, sh: BaselineRF(), **kwargs)


def make_spin_workload():
    """An infinite loop: issues forever, never finishes."""
    def build():
        b = KernelBuilder("spin")
        b.block("entry")
        t = b.fresh()
        b.mov(t, 0)
        b.block("loop")
        b.iadd(t, t, 1)
        b.bra("loop")
        return b.build()

    return Workload(name="spin", build=build, regalloc=False)


SPIN_CFG = GPUConfig(warps_per_sm=4, schedulers_per_sm=2, cta_size_warps=2,
                     max_cycles=50_000)


class TestTrips:
    def test_watchdog_cycle_ceiling_raises(self):
        wd = Watchdog(WatchdogConfig(max_cycles=3000, check_interval=64))
        with pytest.raises(SimulationHang) as ei:
            run(make_spin_workload(), SPIN_CFG, watchdog=wd)
        exc = ei.value
        assert exc.reason == "cycle_ceiling"
        assert exc.cycle >= 3000
        assert wd.trips == 1
        assert exc.diagnostics["warps_done"] == 0
        assert exc.diagnostics["shards"]

    def test_wall_clock_trip_with_injected_clock(self):
        ticks = {"now": 0.0}

        def clock():
            ticks["now"] += 10.0
            return ticks["now"]

        wd = Watchdog(
            WatchdogConfig(max_wall_seconds=5.0, check_interval=8),
            clock=clock,
        )
        with pytest.raises(SimulationHang) as ei:
            run(make_spin_workload(), SPIN_CFG, watchdog=wd)
        assert ei.value.reason == "wall_clock"
        assert ei.value.wall_seconds >= 5.0

    def test_config_ceiling_still_returns_without_watchdog(self):
        stats = run(make_spin_workload(), SPIN_CFG.with_(max_cycles=2000))
        assert not stats.finished
        assert stats.cycles >= 2000
        assert stats.counter("cycle_ceiling") == 1

    def test_zero_config_ceiling_falls_back_to_default(self, loop_workload):
        # A config with no ceiling must still be bounded (and a finite
        # workload still finishes normally under the fallback).
        assert DEFAULT_MAX_CYCLES > 0
        cfg = GPUConfig(warps_per_sm=8, schedulers_per_sm=2,
                        cta_size_warps=4, max_cycles=0)
        stats = run(loop_workload, cfg)
        assert stats.finished
        assert stats.counter("cycle_ceiling") == 0


class TestCleanRuns:
    def test_invariant_watchdog_is_bit_identical(self, loop_workload,
                                                 fast_config):
        plain = run(loop_workload, fast_config)
        wd = Watchdog(WatchdogConfig(invariants=True, check_interval=32))
        guarded = run(loop_workload, fast_config, watchdog=wd)
        assert wd.polls > 0
        assert wd.trips == 0
        assert guarded.cycles == plain.cycles
        assert guarded.instructions == plain.instructions
        assert guarded.counters == plain.counters
        assert guarded.stalls == plain.stalls

    def test_finished_run_has_no_ceiling_counter(self, loop_workload,
                                                 fast_config):
        stats = run(loop_workload, fast_config)
        assert stats.finished
        assert stats.counter("cycle_ceiling") == 0


class TestInvariantSanitizer:
    def _gpu(self, loop_workload, fast_config):
        ck = compile_kernel(loop_workload.kernel())
        return GPU(fast_config, ck, loop_workload,
                   lambda sm, sh: BaselineRF())

    def test_clean_gpu_has_no_violations(self, loop_workload, fast_config):
        gpu = self._gpu(loop_workload, fast_config)
        assert check_invariants(gpu) == []

    def test_detects_ready_flag_desync(self, loop_workload, fast_config):
        gpu = self._gpu(loop_workload, fast_config)
        warp = gpu.sms[0].shards[0].warps[0]
        warp.ready = False  # flag now disagrees with the ready set
        problems = check_invariants(gpu)
        assert any("ready flag" in p for p in problems)

    def test_detects_negative_inflight(self, loop_workload, fast_config):
        gpu = self._gpu(loop_workload, fast_config)
        gpu.sms[0].shards[0].warps[0].inflight = -1
        problems = check_invariants(gpu)
        assert any("negative inflight" in p for p in problems)

    def test_poll_trips_on_violation(self, loop_workload, fast_config):
        gpu = self._gpu(loop_workload, fast_config)
        wd = Watchdog(WatchdogConfig(invariants=True))
        wd.start(gpu)
        gpu.sms[0].shards[0].warps[0].inflight = -1
        with pytest.raises(SimulationHang) as ei:
            wd.poll(gpu, 0, 0)
        assert ei.value.reason == "invariant"
        assert "negative inflight" in ei.value.detail


class TestStructuredHang:
    def test_hang_is_a_deadlock_subclass(self):
        exc = SimulationHang("no_progress")
        assert isinstance(exc, SimDeadlock)

    def test_pickle_roundtrip_preserves_fields(self):
        exc = SimulationHang(
            "no_progress", cycle=42, wall_seconds=1.5,
            diagnostics={"dominant": {"sm": 0, "shard": 1,
                                      "stall": "cm_inactive"}},
            detail="wedged",
        )
        back = pickle.loads(pickle.dumps(exc))
        assert back.reason == "no_progress"
        assert back.cycle == 42
        assert back.wall_seconds == 1.5
        assert back.diagnostics == exc.diagnostics
        assert "wedged" in str(back)
        assert isinstance(back, SimDeadlock)

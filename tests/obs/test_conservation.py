"""End-to-end stall-attribution conservation: for every backend and any
program, each shard's bins must sum to exactly ``warps x cycles``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_kernel
from repro.isa import KernelBuilder
from repro.obs.stalls import ISSUED, STALL_REASONS, check_conservation
from repro.regfile import BaselineRF, RFHStorage, RFVStorage
from repro.regless import ReglessConfig, ReglessStorage
from repro.sim import GPU, BernoulliLanes, GPUConfig, LoopExit, \
    run_simulation
from repro.workloads import Workload

FAST = GPUConfig(warps_per_sm=8, schedulers_per_sm=2, cta_size_warps=4,
                 max_cycles=60_000)

BACKENDS = ("baseline", "rfh", "rfv", "regless", "regless-nc")


def _run(backend, compiled, workload):
    """Run ``workload`` on ``backend``; returns the GPU (its shards keep
    their stall trackers) and the run's stats."""
    cfg = FAST
    if backend in ("rfh", "rfv"):
        cfg = cfg.with_(scheduler="two_level")
    factory = {
        "baseline": lambda sm, sh: BaselineRF(),
        "rfh": lambda sm, sh: RFHStorage(compiled),
        "rfv": lambda sm, sh: RFVStorage(compiled),
        "regless": lambda sm, sh: ReglessStorage(compiled),
        "regless-nc": lambda sm, sh: ReglessStorage(
            compiled, ReglessConfig(compressor_enabled=False)
        ),
    }[backend]
    gpu = GPU(cfg, compiled, workload, factory)
    return gpu, gpu.run()


def _assert_conservative(gpu, stats):
    shards = [(sm.sm_id, shard) for sm in gpu.sms for shard in sm.shards]
    assert shards
    for sm_id, shard in shards:
        report = shard.stalls.report(sm_id, shard.shard_id)
        check_conservation(report)
        assert report["cycles"] == stats.cycles
        for reason, count in report["bins"].items():
            assert count >= 0
            assert reason == ISSUED or reason in STALL_REASONS
    assert sum(stats.stalls.values()) == stats.warps_total * stats.cycles


def _mixed_workload(trips: int, p: float) -> Workload:
    """A loop with a global load and a divergent diamond in the body —
    exercises scoreboard, memory, divergence and drain paths at once."""
    def build():
        b = KernelBuilder("mixed")
        b.block("entry")
        tid, src, dst = b.reg(0), b.reg(1), b.reg(2)
        i, acc = b.fresh(2)
        b.mov(i, 0)
        b.mov(acc, 0)
        header, done = b.label(), b.label()
        b.block_named(header)
        pl = b.fresh_pred()
        b.setp(pl, i, 99, tag="trip")
        b.bra(done, pred=pl)
        b.block()
        addr, v, t = b.fresh(3)
        b.shl(addr, i, 7)
        b.iadd(addr, addr, src)
        b.ldg(v, addr)
        pd = b.fresh_pred()
        b.setp(pd, v, 0, tag="div")
        join = b.label()
        b.bra(join, pred=pd)
        b.block()
        b.iadd(acc, acc, 1)
        b.block_named(join)
        b.iadd(t, v, 1)
        b.iadd(acc, acc, t)
        b.iadd(i, i, 1)
        b.bra(header)
        b.block_named(done)
        b.stg(dst, acc)
        b.exit()
        return b.build()

    return Workload(
        name="mixed",
        build=build,
        pred_behaviors={"trip": LoopExit(trips=trips),
                        "div": BernoulliLanes(p)},
        regalloc=False,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_fixed_workloads_conserve(backend, loop_workload, diamond_workload):
    for workload in (loop_workload, diamond_workload):
        compiled = compile_kernel(workload.kernel())
        gpu, stats = _run(backend, compiled, workload)
        assert stats.finished
        _assert_conservative(gpu, stats)
        assert stats.stalls.get(ISSUED, 0) > 0


@given(
    backend=st.sampled_from(BACKENDS),
    trips=st.integers(1, 8),
    p=st.floats(0.05, 0.95),
)
@settings(max_examples=20, deadline=None)
def test_conservation_property(backend, trips, p):
    workload = _mixed_workload(trips, p)
    compiled = compile_kernel(workload.kernel())
    gpu, stats = _run(backend, compiled, workload)
    assert stats.finished
    _assert_conservative(gpu, stats)


def test_attribution_can_be_disabled(loop_workload):
    compiled = compile_kernel(loop_workload.kernel())
    cfg = FAST.with_(stall_attribution=False)
    stats = run_simulation(cfg, compiled, loop_workload,
                           lambda sm, sh: BaselineRF())
    assert stats.finished
    assert stats.stalls == {}


def test_attribution_does_not_change_timing(loop_workload):
    """The observability pass must be a pure observer."""
    compiled = compile_kernel(loop_workload.kernel())
    on = run_simulation(FAST, compiled, loop_workload,
                        lambda sm, sh: ReglessStorage(compiled))
    off = run_simulation(FAST.with_(stall_attribution=False), compiled,
                         loop_workload,
                         lambda sm, sh: ReglessStorage(compiled))
    assert on.cycles == off.cycles
    assert on.instructions == off.instructions

    rfv_on = run_simulation(FAST.with_(scheduler="two_level"), compiled,
                            loop_workload, lambda sm, sh: RFVStorage(compiled))
    rfv_off = run_simulation(
        FAST.with_(scheduler="two_level", stall_attribution=False),
        compiled, loop_workload, lambda sm, sh: RFVStorage(compiled),
    )
    assert rfv_on.cycles == rfv_off.cycles
    assert rfv_on.counters == rfv_off.counters

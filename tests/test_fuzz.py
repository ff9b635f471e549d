"""Simulator fuzzing: random structured kernels through every backend.

Hypothesis generates small kernels with loops, divergent branches, guarded
writes and loads, runs them end to end on the baseline and on RegLess, and
checks the cross-backend invariants that must hold for *any* program:
completion, instruction-count equality, staging-contract compliance, and
determinism.  This is the failure-injection net for the whole stack.
"""

from hypothesis import given, settings, strategies as st

from repro.compiler import compile_kernel
from repro.isa import KernelBuilder
from repro.regfile import BaselineRF, RFVStorage
from repro.regless import ReglessConfig, ReglessStorage
from repro.sim import (
    BernoulliLanes,
    BernoulliWarp,
    GPUConfig,
    LoopExit,
    run_simulation,
)
from repro.workloads import Workload

FAST = GPUConfig(warps_per_sm=8, schedulers_per_sm=2, cta_size_warps=4,
                 max_cycles=60_000)


@st.composite
def fuzz_workload(draw):
    b = KernelBuilder("fuzz")
    b.block("entry")
    tid, out = b.reg(0), b.reg(1)
    acc = b.fresh()
    b.mov(acc, 1)

    n_loops = draw(st.integers(0, 2))
    open_loops = []
    behaviors = {}
    for li in range(n_loops):
        i = b.fresh()
        b.mov(i, 0)
        header, exit_lbl = b.label(), b.label()
        b.block_named(header)
        p = b.fresh_pred()
        tag = f"loop{li}"
        behaviors[tag] = LoopExit(trips=draw(st.integers(2, 5)))
        b.setp(p, i, 99, tag=tag)
        b.bra(exit_lbl, pred=p)
        b.block()
        open_loops.append((header, exit_lbl, i))

    # Body soup.
    live = [tid, acc]
    for k in range(draw(st.integers(2, 14))):
        kind = draw(st.integers(0, 5))
        src = live[draw(st.integers(0, len(live) - 1))]
        v = b.fresh()
        if kind == 0:
            b.ldg(v, src)
        elif kind == 1:
            b.iadd(v, src, k + 1)
        elif kind == 2:
            b.imad(v, src, 3, acc)
        elif kind == 3:
            b.stg(src, acc)
            continue
        elif kind == 4:
            # guarded (soft) write
            tag = f"g{k}"
            behaviors[tag] = BernoulliLanes(draw(st.floats(0.1, 0.9)))
            p = b.fresh_pred()
            b.setp(p, src, 0, tag=tag)
            b.mov(v, src)
            b.iadd(acc, acc, 1, guard=b.guard(p))
        else:
            # divergent diamond
            tag = f"d{k}"
            behaviors[tag] = BernoulliLanes(draw(st.floats(0.1, 0.9)))
            p = b.fresh_pred()
            b.setp(p, src, 0, tag=tag)
            join = b.label()
            b.bra(join, pred=p)
            b.block()
            b.iadd(acc, acc, k)
            b.block_named(join)
            continue
        live.append(v)
        if len(live) > 5:
            live.pop(0)

    for header, exit_lbl, i in reversed(open_loops):
        b.iadd(i, i, 1)
        b.bra(header)
        b.block_named(exit_lbl)

    b.stg(out, acc)
    b.exit()
    return Workload(name="fuzz", build=lambda: b.build(),
                    pred_behaviors=behaviors, regalloc=False)


@given(fuzz_workload())
@settings(max_examples=25, deadline=None)
def test_fuzz_baseline_vs_regless(workload):
    ck = compile_kernel(workload.kernel())
    base = run_simulation(FAST, ck, workload, lambda sm, sh: BaselineRF())
    rl = run_simulation(FAST, ck, workload,
                        lambda sm, sh: ReglessStorage(ck))
    assert base.finished and rl.finished
    assert base.instructions == rl.instructions
    assert rl.counter("osu_read_miss") == 0
    assert rl.counter("region_activations") == rl.counter("region_executions")


@given(fuzz_workload())
@settings(max_examples=15, deadline=None)
def test_fuzz_tiny_osu_never_deadlocks(workload):
    ck = compile_kernel(workload.kernel())
    rcfg = ReglessConfig(osu_entries_per_sm=64)
    rl = run_simulation(FAST, ck, workload,
                        lambda sm, sh: ReglessStorage(ck, rcfg))
    assert rl.finished


@given(fuzz_workload())
@settings(max_examples=15, deadline=None)
def test_fuzz_rfv_matches_baseline_accesses(workload):
    ck = compile_kernel(workload.kernel())
    base = run_simulation(FAST, ck, workload, lambda sm, sh: BaselineRF())
    rfv = run_simulation(FAST, ck, workload, lambda sm, sh: RFVStorage(ck))
    assert rfv.finished
    assert rfv.counter("rfv_read") == base.counter("rf_read")


@given(fuzz_workload(), st.integers(500, 4000))
@settings(max_examples=10, deadline=None)
def test_fuzz_cycle_ceiling_always_bounds(workload, ceiling):
    """No workload can spin past the safety ceiling, and a run that does
    finish under it never reports a ceiling hit."""
    ck = compile_kernel(workload.kernel())
    stats = run_simulation(FAST.with_(max_cycles=ceiling), ck, workload,
                           lambda sm, sh: BaselineRF())
    # bounded: the loop stops at the ceiling, modulo one fast-forward jump
    assert stats.cycles <= ceiling + 1024
    if stats.finished:
        assert stats.counter("cycle_ceiling") == 0
    else:
        assert stats.cycles >= ceiling
        assert stats.counter("cycle_ceiling") == 1


@given(fuzz_workload())
@settings(max_examples=10, deadline=None)
def test_fuzz_regalloc_preserves_dynamics(workload):
    """Register renaming must not change any dynamic count."""
    raw = compile_kernel(workload.kernel())
    allocated = Workload(
        name="fuzz", build=workload.build,
        pred_behaviors=workload.pred_behaviors, regalloc=True,
    )
    alloc = compile_kernel(allocated.kernel())
    a = run_simulation(FAST, raw, workload, lambda sm, sh: BaselineRF())
    b_ = run_simulation(FAST, alloc, allocated, lambda sm, sh: BaselineRF())
    assert a.instructions == b_.instructions
    assert a.counter("gmem_load_lines") == b_.counter("gmem_load_lines")

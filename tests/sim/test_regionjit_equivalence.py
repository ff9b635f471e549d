"""Region-JIT bit-identity: compiled steps == interpreter, any kernel.

The region JIT (``repro.sim.regionjit``) replaces the shard's interpreted
issue path with per-pc compiled step functions plus generated
``cycle``/``reevaluate``/``_account_stalls``/writeback bodies.  Its
correctness contract is *bit identity*: with ``REPRO_JIT=1`` every
simulated statistic — cycles, instructions, counters, stall attribution —
must equal the ``REPRO_JIT=0`` interpreter run exactly.

Hypothesis generates small structured kernels (loops, divergent diamonds,
guarded writes, loads) and checks the contract on every operand-storage
backend under every stock warp scheduler.  A deterministic smoke test
pins the contract on one kernel per backend for fast failure
localization.
"""

import os

from hypothesis import given, settings, strategies as st

from repro.compiler import compile_kernel
from repro.isa import KernelBuilder
from repro.regfile import BaselineRF, RFHStorage, RFVStorage
from repro.regless import ReglessStorage
from repro.sim import (
    BernoulliLanes,
    GPUConfig,
    LoopExit,
    run_simulation,
)
from repro.workloads import Workload

FAST = GPUConfig(warps_per_sm=8, schedulers_per_sm=2, cta_size_warps=4,
                 max_cycles=60_000)

FACTORIES = {
    "baseline": lambda ck: (lambda sm, sh: BaselineRF()),
    "rfh": lambda ck: (lambda sm, sh: RFHStorage(ck)),
    "rfv": lambda ck: (lambda sm, sh: RFVStorage(ck)),
    "regless": lambda ck: (lambda sm, sh: ReglessStorage(ck)),
}

SCHEDULERS = ("gto", "lrr", "two_level")


def _run(ck, workload, backend, jit, scheduler="gto"):
    """One simulation with the JIT forced on or off; returns (stats, jit_out)."""
    prev = os.environ.get("REPRO_JIT")
    os.environ["REPRO_JIT"] = "1" if jit else "0"
    try:
        jit_out = {}
        stats = run_simulation(
            FAST.with_(scheduler=scheduler), ck, workload,
            FACTORIES[backend](ck), jit_out=jit_out,
        )
        return stats, jit_out
    finally:
        if prev is None:
            del os.environ["REPRO_JIT"]
        else:
            os.environ["REPRO_JIT"] = prev


def _assert_identical(off, on, label):
    assert on.cycles == off.cycles, label
    assert on.instructions == off.instructions, label
    assert on.warps_done == off.warps_done, label
    assert on.finished == off.finished, label
    assert on.counters == off.counters, label
    assert on.stalls == off.stalls, label


@st.composite
def jit_workload(draw):
    """Small structured kernel: optional loop, arithmetic soup, optional
    divergent diamond and guarded writes, loads and stores."""
    b = KernelBuilder("jitfuzz")
    b.block("entry")
    tid, out = b.reg(0), b.reg(1)
    acc = b.fresh()
    b.mov(acc, 1)
    behaviors = {}

    loop = draw(st.booleans())
    if loop:
        i = b.fresh()
        b.mov(i, 0)
        header, exit_lbl = b.label(), b.label()
        b.block_named(header)
        p = b.fresh_pred()
        behaviors["loop"] = LoopExit(trips=draw(st.integers(2, 4)))
        b.setp(p, i, 99, tag="loop")
        b.bra(exit_lbl, pred=p)
        b.block()

    live = [tid, acc]
    for k in range(draw(st.integers(2, 10))):
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
            tag = f"g{k}"
            behaviors[tag] = BernoulliLanes(draw(st.floats(0.1, 0.9)))
            p = b.fresh_pred()
            b.setp(p, src, 0, tag=tag)
            b.iadd(acc, acc, 1, guard=b.guard(p))
            continue
        else:
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

    if loop:
        b.iadd(i, i, 1)
        b.bra(header)
        b.block_named(exit_lbl)

    b.stg(out, acc)
    b.exit()
    return Workload(name="jitfuzz", build=lambda: b.build(),
                    pred_behaviors=behaviors, regalloc=False)


@given(jit_workload(), st.sampled_from(sorted(FACTORIES)),
       st.sampled_from(SCHEDULERS))
@settings(max_examples=40, deadline=None)
def test_jit_matches_interpreter_on_random_kernels(workload, backend,
                                                   scheduler):
    ck = compile_kernel(workload.kernel())
    off, _ = _run(ck, workload, backend, jit=False, scheduler=scheduler)
    on, _ = _run(ck, workload, backend, jit=True, scheduler=scheduler)
    _assert_identical(off, on, f"{backend}/{scheduler}")


def test_jit_arms_and_matches_on_every_backend():
    """Deterministic pin: one kernel, all backends, JIT really armed."""
    b = KernelBuilder("pin")
    b.block("entry")
    tid, out = b.reg(0), b.reg(1)
    acc, v = b.fresh(), b.fresh()
    b.mov(acc, 1)
    b.ldg(v, tid)
    b.imad(acc, v, 3, acc)
    b.iadd(acc, acc, 7)
    b.stg(out, acc)
    b.exit()
    workload = Workload(name="pin", build=lambda: b.build(),
                        pred_behaviors={}, regalloc=False)
    ck = compile_kernel(workload.kernel())
    for backend in sorted(FACTORIES):
        off, jit_off = _run(ck, workload, backend, jit=False)
        on, jit_on = _run(ck, workload, backend, jit=True)
        _assert_identical(off, on, backend)
        assert not any(k.endswith(".armed") and v
                       for k, v in jit_off.items()), backend
        armed = [k for k, v in jit_on.items()
                 if k.endswith(".armed") and v]
        assert armed, f"{backend}: no shard armed the region JIT"
        issued = sum(v for k, v in jit_on.items() if k.endswith(".issued"))
        assert issued > 0, f"{backend}: JIT armed but issued nothing"

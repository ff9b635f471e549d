"""Shared fixtures: small kernels and fast simulator configurations."""

import pytest

from repro.compiler import compile_kernel
from repro.isa import KernelBuilder
from repro.sim import GPUConfig, LoopExit, BernoulliLanes
from repro.workloads import Workload


@pytest.fixture(autouse=True, scope="session")
def private_result_store(tmp_path_factory):
    """Point the default result store at this session's own directory.

    A test that builds ``SuiteRunner(...)`` with the default cache would
    otherwise read and fill ``$REPRO_CACHE_DIR`` or the user's store, and
    a store warmed by an earlier run turns its simulations into cache
    reads.  ``setenv`` writes ``os.environ``, so CLI and daemon
    subprocesses inherit it; a test that picks its own directory with
    ``monkeypatch`` still does."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("results")))
        yield


def build_straightline():
    """No control flow: entry computes and exits."""
    b = KernelBuilder("straight")
    b.block("entry")
    tid, out = b.reg(0), b.reg(1)
    t1, t2, t3 = b.fresh(3)
    b.iadd(t1, tid, 1)
    b.imul(t2, t1, 3)
    b.xor(t3, t2, t1)
    b.stg(out, t3)
    b.exit()
    return b.build()


def build_loop(trips_tag="loop"):
    """Counted loop with a global load in the body."""
    b = KernelBuilder("loop")
    b.block("entry")
    tid, src, dst = b.reg(0), b.reg(1), b.reg(2)
    i, acc = b.fresh(2)
    b.mov(i, 0)
    b.mov(acc, 0)
    header = b.label()
    done = b.label()
    b.block_named(header)
    p = b.fresh_pred()
    b.setp(p, i, 100, tag=trips_tag)
    b.bra(done, pred=p)
    b.block_named("body")
    addr, v, t = b.fresh(3)
    b.shl(addr, i, 7)
    b.iadd(addr, addr, src)
    b.ldg(v, addr)
    b.iadd(t, v, 1)
    b.iadd(acc, acc, t)
    b.iadd(i, i, 1)
    b.bra(header)
    b.block_named(done)
    b.stg(dst, acc)
    b.exit()
    return b.build()


def build_diamond():
    """Divergent if/else with guarded writes (soft definitions)."""
    b = KernelBuilder("diamond")
    b.block("entry")
    tid, out = b.reg(0), b.reg(1)
    x = b.fresh()
    b.mov(x, 7)
    p = b.fresh_pred()
    b.setp(p, tid, 16, tag="div")
    b.bra("else_", pred=p)
    b.block("then")
    b.iadd(x, x, 1)
    b.bra("join")
    b.block("else_")
    b.iadd(x, x, 2)
    b.block("join")
    b.stg(out, x)
    b.exit()
    return b.build()


@pytest.fixture
def straightline_kernel():
    return build_straightline()


@pytest.fixture
def loop_kernel():
    return build_loop()


@pytest.fixture
def diamond_kernel():
    return build_diamond()


@pytest.fixture
def loop_workload():
    return Workload(
        name="loop",
        build=build_loop,
        pred_behaviors={"loop": LoopExit(trips=6)},
        regalloc=False,
    )


@pytest.fixture
def diamond_workload():
    return Workload(
        name="diamond",
        build=build_diamond,
        pred_behaviors={"div": BernoulliLanes(0.5)},
        regalloc=False,
    )


@pytest.fixture
def fast_config():
    return GPUConfig(warps_per_sm=8, schedulers_per_sm=2, cta_size_warps=4,
                     max_cycles=100_000)


@pytest.fixture
def compiled_loop(loop_workload):
    return compile_kernel(loop_workload.kernel())

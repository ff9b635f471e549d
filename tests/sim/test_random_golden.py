"""Seeded random kernels against committed golden SimStats.

The grid goldens pin the 21 suite kernels under GTO only.  This golden
adds the shapes and schedulers they miss: small structured kernels (an
optional counted loop, divergent diamonds, guarded writes, loads and
stores) drawn from :func:`random_workload`, each simulated under every
operand-storage backend and every stock warp scheduler (GTO, LRR,
two-level) at a small config.

``tests/golden/simstats_random.json`` holds, per ``seed/backend/
scheduler`` cell, the fields of ``simstats_bfs_nw.json`` (cycles,
instructions, warps_done, counters, stalls).  Host-speed work on the
simulator must leave every cell unchanged.  Regenerate it only for an
intentional change to simulated behavior, and say why in the commit:

    PYTHONPATH=src python -m tests.sim.test_random_golden
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.compiler import compile_kernel
from repro.isa import KernelBuilder
from repro.regfile import BaselineRF, RFHStorage, RFVStorage
from repro.regless import ReglessStorage
from repro.sim import BernoulliLanes, GPUConfig, LoopExit, run_simulation
from repro.workloads import Workload

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "simstats_random.json"

FAST = GPUConfig(warps_per_sm=8, schedulers_per_sm=2, cta_size_warps=4,
                 max_cycles=60_000)

FACTORIES = {
    "baseline": lambda ck: (lambda sm, sh: BaselineRF()),
    "rfh": lambda ck: (lambda sm, sh: RFHStorage(ck)),
    "rfv": lambda ck: (lambda sm, sh: RFVStorage(ck)),
    "regless": lambda ck: (lambda sm, sh: ReglessStorage(ck)),
}

SCHEDULERS = ("gto", "lrr", "two_level")

SEEDS = range(32)


def random_workload(seed: int) -> Workload:
    """Small structured kernel: optional loop, arithmetic soup, optional
    divergent diamonds and guarded writes, loads and stores."""
    rng = random.Random(seed)
    b = KernelBuilder(f"random{seed}")
    b.block("entry")
    tid, out = b.reg(0), b.reg(1)
    acc = b.fresh()
    b.mov(acc, 1)
    behaviors = {}

    loop = rng.random() < 0.5
    if loop:
        i = b.fresh()
        b.mov(i, 0)
        header, exit_lbl = b.label(), b.label()
        b.block_named(header)
        p = b.fresh_pred()
        behaviors["loop"] = LoopExit(trips=rng.randint(2, 4))
        b.setp(p, i, 99, tag="loop")
        b.bra(exit_lbl, pred=p)
        b.block()

    live = [tid, acc]
    for k in range(rng.randint(2, 10)):
        kind = rng.randint(0, 5)
        src = live[rng.randint(0, len(live) - 1)]
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
            behaviors[tag] = BernoulliLanes(round(rng.uniform(0.1, 0.9), 3))
            p = b.fresh_pred()
            b.setp(p, src, 0, tag=tag)
            b.iadd(acc, acc, 1, guard=b.guard(p))
            continue
        else:
            tag = f"d{k}"
            behaviors[tag] = BernoulliLanes(round(rng.uniform(0.1, 0.9), 3))
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
    return Workload(name=f"random{seed}", build=lambda: b.build(),
                    pred_behaviors=behaviors, regalloc=False)


def simulate(seed: int):
    """Every (backend, scheduler) cell of one seed's kernel, by key."""
    workload = random_workload(seed)
    ck = compile_kernel(workload.kernel())
    for backend in sorted(FACTORIES):
        for scheduler in SCHEDULERS:
            stats = run_simulation(FAST.with_(scheduler=scheduler), ck,
                                   workload, FACTORIES[backend](ck))
            yield f"{seed}/{backend}/{scheduler}", stats


def snapshot(stats) -> dict:
    return {
        "cycles": stats.cycles, "instructions": stats.instructions,
        "warps_done": stats.warps_done,
        "counters": dict(sorted(stats.counters.items())),
        "stalls": dict(sorted(stats.stalls.items())),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_cell(golden):
    assert len(golden) == len(SEEDS) * len(FACTORIES) * len(SCHEDULERS)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_kernel_matches_golden(seed, golden):
    for key, stats in simulate(seed):
        assert stats.finished, key
        assert snapshot(stats) == golden[key], key


if __name__ == "__main__":
    cells = {key: snapshot(stats) for seed in SEEDS
             for key, stats in simulate(seed)}
    with open(GOLDEN, "w") as fh:
        json.dump(cells, fh, indent=1, sort_keys=True)
        fh.write("\n")

"""Ablations of the design decisions called out in DESIGN.md section 6.

Each ablation toggles one mechanism and measures geomean run time across a
representative benchmark mix (one memory-bound, one control-heavy, two
compute/register-heavy, one balanced).
"""

import pytest
from conftest import run_once

from repro.compiler import RegionConfig, compile_kernel
from repro.harness import SuiteRunner, geomean
from repro.regless import ReglessConfig, ReglessStorage
from repro.sim import GPUConfig, run_simulation
from repro.workloads import make_workload

MIX = ("bfs", "heartwall", "hotspot", "lud", "kmeans")


def run_mix(region_config=None, regless_config=None):
    ratios = []
    base_cfg = GPUConfig()
    for name in MIX:
        wl = make_workload(name)
        ck = compile_kernel(wl.kernel(), region_config)
        rcfg = regless_config or ReglessConfig()
        from repro.regfile import BaselineRF

        base = run_simulation(base_cfg, ck, wl, lambda sm, sh: BaselineRF())
        rl = run_simulation(base_cfg, ck, wl,
                            lambda sm, sh: ReglessStorage(ck, rcfg))
        ratios.append(rl.cycles / base.cycles)
    return geomean(ratios)


def record_margin(benchmark, on, off):
    """Print and record ``off / on - 1``, the geomean run-time cost of
    turning the mechanism off: negative when the mechanism costs time."""
    margin = off / on - 1
    print(f"off/on - 1 = {margin:+.4f}")
    benchmark.extra_info["off_over_on_minus_1"] = margin


def test_ablation_seam_splitting(benchmark):
    """Splitting at liveness seams vs at the latest valid point."""
    def experiment():
        seams = run_mix(RegionConfig(split_at_seams=True))
        naive = run_mix(RegionConfig(split_at_seams=False))
        return seams, naive

    seams, naive = run_once(benchmark, experiment)
    print(f"\nAblation seam-splitting: seams={seams:.3f} naive={naive:.3f}")
    benchmark.extra_info["seams"] = seams
    benchmark.extra_info["naive"] = naive
    record_margin(benchmark, seams, naive)
    # Seam splitting never hurts materially.
    assert seams <= naive * 1.05


def test_ablation_load_use_split(benchmark):
    """Forbidding a global load and its use in one region (IsValid rule)."""
    def experiment():
        split = run_mix(RegionConfig(split_load_use=True))
        fused = run_mix(RegionConfig(split_load_use=False))
        return split, fused

    split, fused = run_once(benchmark, experiment)
    print(f"\nAblation load/use split: split={split:.3f} fused={fused:.3f}")
    benchmark.extra_info["split"] = split
    benchmark.extra_info["fused"] = fused
    record_margin(benchmark, split, fused)
    assert split <= fused * 1.10


def test_ablation_warp_stack(benchmark):
    """Most-recently-drained (LIFO) activation vs FIFO."""
    def experiment():
        lifo = run_mix(regless_config=ReglessConfig(warp_stack_lifo=True))
        fifo = run_mix(regless_config=ReglessConfig(warp_stack_lifo=False))
        return lifo, fifo

    lifo, fifo = run_once(benchmark, experiment)
    print(f"\nAblation warp stack: lifo={lifo:.3f} fifo={fifo:.3f}")
    benchmark.extra_info["lifo"] = lifo
    benchmark.extra_info["fifo"] = fifo
    record_margin(benchmark, lifo, fifo)
    assert lifo <= fifo * 1.10


def test_ablation_eviction_order(benchmark):
    """free -> clean -> dirty eviction priority vs ignoring cleanliness."""
    def experiment():
        ordered = run_mix(regless_config=ReglessConfig(ordered_eviction=True))
        unordered = run_mix(regless_config=ReglessConfig(ordered_eviction=False))
        return ordered, unordered

    ordered, unordered = run_once(benchmark, experiment)
    print(f"\nAblation eviction: ordered={ordered:.3f} unordered={unordered:.3f}")
    benchmark.extra_info["ordered"] = ordered
    benchmark.extra_info["unordered"] = unordered
    record_margin(benchmark, ordered, unordered)
    assert ordered <= unordered * 1.05


def test_ablation_compressor(benchmark):
    """The pattern compressor on vs off (also part of Figure 16)."""
    def experiment():
        on = run_mix(regless_config=ReglessConfig(compressor_enabled=True))
        off = run_mix(regless_config=ReglessConfig(compressor_enabled=False))
        return on, off

    on, off = run_once(benchmark, experiment)
    print(f"\nAblation compressor: on={on:.3f} off={off:.3f}")
    benchmark.extra_info["compressor_on"] = on
    benchmark.extra_info["compressor_off"] = off
    record_margin(benchmark, on, off)
    assert on <= off * 1.02

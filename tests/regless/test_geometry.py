"""Geometry sensitivity: RegLess works across bank counts and shard splits.

The paper fixes 8 banks per OSU; the compiler's bank-usage annotations and
the hardware's rotation must stay consistent for any geometry, so these
sweep the bank count (compiler and hardware together) and the shard count.
"""

import pytest

from repro.compiler import RegionConfig, compile_kernel
from repro.harness import SuiteRunner
from repro.regfile import BaselineRF
from repro.regless import ReglessConfig, ReglessStorage
from repro.sim import GPU, GPUConfig, run_simulation
from repro.workloads import make_workload


@pytest.mark.parametrize("schedulers", [1, 2, 4])
def test_per_sm_sizes_split_over_the_shards(schedulers):
    """Every storage is sized per SM and split over the SM's shards, one
    per warp scheduler: summed over them, RegLess stages exactly the
    run's OSU entries and 48 compressor lines, RFV holds 1,024."""
    wl = make_workload("bfs")
    ck = compile_kernel(wl.kernel())
    cfg = GPUConfig(schedulers_per_sm=schedulers)

    with SuiteRunner(cache=False) as runner:
        def storages(backend, osu_entries=512):
            factory = runner.storage_factory(backend, ck, osu_entries)
            gpu = GPU(cfg, ck, wl, factory)
            return [shard.storage for shard in gpu.sms[0].shards]

        for backend in ("regless", "regless-nc"):
            for osu_entries in (512, 1024):
                shards = storages(backend, osu_entries)
                assert len(shards) == schedulers
                assert sum(bank.capacity for s in shards
                           for bank in s.osu.banks) == osu_entries
                assert sum(s.osu.compressor.cache_lines for s in shards) == 48
        assert sum(s.capacity for s in storages("rfv")) == 1024


@pytest.mark.parametrize("banks", [4, 8, 16])
def test_bank_count_sweep(fast_config, banks):
    wl = make_workload("streamcluster")
    ck = compile_kernel(wl.kernel(), RegionConfig(banks=banks))
    rcfg = ReglessConfig(osu_entries_per_sm=512, banks_per_shard=banks)
    stats = run_simulation(fast_config, ck, wl,
                           lambda sm, sh: ReglessStorage(ck, rcfg))
    assert stats.finished
    assert stats.counter("osu_read_miss") == 0


@pytest.mark.parametrize("banks", [4, 8, 16])
def test_bank_usage_annotation_matches_geometry(banks):
    wl = make_workload("hotspot")
    ck = compile_kernel(wl.kernel(), RegionConfig(banks=banks))
    for region in ck.regions:
        assert len(region.bank_usage) == banks


def test_mismatched_geometry_still_safe(fast_config):
    """Compiling for 8 banks but running 4-bank hardware is wasteful (the
    per-bank guarantees are wrong) but must not break correctness — the
    emergency valve and evictable lines absorb it."""
    wl = make_workload("streamcluster")
    ck = compile_kernel(wl.kernel(), RegionConfig(banks=8))
    rcfg = ReglessConfig(osu_entries_per_sm=256, banks_per_shard=4)
    stats = run_simulation(fast_config, ck, wl,
                           lambda sm, sh: ReglessStorage(ck, rcfg))
    assert stats.finished
    assert stats.counter("osu_read_miss") == 0


def test_performance_insensitive_to_bank_count(fast_config):
    """With ample capacity, 4 vs 16 banks should not change run time much
    (bank rotation spreads usage either way)."""
    wl = make_workload("nw")
    cycles = {}
    for banks in (4, 16):
        ck = compile_kernel(wl.kernel(), RegionConfig(banks=banks))
        rcfg = ReglessConfig(osu_entries_per_sm=512, banks_per_shard=banks)
        stats = run_simulation(fast_config, ck, wl,
                               lambda sm, sh: ReglessStorage(ck, rcfg))
        cycles[banks] = stats.cycles
    ratio = cycles[4] / cycles[16]
    assert 0.7 < ratio < 1.4

"""Seed robustness: are the headline numbers stable across workload seeds?

The synthetic benchmarks draw their dynamic behaviour (divergence patterns,
loaded-value structure) from a seeded RNG.  A reproduction is only credible
if its conclusions do not hinge on one lucky seed, so this module re-runs
the key comparisons across several seeds and reports mean, min and max of
each headline ratio.

    python -m repro.harness seeds
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Sequence

from ..compiler.pipeline import compile_kernel
from ..regfile import BaselineRF
from ..regless import ReglessStorage
from ..sim.config import GPUConfig
from ..sim.gpu import run_simulation
from ..workloads import make_workload
from .experiments import geomean

__all__ = ["SeedStats", "seed_robustness", "render_robustness"]

DEFAULT_SEEDS = (1, 7, 23, 51, 97)
DEFAULT_MIX = ("bfs", "heartwall", "hotspot", "kmeans", "lud", "streamcluster")


@dataclass
class SeedStats:
    """Distribution of one metric across seeds."""

    name: str
    values: List[float]

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def lo(self) -> float:
        return min(self.values)

    @property
    def hi(self) -> float:
        return max(self.values)

    @property
    def spread(self) -> float:
        return self.hi - self.lo

    def render(self) -> str:
        return (
            f"{self.name:<28} mean {self.mean:6.3f}   "
            f"range [{self.lo:6.3f}, {self.hi:6.3f}]   "
            f"spread {self.spread:5.3f}"
        )


def _run_pair(name: str, seed: int, config: GPUConfig):
    workload = make_workload(name)
    workload.seed = seed
    compiled = compile_kernel(workload.kernel())
    base = run_simulation(config, compiled, workload,
                          lambda sm, sh: BaselineRF())
    regless = run_simulation(config, compiled, workload,
                             lambda sm, sh: ReglessStorage(compiled))
    return base, regless


def seed_robustness(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    names: Sequence[str] = DEFAULT_MIX,
    config: Optional[GPUConfig] = None,
) -> List[SeedStats]:
    """Headline metrics, one sample per seed (geomean over ``names``)."""
    config = config or GPUConfig()
    runtime_samples: List[float] = []
    osu_read_samples: List[float] = []
    near_preload_samples: List[float] = []
    l1_rate_samples: List[float] = []

    for seed in seeds:
        runtimes, reads_ok, near, l1_rate = [], [], [], []
        for name in names:
            base, rl = _run_pair(name, seed, config)
            runtimes.append(rl.cycles / base.cycles)
            reads_ok.append(rl.counter("osu_read_miss"))
            total = max(1.0, rl.counter("preloads"))
            near.append(
                (rl.counter("preload_src_osu")
                 + rl.counter("preload_src_const")
                 + rl.counter("preload_src_compressor")) / total
            )
            l1_rate.append(
                (rl.counter("l1_preload_req") + rl.counter("l1_reg_store"))
                / max(1, rl.cycles)
            )
        runtime_samples.append(geomean(runtimes))
        osu_read_samples.append(sum(reads_ok))
        near_preload_samples.append(sum(near) / len(near))
        l1_rate_samples.append(sum(l1_rate) / len(l1_rate))

    return [
        SeedStats("runtime geomean (RL/base)", runtime_samples),
        SeedStats("staging misses (must be 0)", osu_read_samples),
        SeedStats("preloads w/o memory trip", near_preload_samples),
        SeedStats("L1 preload+store req/cycle", l1_rate_samples),
    ]


def render_robustness(stats: List[SeedStats],
                      seeds: Sequence[int] = DEFAULT_SEEDS) -> str:
    lines = [
        f"Seed robustness over seeds {tuple(seeds)}:",
        "",
    ]
    lines.extend(s.render() for s in stats)
    lines.append("")
    runtime = stats[0]
    verdict = (
        "conclusion stable: RegLess matches baseline run time for every seed"
        if runtime.hi < 1.1
        else "WARNING: some seed shows >10% slowdown"
    )
    lines.append(verdict)
    return "\n".join(lines)

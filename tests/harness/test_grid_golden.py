"""Grid equivalence against committed golden SimStats.

Two goldens pin the simulated results (cycles, instructions, counters,
stall bins) under all five backends:

* ``tests/golden/simstats_bfs_nw.json``: bfs, nw and hotspot at the
  default config, from before the event-driven issue-core and
  demand-clocked component reworks;
* ``tests/golden/simstats_small21.json``: all 21 kernels at
  ``test_validate``'s small config (``warps_per_sm=16,
  schedulers_per_sm=2, cta_size_warps=8``).

Host-speed work (those reworks included) must keep simulated results
**bit-identical**.  Any intentional change to simulated behavior must
regenerate both goldens (see docs/performance.md), and
``tests/golden/simstats_random.json``, in the same commit and say why.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.runner import SuiteRunner
from repro.sim import GPUConfig
from repro.workloads import workload_names

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

BACKENDS = ("baseline", "rfh", "rfv", "regless", "regless-nc")

SMALL_CONFIG = GPUConfig(warps_per_sm=16, schedulers_per_sm=2,
                         cta_size_warps=8)

_CELLS = [
    (name, backend)
    for name in ("bfs", "nw", "hotspot")
    for backend in BACKENDS
]

_SMALL21_CELLS = [
    (name, backend) for name in workload_names() for backend in BACKENDS
]


def _assert_matches(stats, want):
    assert stats.finished
    assert stats.cycles == want["cycles"]
    assert stats.instructions == want["instructions"]
    assert stats.warps_done == want["warps_done"]
    assert stats.counters == want["counters"]
    assert stats.stalls == want["stalls"]


@pytest.fixture(scope="module")
def golden():
    return json.loads((GOLDEN_DIR / "simstats_bfs_nw.json").read_text())


@pytest.fixture(scope="module")
def golden_small21():
    return json.loads((GOLDEN_DIR / "simstats_small21.json").read_text())


# One runner per golden: the compiled kernels are shared across
# backends, the disk cache is bypassed so the simulator actually runs.
@pytest.fixture(scope="module")
def runner():
    with SuiteRunner(cache=False) as r:
        yield r


@pytest.fixture(scope="module")
def small_runner():
    with SuiteRunner(cache=False, config=SMALL_CONFIG) as r:
        yield r


@pytest.mark.parametrize("name,backend", _CELLS)
def test_simstats_match_golden(runner, golden, name, backend):
    _assert_matches(runner.run(name, backend).stats,
                    golden[f"{name}/{backend}"])


@pytest.mark.parametrize("name,backend", _SMALL21_CELLS)
def test_small21_simstats_match_golden(small_runner, golden_small21,
                                       name, backend):
    _assert_matches(small_runner.run(name, backend).stats,
                    golden_small21[f"{name}/{backend}"])

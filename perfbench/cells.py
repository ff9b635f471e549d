"""Seeded inputs for every workload.

The seed decides which grid cells a run simulates and what the service
clients submit; the program only ever sees the cells and job specs made
here.  Draws are balanced so that different seeds give different cells
but nearly the same amount of work, which keeps the run-to-run spread of
the throughput metrics small.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

BACKENDS = ("baseline", "rfh", "rfv", "regless", "regless-nc")

#: the 21 Rodinia kernels of ``repro.workloads`` (kept here so the draws
#: need no simulator import; a test checks the two lists agree).
KERNELS = (
    "b+tree", "backprop", "bfs", "dwt2d", "gaussian", "heartwall", "hotspot",
    "hybridsort", "kmeans", "lavaMD", "leukocyte", "lud", "mummergpu",
    "myocyte", "nn", "nw", "particle_filter", "pathfinder", "srad_v1",
    "srad_v2", "streamcluster",
)

#: kernels pinned by ``tests/golden/simstats_bfs_nw.json`` (x 5 backends).
GOLDEN_KERNELS = ("bfs", "nw", "hotspot")

#: cycles >> warp-instructions: fast-forward, event wheel, memory pumps.
MEMORY_BOUND = ("b+tree", "hybridsort", "gaussian")
#: instruction-dense: the issue loop.
COMPUTE_DENSE = ("lavaMD", "myocyte", "lud")

#: the small configuration of the validation tests (21 x 5 grid ~ 16 s).
SMALL = (("cta_size_warps", 8), ("schedulers_per_sm", 2),
         ("warps_per_sm", 16))

#: OSU capacities the service clients sweep; each capacity is one round
#: over the 105 small-config cells, so fresh jobs never repeat a cell.
CAPACITIES = (512, 640, 768, 896, 1024, 1152, 1280, 1408)

#: measured relative host cost at the default configuration, used only to
#: dispatch grid-cold cells longest-first so a pass ends with short cells
#: and both workers stay busy to the end.
_KERNEL_COST = {"lavaMD": 1.6, "hotspot": 1.1, "gaussian": 1.1,
                "myocyte": 1.0, "b+tree": 0.95, "nw": 0.9,
                "hybridsort": 0.85, "lud": 0.75, "bfs": 0.65}
_BACKEND_COST = {"baseline": 0.75, "rfh": 0.95, "rfv": 1.2, "regless": 1.2,
                 "regless-nc": 1.15}

#: every ``REPEAT_EVERY``-th service job resubmits an earlier job's runs.
#: A chosen share, not one measured from real traffic: it sets how many
#: samples the hit_latency_* metrics get and nothing else (runs_per_s
#: counts fresh runs only).
REPEAT_EVERY = 3


class Cell(NamedTuple):
    """One grid cell, the fields of ``repro.harness.parallel.RunRequest``."""

    benchmark: str
    backend: str
    osu_entries: int = 512
    overrides: Tuple[Tuple[str, object], ...] = ()

    def wire(self) -> Dict[str, object]:
        """The service's run-spec form."""
        spec: Dict[str, object] = {"benchmark": self.benchmark,
                                   "backend": self.backend,
                                   "osu_entries": self.osu_entries}
        if self.overrides:
            spec["overrides"] = dict(self.overrides)
        return spec


def golden_cells() -> List[Cell]:
    return [Cell(k, b) for k in GOLDEN_KERNELS for b in BACKENDS]


def _balanced(rng: random.Random, kernels: Sequence[str]) -> List[Cell]:
    """One cell per backend, kernels assigned round-robin over a seeded
    shuffle: every kernel of the class appears once or twice."""
    order = list(kernels)
    rng.shuffle(order)
    backends = list(BACKENDS)
    rng.shuffle(backends)
    return [Cell(order[i % len(order)], b) for i, b in enumerate(backends)]


def grid_cold_cells(seed: int) -> List[Cell]:
    """The 15 golden cells plus, for every backend, one seeded
    memory-bound and one seeded compute-dense cell, at the paper's default
    configuration, in longest-expected-first order."""
    rng = random.Random(f"grid-cold:{seed}")
    cells = golden_cells() + _balanced(rng, MEMORY_BOUND) \
        + _balanced(rng, COMPUTE_DENSE)
    return sorted(cells, key=lambda c: (
        -_KERNEL_COST[c.benchmark] * _BACKEND_COST[c.backend],
        c.benchmark, c.backend))


def grid_warm_cells(seed: int) -> List[Cell]:
    """All 21 kernels x 5 backends at the small configuration, in a
    seeded order (the order a pass asks for them)."""
    cells = [Cell(k, b, 512, SMALL) for k in KERNELS for b in BACKENDS]
    random.Random(f"grid-warm:{seed}").shuffle(cells)
    return cells


class JobPlan(NamedTuple):
    """One service job as the schedule lists it.

    ``runs`` are fresh cells; a ``repeat`` plan instead resubmits the
    runs of the taking client's earlier job at index ``int(pick * n)``
    (it falls back to ``runs`` when that client has no history yet)."""

    runs: Tuple[Cell, ...]
    repeat: bool
    pick: float


def service_plans(seed: int, limit: Optional[int] = None) -> List[JobPlan]:
    """The job schedule the service clients consume in order.

    Fresh cells come in capacity rounds: round ``r`` is a seeded
    permutation of the 105 small-config cells at ``CAPACITIES[r]``, so no
    fresh run repeats a cell and every prefix of the schedule holds a
    near-even kernel x backend mix.  Jobs hold 1-5 runs."""
    rng = random.Random(f"service-mix:{seed}")
    fresh: List[Cell] = []
    for capacity in CAPACITIES:
        round_cells = [Cell(k, b, capacity, SMALL)
                       for k in KERNELS for b in BACKENDS]
        rng.shuffle(round_cells)
        fresh.extend(round_cells)
    plans: List[JobPlan] = []
    pos = 0
    while limit is None or len(plans) < limit:
        size = rng.randint(1, 5)
        if pos + size > len(fresh):
            break
        plans.append(JobPlan(tuple(fresh[pos:pos + size]),
                             len(plans) % REPEAT_EVERY == REPEAT_EVERY - 1,
                             rng.random()))
        pos += size
    return plans


def sample(seed: int, items: Sequence, k: int, salt: str) -> List:
    """A seeded sample of ``k`` items (all of them when fewer)."""
    items = list(items)
    if len(items) <= k:
        return items
    return random.Random(f"{salt}:{seed}").sample(items, k)

"""The layer probe of traced runs.

A workload's own path does not reach every layer (``catalogue.OFF_PATH``
names, per workload, the metrics it misses), yet every traced run reports
every per-layer metric.  So a traced run ends with a short probe that
drives the missing layers once: small-config cells through the pooled
grid and the traced in-process steps, and/or a one-boot, two-second
service mix.  Exactly the workload's off-path metrics are taken from the
probe; the run's record lists them under ``from_probe``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from .catalogue import OFF_PATH
from .cells import BACKENDS, GOLDEN_KERNELS, SMALL, Cell
from .gate import Gate
from .grid import cold_run
from .service import service_mix

#: bfs, nw and hotspot under every backend, plus one more memory-bound
#: and one more compute-dense kernel, at the small configuration.
CELLS = [Cell(k, b, 512, SMALL) for k in GOLDEN_KERNELS for b in BACKENDS] \
    + [Cell("b+tree", "baseline", 512, SMALL),
       Cell("lavaMD", "baseline", 512, SMALL)]
SERVICE_SECONDS = 2.0


def merge(layers: Dict[str, float], off_path: Sequence[str],
          grid: Mapping[str, float], service: Mapping[str, float]
          ) -> List[str]:
    """Set each off-path metric of ``layers`` from the probe part that
    measures it (``service.*`` from the service mix, the rest from the
    grid); every other metric keeps the workload's own value."""
    for name in off_path:
        layers[name] = (service if name.startswith("service.") else grid)[name]
    return list(off_path)


def fill(workload: str, layers: Dict[str, float], seed: int, jobs: int,
         gate: Gate) -> List[str]:
    """Run the probe parts ``workload`` needs and merge them into
    ``layers``; returns the names taken from the probe."""
    off = OFF_PATH[workload]
    grid: Mapping[str, float] = {}
    service: Mapping[str, float] = {}
    if any(not n.startswith("service.") for n in off):
        out = cold_run(CELLS, 0.0, jobs, {}, trace=True)
        grid = out["layers"]
        gate.merge(out["gate"])
    if any(n.startswith("service.") for n in off):
        out = service_mix(seed, SERVICE_SECONDS, jobs, trace=True, boots=1)
        service = out["layers"]
        gate.merge(out["gate"])
    return merge(layers, off, grid, service)

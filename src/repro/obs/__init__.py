"""``repro.obs`` — structured observability for the simulator and its hosts.

Three layers:

* :mod:`repro.obs.metrics` — a hierarchical metrics registry (counters
  and histograms addressed by dotted paths) for the harness
  (``harness.grid.retries``) and the service (``service.jobs.done``).
  The simulator counts its hardware events once, into the flat
  :class:`~repro.energy.accounting.Counters` that energy accounting and
  the figures read.
* :mod:`repro.obs.stalls` — per-cycle stall attribution: every warp-cycle
  that does not issue is binned into exactly one stall reason, and the
  bins are conservative (reasons + issued == ``warps x cycles``).
* :mod:`repro.obs.perfetto` — a Chrome-trace (Perfetto) exporter for
  :class:`~repro.sim.trace.Tracer` events and RegLess region spans.
"""

from .metrics import MetricScope, MetricsRegistry, bucket_125
from .stalls import (
    ISSUED,
    STALL_REASONS,
    ShardStallTracker,
    check_conservation,
    merge_stalls,
)
from .perfetto import (
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "MetricScope",
    "MetricsRegistry",
    "bucket_125",
    "ISSUED",
    "STALL_REASONS",
    "ShardStallTracker",
    "check_conservation",
    "merge_stalls",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]

"""One function per evaluation table/figure of the paper.

Every function takes a :class:`~repro.harness.runner.SuiteRunner` (runs are
memoized across experiments) and returns plain data structures; rendering,
export rows and the table of experiments (``EXPERIMENTS``) live in
:mod:`repro.harness.report`.  The experiment ids match the paper:

======== ==========================================================
fig2     register working set per 100-cycle window, GTO vs 2-level
fig3     backing-store accesses over time (hotspot)
fig5     live registers per static instruction (particle_filter)
fig11    area vs OSU capacity
fig12    power vs OSU capacity
fig13    run time vs GPU energy Pareto across capacities
fig14    register-file energy: RFH / RFV / RegLess vs baseline
fig15    total GPU energy (incl. the "No RF" bound)
fig16    run time vs baseline (+ no-compressor / RFV / RFH geomeans)
fig17    preload service location (OSU/compressor/L1/L2-DRAM)
fig18    RegLess L1 requests per cycle by type
fig19    per-region preloads and concurrent-live statistics
table2   static instructions and dynamic cycles per region
======== ==========================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..energy.area import AreaModel, OSU_CAPACITY_SWEEP
from ..workloads import workload_names
from .parallel import RunRequest
from .runner import SuiteRunner

__all__ = [
    "fig2_working_set",
    "fig3_backing_store",
    "fig5_liveness_seams",
    "fig11_area",
    "fig12_power",
    "fig13_pareto",
    "fig14_rf_energy",
    "fig15_gpu_energy",
    "fig16_runtime",
    "fig17_preload_location",
    "fig18_l1_bandwidth",
    "fig19_region_registers",
    "table2_region_sizes",
    "energy_breakdown",
    "geomean",
]


def geomean(values: Sequence[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def _names(names: Optional[Sequence[str]]) -> List[str]:
    return list(names) if names else workload_names()


# ---------------------------------------------------------------------------
# Figure 2 — register working set, GTO vs two-level
# ---------------------------------------------------------------------------


def fig2_working_set(
    runner: SuiteRunner, names: Optional[Sequence[str]] = None
) -> Dict[str, Tuple[float, float]]:
    """benchmark -> (GTO KB, two-level KB) mean working set per window."""
    names = _names(names)
    runner.run_grid(
        [RunRequest.make(n, "baseline", track_working_set=True)
         for n in names]
        + [RunRequest.make(n, "baseline", track_working_set=True,
                           scheduler="two_level")
           for n in names]
    )
    result: Dict[str, Tuple[float, float]] = {}
    for name in names:
        gto = runner.run(name, "baseline", track_working_set=True)
        two = runner.run(
            name, "baseline", track_working_set=True, scheduler="two_level"
        )
        result[name] = (
            gto.stats.working_set_kb(),
            two.stats.working_set_kb(),
        )
    return result


# ---------------------------------------------------------------------------
# Figure 3 — backing-store accesses per 100 cycles over time (hotspot)
# ---------------------------------------------------------------------------


@dataclass
class BackingStoreSeries:
    baseline: List[float]
    rfh: List[float]
    regless: List[float]


def fig3_backing_store(
    runner: SuiteRunner, benchmark: str = "hotspot"
) -> BackingStoreSeries:
    """Accesses to each design's register backing store per 100-cycle
    window: main RF for baseline, MRF for RFH, L1 for RegLess."""
    rf_series = ("rf_read", "rf_write")
    runner.run_grid([
        RunRequest.make(benchmark, "baseline", window_series=rf_series),
        RunRequest.make(benchmark, "rfh", window_series=rf_series),
        RunRequest.make(benchmark, "regless", window_series=("l1_access",)),
    ])
    base = runner.run(benchmark, "baseline", window_series=rf_series)
    rfh = runner.run(benchmark, "rfh", window_series=rf_series)
    regless = runner.run(benchmark, "regless", window_series=("l1_access",))

    def combine(stats, keys):
        seqs = [stats.window_series[k] for k in keys]
        return [sum(vals) for vals in zip(*seqs)] if len(seqs) > 1 else seqs[0]

    return BackingStoreSeries(
        baseline=combine(base.stats, rf_series),
        rfh=combine(rfh.stats, rf_series),
        regless=list(regless.stats.window_series["l1_access"]),
    )


# ---------------------------------------------------------------------------
# Figure 5 — live-register seams
# ---------------------------------------------------------------------------


def fig5_liveness_seams(
    runner: SuiteRunner, benchmark: str = "particle_filter"
) -> List[int]:
    """Live-register count before each static instruction; local minima are
    the natural region seams."""
    return runner.compiled(benchmark).liveness.live_counts()


# ---------------------------------------------------------------------------
# Figures 11/12 — area and power vs capacity
# ---------------------------------------------------------------------------


def fig11_area(
    capacities: Sequence[int] = OSU_CAPACITY_SWEEP,
) -> Dict[int, Dict[str, float]]:
    model = AreaModel()
    return {n: model.area(n).as_dict() for n in capacities}


def fig12_power(
    runner: SuiteRunner,
    capacities: Sequence[int] = OSU_CAPACITY_SWEEP,
    reference: str = "hotspot",
) -> Dict[int, Dict[str, float]]:
    """Normalized combined power per capacity, driven by the measured OSU
    activity of a reference run (the paper drove its netlist with
    simulation traces)."""
    ref = runner.run(reference, "regless")
    accesses = (
        ref.stats.counter("osu_read") + ref.stats.counter("osu_write")
    ) / max(1, ref.cycles)
    model = AreaModel()
    return {
        n: model.power(n, accesses_per_cycle=accesses, params=runner.energy_model.params)
        for n in capacities
    }


# ---------------------------------------------------------------------------
# Figure 13 — run time vs GPU energy Pareto
# ---------------------------------------------------------------------------


def fig13_pareto(
    runner: SuiteRunner,
    capacities: Sequence[int] = (128, 192, 256, 384, 512, 1024),
    names: Optional[Sequence[str]] = None,
) -> Dict[int, Tuple[float, float]]:
    """capacity -> (normalized run time, normalized GPU energy), geomean
    across benchmarks."""
    names = _names(names)
    runner.run_grid(
        [RunRequest.make(n, "baseline") for n in names]
        + [RunRequest.make(n, "regless", osu_entries=cap)
           for cap in capacities for n in names]
    )
    result: Dict[int, Tuple[float, float]] = {}
    for cap in capacities:
        runtimes, energies = [], []
        for name in names:
            base = runner.run(name, "baseline")
            res = runner.run(name, "regless", osu_entries=cap)
            runtimes.append(res.cycles / base.cycles)
            energies.append(res.gpu_energy / base.gpu_energy)
        result[cap] = (geomean(runtimes), geomean(energies))
    return result


# ---------------------------------------------------------------------------
# Figures 14/15 — energy comparisons
# ---------------------------------------------------------------------------


def fig14_rf_energy(
    runner: SuiteRunner, names: Optional[Sequence[str]] = None
) -> Dict[str, Dict[str, float]]:
    """benchmark -> {rfh, rfv, regless}: RF energy normalized to baseline."""
    names = _names(names)
    runner.prefetch(names)
    result: Dict[str, Dict[str, float]] = {}
    for name in names:
        base = runner.run(name, "baseline")
        result[name] = {
            b: runner.run(name, b).rf_energy / base.rf_energy
            for b in ("rfh", "rfv", "regless")
        }
    return result


def fig15_gpu_energy(
    runner: SuiteRunner, names: Optional[Sequence[str]] = None
) -> Dict[str, Dict[str, float]]:
    """benchmark -> {no_rf, rfh, rfv, regless}: total GPU energy normalized
    to baseline ("no_rf" is the upper bound: a free register file)."""
    names = _names(names)
    runner.prefetch(names)
    result: Dict[str, Dict[str, float]] = {}
    for name in names:
        base = runner.run(name, "baseline")
        row = {
            b: runner.run(name, b).gpu_energy / base.gpu_energy
            for b in ("rfh", "rfv", "regless")
        }
        row["no_rf"] = runner.no_rf_energy(name) / base.gpu_energy
        result[name] = row
    return result


# ---------------------------------------------------------------------------
# Figure 16 — run time
# ---------------------------------------------------------------------------


@dataclass
class RuntimeResult:
    per_benchmark: Dict[str, float]  # regless vs baseline
    geomean_regless: float
    geomean_no_compressor: float
    geomean_rfv: float
    geomean_rfh: float


def fig16_runtime(
    runner: SuiteRunner, names: Optional[Sequence[str]] = None
) -> RuntimeResult:
    names = _names(names)
    runner.prefetch(
        names, backends=("baseline", "regless", "regless-nc", "rfv", "rfh")
    )
    per: Dict[str, float] = {}
    ratios = {b: [] for b in ("regless", "regless-nc", "rfv", "rfh")}
    for name in names:
        base = runner.run(name, "baseline")
        for b in ratios:
            res = runner.run(name, b)
            ratios[b].append(res.cycles / base.cycles)
        per[name] = ratios["regless"][-1]
    return RuntimeResult(
        per_benchmark=per,
        geomean_regless=geomean(ratios["regless"]),
        geomean_no_compressor=geomean(ratios["regless-nc"]),
        geomean_rfv=geomean(ratios["rfv"]),
        geomean_rfh=geomean(ratios["rfh"]),
    )


# ---------------------------------------------------------------------------
# Figure 17 — preload service location
# ---------------------------------------------------------------------------


def fig17_preload_location(
    runner: SuiteRunner, names: Optional[Sequence[str]] = None
) -> Dict[str, Dict[str, float]]:
    """benchmark -> fraction of preloads served from each location.

    Launch-constant preloads (values synthesized by the launch mechanism)
    are folded into the compressor column, as they are pattern-served."""
    names = _names(names)
    runner.prefetch(names, backends=("regless",))
    result: Dict[str, Dict[str, float]] = {}
    for name in names:
        res = runner.run(name, "regless")
        c = res.stats.counters
        total = max(1.0, c.get("preloads", 0.0))
        result[name] = {
            "osu": c.get("preload_src_osu", 0.0) / total,
            "compressor": (
                c.get("preload_src_compressor", 0.0)
                + c.get("preload_src_const", 0.0)
            )
            / total,
            "l1": c.get("preload_src_l1", 0.0) / total,
            "l2dram": c.get("preload_src_l2dram", 0.0) / total,
        }
    return result


# ---------------------------------------------------------------------------
# Figure 18 — RegLess L1 bandwidth
# ---------------------------------------------------------------------------


def fig18_l1_bandwidth(
    runner: SuiteRunner, names: Optional[Sequence[str]] = None
) -> Dict[str, Dict[str, float]]:
    """benchmark -> L1 requests/cycle split into preloads / stores /
    invalidations."""
    names = _names(names)
    runner.prefetch(names, backends=("regless",))
    result: Dict[str, Dict[str, float]] = {}
    for name in names:
        res = runner.run(name, "regless")
        c = res.stats.counters
        cycles = max(1, res.cycles)
        result[name] = {
            "preloads": c.get("l1_preload_req", 0.0) / cycles,
            "stores": (
                c.get("l1_reg_store", 0.0)
            )
            / cycles,
            "invalidations": c.get("l1_inval_req", 0.0) / cycles,
        }
    return result


# ---------------------------------------------------------------------------
# Figure 19 — per-region register statistics
# ---------------------------------------------------------------------------


def fig19_region_registers(
    runner: SuiteRunner, names: Optional[Sequence[str]] = None
) -> Dict[str, Dict[str, float]]:
    """benchmark -> mean preloads / mean concurrent live / stddev live."""
    result: Dict[str, Dict[str, float]] = {}
    for name in _names(names):
        ck = runner.compiled(name)
        result[name] = {
            "preloads": ck.mean_preloads_per_region(),
            "mean_live": ck.mean_live_per_region(),
            "std_live": ck.std_live_per_region(),
        }
    return result


# ---------------------------------------------------------------------------
# Table 2 — region sizes
# ---------------------------------------------------------------------------


def table2_region_sizes(
    runner: SuiteRunner, names: Optional[Sequence[str]] = None
) -> Dict[str, Dict[str, float]]:
    """benchmark -> static instructions per region, dynamic cycles per
    region execution (measured on the RegLess run)."""
    names = _names(names)
    runner.prefetch(names, backends=("regless",))
    result: Dict[str, Dict[str, float]] = {}
    for name in names:
        ck = runner.compiled(name)
        res = runner.run(name, "regless")
        c = res.stats.counters
        executions = max(1.0, c.get("region_executions", 0.0))
        result[name] = {
            "insns": ck.mean_insns_per_region(),
            "cycles": c.get("region_cycles_total", 0.0) / executions,
        }
    return result


# ---------------------------------------------------------------------------
# Extra: per-component GPU energy breakdown (not a numbered paper figure,
# but the decomposition behind Figures 14/15)
# ---------------------------------------------------------------------------


def energy_breakdown(
    runner: SuiteRunner, names: Optional[Sequence[str]] = None
) -> Dict[str, Dict[str, float]]:
    """backend -> mean energy component shares (fractions of that backend's
    own total), averaged across benchmarks."""
    names = _names(names)
    runner.prefetch(names)
    result: Dict[str, Dict[str, float]] = {}
    for backend in ("baseline", "rfh", "rfv", "regless"):
        acc: Dict[str, float] = {}
        for name in names:
            br = runner.run(name, backend).energy
            total = br.total
            for key, value in br.as_dict().items():
                if key == "total":
                    continue
                acc[key] = acc.get(key, 0.0) + value / total
        result[backend] = {k: v / len(names) for k, v in acc.items()}
    return result


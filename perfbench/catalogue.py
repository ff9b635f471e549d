"""The metric catalogue: every metric the benchmark reports.

End-to-end metrics are host-side quantities a user of the grid or the
service sees.  Per-layer metrics come from the traced run; each names the
module it measures and the end-to-end metric, on which workload, it should
move.  Simulated counts repeat exactly for a seed, so they anchor
correctness: a host-only change must leave every one of them identical.

``python3 perfbench/catalogue.py`` prints the catalogue as a table.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class E2E(NamedTuple):
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen before
    #: a change counts as a regression.
    bound: float
    workloads: str
    meaning: str


class Layer(NamedTuple):
    unit: str
    better: str
    layer: str
    moves: str
    meaning: str


END_TO_END: Dict[str, E2E] = {
    "setup_s": E2E(
        "s", "lower", 0.25, "all",
        "set-up of one invocation, median over repetitions of a new "
        "interpreter's start and imports plus the workload's preparation "
        "(grid-cold: input generation, 5 repetitions; grid-warm: input "
        "generation and cache fill, 1; service-mix: daemon boot to a "
        "healthy /healthz, 5)"),
    "runs_per_s": E2E(
        "runs/s", "higher", 0.25, "all",
        "grids: cells completed per second of pass wall time, over every "
        "pass of the run (a host that runs slow for part of a run shifts "
        "this mean in proportion, where a median of pass rates jumps); "
        "service-mix: fresh job runs completed per second of the timed "
        "window (repeat jobs are left out, so the chosen repeat share "
        "does not weight it)"),
    "sim_kips": E2E(
        "kinst/s", "higher", 0.25, "grid-cold, service-mix",
        "thousand warp-instructions simulated per host second, over "
        "executed runs only"),
    "latency_p50_s": E2E(
        "s", "lower", 0.25, "grid-warm, service-mix",
        "grid-warm: one fresh-runner pass over the whole grid; "
        "service-mix: submit to full /result of a fresh job"),
    "latency_p90_s": E2E("s", "lower", 0.25, "grid-warm, service-mix",
                         "as latency_p50_s"),
    "hit_latency_p50_s": E2E(
        "s", "lower", 0.25, "service-mix",
        "submit to full /result of a job repeating an earlier job's runs"),
    "hit_latency_p90_s": E2E("s", "lower", 0.25, "service-mix",
                             "as hit_latency_p50_s"),
    "peak_rss_mb": E2E(
        "MB", "lower", 0.25, "all",
        "peak RSS of the benchmark process plus the largest peak RSS among "
        "the processes it started (kernel high-water marks)"),
    "failed_frac": E2E(
        "fraction", "lower", 0.0, "all",
        "failed, refused (429/503) and wrong-result operations divided by "
        "operations attempted"),
}

#: the end-to-end metrics every workload reports and that are never 0;
#: these are the ones BENCHMARK.json lists.
COMMON = ("setup_s", "runs_per_s", "peak_rss_mb")

_COLD_TP = "runs_per_s and sim_kips on grid-cold"
_WARM_LAT = "latency_p50_s on grid-warm"
_SVC_LAT = "latency_p50_s on service-mix"
_EXACT = "nothing: simulated, must stay identical"

#: ``repro.obs.stalls``: ``issued`` and the 13 stall bins.
STALLS = ("issued", "exited", "barrier", "pipeline", "mem_pending",
          "scoreboard", "occupancy", "rfv_pressure", "cm_inactive",
          "cm_preloading", "osu_port", "mem_slot", "demoted", "issue_width")
SIM_BACKENDS = ("baseline", "rfh", "rfv", "regless", "regless-nc")

PER_LAYER: Dict[str, Layer] = {
    "workloads.build_s": Layer(
        "s", "lower", "workloads, isa", f"{_WARM_LAT}; setup_s",
        "mean seconds per Workload.kernel() build (kernel plus regalloc)"),
    "compiler.compile_s": Layer(
        "s", "lower", "compiler", f"{_WARM_LAT}; flat on grid-cold",
        "mean seconds per compile_kernel call"),
    "compiler.kernel_bytes": Layer(
        "B", "lower", "compiler", _WARM_LAT,
        "mean size of the pickled CompiledKernel"),
    "sim.construct_s": Layer(
        "s", "lower", "sim", _SVC_LAT,
        "mean seconds per GPU(...) construction"),
    "sim.run_s": Layer(
        "s", "lower", "sim", _COLD_TP,
        "mean seconds per GPU.run, region-JIT arming included"),
    **{f"sim.run_s.{b}": Layer(
        "s", "lower", "sim, regfile, regless", _COLD_TP,
        f"mean GPU.run seconds of the {b} cells of bfs, nw and hotspot; "
        "a storage layer's host cost is its excess over the baseline")
       for b in SIM_BACKENDS},
    "sim.host_ns_per_cycle": Layer(
        "ns/cycle", "lower", "sim, mem", _COLD_TP,
        "GPU.run host ns per simulated cycle on memory-bound cells "
        "(fast-forward, event wheel, memory pumps)"),
    "sim.host_us_per_kinst": Layer(
        "us/kinst", "lower", "sim", _COLD_TP,
        "GPU.run host us per thousand warp-instructions on compute-dense "
        "cells (the issue loop)"),
    "sim.cycles": Layer("cycles", "lower", "sim", _EXACT,
                        "simulated cycles summed over the run's cells"),
    "sim.warp_instructions": Layer(
        "count", "higher", "sim", _EXACT,
        "warp-instructions summed over the run's cells"),
    **{f"sim.stall.{r}": Layer(
        "warp-cycles", "higher" if r == "issued" else "lower", "sim",
        _EXACT, f"warp-cycles binned as {r}, summed over the run's cells")
       for r in STALLS},
    "regless.osu_read_miss_rate": Layer(
        "fraction", "lower", "regless", _EXACT, "osu_read_miss / osu_read"),
    "regless.preloads": Layer("count", "lower", "regless", _EXACT,
                              "capacity-manager preloads"),
    "regless.compressor_hit_rate": Layer(
        "fraction", "higher", "regless", _EXACT,
        "compressor_hit / compressor_access"),
    "mem.l1_hit_rate": Layer("fraction", "higher", "mem", _EXACT,
                             "l1_hit / (l1_hit + l1_miss)"),
    "mem.l2_hit_rate": Layer("fraction", "higher", "mem", _EXACT,
                             "l2_hit / l2_access"),
    "mem.dram_reads": Layer("count", "lower", "mem", _EXACT,
                            "DRAM read requests"),
    "energy.account_s": Layer(
        "s", "lower", "energy", "runs_per_s on grid-cold (under 1 %)",
        "mean seconds per EnergyModel.gpu_energy"),
    "harness.digest_s": Layer(
        "s", "lower", "harness", _WARM_LAT,
        "mean seconds per cell for kernel_bytes plus run_digest"),
    "cache.get_s": Layer("s", "lower", "harness", _WARM_LAT,
                         "mean seconds per ResultCache.get, unpickle "
                         "included"),
    "cache.hits": Layer("count", "higher", "harness", _WARM_LAT,
                        "ResultCache hits"),
    "cache.misses": Layer("count", "lower", "harness", _WARM_LAT,
                          "ResultCache misses"),
    "cache.corrupt_evictions": Layer("count", "lower", "harness", _WARM_LAT,
                                     "entries evicted as corrupt"),
    "cache.put_s": Layer("s", "lower", "harness", "runs_per_s on grid-cold",
                         "mean seconds per ResultCache.put"),
    "cache.entry_bytes": Layer("B", "lower", "harness",
                               "runs_per_s on grid-cold",
                               "mean size of a cache entry on disk"),
    "parallel.busy_frac": Layer(
        "fraction", "higher", "harness",
        "runs_per_s on grid-cold; latency_p50_s on service-mix",
        "sum of per-run in-worker seconds / (grid wall x jobs)"),
    "parallel.overhead_s": Layer(
        "s", "lower", "harness",
        "runs_per_s on grid-cold; latency_p50_s on service-mix",
        "grid wall time not covered by in-worker run time, per worker"),
    "service.boot_s": Layer("s", "lower", "service", "setup_s on service-mix",
                            "daemon start to a healthy /healthz"),
    **{f"service.{what}_s.{kind}": Layer(
        "s", "lower", "service",
        ("hit_latency_p50_s" if kind == "hit" else "latency_p50_s")
        + " on service-mix",
        f"mean seconds of {desc} for {kind} jobs")
       for what, desc in (("submit", "POST /jobs"),
                          ("first_event", "submit return to first event"),
                          ("result", "GET /result"))
       for kind in ("fresh", "hit")},
    **{f"service.result_bytes.{kind}": Layer(
        "B", "lower", "service",
        ("hit_latency_p50_s" if kind == "hit" else "latency_p50_s")
        + " on service-mix", f"mean /result payload size of {kind} jobs")
       for kind in ("fresh", "hit")},
    **{f"service.{h}_ms.{p}": Layer(
        "ms", "lower", "service", _SVC_LAT,
        f"{p} of the daemon's {src} histogram from /metrics.json, "
        "interpolated inside its 1-2-5 bucket")
       for h, src in (("queue_wait", "service.queue.wait_ms"),
                      ("run_exec", "service.run.exec_ms"))
       for p in ("p50", "p90")},
    "service.admission_deduped": Layer(
        "count", "higher", "service", "hit_latency_p50_s on service-mix",
        "runs attached to an identical in-flight execution"),
    "service.runs_dispatched": Layer(
        "count", "lower", "service", "hit_latency_p50_s on service-mix",
        "runs the daemon sent to its executor"),
    "service.journal_bytes_per_job": Layer(
        "B", "lower", "service", _SVC_LAT,
        "state-dir size divided by jobs submitted"),
    "trace.overhead_frac": Layer(
        "fraction", "lower", "perfbench", "nothing: measurement cost",
        "median traced operation time over median untraced, minus one"),
}

WORKLOADS = ("grid-cold", "grid-warm", "service-mix")

_SERVICE = tuple(n for n in PER_LAYER if n.startswith("service."))
_SIM_BY_KERNEL = tuple(f"sim.run_s.{b}" for b in SIM_BACKENDS) + (
    "sim.host_ns_per_cycle", "sim.host_us_per_kinst")

#: per workload, the per-layer metrics its own traced path does not reach.
#: grid-cold never talks to the service; grid-warm never simulates or
#: starts a pool; service-mix simulates only a three-cell sample in
#: process (not the golden and kernel-class cells the per-backend and
#: normalized sim metrics are defined over) and cannot see the daemon's
#: cache counters.  Every traced run reports every per-layer metric, so
#: these come from the layer probe (``probe.py``) and are listed under
#: ``from_probe`` in the run's record.
OFF_PATH: Dict[str, Tuple[str, ...]] = {
    "grid-cold": _SERVICE,
    "grid-warm": ("sim.construct_s", "sim.run_s") + _SIM_BY_KERNEL + (
        "energy.account_s", "cache.put_s", "parallel.busy_frac",
        "parallel.overhead_s") + _SERVICE,
    "service-mix": _SIM_BY_KERNEL + (
        "cache.hits", "cache.misses", "cache.corrupt_evictions"),
}


def measured_on(name: str) -> Tuple[str, ...]:
    """The workloads whose traced run measures ``name`` on its own path."""
    return tuple(w for w in WORKLOADS if name not in OFF_PATH[w])


def markdown() -> str:
    rows = ["| end-to-end metric | unit | better | bound | workloads | "
            "meaning |", "|---|---|---|---|---|---|"]
    rows += [f"| `{n}` | {m.unit} | {m.better} | {m.bound} | {m.workloads} "
             f"| {m.meaning} |" for n, m in END_TO_END.items()]
    rows += ["", "| per-layer metric | unit | layer | should move | "
             "measured on | meaning |", "|---|---|---|---|---|---|"]
    rows += [f"| `{n}` | {m.unit} | {m.layer} | {m.moves} | "
             f"{', '.join(measured_on(n))} | {m.meaning} |"
             for n, m in PER_LAYER.items()]
    return "\n".join(rows)


def better_of(name: str) -> str:
    entry = END_TO_END.get(name) or PER_LAYER.get(name)
    return entry.better if entry else "lower"


def bound_of(name: str) -> Tuple[float, bool]:
    """The regression bound of a metric and whether it has one."""
    entry = END_TO_END.get(name)
    return (entry.bound, True) if entry else (0.0, False)


if __name__ == "__main__":
    print(markdown())

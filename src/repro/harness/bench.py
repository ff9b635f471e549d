"""``python -m repro.harness bench``: wall-clock benchmark of the harness.

Times the full (benchmark x backend) grid three ways —

1. **serial**   — one process, no disk cache (the seed baseline),
2. **cold**     — parallel ``run_grid`` into an empty result cache,
3. **warm**     — a fresh runner re-reading the now-populated cache,

verifies that the serial and parallel grids produce identical ``cycles``
and counter values per run, and reports per-phase (compile / simulate /
energy) timing aggregates collected in :attr:`RunResult.timings`.

``--json PATH`` additionally writes the machine-readable measurement
(per-run wall-clock, simulated cycles, cycles/sec; see
``docs/performance.md``) — the format committed as ``BENCH_*.json``
snapshots and consumed by the CI perf-smoke step.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..workloads import workload_names
from .cache import ResultCache
from .parallel import RunRequest, resolve_jobs
from .runner import BACKENDS, RunResult, SuiteRunner

__all__ = ["run_bench", "render_bench"]


def _fmt_rate(seconds: float, n: int) -> str:
    return f"{seconds:7.1f}s ({seconds / max(1, n):5.2f}s/run)"


#: jobs values swept by ``--scaling`` (each gets its own cold cache so
#: every sweep point re-executes the full grid).
SCALING_JOBS = (1, 2, 4, 8)


def _scaling_row(jobs: int, runs: int, wall: float, base_wall: float,
                 cpus: int) -> Tuple[Dict[str, object], str]:
    """One ``--scaling`` point as a JSON row and a report line.

    With more workers than CPUs the ratio to ``jobs=1`` measures pool
    overhead, not speedup: such rows carry ``"oversubscribed": true`` and
    say so in the report."""
    ratio = base_wall / max(wall, 1e-9)
    oversubscribed = jobs > cpus
    row: Dict[str, object] = {
        "jobs": jobs,
        "runs": runs,
        "wall_s": round(wall, 3),
        "runs_per_sec": round(runs / max(wall, 1e-9), 3),
        "speedup_vs_jobs1": round(ratio, 2),
        "oversubscribed": oversubscribed,
    }
    label = "  pool overhead, not speedup" if oversubscribed \
        else "x vs jobs=1"
    return row, f"  jobs={jobs}: {_fmt_rate(wall, runs)}   {ratio:5.2f}{label}"


def run_bench(
    names: Optional[Sequence[str]] = None,
    backends: Sequence[str] = BACKENDS,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    json_path: Optional[str] = None,
    scaling: bool = False,
) -> str:
    """Run the three-legged benchmark and return the report text.

    ``json_path`` writes the structured measurement next to the report:
    per-run wall-clock and simulated throughput from the serial leg (the
    leg that actually simulates every run in-process, so its timings are
    comparable across commits) plus the three leg totals.

    ``scaling`` additionally sweeps the parallel cold leg over
    ``SCALING_JOBS`` worker counts and reports runs-vs-jobs-vs-wall-clock
    rows (also emitted into the JSON payload as ``scaling``).
    """
    names = list(names) if names else workload_names()
    backends = list(backends)
    requests = [
        RunRequest.make(name, backend) for name in names for backend in backends
    ]
    n = len(requests)
    jobs = resolve_jobs(jobs)
    cache_dir = cache_dir or tempfile.mkdtemp(prefix="repro-bench-cache-")

    lines = [
        f"harness bench: {len(names)} benchmarks x {len(backends)} backends "
        f"= {n} runs, {jobs} job(s)",
        f"cache: {cache_dir}",
        "",
    ]

    # Leg 1: serial, no cache (the seed execution model), timed per run.
    serial_runner = SuiteRunner(cache=False)
    serial: List[RunResult] = []
    serial_wall: List[float] = []
    t0 = time.perf_counter()
    for r in requests:
        t_run = time.perf_counter()
        serial.append(
            serial_runner.run(r.benchmark, r.backend, osu_entries=r.osu_entries)
        )
        serial_wall.append(time.perf_counter() - t_run)
    t_serial = time.perf_counter() - t0

    # Leg 2: parallel into a cold cache.
    with SuiteRunner(cache=ResultCache(cache_dir), jobs=jobs) as cold_runner:
        t0 = time.perf_counter()
        parallel = cold_runner.run_grid(requests)
        t_cold = time.perf_counter() - t0

    # Leg 3: fresh runner, warm cache.
    with SuiteRunner(cache=ResultCache(cache_dir), jobs=jobs) as warm_runner:
        t0 = time.perf_counter()
        warm = warm_runner.run_grid(requests)
        t_warm = time.perf_counter() - t0

    mismatches = [
        f"  {r.benchmark}/{r.backend}"
        for r, s, p in zip(requests, serial, parallel)
        if s.cycles != p.cycles or s.stats.counters != p.stats.counters
    ]
    warm_mismatches = sum(
        1 for s, w in zip(serial, warm)
        if s.cycles != w.cycles or s.stats.counters != w.stats.counters
    )

    lines.append(f"serial (no cache):   {_fmt_rate(t_serial, n)}")
    lines.append(
        f"parallel cold:       {_fmt_rate(t_cold, n)}"
        f"   {t_serial / max(t_cold, 1e-9):5.2f}x vs serial"
    )
    lines.append(
        f"warm (cached):       {_fmt_rate(t_warm, n)}"
        f"   {t_serial / max(t_warm, 1e-9):5.2f}x vs serial"
    )
    lines.append("")
    if mismatches:
        lines.append(f"MISMATCH: {len(mismatches)} run(s) differ serial vs parallel:")
        lines.extend(mismatches[:10])
    else:
        lines.append(
            "parallel == serial: identical cycles and counters for "
            f"all {n} runs"
        )
    lines.append(
        "warm == serial: "
        + ("identical" if warm_mismatches == 0
           else f"{warm_mismatches} MISMATCH(ES)")
    )

    # Per-phase timing aggregate over the cold leg's fresh executions.
    timed = [r.timings for r in parallel if "simulate" in r.timings]
    if timed:
        lines.append("")
        lines.append(f"per-run phase means over {len(timed)} executed run(s):")
        for phase in ("compile", "simulate", "energy", "total"):
            vals = [t.get(phase, 0.0) for t in timed]
            lines.append(
                f"  {phase:9s} {sum(vals) / len(vals):7.3f}s "
                f"(max {max(vals):6.3f}s)"
            )
    loads = [r.timings["cache_load"] for r in warm if "cache_load" in r.timings]
    if loads:
        lines.append(
            f"  cache_load {sum(loads) / len(loads):6.4f}s mean over "
            f"{len(loads)} warm hit(s)"
        )

    scaling_rows: Optional[List[Dict[str, object]]] = None
    if scaling:
        scaling_rows = []
        lines.append("")
        lines.append(f"scaling sweep ({n} runs per point, cold cache each):")
        base_wall = None
        cpus = os.cpu_count() or 1
        for j in SCALING_JOBS:
            with SuiteRunner(
                cache=ResultCache(tempfile.mkdtemp(prefix="repro-bench-scale-")),
                jobs=j,
            ) as sweep_runner:
                t0 = time.perf_counter()
                sweep_runner.run_grid(requests)
                dt = time.perf_counter() - t0
            if base_wall is None:
                base_wall = dt
            row, text = _scaling_row(j, n, dt, base_wall, cpus)
            scaling_rows.append(row)
            lines.append(text)

    if json_path:
        payload = _bench_payload(
            names, backends, jobs, requests, serial, serial_wall,
            t_serial, t_cold, t_warm,
            serial_parallel_ok=not mismatches,
            warm_ok=warm_mismatches == 0,
            scaling_rows=scaling_rows,
        )
        with open(json_path, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
            f.write("\n")
        lines.append("")
        lines.append(f"wrote {json_path}")
    return "\n".join(lines)


#: per-shard ``batch.*`` counters summed into the grid aggregate.
_BATCH_SUM_KEYS = (
    "cohorts", "batched_warps", "singleton_warps", "scalar_classified",
    "reused_commits", "fresh_passes", "gate_shared", "matrix_warps",
)


def _bench_payload(
    names: Sequence[str],
    backends: Sequence[str],
    jobs: int,
    requests: Sequence[RunRequest],
    serial: Sequence[RunResult],
    serial_wall: Sequence[float],
    t_serial: float,
    t_cold: float,
    t_warm: float,
    serial_parallel_ok: bool,
    warm_ok: bool,
    scaling_rows: Optional[Sequence[Dict[str, object]]] = None,
) -> Dict[str, object]:
    """The ``--json`` measurement record (``BENCH_*.json`` format)."""
    runs = []
    jit_agg = {"armed_shards": 0, "shards": 0, "compile_s": 0.0,
               "steps": 0, "issued_via_jit": 0, "fallback_issued": 0,
               "runs_with_jit": 0, "runs_missing_jit": 0}
    batch_agg: Dict[str, object] = {
        "armed_shards": 0, "shards": 0,
        "runs_with_batch": 0, "runs_missing_batch": 0,
    }
    for k in _BATCH_SUM_KEYS:
        batch_agg[k] = 0
    for req, res, wall in zip(requests, serial, serial_wall):
        # A run replayed from a PR-5-era cache entry predates the ``jit``
        # field entirely, and a ``REPRO_JIT=0`` run records an empty dict;
        # neither may crash the grid aggregate — skip it and count it.
        # An all-fallback run's per-shard entries carry only ``.armed`` and
        # ``.reason`` keys, so every other counter must go through ``get``.
        raw = getattr(res, "jit", None)
        jit = dict(raw) if isinstance(raw, dict) else {}
        if jit:
            jit_agg["runs_with_jit"] += 1
        else:
            jit_agg["runs_missing_jit"] += 1
        for key, val in jit.items():
            if not key.endswith(".armed"):
                continue
            prefix = key[: -len("armed")]
            jit_agg["shards"] += 1
            jit_agg["armed_shards"] += int(bool(val))
            jit_agg["compile_s"] += float(jit.get(prefix + "compile_s", 0.0))
            jit_agg["steps"] += int(jit.get(prefix + "steps", 0))
            jit_agg["issued_via_jit"] += int(jit.get(prefix + "issued", 0))
            jit_agg["fallback_issued"] += int(
                jit.get(prefix + "fallback_issued", 0))
        # Cohort-batching aggregate: same tolerance rules (the field is
        # newer still, and REPRO_BATCH=0 / refused shards record only
        # armed + reason).
        braw = getattr(res, "batch", None)
        batch = dict(braw) if isinstance(braw, dict) else {}
        if batch:
            batch_agg["runs_with_batch"] += 1
        else:
            batch_agg["runs_missing_batch"] += 1
        for key, val in batch.items():
            if not key.endswith(".armed"):
                continue
            prefix = key[: -len("armed")]
            batch_agg["shards"] += 1
            batch_agg["armed_shards"] += int(bool(val))
            for k in _BATCH_SUM_KEYS:
                batch_agg[k] += int(batch.get(prefix + k, 0))
        runs.append({
            "benchmark": req.benchmark,
            "backend": req.backend,
            "wall_s": round(wall, 4),
            "cycles": res.stats.cycles,
            "instructions": res.stats.instructions,
            "warps_done": res.stats.warps_done,
            "cycles_per_sec": round(res.stats.cycles / max(wall, 1e-9), 1),
            "stall_warp_cycles": sum(res.stats.stalls.values()),
            "jit": jit,
            "batch": batch,
        })
    jit_agg["compile_s"] = round(jit_agg["compile_s"], 4)
    # Cohort hit rate: fraction of account-pass warp classifications that
    # landed in a >=2-warp cohort (vs singleton cohorts and warps classified
    # scalar because their stall class isn't coverable).
    denom = (batch_agg["batched_warps"] + batch_agg["singleton_warps"]
             + batch_agg["scalar_classified"])
    batch_agg["cohort_hit_rate"] = (
        round(batch_agg["batched_warps"] / denom, 4) if denom else 0.0
    )
    payload: Dict[str, object] = {
        "benchmarks": list(names),
        "backends": list(backends),
        "jobs": jobs,
        "python": platform.python_version(),
        "legs": {
            "serial_s": round(t_serial, 3),
            "parallel_cold_s": round(t_cold, 3),
            "warm_s": round(t_warm, 3),
        },
        "serial_equals_parallel": serial_parallel_ok,
        "warm_equals_serial": warm_ok,
        "jit": jit_agg,
        "batch": batch_agg,
        "runs": runs,
    }
    if scaling_rows is not None:
        payload["scaling"] = list(scaling_rows)
    return payload


def render_bench(report: str) -> str:
    return report

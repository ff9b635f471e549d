"""The grid workloads: ``grid-cold`` (figure regeneration) and
``grid-warm`` (the cached re-render), untraced and traced.

Both drive ``SuiteRunner.run_grid`` exactly as a fresh CLI invocation
does.  The traced runs time each layer from outside by calling the same
public steps ``SuiteRunner`` takes for one cell, each inside a span.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
import time
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence)

from repro.harness.cache import ResultCache, run_digest
from repro.harness.parallel import RunRequest
from repro.harness.runner import RunResult, SuiteRunner
from repro.obs.stalls import ISSUED, STALL_REASONS
from repro.sim.gpu import GPU

from . import cells as cellmod
from .catalogue import PER_LAYER
from .cells import Cell
from .common import OUT_DIR, Spans, median
from .gate import Gate, check_backends_agree, check_equal, check_finished, view

SETUP_REPEATS = 5
FILLS = 1


def request(cell: Cell) -> RunRequest:
    return RunRequest.make(cell.benchmark, cell.backend, cell.osu_entries,
                           (), **dict(cell.overrides))


def scratch_dir() -> str:
    """A private directory inside the checkout (cache or state dir)."""
    base = os.path.join(OUT_DIR, "tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=base)


def cache_entry_bytes(root: str) -> float:
    sizes = [os.path.getsize(os.path.join(d, f))
             for d, _, files in os.walk(root) for f in files
             if f.endswith(".pkl")]
    return sum(sizes) / len(sizes) if sizes else 0.0


def group_of(cell: Cell):
    """Cells sharing a kernel and configuration (backends may differ)."""
    return (cell.benchmark, cell.osu_entries, cell.overrides)


def check_results(gate: Gate, cells: Sequence[Cell], results: Sequence,
                  reference: Optional[Mapping[Cell, Mapping]] = None
                  ) -> Dict[Cell, dict]:
    """Gate one batch of results: each run finished, equals its reference
    when one is given, and backends of a kernel agree on instructions."""
    views = {}
    for cell, result in zip(cells, results):
        v = view(result.stats)
        key = f"{cell.benchmark}/{cell.backend}"
        errors = check_finished(key, v)
        if reference is not None and cell in reference:
            errors += check_equal(key, v, reference[cell])
        gate.op(errors)
        views[cell] = v
    gate.op(check_backends_agree(
        (group_of(c), c.backend, v) for c, v in views.items()))
    return views


def golden_reference(golden: Mapping) -> Dict[Cell, Mapping]:
    return {c: golden[f"{c.benchmark}/{c.backend}"]
            for c in cellmod.golden_cells()}


# -- simulated counts -----------------------------------------------------


def simulated_metrics(views: Iterable[Mapping]) -> Dict[str, float]:
    """Exact simulated counts summed over distinct cells."""
    cycles = insts = 0
    stalls: Dict[str, int] = {}
    counters: Dict[str, float] = {}
    for v in views:
        cycles += v["cycles"]
        insts += v["instructions"]
        for k, n in v["stalls"].items():
            stalls[k] = stalls.get(k, 0) + n
        for k, n in v["counters"].items():
            counters[k] = counters.get(k, 0.0) + n

    def ratio(num: str, *den: str) -> float:
        d = sum(counters.get(x, 0.0) for x in den)
        return counters.get(num, 0.0) / d if d else 0.0

    out = {"sim.cycles": cycles, "sim.warp_instructions": insts}
    for reason in (ISSUED,) + tuple(STALL_REASONS):
        out[f"sim.stall.{reason}"] = stalls.get(reason, 0)
    out.update({
        "regless.osu_read_miss_rate": ratio("osu_read_miss", "osu_read"),
        "regless.preloads": counters.get("preloads", 0.0),
        "regless.compressor_hit_rate": ratio("compressor_hit",
                                             "compressor_access"),
        "mem.l1_hit_rate": ratio("l1_hit", "l1_hit", "l1_miss"),
        "mem.l2_hit_rate": ratio("l2_hit", "l2_access"),
        "mem.dram_reads": counters.get("dram_read", 0.0),
    })
    return out


def layer_metrics(spans: Spans, cells_by_id: Mapping[str, Cell],
                  views: Mapping[Cell, Mapping]) -> Dict[str, float]:
    """Every per-layer metric, 0 where the workload's path does not reach
    the layer; host times come from the spans."""
    out = {name: 0.0 for name in PER_LAYER}

    def mean(name: str) -> float:
        d = spans.durations(name)
        return sum(d) / len(d) if d else 0.0

    for span, metric in (("workloads.build", "workloads.build_s"),
                         ("compiler.compile", "compiler.compile_s"),
                         ("sim.construct", "sim.construct_s"),
                         ("sim.run", "sim.run_s"),
                         ("energy.account", "energy.account_s"),
                         ("harness.digest", "harness.digest_s"),
                         ("cache.get", "cache.get_s"),
                         ("cache.put", "cache.put_s")):
        out[metric] = mean(span)
    sizes = spans.counts.get("compiler.kernel_bytes", [])
    out["compiler.kernel_bytes"] = sum(sizes) / len(sizes) if sizes else 0.0
    run_s: Dict[Cell, List[float]] = {}
    for r in spans.records:
        if r["name"] == "sim.run" and r["end"] is not None:
            run_s.setdefault(cells_by_id[r["id"]], []).append(
                r["end"] - r["start"])
    for backend in cellmod.BACKENDS:
        times = [t for c, ts in run_s.items() for t in ts
                 if c.backend == backend
                 and c.benchmark in cellmod.GOLDEN_KERNELS]
        out[f"sim.run_s.{backend}"] = sum(times) / len(times) if times else 0.0

    def per_unit(kernels, field: str, scale: float) -> float:
        secs = units = 0.0
        for c, ts in run_s.items():
            if c.benchmark in kernels and c in views:
                secs += sum(ts)
                units += views[c][field] * len(ts)
        return secs * scale / units if units else 0.0

    out["sim.host_ns_per_cycle"] = per_unit(
        ("bfs",) + cellmod.MEMORY_BOUND, "cycles", 1e9)
    out["sim.host_us_per_kinst"] = per_unit(
        ("hotspot",) + cellmod.COMPUTE_DENSE, "instructions", 1e9)
    out.update(simulated_metrics(views.values()))
    return out


# -- the public steps of one cell ------------------------------------------


def traced_cell(runner: SuiteRunner, cell: Cell, spans: Spans,
                prepared: set, simulate: bool = True):
    """One cell through the steps ``SuiteRunner`` takes, each in a span:
    kernel build and compile (first use of the kernel in this runner),
    digest, cache lookup, then, when ``simulate``, GPU construction, run,
    energy accounting and cache write.  Returns the cached result or the
    new one."""
    ident = request(cell).identity
    first = cell.benchmark not in prepared
    with spans.span("bench.cell", ident):
        if first:
            with spans.span("workloads.build", ident):
                runner.workload(cell.benchmark).kernel()
            with spans.span("compiler.compile", ident):
                runner.compiled(cell.benchmark)
            prepared.add(cell.benchmark)
        workload = runner.workload(cell.benchmark)
        compiled = runner.compiled(cell.benchmark)
        cfg = runner.config_for(cell.backend, **dict(cell.overrides))
        with spans.span("harness.digest", ident):
            digest = run_digest(
                config=cfg, backend=cell.backend,
                osu_entries=cell.osu_entries,
                workload_name=cell.benchmark, workload_seed=workload.seed,
                kernel_bytes=runner.kernel_bytes(cell.benchmark),
                energy_params=runner.energy_model.params)
        if first:
            spans.count("compiler.kernel_bytes",
                        len(runner.kernel_bytes(cell.benchmark)))
        with spans.span("cache.get", ident):
            cached = runner.cache.get(digest)
        if cached is not None or not simulate:
            return cached
        gc.disable()  # as SuiteRunner does around a simulation
        try:
            with spans.span("sim.construct", ident):
                factory = runner.storage_factory(cell.backend, compiled,
                                                 cell.osu_entries)
                gpu = GPU(cfg, compiled, workload, factory)
            with spans.span("sim.run", ident):
                stats = gpu.run()
        finally:
            gc.enable()
        model = "regless" if cell.backend == "regless-nc" else cell.backend
        with spans.span("energy.account", ident):
            energy = runner.energy_model.gpu_energy(
                stats.counters, stats.cycles, model,
                osu_entries=cell.osu_entries)
        result = RunResult(cell.benchmark, cell.backend, cell.osu_entries,
                           stats, compiled, energy)
        with spans.span("cache.put", ident):
            runner.cache.put(digest, result)
        return result


# -- grid-cold --------------------------------------------------------------


def repeat_setup(make_inputs: Callable[[], object],
                 repeats: int = SETUP_REPEATS) -> tuple:
    """Run a workload's set-up ``repeats`` times; the time of every
    repetition and the last repetition's product."""
    times, product = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        product = make_inputs()
        times.append(time.perf_counter() - t0)
    return times, product


def cold_pass(cells: Sequence[Cell], jobs: int):
    """One figure-regeneration pass: a fresh runner with an empty private
    cache runs the grid over ``jobs`` workers."""
    root = scratch_dir()
    gc.collect()  # start each pass from a clean heap, as a new process does
    try:
        t0 = time.perf_counter()
        runner = SuiteRunner(cache=ResultCache(root), jobs=jobs)
        results = runner.run_grid([request(c) for c in cells], jobs=jobs)
        wall = time.perf_counter() - t0
        return wall, results, cache_entry_bytes(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def grid_cold(seed: int, seconds: float, jobs: int, golden: Mapping,
              trace: bool) -> dict:
    setup, cells = repeat_setup(lambda: cellmod.grid_cold_cells(seed))
    out = cold_run(cells, seconds, jobs, golden_reference(golden), trace)
    out["setup_samples"] = setup
    return out


def cold_run(cells: Sequence[Cell], seconds: float, jobs: int,
             reference: Mapping[Cell, Mapping], trace: bool) -> dict:
    """Passes over ``cells`` for ``seconds`` (traced: one pass, then the
    traced in-process execution).  Cells in ``reference`` are checked
    against it, every later pass against the first."""
    gate = Gate()
    walls: List[float] = []
    done = insts = 0
    started = time.perf_counter()
    # a new pass starts only if it should end within half a pass of the
    # window, so a run lasts about ``seconds`` whatever the pass length
    while not walls or (not trace and time.perf_counter() - started
                        + median(walls) / 2 < seconds):
        wall, results, entry_bytes = cold_pass(cells, jobs)
        walls.append(wall)
        views = check_results(gate, cells, results, reference)
        if len(walls) == 1:
            reference = {**views, **reference}
            busy = sum(r.timings["total"] for r in results)
        done += len(results)
        insts += sum(v["instructions"] for v in views.values())
        del results  # the next pass starts from a heap without them
    out = {
        "gate": gate, "cells": len(cells), "passes": walls, "runs": done,
        "runs_per_s": len(cells) * len(walls) / sum(walls),
        "rate_samples": [len(cells) / w for w in walls],
        "sim_kips": insts / 1000.0 / sum(walls),
    }
    if trace:
        spans = Spans(True)
        layers = cold_traced(cells, spans, seconds, gate, reference)
        layers["parallel.busy_frac"] = busy / (walls[0] * jobs)
        layers["parallel.overhead_s"] = walls[0] - busy / jobs
        layers["cache.entry_bytes"] = entry_bytes
        out.update(layers=layers, spans=spans)
    return out


def cold_traced(cells: Sequence[Cell], spans: Spans, seconds: float,
                gate: Gate, reference: Mapping[Cell, Mapping]) -> dict:
    """In-process traced execution of the cells, each cell also run
    untraced (``SuiteRunner.run``) right before, for the overhead figure.
    Runs whole cells until ``seconds`` have passed, at least one pass."""
    cells_by_id = {request(c).identity: c for c in cells}
    order = sorted(cells, key=lambda c: c.benchmark not in
                   cellmod.GOLDEN_KERNELS)
    traced_s = untraced_s = 0.0
    started = time.perf_counter()
    caches = []
    views = {}
    i = 0
    while i < len(order) or time.perf_counter() - started < seconds:
        if i % len(order) == 0:
            for root in caches:
                shutil.rmtree(root, ignore_errors=True)
            caches = [scratch_dir(), scratch_dir()]
            plain = SuiteRunner(cache=ResultCache(caches[0]))
            traced = SuiteRunner(cache=ResultCache(caches[1]))
            prepared: set = set()
        cell = order[i % len(order)]
        t0 = time.perf_counter()
        plain.run(cell.benchmark, cell.backend, cell.osu_entries,
                  **dict(cell.overrides))
        t1 = time.perf_counter()
        result = traced_cell(traced, cell, spans, prepared)
        t2 = time.perf_counter()
        untraced_s += t1 - t0
        traced_s += t2 - t1
        v = view(result.stats)
        gate.op(check_equal(f"{cell.benchmark}/{cell.backend} traced", v,
                            reference[cell]))
        views[cell] = v
        i += 1
    for root in caches:
        shutil.rmtree(root, ignore_errors=True)
    layers = layer_metrics(spans, cells_by_id, views)
    layers["cache.misses"] = float(i)
    layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return layers


# -- grid-warm --------------------------------------------------------------


def fill(cells: Sequence[Cell], jobs: int):
    """Set-up of grid-warm: simulate every cell into a new private cache."""
    root = scratch_dir()
    runner = SuiteRunner(cache=ResultCache(root), jobs=jobs)
    results = runner.run_grid([request(c) for c in cells], jobs=jobs)
    return root, results


def warm_pass(root: str, cells: Sequence[Cell]):
    """One cached re-render: a fresh runner re-reads the whole grid."""
    gc.collect()  # start each pass from a clean heap, as a new process does
    t0 = time.perf_counter()
    cache = ResultCache(root)
    results = SuiteRunner(cache=cache).run_grid([request(c) for c in cells])
    return time.perf_counter() - t0, results, cache


def grid_warm(seed: int, seconds: float, jobs: int, trace: bool) -> dict:
    cells = cellmod.grid_warm_cells(seed)
    roots: List[str] = []

    def make():
        root, results = fill(cells, jobs)
        roots.append(root)
        return root, results

    try:
        # one fill: at ~10 s it is long enough to time once, and three
        # would make a run's set-up longer than its measurement
        setup, (root, filled) = repeat_setup(make, repeats=FILLS)
        for stale in roots[:-1]:
            shutil.rmtree(stale, ignore_errors=True)
        gate = Gate()
        reference = check_results(gate, cells, filled)
        # a new invocation holds no earlier results, so no pass runs with
        # the fill's or a previous pass's results on the heap (a larger
        # heap slows the collector inside the timed pass)
        del filled
        walls: List[float] = []
        traced_walls: List[float] = []
        spans = Spans(trace)
        hits = misses = corrupt = 0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or len(walls) < 2:
            wall, results, cache = warm_pass(root, cells)
            walls.append(wall)
            hits += cache.hits
            misses += cache.misses
            corrupt += cache.corrupt_evictions
            check_results(gate, cells, results, reference)
            del results, cache
            if trace:
                traced_walls.append(warm_traced(root, cells, spans, gate,
                                                reference))
        out = {"setup_samples": setup, "gate": gate, "cells": len(cells),
               "passes": walls, "runs": len(cells) * len(walls),
               "runs_per_s": len(cells) * len(walls) / sum(walls),
               "rate_samples": [len(cells) / w for w in walls]}
        if trace:
            layers = layer_metrics(
                spans, {request(c).identity: c for c in cells}, reference)
            layers.update({
                "cache.hits": float(hits), "cache.misses": float(misses),
                "cache.corrupt_evictions": float(corrupt),
                "cache.entry_bytes": cache_entry_bytes(root),
                "trace.overhead_frac": median(traced_walls) / median(walls)
                - 1.0,
            })
            out.update(layers=layers, spans=spans)
        return out
    finally:
        for r in roots:
            shutil.rmtree(r, ignore_errors=True)


def warm_traced(root: str, cells: Sequence[Cell], spans: Spans, gate: Gate,
                reference: Mapping[Cell, Mapping]) -> float:
    """A traced re-render: the same steps as a warm ``run_grid``, each
    cell's in spans; returns the pass wall time."""
    gc.collect()
    t0 = time.perf_counter()
    runner = SuiteRunner(cache=ResultCache(root))
    prepared: set = set()
    with spans.span("bench.pass"):
        results = [traced_cell(runner, cell, spans, prepared, simulate=False)
                   for cell in cells]
    wall = time.perf_counter() - t0
    for cell, result in zip(cells, results):
        gate.op(["missing from the cache"] if result is None else
                check_equal(f"{cell.benchmark}/{cell.backend}",
                            view(result.stats), reference[cell]))
    return wall

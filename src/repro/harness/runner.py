"""Suite runner: execute (benchmark x backend x configuration) and memoize.

Every evaluation figure draws on the same grid of simulation runs, so the
runner memoizes results in-process, persists them in a content-addressed
on-disk cache (:mod:`repro.harness.cache` — a warm re-run of the full
figure suite is near-instant), and can fan independent runs out over worker
processes (:mod:`repro.harness.parallel`, via :meth:`SuiteRunner.run_grid`).
The worker pool lives as long as the runner: every grid call reuses the
same processes until :meth:`SuiteRunner.close`.
Backends:

* ``baseline`` — full 2048-entry RF, GTO scheduler.
* ``rfh``      — register-file hierarchy, two-level scheduler (required by
  the technique, and the source of its slowdown).
* ``rfv``      — register-file virtualization, half-size physical RF.
* ``regless``  — the paper's design (512 OSU entries by default).
* ``regless-nc`` — RegLess without the compressor (Figure 16 ablation).
"""

from __future__ import annotations

import gc
import pickle
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from ..compiler.pipeline import CompiledKernel, compile_kernel
from ..energy.model import EnergyBreakdown, EnergyModel
from ..obs.metrics import MetricsRegistry
from ..regfile import BaselineRF, RFHStorage, RFVStorage
from ..regfile.base import OperandStorage
from ..regless import ReglessConfig, ReglessStorage
from ..sim.config import GPUConfig
from ..sim.gpu import SimStats, run_simulation
from ..sim.watchdog import Watchdog, WatchdogConfig
from ..workloads import RODINIA, Workload, make_workload, workload_names
from .cache import ResultCache, cache_enabled, digest_from_text, key_text
from .parallel import (
    FaultPolicy,
    GridFailure,
    InProcessWorkers,
    RunFeed,
    RunOutcome,
    RunRequest,
    WorkerPool,
    resolve_jobs,
    run_requests_resilient,
)

__all__ = ["BACKENDS", "RunResult", "RunRequest", "SuiteRunner"]

BACKENDS = ("baseline", "rfh", "rfv", "regless")

#: anything :meth:`SuiteRunner.run_grid` accepts as one grid cell.
RequestLike = Union[RunRequest, Tuple, Dict]


@dataclass
class RunResult:
    """One simulation run plus its energy accounting.

    It carries no compiled kernel (:meth:`SuiteRunner.compiled` gives a
    benchmark's), so a disk-cache entry and a worker's reply are the
    result as is."""

    benchmark: str
    backend: str
    osu_entries: int
    stats: SimStats
    energy: EnergyBreakdown = field(repr=False)
    #: per-phase wall-clock seconds: ``compile`` / ``simulate`` / ``energy``
    #: / ``total`` (and ``cache_load`` when served from the disk cache).
    timings: Dict[str, float] = field(default_factory=dict, repr=False)

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def rf_energy(self) -> float:
        return self.energy.rf

    @property
    def gpu_energy(self) -> float:
        return self.energy.total


class SuiteRunner:
    """Runs and memoizes the benchmark/backend grid.

    ``cache`` selects the persistent result store: ``None`` uses the
    default location unless ``REPRO_CACHE=0``; ``False`` disables it; a
    :class:`~repro.harness.cache.ResultCache` uses that store.  ``jobs``
    is the default worker count for :meth:`run_grid` (``None`` defers to
    ``REPRO_JOBS`` / CPU count at call time).

    ``watchdog`` (a :class:`~repro.sim.watchdog.WatchdogConfig`) attaches
    a fresh forward-progress monitor to every simulation this runner
    executes — in-process and in workers alike.  ``policy`` (a
    :class:`~repro.harness.parallel.FaultPolicy`) makes :meth:`run_grid`
    resilient: per-run timeouts, retries with backoff, dead-worker
    recovery, quarantine.  Harness-level events (cache evictions, grid
    retries/failures) land in ``self.metrics`` under ``harness.*``.

    Grid calls that fan out share one
    :class:`~repro.harness.parallel.WorkerPool`, forked at the first such
    call and kept until :meth:`close` (or the runner's end);
    ``with SuiteRunner(...) as runner:`` closes it on exit.
    """

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        energy_model: Optional[EnergyModel] = None,
        cache: Union[ResultCache, bool, None] = None,
        jobs: Optional[int] = None,
        watchdog: Optional[WatchdogConfig] = None,
        policy: Optional[FaultPolicy] = None,
    ):
        self.base_config = config or GPUConfig()
        self.energy_model = energy_model or EnergyModel()
        if cache is None:
            self.cache: Optional[ResultCache] = (
                ResultCache() if cache_enabled() else None
            )
        elif cache is False:
            self.cache = None
        elif cache is True:
            self.cache = ResultCache()
        else:
            self.cache = cache
        self.jobs = jobs
        self.watchdog = watchdog
        self.policy = policy
        #: harness-level observability (``harness.cache.*``,
        #: ``harness.grid.*``) — distinct from per-run simulation metrics.
        self.metrics = MetricsRegistry()
        self._metrics_scope = self.metrics.scope("harness")
        if self.cache is not None:
            self.cache.metrics = self._metrics_scope.scope("cache")
        self._workloads: Dict[str, Workload] = {}
        self._compiled: Dict[str, CompiledKernel] = {}
        self._kernel_bytes: Dict[str, bytes] = {}
        #: (backend, sorted override items) -> (effective config, its key
        #: text); see :meth:`_config`.
        self._configs: Dict[Tuple, Tuple[GPUConfig, str]] = {}
        self._energy_text = key_text(self.energy_model.params)
        self._runs: Dict[Tuple, RunResult] = {}
        self._pool: Optional[WorkerPool] = None

    def __enter__(self) -> "SuiteRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the runner's worker processes.  The runner stays usable;
        a later grid call that fans out forks a new pool."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def _pool_for(self, jobs: int) -> WorkerPool:
        """The runner's pool, replaced only when the worker count changes."""
        if self._pool is not None and self._pool.jobs != jobs:
            self.close()
        if self._pool is None:
            self._pool = WorkerPool(
                self.base_config, self.energy_model.params, jobs,
                self.watchdog,
            )
        return self._pool

    # -- building blocks -------------------------------------------------------

    def workload(self, name: str) -> Workload:
        if name not in self._workloads:
            self._workloads[name] = make_workload(name)
        return self._workloads[name]

    def compiled(self, name: str) -> CompiledKernel:
        if name not in self._compiled:
            self._compiled[name] = compile_kernel(self.workload(name).kernel())
        return self._compiled[name]

    def kernel_bytes(self, name: str) -> bytes:
        """Serialized compiled kernel.  Not a cache-key ingredient (the
        code salt covers the compiler); kept only for
        ``perfbench/grid.py::traced_cell``, which reports its size and
        passes it to :func:`~repro.harness.cache.run_digest`."""
        if name not in self._kernel_bytes:
            self._kernel_bytes[name] = pickle.dumps(
                self.compiled(name), protocol=pickle.HIGHEST_PROTOCOL
            )
        return self._kernel_bytes[name]

    def config_for(self, backend: str, **overrides) -> GPUConfig:
        return self._config(backend, tuple(sorted(overrides.items())))[0]

    def _config(self, backend: str,
                overrides: Tuple[Tuple[str, Any], ...]) -> Tuple[GPUConfig, str]:
        """The effective config of ``backend`` under ``overrides`` (sorted
        ``(field, value)`` items, as in :class:`RunRequest`) and the text
        it adds to a cache key.  A grid asks for the same few
        configurations once per cell, so each is built once per runner."""
        entry = self._configs.get((backend, overrides))
        if entry is None:
            cfg = self.base_config
            if backend in ("rfh", "rfv"):
                # Both prior techniques are evaluated with the two-level
                # warp scheduler they were designed around (paper section
                # 6.4).
                cfg = cfg.with_(scheduler="two_level")
            if overrides:
                cfg = cfg.with_(**dict(overrides))
            entry = self._configs[(backend, overrides)] = (cfg, key_text(cfg))
        return entry

    def storage_factory(
        self,
        backend: str,
        compiled: CompiledKernel,
        osu_entries: int = 512,
    ) -> Callable[[int, int], OperandStorage]:
        if backend == "baseline":
            return lambda sm, sh: BaselineRF()
        if backend == "rfh":
            return lambda sm, sh: RFHStorage(compiled)
        if backend == "rfv":
            return lambda sm, sh: RFVStorage(compiled)
        if backend == "regless":
            rcfg = ReglessConfig(osu_entries_per_sm=osu_entries)
            return lambda sm, sh: ReglessStorage(compiled, rcfg)
        if backend == "regless-nc":
            rcfg = ReglessConfig(
                osu_entries_per_sm=osu_entries, compressor_enabled=False
            )
            return lambda sm, sh: ReglessStorage(compiled, rcfg)
        raise ValueError(f"unknown backend {backend!r}")

    # -- keys ------------------------------------------------------------------

    @staticmethod
    def _memo_key(request: RunRequest) -> Tuple:
        return (
            request.benchmark,
            request.backend,
            request.osu_entries,
            request.window_series,
            request.overrides,
        )

    def _digest(self, request: RunRequest) -> str:
        """The run's cache key: its inputs only, so computing it builds
        and compiles nothing.  Equal to
        :func:`~repro.harness.cache.run_digest` over the run's config and
        energy parameters, whose key texts come from this runner."""
        return digest_from_text(
            self._config(request.backend, request.overrides)[1],
            request.backend,
            request.osu_entries,
            request.benchmark,
            self.workload(request.benchmark).seed,
            self._energy_text,
            request.window_series,
        )

    def _install(self, request: RunRequest, result: RunResult,
                 store: bool = True) -> RunResult:
        self._runs[self._memo_key(request)] = result
        if store and self.cache is not None:
            self.cache.put(self._digest(request), result)
        return result

    def _lookup(self, request: RunRequest) -> Optional[RunResult]:
        """The memoized result, else the disk-cached one (then memoized)."""
        hit = self._runs.get(self._memo_key(request))
        if hit is None and self.cache is not None:
            digest = self._digest(request)
            t0 = time.perf_counter()
            hit = self.cache.get(digest)
            if hit is not None:
                hit.timings["cache_load"] = time.perf_counter() - t0
                self._install(request, hit, store=False)
        return hit

    @staticmethod
    def _check_request(request: RunRequest) -> None:
        """Reject an unknown backend or benchmark before any lookup or
        dispatch: run, it would fail every attempt of the retry loop."""
        if request.backend not in BACKENDS + ("regless-nc",):
            raise ValueError(f"unknown backend {request.backend!r}")
        if request.benchmark not in RODINIA:
            raise ValueError(f"unknown benchmark {request.benchmark!r}")

    # -- main entry points ----------------------------------------------------

    def run(
        self,
        benchmark: str,
        backend: str,
        osu_entries: int = 512,
        window_series: Tuple[str, ...] = (),
        **config_overrides,
    ) -> RunResult:
        request = RunRequest.make(
            benchmark, backend, osu_entries, window_series, **config_overrides
        )
        self._check_request(request)
        hit = self._lookup(request)
        if hit is not None:
            return hit
        return self._install(request, self.execute(request))

    def execute(self, request: RunRequest) -> RunResult:
        """Compile + simulate + account energy, with per-phase timings.

        Neither consults nor fills the memo or the disk cache."""
        t_start = time.perf_counter()
        workload = self.workload(request.benchmark)
        compiled = self.compiled(request.benchmark)
        t_compiled = time.perf_counter()
        cfg = self._config(request.backend, request.overrides)[0]
        factory = self.storage_factory(
            request.backend, compiled, request.osu_entries
        )
        # The simulator allocates millions of short-lived objects and keeps
        # no reference cycles; pausing the cyclic GC for the run avoids
        # collector sweeps interrupting the hot loop.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        # A watchdog holds per-run progress state, so every run gets a
        # fresh one built from the runner's config.
        watchdog = Watchdog(self.watchdog) if self.watchdog else None
        try:
            stats = run_simulation(
                cfg, compiled, workload, factory,
                window_series=request.window_series,
                watchdog=watchdog,
            )
        finally:
            if gc_was_enabled:
                gc.enable()
        t_simulated = time.perf_counter()
        model_backend = (
            "regless" if request.backend == "regless-nc" else request.backend
        )
        energy = self.energy_model.gpu_energy(
            stats.counters, stats.cycles, model_backend,
            osu_entries=request.osu_entries,
        )
        t_done = time.perf_counter()
        return RunResult(
            benchmark=request.benchmark,
            backend=request.backend,
            osu_entries=request.osu_entries,
            stats=stats,
            energy=energy,
            timings={
                "compile": t_compiled - t_start,
                "simulate": t_simulated - t_compiled,
                "energy": t_done - t_simulated,
                "total": t_done - t_start,
            },
        )

    # -- grid execution --------------------------------------------------------

    @staticmethod
    def _normalize(request: RequestLike) -> RunRequest:
        if isinstance(request, RunRequest):
            return request
        if isinstance(request, dict):
            return RunRequest.make(**request)
        return RunRequest.make(*request)

    def run_grid(
        self,
        requests: Iterable[RequestLike],
        jobs: Optional[int] = None,
    ) -> List[RunResult]:
        """Run every grid cell, fanning cache misses out over workers.

        ``requests`` may mix :class:`RunRequest` objects,
        ``(benchmark, backend[, osu_entries])`` tuples, and keyword dicts.
        Results come back in request order and are memoized exactly as if
        produced by :meth:`run`, so follow-up serial :meth:`run` calls are
        hits.  Runs go through :meth:`run_grid_outcomes`: completed runs
        are installed in the memo/cache even when others fail, and a
        :class:`~repro.harness.parallel.GridFailure` carrying every
        per-run :class:`~repro.harness.parallel.RunOutcome` is raised if
        any request could not complete.
        """
        outcomes = self.run_grid_outcomes(requests, jobs=jobs)
        if any(not o.ok for o in outcomes):
            raise GridFailure(outcomes)
        return [o.result for o in outcomes]  # type: ignore[misc]

    def run_grid_outcomes(
        self,
        requests: Iterable[RequestLike],
        jobs: Optional[int] = None,
        on_outcome: Optional[Callable[[int, RunOutcome], None]] = None,
        feed: Optional[RunFeed] = None,
    ) -> List[RunOutcome]:
        """Resilient grid execution: one terminal
        :class:`~repro.harness.parallel.RunOutcome` per request, never an
        exception for per-run failures.

        Memo/cache hits come back as ``ok`` outcomes with zero attempts;
        identical misses run once.  Every miss goes through
        :func:`~repro.harness.parallel.run_requests_resilient` under the
        runner's fault policy (retries, backoff, quarantine) and watchdog
        config.  With one effective worker, or a single miss, and no
        ``feed``, the loop runs them in this process
        (:class:`~repro.harness.parallel.InProcessWorkers`: no per-run
        timeout); otherwise on the runner's pool.  Successful runs are
        installed in the memo and disk cache regardless of how the rest
        of the grid fared, so partial results always survive.

        ``feed`` (a :class:`~repro.harness.parallel.RunFeed`) lets the
        caller add requests while the call runs; they get the next
        indices, in push order, and the returned list covers them too.  A
        call with a feed always runs on the pool, and closes the feed
        once it has nothing left to run.

        ``on_outcome(index, outcome)`` fires the moment each request
        reaches its terminal outcome — hits immediately, executed runs as
        they complete (out of request order), duplicates when their
        primary resolves.  Successful results are already installed in
        the memo/disk cache by the time the callback sees them, so a
        streaming consumer observes the same state a later ``run`` would.
        """
        reqs = [self._normalize(r) for r in requests]
        for req in reqs:
            self._check_request(req)
        deliver = on_outcome if on_outcome is not None else (lambda i, o: None)
        outcomes: List[Optional[RunOutcome]] = []
        #: executing request -> the indices waiting for its outcome
        awaiting: Dict[RunRequest, List[int]] = {}

        def admit(req: RunRequest) -> bool:
            """Number ``req``; settle it from the memo or cache, or attach
            it to an identical pending run.  True iff it must execute."""
            i = len(outcomes)
            outcomes.append(None)
            hit = self._lookup(req)
            if hit is not None:
                outcomes[i] = RunOutcome(req, RunOutcome.OK, hit)
                deliver(i, outcomes[i])
                return False
            first = req not in awaiting
            awaiting.setdefault(req, []).append(i)
            return first

        def resolve(out: RunOutcome) -> None:
            if out.ok and out.result is not None:
                self._install(out.request, out.result)
            for i in awaiting.pop(out.request):
                outcomes[i] = out
                deliver(i, out)

        misses = [req for req in reqs if admit(req)]
        jobs_n = resolve_jobs(jobs if jobs is not None else self.jobs)
        in_process = feed is None and (jobs_n <= 1 or len(misses) <= 1)
        run_requests_resilient(
            InProcessWorkers(self) if in_process else self._pool_for(jobs_n),
            misses,
            policy=self.policy,
            metrics=self._metrics_scope,
            on_outcome=lambda _, out: resolve(out),
            feed=feed,
            admit=admit,
        )
        return outcomes  # type: ignore[return-value]

    def prefetch(
        self,
        names: Optional[Sequence[str]] = None,
        backends: Sequence[str] = BACKENDS,
        osu_entries: Sequence[int] = (512,),
        window_series: Tuple[str, ...] = (),
        jobs: Optional[int] = None,
        **config_overrides,
    ) -> List[RunResult]:
        """Warm the (benchmark x backend x capacity) grid in parallel."""
        requests = [
            RunRequest.make(
                name, backend, entries, window_series, **config_overrides
            )
            for name in (list(names) if names else workload_names())
            for backend in backends
            for entries in osu_entries
        ]
        return self.run_grid(requests, jobs=jobs)

    def no_rf_energy(self, benchmark: str) -> float:
        """The "No RF" upper bound (Figure 15): baseline timing with a
        register file that consumes no energy."""
        base = self.run(benchmark, "baseline")
        return base.gpu_energy - base.rf_energy

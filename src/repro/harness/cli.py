"""Command-line entry point: ``python -m repro.harness <experiment>``.

Examples::

    python -m repro.harness fig16                 # run-time comparison
    python -m repro.harness fig17 --names bfs nw  # subset of benchmarks
    python -m repro.harness all                   # every experiment
    python -m repro.harness all --jobs 8          # fan runs over 8 workers
    python -m repro.harness fig16 --profile       # cProfile hotspots
    python -m repro.harness stalls bfs nw         # warp-cycle stall breakdown
    python -m repro.harness trace bfs --perfetto  # Chrome-trace JSON export
    python -m repro.harness seeds                 # seed-stability study
    python -m repro.harness all --timeout 300 --retries 2   # resilient sweep

Worker count defaults to ``REPRO_JOBS`` or the CPU count; results persist
in the cache described in :mod:`repro.harness.cache` unless ``--no-cache``
(or ``REPRO_CACHE=0``) is given.

``--timeout``/``--retries`` turn on the resilience layer
(docs/robustness.md): per-run watchdog + wall-clock deadline, retries with
backoff, dead-worker recovery.  A sweep that still cannot complete prints
the per-run outcome summary and exits with status 3 — completed runs stay
cached, so the re-run only repeats the failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import experiments as ex
from . import report
from ..sim.watchdog import WatchdogConfig
from .parallel import FaultPolicy, GridFailure
from .runner import BACKENDS, SuiteRunner
from .export import export_all
from .robustness import render_robustness, seed_robustness
from .validate import render_claims, validate_claims

__all__ = ["main"]

_RENDER = {
    "fig2": (ex.fig2_working_set, report.render_fig2),
    "fig3": (ex.fig3_backing_store, report.render_fig3),
    "fig5": (ex.fig5_liveness_seams, report.render_fig5),
    "fig11": (None, None),  # special-cased: no runner needed
    "fig12": (ex.fig12_power, report.render_fig12),
    "fig13": (ex.fig13_pareto, report.render_fig13),
    "fig14": (ex.fig14_rf_energy, report.render_fig14),
    "fig15": (ex.fig15_gpu_energy, report.render_fig15),
    "fig16": (ex.fig16_runtime, report.render_fig16),
    "fig17": (ex.fig17_preload_location, report.render_fig17),
    "fig18": (ex.fig18_l1_bandwidth, report.render_fig18),
    "fig19": (ex.fig19_region_registers, report.render_fig19),
    "table2": (ex.table2_region_sizes, report.render_table2),
    "breakdown": (ex.energy_breakdown, report.render_breakdown),
}

_NAMED = ("fig2", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
          "table2", "breakdown")


def run_experiment(name: str, runner: SuiteRunner,
                   names: Optional[List[str]] = None) -> str:
    if name == "fig11":
        return report.render_fig11(ex.fig11_area())
    fn, render = _RENDER[name]
    if name in _NAMED:
        # Keyword, not positional: some experiments (fig13) take other
        # parameters before ``names``.
        return render(fn(runner, names=names))
    return render(fn(runner))


#: every verb ``python -m repro.harness`` accepts.
VERBS = tuple(sorted(_RENDER)) + ("all", "validate", "seeds", "export",
                                  "stalls", "trace", "serve")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the RegLess paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=VERBS,
        help="which table/figure to regenerate ('validate' checks the "
             "paper's claims; 'stalls' prints the warp-cycle stall "
             "breakdown; 'trace' records a pipeline trace; 'seeds' runs "
             "the seed-stability study; 'serve' starts the "
             "simulation-service daemon, see docs/service.md)",
    )
    parser.add_argument(
        "benchmarks",
        nargs="*",
        help="positional benchmark subset (same as --names)",
    )
    parser.add_argument(
        "--names",
        nargs="*",
        default=None,
        help="benchmark subset (default: all 21)",
    )
    parser.add_argument(
        "--out",
        default="results",
        help="output directory for 'export' and 'trace' (default: results/)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS + ("regless-nc",),
        default=None,
        help="restrict 'stalls' to one backend (default: all four) / "
             "pick the 'trace' backend (default: regless)",
    )
    parser.add_argument(
        "--perfetto",
        action="store_true",
        help="for 'trace': write Chrome-trace JSON (open in "
             "https://ui.perfetto.dev) instead of printing text",
    )
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="export format (default: csv)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the run grid "
             "(default: $REPRO_JOBS or CPU count)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent result cache for this invocation",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-run wall-clock deadline; enables the resilient grid "
             "(hung runs are killed and retried) and the in-run watchdog",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per failing run before it is reported (default 2 "
             "when --timeout is given); enables the resilient grid",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the hottest functions",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="for 'serve': bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8787,
        help="for 'serve': TCP port; 0 picks a free port and prints it "
             "(default 8787)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="for 'serve': directory for the persisted job queue — "
             "enables graceful drain/restart (default: in-memory only)",
    )
    parser.add_argument(
        "--batch-runs",
        type=int,
        default=32,
        metavar="N",
        help="for 'serve': max unique runs one scheduler batch takes, "
             "hand-overs included (default 32)",
    )
    parser.add_argument(
        "--compact-every",
        type=int,
        default=256,
        metavar="N",
        help="for 'serve': journal records between snapshot compactions "
             "(default 256)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="for 'serve': default per-job deadline; overdue jobs keep "
             "finished runs and mark the rest 'expired' (default: none)",
    )
    parser.add_argument(
        "--max-queued",
        type=int,
        default=4096,
        metavar="N",
        help="for 'serve': backpressure bound on queued runs; beyond it "
             "submissions are shed with 503 (default 4096)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="for 'serve': consecutive broken batches that open the "
             "executor circuit breaker (default 3)",
    )
    parser.add_argument(
        "--breaker-reset",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="for 'serve': seconds the breaker stays open before a "
             "half-open recovery probe (default 30)",
    )
    args = parser.parse_args(argv)
    # A zero deadline would mean "none" to the retry loop but trip every
    # run in the watchdog, and an infinite one overflows the loop's wait;
    # reject both, and a negative retry budget, here.
    if args.timeout is not None and not 0 < args.timeout < float("inf"):
        parser.error("--timeout must be a positive number of seconds")
    if args.retries is not None and args.retries < 0:
        parser.error("--retries must be 0 or more")
    # A job deadline of 0 would silently mean "none", and a negative or
    # NaN one expires every job at the first sweep.
    if args.deadline is not None and not 0 < args.deadline < float("inf"):
        parser.error("--deadline must be a positive number of seconds")

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return _dispatch(args)
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(25)
    return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    names = args.names if args.names is not None else (args.benchmarks or None)
    policy = None
    watchdog = None
    if args.timeout is not None or args.retries is not None:
        policy = FaultPolicy(
            timeout=args.timeout,
            retries=args.retries if args.retries is not None else 2,
        )
        if args.timeout is not None:
            watchdog = WatchdogConfig(max_wall_seconds=args.timeout)

    if args.experiment == "serve":
        return _serve(args, policy, watchdog)
    runner = SuiteRunner(
        cache=False if args.no_cache else None, jobs=args.jobs,
        policy=policy, watchdog=watchdog,
    )
    try:
        return _dispatch_runner(args, runner, names)
    except GridFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        for outcome in failure.failed:
            print(
                f"  {outcome.request.key}: {outcome.status} after "
                f"{outcome.attempts} attempt(s) — {outcome.error}",
                file=sys.stderr,
            )
        print("completed runs are cached; re-run to retry only the "
              "failures", file=sys.stderr)
        return 3
    finally:
        runner.close()


def _dispatch_runner(args: argparse.Namespace, runner: SuiteRunner,
                     names: Optional[List[str]]) -> int:
    if args.experiment == "stalls":
        backends = [args.backend] if args.backend else list(BACKENDS)
        targets = names or ["bfs", "nw"]
        results = runner.run_grid(
            [(n, b) for n in targets for b in backends]
        )
        data: dict = {}
        for res in results:
            data.setdefault(res.benchmark, {})[res.backend] = res.stats.stalls
        print(report.render_stalls(data))
        return 0
    if args.experiment == "trace":
        return _trace(runner, names or ["bfs"], args.backend or "regless",
                      args.out, args.perfetto)
    if args.experiment == "validate":
        claims = validate_claims(runner, args.names)
        print(render_claims(claims))
        return 0 if all(c.ok for c in claims) else 1
    if args.experiment == "seeds":
        kwargs = {"names": args.names} if args.names else {}
        print(render_robustness(seed_robustness(**kwargs)))
        return 0
    if args.experiment == "export":
        paths = export_all(args.out, runner, args.names, fmt=args.format)
        for path in paths:
            print(f"wrote {path}")
        return 0
    targets = sorted(_RENDER) if args.experiment == "all" else [args.experiment]
    for target in targets:
        print(run_experiment(target, runner, names))
        print()
    return 0


def _serve(args: argparse.Namespace, policy, watchdog) -> int:
    """The ``serve`` verb: run the simulation-service daemon until a
    SIGTERM/SIGINT-triggered graceful drain completes."""
    from ..service import BreakerConfig, ServiceConfig
    from ..service.app import serve as serve_daemon
    from .parallel import resolve_jobs

    state_path = None
    if args.state_dir:
        os.makedirs(args.state_dir, exist_ok=True)
        state_path = os.path.join(args.state_dir, "service-state.json")
    config = ServiceConfig(
        jobs=resolve_jobs(args.jobs),
        max_batch_runs=max(1, args.batch_runs),
        policy=policy,
        watchdog=watchdog,
        state_path=state_path,
        cache=False if args.no_cache else None,
        compact_every=max(1, args.compact_every),
        breaker=BreakerConfig(
            failure_threshold=max(1, args.breaker_threshold),
            reset_timeout=max(0.0, args.breaker_reset),
        ),
        max_queued_runs=max(1, args.max_queued),
        default_deadline=args.deadline,
    )
    return serve_daemon(host=args.host, port=args.port, config=config)


def _trace(runner: SuiteRunner, names: List[str], backend: str,
           out_dir: str, perfetto: bool) -> int:
    """Run each benchmark once with a Tracer attached; print the pipeline
    view or export Chrome-trace JSON for https://ui.perfetto.dev."""
    from ..obs.perfetto import write_chrome_trace
    from ..sim.gpu import GPU
    from ..sim.trace import Tracer

    for name in names:
        compiled = runner.compiled(name)
        cfg = runner.config_for(backend)
        factory = runner.storage_factory(backend, compiled)
        gpu = GPU(cfg, compiled, runner.workload(name), factory)
        tracer = Tracer()
        tracer.attach(gpu)
        gpu.run()
        if perfetto:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"trace_{name}_{backend}.json")
            write_chrome_trace(path, tracer)
            print(f"wrote {path} ({len(tracer.events)} events, "
                  f"{len(tracer.region_spans)} region spans)")
        else:
            print(f"== {name} ({backend}) ==")
            print(tracer.render())
            for span in list(tracer.region_spans)[:50]:
                print(span.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Shared state for the figure-regeneration benchmarks.

All benchmarks share one session-scoped :class:`SuiteRunner`, so simulation
runs are memoized across figures (Figure 14, 15 and 16 all reuse the same
grid of runs).  ``test_figures.py`` prints each regenerated table and its
claims — run with ``pytest benchmarks/ --benchmark-only -s`` to see them —
and records each claim's measured value in ``benchmark.extra_info``.

Set ``REPRO_BENCH_SUBSET=bfs,nw,...`` to restrict the benchmark set while
iterating; the default regenerates every figure over the full 21-benchmark
suite.  The session runner warms the common (benchmark x backend) grid
through :meth:`SuiteRunner.run_grid` first, so the cold part of a session
fans out over ``REPRO_JOBS`` workers (and later sessions hit the
persistent result cache).
"""

import os

import pytest

from repro.harness import SuiteRunner
from repro.workloads import workload_names


def bench_names():
    subset = os.environ.get("REPRO_BENCH_SUBSET")
    if subset:
        return [n.strip() for n in subset.split(",") if n.strip()]
    return workload_names()


@pytest.fixture(scope="session")
def runner():
    r = SuiteRunner()
    # Every figure draws on this grid; prefetching it in parallel up front
    # makes the per-figure benchmarks measure mostly render/aggregate time.
    r.prefetch(
        bench_names(),
        backends=("baseline", "rfh", "rfv", "regless", "regless-nc"),
    )
    return r


@pytest.fixture(scope="session")
def names():
    return bench_names()


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)

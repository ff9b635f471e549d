"""Experiment harness: suite runner, per-figure experiments, reports."""

from .experiments import (
    fig2_working_set,
    fig3_backing_store,
    fig5_liveness_seams,
    fig11_area,
    fig12_power,
    fig13_pareto,
    fig14_rf_energy,
    fig15_gpu_energy,
    fig16_runtime,
    fig17_preload_location,
    fig18_l1_bandwidth,
    fig19_region_registers,
    geomean,
    energy_breakdown,
    table2_region_sizes,
)
from .cache import (
    CACHE_SCHEMA_VERSION,
    CacheCorruption,
    ResultCache,
    cache_root,
    code_salt,
    run_digest,
)
from .faults import FaultSpec, InjectedFault, injected_faults
from .parallel import (
    FaultPolicy,
    GridFailure,
    RunOutcome,
    RunRequest,
    resolve_jobs,
    run_requests_resilient,
)
from .runner import BACKENDS, RunResult, SuiteRunner
from .report import EXPERIMENTS
from .export import EXPORTABLE, export_all, rows_for, to_csv, to_json
from .robustness import SeedStats, render_robustness, seed_robustness
from .validate import Claim, render_claims, validate_claims

__all__ = [
    "EXPERIMENTS",
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
    "geomean",
    "energy_breakdown",
    "table2_region_sizes",
    "BACKENDS",
    "RunResult",
    "RunRequest",
    "RunOutcome",
    "SuiteRunner",
    "CACHE_SCHEMA_VERSION",
    "CacheCorruption",
    "FaultPolicy",
    "FaultSpec",
    "GridFailure",
    "InjectedFault",
    "injected_faults",
    "ResultCache",
    "cache_root",
    "code_salt",
    "run_digest",
    "resolve_jobs",
    "run_requests_resilient",
    "Claim",
    "render_claims",
    "validate_claims",
    "EXPORTABLE",
    "export_all",
    "rows_for",
    "to_csv",
    "to_json",
    "SeedStats",
    "render_robustness",
    "seed_robustness",
]

"""Wire schemas for the simulation service.

Everything that crosses the HTTP boundary goes through this module, in
both directions: grid specs are parsed and validated here
(:func:`parse_job_spec`), and jobs / outcomes / results are rendered to
JSON-safe dicts here (:func:`job_to_wire`, :func:`outcome_to_wire`,
:func:`result_to_wire`).  The service core and the HTTP layer therefore
never hand-roll JSON shapes, and the client can round-trip a request
exactly (:func:`request_from_wire` inverts :func:`request_to_wire`).

A job spec looks like::

    {
      "runs": [
        {"benchmark": "bfs", "backend": "regless", "osu_entries": 512,
         "overrides": {"scheduler": "lrr"}},
        ...
      ],
      "priority": "batch",          # interactive | batch | bulk
      "tags": {"note": "sweep 7"},  # optional, echoed back verbatim
      "deadline_s": 3600            # optional per-job deadline (seconds)
    }
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from ..harness.parallel import RunOutcome, RunRequest, is_positive_finite
from ..harness.runner import BACKENDS
from ..sim.config import GPUConfig
from ..sim.scheduler import SCHEDULERS

if TYPE_CHECKING:  # pragma: no cover
    from ..harness.runner import RunResult
    from .queue import Job

__all__ = [
    "SpecError",
    "job_to_wire",
    "outcome_to_wire",
    "parse_job_spec",
    "request_from_wire",
    "request_to_wire",
    "result_to_wire",
]

#: every backend name the service accepts in a run spec.
WIRE_BACKENDS = BACKENDS + ("regless-nc",)

#: hard cap on runs per submitted job — one grid spec cannot starve the
#: queue regardless of tenant quotas.
MAX_RUNS_PER_JOB = 4096


class SpecError(ValueError):
    """A submitted job spec failed validation (maps to HTTP 400)."""


# -- requests ---------------------------------------------------------------


def request_to_wire(request: RunRequest) -> Dict[str, Any]:
    wire: Dict[str, Any] = {
        "benchmark": request.benchmark,
        "backend": request.backend,
        "osu_entries": request.osu_entries,
    }
    if request.window_series:
        wire["window_series"] = list(request.window_series)
    if request.overrides:
        wire["overrides"] = dict(request.overrides)
    return wire


def request_from_wire(wire: Mapping[str, Any]) -> RunRequest:
    """Validate and build one :class:`RunRequest` from its wire form."""
    if not isinstance(wire, Mapping):
        raise SpecError(f"run spec must be an object, got {type(wire).__name__}")
    unknown = set(wire) - {"benchmark", "backend", "osu_entries",
                           "window_series", "overrides"}
    if unknown:
        raise SpecError(f"unknown run-spec field(s): {sorted(unknown)}")
    benchmark = wire.get("benchmark")
    backend = wire.get("backend")
    if not isinstance(benchmark, str) or not benchmark:
        raise SpecError("run spec needs a 'benchmark' string")
    from ..workloads import workload_names

    if benchmark not in workload_names():
        raise SpecError(
            f"unknown benchmark {benchmark!r} — a typo here would burn "
            f"retry budget in the workers; rejected at admission"
        )
    if backend not in WIRE_BACKENDS:
        raise SpecError(
            f"unknown backend {backend!r} (expected one of {list(WIRE_BACKENDS)})"
        )
    osu_entries = wire.get("osu_entries", 512)
    if not isinstance(osu_entries, int) or isinstance(osu_entries, bool) \
            or osu_entries <= 0:
        raise SpecError(f"osu_entries must be a positive int, got {osu_entries!r}")
    window_series = wire.get("window_series", ())
    if not isinstance(window_series, (list, tuple)) or not all(
        isinstance(w, str) for w in window_series
    ):
        raise SpecError("window_series must be a list of strings")
    overrides = wire.get("overrides", {})
    if not isinstance(overrides, Mapping) or not all(
        isinstance(k, str) for k in overrides
    ):
        raise SpecError("overrides must be an object with string keys")
    _check_overrides(overrides)
    return RunRequest.make(
        benchmark, backend, osu_entries, tuple(window_series), **dict(overrides)
    )


def _check_overrides(overrides: Mapping[str, Any]) -> None:
    """Each override names a ``GPUConfig`` field and holds a JSON scalar
    of its type; a number must be positive, except ``max_cycles``, where
    ``<= 0`` selects the default ceiling.  A bad one would otherwise fail
    inside the executor, where it burns worker attempts, breaks the whole
    batch, other tenants' runs included, or (``working_set_window: 0``)
    spins the run loop forever."""
    kinds = {f.name: type(f.default) for f in fields(GPUConfig)}
    unknown = sorted(set(overrides) - set(kinds))
    if unknown:
        raise SpecError(f"unknown override field(s): {unknown}")
    for name, value in overrides.items():
        kind = kinds[name]
        number = isinstance(value, (int, float)) \
            and not isinstance(value, bool)
        if kind is bool:
            ok = isinstance(value, bool)
        elif kind is int:
            ok = number and isinstance(value, int)
        elif kind is float:
            ok = number and math.isfinite(value)
        else:
            ok = isinstance(value, kind)
        if not ok:
            raise SpecError(
                f"override {name!r} must be {kind.__name__}, got {value!r}"
            )
        if kind in (int, float) and value <= 0 and name != "max_cycles":
            raise SpecError(
                f"override {name!r} must be positive, got {value!r}"
            )
    if "scheduler" in overrides and overrides["scheduler"] not in SCHEDULERS:
        raise SpecError(
            f"unknown scheduler {overrides['scheduler']!r} "
            f"(expected one of {list(SCHEDULERS)})"
        )


def parse_job_spec(
    body: Any,
) -> Tuple[List[RunRequest], str, Dict[str, Any], Optional[float]]:
    """Validate a ``POST /jobs`` body -> (requests, priority, tags,
    deadline seconds or ``None``)."""
    from .queue import Priority

    if not isinstance(body, Mapping):
        raise SpecError("job spec must be a JSON object")
    unknown = set(body) - {"runs", "priority", "tags", "deadline_s"}
    if unknown:
        raise SpecError(f"unknown job-spec field(s): {sorted(unknown)}")
    runs = body.get("runs")
    if not isinstance(runs, Sequence) or isinstance(runs, (str, bytes)) \
            or not runs:
        raise SpecError("job spec needs a non-empty 'runs' array")
    if len(runs) > MAX_RUNS_PER_JOB:
        raise SpecError(
            f"job spec has {len(runs)} runs; the cap is {MAX_RUNS_PER_JOB}"
        )
    requests = [request_from_wire(r) for r in runs]
    priority = body.get("priority", Priority.BATCH)
    if priority not in Priority.NAMES:
        raise SpecError(
            f"unknown priority {priority!r} "
            f"(expected one of {sorted(Priority.NAMES)})"
        )
    tags = body.get("tags", {})
    if not isinstance(tags, Mapping):
        raise SpecError("tags must be an object")
    deadline_s = body.get("deadline_s")
    # json.loads reads the NaN and Infinity literals: NaN would expire the
    # job at once, and Infinity is not valid JSON in its journal record.
    if deadline_s is not None and not is_positive_finite(deadline_s):
        raise SpecError(
            f"deadline_s must be a positive finite number, got {deadline_s!r}"
        )
    return requests, priority, dict(tags), deadline_s


# -- outcomes and results ---------------------------------------------------


def stats_to_wire(stats) -> Dict[str, Any]:
    """A :class:`~repro.sim.gpu.SimStats` as a JSON-safe dict.

    Field names intentionally match the committed golden-grid format
    (``tests/golden/simstats_bfs_nw.json``) so service results diff
    cleanly against goldens."""
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "warps_done": stats.warps_done,
        "warps_total": stats.warps_total,
        "finished": stats.finished,
        "counters": dict(stats.counters),
        "stalls": dict(stats.stalls),
    }


def result_to_wire(result: "RunResult") -> Dict[str, Any]:
    """One finished run's full stats bundle (the ``/result`` payload)."""
    return {
        "benchmark": result.benchmark,
        "backend": result.backend,
        "osu_entries": result.osu_entries,
        "stats": stats_to_wire(result.stats),
        "energy": result.energy.as_dict(),
        "timings": {k: round(v, 6) for k, v in result.timings.items()},
    }


def outcome_to_wire(index: int, outcome: RunOutcome,
                    deduped: bool = False) -> Dict[str, Any]:
    """One run's terminal outcome as an event line (the ``/events`` unit)."""
    wire: Dict[str, Any] = {
        "event": "outcome",
        "index": index,
        "request": request_to_wire(outcome.request),
        "status": outcome.status,
        "attempts": outcome.attempts,
    }
    if deduped:
        wire["deduped"] = True
    if outcome.error:
        wire["error"] = outcome.error
    if getattr(outcome, "diagnostics", None):
        # the watchdog's hang snapshot (JSON-safe by construction) rides
        # the event so hung runs are diagnosable from the client side
        wire["diagnostics"] = outcome.diagnostics
    if outcome.ok and outcome.result is not None:
        wire["run"] = result_to_wire(outcome.result)
    return wire


def job_to_wire(job: "Job", runs: bool = False) -> Dict[str, Any]:
    """Job status summary (``GET /jobs/<id>``); ``runs=True`` adds the
    per-run outcome records collected so far."""
    wire: Dict[str, Any] = {
        "id": job.id,
        "tenant": job.tenant,
        "priority": job.priority,
        "status": job.status,
        "runs_total": len(job.requests),
        "runs_done": len(job.outcomes),
        "runs_ok": sum(1 for o in job.outcomes.values()
                       if o.get("status") == RunOutcome.OK),
        "created": job.created,
        "tags": dict(job.tags),
    }
    if getattr(job, "deadline_s", None):
        wire["deadline_s"] = job.deadline_s
    if job.error:
        wire["error"] = job.error
    if runs:
        wire["runs"] = [job.outcomes.get(i) for i in range(len(job.requests))]
    return wire

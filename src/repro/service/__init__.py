"""Simulation-as-a-service: an async job API over the resilient harness.

The batch harness (:mod:`repro.harness.parallel`, PR 1/5) already
survives worker death, hangs, and cache corruption; this package wraps it
in a long-running daemon so many clients can share one simulation fleet:

* :mod:`repro.service.schemas`   — wire formats (grid specs, outcomes,
  results) and spec validation.
* :mod:`repro.service.quotas`    — per-tenant quotas and token-bucket
  rate limits.
* :mod:`repro.service.admission` — cache-aware admission: identical
  in-flight requests across clients collapse to one execution.
* :mod:`repro.service.queue`     — the job store, priority scheduler,
  and drain/restart persistence (the engine).
* :mod:`repro.service.journal`   — the fsynced write-ahead journal the
  engine persists through (crash consistency, exactly-once replay).
* :mod:`repro.service.supervisor`— batch health probes and the executor
  circuit breaker (load shedding while the pool is broken).
* :mod:`repro.service.app`       — the asyncio HTTP/JSON front end
  (``POST /jobs``, ``GET /jobs/<id>``, ``GET /jobs/<id>/events``,
  ``GET /jobs/<id>/result``, ``GET /metrics``, ``GET /healthz``).
* :mod:`repro.service.client`    — a small blocking client for scripts,
  tests, and CI.

Start one with ``python -m repro.harness serve``; the API and
operational contract are documented in ``docs/service.md``.
"""

from .admission import AdmissionController
from .app import ServiceApp, serve
from .client import ServiceClient, ServiceError
from .journal import JournalStore
from .queue import DrainingError, Job, Priority, ServiceConfig, \
    ServiceEngine
from .quotas import QuotaError, QuotaGate, RateLimited, TenantQuota, TokenBucket
from .schemas import SpecError, job_to_wire, outcome_to_wire, parse_job_spec, \
    request_from_wire, request_to_wire, result_to_wire
from .supervisor import BreakerConfig, BreakerOpen, CircuitBreaker, \
    OverloadedError, Supervisor

__all__ = [
    "AdmissionController",
    "BreakerConfig",
    "BreakerOpen",
    "CircuitBreaker",
    "DrainingError",
    "Job",
    "JournalStore",
    "OverloadedError",
    "Priority",
    "Supervisor",
    "QuotaError",
    "QuotaGate",
    "RateLimited",
    "ServiceApp",
    "ServiceClient",
    "ServiceConfig",
    "ServiceEngine",
    "ServiceError",
    "SpecError",
    "TenantQuota",
    "TokenBucket",
    "job_to_wire",
    "outcome_to_wire",
    "parse_job_spec",
    "request_from_wire",
    "request_to_wire",
    "result_to_wire",
    "serve",
]

"""The ``service-mix`` workload: a real ``serve`` daemon under a closed
loop of client threads.

Each client thread is one tenant and waits for every job's full result
before submitting the next.  Fresh jobs take the queue, pool and journal
path; every ``REPEAT_EVERY``-th job resubmits an earlier job's runs and
takes the admission and cache-read path.  The repeat share is a choice,
not a measured traffic mix, so it weights only the ``hit_latency_*``
metrics: ``runs_per_s`` counts fresh runs alone.
"""

from __future__ import annotations

import json
import math
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.harness.cache import ResultCache
from repro.harness.runner import SuiteRunner
from repro.service import ServiceClient, ServiceError

from . import cells as cellmod
from .cells import Cell, JobPlan
from .common import ROOT, Spans, median
from .gate import Gate, check_backends_agree, check_equal, check_finished, view
from .grid import (cache_entry_bytes, group_of, layer_metrics, request,
                   scratch_dir, simulated_metrics, traced_cell)

#: daemon boots in the set-up; the last one serves the load.
BOOTS = 5
BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0
#: HTTP statuses that mean the daemon refused the job.
REFUSED = (429, 503)


class Daemon:
    """One ``python -m repro.harness serve`` subprocess with a private
    state dir (journal on, fsynced) and a private result cache."""

    def __init__(self, jobs: int):
        self.state_dir = scratch_dir()
        self.cache_dir = scratch_dir()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["REPRO_CACHE_DIR"] = self.cache_dir
        self._log = open(os.path.join(self.state_dir, "daemon.log"), "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness", "serve", "--port", "0",
             "--state-dir", self.state_dir, "--jobs", str(jobs)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True)
        try:
            self.port = self._read_port(t0 + BOOT_TIMEOUT)
            client = ServiceClient("127.0.0.1", self.port, tenant="boot",
                                   retries=0)
            while True:
                try:
                    if client.health().get("status") == "ok":
                        break
                except ServiceError:
                    pass
                if time.perf_counter() > t0 + BOOT_TIMEOUT:
                    raise RuntimeError("daemon never became healthy")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            self.remove()
            raise
        self.boot_s = time.perf_counter() - t0

    def _read_port(self, deadline: float) -> int:
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.05)
            if ready:
                line = self.proc.stdout.readline().decode()
                if not line:
                    break
                if "listening on http://" in line:
                    return int(line.rsplit(":", 1)[1])
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"daemon did not start; see {self._log.name}")

    def state_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(d, f))
                   for d, _, files in os.walk(self.state_dir) for f in files
                   if f != "daemon.log")

    def stop(self) -> None:
        """Graceful drain; kill the process group if it does not end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def remove(self) -> None:
        shutil.rmtree(self.state_dir, ignore_errors=True)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


@dataclass
class JobRecord:
    """What one client saw of one job."""

    kind: str  # "fresh" or "hit"
    runs: List[dict]
    reference: Optional[List[dict]] = None
    error: str = ""
    refused: bool = False
    retry_after: Optional[float] = None
    status: str = ""
    latency: float = 0.0
    submit_s: float = 0.0
    first_event_s: float = 0.0
    result_s: float = 0.0
    result_bytes: int = 0
    outcomes: List[dict] = field(default_factory=list)


def run_job(client, runs: List[dict], kind: str, spans: Spans) -> JobRecord:
    """Submit, follow the event stream to the end, fetch the result."""
    rec = JobRecord(kind, runs)
    t0 = time.perf_counter()
    first = None
    try:
        with spans.span("bench.job") as top:
            with spans.span("service.submit") as sub:
                job = client.submit(runs)
            job_id = job["id"]
            for span in (top, sub):
                if span is not None:
                    span["id"] = job_id
            t1 = time.perf_counter()
            with spans.span("service.events", job_id):
                for event in client.events(job_id):
                    if first is None:
                        first = time.perf_counter()
                    if event.get("event") == "job":
                        break
            t2 = time.perf_counter()
            with spans.span("service.result", job_id):
                result = client.result(job_id)
            t3 = time.perf_counter()
    except ServiceError as err:
        rec.error = str(err)
        rec.refused = err.status in REFUSED
        rec.retry_after = err.retry_after
        return rec
    rec.latency = t3 - t0
    rec.submit_s = t1 - t0
    rec.first_event_s = (first if first is not None else t2) - t1
    rec.result_s = t3 - t2
    # the daemon sends json.dumps(payload, sort_keys=True) + "\n"
    rec.result_bytes = len(json.dumps(result, sort_keys=True)) + 1
    rec.status = result["job"]["status"]
    rec.outcomes = result["runs"]
    return rec


def client_loop(client, take: Callable[[], Optional[JobPlan]],
                deadline: float, spans: Spans) -> List[JobRecord]:
    """One closed-loop client: next job only after the last one's result."""
    history: List[JobRecord] = []
    records: List[JobRecord] = []
    while time.perf_counter() < deadline:
        plan = take()
        if plan is None:
            break
        if plan.repeat and history:
            original = history[int(plan.pick * len(history))]
            runs, kind, ref = original.runs, "hit", original.outcomes
        else:
            runs, kind, ref = [c.wire() for c in plan.runs], "fresh", None
        rec = run_job(client, runs, kind, spans)
        rec.reference = ref
        records.append(rec)
        if kind == "fresh" and rec.status == "done":
            history.append(rec)
        if rec.retry_after:
            time.sleep(min(rec.retry_after, 1.0))
    return records


def check_job(rec: JobRecord) -> List[str]:
    if rec.error:
        return [f"{rec.kind} job failed: {rec.error}"]
    errors = [] if rec.status == "done" else [f"job status {rec.status}"]
    for i, outcome in enumerate(rec.outcomes):
        key = f"{rec.kind} job run {i}"
        if outcome.get("status") != "ok" or "run" not in outcome:
            errors.append(f"{key}: status {outcome.get('status')}")
            continue
        stats = view(outcome["run"]["stats"])
        errors += check_finished(key, stats)
        if rec.reference is not None:
            errors += check_equal(key, stats,
                                  view(rec.reference[i]["run"]["stats"]))
    return errors


def _cell(spec: dict) -> Cell:
    return Cell(spec["benchmark"], spec["backend"], spec["osu_entries"],
                tuple(sorted(spec.get("overrides", {}).items())))


def span_cost(n: int = 20000) -> float:
    """Seconds one recorded span costs on this host."""
    spans = Spans(True)
    t0 = time.perf_counter()
    for _ in range(n):
        with spans.span("bench.probe", "x"):
            pass
    return (time.perf_counter() - t0) / n


def _bucket_floor(bound: float) -> float:
    """The 1-2-5 bound below ``bound`` (0.5 below 1, 2 below 5, ...)."""
    if bound <= 0:
        return 0.0
    mantissa = bound / 10 ** math.floor(math.log10(bound) + 1e-9)
    return bound * (0.4 if round(mantissa) == 5 else 0.5)


def bucket_percentile(snapshot: Dict[str, float], path: str,
                      p: float) -> float:
    """A percentile of a daemon histogram with 1-2-5 upper-bound buckets,
    interpolated linearly inside its bucket (0 with no observations).
    An estimate from buckets, so the ten-beyond rule of reported
    end-to-end percentiles does not apply."""
    prefix = path + ".bucket."
    buckets = sorted((float(key[len(prefix):]), count)
                     for key, count in snapshot.items()
                     if key.startswith(prefix) and count)
    total = sum(count for _, count in buckets)
    rank = p * total
    seen = 0.0
    for bound, count in buckets:
        if seen + count >= rank:
            low = _bucket_floor(bound)
            return low + (bound - low) * (rank - seen) / count
        seen += count
    return 0.0


def service_mix(seed: int, seconds: float, jobs: int, trace: bool,
                boots: int = BOOTS) -> dict:
    clients = max(1, min(2, jobs))
    plans = cellmod.service_plans(seed)
    daemons: List[Daemon] = []
    try:
        boot_s = []
        for _ in range(boots):
            if daemons:
                daemons[-1].stop()
            daemons.append(Daemon(jobs))
            boot_s.append(daemons[-1].boot_s)
        daemon = daemons[-1]
        spans = Spans(trace)
        feed: Iterator[JobPlan] = iter(plans)
        lock = threading.Lock()

        def take() -> Optional[JobPlan]:
            with lock:
                return next(feed, None)

        results: List[List[JobRecord]] = [[] for _ in range(clients)]
        deadline = time.perf_counter() + seconds
        started = time.perf_counter()

        def worker(i: int) -> None:
            client = ServiceClient("127.0.0.1", daemon.port,
                                   tenant=f"perfbench-{i}", timeout=120.0)
            try:
                results[i] = client_loop(client, take, deadline, spans)
            except Exception as exc:  # noqa: BLE001 -- counted as a failure
                results[i] = [JobRecord("fresh", [],
                                        error=f"client crashed: {exc!r}")]

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        timed = time.perf_counter() - started
        job_spans = len(spans.records)
        snapshot = ServiceClient("127.0.0.1", daemon.port).metrics("service")
        state_bytes = daemon.state_bytes()
        daemon.stop()
        entry_bytes = cache_entry_bytes(daemon.cache_dir)
    finally:
        for d in daemons:
            d.stop()
            d.remove()

    records = [r for rs in results for r in rs]
    gate = Gate()
    fresh_views: Dict[Cell, dict] = {}
    for rec in records:
        gate.op(check_job(rec))
        if rec.kind == "fresh" and not rec.error:
            for spec, outcome in zip(rec.runs, rec.outcomes):
                if "run" in outcome:
                    fresh_views[_cell(spec)] = view(outcome["run"]["stats"])
    gate.op(check_backends_agree(
        (group_of(c), c.backend, v) for c, v in fresh_views.items()))
    layers = _check_sample(seed, fresh_views, gate, spans)

    ok = [r for r in records if not r.error]
    fresh = [r for r in ok if r.kind == "fresh"]
    hits = [r for r in ok if r.kind == "hit"]
    fresh_runs = sum(len(r.runs) for r in fresh)
    hit_runs = sum(len(r.runs) for r in hits)
    insts = sum(v["instructions"] for v in fresh_views.values())
    out = {
        "setup_samples": boot_s, "gate": gate, "clients": clients,
        "jobs": len(records), "refused": sum(r.refused for r in records),
        "runs": fresh_runs + hit_runs, "fresh_runs": fresh_runs,
        "hit_runs": hit_runs, "seconds_timed": timed,
        "runs_per_s": fresh_runs / timed, "rate_samples": [fresh_runs / timed],
        "hit_runs_per_s": hit_runs / timed,
        "sim_kips": insts / 1000.0 / timed,
        "latency": [r.latency for r in fresh],
        "hit_latency": [r.latency for r in hits],
    }
    if trace:
        def mean(rs: List[JobRecord], attr: str) -> float:
            return sum(getattr(r, attr) for r in rs) / len(rs) if rs else 0.0

        for kind, rs in (("fresh", fresh), ("hit", hits)):
            for attr in ("submit_s", "first_event_s", "result_s",
                         "result_bytes"):
                layers[f"service.{attr}.{kind}"] = mean(rs, attr)
        for name, path in (("queue_wait", "service.queue.wait_ms"),
                           ("run_exec", "service.run.exec_ms")):
            for label, p in (("p50", 0.5), ("p90", 0.9)):
                layers[f"service.{name}_ms.{label}"] = bucket_percentile(
                    snapshot, path, p)
        # the daemon's own in-worker seconds per executed run, as /result
        # reports them
        busy = sum(o["run"]["timings"]["total"] for r in fresh
                   for o in r.outcomes if "run" in o)
        layers["parallel.busy_frac"] = busy / (timed * jobs)
        layers["parallel.overhead_s"] = timed - busy / jobs
        layers["cache.entry_bytes"] = entry_bytes
        layers["service.boot_s"] = median(boot_s)
        layers["service.admission_deduped"] = snapshot.get(
            "service.admission.deduped", 0.0)
        layers["service.runs_dispatched"] = snapshot.get(
            "service.runs.dispatched", 0.0)
        layers["service.journal_bytes_per_job"] = (
            state_bytes / len(records) if records else 0.0)
        # traced and untraced jobs take the same path, so the overhead is
        # the cost of recording the spans themselves
        layers["trace.overhead_frac"] = (
            span_cost() * job_spans / timed)
        out.update(layers=layers, spans=spans)
    return out


def _check_sample(seed: int, fresh_views: Dict[Cell, dict], gate: Gate,
                  spans: Spans) -> Dict[str, float]:
    """Service results equal an in-process run for a seeded sample of the
    fresh cells; traced, the in-process runs give the sim layer times."""
    picked = cellmod.sample(seed, sorted(fresh_views), 3, "service-check")
    root = scratch_dir()
    try:
        runner = SuiteRunner(cache=ResultCache(root))
        prepared: set = set()
        views = {}
        for cell in picked:
            result = traced_cell(runner, cell, spans, prepared)
            views[cell] = view(result.stats)
            gate.op(check_equal(f"{cell.benchmark}/{cell.backend} service",
                                fresh_views[cell], views[cell]))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    layers = layer_metrics(spans, {request(c).identity: c for c in picked},
                           views)
    layers.update(simulated_metrics(fresh_views.values()))
    return layers

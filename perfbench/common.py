"""Shared pieces of the benchmark: statistics, memory sampling, spans,
host record and result output.

Everything here is measurement plumbing; nothing imports ``repro``, so the
statistics and span code are testable without the simulator.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: the seed kept out of every tuning run; a performance claim made with
#: seeds 1..10 must also hold at this one.
HELD_OUT_SEED = 7919

#: environment variables that would change what a workload runs or where
#: its results live; the benchmark refuses to start when any is set.
FORBIDDEN_ENV = ("REPRO_JOBS", "REPRO_CACHE", "REPRO_CACHE_DIR",
                 "REPRO_FAULTS", "REPRO_SERVICE_FAULTS")


# -- statistics -------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> Optional[float]:
    """Nearest-rank ``p`` percentile, or ``None`` when fewer than ten
    samples lie beyond it (the reporting rule for every percentile)."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(p * n - 1e-9))
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of a sample (quartiles as
    :func:`statistics.quantiles` gives them; one sample is its own)."""
    vals = list(values)
    if not vals:
        return {"n": 0}
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"n": len(vals), "median": statistics.median(vals),
            "q1": q1, "q3": q3}


def metric(value: float, unit: str, n: int,
           samples: Optional[Sequence[float]] = None) -> Dict[str, object]:
    """One reported metric: value, unit, sample count and, when the value
    summarises a sample, its median and quartiles."""
    out: Dict[str, object] = {"value": value, "unit": unit, "n": n}
    if samples and len(samples) > 1:
        s = summary(samples)
        out.update(median=s["median"], q1=s["q1"], q3=s["q3"])
    return out


def latency_metrics(prefix: str, samples: Sequence[float]
                    ) -> Dict[str, Dict[str, object]]:
    """``<prefix>_p50_s`` and ``<prefix>_p90_s`` where the sample is big
    enough; a percentile without ten samples beyond it is left out."""
    out = {}
    for label, p in (("p50", 0.5), ("p90", 0.9)):
        value = percentile(samples, p)
        if value is not None:
            out[f"{prefix}_{label}_s"] = metric(value, "s", len(samples),
                                                samples)
    return out


# -- memory -----------------------------------------------------------------


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak RSS among the
    processes it started and waited for (kernel high-water marks, so no
    sampling; a child's count includes its own waited-for children)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- spans ------------------------------------------------------------------


class Spans:
    """In-memory span recorder around calls into the program's layers.

    A span has a name (``<layer>.<what>``), start and end (perf-counter
    seconds), the index of the span that was open when it began on the same
    thread (its parent), and a shared id: the cell's ``RunRequest.identity``
    or the service job id.  Disabled, :meth:`span` costs one attribute test
    and records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: List[Dict[str, object]] = []
        #: counts recorded at the same boundaries: name -> observed values.
        self.counts: Dict[str, List[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.origin = time.perf_counter()

    def span(self, name: str, ident: str = ""):
        if not self.enabled:
            return nullcontext()
        return self._span(name, ident)

    @contextmanager
    def _span(self, name: str, ident: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = {"name": name, "id": ident,
                  "parent": stack[-1] if stack else None,
                  "tid": threading.get_ident(),
                  "start": time.perf_counter(), "end": None}
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            with self._lock:
                self.counts.setdefault(name, []).append(value)

    def durations(self, name: str) -> List[float]:
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name and r["end"] is not None]

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per layer (the span name up to its first dot): calls and self
        seconds, a span's self time being its duration minus the part its
        children cover."""
        child_time = [0.0] * len(self.records)
        for r in self.records:
            if r["parent"] is not None and r["end"] is not None:
                child_time[r["parent"]] += r["end"] - r["start"]
        table: Dict[str, Dict[str, float]] = {}
        for i, r in enumerate(self.records):
            if r["end"] is None:
                continue
            layer = str(r["name"]).split(".", 1)[0]
            row = table.setdefault(layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (r["end"] - r["start"]) - child_time[i]
        return table

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as Chrome-trace JSON, laid out the way
        ``repro.obs.perfetto`` lays out cycle traces (one track per
        thread, ``X`` slices; here one microsecond is one host
        microsecond)."""
        tids: Dict[int, int] = {}
        events: List[Dict[str, object]] = [{
            "name": "process_name", "ph": "M", "ts": 0, "pid": 1, "tid": 0,
            "args": {"name": "perfbench"},
        }]
        for r in self.records:
            if r["end"] is None:
                continue
            if r["tid"] not in tids:
                tids[r["tid"]] = len(tids)
                events.append({"name": "thread_name", "ph": "M", "ts": 0,
                               "pid": 1, "tid": tids[r["tid"]],
                               "args": {"name": f"thread {len(tids) - 1}"}})
            tid = tids[r["tid"]]
            events.append({
                "name": r["name"], "ph": "X",
                "cat": str(r["name"]).split(".")[0],
                "ts": (r["start"] - self.origin) * 1e6,
                "dur": max(0.001, (r["end"] - r["start"]) * 1e6),
                "pid": 1, "tid": tid,
                "args": {"id": r["id"], "parent": r["parent"]},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"generator": "perfbench",
                              "time_unit": "1us == 1 host microsecond"}}


def render_self_times(table: Dict[str, Dict[str, float]]) -> str:
    total = sum(row["self_s"] for row in table.values()) or 1.0
    lines = [f"{'layer':<12} {'calls':>8} {'self s':>10} {'share':>7}"]
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{layer:<12} {int(row['calls']):>8} "
                     f"{row['self_s']:>10.4f} {row['self_s'] / total:>7.1%}")
    return "\n".join(lines)


# -- host record and hygiene ------------------------------------------------


def _git(*args: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout


def host_record() -> Dict[str, object]:
    """Where and on what the numbers were measured."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_sha": sha.strip() if sha else "unknown",
        "git_dirty": bool(status.strip()) if status is not None else None,
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "held_out_seed": HELD_OUT_SEED,
        "model": "unvalidated: the repository holds no hardware reference "
                 "results, so no simulator error figure is given",
    }


def fresh_import_seconds(*modules: str) -> float:
    """Seconds a new interpreter takes to start and import ``modules``:
    the import part of a new invocation's set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([ROOT, os.path.join(ROOT, "src")])
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import " + ", ".join(modules)],
                   env=env, cwd=ROOT, check=True, timeout=120)
    return time.perf_counter() - t0


def hygiene_errors() -> List[str]:
    return [f"{name} is set; it would change what the workload runs"
            for name in FORBIDDEN_ENV if os.environ.get(name)]


# -- output -----------------------------------------------------------------


def flat_records(workload: str, metrics: Dict[str, Dict[str, object]],
                 better: Dict[str, str]) -> Dict[str, List[Dict[str, object]]]:
    """``{name, unit, value}`` lists in the ``customBiggerIsBetter`` /
    ``customSmallerIsBetter`` shape external trend trackers read."""
    out = {"customBiggerIsBetter": [], "customSmallerIsBetter": []}
    for name, m in sorted(metrics.items()):
        key = ("customBiggerIsBetter" if better.get(name) == "higher"
               else "customSmallerIsBetter")
        out[key].append({"name": f"{workload}/{name}", "unit": m["unit"],
                         "value": m["value"]})
    return out


def write_json(path: str, payload: object) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return path


def median(values: Iterable[float]) -> float:
    vals = list(values)
    return statistics.median(vals) if vals else 0.0

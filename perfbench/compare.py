"""Compare two sets of benchmark records.

    python3 perfbench/compare.py OLD NEW

``OLD`` and ``NEW`` are each a record file written by ``perfbench/run.py``
or a directory of them (every ``*.json`` that is not a ``.trace.json``).
Per (workload, metric) it prints each side's median and quartiles over
its runs and labels the difference against the metric's bound:

* ``unchanged``  -- the medians differ by no more than the bound;
* ``better`` / ``worse`` -- they differ by more than the bound;
* ``unresolved`` -- a side's spread (quartile distance over median) is
  wider than the bound, unless every new run reads better (or worse)
  than every old run.

Metrics without a bound (per-layer ones) are printed with their change
and no label.  For traced records it also prints per-layer self-time
deltas, per call.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.catalogue import PER_LAYER, better_of, bound_of  # noqa: E402
from perfbench.common import summary  # noqa: E402


def load(path: str) -> List[dict]:
    paths = ([p for p in sorted(glob.glob(os.path.join(path, "*.json")))
              if not p.endswith(".trace.json")]
             if os.path.isdir(path) else [path])
    records = []
    for p in paths:
        with open(p) as fh:
            record = json.load(fh)
        if isinstance(record, dict) and "workload" in record:
            records.append(record)
    return records


def samples(records: Sequence[dict]
            ) -> Dict[Tuple[str, int], Dict[str, List[float]]]:
    """(workload, trace) -> metric -> one value per run."""
    out: Dict[Tuple[str, int], Dict[str, List[float]]] = {}
    for r in records:
        table = out.setdefault((r["workload"], r["trace"]), {})
        values = {k: m["value"] for k, m in r["metrics"].items()}
        values.update(r.get("layers", {}))
        for name, value in values.items():
            table.setdefault(name, []).append(float(value))
    return out


def spread(values: Sequence[float]) -> float:
    s = summary(values)
    if s["median"] == 0:
        return 0.0 if s["q3"] == s["q1"] else float("inf")
    return (s["q3"] - s["q1"]) / abs(s["median"])


def label(old: Sequence[float], new: Sequence[float], better: str,
          bound: float) -> str:
    """The verdict on one metric (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    mo, mn = summary(old)["median"], summary(new)["median"]
    if max(spread(old), spread(new)) > bound:
        if min(sign * v for v in new) > max(sign * v for v in old):
            return "better"
        if max(sign * v for v in new) < min(sign * v for v in old):
            return "worse"
        return "unresolved"
    if mo == mn:
        return "unchanged"
    change = (mn - mo) / abs(mo) if mo else float("inf")
    if abs(change) <= bound:
        return "unchanged"
    return "better" if sign * change > 0 else "worse"


def _fmt(values: Sequence[float]) -> str:
    s = summary(values)
    return f"{s['median']:.6g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"


def self_time_per_call(records: Sequence[dict]) -> Dict[str, float]:
    calls: Dict[str, float] = {}
    secs: Dict[str, float] = {}
    for r in records:
        for layer, row in r.get("self_time", {}).items():
            calls[layer] = calls.get(layer, 0) + row["calls"]
            secs[layer] = secs.get(layer, 0.0) + row["self_s"]
    return {k: secs[k] / calls[k] for k in secs if calls[k]}


def compare(old: List[dict], new: List[dict]) -> List[str]:
    lines = []
    so, sn = samples(old), samples(new)
    for key in sorted(set(so) & set(sn)):
        workload, trace = key
        runs_old = sum(1 for r in old if (r["workload"], r["trace"]) == key)
        runs_new = sum(1 for r in new if (r["workload"], r["trace"]) == key)
        lines.append(f"== {workload}{' (traced)' if trace else ''}: "
                     f"{runs_old} old run(s), {runs_new} new run(s)")
        for name in sorted(set(so[key]) & set(sn[key])):
            if trace and name not in PER_LAYER:
                continue
            o, n = so[key][name], sn[key][name]
            bound, has_bound = bound_of(name)
            mo = summary(o)["median"]
            change = ((summary(n)["median"] - mo) / abs(mo)) if mo else 0.0
            verdict = (label(o, n, better_of(name), bound) if has_bound
                       else "")
            lines.append(f"  {name:<28} {_fmt(o):>34} -> {_fmt(n):>34} "
                         f"{change:+8.2%} {verdict}")
        if trace:
            to = self_time_per_call(
                [r for r in old if (r["workload"], r["trace"]) == key])
            tn = self_time_per_call(
                [r for r in new if (r["workload"], r["trace"]) == key])
            lines.append("  self time per call, by layer:")
            for layer in sorted(set(to) & set(tn)):
                delta = ((tn[layer] - to[layer]) / to[layer]
                         if to[layer] else 0.0)
                lines.append(f"    {layer:<12} {to[layer] * 1e3:10.4f} ms -> "
                             f"{tn[layer] * 1e3:10.4f} ms {delta:+8.2%}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    if not old or not new:
        print("compare: no benchmark records found", file=sys.stderr)
        return 2
    print("\n".join(compare(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

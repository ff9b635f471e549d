"""Export experiment results to CSV / JSON for external plotting.

The paper's figures are bar charts and scatter plots; this module flattens
every experiment's result into rows so any plotting tool can regenerate
them::

    python -m repro.harness export --out results/
"""

from __future__ import annotations

import csv
import io
import json
from typing import List, Optional, Sequence

from .report import EXPERIMENTS, Row
from .runner import SuiteRunner

__all__ = ["rows_for", "to_csv", "to_json", "export_all", "EXPORTABLE"]

#: the experiments :func:`export_all` writes, in table order.
EXPORTABLE = tuple(e for e, entry in EXPERIMENTS.items() if entry.rows)


def rows_for(experiment: str, runner: SuiteRunner,
             names: Optional[Sequence[str]] = None) -> List[Row]:
    """Flatten one experiment into a list of dict rows."""
    entry = EXPERIMENTS.get(experiment)
    if entry is None or entry.rows is None:
        raise ValueError(f"unknown or unexported experiment {experiment!r}")
    return entry.rows(entry.compute(runner, names))


def to_csv(rows: List[Row]) -> str:
    if not rows:
        return ""
    fields: List[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def to_json(rows: List[Row]) -> str:
    return json.dumps(rows, indent=2, sort_keys=True)


def export_all(
    out_dir: str,
    runner: Optional[SuiteRunner] = None,
    names: Optional[Sequence[str]] = None,
    fmt: str = "csv",
    jobs: Optional[int] = None,
) -> List[str]:
    """Write every experiment to ``out_dir``; returns the file paths.

    Each experiment prefetches its run grid through
    :meth:`SuiteRunner.run_grid`, so a fresh export parallelizes across
    ``jobs`` workers (default: ``REPRO_JOBS`` / CPU count).  Without a
    ``runner`` it builds one and closes its workers before returning."""
    import os

    if runner is None:
        with SuiteRunner(jobs=jobs) as runner:
            return export_all(out_dir, runner, names, fmt)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for experiment in EXPORTABLE:
        rows = rows_for(experiment, runner, names)
        text = to_csv(rows) if fmt == "csv" else to_json(rows)
        path = os.path.join(out_dir, f"{experiment}.{fmt}")
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)
    return written

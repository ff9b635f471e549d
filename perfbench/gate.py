"""The correctness gate: every operation the benchmark times is checked.

Simulated statistics are deterministic, so every check is exact equality.
A check returns a list of error strings (empty means it passed); a
:class:`Gate` counts operations and the ones that failed, which feeds
``failed_frac`` and the command's exit code.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Mapping, Tuple

from .common import ROOT

GOLDEN_PATH = os.path.join(ROOT, "tests", "golden", "simstats_bfs_nw.json")

#: the SimStats fields every comparison covers (the golden's fields plus
#: ``warps_total`` and ``finished`` where both sides carry them).
FIELDS = ("cycles", "instructions", "warps_done", "warps_total", "finished",
          "counters", "stalls")


def load_golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def view(stats) -> Dict[str, object]:
    """A ``SimStats`` object or its wire dict, as a plain comparable dict."""
    if isinstance(stats, Mapping):
        src = stats
        return {f: (dict(src[f]) if f in ("counters", "stalls") else src[f])
                for f in FIELDS if f in src}
    return {"cycles": stats.cycles, "instructions": stats.instructions,
            "warps_done": stats.warps_done, "warps_total": stats.warps_total,
            "finished": stats.finished, "counters": dict(stats.counters),
            "stalls": dict(stats.stalls)}


def check_finished(key: str, stats: Mapping) -> List[str]:
    errors = []
    if not stats.get("finished", False):
        errors.append(f"{key}: run did not finish")
    if stats.get("warps_done") != stats.get("warps_total"):
        errors.append(f"{key}: warps_done {stats.get('warps_done')} != "
                      f"warps_total {stats.get('warps_total')}")
    return errors


def check_equal(key: str, got: Mapping, want: Mapping) -> List[str]:
    """Every field ``want`` carries must equal ``got``'s."""
    errors = []
    for field in FIELDS:
        if field in want and got.get(field) != want[field]:
            errors.append(f"{key}: {field} differs from the reference")
    return errors


def check_backends_agree(
        runs: Iterable[Tuple[Tuple, str, Mapping]]) -> List[str]:
    """All backends of one kernel and configuration retire the same
    warp-instruction count.  ``runs`` yields ``(group, backend, stats)``
    with ``group`` naming the kernel and configuration."""
    seen: Dict[Tuple, Dict[str, int]] = {}
    for group, backend, stats in runs:
        seen.setdefault(group, {})[backend] = stats["instructions"]
    return [f"{group}: backends disagree on warp-instructions {counts}"
            for group, counts in seen.items() if len(set(counts.values())) > 1]


class Gate:
    """Counts checked operations and failures; keeps the first errors."""

    def __init__(self, keep: int = 20):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._keep = keep

    def op(self, errors: List[str]) -> bool:
        """Record one operation (a timed call, or a check across several)
        with its check results; ``True`` if it passed."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:max(0, self._keep - len(self.errors))])
        return not errors

    def merge(self, other: "Gate") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        room = max(0, self._keep - len(self.errors))
        self.errors.extend(other.errors[:room])

    @property
    def correct(self) -> bool:
        return self.failed == 0

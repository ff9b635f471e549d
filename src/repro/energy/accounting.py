"""Event counters shared by the timing simulator and the energy model.

Every hardware model increments named counters (``rf_read``, ``osu_tag``,
``l2_access``, ...); the energy model later converts counts to joules.
Counters are a thin wrapper over a ``dict`` with attribute-style access so
call sites read like hardware events: ``counters.inc("osu_read")``.

One instance per simulated GPU is the simulator's only event store: every
SM, shard and RegLess component counts into it, and ``SimStats.counters``
is its snapshot.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, Tuple

__all__ = ["Counters"]


class Counters:
    """Named integer event counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, float] = defaultdict(float)

    def inc(self, name: str, amount: float = 1.0) -> None:
        self._counts[name] += amount

    def get(self, name: str) -> float:
        return self._counts.get(name, 0.0)

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def items(self) -> Iterator[Tuple[str, float]]:
        return iter(sorted(self._counts.items()))

    def as_dict(self) -> Dict[str, float]:
        return dict(self._counts)

    def total(self, prefix: str) -> float:
        """Sum of every counter whose name starts with ``prefix``."""
        return sum(v for k, v in self._counts.items() if k.startswith(prefix))

    def merge(self, other: "Counters") -> None:
        for name, value in other._counts.items():
            self._counts[name] += value

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in self.items())
        return f"Counters({inner})"

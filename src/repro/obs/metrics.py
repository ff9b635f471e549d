"""Hierarchical counters and histograms for the harness and the service.

A :class:`MetricsRegistry` stores counters and histograms under dotted
paths; a :class:`MetricScope` is a path prefix onto it, so a component
counts under its own subtree (``harness.grid.retries``,
``service.journal.records``) without knowing where it sits.  The harness
runner (``harness.*``) and the service engine (``service.*``) each own
one registry; the service serves its own as ``GET /metrics`` and
``/metrics.json``.

The simulator does not count here: every hardware event goes once into
the flat :class:`~repro.energy.accounting.Counters` that the energy
model, the figure experiments and the goldens read.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["MetricsRegistry", "MetricScope", "bucket_125"]


def bucket_125(value: float) -> float:
    """Round ``value`` up to the next 1-2-5 bucket bound.

    The classic latency-histogram series (… 0.5, 1, 2, 5, 10, 20, 50 …):
    call it at the observe site so a histogram holds a handful of stable
    bucket keys instead of one key per distinct measured value.
    """
    if not value > 0 or value != value or value == float("inf"):
        return 0.0
    bound = 1.0
    while bound < value:
        bound *= 10.0
    while bound * 0.1 >= value:
        bound *= 0.1
    for mult in (0.1, 0.2, 0.5, 1.0):
        if value <= bound * mult:
            return bound * mult
    return bound


class MetricScope:
    """A component-path view onto a :class:`MetricsRegistry`."""

    __slots__ = ("registry", "path")

    def __init__(self, registry: "MetricsRegistry", path: str):
        self.registry = registry
        self.path = path

    def _full(self, name: str) -> str:
        return f"{self.path}.{name}" if self.path else name

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Count an event under this component."""
        self.registry.inc(self._full(name), amount)

    def observe(self, name: str, value: float) -> None:
        self.registry.observe(self._full(name), value)

    def scope(self, name: str) -> "MetricScope":
        """A child scope (``service`` -> ``service.journal``)."""
        return MetricScope(self.registry, self._full(name))

    def __repr__(self) -> str:
        return f"MetricScope({self.path!r})"


class MetricsRegistry:
    """Store of hierarchical counters and histograms."""

    def __init__(self):
        self.counters: Dict[str, float] = {}
        #: histogram: path -> {observed value -> occurrences}.
        self.histograms: Dict[str, Dict[float, int]] = {}

    # -- emission -------------------------------------------------------------

    def inc(self, path: str, amount: float = 1.0) -> None:
        self.counters[path] = self.counters.get(path, 0.0) + amount

    def observe(self, path: str, value: float) -> None:
        hist = self.histograms.setdefault(path, {})
        hist[value] = hist.get(value, 0) + 1

    def scope(self, path: str) -> MetricScope:
        return MetricScope(self, path)

    # -- queries --------------------------------------------------------------

    def get(self, path: str) -> float:
        return self.counters.get(path, 0.0)

    def as_dict(self) -> Dict[str, float]:
        """Flat path -> value snapshot of every counter and histogram (a
        histogram flattens to ``path.bucket.{bound}`` occurrence counts
        plus a ``path.count`` total, so ``/metrics`` and ``/metrics.json``
        serve it without a schema change)."""
        out = dict(self.counters)
        for path, hist in self.histograms.items():
            count = 0
            for value, n in hist.items():
                key = f"{path}.bucket.{value:g}"
                out[key] = out.get(key, 0.0) + n
                count += n
            out[f"{path}.count"] = float(count)
        return out

    def render_text(self, prefix: str = "") -> str:
        """Every metric as sorted ``path value`` lines.

        The service's ``GET /metrics`` endpoint serves this (optionally
        restricted to one subtree, e.g. ``service``) — a flat, stable,
        line-oriented format that survives piping and diffing."""
        dotted = prefix + "." if prefix else ""
        lines = []
        for path, value in sorted(self.as_dict().items()):
            if prefix and not (path == prefix or path.startswith(dotted)):
                continue
            if isinstance(value, float) and value.is_integer():
                lines.append(f"{path} {int(value)}")
            else:
                lines.append(f"{path} {value}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self.counters)} counters, "
            f"{len(self.histograms)} histograms)"
        )

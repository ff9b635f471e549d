"""Text rendering of experiment results (the rows the paper's plots show),
and :data:`EXPERIMENTS`, the table every figure verb, ``all`` and ``export``
read."""

from __future__ import annotations

from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from ..obs.stalls import ISSUED, STALL_REASONS
from . import experiments as ex
from .runner import SuiteRunner

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "render_stalls",
    "render_fig2",
    "render_fig3",
    "render_fig5",
    "render_fig11",
    "render_fig12",
    "render_fig13",
    "render_fig14",
    "render_fig15",
    "render_fig16",
    "render_fig17",
    "render_fig18",
    "render_fig19",
    "render_table2",
    "render_breakdown",
]


def _table(header: Sequence[str], rows: List[Sequence[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def render_stalls(data: Dict[str, Dict[str, Dict[str, int]]]) -> str:
    """Per-benchmark stall breakdown; ``data[benchmark][backend]`` maps
    reason -> warp-cycles (:attr:`repro.sim.gpu.SimStats.stalls`)."""
    blocks = []
    for name, per_backend in data.items():
        backends = list(per_backend)
        totals = {b: sum(per_backend[b].values()) or 1 for b in backends}
        rows = []
        for reason in (ISSUED,) + STALL_REASONS:
            counts = [per_backend[b].get(reason, 0) for b in backends]
            if not any(counts):
                continue
            rows.append((
                reason,
                *[f"{100.0 * c / totals[b]:6.2f}%"
                  for b, c in zip(backends, counts)],
            ))
        blocks.append(
            f"{name}: where warp-cycles went (% of warps x cycles)\n"
            + _table(("reason", *backends), rows)
        )
    return "\n\n".join(blocks)


def render_fig2(data: Dict[str, Tuple[float, float]]) -> str:
    rows = [
        (name, f"{gto:.1f}", f"{two:.1f}")
        for name, (gto, two) in data.items()
    ]
    return "Figure 2: register working set per 100-cycle window (KB)\n" + _table(
        ("benchmark", "GTO", "2-level"), rows
    )


def render_fig3(series: ex.BackingStoreSeries, points: int = 20) -> str:
    def head(xs):
        return " ".join(f"{x:5.0f}" for x in xs[:points])
    return (
        "Figure 3: backing-store accesses per 100 cycles (hotspot)\n"
        f"baseline: {head(series.baseline)}\n"
        f"rfh     : {head(series.rfh)}\n"
        f"regless : {head(series.regless)}"
    )


def render_fig5(counts: List[int], width: int = 60) -> str:
    lines = ["Figure 5: live registers per static instruction (particle_filter)"]
    peak = max(counts) if counts else 1
    for pc, n in enumerate(counts[:width]):
        bar = "#" * n
        lines.append(f"{pc:4d} {n:3d} {bar}")
    lines.append(f"(peak {peak}, {len(counts)} instructions total)")
    return "\n".join(lines)


def render_fig11(data: Dict[int, Dict[str, float]]) -> str:
    rows = [
        (
            str(cap),
            f"{d['logic']:.3f}",
            f"{d['storage']:.3f}",
            f"{d['compressor']:.3f}",
            f"{d['total']:.3f}",
        )
        for cap, d in data.items()
    ]
    return "Figure 11: area (normalized to 2048-entry baseline RF)\n" + _table(
        ("capacity", "logic", "storage", "compressor", "total"), rows
    )


def render_fig12(data: Dict[int, Dict[str, float]]) -> str:
    rows = [
        (str(cap), f"{d['osu']:.3f}", f"{d['compressor']:.3f}", f"{d['total']:.3f}")
        for cap, d in data.items()
    ]
    return "Figure 12: power (normalized to baseline RF)\n" + _table(
        ("capacity", "OSU", "compressor", "total"), rows
    )


def render_fig13(data: Dict[int, Tuple[float, float]]) -> str:
    rows = [
        (str(cap), f"{rt:.3f}", f"{en:.3f}") for cap, (rt, en) in data.items()
    ]
    return "Figure 13: run time vs GPU energy (normalized geomeans)\n" + _table(
        ("capacity", "run time", "GPU energy"), rows
    )


def _per_benchmark(data: Dict[str, Dict[str, float]], cols: Sequence[str],
                   title: str, scale: float = 1.0, fmt: str = "{:.3f}") -> str:
    rows = []
    for name, row in data.items():
        rows.append((name, *[fmt.format(row[c] * scale) for c in cols]))
    if rows:
        means = [
            sum(data[n][c] for n in data) / len(data) for c in cols
        ]
        rows.append(("MEAN", *[fmt.format(m * scale) for m in means]))
    return title + "\n" + _table(("benchmark", *cols), rows)


def render_fig14(data: Dict[str, Dict[str, float]]) -> str:
    return _per_benchmark(
        data, ("rfh", "rfv", "regless"),
        "Figure 14: RF energy normalized to baseline",
    )


def render_fig15(data: Dict[str, Dict[str, float]]) -> str:
    return _per_benchmark(
        data, ("no_rf", "rfh", "rfv", "regless"),
        "Figure 15: total GPU energy normalized to baseline",
    )


def render_fig16(result: ex.RuntimeResult) -> str:
    rows = [(n, f"{v:.3f}") for n, v in result.per_benchmark.items()]
    rows.append(("GEOMEAN", f"{result.geomean_regless:.3f}"))
    table = _table(("benchmark", "regless/baseline"), rows)
    return (
        "Figure 16: run time normalized to baseline\n"
        + table
        + "\ngeomeans: regless "
        + f"{result.geomean_regless:.3f}, no-compressor "
        + f"{result.geomean_no_compressor:.3f}, rfv {result.geomean_rfv:.3f}, "
        + f"rfh {result.geomean_rfh:.3f}"
    )


def render_fig17(data: Dict[str, Dict[str, float]]) -> str:
    return _per_benchmark(
        data, ("osu", "compressor", "l1", "l2dram"),
        "Figure 17: preload service location (fraction of preloads)",
        scale=100.0, fmt="{:.2f}%",
    )


def render_fig18(data: Dict[str, Dict[str, float]]) -> str:
    return _per_benchmark(
        data, ("preloads", "stores", "invalidations"),
        "Figure 18: RegLess L1 requests per cycle",
        fmt="{:.4f}",
    )


def render_fig19(data: Dict[str, Dict[str, float]]) -> str:
    return _per_benchmark(
        data, ("preloads", "mean_live", "std_live"),
        "Figure 19: per-region registers (preloads / mean live / std live)",
        fmt="{:.2f}",
    )


def render_breakdown(data: Dict[str, Dict[str, float]]) -> str:
    rows = []
    components = ("rf", "exec", "memory", "static", "metadata")
    for backend, shares in data.items():
        rows.append((backend, *[f"{shares.get(c, 0.0):.1%}" for c in components]))
    return (
        "Energy breakdown: mean component share of each design's own total\n"
        + _table(("backend", *components), rows)
    )


def render_table2(data: Dict[str, Dict[str, float]]) -> str:
    return _per_benchmark(
        data, ("insns", "cycles"),
        "Table 2: static instructions and dynamic cycles per region",
        fmt="{:.1f}",
    )


#: one flattened result row of ``export`` (a CSV line, a JSON object).
Row = Dict[str, Union[str, float, int]]


class Experiment(NamedTuple):
    """One table or figure: ``compute(runner, names)`` gives its result
    (``names`` is the benchmark subset, ``None`` for all 21; experiments
    on one kernel ignore it), ``render`` its text and ``rows`` its export
    rows (``None``: not exported)."""

    compute: Callable[[SuiteRunner, Optional[Sequence[str]]], Any]
    render: Callable[[Any], str]
    rows: Optional[Callable[[Any], List[Row]]] = None

    def text(self, runner: SuiteRunner,
             names: Optional[Sequence[str]] = None) -> str:
        return self.render(self.compute(runner, names))


def _by_benchmark(data: Dict[str, Dict[str, float]]) -> List[Row]:
    return [{"benchmark": name, **series} for name, series in data.items()]


def _by_capacity(data: Dict[int, Dict[str, float]]) -> List[Row]:
    return [{"capacity": cap, **values} for cap, values in data.items()]


def _fig3_rows(series: ex.BackingStoreSeries) -> List[Row]:
    return [
        {"window": i, "baseline": b, "rfh": h, "regless": r}
        for i, (b, h, r) in enumerate(
            zip(series.baseline, series.rfh, series.regless)
        )
    ]


def _fig16_rows(result: ex.RuntimeResult) -> List[Row]:
    rows: List[Row] = [
        {"benchmark": n, "regless_runtime": v}
        for n, v in result.per_benchmark.items()
    ]
    rows.append({
        "benchmark": "GEOMEAN",
        "regless_runtime": result.geomean_regless,
        "no_compressor": result.geomean_no_compressor,
        "rfv": result.geomean_rfv,
        "rfh": result.geomean_rfh,
    })
    return rows


#: experiment id -> :class:`Experiment`; each id is a CLI verb, ``all``
#: prints them in sorted order, and ``export`` writes each one with rows
#: in this order.  A new figure is one entry here.
EXPERIMENTS: Dict[str, Experiment] = {
    "fig2": Experiment(
        ex.fig2_working_set, render_fig2,
        lambda data: [{"benchmark": n, "gto_kb": g, "two_level_kb": t}
                      for n, (g, t) in data.items()],
    ),
    "fig3": Experiment(lambda runner, names: ex.fig3_backing_store(runner),
                       render_fig3, _fig3_rows),
    "fig5": Experiment(
        lambda runner, names: ex.fig5_liveness_seams(runner), render_fig5,
        lambda counts: [{"pc": pc, "live": n} for pc, n in enumerate(counts)],
    ),
    "fig11": Experiment(lambda runner, names: ex.fig11_area(),
                        render_fig11, _by_capacity),
    "fig12": Experiment(lambda runner, names: ex.fig12_power(runner),
                        render_fig12, _by_capacity),
    "fig13": Experiment(
        lambda runner, names: ex.fig13_pareto(runner, names=names),
        render_fig13,
        lambda data: [{"capacity": cap, "runtime": rt, "gpu_energy": en}
                      for cap, (rt, en) in data.items()],
    ),
    "fig14": Experiment(ex.fig14_rf_energy, render_fig14, _by_benchmark),
    "fig15": Experiment(ex.fig15_gpu_energy, render_fig15, _by_benchmark),
    "fig16": Experiment(ex.fig16_runtime, render_fig16, _fig16_rows),
    "fig17": Experiment(ex.fig17_preload_location, render_fig17,
                        _by_benchmark),
    "fig18": Experiment(ex.fig18_l1_bandwidth, render_fig18, _by_benchmark),
    "fig19": Experiment(ex.fig19_region_registers, render_fig19,
                        _by_benchmark),
    "table2": Experiment(ex.table2_region_sizes, render_table2,
                         _by_benchmark),
    "breakdown": Experiment(ex.energy_breakdown, render_breakdown),
}

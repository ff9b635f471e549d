"""Claim validation: check the paper's headline results against this build.

:data:`CLAIMS` declares every check the repo makes of a table or figure,
keyed by experiment id (:data:`repro.harness.report.EXPERIMENTS`): each
value turns that experiment's result into its :class:`Claim` s, PASS /
FAIL with the measured value next to the paper's.  The ``validate`` verb,
``examples/full_paper_run.py`` and ``benchmarks/test_figures.py`` all
score this one list.  This is the programmatic form of EXPERIMENTS.md —
run it with::

    python -m repro.harness validate
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import experiments as ex
from .report import EXPERIMENTS
from .runner import SuiteRunner

__all__ = ["CLAIMS", "Claim", "validate_claims", "render_claims"]


@dataclass
class Claim:
    """One checkable statement from the paper."""

    source: str  # where the paper states it
    statement: str
    paper_value: str
    measured: float
    ok: bool

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        # Three decimals, or three significant digits for a small share.
        spec = ".3g" if 0 < abs(self.measured) < 0.01 else ".3f"
        return (
            f"[{status}] {self.source}: {self.statement}\n"
            f"       paper: {self.paper_value}   measured: {self.measured:{spec}}"
        )


def _mean(data: Dict[str, Dict[str, float]], key: str) -> float:
    return sum(row[key] for row in data.values()) / len(data)


def _rising(source: str, what: str,
            data: Dict[int, Dict[str, float]]) -> Claim:
    """``data[capacity]["total"]`` never falls as capacity grows; measured
    is the smallest step between adjacent capacities (negative if one
    falls)."""
    totals = [data[cap]["total"] for cap in sorted(data)]
    steps = [b - a for a, b in zip(totals, totals[1:])]
    return Claim(source, f"{what} grows with capacity (smallest step)",
                 "rises", min(steps), totals == sorted(totals))


def _fig2(ws: Dict[str, Tuple[float, float]]) -> List[Claim]:
    gto = [g for g, _ in ws.values()]
    two = [t for _, t in ws.values()]
    mean_gto = sum(gto) / len(gto)
    return [
        Claim("Fig. 2",
              "Per-window register working set is a small fraction of the RF",
              "<10% of capacity for most", mean_gto / 256.0, mean_gto < 128.0),
        Claim("Fig. 2",
              "No kernel's working set fills the 256 KB register file",
              "<256 KB", max(gto), max(gto) < 256),
        Claim("Fig. 2",
              "The two-level scheduler does not grow the working set "
              "(geomean, two-level / GTO)",
              "smaller", ex.geomean(two) / ex.geomean(gto),
              ex.geomean(two) <= ex.geomean(gto) * 1.05),
    ]


def _fig3(series: ex.BackingStoreSeries) -> List[Claim]:
    base, rfh, regless = (sum(series.baseline), sum(series.rfh),
                          sum(series.regless))
    return [
        Claim("Fig. 3",
              "The RF hierarchy filters backing-store accesses and RegLess "
              "filters more (RFH / baseline)",
              "regless < rfh < baseline", rfh / max(1, base),
              regless < rfh < base),
        Claim("Fig. 3",
              "RegLess reaches its backing store (L1) an order of magnitude "
              "less often than the baseline (RegLess / baseline)",
              "<0.1x", regless / max(1, base), regless < base * 0.1),
    ]


def _fig5(counts: List[int]) -> List[Claim]:
    dips = sum(
        1 for i in range(1, len(counts) - 1)
        if counts[i] < counts[i - 1] and counts[i] <= counts[i + 1]
    )
    low = max(1, min(counts))
    return [
        Claim("Fig. 5",
              "Liveness peaks at least twice its low points (peak / low)",
              "sawtooth", max(counts) / low, max(counts) >= 2 * low),
        Claim("Fig. 5",
              "Liveness has several seams (local minima), not one ramp",
              ">= 3 seams", dips, dips >= 3),
    ]


def _fig11(data: Dict[int, Dict[str, float]]) -> List[Claim]:
    return [
        Claim("Fig. 11",
              "The 512-entry OSU takes about 0.3x the baseline RF's area",
              "~0.3x", data[512]["total"],
              0.25 < data[512]["total"] < 0.35),
        Claim("Fig. 11",
              "A 2048-entry RegLess is larger than the baseline RF "
              "(tags + compressor)",
              ">1.0x", data[2048]["total"], data[2048]["total"] > 1.0),
        _rising("Fig. 11", "Area", data),
    ]


def _fig12(data: Dict[int, Dict[str, float]]) -> List[Claim]:
    return [
        Claim("Fig. 12",
              "The 512-entry OSU draws about a third of the baseline RF's "
              "power",
              "~0.3x", data[512]["total"], 0.2 < data[512]["total"] < 0.5),
        _rising("Fig. 12", "Power", data),
    ]


def _fig13(data: Dict[int, Tuple[float, float]]) -> List[Claim]:
    best_energy = min(en for _, en in data.values())
    return [
        Claim("Fig. 13",
              "Run time flattens by the 512-entry design point",
              "~1.0x", data[512][0], data[512][0] < 1.1),
        Claim("Fig. 13",
              "Small OSUs cost performance (128-entry run time)",
              "> 512-entry", data[128][0], data[128][0] > data[512][0]),
        Claim("Fig. 13",
              "The energy optimum is interior: some capacity beats 1024 "
              "entries (lowest energy)",
              "< 1024-entry", best_energy, best_energy < data[1024][1]),
        Claim("Fig. 13",
              "512 entries use no more GPU energy than 1024",
              "<= 1024-entry", data[512][1], data[512][1] <= data[1024][1]),
    ]


def _fig14(data: Dict[str, Dict[str, float]]) -> List[Claim]:
    mean = {b: _mean(data, b) for b in ("rfh", "rfv", "regless")}
    return [
        Claim("Abstract / Fig. 14",
              "RegLess saves most of the register-structure energy",
              "75.3% saved", 1 - mean["regless"], mean["regless"] < 0.35),
        Claim("Fig. 14",
              "RegLess saves more RF energy than both RFH and RFV",
              "75.3 > 62.0 > 45.2", mean["regless"],
              mean["regless"] < min(mean["rfh"], mean["rfv"])),
        Claim("Fig. 14",
              "RFV saves over a third of the RF energy",
              "45.2% saved", 1 - mean["rfv"], mean["rfv"] < 0.65),
    ]


def _fig15(data: Dict[str, Dict[str, float]]) -> List[Claim]:
    mean = {k: _mean(data, k) for k in ("no_rf", "rfh", "rfv", "regless")}
    return [
        Claim("Abstract / Fig. 15",
              "RegLess saves ~11% of total GPU energy",
              "11%", 1 - mean["regless"], 0.85 <= mean["regless"] < 0.93),
        Claim("Fig. 15",
              "The No-RF upper bound is ~16.7%",
              "16.7%", 1 - mean["no_rf"], 0.79 <= mean["no_rf"] <= 0.87),
        Claim("Fig. 15",
              "RegLess saves more GPU energy than RFH and RFV and approaches "
              "the No-RF bound",
              "16.7 > 11.0 > 3.7, 2.9", mean["regless"],
              mean["no_rf"] <= mean["regless"]
              < min(mean["rfh"], mean["rfv"])),
    ]


def _fig16(runtime: ex.RuntimeResult) -> List[Claim]:
    return [
        Claim("Abstract / Fig. 16",
              "RegLess-512 run time matches the baseline (geomean)",
              "1.00x", runtime.geomean_regless,
              0.93 < runtime.geomean_regless < 1.07),
        Claim("Fig. 16",
              "Removing the compressor does not help (paper: costs 10.2%)",
              ">= regless", runtime.geomean_no_compressor,
              runtime.geomean_no_compressor
              >= runtime.geomean_regless - 0.01),
    ]


def _fig17(data: Dict[str, Dict[str, float]]) -> List[Claim]:
    l1, far = _mean(data, "l1"), _mean(data, "l2dram")
    near = _mean(data, "osu") + _mean(data, "compressor")
    return [
        Claim("Fig. 17",
              "Preloads rarely reach the L1 (paper: 0.9% on average)",
              "0.9%", l1, l1 < 0.05),
        Claim("Fig. 17",
              "Preloads almost never reach L2/DRAM (paper: 0.013%)",
              "0.013%", far, far < 0.02),
        Claim("Fig. 17",
              "The OSU and the compressor serve the overwhelming majority "
              "of preloads",
              "~99%", near, near > 0.85),
    ]


def _fig18(data: Dict[str, Dict[str, float]]) -> List[Claim]:
    staging = _mean(data, "preloads") + _mean(data, "stores")
    inval = _mean(data, "invalidations")
    busiest = max(sum(row.values()) for row in data.values())
    return [
        Claim("Fig. 18",
              "Preloads and stores use a tiny fraction of the 1-request/cycle "
              "L1 port",
              "<0.02 req/cycle", staging, staging < 0.02),
        Claim("Fig. 18 (known deviation 4)",
              "Invalidations stay a small fraction of the L1 port (our "
              "compiler emits more than the paper's)",
              "within the <0.02 total", inval, inval < 0.10),
        Claim("Fig. 18",
              "Every benchmark leaves most of the L1 port to data "
              "(busiest benchmark's req/cycle)",
              "port mostly free", busiest, busiest < 0.8),
    ]


def _fig19(data: Dict[str, Dict[str, float]]) -> List[Claim]:
    reused = sum(1 for r in data.values() if r["mean_live"] >= r["preloads"])
    live, preloads = _mean(data, "mean_live"), _mean(data, "preloads")
    heavy = max(r["mean_live"] + 2 * r["std_live"] for r in data.values())
    return [
        Claim("Fig. 19",
              "Concurrent live registers exceed preloads (entry reuse) in "
              "most benchmarks",
              "all benchmarks", reused / len(data), reused >= 0.8 * len(data)),
        Claim("Fig. 19",
              "Live registers exceed preloads on average (live / preloads)",
              "live > preloads", live / max(0.1, preloads), live > preloads),
        Claim("Fig. 19",
              "Register-heavy benchmarks reach 12+ concurrent live registers "
              "(max of mean + 2 std)",
              "20+", heavy, heavy > 12),
    ]


def _table2(data: Dict[str, Dict[str, float]]) -> List[Claim]:
    mean_insns = _mean(data, "insns")
    claims = [
        Claim("Table 2",
              "Regions are a handful of instructions (suite mean)",
              "~7 insns", mean_insns, 2.0 < mean_insns < 25.0),
    ]
    for small, paper in (("bfs", "16.0 vs 3.3 insns"),
                         ("heartwall", "16.0 vs 4.6 insns")):
        if "lud" in data and small in data:
            lud, other = data["lud"]["insns"], data[small]["insns"]
            claims.append(Claim(
                "Table 2",
                f"Compute-dense lud has larger regions than {small}",
                paper, lud / max(0.1, other), lud > other,
            ))
    return claims


#: experiment id -> the claims its result must meet.  Every id but
#: ``breakdown`` (a summary the paper does not plot) has claims.
CLAIMS: Dict[str, Callable[[Any], List[Claim]]] = {
    "fig2": _fig2,
    "fig3": _fig3,
    "fig5": _fig5,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _fig13,
    "fig14": _fig14,
    "fig15": _fig15,
    "fig16": _fig16,
    "fig17": _fig17,
    "fig18": _fig18,
    "fig19": _fig19,
    "table2": _table2,
}


def validate_claims(
    runner: Optional[SuiteRunner] = None,
    names: Optional[Sequence[str]] = None,
) -> List[Claim]:
    """Compute each experiment in :data:`CLAIMS` once over ``names``
    (``None``: all 21 benchmarks) and score its claims.  Without a
    ``runner`` it builds one and closes its workers before returning."""
    if runner is None:
        with SuiteRunner() as runner:
            return validate_claims(runner, names)
    return [
        claim
        for exp_id, claims_of in CLAIMS.items()
        for claim in claims_of(EXPERIMENTS[exp_id].compute(runner, names))
    ]


def render_claims(claims: List[Claim]) -> str:
    lines = [c.render() for c in claims]
    passed = sum(c.ok for c in claims)
    lines.append(f"\n{passed}/{len(claims)} claims hold")
    return "\n".join(lines)

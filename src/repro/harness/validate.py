"""Claim validation: check the paper's headline results against this build.

Runs the evaluation grid and scores each transferable claim of the paper as
PASS / FAIL with the measured value next to the paper's.  This is the
programmatic form of EXPERIMENTS.md — run it with::

    python -m repro.harness validate
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..workloads import workload_names
from . import experiments as ex
from .runner import SuiteRunner

__all__ = ["Claim", "validate_claims", "render_claims"]


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
        return (
            f"[{status}] {self.source}: {self.statement}\n"
            f"       paper: {self.paper_value}   measured: {self.measured:.3f}"
        )


def validate_claims(
    runner: Optional[SuiteRunner] = None,
    names: Optional[Sequence[str]] = None,
) -> List[Claim]:
    runner = runner or SuiteRunner()
    names = list(names) if names else workload_names()
    claims: List[Claim] = []

    def add(source, statement, paper_value, measured, ok):
        claims.append(Claim(source, statement, paper_value, measured, ok))

    # -- Figure 16 / abstract: no average performance loss -----------------
    runtime = ex.fig16_runtime(runner, names)
    add(
        "Abstract / Fig. 16",
        "RegLess-512 run time matches the baseline (geomean)",
        "1.00x",
        runtime.geomean_regless,
        0.93 <= runtime.geomean_regless <= 1.07,
    )
    add(
        "Fig. 16",
        "Removing the compressor does not help (paper: costs 10.2%)",
        ">= regless",
        runtime.geomean_no_compressor,
        runtime.geomean_no_compressor >= runtime.geomean_regless - 0.01,
    )

    # -- Figures 14/15: energy ------------------------------------------------
    rf = ex.fig14_rf_energy(runner, names)
    mean_rf = {
        b: sum(row[b] for row in rf.values()) / len(rf)
        for b in ("rfh", "rfv", "regless")
    }
    add(
        "Abstract / Fig. 14",
        "RegLess saves most of the register-structure energy",
        "75.3% saved",
        1 - mean_rf["regless"],
        (1 - mean_rf["regless"]) > 0.60,
    )
    add(
        "Fig. 14",
        "RegLess saves more RF energy than both RFH and RFV",
        "75.3 > 62.0 > 45.2",
        mean_rf["regless"],
        mean_rf["regless"] < min(mean_rf["rfh"], mean_rf["rfv"]),
    )

    gpu = ex.fig15_gpu_energy(runner, names)
    mean_gpu = {
        k: sum(row[k] for row in gpu.values()) / len(gpu)
        for k in ("no_rf", "rfh", "rfv", "regless")
    }
    add(
        "Abstract / Fig. 15",
        "RegLess saves ~11% of total GPU energy",
        "11%",
        1 - mean_gpu["regless"],
        0.07 <= (1 - mean_gpu["regless"]) <= 0.15,
    )
    add(
        "Fig. 15",
        "The No-RF upper bound is ~16.7% and RegLess approaches it",
        "16.7%",
        1 - mean_gpu["no_rf"],
        0.13 <= (1 - mean_gpu["no_rf"]) <= 0.21
        and mean_gpu["regless"] >= mean_gpu["no_rf"],
    )

    # -- Figure 17: preload locations ---------------------------------------------
    preloads = ex.fig17_preload_location(runner, names)
    mean_l1 = sum(r["l1"] for r in preloads.values()) / len(preloads)
    mean_far = sum(r["l2dram"] for r in preloads.values()) / len(preloads)
    add(
        "Fig. 17",
        "Preloads rarely reach the L1 (paper: 0.9% on average)",
        "0.9%",
        mean_l1,
        mean_l1 < 0.05,
    )
    add(
        "Fig. 17",
        "Preloads almost never reach L2/DRAM (paper: 0.013%)",
        "0.013%",
        mean_far,
        mean_far < 0.02,
    )

    # -- Figure 18: L1 bandwidth ------------------------------------------------------
    l1bw = ex.fig18_l1_bandwidth(runner, names)
    mean_staging = sum(
        r["preloads"] + r["stores"] for r in l1bw.values()
    ) / len(l1bw)
    mean_inval = sum(r["invalidations"] for r in l1bw.values()) / len(l1bw)
    add(
        "Fig. 18",
        "Preloads and stores use a tiny fraction of the 1-request/cycle "
        "L1 port",
        "<0.02 req/cycle",
        mean_staging,
        mean_staging < 0.02,
    )
    add(
        "Fig. 18 (known deviation 4)",
        "Invalidations stay a small fraction of the L1 port (our compiler "
        "emits more than the paper's)",
        "within the <0.02 total",
        mean_inval,
        mean_inval < 0.10,
    )

    # -- Figure 19 / Table 2: region structure ------------------------------------------
    regions = ex.fig19_region_registers(runner, names)
    live_gt_preloads = sum(
        1 for r in regions.values() if r["mean_live"] >= r["preloads"]
    )
    add(
        "Fig. 19",
        "Concurrent live registers exceed preloads (entry reuse) in most "
        "benchmarks",
        "all benchmarks",
        live_gt_preloads / len(regions),
        live_gt_preloads >= 0.8 * len(regions),
    )

    table2 = ex.table2_region_sizes(runner, names)
    if "lud" in table2 and "bfs" in table2:
        add(
            "Table 2",
            "Compute-dense lud has larger regions than memory-bound bfs",
            "16.0 vs 3.3 insns",
            table2["lud"]["insns"] / max(0.1, table2["bfs"]["insns"]),
            table2["lud"]["insns"] > table2["bfs"]["insns"],
        )

    # -- Figure 2: scheduler working sets ----------------------------------------------------
    ws = ex.fig2_working_set(runner, names[:8])
    mean_gto = sum(g for g, _ in ws.values()) / len(ws)
    add(
        "Fig. 2",
        "Per-window register working set is a small fraction of the RF",
        "<10% of capacity for most",
        mean_gto / 256.0,
        mean_gto < 128.0,
    )

    return claims


def render_claims(claims: List[Claim]) -> str:
    lines = [c.render() for c in claims]
    passed = sum(c.ok for c in claims)
    lines.append(f"\n{passed}/{len(claims)} claims hold")
    return "\n".join(lines)

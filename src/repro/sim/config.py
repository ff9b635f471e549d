"""Simulation parameters (paper Table 1, GTX 980-like).

The default configuration simulates a single SM: every per-SM metric in the
paper (working set, backing-store accesses, preload locations, L1 bandwidth)
is per-SM; static energy is charged per SM-cycle, so energy ratios barely
move with the SM count.  ``GPUConfig.gtx980()`` gives the full 16-SM machine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["GPUConfig"]


@dataclass(frozen=True)
class GPUConfig:
    """All knobs of the timing model."""

    # -- core geometry -----------------------------------------------------
    n_sms: int = 1
    warps_per_sm: int = 64
    schedulers_per_sm: int = 4  # one shard each; storages split per-SM sizes
    warp_width: int = 32
    issue_width: int = 2  # dual issue per scheduler (GTX 980)
    cta_size_warps: int = 8  # warps per CTA, for barriers

    # -- warp scheduling ------------------------------------------------------
    scheduler: str = "gto"  # "gto" | "lrr" | "two_level"
    two_level_active: int = 8

    # -- L1 (register backing store; data bypasses per Table 1) ---------------
    l1_kb: int = 48
    l1_assoc: int = 6
    line_bytes: int = 128
    l1_mshrs: int = 32
    l1_latency: int = 28
    l1_ports: int = 1  # one request per cycle per SM

    # -- L2 / DRAM ---------------------------------------------------------------
    l2_kb: int = 2048
    l2_assoc: int = 16
    l2_latency: int = 120
    dram_latency: int = 220
    #: 224 GB/s at 1 GHz = 1.75 lines of 128 B per cycle.
    dram_lines_per_cycle: float = 1.75
    #: per-SM interconnect injection rate (requests per cycle).
    icnt_per_sm: float = 1.0

    # -- simulation control ---------------------------------------------------------
    max_cycles: int = 400_000
    #: per-cycle stall attribution (repro.obs.stalls): bin every non-issued
    #: warp-cycle into one reason.  Costs 27-29 % of simulation time on
    #: the default-config grid (docs/performance.md, "Simulator cost
    #: baselines"); disable for raw-throughput sweeps.
    stall_attribution: bool = True
    #: skip dead cycles straight to the next event (results are identical;
    #: disable only to measure the optimization itself).
    fast_forward: bool = True
    #: collect the (warp, reg) working set per window for Figure 2.
    track_working_set: bool = False
    working_set_window: int = 100

    # -- derived -----------------------------------------------------------------------
    @property
    def warps_per_scheduler(self) -> int:
        return self.warps_per_sm // self.schedulers_per_sm

    @property
    def l1_lines(self) -> int:
        return self.l1_kb * 1024 // self.line_bytes

    @property
    def l2_lines(self) -> int:
        return self.l2_kb * 1024 // self.line_bytes

    def with_(self, **kwargs) -> "GPUConfig":
        """Return a modified copy (frozen dataclass convenience)."""
        return replace(self, **kwargs)

    @classmethod
    def gtx980(cls) -> "GPUConfig":
        """The paper's full machine: 16 SMs, 64 warps each, 4 schedulers."""
        return cls(n_sms=16)

    @classmethod
    def fast(cls) -> "GPUConfig":
        """Small configuration for unit tests."""
        return cls(warps_per_sm=8, schedulers_per_sm=2, max_cycles=50_000)

"""Energy model: convert event counters into energy numbers.

All energies are in abstract units normalized so that **one access to the
baseline 2048-entry register file costs 1.0** — the paper's results are all
normalized (Figures 12-15), so only ratios matter.

Scaling choices, calibrated against the paper:

* Per-access energy of a register structure scales essentially linearly
  with capacity (the paper's placed-and-routed Figure 12 shows power
  tracking capacity), with a small wiring/decode floor:
  ``e(n) = floor + (1 - floor) * (n / 2048)``.
* Static (leakage + clock) power per structure is proportional to capacity,
  with clock gating keeping it a modest fraction of dynamic power.
* GPUWattch-style constants cover the rest of the GPU (execution units,
  fetch/decode, L1/L2/DRAM accesses) such that the baseline register file
  is ~16.7% of total GPU energy — the paper's "No RF" upper bound
  (Figure 15).

The model reads the counter names produced by each backend:

========  =============================================================
baseline  ``rf_read``/``rf_write``
RFV       ``rfv_read``/``rfv_write`` (half-size structure)
RFH       ``rf_*`` (MRF) + ``rfh_orf_*`` + ``rfh_lrf_*``
RegLess   ``osu_read``/``osu_write``/``osu_tag`` + ``compressor_*``
========  =============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

__all__ = ["EnergyParams", "EnergyBreakdown", "EnergyModel",
           "BASELINE_RF_ENTRIES", "RFV_ENTRIES", "OSU_ENTRIES"]

#: Per-SM sizes in 128-byte warp-registers: each storage splits its size
#: over the SM's shards, and this model charges the per-SM size.
BASELINE_RF_ENTRIES = 2048
RFV_ENTRIES = BASELINE_RF_ENTRIES // 2  # RFV's half-size physical file
OSU_ENTRIES = 512  # the paper's RegLess design point, 25 % of the RF


@dataclass(frozen=True)
class EnergyParams:
    """All model constants (units: baseline-RF-access = 1.0)."""

    #: wiring/decode floor of the capacity scaling law.
    access_floor: float = 0.02
    #: per-access energy of a tag lookup (RegLess OSU banks).
    tag_access: float = 0.015
    #: per-access energy of the compressor (pattern match / expand).
    compressor_access: float = 0.05
    #: RFH small structures, as equivalent entry counts.
    orf_entries: int = 256
    lrf_entries: int = 64
    #: static power of a register structure, per 2048 entries per cycle
    #: (clock-gated).
    rf_static_per_cycle: float = 0.35
    #: rest of the GPU -------------------------------------------------------
    exec_per_insn: float = 8.6
    metadata_fetch: float = 0.4  # fetch/decode of one metadata instruction
    static_other_per_cycle: float = 4.2
    l1_access: float = 0.9
    l2_access: float = 2.0
    dram_access: float = 6.0
    shared_access: float = 0.5

    def access_energy(self, entries: int) -> float:
        """Per-access energy of a register structure with ``entries``."""
        scale = entries / BASELINE_RF_ENTRIES
        return self.access_floor + (1.0 - self.access_floor) * scale

    def static_power(self, entries: int) -> float:
        return self.rf_static_per_cycle * entries / BASELINE_RF_ENTRIES


@dataclass
class EnergyBreakdown:
    """Energy of one run, split the way the paper reports it."""

    rf: float  # register-structure energy (Figure 14's quantity)
    exec: float
    memory: float
    static: float
    metadata: float

    @property
    def total(self) -> float:
        return self.rf + self.exec + self.memory + self.static + self.metadata

    def as_dict(self) -> Dict[str, float]:
        return {
            "rf": self.rf,
            "exec": self.exec,
            "memory": self.memory,
            "static": self.static,
            "metadata": self.metadata,
            "total": self.total,
        }


class EnergyModel:
    """Maps (counters, cycles, backend) -> energy.  ``counters`` are
    GPU-wide; ``cycles`` counts SM-cycles (run cycles x SM count)."""

    def __init__(self, params: EnergyParams = EnergyParams()):
        self.params = params

    # -- register-structure energy per backend ---------------------------------

    def rf_energy(
        self,
        counters: Mapping[str, float],
        cycles: int,
        backend: str,
        osu_entries: int = OSU_ENTRIES,
    ) -> float:
        p = self.params
        get = lambda k: counters.get(k, 0.0)  # noqa: E731

        if backend == "baseline":
            dyn = (get("rf_read") + get("rf_write")) * p.access_energy(
                BASELINE_RF_ENTRIES
            )
            return dyn + p.static_power(BASELINE_RF_ENTRIES) * cycles

        if backend == "rfv":
            dyn = (get("rfv_read") + get("rfv_write")) * p.access_energy(RFV_ENTRIES)
            return dyn + p.static_power(RFV_ENTRIES) * cycles

        if backend == "rfh":
            dyn = (get("rf_read") + get("rf_write")) * p.access_energy(
                BASELINE_RF_ENTRIES
            )
            dyn += (get("rfh_orf_read") + get("rfh_orf_write")) * p.access_energy(
                p.orf_entries
            )
            dyn += (get("rfh_lrf_read") + get("rfh_lrf_write")) * p.access_energy(
                p.lrf_entries
            )
            static = (
                p.static_power(BASELINE_RF_ENTRIES)
                + p.static_power(p.orf_entries)
                + p.static_power(p.lrf_entries)
            )
            return dyn + static * cycles

        if backend == "regless":
            dyn = (get("osu_read") + get("osu_write")) * p.access_energy(osu_entries)
            dyn += get("osu_tag") * p.tag_access
            dyn += get("compressor_access") * p.compressor_access
            # Compressor storage leakage folded into its capacity share.
            static = p.static_power(osu_entries) * 1.1
            return dyn + static * cycles

        if backend == "none":
            return 0.0

        raise ValueError(f"unknown backend {backend!r}")

    # -- whole-GPU energy ----------------------------------------------------------

    def gpu_energy(
        self,
        counters: Mapping[str, float],
        cycles: int,
        backend: str,
        osu_entries: int = OSU_ENTRIES,
    ) -> EnergyBreakdown:
        p = self.params
        get = lambda k: counters.get(k, 0.0)  # noqa: E731
        rf = self.rf_energy(counters, cycles, backend, osu_entries)
        exec_e = get("insn_issued") * p.exec_per_insn
        metadata = get("metadata_issue") * p.metadata_fetch
        memory = (
            get("l1_access") * p.l1_access
            + get("l2_access") * p.l2_access
            + (get("dram_read") + get("dram_write")) * p.dram_access
            + get("shared_access") * p.shared_access
        )
        static = p.static_other_per_cycle * cycles
        return EnergyBreakdown(
            rf=rf, exec=exec_e, memory=memory, static=static, metadata=metadata
        )

"""Calibration guards: the energy constants must keep the paper's anchors.

If someone retunes ``EnergyParams``, these tests pin the three calibration
points the reproduction depends on (EXPERIMENTS.md, "Reading guide").
"""

import pytest

from repro.energy import (
    AreaModel,
    BASELINE_RF_ENTRIES,
    EnergyModel,
    EnergyParams,
)
from repro.harness import SuiteRunner
from repro.sim import GPUConfig


class TestAnchors:
    def test_anchor_one_rf_share(self):
        """Baseline RF ~16.7% of GPU energy on a real run mix."""
        runner = SuiteRunner(
            config=GPUConfig(warps_per_sm=16, schedulers_per_sm=2,
                             cta_size_warps=8)
        )
        shares = []
        for name in ("bfs", "hotspot", "kmeans", "streamcluster"):
            res = runner.run(name, "baseline")
            shares.append(res.rf_energy / res.gpu_energy)
        mean = sum(shares) / len(shares)
        assert 0.10 < mean < 0.24

    def test_anchor_two_area_design_point(self):
        """RegLess-512 is ~0.3x baseline RF area (paper Figure 11)."""
        assert 0.25 < AreaModel().area(512).total < 0.35

    def test_anchor_three_access_scaling(self):
        """Per-access energy at quarter capacity is ~quarter cost
        (the paper's placed-and-routed Figure 12 shape)."""
        p = EnergyParams()
        ratio = p.access_energy(512) / p.access_energy(BASELINE_RF_ENTRIES)
        assert 0.20 < ratio < 0.35


class TestRelativeOrderings:
    def test_rfv_half_size_half_cost(self):
        p = EnergyParams()
        assert p.access_energy(1024) == pytest.approx(
            p.access_floor + (1 - p.access_floor) * 0.5
        )

    def test_static_power_linear(self):
        p = EnergyParams()
        assert p.static_power(1024) == pytest.approx(p.static_power(2048) / 2)

    def test_custom_params_flow_through(self):
        hot = EnergyModel(EnergyParams(rf_static_per_cycle=10.0))
        cold = EnergyModel(EnergyParams(rf_static_per_cycle=0.0))
        counters = {"rf_read": 10.0}
        assert hot.rf_energy(counters, 1000, "baseline") > cold.rf_energy(
            counters, 1000, "baseline"
        )

    def test_rfv_charged_as_the_half_size_file(self):
        p = EnergyParams()
        half = BASELINE_RF_ENTRIES // 2
        energy = EnergyModel(p).rf_energy({"rfv_read": 100.0}, 10, "rfv")
        assert energy == pytest.approx(
            100 * p.access_energy(half) + 10 * p.static_power(half))

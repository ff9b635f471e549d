import json

import pytest

from repro.harness import (
    EXPERIMENTS,
    EXPORTABLE,
    SuiteRunner,
    export_all,
    fig2_working_set,
    fig3_backing_store,
    fig5_liveness_seams,
    fig11_area,
    fig12_power,
    fig13_pareto,
    fig14_rf_energy,
    fig15_gpu_energy,
    fig16_runtime,
    fig17_preload_location,
    fig18_l1_bandwidth,
    fig19_region_registers,
    geomean,
    table2_region_sizes,
)
from repro.harness import cli, report
from repro.sim import GPUConfig

SUBSET = ["bfs", "streamcluster"]


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner(config=GPUConfig(warps_per_sm=8, schedulers_per_sm=2,
                                        cta_size_warps=4))


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([]) == 0.0


class TestStructuralExperiments:
    def test_fig5_counts(self, runner):
        counts = fig5_liveness_seams(runner, "particle_filter")
        assert len(counts) > 10
        assert min(counts) < max(counts)  # peaks and seams exist

    def test_fig11_capacities(self):
        data = fig11_area()
        assert data[512]["total"] < data[2048]["total"]
        assert set(data[128]) == {"logic", "storage", "compressor", "total"}

    def test_fig19_static_stats(self, runner):
        data = fig19_region_registers(runner, SUBSET)
        for row in data.values():
            assert row["mean_live"] > 0
            assert row["std_live"] >= 0


class TestSimulationExperiments:
    def test_fig2_two_level_reduces_working_set(self, runner):
        data = fig2_working_set(runner, ["kmeans"])
        gto, two = data["kmeans"]
        assert gto > 0 and two > 0

    def test_fig3_series_nonempty(self, runner):
        series = fig3_backing_store(runner, "streamcluster")
        assert series.baseline and series.regless
        # RegLess hits its backing store far less than the baseline RF.
        assert sum(series.regless) < sum(series.baseline)

    def test_fig12_power_monotone(self, runner):
        data = fig12_power(runner, capacities=(128, 512), reference="bfs")
        assert data[128]["total"] < data[512]["total"]

    def test_fig13_pareto(self, runner):
        data = fig13_pareto(runner, capacities=(128, 512), names=SUBSET)
        for cap, (rt, en) in data.items():
            assert rt > 0 and en > 0
        assert data[128][1] <= data[512][1]  # smaller OSU, less energy

    def test_fig14_savings(self, runner):
        data = fig14_rf_energy(runner, SUBSET)
        for name in SUBSET:
            assert data[name]["regless"] < 1.0
            assert data[name]["rfv"] < 1.0

    def test_fig15_no_rf_is_lower_bound(self, runner):
        data = fig15_gpu_energy(runner, SUBSET)
        for name, row in data.items():
            assert row["no_rf"] <= min(row["rfh"], row["rfv"], row["regless"])

    def test_fig16_runtime(self, runner):
        result = fig16_runtime(runner, SUBSET)
        assert set(result.per_benchmark) == set(SUBSET)
        assert 0.5 < result.geomean_regless < 1.5

    def test_fig17_fractions_sum_to_one(self, runner):
        data = fig17_preload_location(runner, SUBSET)
        for name, row in data.items():
            assert sum(row.values()) == pytest.approx(1.0)
            assert row["osu"] + row["compressor"] > 0.5

    def test_fig18_l1_traffic_small(self, runner):
        data = fig18_l1_bandwidth(runner, SUBSET)
        for row in data.values():
            assert sum(row.values()) < 1.0  # far below one request/cycle

    def test_table2(self, runner):
        data = table2_region_sizes(runner, SUBSET)
        for row in data.values():
            assert row["insns"] > 0
            assert row["cycles"] > 0


class TestRendering:
    def test_all_renderers_produce_text(self, runner):
        outputs = [
            report.render_fig2(fig2_working_set(runner, SUBSET)),
            report.render_fig3(fig3_backing_store(runner, "streamcluster")),
            report.render_fig5(fig5_liveness_seams(runner)),
            report.render_fig11(fig11_area()),
            report.render_fig12(fig12_power(runner, (128, 512), "bfs")),
            report.render_fig13(fig13_pareto(runner, (128,), SUBSET)),
            report.render_fig14(fig14_rf_energy(runner, SUBSET)),
            report.render_fig15(fig15_gpu_energy(runner, SUBSET)),
            report.render_fig16(fig16_runtime(runner, SUBSET)),
            report.render_fig17(fig17_preload_location(runner, SUBSET)),
            report.render_fig18(fig18_l1_bandwidth(runner, SUBSET)),
            report.render_fig19(fig19_region_registers(runner, SUBSET)),
            report.render_table2(table2_region_sizes(runner, SUBSET)),
        ]
        for text in outputs:
            assert isinstance(text, str) and len(text) > 20


class TestCLI:
    def test_cli_runs_fig11(self, capsys):
        from repro.harness.cli import main

        assert main(["fig11"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out

    @pytest.mark.parametrize("verb, target", [
        ("validate", "validate_claims"),
        ("export", "export_all"),
        ("seeds", "seed_robustness"),
    ])
    def test_positional_subset_reaches_every_verb(self, monkeypatch, verb,
                                                  target):
        calls = []
        monkeypatch.setattr(cli, target,
                            lambda *args, **kwargs: calls.append(
                                [*args, *kwargs.values()]) or [])
        monkeypatch.setattr(cli, "render_claims", lambda claims: "")
        monkeypatch.setattr(cli, "render_robustness", lambda stats: "")
        assert cli.main([verb, "bfs", "nw", "--no-cache"]) == 0
        (call,) = calls
        assert ["bfs", "nw"] in call

    @pytest.mark.parametrize("argv", [
        ["fig16", "nope"],
        ["stalls", "--names", "bfs", "nope", "--no-cache", "--jobs", "1"],
    ])
    def test_unknown_benchmark_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unknown benchmark(s): nope" in capsys.readouterr().err


class TestExperimentTable:
    def test_every_entry_is_a_verb(self):
        assert set(EXPERIMENTS) < set(cli.VERBS)
        assert len(cli.VERBS) == 21

    def test_all_prints_one_section_per_entry_in_sorted_order(
            self, monkeypatch, capsys):
        for eid, entry in EXPERIMENTS.items():
            monkeypatch.setitem(EXPERIMENTS, eid, entry._replace(
                compute=lambda runner, names, eid=eid: (eid, names),
                render=lambda result: "SECTION %s %s" % result,
            ))
        assert cli.main(["all", "bfs", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out.split("\n\n") == [
            f"SECTION {eid} ['bfs']" for eid in sorted(EXPERIMENTS)] + [""]

    def test_export_writes_one_file_per_exportable_entry(
            self, monkeypatch, tmp_path):
        for eid, entry in EXPERIMENTS.items():
            monkeypatch.setitem(EXPERIMENTS, eid, entry._replace(
                compute=lambda runner, names, eid=eid: eid,
                rows=entry.rows and (lambda eid: [{"experiment": eid}]),
            ))
        paths = export_all(str(tmp_path), SuiteRunner(cache=False),
                           fmt="json")
        exportable = [e for e, entry in EXPERIMENTS.items() if entry.rows]
        assert paths == [str(tmp_path / f"{e}.json") for e in exportable]
        assert exportable == list(EXPORTABLE)
        assert "breakdown" not in exportable
        for eid, path in zip(exportable, paths):
            assert json.loads(open(path).read()) == [{"experiment": eid}]

    def test_export_closes_the_runner_it_builds(self, monkeypatch, tmp_path):
        closed = []
        monkeypatch.setattr(SuiteRunner, "close",
                            lambda runner: closed.append(runner))
        for eid, entry in EXPERIMENTS.items():
            monkeypatch.setitem(EXPERIMENTS, eid, entry._replace(
                compute=lambda runner, names: None,
                rows=entry.rows and (lambda result: []),
            ))
        export_all(str(tmp_path))
        assert len(closed) == 1


class TestEnergyBreakdown:
    def test_components_sum_to_one(self, runner):
        from repro.harness import energy_breakdown

        data = energy_breakdown(runner, SUBSET)
        for backend, shares in data.items():
            assert sum(shares.values()) == pytest.approx(1.0, abs=1e-6)

    def test_regless_rf_share_smallest(self, runner):
        from repro.harness import energy_breakdown

        data = energy_breakdown(runner, SUBSET)
        assert data["regless"]["rf"] < data["baseline"]["rf"]
        assert data["regless"]["metadata"] > 0

    def test_render(self, runner):
        from repro.harness import energy_breakdown
        from repro.harness.report import render_breakdown

        text = render_breakdown(energy_breakdown(runner, SUBSET))
        assert "baseline" in text and "regless" in text

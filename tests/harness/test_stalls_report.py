"""The ``stalls``/``trace`` harness verbs and the golden bfs breakdown."""

import json

import pytest

from repro.harness.cli import main
from repro.harness.report import render_stalls
from repro.harness.runner import SuiteRunner
from repro.obs.perfetto import validate_chrome_trace
from repro.obs.stalls import check_conservation


@pytest.fixture(scope="module")
def bfs_runs():
    runner = SuiteRunner(cache=False)
    base = runner.run("bfs", "baseline")
    regless = runner.run("bfs", "regless")
    return base, regless


class TestGoldenBfsBreakdown:
    def test_both_backends_conserve(self, bfs_runs):
        for result in bfs_runs:
            stats = result.stats
            for report in stats.stall_shards:
                check_conservation(report)
            assert sum(stats.stalls.values()) == \
                stats.warps_total * stats.cycles

    def test_baseline_reasons_are_baseline_only(self, bfs_runs):
        base, _ = bfs_runs
        reasons = {k for k, v in base.stats.stalls.items() if v}
        assert not any(r.startswith("cm_") for r in reasons)
        assert "osu_port" not in reasons
        assert "demoted" not in reasons  # GTO, not two-level
        assert "rfv_pressure" not in reasons

    def test_regless_exposes_staging_states(self, bfs_runs):
        _, regless = bfs_runs
        stalls = regless.stats.stalls
        assert stalls.get("cm_inactive", 0) > 0

    def test_bfs_is_memory_bound_on_both(self, bfs_runs):
        # The load-dependent frontier walk keeps warps waiting on global
        # loads; that must dominate the breakdown for both designs.
        for result in bfs_runs:
            stalls = dict(result.stats.stalls)
            stalls.pop("issued", None)
            assert max(stalls, key=stalls.get) == "mem_pending"

    def test_render(self, bfs_runs):
        base, regless = bfs_runs
        text = render_stalls({
            "bfs": {"baseline": base.stats.stalls,
                    "regless": regless.stats.stalls},
        })
        assert "bfs" in text and "baseline" in text and "regless" in text
        assert "mem_pending" in text and "%" in text


class TestCLI:
    def test_stalls_verb(self, capsys):
        rc = main(["stalls", "bfs", "--backend", "baseline", "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bfs" in out and "mem_pending" in out

    def test_trace_verb_writes_valid_perfetto_json(self, tmp_path, capsys):
        rc = main(["trace", "bfs", "--perfetto", "--no-cache",
                   "--out", str(tmp_path)])
        assert rc == 0
        path = tmp_path / "trace_bfs_regless.json"
        assert path.exists()
        trace = json.loads(path.read_text())
        assert validate_chrome_trace(trace) == []
        assert any(e.get("cat") == "region" for e in trace["traceEvents"])

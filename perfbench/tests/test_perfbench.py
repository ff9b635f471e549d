"""Tests of the benchmark itself: statistics, seeded inputs, the
correctness gate, client failure counting, the catalogue and compare."""

import json
import os
import time

import pytest

from perfbench import cells, compare
from perfbench.catalogue import (COMMON, END_TO_END, OFF_PATH, PER_LAYER,
                                  STALLS, WORKLOADS, measured_on)
from perfbench.common import ROOT, Spans, latency_metrics, percentile
from perfbench.gate import (Gate, check_backends_agree, check_equal,
                            check_finished, load_golden, view)


# -- the percentile rule ----------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(19)), 0.5) is None
    assert percentile(list(range(20)), 0.5) == 9
    assert percentile(list(range(99)), 0.9) is None
    assert percentile(list(range(100)), 0.9) == 89
    assert percentile([], 0.5) is None


def test_latency_metrics_leave_out_unsupported_percentiles():
    out = latency_metrics("latency", [0.1] * 50)
    assert set(out) == {"latency_p50_s"}
    assert out["latency_p50_s"]["n"] == 50
    assert set(latency_metrics("latency", [0.1] * 100)) == {
        "latency_p50_s", "latency_p90_s"}


# -- seeded inputs ------------------------------------------------------------


@pytest.mark.parametrize("draw", [cells.grid_cold_cells,
                                  cells.grid_warm_cells,
                                  cells.service_plans])
def test_same_seed_same_inputs_other_seed_other_inputs(draw):
    assert draw(1) == draw(1)
    assert draw(1) != draw(2)


def test_grid_cold_draw_covers_golden_and_both_kernel_classes():
    for seed in range(1, 11):
        drawn = cells.grid_cold_cells(seed)
        assert set(cells.golden_cells()) <= set(drawn)
        kernels = {c.benchmark for c in drawn}
        assert kernels & set(cells.MEMORY_BOUND)
        assert kernels & set(cells.COMPUTE_DENSE)
        extra = [c for c in drawn if c.benchmark not in cells.GOLDEN_KERNELS]
        # one memory-bound and one compute-dense cell per backend
        assert sorted(c.backend for c in extra) == sorted(cells.BACKENDS * 2)


def test_grid_warm_is_the_whole_small_grid():
    drawn = cells.grid_warm_cells(3)
    assert len(drawn) == len(set(drawn)) == 105
    assert {c.overrides for c in drawn} == {cells.SMALL}


def test_service_fresh_runs_never_repeat_and_repeats_have_fixed_share():
    plans = cells.service_plans(5)
    fresh = [c for p in plans if not p.repeat for c in p.runs]
    assert len(fresh) == len(set(fresh))
    assert all(1 <= len(p.runs) <= 5 for p in plans)
    repeats = sum(p.repeat for p in plans)
    assert repeats == len(plans) // cells.REPEAT_EVERY


def test_kernel_list_matches_the_program():
    from repro.workloads import workload_names

    assert tuple(workload_names()) == cells.KERNELS


# -- the correctness gate -----------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_gate_accepts_the_golden_itself(golden):
    want = golden["bfs/regless"]
    assert check_equal("bfs/regless", view(want), want) == []


@pytest.mark.parametrize("field", ["cycles", "instructions", "counters",
                                   "stalls"])
def test_gate_rejects_a_perturbed_simstats(golden, field):
    got = json.loads(json.dumps(golden["nw/baseline"]))
    if isinstance(got[field], dict):
        key = sorted(got[field])[0]
        got[field][key] += 1
    else:
        got[field] += 1
    errors = check_equal("nw/baseline", view(got), golden["nw/baseline"])
    assert errors and field in errors[0]
    gate = Gate()
    gate.op(errors)
    assert gate.failed == 1 and not gate.correct


def test_gate_rejects_unfinished_runs_and_backend_disagreement():
    assert check_finished("x", {"finished": True, "warps_done": 3,
                                "warps_total": 4})
    assert check_finished("x", {"finished": False, "warps_done": 4,
                                "warps_total": 4})
    assert check_backends_agree([(("bfs",), "baseline", {"instructions": 5}),
                                 (("bfs",), "regless", {"instructions": 6})])
    assert not check_backends_agree([(("bfs",), "rfh", {"instructions": 5}),
                                     (("bfs",), "rfv", {"instructions": 5})])


# -- client failure counting --------------------------------------------------


class _RefusingClient:
    """Refuses every submit with the given HTTP statuses in turn."""

    def __init__(self, statuses):
        self.statuses = list(statuses)

    def submit(self, runs):
        from repro.service import ServiceError

        raise ServiceError(self.statuses.pop(0), "refused", retry_after=0.0)


@pytest.mark.parametrize("status", [429, 503])
def test_client_counts_refusals_as_failures(status):
    from perfbench.service import check_job, client_loop

    plans = iter(cells.service_plans(1)[:3])
    client = _RefusingClient([status] * 3)
    records = client_loop(client, lambda: next(plans, None),
                          time.perf_counter() + 30, Spans(False))
    assert len(records) == 3
    assert all(r.refused for r in records)
    gate = Gate()
    for rec in records:
        gate.op(check_job(rec))
    assert gate.attempted == 3 and gate.failed == 3


# -- spans --------------------------------------------------------------------


def test_self_time_subtracts_children_and_trace_is_valid():
    from repro.obs.perfetto import validate_chrome_trace

    spans = Spans(True)
    with spans.span("bench.cell", "id1"):
        with spans.span("sim.run", "id1"):
            time.sleep(0.02)
    table = spans.self_times()
    assert table["sim"]["self_s"] >= 0.02
    assert table["bench"]["self_s"] < 0.01
    assert spans.records[1]["parent"] == 0
    assert validate_chrome_trace(spans.chrome_trace()) == []
    assert Spans(False).span("x").__enter__() is None


# -- hygiene ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["REPRO_JOBS", "REPRO_CACHE",
                                  "REPRO_CACHE_DIR"])
def test_refuses_environment_that_changes_a_workload(monkeypatch, name):
    from perfbench.common import hygiene_errors

    for var in ("REPRO_JOBS", "REPRO_CACHE", "REPRO_CACHE_DIR",
                "REPRO_FAULTS", "REPRO_SERVICE_FAULTS"):
        monkeypatch.delenv(var, raising=False)
    assert hygiene_errors() == []
    monkeypatch.setenv(name, "1")
    assert name in hygiene_errors()[0]


# -- catalogue and BENCHMARK.json -------------------------------------------


def test_benchmark_json_agrees_with_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(COMMON)
    for m in bench["end_to_end"]:
        spec = END_TO_END[m["name"]]
        assert (m["unit"], m["better"], m["bound"]) == (
            spec.unit, spec.better, spec.bound)
    assert [m["name"] for m in bench["per_layer"]] == list(PER_LAYER)
    for m in bench["per_layer"]:
        assert (m["unit"], m["better"]) == (PER_LAYER[m["name"]].unit,
                                            PER_LAYER[m["name"]].better)


def test_off_path_names_are_layer_metrics_each_measured_somewhere():
    assert set(OFF_PATH) == set(WORKLOADS)
    for names in OFF_PATH.values():
        assert set(names) <= set(PER_LAYER)
    assert all(measured_on(name) for name in PER_LAYER)


# -- the layer probe ----------------------------------------------------------


def test_probe_replaces_only_off_path_metrics():
    from perfbench.probe import merge

    layers = {name: 0.0 for name in PER_LAYER}
    layers["sim.cycles"] = 5.0
    probe = {name: 17.0 for name in PER_LAYER}
    filled = merge(layers, OFF_PATH["grid-warm"], probe, probe)
    assert set(filled) == set(OFF_PATH["grid-warm"])
    assert layers["cache.misses"] == 0.0
    assert layers["sim.cycles"] == 5.0
    assert layers["sim.run_s"] == layers["service.boot_s"] == 17.0


def test_traced_grid_warm_keeps_its_zero_cache_misses(monkeypatch):
    from perfbench import grid
    from perfbench.probe import merge

    small = [cells.Cell("bfs", b, 512, cells.SMALL)
             for b in ("baseline", "rfh", "regless")]
    monkeypatch.setattr(cells, "grid_warm_cells", lambda seed: small)
    out = grid.grid_warm(1, 0.0, 1, trace=True)
    assert out["gate"].correct
    layers = out["layers"]
    assert layers["cache.misses"] == 0.0
    assert layers["cache.hits"] == len(small) * len(out["passes"])
    merge(layers, OFF_PATH["grid-warm"], {n: 17.0 for n in PER_LAYER},
          {n: 17.0 for n in PER_LAYER})
    assert layers["cache.misses"] == 0.0


def test_stall_metrics_match_the_program():
    from repro.obs.stalls import ISSUED, STALL_REASONS

    assert STALLS == (ISSUED,) + tuple(STALL_REASONS)


# -- compare ------------------------------------------------------------------


@pytest.mark.parametrize("old,new,expected", [
    ([10.0, 10.1, 9.9, 10.0], [10.2, 10.1, 10.3, 10.2], "unchanged"),
    ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "better"),
    ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "worse"),
    ([10.0, 5.0, 15.0, 10.0], [9.0, 14.0, 6.0, 10.5], "unresolved"),
    # equal medians do not make a spread wider than the bound resolved
    ([10.0, 5.0, 15.0, 10.0], [10.0, 15.0, 5.0, 10.0], "unresolved"),
])
def test_compare_labels(old, new, expected):
    assert compare.label(old, new, "higher", 0.1) == expected


def test_compare_calls_a_wide_spread_better_when_every_run_wins():
    assert compare.label([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], "lower",
                         0.1) == "better"

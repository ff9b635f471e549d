"""``bench --json`` payload shape: the scaling block and its rows."""

from __future__ import annotations

import json
from types import SimpleNamespace

from repro.harness.bench import _bench_payload, _scaling_row
from repro.harness.parallel import RunRequest


def fake_result():
    stats = SimpleNamespace(
        cycles=1000, instructions=500, warps_done=8,
        stalls={"barrier": 10, "scoreboard": 5},
    )
    return SimpleNamespace(stats=stats, timings={})


def build_payload(results):
    requests = [RunRequest.make("bfs", "baseline") for _ in results]
    return _bench_payload(
        names=["bfs"],
        backends=["baseline"],
        jobs=1,
        requests=requests,
        serial=results,
        serial_wall=[0.25] * len(results),
        t_serial=1.0,
        t_cold=0.5,
        t_warm=0.1,
        serial_parallel_ok=True,
        warm_ok=True,
    )


def test_scaling_block_only_present_when_swept():
    without = build_payload([fake_result()])
    assert "scaling" not in without
    json.dumps(without)  # the whole record must stay JSON-serializable


def test_oversubscribed_scaling_rows_are_labelled():
    # 4 workers on 2 CPUs: the ratio is pool overhead, not speedup
    row, text = _scaling_row(4, 10, wall=2.0, base_wall=1.5, cpus=2)
    assert row["oversubscribed"] is True
    assert "pool overhead, not speedup" in text
    assert "x vs jobs=1" not in text
    assert row["speedup_vs_jobs1"] == 0.75
    json.dumps(row)

    row, text = _scaling_row(2, 10, wall=1.0, base_wall=1.5, cpus=2)
    assert row["oversubscribed"] is False
    assert "x vs jobs=1" in text
    assert "pool overhead" not in text

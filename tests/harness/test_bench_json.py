"""``bench --json`` over a mixed grid of JIT-aware and JIT-less runs.

Regression: the grid JIT aggregate used to assume every
:class:`RunResult` carried a ``jit`` dict.  Results replayed from a
PR-5-era cache entry predate the field entirely, and ``REPRO_JIT=0``
runs record an empty dict — both must be skipped and counted, never
crash the payload build.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

from repro.harness.bench import _bench_payload, _scaling_row
from repro.harness.parallel import RunRequest


def fake_result(jit="absent", batch="absent"):
    stats = SimpleNamespace(
        cycles=1000, instructions=500, warps_done=8,
        stalls={"barrier": 10, "scoreboard": 5},
    )
    result = SimpleNamespace(stats=stats, timings={})
    if jit != "absent":  # "absent" models a pre-jit-era cache entry
        result.jit = jit
    if batch != "absent":  # "absent" models a pre-batch-era cache entry
        result.batch = batch
    return result


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


JIT = {"0.armed": 1, "0.compile_s": 0.125, "0.steps": 10,
       "0.issued": 100, "0.fallback_issued": 3}


def test_mixed_grid_does_not_crash_and_counts_missing():
    payload = build_payload([
        fake_result(jit=JIT),          # modern run with JIT telemetry
        fake_result(jit="absent"),     # PR-5-era cache entry: no field
        fake_result(jit={}),           # REPRO_JIT=0 run: empty dict
        fake_result(jit=None),         # defensive: explicit None
    ])
    agg = payload["jit"]
    assert agg["runs_with_jit"] == 1
    assert agg["runs_missing_jit"] == 3
    assert agg["shards"] == 1
    assert agg["armed_shards"] == 1
    assert agg["issued_via_jit"] == 100
    assert agg["fallback_issued"] == 3
    assert agg["compile_s"] == 0.125


def test_jitless_runs_serialize_with_empty_jit():
    payload = build_payload([fake_result(jit="absent")])
    assert payload["runs"][0]["jit"] == {}
    json.dumps(payload)  # the whole record must stay JSON-serializable


def test_all_jit_grid_counts_no_missing():
    payload = build_payload([fake_result(jit=JIT), fake_result(jit=JIT)])
    assert payload["jit"]["runs_missing_jit"] == 0
    assert payload["jit"]["runs_with_jit"] == 2
    assert payload["jit"]["shards"] == 2


# ---------------------------------------------------------------------------
# batch (cohort batching) aggregate — same tolerance contract as jit


BATCH = {
    "sm0.shard0.batch.armed": 1,
    "sm0.shard0.batch.cohorts": 7,
    "sm0.shard0.batch.batched_warps": 30,
    "sm0.shard0.batch.singleton_warps": 5,
    "sm0.shard0.batch.scalar_classified": 15,
    "sm0.shard0.batch.gate_shared": 12,
    "sm0.shard0.batch.cohort_size.4": 7,
}

#: an all-fallback run (e.g. rfv storage or REPRO_BATCH=0): every per-shard
#: entry carries only .armed and .reason — no counter keys at all.
BATCH_FALLBACK = {
    "sm0.shard0.batch.armed": 0,
    "sm0.shard0.batch.reason": "impure_storage",
}


def test_batch_aggregate_tolerates_fallback_and_missing():
    payload = build_payload([
        fake_result(jit=JIT, batch=BATCH),
        fake_result(jit=JIT, batch=BATCH_FALLBACK),  # armed=0, reason only
        fake_result(),                               # pre-batch-era entry
        fake_result(jit={}, batch={}),               # REPRO_BATCH=0 run
    ])
    agg = payload["batch"]
    assert agg["runs_with_batch"] == 2
    assert agg["runs_missing_batch"] == 2
    assert agg["shards"] == 2
    assert agg["armed_shards"] == 1
    assert agg["batched_warps"] == 30
    assert agg["singleton_warps"] == 5
    assert agg["gate_shared"] == 12
    assert agg["cohort_hit_rate"] == round(30 / (30 + 5 + 15), 4)
    json.dumps(payload)


def test_all_fallback_grid_has_zero_hit_rate():
    payload = build_payload([
        fake_result(jit={}, batch=BATCH_FALLBACK) for _ in range(3)
    ])
    agg = payload["batch"]
    assert agg["armed_shards"] == 0
    assert agg["cohort_hit_rate"] == 0.0
    assert payload["runs"][0]["batch"] == BATCH_FALLBACK
    json.dumps(payload)


def test_scaling_block_only_present_when_swept():
    without = build_payload([fake_result(jit=JIT)])
    assert "scaling" not in without


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

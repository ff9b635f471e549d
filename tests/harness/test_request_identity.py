"""``RunRequest.identity`` is the dedupe key — it must be content-stable.

The service's cross-client admission dedupe and the harness's in-grid
dedupe both assume: equal request fields ⟺ equal identity, and the
digest survives pickling and process boundaries (requests travel to
worker processes and back).  Hypothesis drives the equivalence; a
subprocess pins the cross-interpreter case; a real resilient grid pins
"equal keys dedupe to one execution".
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.energy.model import EnergyModel
from repro.harness.parallel import RunOutcome, RunRequest, WorkerPool, \
    run_requests_resilient
from repro.obs.metrics import MetricsRegistry
from repro.sim import GPUConfig


SMALL = dict(warps_per_sm=8, schedulers_per_sm=2, cta_size_warps=4)

names = st.text(min_size=1, max_size=16)
# Ints and text only: cross-type equal values (1 == 1.0 == True) would
# make equal requests hash differently, which is exactly the bug class
# this suite exists to keep out of the dedupe key.
override_values = st.integers() | names

requests = st.builds(
    RunRequest.make,
    benchmark=names,
    backend=names,
    osu_entries=st.integers(min_value=1, max_value=1 << 16),
    window_series=st.lists(names, max_size=3),
    scheduler=override_values,
)


@given(requests)
@settings(max_examples=100)
def test_identity_survives_pickle(req):
    clone = pickle.loads(pickle.dumps(req))
    assert clone == req
    assert clone.identity == req.identity


@given(requests, requests)
@settings(max_examples=100)
def test_equal_fields_iff_equal_identity(a, b):
    assert (a == b) == (a.identity == b.identity)


@given(requests)
@settings(max_examples=50)
def test_identity_is_hex_digest(req):
    assert len(req.identity) == 64
    assert set(req.identity) <= set("0123456789abcdef")
    assert req.identity == req.identity  # pure function of the fields


def test_identity_stable_across_interpreters():
    req = RunRequest.make("bfs", "regless", 256, ("rf_read",),
                          scheduler="lrr")
    script = (
        "from repro.harness.parallel import RunRequest;"
        "print(RunRequest.make('bfs', 'regless', 256, ('rf_read',),"
        " scheduler='lrr').identity)"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env=dict(os.environ),
    )
    assert out.stdout.strip() == req.identity


def test_equal_requests_dedupe_to_one_execution():
    dup = RunRequest.make("bfs", "baseline")
    other = RunRequest.make("nw", "baseline")
    registry = MetricsRegistry()
    delivered = {}
    pool = WorkerPool(GPUConfig(**SMALL), EnergyModel().params, jobs=2)
    try:
        outcomes = run_requests_resilient(
            pool,
            [dup, dup, other, dup],
            metrics=registry.scope("harness"),
            on_outcome=lambda i, o: delivered.setdefault(i, o),
        )
    finally:
        pool.close()
    assert [o.status for o in outcomes] == [RunOutcome.OK] * 4
    # One execution: duplicates share the primary's result object and
    # attempt accounting, and each dedupe is metered.
    assert outcomes[1].result is outcomes[0].result
    assert outcomes[3].result is outcomes[0].result
    assert outcomes[2].result is not outcomes[0].result
    assert outcomes[1].attempts == outcomes[0].attempts == 1
    assert registry.as_dict()["harness.grid.deduped"] == 2
    assert registry.as_dict()["harness.grid.ok"] == 2
    # The streaming hook fired exactly once per request index.
    assert sorted(delivered) == [0, 1, 2, 3]
    assert delivered[1].result is delivered[0].result

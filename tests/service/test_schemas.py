"""Wire-schema validation: everything crossing the HTTP boundary."""

import pytest

from repro.harness.parallel import RunOutcome, RunRequest
from repro.service import SpecError, outcome_to_wire, parse_job_spec, \
    request_from_wire, request_to_wire


class TestRequestRoundTrip:
    def test_wire_round_trip_is_identity(self):
        req = RunRequest.make("bfs", "regless", 256, ("rf_read",),
                              scheduler="lrr")
        assert request_from_wire(request_to_wire(req)) == req

    def test_defaults_fill_in(self):
        req = request_from_wire({"benchmark": "bfs", "backend": "baseline"})
        assert req.osu_entries == 512
        assert req.window_series == ()
        assert req.overrides == ()


class TestRequestValidation:
    def reject(self, wire, match):
        with pytest.raises(SpecError, match=match):
            request_from_wire(wire)

    def test_rejects_non_object(self):
        self.reject(["bfs"], "must be an object")

    def test_rejects_unknown_field(self):
        self.reject({"benchmark": "bfs", "backend": "baseline",
                     "bencmark": "typo"}, "unknown run-spec field")

    def test_rejects_unknown_benchmark(self):
        self.reject({"benchmark": "no-such-workload",
                     "backend": "baseline"}, "unknown benchmark")

    def test_rejects_unknown_backend(self):
        self.reject({"benchmark": "bfs", "backend": "magic"},
                    "unknown backend")

    def test_rejects_bad_osu_entries(self):
        for bad in (0, -1, "512", True):
            self.reject({"benchmark": "bfs", "backend": "baseline",
                         "osu_entries": bad}, "osu_entries")

    def test_rejects_bad_window_series(self):
        self.reject({"benchmark": "bfs", "backend": "baseline",
                     "window_series": [1]}, "window_series")

    def test_rejects_bad_overrides(self):
        self.reject({"benchmark": "bfs", "backend": "baseline",
                     "overrides": [("a", 1)]}, "overrides")
        for overrides, match in (
            ({"bogus": 1}, "unknown override field"),
            ({"warps_per_sm": [16]}, "'warps_per_sm' must be int"),
            ({"warps_per_sm": "16"}, "'warps_per_sm' must be int"),
            ({"warps_per_sm": 16.0}, "'warps_per_sm' must be int"),
            ({"warps_per_sm": True}, "'warps_per_sm' must be int"),
            ({"warps_per_sm": None}, "'warps_per_sm' must be int"),
            ({"icnt_per_sm": float("nan")}, "'icnt_per_sm' must be float"),
            ({"icnt_per_sm": float("inf")}, "'icnt_per_sm' must be float"),
            ({"icnt_per_sm": False}, "'icnt_per_sm' must be float"),
            ({"icnt_per_sm": "1.0"}, "'icnt_per_sm' must be float"),
            ({"fast_forward": 1}, "'fast_forward' must be bool"),
            ({"scheduler": 1}, "'scheduler' must be str"),
            ({"scheduler": "nope"}, "unknown scheduler"),
        ):
            self.reject({"benchmark": "bfs", "backend": "baseline",
                         "overrides": overrides}, match)

    def test_accepts_typed_overrides(self):
        overrides = {"warps_per_sm": 16, "icnt_per_sm": 2,
                     "dram_lines_per_cycle": 1.5, "fast_forward": False,
                     "scheduler": "two_level"}
        req = request_from_wire({"benchmark": "bfs", "backend": "baseline",
                                 "overrides": overrides})
        assert dict(req.overrides) == overrides


class TestJobSpec:
    RUN = {"benchmark": "bfs", "backend": "baseline"}

    def test_parses_runs_priority_tags(self):
        requests, priority, tags, deadline_s = parse_job_spec({
            "runs": [self.RUN], "priority": "interactive",
            "tags": {"note": "x"},
        })
        assert [r.key for r in requests] == ["bfs/baseline"]
        assert priority == "interactive"
        assert tags == {"note": "x"}
        assert deadline_s is None

    def test_priority_defaults_to_batch(self):
        _, priority, tags, _ = parse_job_spec({"runs": [self.RUN]})
        assert priority == "batch"
        assert tags == {}

    def test_parses_deadline(self):
        _, _, _, deadline_s = parse_job_spec(
            {"runs": [self.RUN], "deadline_s": 2.5}
        )
        assert deadline_s == 2.5

    def test_rejects_bad_deadline(self):
        for bad in (0, -1, "60", True, float("nan"), float("inf")):
            with pytest.raises(SpecError, match="deadline_s"):
                parse_job_spec({"runs": [self.RUN], "deadline_s": bad})

    def test_rejects_empty_or_missing_runs(self):
        for body in ({}, {"runs": []}, {"runs": "bfs"}, None, []):
            with pytest.raises(SpecError):
                parse_job_spec(body)

    def test_rejects_unknown_priority_and_fields(self):
        with pytest.raises(SpecError, match="priority"):
            parse_job_spec({"runs": [self.RUN], "priority": "urgent"})
        with pytest.raises(SpecError, match="unknown job-spec"):
            parse_job_spec({"runs": [self.RUN], "prio": "batch"})


class TestOutcomeWire:
    def test_failure_carries_error_no_run(self):
        req = RunRequest.make("bfs", "baseline")
        out = RunOutcome(req, RunOutcome.CRASHED, attempts=3,
                         error="worker died")
        wire = outcome_to_wire(4, out)
        assert wire["event"] == "outcome"
        assert wire["index"] == 4
        assert wire["status"] == "crashed"
        assert wire["attempts"] == 3
        assert wire["error"] == "worker died"
        assert "run" not in wire
        assert "deduped" not in wire

    def test_deduped_flag(self):
        req = RunRequest.make("bfs", "baseline")
        out = RunOutcome(req, RunOutcome.CRASHED, attempts=1, error="x")
        assert outcome_to_wire(0, out, deduped=True)["deduped"] is True

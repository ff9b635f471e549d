"""The hierarchical metrics registry of the harness and the service."""

from repro.obs import MetricsRegistry


class TestScopeAliasing:
    def test_sibling_scopes_count_separately(self):
        reg = MetricsRegistry()
        reg.scope("service.journal").inc("records")
        reg.scope("harness.cache").inc("records", 2)
        assert reg.get("service.journal.records") == 1
        assert reg.get("harness.cache.records") == 2

    def test_child_scope_extends_the_path(self):
        reg = MetricsRegistry()
        child = reg.scope("harness").scope("grid").scope("failure")
        child.inc("hung")
        assert reg.get("harness.grid.failure.hung") == 1

    def test_registry_without_bridge(self):
        reg = MetricsRegistry()
        reg.scope("service.admission").inc("deduped")
        assert reg.get("service.admission.deduped") == 1


class TestQueries:
    def test_as_dict_holds_counters(self):
        reg = MetricsRegistry()
        reg.inc("a.count", 2)
        reg.scope("a").inc("count")
        assert reg.as_dict() == {"a.count": 3}

    def test_observe_builds_histogram(self):
        reg = MetricsRegistry()
        scope = reg.scope("service")
        scope.observe("lat", 3)
        scope.observe("lat", 3)
        scope.observe("lat", 7)
        assert reg.histograms["service.lat"] == {3: 2, 7: 1}

    def test_bucket_125_rounds_up_to_series(self):
        from repro.obs import bucket_125
        assert bucket_125(0.3) == 0.5
        assert bucket_125(0.05) == 0.05
        assert bucket_125(1.0) == 1.0
        assert bucket_125(1.5) == 2.0
        assert bucket_125(15) == 20
        assert bucket_125(50) == 50
        assert bucket_125(51) == 100
        assert bucket_125(700) == 1000
        assert bucket_125(0) == 0.0
        assert bucket_125(float("inf")) == 0.0

    def test_as_dict_flattens_histograms(self):
        from repro.obs import bucket_125
        reg = MetricsRegistry()
        scope = reg.scope("service")
        scope.observe("run.exec_ms", bucket_125(3.2))
        scope.observe("run.exec_ms", bucket_125(4.0))
        scope.observe("run.exec_ms", bucket_125(700))
        snap = reg.as_dict()
        assert snap["service.run.exec_ms.bucket.5"] == 2
        assert snap["service.run.exec_ms.bucket.1000"] == 1
        assert snap["service.run.exec_ms.count"] == 3.0
        # render_text (the /metrics endpoint) rides on as_dict
        text = reg.render_text("service")
        assert "service.run.exec_ms.bucket.5 2" in text

import pytest

from repro.harness import (EXPERIMENTS, SuiteRunner, render_claims,
                           validate_claims)
from repro.harness.validate import CLAIMS
from repro.sim import GPUConfig


@pytest.fixture(scope="module")
def claims():
    runner = SuiteRunner(
        config=GPUConfig(warps_per_sm=16, schedulers_per_sm=2,
                         cta_size_warps=8)
    )
    return validate_claims(runner, names=["bfs", "streamcluster", "nw"])


class TestValidation:
    def test_produces_claims(self, claims):
        assert len(claims) >= 10

    def test_every_claim_cites_its_source(self, claims):
        for claim in claims:
            assert "Fig." in claim.source or "Table" in claim.source or \
                "Abstract" in claim.source

    def test_headline_claims_hold_on_subset(self, claims):
        by_statement = {c.statement: c for c in claims}
        runtime = next(c for c in claims if "run time matches" in c.statement)
        assert runtime.ok, runtime.render()
        rf = next(c for c in claims if "register-structure energy" in c.statement)
        assert rf.ok, rf.render()

    def test_every_experiment_but_the_breakdown_has_claims(self):
        assert set(CLAIMS) <= set(EXPERIMENTS)
        assert set(EXPERIMENTS) - set(CLAIMS) == {"breakdown"}

    def test_render(self, claims):
        text = render_claims(claims)
        assert "PASS" in text
        assert "claims hold" in text

"""Every table and figure of the paper's evaluation, regenerated and held
to its claims.

One test per entry of :data:`repro.harness.validate.CLAIMS`: it computes
the experiment on the session runner, prints its table and claims, and
asserts every claim holds — the same list ``python -m repro.harness
validate`` scores.  A figure's checks live there, not here.
"""

import pytest
from conftest import run_once

from repro.harness.report import EXPERIMENTS
from repro.harness.validate import CLAIMS, render_claims


@pytest.mark.parametrize("exp_id", list(CLAIMS))
def test_figure(benchmark, runner, names, exp_id):
    experiment = EXPERIMENTS[exp_id]
    result = run_once(benchmark, lambda: experiment.compute(runner, names))
    claims = CLAIMS[exp_id](result)
    print()
    print(experiment.render(result))
    print(render_claims(claims))
    for claim in claims:
        benchmark.extra_info[claim.statement] = claim.measured
    assert all(claim.ok for claim in claims), render_claims(claims)

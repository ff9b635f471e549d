"""The ``seeds`` verb and its retired ``robustness`` alias.

Pipelines parse the seed-stability report from stdout, so ``seeds``
writes nothing to stderr.  ``robustness`` was its deprecated alias (the
name now belongs to the resilience layer, docs/robustness.md) and is no
longer a verb, nor is ``bench``.  The study itself is stubbed out: these
tests are about the CLI surface, not simulation.
"""

from __future__ import annotations

import pytest

import repro.harness.cli as cli


@pytest.fixture
def stubbed_study(monkeypatch):
    """Replace the seed study with a cheap deterministic stand-in."""
    calls = []

    def fake_seed_robustness(**kwargs):
        calls.append(kwargs)
        return ("stats-sentinel",)

    monkeypatch.setattr(cli, "seed_robustness", fake_seed_robustness)
    monkeypatch.setattr(cli, "render_robustness",
                        lambda stats: f"REPORT[{','.join(stats)}]")
    return calls


def test_seeds_verb_emits_no_deprecation_note(stubbed_study, capsys):
    assert cli.main(["seeds"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "REPORT[stats-sentinel]" in captured.out


def test_seeds_forwards_names(stubbed_study, capsys):
    cli.main(["seeds", "--names", "bfs"])
    capsys.readouterr()
    assert stubbed_study == [{"names": ["bfs"]}]


def test_robustness_alias_is_retired(stubbed_study, capsys):
    # ``bench``, the old harness timer, is retired the same way.
    for verb in ("robustness", "bench"):
        with pytest.raises(SystemExit) as exc:
            cli.main([verb])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    assert stubbed_study == []

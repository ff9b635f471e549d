"""Documentation integrity: referenced files, modules and CLI verbs exist."""

import ast
import glob
import os
import re
from pathlib import Path

import pytest

DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
        "docs/architecture.md", "docs/compiler.md", "docs/hardware.md",
        "docs/observability.md", "docs/performance.md",
        "docs/robustness.md", "docs/simulator.md", "docs/workloads.md",
        "examples/README.md"]


@pytest.mark.parametrize("doc", DOCS)
def test_doc_exists_and_nonempty(doc):
    assert os.path.exists(doc), doc
    assert os.path.getsize(doc) > 500


@pytest.mark.parametrize("doc", DOCS)
def test_relative_markdown_links_resolve(doc):
    text = open(doc).read()
    base = os.path.dirname(doc)
    for match in re.finditer(r"\]\(([^)#http][^)]*)\)", text):
        target = match.group(1)
        if target.startswith("http"):
            continue
        path = os.path.normpath(os.path.join(base, target))
        assert os.path.exists(path), f"{doc} links to missing {target}"


def test_readme_mentions_every_experiment_verb():
    from repro.harness.cli import _RENDER

    readme = open("README.md").read()
    for verb in _RENDER:
        assert verb in readme, f"README does not document {verb}"


def _docstrings(path):
    tree = ast.parse(Path(path).read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            yield ast.get_docstring(node) or ""


def test_documented_verbs_exist():
    """Every ``python -m repro.harness <verb>`` a reader may copy (the
    docs, the skill notes, source docstrings) names a verb the CLI
    accepts."""
    from repro.harness.cli import VERBS

    texts = {doc: Path(doc).read_text()
             for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md",
                         "examples/README.md",
                         *sorted(glob.glob("docs/*.md")),
                         *sorted(glob.glob(".*/skills/*/SKILL.md"))]}
    for path in sorted(glob.glob("src/repro/**/*.py", recursive=True)):
        texts[path] = "\n".join(_docstrings(path))
    used = [(where, verb)
            for where, text in texts.items()
            for verb in re.findall(
                r"python3? -m repro\.harness[ \t]+([a-z][\w-]*)", text)]
    assert len(used) > 20
    assert [(where, verb) for where, verb in used if verb not in VERBS] == []


def test_design_lists_every_benchmark_figure():
    design = open("DESIGN.md").read()
    for fig in ("Fig. 2", "Fig. 3", "Fig. 5", "Fig. 11", "Fig. 12",
                "Fig. 13", "Fig. 14", "Fig. 15", "Fig. 16", "Fig. 17",
                "Fig. 18", "Fig. 19", "Table 2"):
        assert fig in design


def test_mentioned_source_files_exist():
    design = open("DESIGN.md").read()
    for match in re.finditer(r"`([a-z_]+\.py)`", design):
        name = match.group(1)
        found = False
        for root, _, files in os.walk("src"):
            if name in files:
                found = True
                break
        assert found, f"DESIGN.md mentions {name} which does not exist"


def test_experiments_md_headline_table_complete():
    text = open("EXPERIMENTS.md").read()
    for phrase in ("Run time vs baseline", "Register-structure energy",
                   "Total GPU energy", "No RF", "L2/DRAM"):
        assert phrase in text


def test_examples_readme_lists_every_example():
    listing = open("examples/README.md").read()
    for fname in os.listdir("examples"):
        if fname.endswith(".py"):
            assert fname in listing, f"examples/README.md missing {fname}"

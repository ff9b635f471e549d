"""The compiler's output for all 21 kernels against a committed golden.

``tests/golden/compiled21.json`` pins, per kernel, what the simulator
consumes from the compiler: the register-allocated instruction text, every
region's placement and footprint, and every region's annotations.  Host-
speed work on register allocation or region creation must leave it
unchanged.  Regenerate it (see docs/performance.md) only for an
intentional change to the compiler, and say why in the commit.

    PYTHONPATH=src python -m tests.compiler.test_compiled_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.compiler import compile_kernel
from repro.compiler.pipeline import CompiledKernel
from repro.workloads import make_workload, workload_names

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "compiled21.json"


def _regs(regs):
    return sorted(r.index for r in regs)


def _pc_map(marks):
    return {str(pc): [r.index for r in regs]
            for pc, regs in sorted(marks.items())}


def snapshot(ck: CompiledKernel) -> dict:
    """The JSON view of one compiled kernel."""
    kernel = ck.kernel
    return {
        "insns": [f"{label}: {insn!r}" for _, label, insn in kernel.iter_pcs()],
        "regions": [
            {
                "block": r.block, "start": r.start_pc, "end": r.end_pc,
                "inputs": _regs(r.inputs), "outputs": _regs(r.outputs),
                "interior": _regs(r.interior), "max_live": r.max_live,
                "bank_usage": list(r.bank_usage),
            }
            for r in ck.regions
        ],
        "annotations": [
            {
                "preloads": [[p.reg.index, p.invalidate] for p in a.preloads],
                "cache_invalidates": [r.index for r in a.cache_invalidates],
                "erase_at": _pc_map(a.erase_at),
                "evict_at": _pc_map(a.evict_at),
                "erase_on_write": _pc_map(a.erase_on_write),
                "evict_on_write": _pc_map(a.evict_on_write),
            }
            for a in ck.annotations
        ],
    }


def compile_all() -> dict:
    return {name: snapshot(compile_kernel(make_workload(name).kernel()))
            for name in workload_names()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def compiled():
    return compile_all()


def test_golden_covers_every_kernel(golden):
    assert sorted(golden) == sorted(workload_names())
    assert len(golden) == 21


@pytest.mark.parametrize("name", workload_names())
def test_compiled_kernel_matches_golden(name, golden, compiled):
    want, got = golden[name], compiled[name]
    assert got["insns"] == want["insns"]
    assert got["regions"] == want["regions"]
    assert got["annotations"] == want["annotations"]


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(compile_all(), fh, indent=1, sort_keys=True)
        fh.write("\n")

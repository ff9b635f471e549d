import os
import subprocess
import sys
from pathlib import Path

from repro.compiler import (
    RegionConfig,
    analyze_liveness,
    annotate_regions,
    compile_kernel,
    create_regions,
)
from repro.isa import KernelBuilder


def annotate(kernel, config=None):
    config = config or RegionConfig()
    lv = analyze_liveness(kernel)
    regions = create_regions(kernel, lv, config)
    return regions, annotate_regions(kernel, lv, regions, config), lv


class TestPreloads:
    def test_preloads_match_inputs(self, loop_kernel):
        regions, anns, _ = annotate(loop_kernel)
        for r, a in zip(regions, anns):
            assert {p.reg for p in a.preloads} == set(r.inputs)

    def test_invalidating_preload_for_dying_input(self, loop_kernel):
        regions, anns, lv = annotate(loop_kernel)
        for r, a in zip(regions, anns):
            live_after = lv.live_after[r.end_pc - 1]
            for p in a.preloads:
                assert p.invalidate == (p.reg not in live_after)


class TestLastUseMarks:
    def test_every_referenced_reg_gets_a_mark(self, loop_kernel):
        regions, anns, _ = annotate(loop_kernel)
        for r, a in zip(regions, anns):
            referenced = set()
            for pc in range(r.start_pc, r.end_pc):
                referenced.update(loop_kernel.insn_at(pc).regs)
            marked = set()
            for bucket in (a.erase_at, a.evict_at, a.erase_on_write,
                           a.evict_on_write):
                for regs in bucket.values():
                    marked.update(regs)
            assert marked == referenced

    def test_marks_land_on_last_reference(self, loop_kernel):
        regions, anns, _ = annotate(loop_kernel)
        for r, a in zip(regions, anns):
            for bucket in (a.erase_at, a.evict_at, a.erase_on_write,
                           a.evict_on_write):
                for pc, regs in bucket.items():
                    for reg in regs:
                        # No later reference inside the region.
                        for later in range(pc + 1, r.end_pc):
                            assert reg not in loop_kernel.insn_at(later).regs

    def test_erase_vs_evict_split_by_liveness(self, loop_kernel):
        regions, anns, lv = annotate(loop_kernel)
        for r, a in zip(regions, anns):
            live_after = lv.live_after[r.end_pc - 1]
            for bucket in (a.erase_at, a.erase_on_write):
                for regs in bucket.values():
                    for reg in regs:
                        assert reg not in live_after
            for bucket in (a.evict_at, a.evict_on_write):
                for regs in bucket.values():
                    for reg in regs:
                        assert reg in live_after


class TestCacheInvalidations:
    def build_branchy(self):
        """A value used on one path only: dead-by-control-flow on the other."""
        b = KernelBuilder("inv")
        b.block("entry")
        tid = b.reg(0)
        x = b.fresh()
        b.ldg(x, tid)
        y = b.fresh()
        b.iadd(y, x, 1)  # force x cross-region (load/use split)
        p = b.fresh_pred()
        b.setp(p, tid, 0)
        b.bra("skip", pred=p)
        b.block("use")
        b.stg(tid, y)
        b.block("skip")
        b.stg(tid, tid)
        b.exit()
        return b.build()

    def test_invalidation_placed_after_all_refs(self):
        k = self.build_branchy()
        regions, anns, lv = annotate(k)
        for r, a in zip(regions, anns):
            for reg in a.cache_invalidates:
                # Dead at that region's block entry.
                assert reg not in lv.live_in[r.block]

    def test_loop_value_not_invalidated_inside_loop(self, loop_kernel):
        regions, anns, _ = annotate(loop_kernel)
        # No invalidation may target a region in the loop header or body
        # for a register referenced there (it would re-fire every trip).
        for r, a in zip(regions, anns):
            if r.block in ("body",):
                for reg in a.cache_invalidates:
                    refs = [
                        pc
                        for pc, _, insn in loop_kernel.iter_pcs()
                        if reg in insn.regs
                    ]
                    assert all(pc < r.start_pc for pc in refs)


class TestMetadataCounts:
    def test_positive_and_bounded(self, loop_kernel):
        regions, anns, _ = annotate(loop_kernel)
        for r, a in zip(regions, anns):
            assert a.n_metadata_insns >= 1
            # Never absurdly large relative to the region.
            assert a.n_metadata_insns <= 2 + len(a.preloads) + r.num_insns

    def test_compact_encoding_for_tiny_regions(self):
        b = KernelBuilder("tiny")
        b.block("entry")
        b.mov(b.fresh(), 1)
        b.exit()
        k = b.build()
        ck = compile_kernel(k)
        assert all(a.n_metadata_insns == 1 for a in ck.annotations)


#: prints one ``<kernel> <sha256 of its pickled compiled kernel>`` line
#: per kernel.
KERNEL_DIGESTS = """
import hashlib, pickle
from repro.harness import SuiteRunner
from repro.workloads import workload_names
runner = SuiteRunner(cache=False)
for name in workload_names():
    data = pickle.dumps(runner.compiled(name), pickle.HIGHEST_PROTOCOL)
    print(name, hashlib.sha256(data).hexdigest())
"""


def test_compiled_kernels_do_not_depend_on_hash_seed():
    """Annotation placement once walked a set of block labels in hash
    order, so a kernel could differ between processes with different
    ``PYTHONHASHSEED``.  The result cache keys a run on its inputs, not
    its kernel, and relies on this."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    digests = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", KERNEL_DIGESTS], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(dict(line.split() for line in out.stdout.splitlines()))
    assert len(digests[0]) == 21
    assert digests[0] == digests[1]

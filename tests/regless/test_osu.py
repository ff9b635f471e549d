from repro.energy import Counters
from repro.mem import L1RegCache, MemoryHierarchy
from repro.regless import Compressor, OperandStagingUnit, RegisterMapping, ReglessConfig
from repro.sim import EventWheel, GPUConfig, LaneValues


class Rig:
    """Standalone OSU with a live memory hierarchy beneath it."""

    def __init__(self, osu_entries=256, compressor_enabled=True):
        # ``osu_entries`` per SM; the rig is one of the SM's 4 shards.
        self.cfg = GPUConfig()
        self.counters = Counters()
        self.wheel = EventWheel()
        self.hier = MemoryHierarchy(self.cfg, self.counters, self.wheel)
        self.l1 = L1RegCache(0, self.cfg, self.counters, self.wheel, self.hier)
        self.rcfg = ReglessConfig(
            osu_entries_per_sm=osu_entries,
            compressor_enabled=compressor_enabled,
        )
        shards = self.cfg.schedulers_per_sm
        self.lines_per_bank = osu_entries // shards // self.rcfg.banks_per_shard
        self.mapping = RegisterMapping(n_warps=16, n_regs=16)
        self.compressor = Compressor(
            self.counters, self.mapping,
            self.rcfg.compressor_lines_per_sm // shards,
            enabled=compressor_enabled,
        )
        self.values = {}
        self.done = []
        self.osu = OperandStagingUnit(
            self.rcfg,
            self.lines_per_bank,
            self.counters,
            self.wheel,
            self.l1,
            self.compressor,
            self.mapping,
            value_of=lambda w, r: self.values.get((w, r), LaneValues.uniform(0)),
            on_preload_done=lambda wid, src: self.done.append((wid, src)),
        )

    def pump(self, cycles):
        for _ in range(cycles):
            self.wheel.tick()
            self.hier.cycle()
            self.l1.begin_cycle()
            self.osu.cycle()


class TestPreloadSources:
    def test_launch_constant_served_without_memory(self):
        rig = Rig()
        rig.osu.enqueue_preload(0, 1, invalidate=False)
        rig.pump(5)
        assert rig.done == [(0, "const")]
        assert rig.counters.get("l1_access") == 0

    def test_osu_hit(self):
        rig = Rig()
        rig.osu.reserve_write(0, 1)
        rig.osu.mark_evictable(0, 1)
        rig.osu.enqueue_preload(0, 1, invalidate=False)
        rig.pump(3)
        assert rig.done == [(0, "osu")]

    def test_materialized_register_fetched_from_memory(self):
        rig = Rig(osu_entries=32)
        # Write, evict to L1 (incompressible value), erase, then preload.
        rig.values[(0, 1)] = LaneValues.random(7)
        rig.osu.reserve_write(0, 1)
        rig.osu.complete_write(0, 1)
        rig.osu.mark_evictable(0, 1)
        # Force eviction by filling the bank.
        bank = rig.osu.bank_of(0, 1)
        fillers = [
            (w, r)
            for w in range(16)
            for r in range(16)
            if rig.osu.bank_of(w, r) == bank and (w, r) != (0, 1)
        ]
        for w, r in fillers[: rig.lines_per_bank]:
            rig.osu.reserve_write(w, r)
        rig.pump(10)  # eviction drains to L1
        assert rig.counters.get("l1_reg_store") >= 1
        rig.osu.enqueue_preload(0, 1, invalidate=False)
        rig.pump(self.l1_roundtrip(rig))
        assert (0, "l1") in rig.done or (0, "l2dram") in rig.done

    @staticmethod
    def l1_roundtrip(rig):
        return rig.cfg.l1_latency + rig.cfg.l2_latency + rig.cfg.dram_latency + 20

    def test_compressed_eviction_comes_back_from_compressor(self):
        rig = Rig(osu_entries=32)
        rig.values[(0, 1)] = LaneValues.uniform(42)  # compressible
        rig.osu.reserve_write(0, 1)
        rig.osu.complete_write(0, 1)
        rig.osu.mark_evictable(0, 1)
        bank = rig.osu.bank_of(0, 1)
        fillers = [
            (w, r)
            for w in range(16)
            for r in range(16)
            if rig.osu.bank_of(w, r) == bank and (w, r) != (0, 1)
        ]
        for w, r in fillers[: rig.lines_per_bank]:
            rig.osu.reserve_write(w, r)
        rig.pump(10)
        assert rig.counters.get("compressor_store") == 1
        rig.osu.enqueue_preload(0, 1, invalidate=False)
        rig.pump(10)
        assert (0, "compressor") in rig.done


class TestReadWritePath:
    def test_read_hit_counts(self):
        rig = Rig()
        rig.osu.reserve_write(0, 1)
        rig.osu.read(0, 1)
        assert rig.counters.get("osu_read") == 1
        assert rig.counters.get("osu_read_miss") == 0

    def test_read_miss_is_visible(self):
        rig = Rig()
        rig.osu.read(0, 9)
        assert rig.counters.get("osu_read_miss") == 1

    def test_write_marks_dirty(self):
        rig = Rig()
        rig.osu.reserve_write(0, 1)
        rig.osu.complete_write(0, 1)
        bank = rig.osu.bank(0, 1)
        assert bank.entry((0, 1)).dirty

    def test_erase_warp_clears_everything(self):
        rig = Rig()
        for r in range(8):
            rig.osu.reserve_write(3, r)
        rig.osu.erase_warp(3, 16)
        for r in range(8):
            assert not rig.osu.bank(3, r).has((3, r))


class TestInvalidations:
    def test_invalidating_preload_without_l1_copy_sends_no_request(self):
        rig = Rig()
        rig.osu.reserve_write(0, 1)
        rig.osu.mark_evictable(0, 1)
        rig.osu.enqueue_preload(0, 1, invalidate=True)
        rig.pump(5)
        assert rig.counters.get("l1_inval_req") == 0

    def test_explicit_invalidate_consumes_l1_port(self):
        rig = Rig()
        rig.osu.enqueue_invalidate(0, 1)
        rig.pump(3)
        assert rig.counters.get("l1_inval_req") == 1


class TestHeadOfLine:
    def test_waiting_job_does_not_block_bank_queue(self):
        rig = Rig()
        # First preload must fetch from memory (materialized), second is a
        # launch constant in the same bank.
        rig.osu._materialized.add((0, 1))
        bank = rig.osu.bank_of(0, 1)
        # Find another (warp, reg) in the same bank.
        other = next(
            (w, r)
            for w in range(16)
            for r in range(16)
            if rig.osu.bank_of(w, r) == bank and (w, r) != (0, 1)
        )
        rig.osu.enqueue_preload(0, 1, invalidate=False)
        rig.osu.enqueue_preload(other[0], other[1], invalidate=False)
        rig.pump(12)
        # The const preload completed long before the memory one.
        assert (other[0], "const") in rig.done
        assert all(src != "l2dram" for _, src in rig.done)  # still in flight

    def test_idle_reflects_queues(self):
        rig = Rig()
        assert rig.osu.idle
        rig.osu.enqueue_invalidate(0, 0)
        assert not rig.osu.idle
        rig.pump(3)
        assert rig.osu.idle


class TestRotation:
    def test_rotate_usage_preserves_counts(self):
        rig = Rig()
        usage = (3, 1, 0, 0, 2, 0, 0, 1)
        rotated = rig.osu.rotate_usage(usage, warp_id=5)
        assert sorted(rotated) == sorted(usage)
        assert rotated[(0 + 5) % 8] == usage[0]

    def test_reservable_respects_capacity(self):
        rig = Rig(osu_entries=32)  # 1 line per bank
        assert rig.osu.reservable([1] * 8, [0] * 8)
        assert not rig.osu.reservable([1] * 8, [1] + [0] * 7)

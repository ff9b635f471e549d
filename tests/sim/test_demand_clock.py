"""Demand-clocked component pumps == always-ticked reference.

The demand clock is a pure wall-clock optimization: skipping a component's
``cycle`` call on a cycle where it has no work must be invisible in every
simulated observable (counters, callback times, completion order, stall
bins).  These tests drive randomized traces through both clocking modes
and require bit-identical results, plus one full-simulation check with the
gating hooks forced to "always tick".
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.energy import Counters
from repro.harness.runner import SuiteRunner
from repro.mem import L1RegCache, MemoryHierarchy
from repro.regless import (
    Compressor,
    OperandStagingUnit,
    RegisterMapping,
    ReglessConfig,
)
from repro.regless.backend import ReglessStorage
from repro.regless.capacity import CapacityManager
from repro.sim import EventWheel, GPUConfig, LaneValues
from repro.sim.scheduler import WarpScheduler


# ---------------------------------------------------------------------------
# Memory hierarchy: gated pump + lazy token credit == per-cycle pump
# ---------------------------------------------------------------------------

# Rates restricted to multiples of 0.25: exact in binary floating point, so
# the closed-form credit in credit_idle is bit-identical to iterated regen.
_RATES = (0.25, 0.5, 1.0, 1.75)

hier_trace = st.lists(
    st.tuples(
        st.integers(0, 30),  # idle gap before this request
        st.integers(0, 1),   # sm id
        st.integers(0, 9),   # address selector
        st.booleans(),       # is_write
    ),
    max_size=25,
)


def _drive_hierarchy(trace, icnt_rate, dram_rate, gated):
    cfg = GPUConfig(n_sms=2, icnt_per_sm=icnt_rate,
                    dram_lines_per_cycle=dram_rate)
    counters = Counters()
    wheel = EventWheel()
    hier = MemoryHierarchy(cfg, counters, wheel)
    # Absolute issue cycle per request (gaps accumulate).
    sched: dict = {}
    t = 1
    for gap, sm_id, sel, is_write in trace:
        t += gap
        sched.setdefault(t, []).append((sm_id, sel, is_write))
    horizon = t + 600
    events = []
    idle = 0
    while wheel.now < horizon:
        wheel.tick()
        if gated:
            if hier.pending_total:
                if idle:
                    hier.credit_idle(idle)
                    idle = 0
                hier.cycle()
            else:
                idle += 1
        else:
            hier.cycle()
        # Requests enter after the pump, like SM issue after hierarchy.cycle.
        for sm_id, sel, is_write in sched.get(wheel.now, ()):
            tag = len(events)
            cb = None
            if not is_write:
                cb = lambda tag=tag: events.append((tag, wheel.now))
            hier.request(sm_id, sel * 4096, is_write, cb,
                         kind="data" if sel % 2 else "reg")
    assert not hier.busy
    return counters.as_dict(), events


@given(hier_trace, st.sampled_from(_RATES), st.sampled_from(_RATES))
# Regression: a long idle gap at rate 0.25 used to under-credit the token
# buckets (regen clamp assumed saturation within 8 cycles; the icnt bucket
# needs 16 and DRAM 32 at the slowest rate), delaying a hit by one cycle.
@example(trace=[(8, 0, 0, False), (0, 0, 0, False), (0, 0, 0, False)],
         icnt=0.25, dram=0.25)
@settings(max_examples=40, deadline=None)
def test_hierarchy_demand_clock_matches_reference(trace, icnt, dram):
    ref_counters, ref_events = _drive_hierarchy(trace, icnt, dram, gated=False)
    got_counters, got_events = _drive_hierarchy(trace, icnt, dram, gated=True)
    assert got_counters == ref_counters
    assert got_events == ref_events


# ---------------------------------------------------------------------------
# OSU: work_pending-gated pump == unconditionally-called pump
# ---------------------------------------------------------------------------

osu_ops = st.lists(
    st.tuples(
        st.integers(0, 12),  # idle gap before this op
        st.sampled_from(["preload", "preload_inv", "write_evict", "inval"]),
        st.integers(0, 7),   # warp
        st.integers(0, 7),   # reg
        st.integers(0, 2),   # value class
    ),
    max_size=30,
)


class _OsuRig:
    def __init__(self):
        self.cfg = GPUConfig()
        self.counters = Counters()
        self.wheel = EventWheel()
        self.hier = MemoryHierarchy(self.cfg, self.counters, self.wheel)
        self.l1 = L1RegCache(0, self.cfg, self.counters, self.wheel, self.hier)
        # 256 OSU entries per SM; the rig is one of the SM's 4 shards.
        self.rcfg = ReglessConfig(osu_entries_per_sm=256)
        shards = self.cfg.schedulers_per_sm
        self.mapping = RegisterMapping(n_warps=8, n_regs=8)
        self.compressor = Compressor(
            self.counters, self.mapping,
            self.rcfg.compressor_lines_per_sm // shards)
        self.values: dict = {}
        self.done: list = []
        self.osu = OperandStagingUnit(
            self.rcfg,
            256 // shards // self.rcfg.banks_per_shard,
            self.counters,
            self.wheel,
            self.l1,
            self.compressor,
            self.mapping,
            value_of=lambda w, r: self.values.get((w, r), LaneValues.uniform(0)),
            on_preload_done=lambda wid, src: self.done.append(
                (wid, src, self.wheel.now)
            ),
        )


_VALUES = (
    lambda seed: LaneValues.uniform(seed),
    lambda seed: LaneValues.affine(seed, 1),
    lambda seed: LaneValues.random(seed),
)


def _drive_osu(ops, gated):
    rig = _OsuRig()
    sched: dict = {}
    t = 1
    for gap, op, w, r, vclass in ops:
        t += gap
        sched.setdefault(t, []).append((op, w, r, vclass))
    horizon = t + 800
    while rig.wheel.now < horizon:
        rig.wheel.tick()
        rig.hier.cycle()
        # Ops land before the pump, like CM admission before osu.cycle.
        for op, w, r, vclass in sched.get(rig.wheel.now, ()):
            if op == "preload":
                rig.osu.enqueue_preload(w, r, invalidate=False)
            elif op == "preload_inv":
                rig.osu.enqueue_preload(w, r, invalidate=True)
            elif op == "write_evict":
                rig.values[(w, r)] = _VALUES[vclass](w * 8 + r + 1)
                rig.osu.reserve_write(w, r)
                rig.osu.complete_write(w, r)
                rig.osu.mark_evictable(w, r)
            else:
                rig.osu.enqueue_invalidate(w, r)
        if gated:
            if rig.osu.work_pending:
                rig.osu.cycle()
        else:
            rig.osu.cycle()
    assert rig.osu.idle and not rig.hier.busy
    return rig.counters.as_dict(), rig.done


@given(osu_ops)
@settings(max_examples=40, deadline=None)
def test_osu_demand_gate_matches_always_ticked(ops):
    ref_counters, ref_done = _drive_osu(ops, gated=False)
    got_counters, got_done = _drive_osu(ops, gated=True)
    assert got_counters == ref_counters
    assert got_done == ref_done


# ---------------------------------------------------------------------------
# Full simulation: forcing every gate open reproduces the same SimStats
# ---------------------------------------------------------------------------

def test_full_sim_always_ticked_matches_demand_clocked(monkeypatch):
    demand = SuiteRunner(cache=False).run("bfs", "regless").stats

    # Re-open every demand-clock gate: storages and schedulers report work
    # every cycle, so each component's cycle hook runs unconditionally.
    monkeypatch.setattr(ReglessStorage, "has_work", lambda self, now: True)
    monkeypatch.setattr(CapacityManager, "needs_cycle", lambda self, now: True)
    monkeypatch.setattr(
        OperandStagingUnit, "work_pending", property(lambda self: True)
    )
    monkeypatch.setattr(
        WarpScheduler, "quiescent", property(lambda self: False)
    )
    always = SuiteRunner(cache=False).run("bfs", "regless").stats

    assert always.finished and demand.finished
    assert always.cycles == demand.cycles
    assert always.instructions == demand.instructions
    assert always.warps_done == demand.warps_done
    assert always.counters == demand.counters
    assert always.stalls == demand.stalls

"""Top-level GPU simulation: SMs, shared memory hierarchy, run loop.

:class:`GPU` ties together the compiled kernel, the workload oracles, the
SMs and the L2/DRAM model, then runs cycle-by-cycle until every warp exits.
A fast-forward optimization skips dead cycles (nothing issuable, no
background work) straight to the next scheduled event without changing
results.  Few cycles are dead: on the default-config grid it skips 9 %
of them, about half on gaussian and 0-8 % on the other kernels
(docs/performance.md, "Simulator cost baselines").
"""

from __future__ import annotations

import gc

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from typing import TYPE_CHECKING

from ..compiler.pipeline import CompiledKernel
from ..energy.accounting import Counters
from ..mem.hierarchy import MemoryHierarchy
from ..obs.stalls import check_conservation, merge_stalls
from .config import GPUConfig
from .events import EventWheel
from .sm import SM
from .watchdog import SimDeadlock, SimulationHang, Watchdog, snapshot_diagnostics

if TYPE_CHECKING:  # pragma: no cover
    from ..regfile.base import OperandStorage
    from ..workloads.base import Workload

__all__ = ["DEFAULT_MAX_CYCLES", "GPU", "SimStats", "SimDeadlock",
           "run_simulation"]

#: Hard safety ceiling applied when the config's ``max_cycles`` is unset
#: (``None`` or <= 0): no workload may spin the event wheel forever, even
#: with the watchdog disabled.  Hitting any ceiling ends the run with
#: ``finished=False`` and a ``cycle_ceiling`` counter instead of hanging.
DEFAULT_MAX_CYCLES = 10_000_000


@dataclass
class SimStats:
    """Results of one simulation run."""

    cycles: int
    instructions: int
    warps_done: int
    warps_total: int
    counters: Dict[str, float]
    finished: bool
    #: distinct (warp, reg) count per working-set window (Figure 2).
    working_set_samples: List[int] = field(default_factory=list)
    #: per-window deltas of selected counters (Figure 3 time series).
    window_series: Dict[str, List[float]] = field(default_factory=dict)
    #: stall attribution, reason -> warp-cycles, summed over all shards
    #: (includes ``issued``; conserves ``warps x cycles``).  Each shard's
    #: own bins stay on its tracker, ``shard.stalls``.
    stalls: Dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def working_set_kb(self) -> float:
        """Mean register working set per window, in KB (128 B per register)."""
        if not self.working_set_samples:
            return 0.0
        mean = sum(self.working_set_samples) / len(self.working_set_samples)
        return mean * 128 / 1024


class GPU:
    """The simulated GPU."""

    def __init__(
        self,
        config: GPUConfig,
        compiled: CompiledKernel,
        workload: "Workload",
        storage_factory: Callable[[int, int], "OperandStorage"],
        watchdog: Optional[Watchdog] = None,
    ):
        self.config = config
        #: optional forward-progress monitor (repro.sim.watchdog); polled
        #: every ``watchdog.config.check_interval`` run-loop iterations.
        self.watchdog = watchdog
        self.compiled = compiled
        self.workload = workload
        self.oracle = workload.oracle()
        self.divergent_lines = workload.divergent_lines
        self.counters = Counters()
        self.wheel = EventWheel()
        self.hierarchy = MemoryHierarchy(config, self.counters, self.wheel)
        self.working_set: Set[Tuple[int, int]] = set()
        #: warps that have exited, across all SMs (bumped by
        #: :meth:`SM.notify_warp_done`; lets the run loop test completion
        #: with one comparison instead of scanning every warp each cycle).
        self.warps_done_total = 0
        self.sms = [
            SM(self, sm_id, lambda shard_id, _sm=sm_id: storage_factory(_sm, shard_id))
            for sm_id in range(config.n_sms)
        ]
        self._storages = [
            shard.storage for sm in self.sms for shard in sm.shards
        ]

    # -- run loop -----------------------------------------------------------------

    def run(self, window_series: Sequence[str] = ()) -> SimStats:
        # The cycle loop allocates heavily (writeback continuations, scan
        # snapshots, per-cycle bin dicts) but almost everything dies by
        # refcount; generational GC only adds full-heap scans to the hot
        # loop.  Pause it for the run, restore on the way out.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run(window_series)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self, window_series: Sequence[str] = ()) -> SimStats:
        # The loop body runs once per simulated cycle; everything it touches
        # repeatedly is bound to a local first.
        cfg = self.config
        wheel = self.wheel
        sms = self.sms
        # Pre-bound SM pumps (resolved once, not per cycle).
        sm_cycles = [sm.cycle for sm in sms]
        hierarchy = self.hierarchy
        storages = self._storages
        counters = self.counters
        working_set = self.working_set
        warps_total = sum(len(sm.warps) for sm in sms)
        max_cycles = cfg.max_cycles
        if not max_cycles or max_cycles <= 0:
            # Safety ceiling: a config that disables the limit must still
            # terminate eventually (satisfied by the watchdog long before
            # this in monitored runs).
            max_cycles = DEFAULT_MAX_CYCLES
        watchdog = self.watchdog
        if watchdog is not None:
            watchdog.start(self)
            wd_every = watchdog.config.check_interval
            wd_left = wd_every
        fast_forward = cfg.fast_forward
        track_ws = cfg.track_working_set
        instructions = 0
        ws_samples: List[int] = []
        series: Dict[str, List[float]] = {name: [] for name in window_series}
        last_counter_vals = {name: 0.0 for name in window_series}
        window = cfg.working_set_window
        next_window = window
        idle_cycles = 0
        #: pump cycles elided while the hierarchy had no queued request;
        #: credited (closed-form token regeneration) before its next pump.
        hierarchy_idle = 0

        def sample_window() -> None:
            # Window sampling (Figures 2 and 3); shared by the normal and
            # fast-forward paths.
            nonlocal next_window
            if track_ws:
                ws_samples.append(len(working_set))
                working_set.clear()
            for name in window_series:
                value = counters.get(name)
                series[name].append(value - last_counter_vals[name])
                last_counter_vals[name] = value
            next_window += window

        while wheel.now < max_cycles:
            if (
                self.warps_done_total >= warps_total
                and not self._work_outstanding()
            ):
                break
            if watchdog is not None:
                wd_left -= 1
                if wd_left <= 0:
                    wd_left = wd_every
                    watchdog.poll(self, wheel.now, instructions)

            wheel.tick()
            # Demand-clocked pump: with no queued request the hierarchy can
            # only regenerate tokens, which accrues in closed form — bank
            # the cycle instead of calling in.
            if hierarchy.pending_total:
                if hierarchy_idle:
                    hierarchy.credit_idle(hierarchy_idle)
                    hierarchy_idle = 0
                hierarchy.cycle()
            else:
                hierarchy_idle += 1
            issued = 0
            for sm_cycle in sm_cycles:
                issued += sm_cycle()
            instructions += issued

            if wheel.now >= next_window:
                sample_window()

            if issued or hierarchy.pending_total or not all(st.idle for st in storages):
                idle_cycles = 0
                continue

            # Dead cycle: nothing issued and no background pump has work.
            # Shard-local wake heaps (pipeline-stall expiries; see
            # repro.sim.shard) are deliberately invisible here: a wake due
            # mid-skip is popped at the first simulated cycle after the
            # skip — exactly when the seed's scan-everything loop, which
            # also never simulated skipped cycles, would first have
            # re-attempted the warp.  Routing those wakes through the
            # wheel instead would shrink skip spans and change simulated
            # attempt counts (e.g. RFV's emergency valve).
            if fast_forward:
                nxt = wheel.next_event_cycle()
                if nxt is None:
                    idle_cycles += 1
                    if idle_cycles > 10_000:
                        self._raise_deadlock()
                else:
                    # Fast-forward straight to the next scheduled event:
                    # an O(1) bulk jump — every bucket in the span is empty
                    # by construction, so ticking through them one by one
                    # observed nothing.
                    idle_cycles = 0
                    skip_to = min(nxt - 1, max_cycles)
                    skipped = skip_to - wheel.now
                    if skipped > 0:
                        wheel.skip_to(skip_to)
                        # Window boundaries inside the span sample the same
                        # (unchanged) state the per-tick loop saw: the first
                        # takes the real deltas, the rest read zeros.
                        while next_window <= wheel.now:
                            sample_window()
                        # Skipped cycles replay the dead cycle's stall
                        # bins (no state changes while time jumps over
                        # empty buckets), keeping the attribution
                        # conservative over the full cycle count.
                        for sm in sms:
                            sm.account_skipped(skipped)
            elif wheel.pending_events == 0:
                idle_cycles += 1
                if idle_cycles > 10_000:
                    self._raise_deadlock()
            else:
                idle_cycles = 0

        for sm in self.sms:
            for shard in sm.shards:
                shard.storage.finalize()

        finished = all(sm.done for sm in self.sms)
        if not finished and wheel.now >= max_cycles:
            # The safety ceiling (not natural completion) ended the run;
            # make that visible in counters instead of failing silently.
            self.counters.inc("cycle_ceiling")

        stalls = self._collect_stalls(wheel.now)
        warps_done = sum(sm.warps_done for sm in self.sms)
        warps_total = sum(len(sm.warps) for sm in self.sms)
        return SimStats(
            cycles=wheel.now,
            instructions=instructions,
            warps_done=warps_done,
            warps_total=warps_total,
            counters=self.counters.as_dict(),
            finished=finished,
            working_set_samples=ws_samples,
            window_series=series,
            stalls=stalls,
        )

    def _collect_stalls(self, cycles: int) -> Dict[str, int]:
        """Merge every shard's stall bins into one breakdown.  Each shard
        must first be conservative (attributed warp-cycles == warps x
        cycles) and have accounted every one of the run's ``cycles``."""
        reports = []
        for sm in self.sms:
            for shard in sm.shards:
                tracker = shard.stalls
                if tracker is None:
                    continue
                report = tracker.report(sm.sm_id, shard.shard_id)
                check_conservation(report)
                assert report["cycles"] == cycles, (
                    f"shard {sm.sm_id}.{shard.shard_id} accounted "
                    f"{report['cycles']} cycles, simulation ran {cycles}"
                )
                reports.append(report)
        return merge_stalls(reports)

    def _work_outstanding(self) -> bool:
        return (
            self.wheel.pending_events > 0
            or self.hierarchy.busy
            or not all(st.idle for st in self._storages)
        )

    def _raise_deadlock(self) -> None:
        stuck = []
        for sm in self.sms:
            for w in sm.warps:
                if not w.exited:
                    stuck.append(
                        f"warp {w.wid}: pc={w.pc} barrier={w.at_barrier} "
                        f"inflight={w.inflight}"
                    )
        detail = "; ".join(stuck[:8])
        watchdog = self.watchdog
        if watchdog is not None:
            watchdog.trips += 1
        raise SimulationHang(
            "wheel_empty",
            cycle=self.wheel.now,
            wall_seconds=watchdog.wall_seconds() if watchdog else 0.0,
            diagnostics=snapshot_diagnostics(self),
            detail=f"no progress possible; stuck warps: {detail}",
        )


def run_simulation(
    config: GPUConfig,
    compiled: CompiledKernel,
    workload: "Workload",
    storage_factory: Callable[[int, int], "OperandStorage"],
    window_series: Sequence[str] = (),
    watchdog: Optional[Watchdog] = None,
) -> SimStats:
    """Convenience wrapper: build a GPU and run it.

    ``watchdog`` attaches a forward-progress monitor
    (:mod:`repro.sim.watchdog`).  Either way the run is bounded by
    ``config.max_cycles``: a config with no ceiling falls back to
    :data:`DEFAULT_MAX_CYCLES`.
    """
    gpu = GPU(config, compiled, workload, storage_factory, watchdog=watchdog)
    return gpu.run(window_series=window_series)

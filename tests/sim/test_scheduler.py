import pytest

from repro.sim import GTOScheduler, LRRScheduler, TwoLevelScheduler, Warp, make_scheduler
from repro.sim.scheduler import SCHEDULERS


def warps(n):
    return [
        Warp(wid=i, shard_id=0, cta_id=0, entry_pc=0, sentinel_pc=100)
        for i in range(n)
    ]


def scan(s, cycle):
    """One cycle's full candidate stream, pulled the way the shard does."""
    s.begin_cycle(cycle)
    candidates = s.begin_scan(cycle)
    out = []
    while (w := candidates.next_candidate()) is not None:
        out.append(w)
    return out


def exit_warp(s, w):
    """Park ``w`` terminally, as the shard does when a warp exits."""
    w.exited = True
    w.ready = False
    s.notify_blocked(w)
    s.notify_exit(w)


class TestGTO:
    def test_greedy_first(self):
        ws = warps(4)
        s = GTOScheduler(ws)
        s.notify_issue(ws[2], cycle=5)
        assert scan(s, 6)[0] is ws[2]

    def test_greedy_sticks_while_issuing(self):
        ws = warps(4)
        s = GTOScheduler(ws)
        s.notify_issue(ws[1], cycle=1)   # greedy = w1
        s.notify_issue(ws[1], cycle=2)   # w1 keeps issuing
        s.notify_issue(ws[3], cycle=2)   # second slot, same cycle
        assert scan(s, 3)[0] is ws[1]  # w1 stays greedy

    def test_greedy_handoff_on_stall(self):
        ws = warps(4)
        s = GTOScheduler(ws)
        s.notify_issue(ws[1], cycle=1)
        # Cycle 2: w1 did not issue; w3 did -> greediness moves.
        s.notify_issue(ws[3], cycle=2)
        assert scan(s, 3)[0] is ws[3]

    def test_fallback_is_least_recently_issued(self):
        ws = warps(4)
        s = GTOScheduler(ws)
        for i in (3, 2, 1, 0):
            s.notify_issue(ws[i], cycle=10 - i)
        # w0 issued last and is greedy; the rest follow, oldest issue first.
        assert [w.wid for w in scan(s, 20)] == [0, 3, 2, 1]

    def test_done_greedy_skipped(self):
        ws = warps(2)
        s = GTOScheduler(ws)
        s.notify_issue(ws[0], 1)
        exit_warp(s, ws[0])
        assert scan(s, 2) == [ws[1]]


class TestLRR:
    def test_rotates_after_issue(self):
        ws = warps(3)
        s = LRRScheduler(ws)
        assert scan(s, 0)[0] is ws[0]
        s.notify_issue(ws[0], 0)
        assert scan(s, 1)[0] is ws[1]

    def test_covers_all(self):
        ws = warps(3)
        s = LRRScheduler(ws)
        assert [w.wid for w in scan(s, 0)] == [0, 1, 2]


class TestTwoLevel:
    def test_active_pool_limited(self):
        ws = warps(16)
        s = TwoLevelScheduler(ws, active_size=4)
        assert scan(s, 0) == ws[:4]
        assert [w for w in ws if s.eligible(w)] == ws[:4]

    def test_demotion_promotes_pending(self):
        ws = warps(16)
        s = TwoLevelScheduler(ws, active_size=4)
        first = scan(s, 0)
        s.notify_long_stall(first[0])
        second = scan(s, 1)
        assert first[0] not in second
        assert len(second) == 4
        assert not s.eligible(first[0])

    def test_promoted_warp_pays_refill_penalty(self):
        ws = warps(16)
        s = TwoLevelScheduler(ws, active_size=4)
        promoted_seen = []
        s.on_promote = promoted_seen.append
        s.begin_cycle(10)  # establish current cycle
        s.notify_long_stall(ws[0])
        promoted = scan(s, 10)[-1]
        assert promoted is ws[4] and promoted_seen == [ws[4]]
        assert promoted.stall_until >= 10 + TwoLevelScheduler.PROMOTE_PENALTY

    def test_done_warps_drain_from_pool(self):
        ws = warps(6)
        s = TwoLevelScheduler(ws, active_size=4)
        for w in ws[:4]:
            exit_warp(s, w)
        assert not s.quiescent  # the purge waits for the next cycle
        active = scan(s, 0)
        assert all(not w.done for w in active)
        assert len(active) == 2
        assert s.quiescent

    def test_demoting_unknown_warp_is_noop(self):
        ws = warps(4)
        s = TwoLevelScheduler(ws, active_size=2)
        outsider = warps(1)[0]
        s.notify_long_stall(outsider)  # no crash
        assert scan(s, 0) == ws[:2]


class TestFactory:
    @pytest.mark.parametrize("kind,cls", [
        ("gto", GTOScheduler),
        ("lrr", LRRScheduler),
        ("two_level", TwoLevelScheduler),
    ])
    def test_kinds(self, kind, cls):
        assert isinstance(make_scheduler(kind, warps(2)), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("fifo", warps(2))

    def test_listed_kinds_are_the_made_ones(self):
        """The service rejects a ``scheduler`` override outside
        ``SCHEDULERS`` at admission, so the list must be exactly the
        kinds the factory makes."""
        assert set(SCHEDULERS) == {"gto", "lrr", "two_level"}
        for kind in SCHEDULERS:
            make_scheduler(kind, warps(2))

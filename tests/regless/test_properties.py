"""Property tests for the RegLess hardware structures."""

from hypothesis import given, settings, strategies as st

from repro.regless.osu import Bank
from repro.regless import Compressor, RegisterMapping, match_pattern
from repro.energy import Counters
from repro.sim import LaneValues


# ---------------------------------------------------------------------------
# Bank: random operation sequences preserve the structural invariants
# ---------------------------------------------------------------------------

op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["allocate", "erase", "mark_dirty", "mark_evictable",
                         "acquire"]),
        st.integers(0, 3),   # warp
        st.integers(0, 7),   # reg
    ),
    max_size=120,
)


@given(op_strategy, st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_bank_invariants_under_random_ops(ops, capacity):
    bank = Bank(capacity)
    for op, w, r in ops:
        getattr(bank, op)((w, r))
        # Invariant 1: clean/dirty lists only reference tagged entries with
        # the matching state.
        for key in bank.clean:
            assert bank.tags[key].state == "clean"
        for key in bank.dirty:
            assert bank.tags[key].state == "dirty"
        # Invariant 2: every tagged entry is in exactly the list its state
        # names (active entries in neither).
        for key, entry in bank.tags.items():
            in_clean = key in bank.clean
            in_dirty = key in bank.dirty
            if entry.state == "active":
                assert not in_clean and not in_dirty
            elif entry.state == "clean":
                assert in_clean and not in_dirty
            else:
                assert in_dirty and not in_clean
        # Invariant 3: occupancy only exceeds capacity via active overflow.
        evictable = len(bank.clean) + len(bank.dirty)
        if len(bank.tags) > capacity:
            assert evictable == 0


@given(op_strategy, st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_bank_free_count_consistent(ops, capacity):
    bank = Bank(capacity)
    for op, w, r in ops:
        getattr(bank, op)((w, r))
        assert bank.free == capacity - len(bank.tags)


# ---------------------------------------------------------------------------
# Compressor: the bit vector always agrees with the last compress/invalidate
# ---------------------------------------------------------------------------

value_strategy = st.one_of(
    st.integers(0, 1000).map(LaneValues.uniform),
    st.integers(0, 1000).map(lambda b: LaneValues.affine(b, 1)),
    st.integers(0, 1000).map(lambda b: LaneValues.affine(b, 4)),
    st.integers(0, 1000).map(lambda b: LaneValues.affine(b, 3)),
    st.integers(0, 1000).map(LaneValues.random),
)


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                          value_strategy), max_size=60))
@settings(max_examples=60, deadline=None)
def test_compressor_bitvec_tracks_last_operation(events):
    counters = Counters()
    mapping = RegisterMapping(n_warps=8, n_regs=8)
    comp = Compressor(counters, mapping, cache_lines=4)
    expected = {}
    for reg, warp, value in events:
        comp.begin_cycle()
        ok, _ = comp.try_compress(reg, warp, value)
        assert ok == (match_pattern(value) is not None)
        expected[(reg, warp)] = ok
        for (r, w), compressed in expected.items():
            assert comp.is_compressed(r, w) == compressed


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40))
@settings(max_examples=40, deadline=None)
def test_compressor_invalidate_idempotent(pairs):
    counters = Counters()
    mapping = RegisterMapping(n_warps=8, n_regs=8)
    comp = Compressor(counters, mapping, cache_lines=12)
    for reg, warp in pairs:
        comp.begin_cycle()
        comp.try_compress(reg, warp, LaneValues.uniform(1))
        comp.invalidate(reg, warp)
        comp.invalidate(reg, warp)
        assert not comp.is_compressed(reg, warp)
    assert comp.compressed_count == 0

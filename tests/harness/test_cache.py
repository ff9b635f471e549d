"""Persistent result cache: round-trip identity and key invalidation."""

import multiprocessing
import pickle
import time

import pytest

from repro.energy.model import EnergyParams
from repro.harness import (ResultCache, RunOutcome, RunRequest, SuiteRunner,
                           run_digest)
from repro.sim import GPUConfig


SMALL = dict(warps_per_sm=8, schedulers_per_sm=2, cta_size_warps=4)


def make_runner(cache_dir):
    return SuiteRunner(config=GPUConfig(**SMALL),
                       cache=ResultCache(str(cache_dir)))


class TestRoundTrip:
    def test_fresh_runner_hits_cache(self, tmp_path):
        first = make_runner(tmp_path)
        cold = first.run("bfs", "regless")
        assert first.cache.writes == 1

        second = make_runner(tmp_path)
        warm = second.run("bfs", "regless")
        assert second.cache.hits == 1
        assert second.cache.writes == 0
        assert "cache_load" in warm.timings

        assert warm.cycles == cold.cycles
        assert warm.stats.counters == cold.stats.counters
        assert warm.energy == cold.energy

        # Entries leave the compiled kernel out; a hit carries the
        # reading runner's own.
        assert warm.compiled is second.compiled("bfs")
        digest = second._digest(RunRequest.make("bfs", "regless"))
        assert ResultCache(str(tmp_path)).get(digest).compiled is None

    def test_cache_load_excludes_the_key(self, tmp_path):
        """``cache_load`` times the entry read, not the kernel build and
        compile that the first digest of a kernel pays for."""
        make_runner(tmp_path).run("bfs", "baseline")

        class SlowCompile(SuiteRunner):
            def compiled(self, name):
                time.sleep(0.05)
                return super().compiled(name)

        warm = SlowCompile(config=GPUConfig(**SMALL),
                           cache=ResultCache(str(tmp_path)))
        hit = warm.run("bfs", "baseline")
        assert warm.cache.hits == 1
        assert hit.timings["cache_load"] < 0.05

    def test_memo_wins_over_disk(self, tmp_path):
        runner = make_runner(tmp_path)
        a = runner.run("bfs", "baseline")
        b = runner.run("bfs", "baseline")
        assert a is b
        assert runner.cache.hits == 0

    def test_run_grid_resolves_from_cache(self, tmp_path):
        make_runner(tmp_path).run_grid(
            [("bfs", "baseline"), ("nw", "baseline")], jobs=1
        )
        warm = make_runner(tmp_path)
        results = warm.run_grid(
            [("bfs", "baseline"), ("nw", "baseline")], jobs=1
        )
        assert warm.cache.hits == 2
        assert [r.benchmark for r in results] == ["bfs", "nw"]

    def test_cache_false_disables_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = SuiteRunner(config=GPUConfig(**SMALL), cache=False)
        runner.run("bfs", "baseline")
        assert runner.cache is None
        assert len(ResultCache(str(tmp_path))) == 0

    def test_repro_cache_0_disables_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert SuiteRunner(config=GPUConfig(**SMALL)).cache is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        digest = "ab" + "0" * 62
        cache.put(digest, {"ok": True})
        path = cache._path(digest)
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        assert cache.get(digest) is None
        assert cache.misses == 1

    def test_unusable_store_skips_writes(self, tmp_path):
        """A cache root below a regular file cannot be created: the run's
        result survives, the grid still yields one ok outcome per
        request, and nothing is stored."""
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        runner = make_runner(blocker / "cache")
        result = runner.run("bfs", "baseline")
        assert result.stats.finished
        outcomes = runner.run_grid_outcomes(
            [("bfs", "rfh"), ("nw", "baseline")], jobs=1
        )
        assert [o.status for o in outcomes] == [RunOutcome.OK] * 2
        assert runner.cache.writes == 0
        assert len(runner.cache) == 0

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("aa" + "0" * 62, 1)
        cache.put("bb" + "0" * 62, 2)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


def _racing_reader(root, digest, barrier, queue):
    """Child-process body for the eviction race: both processes hit the
    same corrupt entry at once."""
    cache = ResultCache(root)
    barrier.wait()
    result = cache.get(digest)
    queue.put((result is None, cache.misses, cache.corrupt_evictions))


class TestCorruptEvictionRace:
    """Regression: two workers racing to evict one corrupt entry must
    both read a miss, must not crash, and must count exactly one
    eviction between them."""

    DIGEST = "cc" + "0" * 62

    def corrupt_entry(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(self.DIGEST, {"ok": True})
        path = cache._path(self.DIGEST)
        with open(path, "wb") as fh:
            fh.write(b"garbage, not a framed pickle")
        return path

    def test_lost_race_is_not_counted_and_not_fatal(self, tmp_path):
        # Deterministic loser: the entry vanishes between this cache's
        # read and its unlink (another worker evicted it first).
        path = self.corrupt_entry(tmp_path)
        winner = ResultCache(str(tmp_path))
        loser = ResultCache(str(tmp_path))
        with open(path, "rb") as fh:
            fh.read()  # the loser "saw" the corrupt entry...
        assert winner.get(self.DIGEST) is None  # ...winner evicts it...
        loser._evict_corrupt(path, "corrupt entry")  # ...loser's unlink loses
        assert winner.corrupt_evictions == 1
        assert loser.corrupt_evictions == 0

    def test_two_process_race_counts_exactly_one_eviction(self, tmp_path):
        self.corrupt_entry(tmp_path)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=_racing_reader,
                        args=(str(tmp_path), self.DIGEST, barrier, queue))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        reports = [queue.get(timeout=30) for _ in procs]
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0  # FileNotFoundError must not escape
        assert all(missed for missed, _, _ in reports)
        assert [misses for _, misses, _ in reports] == [1, 1]
        # However the unlinks interleave, the entry is evicted once.
        assert sum(evictions for _, _, evictions in reports) == 1


class TestDigest:
    def digest(self, **kw):
        args = dict(
            config=GPUConfig(**SMALL),
            backend="regless",
            osu_entries=512,
            workload_name="bfs",
            workload_seed=1,
            kernel_bytes=b"kernel-v1",
            energy_params=EnergyParams(),
            salt="fixed-salt",
        )
        args.update(kw)
        return run_digest(**args)

    def test_deterministic(self):
        assert self.digest() == self.digest()

    def test_config_change_invalidates(self):
        assert self.digest() != self.digest(
            config=GPUConfig(**dict(SMALL, warps_per_sm=16))
        )

    def test_kernel_change_invalidates(self):
        assert self.digest() != self.digest(kernel_bytes=b"kernel-v2")

    def test_code_salt_change_invalidates(self):
        assert self.digest() != self.digest(salt="other-salt")

    def test_backend_capacity_and_seed_matter(self):
        base = self.digest()
        assert base != self.digest(backend="baseline")
        assert base != self.digest(osu_entries=256)
        assert base != self.digest(workload_seed=2)
        assert base != self.digest(window_series=("rf_read",))

    def test_energy_params_matter(self):
        assert self.digest() != self.digest(
            energy_params=EnergyParams(tag_access=0.5)
        )

    def test_runner_results_are_picklable(self, tmp_path):
        result = make_runner(tmp_path).run("bfs", "regless")
        clone = pickle.loads(pickle.dumps(result))
        assert clone.cycles == result.cycles
        assert clone.stats.counters == result.stats.counters

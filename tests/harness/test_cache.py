"""Persistent result cache: round-trip identity and key invalidation."""

import multiprocessing
import os
import pickle
import shutil
from collections import Counter
from dataclasses import fields, replace

import pytest

import repro
from repro.energy.model import EnergyParams
from repro.harness import (ResultCache, RunOutcome, RunRequest, SuiteRunner,
                           run_digest)
from repro.harness import cache as cache_module
from repro.harness.runner import BACKENDS, RunResult
from repro.sim import GPUConfig
from repro.workloads import Workload, make_workload, workload_names


SMALL = dict(warps_per_sm=8, schedulers_per_sm=2, cta_size_warps=4)
#: the small configuration of the 21 x 5 re-render grid (perfbench's
#: ``grid-warm`` cells), given as overrides on the default config.
GRID_SMALL = dict(warps_per_sm=16, schedulers_per_sm=2, cta_size_warps=8)
GRID_BACKENDS = BACKENDS + ("regless-nc",)


def grid(**overrides):
    return [RunRequest.make(name, backend, **overrides)
            for name in workload_names() for backend in GRID_BACKENDS]


def fresh_digest(request):
    """``run_digest`` over a config, energy parameters and workload built
    here from scratch, sharing no object with any runner."""
    two_level = {"scheduler": "two_level"} \
        if request.backend in ("rfh", "rfv") else {}
    return run_digest(
        config=GPUConfig(**two_level, **dict(request.overrides)),
        backend=request.backend,
        osu_entries=request.osu_entries,
        workload_name=request.benchmark,
        workload_seed=make_workload(request.benchmark).seed,
        energy_params=EnergyParams(),
        window_series=request.window_series,
    )


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

    def test_warm_hit_builds_and_compiles_nothing(self, tmp_path,
                                                  monkeypatch):
        """The key is the run's inputs, so a fresh runner serves a filled
        store without building or compiling a kernel; ``cache_load``
        times the entry read alone."""
        cells = [("bfs", "baseline"), ("bfs", "regless"), ("nw", "rfv")]
        filled = make_runner(tmp_path).run_grid(cells, jobs=1)

        def forbidden(*args, **kwargs):
            raise AssertionError("a cache hit built or compiled a kernel")

        monkeypatch.setattr("repro.harness.runner.compile_kernel", forbidden)
        monkeypatch.setattr(Workload, "kernel", forbidden)
        served, gridded = make_runner(tmp_path), make_runner(tmp_path)
        hit = served.run(*cells[0])
        grid = gridded.run_grid(cells, jobs=1)
        assert (served.cache.hits, gridded.cache.hits) == (1, 3)
        assert served.cache.misses == gridded.cache.misses == 0
        for result, want in zip([hit] + grid, filled[:1] + filled):
            assert "cache_load" in result.timings
            assert result.stats.counters == want.stats.counters

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

    def test_kernel_bytes_are_not_hashed(self):
        assert self.digest() == self.digest(kernel_bytes=b"any kernel")

    def test_key_format_is_pinned(self):
        """Schema-4 keys of one default-config and one small-config run.
        Every stored entry is addressed by this format, so a change to
        either hex re-keys (and so orphans) the whole store."""
        assert run_digest(
            GPUConfig(), "regless", 512, "bfs", 1, EnergyParams(), (),
            salt="fixed-salt",
        ) == "9b59f3faee64f7b2fa9b27f87d6cad4bb67a18c627fd170bb72ef56f6fadf9b1"
        assert run_digest(
            GPUConfig(**SMALL, scheduler="two_level"), "rfh", 256, "nw", 1,
            EnergyParams(), ("l1_access",), salt="fixed-salt",
        ) == "9817a03b899418b1f73b7066acc1fe019eab25a54732d6ca9164084e91b50561"

    @pytest.mark.parametrize("overrides", [{}, GRID_SMALL],
                             ids=["default", "small"])
    def test_runner_digest_equals_run_digest(self, overrides):
        """The runner keeps one config and key text per configuration;
        every cell's key still equals ``run_digest`` over objects built
        from scratch."""
        runner = SuiteRunner(cache=False)
        requests = grid(**overrides)
        assert [runner._digest(r) for r in requests] == \
            [fresh_digest(r) for r in requests]

    def test_warm_pass_builds_each_config_once(self, tmp_path, monkeypatch):
        """A fresh runner re-reading the filled 21 x 5 small-config grid
        builds each of its 5 configurations, and their key texts and the
        energy parameters' text, once: not once per cell."""
        requests = grid(**GRID_SMALL)
        store = ResultCache(str(tmp_path))
        for r in requests:
            store.put(fresh_digest(r), RunResult(
                r.benchmark, r.backend, r.osu_entries, stats=None,
                energy=None))
        built = Counter()
        init = GPUConfig.__init__
        field_items = cache_module._field_items

        def counting_init(self, *args, **kwargs):
            built["config"] += 1
            init(self, *args, **kwargs)

        def counting_field_items(obj):
            built["key text"] += 1
            return field_items(obj)

        monkeypatch.setattr(GPUConfig, "__init__", counting_init)
        monkeypatch.setattr(cache_module, "_field_items",
                            counting_field_items)
        runner = SuiteRunner(cache=ResultCache(str(tmp_path)))
        results = runner.run_grid(requests, jobs=1)
        assert [r.backend for r in results] == [r.backend for r in requests]
        assert (runner.cache.hits, runner.cache.misses) == (105, 0)
        # the base config, then one (rfh, rfv: two) ``with_`` per backend
        assert built["config"] <= 8
        # five configurations and the energy parameters
        assert built["key text"] <= 6

    def test_source_edit_changes_every_digest(self, tmp_path, monkeypatch):
        """The key holds no kernel bytes: a compiler or workload edit
        invalidates every cell through the code salt."""
        pkg = os.path.dirname(os.path.abspath(repro.__file__))
        runner = SuiteRunner(cache=False)
        requests = [RunRequest.make(name, backend)
                    for name in workload_names()
                    for backend in BACKENDS + ("regless-nc",)]

        def digests(root):
            monkeypatch.setattr(repro, "__file__",
                                os.path.join(root, "__init__.py"))
            monkeypatch.setattr(cache_module, "_CODE_SALT", None)
            return [runner._digest(r) for r in requests]

        def copy(name, edited=None):
            root = str(tmp_path / name)
            shutil.copytree(pkg, root,
                            ignore=shutil.ignore_patterns("__pycache__"))
            if edited is not None:
                with open(os.path.join(root, edited), "a") as fh:
                    fh.write("# edited\n")
            return root

        original = digests(pkg)
        assert len(set(original)) == 21 * 5
        assert digests(copy("pristine")) == original
        for edited in ("compiler/regalloc.py", "workloads/rodinia.py"):
            changed = digests(copy(edited.split("/")[0], edited))
            assert all(a != b for a, b in zip(original, changed)), edited

    def test_every_config_and_energy_field_changes_the_digest(self):
        def perturbed(value):
            if isinstance(value, bool):
                return not value
            if isinstance(value, (int, float)):
                return value + 1
            return value + "-other"

        seen = {self.digest()}
        for param, obj in (("config", GPUConfig(**SMALL)),
                           ("energy_params", EnergyParams())):
            for f in fields(obj):
                value = perturbed(getattr(obj, f.name))
                other = replace(obj, **{f.name: value})
                digest = self.digest(**{param: other})
                assert digest not in seen, f.name
                seen.add(digest)

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

"""Persistent, content-addressed result cache for the evaluation harness.

Every simulation run is keyed by a digest over its inputs:

* the full :class:`~repro.sim.config.GPUConfig` (overrides already applied),
* the backend name and OSU capacity,
* the workload name and oracle seed,
* the energy-model parameters,
* the requested window series, and
* a **code-version salt**: a hash over every ``repro`` source file, so any
  simulator change self-invalidates the whole store.

The compiled kernel is not an ingredient of its own: a kernel is a
deterministic function of its workload and of the compiler and workload
sources, so an edit to either changes the code salt, and with it every
key.  Computing a key therefore builds and compiles nothing.

Entries are plain pickled :class:`~repro.harness.runner.RunResult`
objects (statistics, energy and timings), stored under
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-regless``).
Set ``REPRO_CACHE=0`` to disable caching entirely.

Crash safety
------------

Entries are framed — magic, schema version, payload SHA-256, payload —
and every read verifies the frame before unpickling.  Writes go through a
temp file + atomic rename, so a crash mid-write leaves at worst a stray
``.tmp`` file, never a half-written entry served as truth; concurrent
writers — e.g. several ``run_grid`` worker collections — can share one
store safely.  A truncated, bit-flipped, wrong-version, or otherwise
unreadable entry reads as a **miss** and is deleted on sight
(``corrupt_evictions``), so one bad sector can't wedge a sweep.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import fields
from typing import Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..energy.model import EnergyParams
    from ..obs.metrics import MetricScope
    from ..sim.config import GPUConfig
    from .runner import RunResult

__all__ = ["CACHE_SCHEMA_VERSION", "CacheCorruption", "ResultCache",
           "cache_enabled", "cache_root", "code_salt", "run_digest"]


def cache_enabled() -> bool:
    """Disk caching is on unless ``REPRO_CACHE=0``."""
    return os.environ.get("REPRO_CACHE", "1") != "0"


def cache_root() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-regless``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-regless")


_CODE_SALT: Optional[str] = None


def code_salt() -> str:
    """Digest of every ``repro`` source file (computed once per process).

    Editing any simulator/compiler/harness source therefore invalidates all
    previously cached results — stale entries are never served.
    """
    global _CODE_SALT
    if _CODE_SALT is None:
        import repro

        pkg_root = os.path.dirname(os.path.abspath(repro.__file__))
        h = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(pkg_root)):
            dirnames.sort()
            for fname in sorted(filenames):
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fname)
                h.update(os.path.relpath(path, pkg_root).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
        _CODE_SALT = h.hexdigest()
    return _CODE_SALT


def _field_items(obj) -> list:
    """``(name, value)`` for every field of a flat dataclass, by name."""
    return sorted((f.name, getattr(obj, f.name)) for f in fields(obj))


def run_digest(
    config: "GPUConfig",
    backend: str,
    osu_entries: int,
    workload_name: str,
    workload_seed: int,
    energy_params: "EnergyParams",
    window_series: Sequence[str] = (),
    salt: Optional[str] = None,
    *,
    kernel_bytes: Optional[bytes] = None,
) -> str:
    """Content digest identifying one simulation run.

    ``config`` and ``energy_params`` are flat frozen dataclasses of
    scalars, so their fields are read directly rather than deep-copied.
    ``kernel_bytes`` is accepted and ignored: the code salt already
    covers the compiled kernel.  It is kept only until
    ``perfbench/grid.py::traced_cell``, which still passes it, goes.
    """
    h = hashlib.sha256()
    h.update((salt if salt is not None else code_salt()).encode())
    descriptor = repr((
        _field_items(config),
        backend,
        int(osu_entries),
        workload_name,
        int(workload_seed),
        tuple(window_series),
        _field_items(energy_params),
    ))
    h.update(descriptor.encode())
    return h.hexdigest()


#: bumped whenever the on-disk entry layout changes; older entries read
#: as misses and are evicted.
CACHE_SCHEMA_VERSION = 4

_MAGIC = b"RGC\x01"
_HEADER_LEN = len(_MAGIC) + 2 + 32  # magic + version (u16 BE) + sha256


class CacheCorruption(ValueError):
    """An entry failed frame validation (internal to :meth:`ResultCache.get`)."""


def _frame(payload: bytes) -> bytes:
    return (
        _MAGIC
        + CACHE_SCHEMA_VERSION.to_bytes(2, "big")
        + hashlib.sha256(payload).digest()
        + payload
    )


def _unframe(data: bytes) -> bytes:
    if len(data) < _HEADER_LEN:
        raise CacheCorruption("truncated header")
    if data[: len(_MAGIC)] != _MAGIC:
        raise CacheCorruption("bad magic")
    version = int.from_bytes(data[len(_MAGIC) : len(_MAGIC) + 2], "big")
    if version != CACHE_SCHEMA_VERSION:
        raise CacheCorruption(f"schema version {version}")
    checksum = data[len(_MAGIC) + 2 : _HEADER_LEN]
    payload = data[_HEADER_LEN:]
    if hashlib.sha256(payload).digest() != checksum:
        raise CacheCorruption("checksum mismatch")
    return payload


class ResultCache:
    """On-disk pickle store addressed by :func:`run_digest` keys.

    ``metrics`` may be set to a :class:`~repro.obs.metrics.MetricScope`;
    corrupt-entry evictions are then counted under ``corrupt_evictions``.
    """

    def __init__(self, root: Optional[str] = None,
                 metrics: Optional["MetricScope"] = None):
        self.root = str(root) if root is not None else cache_root()
        self.metrics = metrics
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt_evictions = 0

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], f"{digest}.pkl")

    def _evict_corrupt(self, path: str, reason: str) -> None:
        """Remove a corrupt entry, tolerating a concurrent eviction.

        Several workers can read the same corrupt entry and race to
        unlink it; only the one whose unlink actually removed the file
        counts the eviction, so ``corrupt_evictions`` summed across
        processes is exactly one per corrupt entry — and the losers'
        ``FileNotFoundError`` never escapes to kill the run (both still
        record a miss in :meth:`get`)."""
        try:
            os.unlink(path)
        except FileNotFoundError:
            return  # a concurrent worker evicted it first
        except OSError:
            pass  # unwritable store: still a miss, and we did see it
        self.corrupt_evictions += 1
        if self.metrics is not None:
            self.metrics.inc("corrupt_evictions")

    def get(self, digest: str) -> Optional["RunResult"]:
        """The cached result, or ``None``.

        Corrupt, truncated, or version-mismatched entries read as misses
        and are deleted so they are never re-examined."""
        path = self._path(digest)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            self.misses += 1
            return None
        try:
            result = pickle.loads(_unframe(data))
        except (CacheCorruption, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError, ValueError):
            # Unpickling failures are corruption too: the checksum only
            # guards bit rot, not entries written by incompatible code.
            self._evict_corrupt(path, "corrupt entry")
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, digest: str, result: "RunResult") -> None:
        """Store ``result`` under ``digest``.  A store that cannot be
        written (unwritable or missing root, full disk) skips the write:
        the caller keeps its result and ``writes`` is unchanged."""
        path = self._path(digest)
        tmp = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(_frame(
                    pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
                ))
            os.replace(tmp, path)  # atomic on POSIX
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            return
        self.writes += 1

    def __len__(self) -> int:
        count = 0
        for _, _, files in os.walk(self.root):
            count += sum(1 for f in files if f.endswith(".pkl"))
        return count

    def clear(self) -> int:
        """Delete every cached result; returns the number removed."""
        removed = 0
        for dirpath, _, files in os.walk(self.root):
            for fname in files:
                if fname.endswith(".pkl"):
                    try:
                        os.unlink(os.path.join(dirpath, fname))
                        removed += 1
                    except OSError:
                        pass
        return removed

"""Deterministic fault injection for the resilient harness.

Two families of injectors:

* **Cross-process faults** — specs encoded into ``REPRO_FAULTS`` (with a
  claim directory in ``REPRO_FAULT_DIR``) that worker processes consult at
  the top of every run.  A spec fires at most ``count`` times *across all
  workers*: each firing is claimed by exclusively creating a marker file
  (``O_CREAT | O_EXCL``), so "kill the worker once" means exactly once no
  matter how the pool schedules or rebuilds.  Kinds:

  - ``kill``  — hard-exit the worker mid-run (``os._exit``), the way an
    OOM kill or segfault looks to the parent pool.
  - ``hang``  — sleep past any reasonable per-run timeout.
  - ``raise`` — raise :class:`InjectedFault` (an ordinary in-process
    crash; the pool survives).

* **In-process backend wedges** — storage-factory wrappers that produce a
  deliberately buggy backend: :func:`freeze_admission` (a capacity manager
  that never admits another warp — the livelock the watchdog's
  no-progress window exists to catch) and :func:`drop_wakes` (admission
  progress that never re-readies parked warps — the lost-wake bug that
  drains the event wheel into a structured hang).

* **Service (daemon) faults** — specs encoded into
  ``REPRO_SERVICE_FAULTS`` that the *daemon itself* consults at named
  points (``journal.submit.pre``, ``dispatch.pre``, ``compact.post``,
  ...).  Same exactly-``count`` claim discipline via the shared
  ``REPRO_FAULT_DIR``, so a restarted daemon with the plan still armed
  does not re-fire an exhausted fault.  Kinds:

  - ``kill``    — ``os._exit`` the daemon at the point (crash test).
  - ``torn``    — write a partial journal frame, fsync, then die (the
    torn tail replay must truncate-and-continue past).
  - ``bitflip`` — write a corrupted journal frame, fsync, then die (a
    checksum-mismatching record replay must drop).

Both families are deterministic: no randomness, no timing dependence
beyond the injected sleep itself.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

__all__ = [
    "FAULTS_ENV",
    "FAULT_DIR_ENV",
    "SERVICE_FAULTS_ENV",
    "FaultSpec",
    "InjectedFault",
    "ServiceFaultSpec",
    "drop_wakes",
    "encode_plan",
    "encode_service_plan",
    "freeze_admission",
    "injected_faults",
    "maybe_fire",
    "parse_plan",
    "parse_service_plan",
    "service_fault",
    "service_kill_point",
]

FAULTS_ENV = "REPRO_FAULTS"
FAULT_DIR_ENV = "REPRO_FAULT_DIR"
SERVICE_FAULTS_ENV = "REPRO_SERVICE_FAULTS"

_KINDS = ("kill", "hang", "raise")
_SERVICE_KINDS = ("kill", "torn", "bitflip")

#: exit status a ``kill`` fault dies with — distinctive in worker logs.
KILL_EXIT_CODE = 64


class InjectedFault(RuntimeError):
    """The in-process crash raised by a ``raise`` fault spec."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: ``kind`` fired on runs matching ``target``.

    ``target`` is ``"benchmark/backend"`` or ``"*"`` (any run).  ``count``
    bounds total firings across every process sharing the claim directory.
    ``delay`` is the ``hang`` sleep in seconds (0 means "practically
    forever").
    """

    kind: str
    target: str = "*"
    count: int = 1
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def matches(self, key: str) -> bool:
        return self.target == "*" or self.target == key


def encode_plan(specs: Sequence[FaultSpec]) -> str:
    return ";".join(
        f"{s.kind}:{s.target}:{s.count}:{s.delay}" for s in specs
    )


def parse_plan(text: str) -> List[FaultSpec]:
    specs: List[FaultSpec] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        kind, target, count, delay = part.split(":")
        specs.append(
            FaultSpec(kind=kind, target=target, count=int(count),
                      delay=float(delay))
        )
    return specs


@contextmanager
def injected_faults(specs: Sequence[FaultSpec], claim_dir: str) -> Iterator[None]:
    """Arm ``specs`` for every process spawned while the context is open.

    The plan travels via environment variables, so it must be armed
    *before* the worker pool is created.
    """
    os.makedirs(claim_dir, exist_ok=True)
    old_plan = os.environ.get(FAULTS_ENV)
    old_dir = os.environ.get(FAULT_DIR_ENV)
    os.environ[FAULTS_ENV] = encode_plan(specs)
    os.environ[FAULT_DIR_ENV] = claim_dir
    try:
        yield
    finally:
        for env, old in ((FAULTS_ENV, old_plan), (FAULT_DIR_ENV, old_dir)):
            if old is None:
                os.environ.pop(env, None)
            else:
                os.environ[env] = old


def _claim(claim_dir: str, tag: str, count: int) -> bool:
    """Atomically claim one of ``count`` firings of the spec ``tag``."""
    for seq in range(count):
        path = os.path.join(claim_dir, f"{tag}.{seq}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        return True
    return False


def maybe_fire(key: str) -> None:
    """Fire any armed fault matching ``key`` (``"benchmark/backend"``).

    Called by the worker at the top of every run; a no-op unless
    ``REPRO_FAULTS`` is set.
    """
    text = os.environ.get(FAULTS_ENV)
    if not text:
        return
    claim_dir = os.environ.get(FAULT_DIR_ENV)
    for idx, spec in enumerate(parse_plan(text)):
        if not spec.matches(key):
            continue
        if claim_dir is not None and \
                not _claim(claim_dir, f"fault{idx}", spec.count):
            continue
        if spec.kind == "kill":
            os._exit(KILL_EXIT_CODE)
        elif spec.kind == "hang":
            time.sleep(spec.delay or 3600.0)
        else:  # raise
            raise InjectedFault(f"injected fault on {key}")


# -- service (daemon) faults --------------------------------------------------


@dataclass(frozen=True)
class ServiceFaultSpec:
    """One daemon-side fault: ``kind`` fired at the named ``point``.

    Points are exact strings the service consults at its crash-critical
    moments (``journal.<record-type>.pre/.post``, ``dispatch.pre``,
    ``compact.pre/.post``).  ``count`` bounds firings across daemon
    restarts sharing the claim directory.
    """

    kind: str
    point: str
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _SERVICE_KINDS:
            raise ValueError(f"unknown service fault kind {self.kind!r}")


def encode_service_plan(specs: Sequence[ServiceFaultSpec]) -> str:
    return ";".join(f"{s.kind}@{s.point}:{s.count}" for s in specs)


def parse_service_plan(text: str) -> List[ServiceFaultSpec]:
    specs: List[ServiceFaultSpec] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        kind, _, rest = part.partition("@")
        point, _, count = rest.rpartition(":")
        specs.append(ServiceFaultSpec(kind=kind, point=point,
                                      count=int(count)))
    return specs


def service_fault(point: str) -> Optional[str]:
    """The armed fault kind for a named daemon point, claiming one firing.

    Returns ``None`` (the overwhelmingly common case) unless
    ``REPRO_SERVICE_FAULTS`` names this exact point with budget left."""
    text = os.environ.get(SERVICE_FAULTS_ENV)
    if not text:
        return None
    claim_dir = os.environ.get(FAULT_DIR_ENV)
    for idx, spec in enumerate(parse_service_plan(text)):
        if spec.point != point:
            continue
        if claim_dir is not None and \
                not _claim(claim_dir, f"svc{idx}", spec.count):
            continue
        return spec.kind
    return None


def service_kill_point(point: str) -> None:
    """Die hard (``os._exit``) if a ``kill`` fault is armed at ``point``.

    Any other kind armed at the point is consumed but ignored — only the
    journal's write path knows how to produce torn/bitflipped frames."""
    if service_fault(point) == "kill":
        os._exit(KILL_EXIT_CODE)


# -- in-process backend wedges ------------------------------------------------


def _swap_class(obj, name: str, namespace: dict):
    """Shadow data descriptors (``property``) and slotted methods by
    swapping the instance onto a throwaway subclass — instance attributes
    can't override either."""
    namespace.setdefault("__slots__", ())
    obj.__class__ = type(name, (obj.__class__,), namespace)
    return obj


def freeze_admission(
    factory: Callable, opaque: bool = True
) -> Callable:
    """Wrap a RegLess storage factory so the CM never admits another warp.

    The frozen CM still *claims* it needs cycles (its activation stack is
    non-empty), so the demand clock keeps pumping it and the event wheel
    never drains: warps parked on ``cm_inactive`` spin forever with zero
    retirement — a true livelock, invisible to the wheel-empty deadlock
    check.  With ``opaque`` the storage also reports ``idle == False`` so
    fast-forward can't leap the run to its cycle ceiling before the
    watchdog's no-progress window fills.
    """

    def wrapped(sm: int, shard: int):
        storage = factory(sm, shard)
        cls = storage.__class__

        def attach(self, shard_obj) -> None:
            cls.attach(self, shard_obj)
            cm = getattr(self, "cm", None)
            if cm is not None:
                _swap_class(cm, "FrozenCM", {"cycle": lambda self, now: None})

        namespace = {"attach": attach}
        if opaque:
            namespace["idle"] = property(lambda self: False)
            namespace["has_work"] = lambda self, now: True
        return _swap_class(storage, "FrozenAdmission", namespace)

    return wrapped


def drop_wakes(factory: Callable) -> Callable:
    """Wrap a RegLess storage factory so CM admission progress never
    re-readies parked warps (a lost ``notify_wake``).  Starved warps stay
    parked with no pending wake; once every live warp is starved the run
    stops retiring and surfaces as a structured hang.
    """

    def wrapped(sm: int, shard: int):
        storage = factory(sm, shard)
        cls = storage.__class__

        def attach(self, shard_obj) -> None:
            cls.attach(self, shard_obj)
            cm = getattr(self, "cm", None)
            if cm is not None:
                cm.wake = None
        return _swap_class(storage, "DroppedWakes", {"attach": attach})

    return wrapped


# -- cache corruption helpers -------------------------------------------------


def truncate_file(path: str, keep: int = 16) -> None:
    """Truncate a cache entry to ``keep`` bytes (simulated crash mid-write)."""
    with open(path, "r+b") as fh:
        fh.truncate(keep)


def bitflip_file(path: str, offset: int = -1) -> None:
    """Flip one bit of a cache entry (simulated on-disk corruption).

    ``offset`` indexes the byte to damage; negative offsets index from the
    end (the payload, past the header).
    """
    with open(path, "r+b") as fh:
        data = bytearray(fh.read())
        data[offset] ^= 0x40
        fh.seek(0)
        fh.write(data)

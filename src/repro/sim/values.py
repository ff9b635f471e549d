"""Affine lane-value domain.

The simulator executes instructions *functionally* over a small abstract
domain instead of 32 concrete lane values:

* ``UNIFORM(base)``        — every lane holds ``base``;
* ``AFFINE(base, stride)`` — lane *i* holds ``base + stride * i``;
* ``RANDOM(tag)``          — lanes hold unrelated values (``tag`` keeps
  results deterministic and distinguishable).

This domain is exactly the value structure the RegLess compressor exploits
(paper section 5.3: constant, stride-1, stride-4 and half-warp patterns), so
compressibility statistics emerge from real dataflow: thread-id arithmetic
stays affine, loaded data is as random as the workload says, and address
arithmetic yields realistic coalescing behaviour.

Arithmetic is closed where the real operation would preserve the pattern
(adding two affine values, scaling by a uniform, …) and falls back to
``RANDOM`` with a deterministic tag otherwise.

**Vectorized materialization.**  The abstract domain *is* the closed form —
UNIFORM/AFFINE stay two integers, and a RANDOM value's identity is its
32-bit tag, because tags feed the deterministic tag algebra that every
simulated statistic depends on.  What numpy accelerates is *lane
materialization*: whenever a RANDOM value must be expanded into its 32
concrete per-lane hashes (address expansion in :meth:`line_addresses`,
oracle per-lane masks), the FNV chain is evaluated as one batched array
expression (:func:`mix_hash_lanes`) instead of a Python loop — bit-identical
by construction, since every intermediate stays below 2**57 in uint64.
The scalar reference implementations are preserved in
``tests/sim/naive_values.py`` and the Hypothesis suite drives both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..isa.registers import WARP_WIDTH

try:  # vectorized lane materialization (scalar fallback below)
    import numpy as _np
except ImportError:  # pragma: no cover - the test image bundles numpy
    _np = None

__all__ = [
    "ValueKind",
    "LaneValues",
    "THREAD_ID",
    "ZERO",
    "FLOAT32_EXACT",
    "mix_hash",
    "mix_hash_lanes",
]

_MASK32 = 0xFFFFFFFF
_FNV_BASIS = 0x811C9DC5
_FNV_PRIME = 0x01000193

#: Largest integer magnitude exactly representable in a float32 mantissa.
#: Affine float adds whose lanes stay within ±2**24 behave like integer
#: adds bit-for-bit; beyond it rounding destroys the affine structure.
FLOAT32_EXACT = 1 << 24


class ValueKind(enum.Enum):
    UNIFORM = "uniform"
    AFFINE = "affine"
    RANDOM = "random"


def mix_hash(*parts: int) -> int:
    """Deterministic 32-bit FNV-style hash (RANDOM tags, oracles)."""
    h = _FNV_BASIS
    for p in parts:
        h ^= p & _MASK32
        h = (h * _FNV_PRIME) & _MASK32
    return h


_mix = mix_hash

if _np is not None:
    #: lane index vector, reused by every batched materialization.
    _LANE_IDX = _np.arange(WARP_WIDTH, dtype=_np.uint64)


def mix_hash_lanes(prefix, suffix=(), n: int = WARP_WIDTH):
    """Batched FNV over the lane index: element ``i`` equals
    ``mix_hash(*prefix, i, *suffix)`` for ``i`` in ``range(n)``.

    The scalar FNV folds one 32-bit part at a time, so the prefix folds
    once (scalar), the lane index folds as one array xor/multiply, and
    each suffix part folds as another — every intermediate is < 2**57,
    comfortably inside uint64, and the 32-bit mask after each step keeps
    the chain bit-identical to the scalar loop.  Returns a sequence of
    ``n`` ints (a uint64 ndarray when numpy is present).
    """
    h0 = _FNV_BASIS
    for p in prefix:
        h0 ^= p & _MASK32
        h0 = (h0 * _FNV_PRIME) & _MASK32
    if _np is None:
        out = []
        for i in range(n):
            h = ((h0 ^ i) * _FNV_PRIME) & _MASK32
            for p in suffix:
                h = ((h ^ (p & _MASK32)) * _FNV_PRIME) & _MASK32
            out.append(h)
        return out
    if n == WARP_WIDTH:
        lanes = _LANE_IDX
    elif n < WARP_WIDTH:
        lanes = _LANE_IDX[:n]
    else:
        lanes = _np.arange(n, dtype=_np.uint64)
    h = ((h0 ^ lanes) * _FNV_PRIME) & _MASK32
    for p in suffix:
        h = ((h ^ (p & _MASK32)) * _FNV_PRIME) & _MASK32
    return h


_UNIFORM = ValueKind.UNIFORM
_AFFINE = ValueKind.AFFINE
_RANDOM = ValueKind.RANDOM


def _f32_exact(base: int, stride: int) -> bool:
    """Are all 32 lanes of ``AFFINE(base, stride)``, read as signed 32-bit
    values, exactly representable in a float32 mantissa?"""
    for i in range(WARP_WIDTH):
        v = (base + stride * i) & _MASK32
        if v >= 0x80000000:
            v -= 0x100000000
        if not -FLOAT32_EXACT <= v <= FLOAT32_EXACT:
            return False
    return True


@dataclass(slots=True)
class LaneValues:
    """One warp-register value across all 32 lanes.

    Treated as immutable by convention (arithmetic returns new instances);
    not ``frozen=True`` because the frozen ``__init__`` costs ~3x on this
    class, which the simulator constructs on every ALU result.
    """

    kind: ValueKind
    base: int = 0
    stride: int = 0
    tag: int = 0

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def uniform(base: int) -> "LaneValues":
        return LaneValues(_UNIFORM, base & _MASK32)

    @staticmethod
    def affine(base: int, stride: int) -> "LaneValues":
        if stride == 0:
            return LaneValues(_UNIFORM, base & _MASK32)
        return LaneValues(_AFFINE, base & _MASK32, stride)

    @staticmethod
    def random(tag: int) -> "LaneValues":
        return LaneValues(_RANDOM, tag=tag & _MASK32)

    # -- properties ----------------------------------------------------------------

    @property
    def is_uniform(self) -> bool:
        return self.kind is _UNIFORM

    @property
    def is_affine(self) -> bool:
        return self.kind is _AFFINE

    @property
    def is_random(self) -> bool:
        return self.kind is _RANDOM

    def lane(self, i: int) -> int:
        """Concrete value of lane ``i`` (RANDOM lanes are hashed)."""
        if self.kind is _UNIFORM:
            return self.base
        if self.kind is _AFFINE:
            return (self.base + self.stride * i) & _MASK32
        return _mix(self.tag, i)

    def lanes(self):
        """All :data:`WARP_WIDTH` concrete lane values at once.

        The RANDOM expansion is the batched FNV chain
        (:func:`mix_hash_lanes`); UNIFORM/AFFINE expand from their closed
        form.  Equals ``[self.lane(i) for i in range(WARP_WIDTH)]``.
        """
        kind = self.kind
        if _np is None:
            return [self.lane(i) for i in range(WARP_WIDTH)]
        if kind is _UNIFORM:
            return _np.full(WARP_WIDTH, self.base, dtype=_np.uint64)
        if kind is _AFFINE:
            stride = self.stride
            if -0x80000000 <= stride <= 0x7FFFFFFF:
                # Strides may be negative: compute signed (no overflow:
                # |base + 31*stride| < 2**37), then wrap to 32 bits.
                vals = self.base + _np.arange(WARP_WIDTH, dtype=_np.int64) * stride
                return vals.astype(_np.uint64) & _MASK32
            # Unbounded stride (property tests): exact Python arithmetic.
            return [self.lane(i) for i in range(WARP_WIDTH)]
        return mix_hash_lanes((self.tag,))

    # -- arithmetic ------------------------------------------------------------------

    def add(self, other: "LaneValues") -> "LaneValues":
        if self.kind is _RANDOM or other.kind is _RANDOM:
            return LaneValues(
                _RANDOM,
                tag=_mix(self.tag, other.tag, self.base, other.base, 1),
            )
        return LaneValues.affine(
            self.base + other.base, self.stride + other.stride
        )

    def float_add(self, other: "LaneValues") -> "LaneValues":
        """Floating-point add: explicit degrade-to-RANDOM rule.

        RANDOM operands take exactly the integer-add tag path (the tag
        algebra is shared, so FADD and IADD of random data stay
        indistinguishable downstream).  A structured (UNIFORM/AFFINE)
        result keeps its affine form only while every lane of both
        operands and of the sum is exactly representable in a float32
        mantissa (|signed value| <= :data:`FLOAT32_EXACT`); past that,
        float rounding would break the lane-to-lane stride, so the result
        degrades to RANDOM with a deterministic tag.
        """
        if self.kind is _RANDOM or other.kind is _RANDOM:
            return self.add(other)
        base = self.base + other.base
        stride = self.stride + other.stride
        if (
            _f32_exact(self.base, self.stride)
            and _f32_exact(other.base, other.stride)
            and _f32_exact(base, stride)
        ):
            return LaneValues.affine(base, stride)
        return LaneValues(
            _RANDOM,
            tag=_mix(self.base, self.stride, other.base, other.stride, 0x26),
        )

    def sub(self, other: "LaneValues") -> "LaneValues":
        if self.kind is _RANDOM or other.kind is _RANDOM:
            return LaneValues(
                _RANDOM,
                tag=_mix(self.tag, other.tag, self.base, other.base, 2),
            )
        return LaneValues.affine(
            self.base - other.base, self.stride - other.stride
        )

    def mul(self, other: "LaneValues") -> "LaneValues":
        k, ok = self.kind, other.kind
        if k is _UNIFORM and ok is _UNIFORM:
            return LaneValues(_UNIFORM, (self.base * other.base) & _MASK32)
        if k is _UNIFORM and ok is _AFFINE:
            return LaneValues.affine(self.base * other.base, self.base * other.stride)
        if k is _AFFINE and ok is _UNIFORM:
            return LaneValues.affine(self.base * other.base, self.stride * other.base)
        return LaneValues(
            _RANDOM, tag=_mix(self.tag, other.tag, self.base, other.base, 3)
        )

    def shl(self, other: "LaneValues") -> "LaneValues":
        if other.kind is _UNIFORM and self.kind is not _RANDOM:
            factor = 1 << (other.base & 31)
            return LaneValues.affine(self.base * factor, self.stride * factor)
        return LaneValues(
            _RANDOM, tag=_mix(self.tag, other.tag, self.base, other.base, 4)
        )

    def opaque(self, other: Optional["LaneValues"] = None, salt: int = 0) -> "LaneValues":
        """Result of an operation that destroys structure (div, sin, xor...)."""
        o = other if other is not None else ZERO
        if self.kind is _UNIFORM and o.kind is _UNIFORM:
            return LaneValues(_UNIFORM, _mix(self.base, o.base, salt))
        return LaneValues(
            _RANDOM,
            tag=_mix(self.tag, o.tag, self.base, o.base, self.stride, o.stride, salt),
        )

    # -- memory helpers ------------------------------------------------------------------

    def coalesced_lines(self, line_bytes: int, divergent_lines: int = 32) -> int:
        """Distinct cache lines touched when used as a byte address."""
        if self.is_uniform:
            return 1
        if self.is_affine:
            stride = abs(self.stride)
            span = stride * (WARP_WIDTH - 1)
            first = self.base // line_bytes
            last = (self.base + span) // line_bytes
            return int(last - first + 1)
        return max(1, min(WARP_WIDTH, divergent_lines))

    def line_addresses(self, line_bytes: int, divergent_lines: int = 32):
        """The distinct line-aligned addresses touched (deterministic)."""
        if self.is_uniform:
            return [self.base - self.base % line_bytes]
        if self.is_affine:
            n = self.coalesced_lines(line_bytes)
            first = self.base - self.base % line_bytes
            step = line_bytes if self.stride >= 0 else -line_bytes
            return [(first + step * i) & _MASK32 for i in range(n)]
        n = max(1, min(WARP_WIDTH, divergent_lines))
        if _np is None or line_bytes > (1 << 30):
            return [
                (_mix(self.tag, i) * line_bytes) & _MASK32 for i in range(n)
            ]
        # Batched address expansion: one FNV chain over the lane vector,
        # then the line scaling — each product < 2**40, exact in uint64.
        return ((mix_hash_lanes((self.tag,), n=n) * line_bytes)
                & _MASK32).tolist()


#: Lane index vector (thread id within warp): 0, 1, 2, ... 31.
THREAD_ID = LaneValues.affine(0, 1)
ZERO = LaneValues.uniform(0)

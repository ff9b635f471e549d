"""RegLess hardware parameters.

Sizes are per SM: the paper's design point is 512 OSU entries (25% of the
2048-entry baseline RF) and 48 compressor lines.  ``ReglessStorage.attach``
splits them over the SM's shards, one per warp scheduler, of 8 banks each: at
4 schedulers, 512 / 4 / 8 = 16 lines per bank.  Figure 13 sweeps 128..1024.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..energy.model import OSU_ENTRIES

__all__ = ["ReglessConfig"]


@dataclass(frozen=True)
class ReglessConfig:
    """Configuration of one SM's RegLess hardware."""

    #: total OSU entries per SM (one entry = one 128-byte warp-register).
    osu_entries_per_sm: int = OSU_ENTRIES
    banks_per_shard: int = 8
    #: compressed-register cache lines per SM.
    compressor_lines_per_sm: int = 48
    #: enable the pattern compressor (Figure 16's no-compressor ablation).
    compressor_enabled: bool = True
    #: extra pipeline cycles for a preload that misses the OSU (bit-vector
    #: check), and for a compressed-pattern expansion (tag + decompress).
    bitvec_latency: int = 1
    decompress_latency: int = 2
    #: emergency activation threshold: if a shard makes no progress for this
    #: many cycles the top warp is activated with over-reservation (safety
    #: valve; counted in ``osu_overflow``).
    emergency_cycles: int = 4000
    #: ablation: activate warps FIFO instead of most-recent-first.
    warp_stack_lifo: bool = True
    #: anti-starvation: when some warp has waited this long for activation,
    #: the CM activates the longest-waiting warp instead of the stack top.
    activation_aging_cycles: int = 300
    #: ablation: eviction priority free -> clean -> dirty (paper) vs free
    #: -> dirty -> clean (``False``: a dirty line goes first when one exists).
    ordered_eviction: bool = True

    def with_(self, **kwargs) -> "ReglessConfig":
        return replace(self, **kwargs)

"""Memory transactions and DRAM segment arithmetic.

The unit of global-memory traffic on the simulated G80 is a *transaction*:
a naturally aligned burst of 32, 64 or 128 bytes.  Coalescing policies
(:mod:`repro.core.coalescing`) reduce a half-warp's individual accesses to a
list of transactions; the timing model charges the pipe per transaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "TRANSACTION_SIZES",
    "MemoryTransaction",
    "segment_of",
    "access_segments",
    "touched_segments",
    "cover_with_segments",
    "total_bytes",
]

#: Legal transaction sizes, smallest to largest.
TRANSACTION_SIZES = (32, 64, 128)


@dataclass(frozen=True, order=True)
class MemoryTransaction:
    """One aligned DRAM burst."""

    address: int
    size: int

    def __post_init__(self) -> None:
        if self.size not in TRANSACTION_SIZES:
            raise ValueError(
                f"transaction size {self.size} not in {TRANSACTION_SIZES}"
            )
        if self.address % self.size:
            raise ValueError(
                f"transaction at {self.address:#x} not {self.size}-byte aligned"
            )

    @property
    def end(self) -> int:
        return self.address + self.size

    def covers(self, addr: int, nbytes: int) -> bool:
        return self.address <= addr and addr + nbytes <= self.end

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tx({self.address:#x},{self.size}B)"


def segment_of(addr: int, segment_size: int) -> int:
    """Base address of the ``segment_size``-aligned segment holding ``addr``."""
    return (int(addr) // segment_size) * segment_size


def access_segments(
    addresses: np.ndarray, access_size: int, segment_size: int
) -> np.ndarray:
    """Bases of the segments each per-thread access touches, access by
    access in order, one entry per (access, segment) pair — not
    deduplicated (CC 1.0 issues one transaction per entry).

    An access that straddles a segment boundary touches every segment it
    spans; with naturally aligned accesses (enforced by the simulator for
    8/16-byte vectors) this only happens for the packed 28-byte AoS
    layout's 4-byte reads, which never straddle because 4 divides 32 —
    but the code stays general for robustness.
    """
    if segment_size not in TRANSACTION_SIZES:
        raise ValueError(f"segment size {segment_size} not in {TRANSACTION_SIZES}")
    first = addresses // segment_size * segment_size
    last = (addresses + (access_size - 1)) // segment_size * segment_size
    spans = (last - first) // segment_size + 1
    if not (spans > 1).any():
        return first
    # Each straddling access expands into its consecutive segments.
    starts = np.cumsum(spans) - spans
    step = np.arange(int(spans.sum())) - np.repeat(starts, spans)
    return np.repeat(first, spans) + step * segment_size


def touched_segments(
    addresses: Iterable[int], access_size: int, segment_size: int
) -> list[int]:
    """Sorted unique bases of segments touched by per-thread accesses
    (see :func:`access_segments`)."""
    if not isinstance(addresses, np.ndarray):
        addresses = list(addresses)
    addrs = np.asarray(addresses, dtype=np.int64).ravel()
    return np.unique(access_segments(addrs, access_size, segment_size)).tolist()


def cover_with_segments(
    addresses: Sequence[int], access_size: int
) -> list[MemoryTransaction]:
    """Minimal-ish cover of the accessed bytes with aligned transactions.

    Implements the compute-capability 1.2 "reduce transaction size" rule:
    start from 128-byte segments, then halve a segment's transaction while
    the touched bytes fit in one half.  This is the behaviour the paper's
    CUDA 2.2 runs exhibit.
    """
    if not len(addresses):
        return []
    txs: list[MemoryTransaction] = []
    addr_arr = np.asarray(addresses, dtype=np.int64)
    for seg in touched_segments(addresses, access_size, 128):
        lo = seg
        hi = seg + 128
        in_seg = addr_arr[(addr_arr >= lo - access_size + 1) & (addr_arr < hi)]
        first = max(int(in_seg.min()), lo)
        last = min(int(in_seg.max()) + access_size, hi)
        size = 128
        base = seg
        # Halve while the touched byte range fits in an aligned half.
        while size > 32:
            half = size // 2
            if last <= base + half:
                size = half
            elif first >= base + half:
                base += half
                size = half
            else:
                break
        txs.append(MemoryTransaction(base, size))
    return txs


def total_bytes(transactions: Iterable[MemoryTransaction]) -> int:
    return sum(t.size for t in transactions)

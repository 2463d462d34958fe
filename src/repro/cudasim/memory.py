"""Device memory: the global heap and per-block shared memory.

Global memory is a flat word-addressed ``float32`` store with a real
first-fit allocator (``cudaMalloc``-style 256-byte aligned): frees — of
interior allocations too — return their bytes to a coalescing free list
(:class:`repro.cudasim.alloc.freelist.FreeListAllocator`), so long-running
and dynamic-population workloads can churn allocations without leaking
the heap until ``reset()``.  All kernel data is 32-bit words, matching
the G80's register width; integer data is stored via its bit pattern-free
float value (the simulator's kernels only ever store f32 data and integer
*addresses* never round-trip through memory).

Shared memory is a per-block word array plus the CC 1.x bank-conflict
rule: 16 banks, 4 bytes wide, conflicts counted per half-warp with the
broadcast exception (all lanes hitting the *same word* are serviced in
one cycle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alloc.freelist import FreeListAllocator
from .errors import AccessViolation, AllocationError, MisalignedAccess
from .device import DeviceProperties

__all__ = [
    "DevicePtr",
    "GlobalMemory",
    "SharedMemory",
    "bank_conflict_degree",
]

#: Word offsets of a vector access's lanes, sliced by gather() so a
#: whole (lanes, n) tile reads with one fancy index.  8 covers every
#: vector width the ISA can express (float4 is the widest in practice).
_LANE_OFFSETS = np.arange(8, dtype=np.int64)


@dataclass(frozen=True)
class DevicePtr:
    """An address in simulated global memory (byte granularity)."""

    addr: int
    nbytes: int

    def __int__(self) -> int:
        return self.addr

    def offset(self, nbytes: int) -> "DevicePtr":
        if not 0 <= nbytes <= self.nbytes:
            raise AccessViolation(
                f"offset {nbytes} outside allocation of {self.nbytes} bytes"
            )
        return DevicePtr(self.addr + nbytes, self.nbytes - nbytes)

    def slice(self, offset: int, nbytes: int) -> "DevicePtr":
        """Bounded sub-view: ``nbytes`` starting ``offset`` bytes in.

        Unlike :meth:`offset`, the result does not inherit the rest of
        the parent's extent — out-of-range accesses through the view are
        caught at the view's own bound, which is what sub-buffer users
        (per-field array bases inside one layout allocation) want.
        """
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise AccessViolation(
                f"slice [{offset}, {offset + nbytes}) outside allocation "
                f"of {self.nbytes} bytes"
            )
        return DevicePtr(self.addr + offset, nbytes)


class GlobalMemory:
    """Flat device heap with allocation tracking and bounds checking."""

    ALLOC_ALIGN = 256  # cudaMalloc alignment guarantee

    def __init__(self, size_bytes: int) -> None:
        if size_bytes % 4:
            raise AllocationError("global memory size must be word aligned")
        self.size_bytes = int(size_bytes)
        self.words = np.zeros(self.size_bytes // 4, dtype=np.float32)
        self._freelist = FreeListAllocator(
            self.size_bytes, align=self.ALLOC_ALIGN
        )

    # -- allocator ---------------------------------------------------------

    def alloc(self, nbytes: int, tag: object = None) -> DevicePtr:
        """First-fit allocation, 256-byte aligned; raises
        :class:`~repro.cudasim.errors.OutOfMemoryError` with the largest
        currently-satisfiable request in ``available``."""
        addr, size = self._freelist.alloc(nbytes, tag)
        return DevicePtr(addr, size)

    def free(self, ptr: DevicePtr | int) -> None:
        """Return an allocation to the free list (holes coalesce)."""
        self._freelist.free(int(ptr))

    def reset(self) -> None:
        """Free everything (used between experiment runs)."""
        self._freelist.reset()
        self.words[:] = 0.0

    def allocations(self):
        """Live ``(addr, nbytes)`` pairs in address order."""
        return self._freelist.allocations()

    def heap_stats(self):
        """Free-list snapshot (:class:`repro.cudasim.alloc.HeapStats`)."""
        return self._freelist.stats()

    @property
    def bytes_in_use(self) -> int:
        return self._freelist.bytes_in_use

    @property
    def bytes_free(self) -> int:
        return self._freelist.bytes_free

    @property
    def largest_free_block(self) -> int:
        return self._freelist.largest_free_block

    @property
    def fragmentation_ratio(self) -> float:
        """1 − largest free hole / total free bytes (0 when unfragmented)."""
        return self._freelist.fragmentation_ratio

    # -- host transfers -------------------------------------------------------

    def write(self, ptr: DevicePtr | int, data: np.ndarray) -> None:
        """memcpy host→device of a float32 word array."""
        addr = int(ptr)
        data = np.ascontiguousarray(data, dtype=np.float32).ravel()
        self._check_range(addr, 4 * data.size)
        self.words[addr // 4 : addr // 4 + data.size] = data

    def read(self, ptr: DevicePtr | int, nwords: int) -> np.ndarray:
        """memcpy device→host; returns a copy."""
        addr = int(ptr)
        self._check_range(addr, 4 * nwords)
        return self.words[addr // 4 : addr // 4 + nwords].copy()

    # -- kernel-side access -------------------------------------------------

    def gather(self, byte_addrs: np.ndarray, lanes: int) -> np.ndarray:
        """Vector gather: returns array of shape (lanes, len(addrs)).

        ``byte_addrs`` are the per-thread base addresses of a ``lanes``-word
        vector load; natural alignment is enforced like real hardware.
        """
        addrs = np.asarray(byte_addrs, dtype=np.int64)
        self._check_access(addrs, lanes)
        word = addrs // 4
        if lanes == 1:
            return self.words[word].astype(np.float64)[None, :]
        # One fancy index for the whole (lanes, n) tile instead of a
        # per-lane loop; reads cannot conflict, so this is value-equal.
        return self.words[
            word[None, :] + _LANE_OFFSETS[:lanes, None]
        ].astype(np.float64)

    def scatter(self, byte_addrs: np.ndarray, values: np.ndarray) -> None:
        """Vector scatter of shape (lanes, n) values to per-thread bases."""
        addrs = np.asarray(byte_addrs, dtype=np.int64)
        lanes = values.shape[0]
        self._check_access(addrs, lanes)
        word = addrs // 4
        for k in range(lanes):
            self.words[word + k] = values[k].astype(np.float32)

    def _check_access(self, addrs: np.ndarray, lanes: int) -> None:
        width = 4 * lanes
        if np.any(addrs % width):
            bad = int(addrs[addrs % width != 0][0])
            raise MisalignedAccess(
                f"{width}-byte access at {bad:#x} is not naturally aligned"
            )
        # min/max reductions instead of two comparison temporaries: this
        # check runs on every warp memory instruction.
        if int(addrs.min()) < 0 or int(addrs.max()) + width > self.size_bytes:
            bad = int(addrs[(addrs < 0) | (addrs + width > self.size_bytes)][0])
            raise AccessViolation(f"global access at {bad:#x} out of bounds")

    def _check_range(self, addr: int, nbytes: int) -> None:
        if addr % 4:
            raise MisalignedAccess(f"transfer address {addr:#x} not word aligned")
        if addr < 0 or addr + nbytes > self.size_bytes:
            raise AccessViolation(
                f"transfer [{addr:#x}, {addr + nbytes:#x}) out of bounds"
            )


class SharedMemory:
    """One block's shared memory.

    Its words are row ``row`` of ``stack``, a ``(blocks, words)`` array:
    a one-row array of its own, unless the blocks' shared memories were
    allocated together by :meth:`stacked` (the same resident slot of
    every SM of a fast-path gang).  Then one :meth:`gather` or
    :meth:`scatter` on any of them can serve all of them, each address
    reading or writing the stack row ``rows`` gives it.
    """

    def __init__(
        self,
        words: int,
        device: DeviceProperties,
        stack: np.ndarray | None = None,
        row: int = 0,
    ) -> None:
        self.device = device
        self.size_bytes = 4 * words
        if stack is None:
            stack = np.zeros((1, max(words, 1)), dtype=np.float64)
        self.stack = stack
        self.row = row
        self.words = stack[row]

    @classmethod
    def stacked(
        cls, words: int, device: DeviceProperties, count: int
    ) -> list["SharedMemory"]:
        """``count`` blocks' shared memories, the rows of one stack."""
        stack = np.zeros((count, max(words, 1)), dtype=np.float64)
        return [cls(words, device, stack, row) for row in range(count)]

    def gather(
        self, byte_addrs: np.ndarray, lanes: int, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Vector gather: ``(lanes, len(byte_addrs))``, from this block's
        words or, given ``rows``, from each address's row of the stack."""
        addrs = np.asarray(byte_addrs, dtype=np.int64)
        self._check(addrs, lanes)
        word = addrs // 4
        if lanes > 1:
            word = word[None, :] + _LANE_OFFSETS[:lanes, None]
        out = self.words[word] if rows is None else self.stack[rows, word]
        return out[None, :] if lanes == 1 else out

    def scatter(
        self, byte_addrs: np.ndarray, values: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> None:
        """Vector scatter of ``(lanes, n)`` values, to this block's words
        or, given ``rows``, to each address's row of the stack."""
        addrs = np.asarray(byte_addrs, dtype=np.int64)
        lanes = values.shape[0]
        self._check(addrs, lanes)
        word = addrs // 4
        for k in range(lanes):
            value = np.asarray(values[k], dtype=np.float32)
            if rows is None:
                self.words[word + k] = value
            else:
                self.stack[rows, word + k] = value

    def _check(self, addrs: np.ndarray, lanes: int) -> None:
        width = 4 * lanes
        if np.any(addrs & 3):
            raise MisalignedAccess("shared access not word aligned")
        if int(addrs.min()) < 0 or int(addrs.max()) + width > self.size_bytes:
            raise AccessViolation(
                f"shared access out of the block's {self.size_bytes} bytes"
            )

    def conflict_degree(self, byte_addrs: np.ndarray, lanes: int,
                        active: np.ndarray) -> int:
        """Worst bank-conflict serialization over the warp's half-warps."""
        return bank_conflict_degree(
            np.asarray(byte_addrs, dtype=np.int64),
            active,
            lanes,
            banks=self.device.shared_banks,
        )


def bank_conflict_degree(
    byte_addrs: np.ndarray,
    active: np.ndarray,
    lanes: int = 1,
    banks: int = 16,
) -> int:
    """CC 1.x bank-conflict degree of one warp access (max over halves).

    Each thread's ``lanes``-word access touches ``lanes`` consecutive
    banks.  Within a half-warp, the degree of a bank is the number of
    *distinct words* requested from it (identical words broadcast).
    The instruction serializes by the worst bank; a vector access also
    serializes by its own width (a float4 read is 4 shared accesses).
    """
    half = 16
    worst = 1
    arr = np.asarray(byte_addrs, dtype=np.int64)
    # Whole-warp broadcast of a single scalar word — the dominant access
    # of the tiled force kernel — is conflict-free by the broadcast rule
    # whatever the active mask, so skip the per-lane count.
    if lanes == 1 and arr.size and int(arr.min()) == int(arr.max()):
        return 1
    # Plain-int loop: a half-warp is at most 16 addresses, far below the
    # break-even point of numpy's unique/bincount machinery, and this
    # runs on every shared-memory instruction.
    addrs = arr.tolist()
    act = np.asarray(active, dtype=bool).tolist()
    for h in range(0, len(addrs), half):
        # Distinct words per bank: duplicates broadcast, so collapse them
        # first, then count the survivors landing on each bank.  Lane k
        # accesses ``words + k``, which shifts every bank cyclically by
        # k — the worst per-bank count is identical for all lanes, so
        # the vector access serializes by ``lanes`` times that count.
        seen = set()
        counts: dict[int, int] = {}
        best = 0
        for j in range(h, min(h + half, len(addrs))):
            if act[j]:
                word = addrs[j] // 4
                if word not in seen:
                    seen.add(word)
                    bank = word % banks
                    c = counts.get(bank, 0) + 1
                    counts[bank] = c
                    if c > best:
                        best = c
        degree = lanes * best
        if degree > worst:
            worst = degree
    return worst

"""Coalescing policies: how half-warp accesses become transactions.

The paper's central experimental knob (Fig. 10/11) is the CUDA revision,
whose driver/hardware combination decides how the 16 individual accesses of
a half-warp are combined into DRAM transactions:

* **CUDA 1.0** (:class:`StrictHalfWarpPolicy`) — the documented CC 1.0
  rules: a half-warp coalesces only when thread *k* reads the *k*-th
  consecutive element from a ``16 * size``-aligned base.  Anything else
  degenerates into one 32-byte transaction *per thread* (no deduplication —
  two threads in the same segment still pay twice).
* **CUDA 1.1** (:class:`DriverMergedPolicy`) — the paper observes that 1.1
  handles unoptimized accesses far better, flattening the layout effect,
  and could not determine why ("cannot [be] determined with the available
  tools").  We model the simplest mechanism with that signature: the driver
  merges a half-warp's accesses into the minimal set of 128-byte segments
  (deduplicated), so uncoalesced patterns cost only a few extra
  transactions instead of 16.
* **CUDA 2.2** (:class:`SegmentBasedPolicy`) — CC 1.2-style issue: one
  transaction per *touched 32-byte segment*, with neighbouring touched
  segments merged up to 128 bytes when contiguous.  Deduplicated, so better
  than 1.0, but an uncoalesced stride ≥ 32 bytes still pays one transaction
  per thread — which is why the paper sees a 1.0-like pattern with ~30 %
  (not ~50 %) headroom.

All policies treat a *coalescible* access identically: 16 threads × 4 B →
one 64 B transaction, × 8 B → one 128 B, × 16 B → two 128 B.
"""

from __future__ import annotations

import abc
import functools

import numpy as np

from ..cudasim.device import Toolchain
from .access import HALFWARP, HalfWarpAccess
from .transactions import (
    MemoryTransaction,
    access_segments,
    cover_with_segments,
    touched_segments,
)

__all__ = [
    "CoalescingPolicy",
    "StrictHalfWarpPolicy",
    "DriverMergedPolicy",
    "SegmentBasedPolicy",
    "policy_for",
    "POLICIES",
]


class CoalescingPolicy(abc.ABC):
    """Maps one half-warp access to the transactions the device issues.

    Beyond the transaction split, a policy carries the *measured
    behavioural signature* of its CUDA revision (the paper treats
    revisions as opaque driver/compiler variants, Sec. III-A):

    ``wide_latency_factor``
        Latency multiplier for 8/16-byte per-thread loads.  G80-era
        microbenchmarks consistently show 64/128-bit loads slower per
        element than 32-bit loads; the per-revision values are calibrated
        against Fig. 10 (see EXPERIMENTS.md).
    ``latency_override``
        Revision-specific base DRAM latency (``None`` = device default).
        CUDA 2.2's driver shaved fixed overhead off every access.
    ``charges_replays``
        Whether extra transactions of an uncoalesced access occupy the
        SM's issue port (hardware replays).  CUDA 1.1's driver-side
        merging does not replay in the SM.
    """

    #: registry key; also used in figure labels
    name: str = "abstract"

    wide_latency_factor: dict[int, float] = {4: 1.0, 8: 1.8, 16: 3.0}
    latency_override: float | None = None
    charges_replays: bool = True

    @abc.abstractmethod
    def transactions(self, access: HalfWarpAccess) -> list[MemoryTransaction]:
        """Transactions issued for ``access`` (empty if no lane is active)."""

    def load_latency(self, timings, access_size: int) -> float:
        """Data-ready latency for a load of ``access_size`` bytes/thread."""
        base = (
            timings.latency
            if self.latency_override is None
            else self.latency_override
        )
        return base * self.wide_latency_factor[access_size]

    # -- shared helpers ---------------------------------------------------

    @staticmethod
    def _coalesced_transactions(
        base: int, size_bytes: int
    ) -> list[MemoryTransaction] | None:
        """The ideal transaction set for a sequential, aligned half-warp.

        Returns ``None`` when the base violates the ``16 * size`` alignment
        requirement (the half-warp then falls back to the uncoalesced path).
        """
        span = HALFWARP * size_bytes  # 64, 128 or 256 bytes
        if base % span:
            return None
        if span <= 128:
            return [MemoryTransaction(base, span)]
        return [
            MemoryTransaction(base, 128),
            MemoryTransaction(base + 128, 128),
        ]

    def is_coalesced(self, access: HalfWarpAccess) -> bool:
        """Whether the access takes the single-transaction fast path."""
        base = access.sequential_base()
        return base is not None and (
            self._coalesced_transactions(base, access.size_bytes) is not None
        )

    def halfwarp_transactions(
        self, addresses: np.ndarray, active: np.ndarray, size_bytes: int
    ) -> tuple[list, np.ndarray]:
        """:meth:`transactions` of many half-warps at once.

        Row ``h`` of the ``(H, 16)`` int64 ``addresses`` and boolean
        ``active`` arrays is one half-warp of ``size_bytes`` accesses.
        Returns each row's transactions as a sequence equal to
        ``transactions(HalfWarpAccess(addresses[h], size_bytes,
        active[h]))``, and each row's :meth:`is_coalesced` as a boolean
        array.  One vectorized pass finds the rows whose active lanes are
        sequential from a ``16 * size_bytes``-aligned base — the paper's
        Sec. II rule, which every policy shares — and gives them their
        canned one or two transactions; rows without an active lane get
        none, and only the rest go through :meth:`transactions`.
        """
        lane_bytes = _LANE_BYTES.get(size_bytes)
        if lane_bytes is None:
            raise ValueError(f"access width {size_bytes} not in (4, 8, 16)")
        # Lane k's implied lane-0 base; a row is sequential when every
        # active lane implies the same one.
        implied = addresses - lane_bytes
        if active.all():
            base = implied[:, 0]
            live = np.ones(len(base), dtype=bool)
            seq = (implied == base[:, None]).all(axis=1)
        else:
            first = active.argmax(axis=1)
            base = implied[np.arange(len(first)), first]
            live = active.any(axis=1)
            seq = live & ((implied == base[:, None]) | ~active).all(axis=1)
        coalesced = seq & (base % (HALFWARP * size_bytes) == 0)
        out = []
        for h, (c, b, on) in enumerate(
            zip(coalesced.tolist(), base.tolist(), live.tolist())
        ):
            if c:
                out.append(_canned(b, size_bytes))
            elif on:
                out.append(
                    self.transactions(
                        HalfWarpAccess(addresses[h], size_bytes, active[h])
                    )
                )
            else:
                out.append(())
        return out, coalesced

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class StrictHalfWarpPolicy(CoalescingPolicy):
    """Documented compute-capability 1.0 behaviour (CUDA 1.0 runs)."""

    name = "strict-halfwarp"
    wide_latency_factor = {4: 1.0, 8: 1.8, 16: 3.0}

    def transactions(self, access: HalfWarpAccess) -> list[MemoryTransaction]:
        if not access.any_active:
            return []
        base = access.sequential_base()
        if base is not None:
            txs = self._coalesced_transactions(base, access.size_bytes)
            if txs is not None:
                return txs
        # Uncoalesced: one minimum-size transaction per active thread, no
        # deduplication — the documented 16-fold slowdown of CC 1.0.
        segs = access_segments(access.active_addresses, access.size_bytes, 32)
        return [MemoryTransaction(seg, 32) for seg in segs.tolist()]


class DriverMergedPolicy(CoalescingPolicy):
    """CUDA 1.1's observed forgiveness of unoptimized accesses.

    The flip side the paper notices ("a complete different pattern"): the
    1.1 driver's staging also slowed wide vector loads, so the aligned
    layouts gain much less than under 1.0/2.2 — modeled by the higher
    wide-load factor.
    """

    name = "driver-merged"
    wide_latency_factor = {4: 1.0, 8: 2.2, 16: 3.6}
    charges_replays = False

    def transactions(self, access: HalfWarpAccess) -> list[MemoryTransaction]:
        if not access.any_active:
            return []
        base = access.sequential_base()
        if base is not None:
            txs = self._coalesced_transactions(base, access.size_bytes)
            if txs is not None:
                return txs
        segs = touched_segments(
            access.active_addresses, access.size_bytes, 128
        )
        return [MemoryTransaction(s, 128) for s in segs]


class SegmentBasedPolicy(CoalescingPolicy):
    """CC 1.2-style minimal segment cover (CUDA 2.2 runs)."""

    name = "segment-based"
    wide_latency_factor = {4: 1.0, 8: 2.0, 16: 3.4}
    latency_override = 330.0

    def transactions(self, access: HalfWarpAccess) -> list[MemoryTransaction]:
        if not access.any_active:
            return []
        base = access.sequential_base()
        if base is not None:
            txs = self._coalesced_transactions(base, access.size_bytes)
            if txs is not None:
                return txs
        # Deduplicate into 32-byte segments, then let contiguous runs grow
        # back into properly aligned 64/128-byte transactions.
        addrs = access.active_addresses
        segs32 = touched_segments(addrs, access.size_bytes, 32)
        if not segs32:
            return []
        # cover_with_segments implements the size-reduction rule per
        # 128-byte region; feeding it the deduplicated 32B segment bases
        # reproduces "min number of 32/64/128B transactions".
        return cover_with_segments(segs32, 32)


#: Byte offset of each half-warp lane's element, per access width.
_LANE_BYTES = {
    size: np.arange(HALFWARP, dtype=np.int64) * size for size in (4, 8, 16)
}


@functools.lru_cache(maxsize=1024)
def _canned(base: int, size_bytes: int) -> tuple[MemoryTransaction, ...]:
    """The coalesced transactions of an aligned sequential half-warp at
    ``base``, shared (they are immutable) by every access that hits it."""
    return tuple(CoalescingPolicy._coalesced_transactions(base, size_bytes))


#: Singleton policy registry.
POLICIES: dict[str, CoalescingPolicy] = {
    p.name: p
    for p in (StrictHalfWarpPolicy(), DriverMergedPolicy(), SegmentBasedPolicy())
}


def policy_for(toolchain: Toolchain | str) -> CoalescingPolicy:
    """Coalescing policy used by a CUDA toolchain revision (or by name)."""
    if isinstance(toolchain, Toolchain):
        return POLICIES[toolchain.coalescing_policy_name]
    if toolchain in POLICIES:
        return POLICIES[toolchain]
    try:
        return POLICIES[Toolchain(toolchain).coalescing_policy_name]
    except ValueError:
        raise ValueError(
            f"unknown toolchain/policy {toolchain!r}; "
            f"policies: {sorted(POLICIES)}; "
            f"toolchains: {[t.value for t in Toolchain]}"
        ) from None

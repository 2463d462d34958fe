"""Double-buffered host↔device transfer pipeline.

:class:`TransferPipeline` overlaps tile uploads with tile compute the
way production CUDA codes do: a dedicated *copy* stream prefetches tile
*k+1* into one staging slot with ``memcpy_htod_async`` while the
*compute* stream consumes tile *k* out of the other, the two ordered
only by ``record_event``/``wait_event`` on the simulated timeline.

Event choreography per :meth:`stage` call (slot = tick % slots)::

    copy stream:     wait consumed[slot]   # compute done with old tenant
                     ev_a ─ upload ─ ev_b
    compute stream:  wait ev_b             # tile bytes resident
                     ev_c ─ compute ─ ev_d
    consumed[slot] = ev_d                  # gates slot reuse, 2 ticks on

``prev_d`` — the compute stream's position when the upload was enqueued
(the previous tile's ``ev_d``, or a :meth:`mark` reference) — is what
:class:`~repro.cudasim.xfer.stats.XferStats` compares ``ev_c`` against:
any gap is copy latency the prefetch failed to hide.

The host callables passed to :meth:`stage` only *enqueue* stream ops
(they run on the calling thread); the streams execute them
asynchronously.  Nothing here blocks the host except
:meth:`synchronize`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .staging import StagingBuffer
from .stats import XferStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..memory import DevicePtr
    from ..stream import Event, Stream

__all__ = ["TransferPipeline"]


class TransferPipeline:
    """Stage tiles through ``staging`` slots, copy overlapped with compute."""

    def __init__(
        self,
        copy_stream: "Stream",
        compute_stream: "Stream",
        staging: StagingBuffer,
        stats: XferStats | None = None,
    ) -> None:
        if copy_stream is compute_stream:
            raise ValueError(
                "copy and compute must be distinct streams — a shared "
                "queue serialises the pipeline by construction"
            )
        self.copy_stream = copy_stream
        self.compute_stream = compute_stream
        self.staging = staging
        self.stats = stats if stats is not None else XferStats()
        self._tick = 0
        self._consumed: dict[int, "Event"] = {}
        self._prev_d: "Event | None" = None

    def mark(self) -> None:
        """Reset the exposure reference to the compute stream's *now*.

        Call between tile passes (e.g. at the top of each resident
        slice's loop) so time the compute stream spends on unrelated
        work — integrations, resident uploads — is not miscounted as
        copy exposure for the next pass's first tile.
        """
        self._prev_d = self.compute_stream.record_event()

    def stage(
        self,
        upload: Callable[["DevicePtr"], int],
        compute: Callable[["DevicePtr"], object],
    ) -> "DevicePtr":
        """Prefetch one tile and queue its compute, double-buffered.

        ``upload(slot_ptr)`` enqueues the tile's host→device copies on
        :attr:`copy_stream` and returns the bytes shipped;
        ``compute(slot_ptr)`` enqueues the consuming work on
        :attr:`compute_stream`.  Returns the slot pointer this tile
        occupies.
        """
        slot_index = self._tick % self.staging.slots
        slot = self.staging.slot(self._tick)

        gate = self._consumed.get(slot_index)
        if gate is not None:
            self.copy_stream.wait_event(gate)
        ev_a = self.copy_stream.record_event()
        nbytes = upload(slot)
        ev_b = self.copy_stream.record_event()

        if self._prev_d is None:
            self._prev_d = self.compute_stream.record_event()
        prev_d = self._prev_d
        self.compute_stream.wait_event(ev_b)
        ev_c = self.compute_stream.record_event()
        compute(slot)
        ev_d = self.compute_stream.record_event()

        self._consumed[slot_index] = ev_d
        self._prev_d = ev_d
        self.stats.add_tile(
            self._tick, nbytes, ev_a, ev_b, prev_d, ev_c, ev_d
        )
        self._tick += 1
        return slot

    def synchronize(self) -> None:
        """Drain both streams; afterwards every recorded event has fired."""
        self.copy_stream.synchronize()
        self.compute_stream.synchronize()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransferPipeline(copy={self.copy_stream.name!r}, "
            f"compute={self.compute_stream.name!r}, tick={self._tick}, "
            f"staging={self.staging!r})"
        )

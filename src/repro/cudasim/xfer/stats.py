"""Per-tile transfer accounting and the copy-exposed fraction.

The pipeline records four compute/copy-stream events around every tile
(copy begin/end, compute begin/end) plus a *reference* event marking
where the compute stream stood when the tile's upload was enqueued.
After the streams drain, :meth:`XferStats.summary` turns the fired
event timestamps (simulated cycles) into:

* per-tile copy cycles (``ev_b - ev_a``) and compute cycles
  (``ev_d - ev_c``);
* per-tile **exposed** cycles — ``max(0, ev_c - prev_d)``: how long the
  compute stream actually sat waiting for the upload, i.e. the part of
  the copy the prefetch failed to hide behind the previous tile's
  compute;
* the **copy-exposed fraction** — total exposed cycles over total
  *tile-upload* cycles: the share of the pipelined traffic the
  double-buffering failed to hide.  0 means every prefetched byte hid
  under compute; 1 means the pipeline degenerated to synchronous
  copy-then-compute.  Unpipelined traffic registered via
  :meth:`add_copy` (resident-slice uploads, writebacks) is reported
  separately as ``extra_copy_cycles`` — it is serial by construction,
  so folding it into the fraction would flatter the pipeline.

Counters ``cudasim.xfer.tiles`` / ``cudasim.xfer.copy_bytes`` tick at
enqueue time; the fraction lands in the
``cudasim.xfer.copy_exposed_fraction`` gauge when summarised.

A captured launch graph records its tiles once, at capture, into a
private ``XferStats(counted=False)``; every replay re-fires the same
events, so after each drained replay :meth:`XferStats.add_replay`
appends the capture's records frozen at that replay's cycles — graph
and op-by-op runs then report identical totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ...telemetry import runtime as _telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..stream import Event

__all__ = ["TileRecord", "CopyRecord", "XferStats"]


@dataclass
class TileRecord:
    """Events bracketing one staged tile (cycles resolved post-sync)."""

    tick: int
    nbytes: int
    ev_a: "Event"  #: copy stream, before the upload
    ev_b: "Event"  #: copy stream, after the upload
    prev_d: "Event"  #: compute stream, when the upload was enqueued
    ev_c: "Event"  #: compute stream, before consuming the tile
    ev_d: "Event"  #: compute stream, after consuming the tile


@dataclass
class CopyRecord:
    """One extra (non-tile) transfer: resident uploads, writebacks."""

    label: str
    nbytes: int
    ev_a: "Event"
    ev_b: "Event"


@dataclass(frozen=True)
class _Fired:
    """An event's cycle frozen at one replay (see :meth:`add_replay`)."""

    cycle: float


def _cycle(event: "Event") -> float:
    cycle = event.cycle
    if cycle is None:
        raise RuntimeError(
            f"event {event!r} has not fired — synchronize the pipeline "
            "before summarising"
        )
    return cycle


class XferStats:
    """Accumulates tile/copy records; summarises after a drain.

    ``counted=False`` keeps the telemetry counters still: for records
    captured into a launch graph, which count once per replay instead
    (see :meth:`add_replay`).
    """

    def __init__(self, counted: bool = True) -> None:
        self.tiles: list[TileRecord] = []
        self.copies: list[CopyRecord] = []
        self.counted = counted

    def add_tile(self, tick, nbytes, ev_a, ev_b, prev_d, ev_c, ev_d) -> None:
        self.tiles.append(
            TileRecord(tick, int(nbytes), ev_a, ev_b, prev_d, ev_c, ev_d)
        )
        if self.counted:
            _telemetry.inc("cudasim.xfer.tiles")
            _telemetry.inc("cudasim.xfer.copy_bytes", float(nbytes))

    def add_copy(self, label: str, nbytes, ev_a, ev_b) -> None:
        self.copies.append(CopyRecord(label, int(nbytes), ev_a, ev_b))
        if self.counted:
            _telemetry.inc("cudasim.xfer.copy_bytes", float(nbytes))

    def add_replay(self, captured: "XferStats") -> None:
        """Record one drained replay of a graph whose capture recorded
        ``captured``: its tiles and copies, with every event frozen at
        the cycle it fired at in this replay."""
        for t in captured.tiles:
            self.add_tile(
                t.tick, t.nbytes,
                *(_Fired(_cycle(e))
                  for e in (t.ev_a, t.ev_b, t.prev_d, t.ev_c, t.ev_d)),
            )
        for c in captured.copies:
            self.add_copy(
                c.label, c.nbytes, _Fired(_cycle(c.ev_a)),
                _Fired(_cycle(c.ev_b)),
            )

    @property
    def copy_bytes(self) -> int:
        return sum(t.nbytes for t in self.tiles) + sum(
            c.nbytes for c in self.copies
        )

    def reset(self) -> None:
        self.tiles.clear()
        self.copies.clear()

    def summary(self) -> dict:
        """Resolve every event and report totals + the exposed fraction.

        Raises :class:`RuntimeError` if any recorded event has not fired
        (i.e. the streams were not synchronised first).
        """
        tile_copy = tile_compute = exposed = 0.0
        for t in self.tiles:
            tile_copy += _cycle(t.ev_b) - _cycle(t.ev_a)
            tile_compute += _cycle(t.ev_d) - _cycle(t.ev_c)
            exposed += max(0.0, _cycle(t.ev_c) - _cycle(t.prev_d))
        extra_copy = sum(
            _cycle(c.ev_b) - _cycle(c.ev_a) for c in self.copies
        )
        fraction = exposed / tile_copy if tile_copy else 0.0
        _telemetry.set_gauge("cudasim.xfer.copy_exposed_fraction", fraction)
        return {
            "tiles": len(self.tiles),
            "copy_bytes": self.copy_bytes,
            "tile_copy_cycles": tile_copy,
            "extra_copy_cycles": extra_copy,
            "tile_compute_cycles": tile_compute,
            "exposed_cycles": exposed,
            "copy_exposed_fraction": fraction,
        }

"""Roofline model over the simulated device's ceilings.

The classic log-log roofline plots attainable throughput against
arithmetic intensity (AI = flops per byte of memory traffic) under two
ceilings:

* **compute roof** — the issue-rate peak.  The device model assumes one
  MAD per SP per cycle, so ``2 * num_sms * sps_per_sm`` flops/cycle
  (exactly the ``peak_gflops`` the device reports, restated per cycle).
* **memory roof** — aggregate pipeline bandwidth: every SM owns a
  :class:`~repro.cudasim.pipeline.MemoryPipeline` draining
  ``bytes_per_cycle``, so ``num_sms * bytes_per_cycle`` bytes/cycle.

A kernel whose AI sits left of the ridge point (where the roofs cross)
is *memory-bound*: the bandwidth ceiling caps it below peak issue.  To
the right it is *compute-bound*.  All quantities come from profiler
counters — flops from per-pc active-lane counts, bytes from the memory
pipeline's transaction stats (global + texture fills) — so the
classification is deterministic and the same in both execution modes.
"""

from __future__ import annotations

__all__ = ["roofline", "render_roofline"]


def roofline(profile) -> dict:
    """Roofline analysis of one :class:`KernelProfile` (JSON-safe)."""
    dev = profile.device
    peak_flops_per_cycle = 2.0 * dev["num_sms"] * dev["sps_per_sm"]
    bw_bytes_per_cycle = dev["num_sms"] * dev["bytes_per_cycle"]
    ridge = peak_flops_per_cycle / bw_bytes_per_cycle

    flops = profile.flops
    moved = profile.pipeline_bytes
    cycles = profile.cycles
    ai = flops / moved if moved else float("inf")
    bound = "memory" if ai < ridge else "compute"
    attainable = (
        min(peak_flops_per_cycle, ai * bw_bytes_per_cycle)
        if moved
        else peak_flops_per_cycle
    )
    achieved_flops = flops / cycles if cycles else 0.0
    achieved_bw = moved / cycles if cycles else 0.0
    return {
        "arithmetic_intensity": ai,
        "ridge_point": ridge,
        "bound": bound,
        "peak_flops_per_cycle": peak_flops_per_cycle,
        "peak_bytes_per_cycle": bw_bytes_per_cycle,
        "attainable_flops_per_cycle": attainable,
        "achieved_flops_per_cycle": achieved_flops,
        "achieved_bytes_per_cycle": achieved_bw,
        "efficiency": achieved_flops / attainable if attainable else 0.0,
        "bandwidth_utilization": (
            achieved_bw / bw_bytes_per_cycle if bw_bytes_per_cycle else 0.0
        ),
        "flops": flops,
        "bytes": moved,
        "cycles": cycles,
    }


def render_roofline(analysis: dict) -> str:
    """Few-line console rendering of a :func:`roofline` result."""
    ai = analysis["arithmetic_intensity"]
    ai_text = f"{ai:.4f}" if ai != float("inf") else "inf (no memory traffic)"
    lines = [
        f"arithmetic intensity : {ai_text} flop/byte"
        f" (ridge {analysis['ridge_point']:.4f})",
        f"classification       : {analysis['bound']}-bound",
        f"achieved             : {analysis['achieved_flops_per_cycle']:.2f}"
        f" flop/cycle of {analysis['attainable_flops_per_cycle']:.2f}"
        f" attainable ({100 * analysis['efficiency']:.1f}%)",
        f"bandwidth            : {analysis['achieved_bytes_per_cycle']:.2f}"
        f" B/cycle of {analysis['peak_bytes_per_cycle']:.0f} peak"
        f" ({100 * analysis['bandwidth_utilization']:.1f}%)",
    ]
    return "\n".join(lines)

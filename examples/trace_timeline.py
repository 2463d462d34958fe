#!/usr/bin/env python3
"""Side-by-side Chrome traces of the far-field kernel, one per layout.

Runs one cycle-simulated Gravit far-field launch for each memory layout
(AoS / SoA / AoaS / SoAoaS) with a memory-access recorder attached, and
writes a Perfetto-loadable trace per layout: per-SM kernel slices,
memory-pipe busy counters, and instant events for every global access.
Open two traces in https://ui.perfetto.dev side by side and the layout
argument of the paper is visible as slice length — AoS slices run ~1.4x
longer than SoAoaS on CUDA 1.0.

    python examples/trace_timeline.py [outdir]
"""

import sys

from repro import telemetry
from repro.cudasim import TraceRecorder
from repro.experiments.report import format_table
from repro.gravit import GpuConfig, GpuForceBackend, plummer

LAYOUTS = ("aos", "soa", "aoas", "soaoas")


def main(outdir: str = "results") -> None:
    telemetry.enable()
    system = plummer(512, seed=7)
    rows = []
    for kind in LAYOUTS:
        backend = GpuForceBackend(GpuConfig(layout_kind=kind))
        recorder = TraceRecorder(kernel_name=f"forces-{kind}")
        with telemetry.span("trace_timeline.layout", layout=kind):
            _, result = backend.forces_cycle(system, trace=recorder)
        path = telemetry.write_chrome_trace(
            f"{outdir}/trace_{kind}.json",
            telemetry.launch_trace_events(result, recorder.trace),
        )
        rows.append(
            [
                kind,
                result.cycles,
                result.stats.memory.transactions,
                len(recorder.trace),
                path,
            ]
        )
    print(
        format_table(
            ["layout", "cycles", "transactions", "accesses", "trace"], rows
        )
    )
    combined = telemetry.export_chrome_trace(f"{outdir}/trace_spans.json")
    print(f"\nhost-side span timeline: {combined}")
    print("load any of these in https://ui.perfetto.dev")


if __name__ == "__main__":
    main(*sys.argv[1:2])

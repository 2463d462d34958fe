"""FIG10 — average cycles per 4-byte read, per layout × CUDA revision.

Reproduces the paper's Fig. 10 by running the Sec. III microbenchmark
kernel (clock / load-with-dependent-use / clock) on the cycle simulator
for every layout of the particle structure and every toolchain revision,
reporting ``cycles for the whole structure ÷ 4-byte elements moved``.

Paper claims checked: all layouts inside the 200–500 cycles band;
ordering unopt ≈ AoS > SoA > AoaS > SoAoaS for CUDA 1.0/2.2; CUDA 1.1
flattened.
"""

from __future__ import annotations

import numpy as np

from ..core.layouts import LAYOUT_KINDS, make_layout
from ..core.timing import estimate_cycles_per_element
from ..core.coalescing import policy_for
from ..cudasim import profiler
from ..cudasim.device import G8800GTX, Toolchain
from ..cudasim.launch import Device
from ..gravit.gpu_kernels import ALL_FIELDS, build_membench_kernel
from .report import ExperimentResult, format_table

__all__ = ["measure_layout", "run"]

#: Launch shape of the microbenchmark: a small resident set so the
#: dependent-use chain (not cross-warp queueing) dominates, as in the
#: paper's stripped-down kernel.
BENCH_N = 256
BENCH_BLOCK = 64
BENCH_GRID = 1


def measure_layout(
    kind: str,
    toolchain: Toolchain,
    n: int = BENCH_N,
    block: int = BENCH_BLOCK,
    grid: int = BENCH_GRID,
    records_per_thread: int = 1,
    seed: int = 1,
) -> dict:
    """Cycle-simulate the microbenchmark for one layout/toolchain.

    Compiles the microbenchmark kernel (through the kernel cache), then
    copies in, launches and copies out on a fresh device.  Returns
    per-element and whole-structure cycle figures plus the transaction
    counters the layout analysis predicts.
    """
    layout = make_layout(kind, n)
    kernel, plan = build_membench_kernel(
        layout, records_per_thread=records_per_thread
    )
    dev = Device(toolchain=toolchain, heap_bytes=1 << 22)
    lk = dev.compile(kernel)
    buf = dev.malloc(layout.size_bytes)
    if profiler.enabled():
        # Advertise the layout's field spans so profiled traffic is
        # binned per region.
        profiler.set_regions(profiler.regions_for_layout(layout, buf.addr))
    rng = np.random.default_rng(seed)
    data = {f: rng.random(n).astype(np.float32) for f in ALL_FIELDS}
    threads = block * grid
    out = dev.malloc(8 * threads)
    steps = layout.read_plan(ALL_FIELDS)
    params = {
        name: buf.addr + step.base
        for name, step in zip(plan.param_for_step, steps)
    }
    params["out"] = out
    dev.memcpy_htod(buf, layout.pack(data))
    result = dev.launch(lk, grid=grid, block=block, params=params)
    words = dev.memcpy_dtoh(out, 2 * threads).reshape(-1, 2)
    per_thread_cycles = words[:, 0] / records_per_thread
    elements = layout.elements_per_record(ALL_FIELDS)
    # Checksum validates the loads happened (sum of 7 uniform randoms).
    checksum_ok = bool(np.all(words[:, 1] > 0))
    return {
        "kind": kind,
        "toolchain": toolchain.value,
        "cycles_per_structure": float(per_thread_cycles.mean()),
        "cycles_per_element": float(per_thread_cycles.mean() / elements),
        "elements": elements,
        "loads": layout.loads_per_record(ALL_FIELDS),
        "transactions": result.stats.memory.transactions,
        "bytes_moved": result.stats.memory.bytes_moved,
        "checksum_ok": checksum_ok,
        "analytic_cycles_per_element": estimate_cycles_per_element(
            layout, policy_for(toolchain), G8800GTX, ALL_FIELDS
        ),
    }


def run(
    kinds: tuple[str, ...] = LAYOUT_KINDS,
    toolchains: tuple[Toolchain, ...] = tuple(Toolchain),
    **kwargs,
) -> ExperimentResult:
    """Full Fig. 10 sweep, one configuration at a time."""
    measurements = {
        (kind, tc): measure_layout(kind, tc, **kwargs)
        for tc in toolchains
        for kind in kinds
    }
    headers = ["layout"] + [f"CUDA {tc.value}" for tc in toolchains]
    rows = []
    for kind in kinds:
        row: list[object] = [kind]
        for tc in toolchains:
            row.append(measurements[(kind, tc)]["cycles_per_element"])
        rows.append(row)
    table = format_table(headers, rows, float_fmt="{:.1f}")

    series = {
        "cycles": {
            "layout_index": list(range(len(kinds))),
            **{
                f"cuda_{tc.value.replace('.', '_')}": [
                    measurements[(kind, tc)]["cycles_per_element"]
                    for kind in kinds
                ]
                for tc in toolchains
            },
        }
    }

    values = [m["cycles_per_element"] for m in measurements.values()]
    in_band = all(150.0 <= v <= 550.0 for v in values)

    def cyc(kind: str, tc: Toolchain) -> float:
        return measurements[(kind, tc)]["cycles_per_element"]

    tc10 = Toolchain.CUDA_1_0
    ordering_10 = (
        cyc("unopt", tc10) >= cyc("soa", tc10) > cyc("soaoas", tc10)
    )
    result = ExperimentResult(
        experiment_id="fig10",
        title="Average cycle count per single 4-byte read "
        "(memory microbenchmark, Sec. III)",
        data={
            "measurements": {
                f"{k}/{tc.value}": m for (k, tc), m in measurements.items()
            },
            "series": series,
            "kinds": list(kinds),
            "toolchains": [tc.value for tc in toolchains],
        },
        table=table,
        paper_claims={
            "band": "all layouts within ~200-500 cycles/element",
            "ordering CUDA 1.0": "unopt/AoS worst, SoAoaS best",
        },
        measured_claims={
            "band": f"{min(values):.0f}-{max(values):.0f} "
            + ("(inside)" if in_band else "(OUTSIDE)"),
            "ordering CUDA 1.0": "holds" if ordering_10 else "VIOLATED",
        },
    )
    return result

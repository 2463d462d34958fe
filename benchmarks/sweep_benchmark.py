"""Sweep-level wall-clock benchmark: the kernel cache, cold vs warm.

Times the fig10 layout sweep and the unroll-factor sweep in two
configurations:

* ``baseline``  — compilation cache disabled per repetition (every
  configuration recompiles);
* ``warm``      — a warmed kernel cache (the steady state of a sweep
  grid re-run, e.g. ``gravit-repro run fig11 fig11``).

Also times one cycle launch per SM engine (serial/process) so the
pool's effect is recorded alongside the host core count — on a single
core only caching can win, so the process engine is timed only on
multi-core hosts, where it adds real parallel speedup.

Writes ``BENCH_sweep.json`` at the repository root::

    python benchmarks/sweep_benchmark.py [--repeats 3] [--out BENCH_sweep.json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time


def _best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def bench_sweeps(repeats: int) -> dict:
    from repro.cudasim.kernel_cache import KernelCache, set_default_cache
    from repro.experiments import fig10_memory_cycles, unrolling_sweep

    factors = (1, 4, 128)

    def sweep():
        fig10_memory_cycles.run()
        unrolling_sweep.run(factors=factors)

    def cold():
        set_default_cache(KernelCache())
        sweep()

    results = {"baseline_serial_cold_cache_s": _best_of(cold, repeats)}
    set_default_cache(KernelCache())
    sweep()  # warm the cache once
    results["warm_cache_s"] = _best_of(sweep, repeats)
    results["speedup_warm_cache"] = (
        results["baseline_serial_cold_cache_s"] / results["warm_cache_s"]
    )
    set_default_cache(None)
    return results


def bench_engines(repeats: int) -> dict:
    import numpy as np

    from repro.cudasim import Device
    from repro.gravit import GpuConfig, GpuForceBackend, two_galaxies

    system = two_galaxies(512, seed=7)
    engines = ["serial"]
    if (os.cpu_count() or 1) >= 2:
        engines.append("process")
    out = {}
    reference = None
    for engine in engines:
        backend = GpuForceBackend(
            GpuConfig(block_size=128),
            device=Device(sm_engine=engine, heap_bytes=1 << 24),
        )
        backend.compile()

        forces_holder = {}

        def launch():
            forces_holder["forces"], forces_holder["result"] = (
                backend.forces_cycle(system)
            )

        seconds = _best_of(launch, repeats)
        out[f"{engine}_launch_s"] = seconds
        cycles = forces_holder["result"].cycles
        if reference is None:
            reference = (forces_holder["forces"], cycles)
        else:
            assert np.array_equal(reference[0], forces_holder["forces"]), (
                f"{engine} engine changed the forces"
            )
            assert reference[1] == cycles, (
                f"{engine} engine changed the cycle count"
            )
    for engine in engines[1:]:
        out[f"speedup_{engine}"] = (
            out["serial_launch_s"] / out[f"{engine}_launch_s"]
        )
    out["engines_bit_identical"] = True
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_sweep.json")
    args = parser.parse_args(argv)

    report = {
        "benchmark": "sweep (fig10 + unroll) / SM engines",
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "note": (
            "SM-pool speedup needs >= 2 cores; on one core the win "
            "comes from the kernel cache"
        ),
        "sweeps": bench_sweeps(args.repeats),
        "engines": bench_engines(max(1, args.repeats - 1)),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

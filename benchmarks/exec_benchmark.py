"""Executor wall-clock benchmark: codegen fastpath vs the interpreter.

Times the paper's two simulation-heavy sweeps — the Fig. 10 layout ×
toolchain grid (which also powers Fig. 11's derived speedups) and the
unroll-factor sweep — under both execution modes of
:mod:`repro.cudasim.fastpath`: the reference interpreter
(``REPRO_EXEC_FASTPATH=0``) and the compiled path (``1``, reported as
``fastpath_v2``).  Each mode gets one warm-up pass so
the kernel-compilation and fastpath-codegen caches are hot and the
numbers measure cycle simulation, not compilation; the reported time is
then the best of ``--repeats`` runs.

A paper-scale point (the largest n that fits the CI budget, unroll 16)
is timed under the compiled mode only — the interpreter needs minutes
per repeat there, which is exactly the affordability problem the
vectorized executor solves.  The compiled runs also report scheduler
shape: warps per vector dispatch, the fraction of warp-stretches that
fell back to the per-warp path, and the steps of one-row runs and the
validated shared loads per vectorized warp-instruction.

Every mode is bit-identical to the interpreter by construction
(``tests/test_fastpath.py`` pins memory images, stats and cycle counts),
so this benchmark only reports time.

Writes ``BENCH_exec.json`` at the repository root::

    python benchmarks/exec_benchmark.py [--repeats 3] [--out BENCH_exec.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

#: Unroll factors for the sweep: rolled, the paper's plateau entry
#: points, and fully unrolled (the largest generated kernel).
UNROLL_FACTORS = (1, 4, 16, 128)

#: The paper-scale point: largest n affordable in the CI budget under
#: the compiled mode (the source paper sweeps 40k..1M; the cycle-level
#: interpreter needs ~1 min per repeat already at this size).
PAPER_N = 2048
PAPER_UNROLL = 16

#: Execution modes: env value -> report key suffix.
MODES = (("0", "interpreter"), ("1", "fastpath_v2"))


def _best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _vec_shape(counters: dict) -> dict:
    """Scheduler shape of the vectorized executor from its counters.

    The row fractions are per vectorized warp-instruction: steps of
    one-row runs and per-row validated shared loads, the work the
    replay's plan runs one warp row at a time."""
    dispatches = counters.get("dispatches", 0)
    warps = counters.get("warps", 0)
    fallbacks = counters.get("fallbacks", 0)
    instructions = counters.get("instructions", 0)

    def per_instruction(key: str) -> float:
        return counters.get(key, 0) / instructions if instructions else 0.0

    return {
        "warps_per_dispatch": warps / dispatches if dispatches else 0.0,
        "fallback_fraction": (
            fallbacks / (warps + fallbacks) if warps + fallbacks else 0.0
        ),
        "row_event_fraction": per_instruction("row_events"),
        "row_load_fraction": per_instruction("row_loads"),
    }


def bench_sweeps(repeats: int) -> dict:
    from repro.cudasim import fastpath
    from repro.cudasim.fastpath import FASTPATH_ENV
    from repro.cudasim.kernel_cache import KernelCache, set_default_cache
    from repro.experiments import (
        fig10_memory_cycles,
        fig11_layout_speedup,
        unrolling_sweep,
    )

    def sweep_fig10_fig11():
        fig10 = fig10_memory_cycles.run()
        fig11_layout_speedup.run(fig10=fig10)

    def sweep_unroll():
        unrolling_sweep.run(factors=UNROLL_FACTORS)

    def sweep_paper_scale():
        unrolling_sweep.run(factors=(PAPER_UNROLL,), n=PAPER_N)

    saved = os.environ.get(FASTPATH_ENV)
    out: dict = {}

    def timed(name, sweep, env, suffix):
        os.environ[FASTPATH_ENV] = env
        set_default_cache(KernelCache())
        sweep()  # warm the compile + codegen caches
        fastpath.reset_vec_counters()
        out[f"{name}_{suffix}_s"] = _best_of(sweep, repeats)
        if env == "1":
            for key, val in _vec_shape(fastpath.vec_counters()).items():
                out[f"{name}_{key}"] = val

    try:
        for name, sweep in (
            ("fig10_fig11", sweep_fig10_fig11),
            ("unroll", sweep_unroll),
        ):
            for env, suffix in MODES:
                timed(name, sweep, env, suffix)
            for env, suffix in MODES[1:]:
                out[f"{name}_speedup_{suffix[-2:]}"] = (
                    out[f"{name}_interpreter_s"] / out[f"{name}_{suffix}_s"]
                )
        # Paper-scale point: compiled mode only (see module docstring).
        for env, suffix in MODES[1:]:
            timed("paper_scale", sweep_paper_scale, env, suffix)
        out["paper_scale_n"] = PAPER_N
        out["paper_scale_unroll"] = PAPER_UNROLL
    finally:
        if saved is None:
            os.environ.pop(FASTPATH_ENV, None)
        else:
            os.environ[FASTPATH_ENV] = saved
        set_default_cache(None)
    interp = out["fig10_fig11_interpreter_s"] + out["unroll_interpreter_s"]
    fast = out["fig10_fig11_fastpath_v2_s"] + out["unroll_fastpath_v2_s"]
    out["total_interpreter_s"] = interp
    out["total_fastpath_s"] = fast
    out["overall_speedup"] = interp / fast
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_exec.json")
    args = parser.parse_args(argv)

    report = {
        "benchmark": (
            "executor fastpath vs interpreter "
            "(fig10+fig11 / unroll / paper-scale)"
        ),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "unroll_factors": list(UNROLL_FACTORS),
        "note": (
            "best-of-N with warm compile/codegen caches; all modes "
            "produce bit-identical memory, stats and cycles "
            "(tests/test_fastpath.py); paper-scale point runs the "
            "compiled mode only"
        ),
        "results": bench_sweeps(args.repeats),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Experiment registry and command-line entry point.

``gravit-repro list`` shows the available experiments; ``gravit-repro
run fig10 [fig11 …]`` executes them, prints the paper-vs-measured
summaries, and (with ``--dat DIR``) writes gnuplot-ready data files.
``gravit-repro run all --quick`` uses the reduced problem sizes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from ..telemetry import runtime as _telemetry
from ..telemetry.manifest import append_manifest, build_manifest
from .report import ExperimentResult

__all__ = ["EXPERIMENTS", "run_experiment", "main", "DEFAULT_RESULTS_PATH"]

#: Where ``--json`` appends run manifests when no file is given.
DEFAULT_RESULTS_PATH = "results/results.jsonl"


def _fig10(quick: bool) -> ExperimentResult:
    from . import fig10_memory_cycles

    return fig10_memory_cycles.run()


def _fig11(quick: bool) -> ExperimentResult:
    from . import fig11_layout_speedup

    return fig11_layout_speedup.run()


def _fig12(quick: bool) -> ExperimentResult:
    from . import fig12_gravit_levels

    sizes = (
        fig12_gravit_levels.QUICK_SIZES
        if quick
        else fig12_gravit_levels.PAPER_SIZES
    )
    return fig12_gravit_levels.run(sizes=sizes)


def _unroll(quick: bool) -> ExperimentResult:
    from . import unrolling_sweep

    factors = (1, 4, 128) if quick else (1, 2, 4, 8, 16, 32, 64, 128)
    return unrolling_sweep.run(factors=factors)


def _occupancy(quick: bool) -> ExperimentResult:
    from . import occupancy_table

    return occupancy_table.run()


def _diagrams(quick: bool) -> ExperimentResult:
    from . import access_diagrams

    return access_diagrams.run()


def _ablation(quick: bool) -> ExperimentResult:
    from . import ablation_tiling

    return ablation_tiling.run(
        layout_kinds=("soaoas",) if quick else ("soaoas", "soa")
    )


def _portability(quick: bool) -> ExperimentResult:
    from . import portability

    return portability.run()


def _bh_vs_n2(quick: bool) -> ExperimentResult:
    from . import bh_vs_n2_gpu

    sizes = (256, 512) if quick else (256, 512, 1024)
    return bh_vs_n2_gpu.run(sizes=sizes)


def _bh_tradeoff(quick: bool) -> ExperimentResult:
    from . import bh_tradeoff

    if quick:
        return bh_tradeoff.run(n=600, thetas=(0.0, 0.6, 1.0))
    return bh_tradeoff.run()


def _model_vs_sim(quick: bool) -> ExperimentResult:
    from . import model_vs_sim

    return model_vs_sim.run()


def _frag(quick: bool) -> ExperimentResult:
    from . import frag_dynamics

    if quick:
        return frag_dynamics.run(n=256, rounds=3, records_per_block=32)
    return frag_dynamics.run()


def _multigpu(quick: bool) -> ExperimentResult:
    from . import multigpu_scaling

    if quick:
        return multigpu_scaling.run(
            n=192, devices=(1, 2, 4), block_size=32, steps=1
        )
    return multigpu_scaling.run()


def _outofcore(quick: bool) -> ExperimentResult:
    from . import outofcore_streaming

    if quick:
        return outofcore_streaming.run(
            n=192, tile_rows_sweep=(32, 64), steps=1, oom_demo=False
        )
    return outofcore_streaming.run()


def _warp_scaling(quick: bool) -> ExperimentResult:
    from . import warp_scaling

    counts = (1, 4, 16) if quick else (1, 2, 4, 8, 12, 16)
    return warp_scaling.run(warp_counts=counts)


def _profile(quick: bool) -> ExperimentResult:
    from . import profile_report

    return profile_report.run()


def _graphs(quick: bool) -> ExperimentResult:
    from . import graphs_replay

    if quick:
        return graphs_replay.run(
            n=96,
            devices=(1, 2, 4),
            layout_kinds=("soaoas",),
            steps=2,
            repeats=10,
        )
    return graphs_replay.run()


def _service(quick: bool) -> ExperimentResult:
    from . import service_saturation

    if quick:
        return service_saturation.run(
            n=96, tenants=2, jobs_per_tenant=3, steps=1
        )
    return service_saturation.run()


EXPERIMENTS: dict[str, tuple[str, Callable[[bool], ExperimentResult]]] = {
    "fig10": ("memory microbenchmark: cycles per 4-byte read", _fig10),
    "fig11": ("layout speedups over AoS", _fig11),
    "fig12": ("Gravit runtime per optimization level vs N", _fig12),
    "unroll": ("unroll-factor sweep with Eq.3 prediction", _unroll),
    "occupancy": ("registers / occupancy / +6% table", _occupancy),
    "diagrams": ("access-pattern diagrams of Figs. 3/5/7/9", _diagrams),
    "ablation": ("ablation: shared-memory tiling", _ablation),
    "portability": ("optimizations across GPU models (future work)", _portability),
    "warps": ("layout gap vs resident warps (regime study)", _warp_scaling),
    "model": ("Eq. 2 instruction model vs the cycle simulator", _model_vs_sim),
    "bh": ("Barnes-Hut opening-angle trade-off (Sec. I-C)", _bh_tradeoff),
    "bhgpu": ("GPU tree code vs GPU O(n²) kernel (Sec. I-D)", _bh_vs_n2),
    "frag": ("layout coalescing under dynamic populations", _frag),
    "multigpu": ("row-block sharding across a device group", _multigpu),
    "outofcore": ("streaming tiles through a prefetch pipeline", _outofcore),
    "profile": ("gravit-prof counters vs the fig11 ranking", _profile),
    "service": ("multi-tenant job service over a device group", _service),
    "graphs": ("launch-graph capture/replay vs op-by-op dispatch", _graphs),
}


def run_experiment(name: str, quick: bool = False) -> ExperimentResult:
    try:
        _, fn = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    with _telemetry.span("experiment.run", experiment=name, quick=quick):
        return fn(quick)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gravit-repro",
        description="Reproduce the evaluation of 'CUDA Memory Optimizations "
        "for Large Data-Structures in the Gravit Simulator' (ICPP 2009).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runp = sub.add_parser("run", help="run one or more experiments")
    runp.add_argument(
        "names",
        nargs="+",
        help="experiment ids (or 'all')",
    )
    runp.add_argument(
        "--quick", action="store_true", help="reduced sweeps for smoke runs"
    )
    runp.add_argument(
        "--dat",
        metavar="DIR",
        default=None,
        help="also write gnuplot .dat series into DIR",
    )
    runp.add_argument(
        "--json",
        metavar="FILE",
        nargs="?",
        const=DEFAULT_RESULTS_PATH,
        default=None,
        help="print each result as machine-readable JSON on stdout and "
        f"append a run manifest to FILE (default: {DEFAULT_RESULTS_PATH}); "
        "human summaries move to stderr",
    )
    runp.add_argument(
        "--telemetry",
        action="store_true",
        help="enable the telemetry layer (metrics + spans) for the run; "
        "manifests then carry the metrics snapshot",
    )
    runp.add_argument(
        "--profile",
        action="store_true",
        help="enable the gravit-prof profiler for the run and print a "
        "per-kernel counter summary afterwards",
    )
    runp.add_argument(
        "--no-fastpath",
        action="store_true",
        help="pin the reference cycle interpreter instead of the "
        "compiled fast path (REPRO_EXEC_FASTPATH=0 for this command); "
        "results are bit-identical either way, only wall-clock time "
        "changes",
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        for name, (desc, _) in EXPERIMENTS.items():
            print(f"{name:10s} {desc}")
        return 0

    from ..cudasim import profiler as _profiler
    from ..cudasim.envflags import env_override
    from ..cudasim.fastpath import FASTPATH_ENV

    # With --json, stdout is reserved for the machine-readable records.
    human = sys.stderr if args.json else sys.stdout

    names = list(EXPERIMENTS) if args.names == ["all"] else args.names
    # --telemetry, --profile and --no-fastpath hold for this command only.
    with _switched_on(_telemetry, args.telemetry), _switched_on(
        _profiler, args.profile
    ), env_override(FASTPATH_ENV, "0" if args.no_fastpath else None):
        for name in names:
            t0 = time.perf_counter()
            try:
                result = run_experiment(name, quick=args.quick)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            elapsed = time.perf_counter() - t0
            print(result.summary(), file=human)
            print(f"({elapsed:.1f}s)\n", file=human)
            if args.dat:
                for path in result.save_dat(args.dat):
                    print(f"wrote {path}", file=human)
            if args.json:
                manifest = _experiment_manifest(
                    result, elapsed, quick=args.quick
                )
                print(json.dumps(manifest, default=repr))
                append_manifest(args.json, manifest)
                print(
                    f"appended {result.experiment_id} manifest to "
                    f"{args.json}",
                    file=human,
                )
        if args.telemetry:
            from ..cudasim.kernel_cache import default_cache

            cs = default_cache().stats
            print(
                f"kernel cache: {cs.hits} hits / {cs.misses} misses of "
                f"compiled kernels ({100 * cs.hit_rate:.0f}% hit rate)",
                file=human,
            )
        if args.profile:
            _print_profile_summary(_profiler.profiles(), file=human)
    return 0


@contextmanager
def _switched_on(switch, on: bool) -> Iterator[None]:
    """Enable ``switch`` (the telemetry or profiler runtime) for the
    ``with`` body when ``on``, then disable it again unless it was
    enabled before, so a command's flags end with the command."""
    was = switch.enabled()
    if on:
        switch.enable()
    try:
        yield
    finally:
        if on and not was:
            switch.disable()


def _print_profile_summary(profiles, file) -> None:
    """One line of headline counters per profiled launch."""
    print(f"\ngravit-prof: {len(profiles)} profiled launches", file=file)
    for p in profiles:
        stalls = ", ".join(
            f"{reason}={cycles:.0f}"
            for reason, cycles in p.stall_cycles.items()
            if cycles
        )
        print(
            f"  {p.kernel_name}: cycles={p.cycles:.0f} "
            f"tx={int(p.tx_coalesced.sum())}c/"
            f"{int(p.tx_uncoalesced.sum())}u "
            f"occ={p.occupancy_achieved:.2f} "
            f"eff={p.warp_execution_efficiency:.2f}"
            + (f" stalls[{stalls}]" if stalls else ""),
            file=file,
        )


def _experiment_manifest(
    result: ExperimentResult, elapsed: float, quick: bool
) -> dict:
    """Schema-stamped manifest for one experiment run.

    ``experiment_id``/``title`` are duplicated at the top level so
    pre-manifest consumers of ``results.jsonl`` keep working.
    """
    manifest = build_manifest(
        "experiment",
        config={"quick": quick},
        data={
            "experiment_id": result.experiment_id,
            "title": result.title,
            "paper_claims": result.paper_claims,
            "measured_claims": result.measured_claims,
            "data": result.data,
            "notes": result.notes,
        },
        metrics=_telemetry.snapshot() or None,
        wall_s=elapsed,
    )
    manifest["experiment_id"] = result.experiment_id
    manifest["title"] = result.title
    return manifest


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""``gravit-prof`` — profile simulated kernels from the command line.

Subcommands::

    gravit-prof run  --kernel membench --layout soaoas --toolchain 1.0
    gravit-prof run  --kernel force --layout aos --unroll 16 --json p.json
    gravit-prof report profile.json
    gravit-prof diff a.json b.json --tolerance 1e-9

``run`` executes one kernel on the cycle simulator with profiling
enabled and prints the counter report (or writes the ``repro.profile/v1``
JSON document).  All reported quantities are simulated — two runs of the
same configuration produce byte-identical documents, so ``diff`` of them
reports zero deltas.
"""

from __future__ import annotations

import argparse
import sys

from ..envflags import env_override
from ..fastpath import FASTPATH_ENV
from . import runtime as _session
from .report import (
    PROFILE_SCHEMA,
    diff_documents,
    load_document,
    profile_document,
    render_diff,
    render_report,
    validate_profile,
    write_document,
)

__all__ = ["main", "run_membench", "run_force"]


def run_membench(
    layout: str,
    toolchain: str,
    n: int,
    block: int,
    grid: int,
    records_per_thread: int,
):
    """Profile the fig10 memory microbenchmark for one layout."""
    from ..device import Toolchain
    from ...experiments.fig10_memory_cycles import measure_layout

    measurement = measure_layout(
        layout,
        Toolchain(toolchain),
        n=n,
        block=block,
        grid=grid,
        records_per_thread=records_per_thread,
    )
    return measurement, _session.last_profile()


def run_force(
    layout: str,
    toolchain: str,
    n: int,
    block: int,
    unroll: int | None,
):
    """Profile one gravity force launch (the fig12 kernel)."""
    from ..device import Toolchain
    from ..kernel_cache import KernelCache
    from ..launch import Device
    from ...gravit.gpu_driver import GpuConfig, GpuForceBackend
    from ...gravit.spawn import uniform_cube

    cfg = GpuConfig(
        layout_kind=layout,
        block_size=block,
        toolchain=Toolchain(toolchain),
        unroll=unroll,
        licm=unroll is not None,
    )
    dev = Device(toolchain=cfg.toolchain, cache=KernelCache())
    backend = GpuForceBackend(cfg, device=dev)
    system = uniform_cube(n, seed=7)
    _forces, result = backend.forces_cycle(system)
    measurement = {
        "cycles": result.cycles,
        "transactions": result.stats.memory.transactions,
        "bytes_moved": result.stats.memory.bytes_moved,
    }
    return measurement, _session.last_profile()


def _cmd_run(args) -> int:
    # A fresh profiler session, and --no-fastpath pinning the
    # interpreter, hold for this command only.
    with _session.fresh_session(
        max_gap_events=args.max_gap_events
    ), env_override(FASTPATH_ENV, "0" if args.no_fastpath else None):
        if args.kernel == "membench":
            _measurement, profile = run_membench(
                args.layout,
                args.toolchain,
                args.n,
                args.block,
                args.grid,
                args.records_per_thread,
            )
        else:
            _measurement, profile = run_force(
                args.layout, args.toolchain, args.n, args.block, args.unroll
            )
    if profile is None:
        print("error: launch produced no profile", file=sys.stderr)
        return 1
    config = {
        "workload": args.kernel,
        "layout": args.layout,
        "n": args.n,
        "fastpath": not args.no_fastpath,
        "records_per_thread": args.records_per_thread,
        "unroll": args.unroll,
    }
    doc = profile_document(profile, config)
    if args.json:
        write_document(args.json, doc)
        print(f"wrote {args.json} ({PROFILE_SCHEMA})")
    else:
        print(render_report(doc, top=args.top))
    return 0


def _cmd_report(args) -> int:
    doc = load_document(args.file)
    problems = validate_profile(doc)
    if problems:
        for p in problems:
            print(f"invalid profile: {p}", file=sys.stderr)
        return 1
    print(render_report(doc, top=args.top))
    return 0


def _cmd_diff(args) -> int:
    a = load_document(args.a)
    b = load_document(args.b)
    deltas = diff_documents(a, b, tolerance=args.tolerance)
    print(render_diff(deltas))
    return 1 if deltas else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravit-prof",
        description="Nsight-style profiler for the gravit cycle simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="profile one simulated kernel launch")
    p_run.add_argument(
        "--kernel",
        choices=("membench", "force"),
        default="membench",
        help="workload: fig10 memory microbenchmark or the gravity kernel",
    )
    p_run.add_argument("--layout", default="soaoas",
                       help="memory layout kind (aos/soa/aoas/soaoas/unopt)")
    p_run.add_argument("--toolchain", default="1.0",
                       choices=("1.0", "1.1", "2.2"))
    p_run.add_argument("--n", type=int, default=256,
                       help="records (membench) or bodies (force)")
    p_run.add_argument("--block", type=int, default=64)
    p_run.add_argument("--grid", type=int, default=1,
                       help="membench only; force derives its own grid")
    p_run.add_argument("--records-per-thread", type=int, default=1)
    p_run.add_argument("--unroll", type=int, default=None,
                       help="force kernel unroll factor")
    p_run.add_argument("--no-fastpath", action="store_true",
                       help="run the reference interpreter")
    p_run.add_argument("--json", metavar="PATH",
                       help="write the repro.profile/v1 document here")
    p_run.add_argument("--top", type=int, default=10,
                       help="hot-instruction rows in the console report")
    p_run.add_argument("--max-gap-events", type=int, default=4096)
    p_run.set_defaults(fn=_cmd_run)

    p_report = sub.add_parser(
        "report", help="validate + render a saved profile document"
    )
    p_report.add_argument("file")
    p_report.add_argument("--top", type=int, default=10)
    p_report.set_defaults(fn=_cmd_report)

    p_diff = sub.add_parser(
        "diff", help="per-counter deltas between two profile documents"
    )
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="relative tolerance before a numeric delta is reported",
    )
    p_diff.set_defaults(fn=_cmd_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `gravit-prof report ... | head`
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())

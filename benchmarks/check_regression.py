"""Perf-regression gate: fresh benchmark runs vs the committed baselines.

Each committed ``BENCH_*.json`` at the repo root is the blessed output of
one benchmark script in this directory.  This checker re-runs the
benchmarks, then compares every leaf value against the baseline with a
per-metric policy:

* **environment keys** (``benchmark``, ``python``, ``cpu_count``,
  ``note``) are skipped — they describe the machine, not the code;
* **booleans** (``bit_identical`` flags) must match exactly;
* **timing metrics** (keys ending in ``_s`` / ``_per_s``, ``wall_s``,
  anything containing ``speedup``) are machine-dependent: deltas are
  reported as warnings, and only fail the run under ``--strict-timing``
  when outside the ``--tolerance`` band;
* **everything else numeric** (cycles, transactions, bytes, counts,
  ratios) is deterministic simulator output and must match within
  ``--det-tolerance`` (default 1e-6 relative) — this is the actual
  regression gate.

Exit status: 0 clean, 1 on any deterministic mismatch (or timing
violation under ``--strict-timing``), 2 on usage/missing-baseline
errors.  CI's perf job runs it, so a deterministic mismatch or a
crashed benchmark fails the build while timing misses only warn::

    PYTHONPATH=src python benchmarks/check_regression.py --quick

``--update`` rewrites the committed baselines from the fresh runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Machine-description keys that never participate in the comparison.
ENV_KEYS = {"benchmark", "python", "cpu_count", "note"}

#: name -> (module, committed baseline, extra argv, quick extra argv[,
#: skip prefixes]).  --quick only reduces *repeats* — problem sizes stay
#: the baseline's, so every deterministic leaf remains comparable.  The
#: optional fifth element names report subtrees that are excluded from
#: the comparison entirely (live thread-timing sections whose *shape*
#: changes under --quick, not just their values).
BENCHMARKS = {
    "alloc": ("alloc_benchmark", "BENCH_alloc.json", [], []),
    "exec": ("exec_benchmark", "BENCH_exec.json", [], ["--repeats", "1"]),
    "multigpu": ("multigpu_benchmark", "BENCH_multigpu.json", [], []),
    "outofcore": ("outofcore_benchmark", "BENCH_outofcore.json", [], []),
    "service": (
        "service_benchmark",
        "BENCH_service.json",
        [],
        ["--quick"],
        ("live",),
    ),
    # Wall-clock host-dispatch metrics all live under "timing" and are
    # machine-dependent end to end; the deterministic "graphs" subtree
    # (bit-identity, cycle parity, copy accounting) is the gate.
    "graphs": (
        "graph_benchmark",
        "BENCH_graphs.json",
        [],
        ["--steps", "3", "--repeats", "5"],
        ("timing",),
    ),
}


def is_timing_key(key: str) -> bool:
    """Machine-dependent wall-clock metrics (soft comparison)."""
    return (
        key.endswith("_s")
        or key.endswith("_per_s")
        or "speedup" in key
        or key == "wall_s"
    )


def walk(base, fresh, path=""):
    """Yield ``(path, kind, base_value, fresh_value)`` for every leaf.

    ``kind`` is ``missing``/``extra`` for structural drift, ``bool``,
    ``timing``, ``value`` (deterministic numeric/string) otherwise.
    """
    if isinstance(base, dict) and isinstance(fresh, dict):
        for key in sorted(set(base) | set(fresh)):
            if not path and key in ENV_KEYS:
                continue
            sub = f"{path}.{key}" if path else key
            if key not in fresh:
                yield sub, "missing", base[key], None
            elif key not in base:
                yield sub, "extra", None, fresh[key]
            else:
                yield from walk(base[key], fresh[key], sub)
        return
    if isinstance(base, list) and isinstance(fresh, list):
        if len(base) != len(fresh):
            yield path, "value", base, fresh
            return
        for i, (b, f) in enumerate(zip(base, fresh)):
            yield from walk(b, f, f"{path}[{i}]")
        return
    leaf = path.rsplit(".", 1)[-1].split("[")[0]
    if isinstance(base, bool) or isinstance(fresh, bool):
        yield path, "bool", base, fresh
    elif is_timing_key(leaf):
        yield path, "timing", base, fresh
    else:
        yield path, "value", base, fresh


def rel_delta(base, fresh) -> float:
    """Relative difference against the larger magnitude (0 when equal)."""
    try:
        b, f = float(base), float(fresh)
    except (TypeError, ValueError):
        return 0.0 if base == fresh else float("inf")
    scale = max(abs(b), abs(f))
    return abs(f - b) / scale if scale else 0.0


def compare(base, fresh, *, det_tolerance, tolerance, skip_prefixes=()):
    """Return (failures, warnings) lists of formatted finding strings."""
    failures, warnings = [], []
    for path, kind, b, f in walk(base, fresh):
        if any(
            path == p or path.startswith(p + ".") or path.startswith(p + "[")
            for p in skip_prefixes
        ):
            continue
        if kind in ("missing", "extra"):
            failures.append(f"{path}: {kind} key (baseline={b!r} fresh={f!r})")
        elif kind == "bool":
            if b != f:
                failures.append(f"{path}: bool flipped {b!r} -> {f!r}")
        elif kind == "timing":
            delta = rel_delta(b, f)
            if delta > tolerance:
                warnings.append(
                    f"{path}: timing {b!r} -> {f!r} ({100 * delta:.0f}% off)"
                )
        else:
            delta = rel_delta(b, f)
            if delta > det_tolerance:
                failures.append(
                    f"{path}: deterministic value {b!r} -> {f!r} "
                    f"(rel {delta:.2e} > {det_tolerance:.0e})"
                )
    return failures, warnings


def run_benchmark(module_name: str, out_path: str, extra: list[str]) -> dict:
    """Run one benchmark's ``main`` into ``out_path``; return the report."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    try:
        module = __import__(module_name)
    finally:
        sys.path.pop(0)
    # The benchmarks print their full report; keep the checker's output
    # to the findings.
    with contextlib.redirect_stdout(io.StringIO()):
        status = module.main(["--out", out_path, *extra])
    if status:
        raise RuntimeError(f"{module_name} exited with status {status}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "names",
        nargs="*",
        default=list(BENCHMARKS),
        help=f"benchmarks to check (default: all of {sorted(BENCHMARKS)})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="relative band for timing metrics (default 0.5 = ±50%%)",
    )
    parser.add_argument(
        "--det-tolerance",
        type=float,
        default=1e-6,
        help="relative band for deterministic metrics (default 1e-6)",
    )
    parser.add_argument(
        "--strict-timing",
        action="store_true",
        help="timing violations fail the run instead of warning",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced repeats (problem sizes unchanged, so the "
        "deterministic comparison stays complete)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the committed baselines from the fresh runs",
    )
    args = parser.parse_args(argv)

    status = 0
    for name in args.names:
        try:
            module_name, baseline_name, extra, quick_extra, *rest = (
                BENCHMARKS[name]
            )
        except KeyError:
            print(f"error: unknown benchmark {name!r}", file=sys.stderr)
            return 2
        skip_prefixes = rest[0] if rest else ()
        baseline_path = os.path.join(REPO_ROOT, baseline_name)
        if not os.path.exists(baseline_path):
            print(f"error: no committed baseline {baseline_path}", file=sys.stderr)
            return 2
        with open(baseline_path, encoding="utf-8") as fh:
            baseline = json.load(fh)

        argv_extra = list(extra) + (list(quick_extra) if args.quick else [])
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            fresh = run_benchmark(
                module_name, os.path.join(tmp, baseline_name), argv_extra
            )
        elapsed = time.perf_counter() - t0

        failures, warnings = compare(
            baseline,
            fresh,
            det_tolerance=args.det_tolerance,
            tolerance=args.tolerance,
            skip_prefixes=skip_prefixes,
        )
        if args.strict_timing:
            failures += warnings
            warnings = []

        verdict = "FAIL" if failures else "ok"
        print(
            f"[{verdict}] {name}: {len(failures)} failures, "
            f"{len(warnings)} timing warnings ({elapsed:.1f}s)"
        )
        for line in failures:
            print(f"  FAIL {line}")
        for line in warnings:
            print(f"  warn {line}")
        if failures:
            status = 1
        if args.update:
            with open(baseline_path, "w", encoding="utf-8") as fh:
                json.dump(fresh, fh, indent=2)
                fh.write("\n")
            print(f"  updated {baseline_path}")
    return status


if __name__ == "__main__":
    sys.exit(main())

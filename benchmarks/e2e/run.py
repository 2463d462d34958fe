"""End-to-end benchmark of the simulated-GPU Gravit stack.

Four workloads (see README.md), each measured from cold processes: the
harness starts one child process at a time (``child.py``), pools their
per-op host times, and checks their outputs.  Host times are scaled to
a reference host speed that each child samples between its timed
sections.  End-to-end metrics come from untraced children;
``--trace 1`` runs one untraced and one traced child and reports the
per-layer metrics instead.

One workload, as the benchmark driver runs it (the last stdout line is
the JSON result)::

    python3 benchmarks/e2e/run.py --workload resident-1024 --seed 0 --seconds 25 --trace 0

Every workload, untraced then traced, with both tables printed::

    python3 benchmarks/e2e/run.py --seed 0 [--out DIR] [--smoke]

Exits 1 when any operation fails or any output check fails, and 2
(printing no result) when the source tree is not next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import child  # noqa: E402  (numpy only; the simulator loads in children)

#: The declaration of workloads and metrics (name -> (unit, better)).
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
E2E = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
LAYER_METRICS = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}

#: Cold processes per measured run, at least (set-up time is their median).
MIN_CHILDREN = 2
#: Host seconds one child may take before it is killed and counted failed.
CHILD_TIMEOUT_S = 120.0


def child_env() -> dict:
    """The simulator's defaults: no REPRO_* overrides, no kernel disk
    cache, single-threaded BLAS; the checkout's sources first.  One
    malloc arena: with one per thread, the service's peak RSS jumps by
    ~20 MB depending on which threads happened to get their own."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    env["MALLOC_ARENA_MAX"] = "1"
    return env


def run_child(workload: str, seed: int, trace: bool, smoke: bool,
              spans: Path | None = None) -> dict | None:
    """One cold child process; None when it crashed or timed out."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: child timed out after {CHILD_TIMEOUT_S:.0f} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: child exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    if proc.stderr.strip():
        print(proc.stderr.rstrip(), file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Outcome:
    """Attempted/failed operations and the checks of one measured run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, object] = {}
        self.notes: list[str] = []

    def fail(self, note: str, ops: int = 1) -> None:
        self.failed += ops
        self.notes.append(note)

    def add_children(self, workload: str, smoke: bool, results: list) -> list:
        ok = []
        for r in results:
            if r is None:
                ops = child.planned_ops(workload, smoke)
                self.attempted += ops
                self.fail("a child process failed", ops)
            else:
                self.attempted += r["attempted"]
                self.failed += r["failed"]
                if r["failed"]:
                    self.notes.append(
                        f"{r['failed']} operations failed or were wrong"
                    )
                ok.append(r)
        return ok

    def check_outputs(self, results: list) -> None:
        """Same seed, same bits: digests and cycles must agree across the
        children (each child already checked its own outputs)."""
        if not results:
            return
        for key in ("digest", "sim_cycles"):
            first = results[0][key]
            bad = sum(r[key] != first for r in results[1:])
            self.checks[f"{key}_identical"] = bad == 0
            if bad:
                self.fail(f"{key} differs across processes", bad)
        self.checks["digest"] = results[0]["digest"]
        for name in results[0]["checks"]:
            self.checks[name] = max(r["checks"][name] for r in results)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": self.correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name][0]}
                for name in units
            },
        }


def measure(workload: str, seed: int, seconds: float, smoke: bool):
    """Untraced cold children until ``seconds`` are used up; e2e metrics."""
    out = Outcome()
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(run_child(workload, seed, False, smoke))
        if smoke or results[-1] is None:
            break
        # Start another child only if it should end within the budget.
        elapsed = time.perf_counter() - t0
        if len(results) >= MIN_CHILDREN and (
            elapsed * (1 + 1 / len(results)) > seconds
        ):
            break
    ok = out.add_children(workload, smoke, results)
    out.check_outputs(ok)
    if not ok:
        return out, None
    ops = [x for r in ok for x in r["op_s"]]
    speed = statistics.median(r["speed"] for r in ok)
    metrics = {
        "op_s": statistics.median(ops),
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "sim_cycles_per_op": statistics.median(
            r["sim_cycles_per_op"] for r in ok
        ),
    }
    out.notes.insert(0, f"{len(ok)} processes, {len(ops)} timed ops, "
                        f"host at {speed:.2f}x reference speed")
    return out, metrics


def trace_run(workload: str, seed: int, smoke: bool, spans: Path | None):
    """One untraced and one traced child; per-layer metrics."""
    out = Outcome()
    plain = run_child(workload, seed, False, smoke)
    traced = run_child(workload, seed, True, smoke, spans)
    ok = out.add_children(workload, smoke, [plain, traced])
    out.check_outputs(ok)
    if plain is None or traced is None:
        return out, None
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = (
        statistics.median(traced["op_s"]) / statistics.median(plain["op_s"])
        - 1.0
    )
    return out, metrics


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload: str, out: Outcome, metrics: dict | None,
           units: dict) -> None:
    print(f"== {workload}: " + "; ".join(out.notes or ["ok"]))
    if metrics is not None:
        for name, (unit, better) in units.items():
            print(f"  {name:30s} {fmt(metrics[name]):>14s} {unit:8s}"
                  f" ({better} is better)")
    for name, value in out.checks.items():
        print(f"  check {name:24s} {fmt(value)}")
    frac = out.failed / max(out.attempted, 1)
    print(f"  fail_frac {frac:.4g} ({out.failed}/{out.attempted})")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, out_dir: Path | None):
    units = LAYER_METRICS if trace else E2E
    if trace:
        spans = None
        if out_dir is not None:
            spans = out_dir / f"spans-{workload}-seed{seed}.jsonl"
        outcome, metrics = trace_run(workload, seed, smoke, spans)
    else:
        outcome, metrics = measure(workload, seed, seconds, smoke)
    report(workload, outcome, metrics, units)
    if metrics is None:
        outcome.fail("no measurement")
        return outcome, None
    result = outcome.result(metrics, units)
    if out_dir is not None:
        with open(out_dir / "results.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "workload": workload, "seed": seed, "trace": int(trace),
                "smoke": smoke, "checks": outcome.checks, "result": result,
            }) + "\n")
    return outcome, result


def print_table(title: str, results: dict, units: dict) -> None:
    names = list(results)
    print(f"\n{title}")
    print(f"{'metric':30s} {'unit':7s}" + "".join(f"{w:>16s}" for w in names))
    for metric, (unit, _) in units.items():
        cells = "".join(
            f"{fmt(results[w]['metrics'][metric]['value']):>16s}"
            if results[w] else f"{'-':>16s}"
            for w in names
        )
        print(f"{metric:30s} {unit:7s}{cells}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, untraced + traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="host seconds one untraced run measures for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken workloads, one process each")
    parser.add_argument("--out", type=Path,
                        help="append results.jsonl and write spans here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    if args.workload is not None:
        outcome, result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke, args.out,
        )
        if result is None:
            return 1
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    attempted = failed = 0
    tables: dict[bool, dict] = {False: {}, True: {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            outcome, result = run_workload(
                workload, args.seed, args.seconds, trace, args.smoke,
                args.out,
            )
            attempted += outcome.attempted
            failed += outcome.failed
            tables[trace][workload] = result
    print_table("End-to-end metrics (untraced)", tables[False], E2E)
    print_table("Per-layer metrics (traced; per op unless setup.*)",
                tables[True], LAYER_METRICS)
    print(f"\nfail_frac {failed / max(attempted, 1):.4g} "
          f"({failed}/{attempted})")
    metrics = {
        f"{w}/{name}": m
        for trace in (False, True)
        for w, res in tables[trace].items() if res
        for name, m in res["metrics"].items()
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of end-to-end benchmark runs, metric by metric.

Each set is a ``results.jsonl`` written by ``run.py --out DIR``: one
record per (workload, seed, traced or not).  For every (metric,
workload) pair of the untraced records this prints, on its own row,
each set's median and quartiles (``statistics.quantiles(values, n=4)``)
and their spread (interquartile distance over the median), then the
verdict against the metric's bound in ``BENCHMARK.json``:

* ``better`` / ``worse`` — the medians differ by more than the bound;
* ``within bound`` — they do not;
* ``unresolved`` — the base set's own spread exceeds the bound, and the
  new set does not beat every base run.

Records of the same (workload, seed) in both sets must also carry the
same output digest and check values (the simulator is deterministic).
Given one set only, the rows show its spread against the bound.

    python3 benchmarks/e2e/compare.py BASE/results.jsonl NEW/results.jsonl

Exits 1 if any pair is worse or unresolved, any spread exceeds its
bound (``setup_s`` aside), or a deterministic value differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": spread}


def group(records: list[dict]) -> dict:
    """(metric, workload) -> values over the untraced records."""
    out: dict = defaultdict(list)
    for rec in records:
        if rec["trace"]:
            continue
        for name, m in rec["result"]["metrics"].items():
            out[(name, rec["workload"])].append(m["value"])
    return out


def verdict(base: list[float], new: list[float], better: str,
            bound: float, base_spread: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b, n = statistics.median(base), statistics.median(new)
    worse_by = sign * (n - b) / abs(b) if b else 0.0
    beats_all = (
        max(new) < min(base) if better == "lower" else min(new) > max(base)
    )
    if base_spread > bound and not beats_all:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within bound"


def deterministic_mismatches(base: list[dict], new: list[dict]) -> list[str]:
    """Same (workload, seed, trace) must give the same digest, checks and
    simulated cycles in both sets."""
    def key(rec):
        return rec["workload"], rec["seed"], rec["trace"]

    def values(rec):
        checks = dict(rec.get("checks", {}))
        metrics = rec["result"]["metrics"]
        if "sim_cycles_per_op" in metrics:
            checks["sim_cycles_per_op"] = metrics["sim_cycles_per_op"]["value"]
        return checks

    seen = {key(r): values(r) for r in base}
    out = []
    for rec in new:
        old = seen.get(key(rec))
        if old is None:
            continue
        cur = values(rec)
        for name in sorted(set(old) | set(cur)):
            if old.get(name) != cur.get(name):
                out.append(f"{key(rec)} {name}: {old.get(name)!r} != "
                           f"{cur.get(name)!r}")
    return out


def fmt(x: float) -> str:
    return f"{x:.5g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base_records = load(args.base)
    base = group(base_records)
    new_records = load(args.new) if args.new else None
    new = group(new_records) if new_records is not None else None

    failures = 0
    head = f"{'metric':20s} {'workload':16s} {'bound':>6s}"
    head += "  base: median [q1, q3] spread"
    if new is not None:
        head += "  | new: median [q1, q3] spread | change  verdict"
    print(head)
    for name, m in metrics.items():
        for (metric, workload), values in sorted(base.items()):
            if metric != name:
                continue
            bound = m["bound"]
            s = summarize(values)
            row = (f"{name:20s} {workload:16s} {bound:6.3f}  "
                   f"{fmt(s['median'])} [{fmt(s['q1'])}, {fmt(s['q3'])}] "
                   f"{s['spread']:.3f}")
            spreads = [s["spread"]]
            if new is not None:
                nv = new.get((metric, workload))
                if not nv:
                    print(row + "  | missing in new set")
                    failures += 1
                    continue
                t = summarize(nv)
                spreads.append(t["spread"])
                change = t["median"] / s["median"] - 1 if s["median"] else 0.0
                v = verdict(values, nv, m["better"], bound, s["spread"])
                failures += v in ("worse", "unresolved")
                row += (f"  | {fmt(t['median'])} [{fmt(t['q1'])}, "
                        f"{fmt(t['q3'])}] {t['spread']:.3f} | "
                        f"{change:+.3%}  {v}")
            if name != "setup_s" and max(spreads) > bound:
                failures += 1
                row += "  SPREAD>BOUND"
            print(row)
    if new_records is not None:
        for line in deterministic_mismatches(base_records, new_records):
            print("deterministic value differs:", line)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

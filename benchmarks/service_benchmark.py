"""Simulation-service benchmark: throughput/latency vs tenant count.

Drives :class:`repro.service.SimulationService` with a shuffled
multi-layout job mix at 1, 4 and 16 tenants, and records:

* ``bit_identical`` — service-run results word-for-word equal to direct
  :meth:`repro.gravit.Simulation.create` runs across every layout and
  fastpath on/off;
* ``live`` — jobs/s, p50/p99 submit-to-result latency and the warm hit
  rate from the real threaded service.  These are host wall-clock
  numbers: the regression checker skips the whole subtree
  (``service.live``) and only the bit-identity section gates.

Writes ``BENCH_service.json`` at the repository root::

    python benchmarks/service_benchmark.py [--out BENCH_service.json]

``--quick`` shrinks only the live workload; the bit-identity section
always runs at baseline size so the deterministic comparison stays
complete.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import replace

LAYOUT_KINDS = ("aos", "soa", "aoas", "soaoas")
TENANT_COUNTS = (1, 4, 16)
SEED = 0x5E41


def _hardware(block_size: int = 32):
    from repro.cudasim import G8800GTX
    from repro.gravit import SimulationConfig

    props = replace(
        G8800GTX, num_sms=2, max_blocks_per_sm=1, name="bench-svc"
    )
    return SimulationConfig(device_props=props, block_size=block_size)


def _job_mix(hardware, tenants: int, jobs: int, seed: int):
    """``jobs`` (tenant, config) pairs, seeded-shuffled.

    Each tenant runs its own configuration (layout x block size), so
    kernel diversity grows with the tenant count.
    """
    tenant_cfgs = [
        hardware.replace(
            layout=LAYOUT_KINDS[i % len(LAYOUT_KINDS)],
            block_size=32 if (i // len(LAYOUT_KINDS)) % 2 == 0 else 64,
        )
        for i in range(tenants)
    ]
    mix = [(f"t{i % tenants}", tenant_cfgs[i % tenants]) for i in range(jobs)]
    random.Random(seed).shuffle(mix)
    return mix


def bench_bit_identity(n: int = 96, steps: int = 1, devices: int = 2) -> dict:
    """Service results vs direct driver runs, per layout x fastpath."""
    import numpy as np

    from repro.gravit import Simulation
    from repro.gravit.spawn import uniform_sphere
    from repro.service import SimulationService

    system = uniform_sphere(n, seed=SEED)
    out: dict = {"n": n, "steps": steps, "cases": {}}
    identical_all = True
    for fastpath in (True, False):
        hardware = _hardware().replace(fastpath=fastpath)
        svc = SimulationService(devices=devices, hardware=hardware)
        for kind in LAYOUT_KINDS:
            cfg = hardware.replace(layout=kind)
            res = svc.submit("check", system, cfg, steps=steps).result(
                timeout=600.0
            )
            direct = Simulation.create(cfg, system.copy())
            direct.run(steps, 0.01)
            dstate = direct.download()
            same = bool(
                np.array_equal(res.forces, direct.download_forces())
                and all(
                    np.array_equal(getattr(res.state, f), getattr(dstate, f))
                    for f in ("px", "py", "pz", "vx", "vy", "vz", "mass")
                )
            )
            direct.close()
            out["cases"][f"{kind}+fp{int(fastpath)}"] = same
            identical_all = identical_all and same
        svc.close()
    out["bit_identical"] = identical_all
    return out


def bench_live(
    n: int = 96,
    devices: int = 2,
    jobs_per_tenant: int = 4,
    steps: int = 1,
) -> dict:
    """Threaded service under load: jobs/s and latency percentiles."""
    import numpy as np

    from repro.gravit.spawn import uniform_sphere
    from repro.service import SimulationService

    system = uniform_sphere(n, seed=SEED)
    out: dict = {
        "n": n,
        "devices": devices,
        "jobs_per_tenant": jobs_per_tenant,
        "steps": steps,
        "per_tenant_count": {},
    }
    for tenants in TENANT_COUNTS:
        total = tenants * jobs_per_tenant
        hardware = _hardware()
        mix = _job_mix(hardware, tenants, total, SEED + tenants)
        svc = SimulationService(
            devices=devices,
            hardware=hardware,
            max_queue_depth=total + devices,
        )
        t0 = time.perf_counter()
        handles = [
            svc.submit(tenant, system, cfg, steps=steps) for tenant, cfg in mix
        ]
        for h in handles:
            h.result(timeout=600.0)
        wall_s = time.perf_counter() - t0
        stats = svc.stats()
        svc.close()
        latencies = sorted(h.finished_s - h.submitted_s for h in handles)
        out["per_tenant_count"][str(tenants)] = {
            "jobs": total,
            "wall_s": wall_s,
            "jobs_per_s": total / wall_s if wall_s else 0.0,
            "p50_latency_s": float(np.percentile(latencies, 50)),
            "p99_latency_s": float(np.percentile(latencies, 99)),
            "warm_hit_rate": stats["warm_hit_rate"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument("--n", type=int, default=96)
    parser.add_argument("--devices", type=int, default=2)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink the live workload only (the bit-identity section "
        "always runs at baseline size)",
    )
    args = parser.parse_args(argv)

    report = {
        "benchmark": "multi-tenant simulation service over a device group",
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "bit_identity": bench_bit_identity(n=args.n, devices=args.devices),
        "live": bench_live(
            n=args.n,
            devices=args.devices,
            jobs_per_tenant=1 if args.quick else 4,
        ),
    }
    report["bit_identical"] = report["bit_identity"]["bit_identical"]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

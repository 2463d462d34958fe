#!/usr/bin/env python3
"""The simulation service end to end: tenants, fairness, backpressure.

The paper's workflow is one researcher driving one GPU.  This example
runs the opposite regime — three tenants sharing a two-device group
through :class:`repro.service.SimulationService`:

* ``astro`` (weight 3) and ``course`` (weight 1) submit a burst of
  jobs; the stride scheduler gives ``astro`` ~3x the dispatch share;
* ``greedy`` has a 2-job quota and hits ``TenantQuotaError`` on its
  third submission, while the bounded global queue answers overload
  with ``QueueFullError`` + a retry-after hint;
* each job goes to the least-loaded device; every device shares one
  kernel cache, so a tenant's repeat jobs count as warm wherever they
  land;
* the same service is driven once more from asyncio
  (``submit_async`` / ``await handle.wait()``).

One job is also re-run directly through ``Simulation.create`` to show
the service result is bit-identical — the service only routes.

    python examples/service_demo.py [--n 96] [--jobs 6]
"""

import argparse
import asyncio

import numpy as np

from repro.gravit import Simulation, SimulationConfig, uniform_sphere
from repro.service import (
    QueueFullError,
    SimulationService,
    TenantQuotaError,
)

TENANTS = {"astro": ("soaoas", 3.0), "course": ("aos", 1.0)}


async def async_round(svc: SimulationService, system, cfg) -> None:
    """The same service, driven from an event loop."""
    handles = [
        await svc.submit_async("astro", system, cfg, steps=1)
        for _ in range(3)
    ]
    results = await asyncio.gather(*(h.wait() for h in handles))
    print(
        "asyncio round:",
        [f"{r.job_id}@{r.device}" for r in results],
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=96)
    parser.add_argument("--jobs", type=int, default=6, help="jobs per tenant")
    parser.add_argument("--steps", type=int, default=2)
    args = parser.parse_args()

    system = uniform_sphere(args.n, seed=7)
    hardware = SimulationConfig(block_size=32)

    with SimulationService(
        devices=2,
        hardware=hardware,
        max_queue_depth=2 * args.jobs * len(TENANTS),
    ) as svc:
        configs = {}
        for name, (layout, weight) in TENANTS.items():
            svc.register_tenant(name, weight=weight)
            configs[name] = hardware.replace(layout=layout)

        # A burst from both tenants; the stride scheduler interleaves
        # dispatches ~3:1 in astro's favour while jobs queue.
        handles = [
            svc.submit(name, system, configs[name], steps=args.steps)
            for _ in range(args.jobs)
            for name in TENANTS
        ]
        results = [h.result(timeout=600.0) for h in handles]
        per_device: dict[str, int] = {}
        for res in results:
            per_device[res.device] = per_device.get(res.device, 0) + 1
        stats = svc.stats()
        print(
            f"{len(results)} jobs done: per-device {per_device}, "
            f"warm hit rate {stats['warm_hit_rate']:.2f}, "
            f"per-tenant dispatches "
            f"{ {t: s['dispatched'] for t, s in stats['tenants'].items()} }"
        )

        # Backpressure: a quota-limited tenant overruns its allowance.
        svc.register_tenant("greedy", max_pending=2)
        kept = [
            svc.submit("greedy", system, configs["astro"], steps=args.steps)
            for _ in range(2)
        ]
        try:
            svc.submit("greedy", system, configs["astro"])
        except TenantQuotaError as exc:
            print(f"greedy pushed back: {exc.as_dict()}")
        except QueueFullError as exc:  # tiny machines may fill the queue first
            print(f"queue full: retry in {exc.retry_after_s:.3f}s")
        for h in kept:
            h.result(timeout=600.0)

        # Bit-identity: replay one job directly through the driver.
        res = svc.submit(
            "astro", system, configs["astro"], steps=args.steps
        ).result(timeout=600.0)
        with Simulation.create(configs["astro"], system.copy()) as direct:
            direct.run(args.steps, 0.01)
            same = np.array_equal(res.forces, direct.download_forces())
        print(f"service result bit-identical to direct run: {same}")

        asyncio.run(async_round(svc, system, configs["astro"]))


if __name__ == "__main__":
    main()

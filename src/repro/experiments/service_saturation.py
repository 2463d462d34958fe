"""SERVICE — multi-tenant job service saturation over a device group.

The paper's Gravit port is a single-user loop: one process owns one GPU
and one kernel configuration.  The service layer asks the time-sharing
question the era's clusters answered with batch queues: if *many*
tenants submit simulation jobs with different memory-layout/compile
configurations onto one multi-GPU host, what does the scheduling layer
cost, and what does it buy?

This experiment drives :class:`repro.service.SimulationService` through
a mixed-tenant workload and reports:

1. **Correctness** — every service-run job is bit-identical (state and
   raw force words) to driving :meth:`repro.gravit.Simulation.create`
   directly with the same config.  The service only *routes*; it never
   touches the math.
2. **Live throughput** — jobs/s, p50/p99 submit-to-result latency, and
   the warm hit rate: the share of jobs whose
   :attr:`~repro.gravit.SimulationConfig.kernel_key` an earlier job
   already ran, so their compile hits the group's shared kernel cache.
3. **Weighted fairness** — under saturation, a weight-3 tenant should
   see ~3x the dispatches of a weight-1 tenant (stride scheduling).
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

import numpy as np

from ..cudasim.device import G8800GTX
from ..gravit.simulation_api import Simulation, SimulationConfig
from ..gravit.spawn import uniform_sphere
from ..service import JobHandle, JobScheduler, JobSpec, SimulationService
from ..telemetry import runtime as _telemetry
from .report import ExperimentResult, format_table

__all__ = ["run", "LAYOUT_KINDS", "SERVICE_SMS"]

LAYOUT_KINDS = ("aos", "soa", "aoas", "soaoas")

#: SMs per simulated device — reduced like the multigpu experiment so a
#: job is cheap enough to run dozens of them through the queue.
SERVICE_SMS = 2


def _fields_equal(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("px", "py", "pz", "vx", "vy", "vz", "mass")
    )


def _job_configs(
    hardware: SimulationConfig, count: int, seed: int
) -> list[SimulationConfig]:
    """``count`` job configs cycling the layouts, then seeded-shuffled
    (a shuffled arrival order is what real multi-tenant traffic looks
    like)."""
    configs = [
        hardware.replace(layout=LAYOUT_KINDS[i % len(LAYOUT_KINDS)])
        for i in range(count)
    ]
    random.Random(seed).shuffle(configs)
    return configs


def _fairness_replay(
    weights: dict[str, float],
    jobs_per_tenant: int,
    system,
    hardware: SimulationConfig,
) -> dict:
    """Deterministic stride-scheduling order: who dispatches first?

    All tenants' jobs are queued up front, then drained through one
    uncontended :class:`JobScheduler` with no completions, so the
    resulting dispatch order is the pure fairness policy.  The ratio is
    heavy-vs-light dispatches within the first half of the order — once
    everything drains every tenant trivially reaches 100%, so fairness
    only shows in *when* each tenant's jobs go.
    """
    total = jobs_per_tenant * len(weights)
    sched = JobScheduler(
        1, max_queue_depth=total, max_inflight_per_device=total
    )
    for name, weight in weights.items():
        sched.tenant(name, weight=weight)
    for _ in range(jobs_per_tenant):
        for name in weights:
            sched.admit(
                JobHandle(
                    JobSpec(tenant=name, system=system, config=hardware),
                    None,
                )
            )
    order = []
    while (item := sched.next_dispatch()) is not None:
        order.append(item[0].tenant)
    window = order[: max(1, total // 2)]
    counts = {name: window.count(name) for name in weights}
    names = list(weights)
    heavy, light = names[0], names[-1]
    return {
        "order": order,
        "window_counts": counts,
        "heavy_light_ratio": counts[heavy] / max(1, counts[light]),
    }


def run(
    n: int = 128,
    devices: int = 2,
    tenants: int = 4,
    jobs_per_tenant: int = 6,
    block_size: int = 32,
    steps: int = 1,
    dt: float = 0.01,
    seed: int = 0x5E41,
) -> ExperimentResult:
    props = replace(
        G8800GTX,
        num_sms=SERVICE_SMS,
        max_blocks_per_sm=1,
        name=f"svc-sim ({SERVICE_SMS} SMs, 1 block/SM)",
    )
    hardware = SimulationConfig(device_props=props, block_size=block_size)
    system = uniform_sphere(n, seed=seed)
    tenant_names = [f"tenant{i}" for i in range(tenants)]
    # First tenant is the heavyweight: 3x the fair share of the rest.
    weights = {t: (3.0 if i == 0 else 1.0) for i, t in enumerate(tenant_names)}
    total_jobs = tenants * jobs_per_tenant
    job_cfgs = _job_configs(hardware, total_jobs, seed)

    with _telemetry.span("service.saturation", jobs=total_jobs):
        svc = SimulationService(
            devices=devices,
            hardware=hardware,
            max_queue_depth=total_jobs + devices,
        )
        for t in tenant_names:
            svc.register_tenant(t, weight=weights[t])
        t0 = time.perf_counter()
        handles = [
            svc.submit(
                tenant_names[i % tenants], system, cfg, steps=steps, dt=dt
            )
            for i, cfg in enumerate(job_cfgs)
        ]
        results = [h.result(timeout=600.0) for h in handles]
        wall_s = time.perf_counter() - t0
        stats = svc.stats()
        svc.close()
    latencies = sorted(h.finished_s - h.submitted_s for h in handles)
    live = {
        "jobs": len(results),
        "wall_s": wall_s,
        "jobs_per_s": len(results) / wall_s if wall_s else 0.0,
        "p50_latency_s": float(np.percentile(latencies, 50)),
        "p99_latency_s": float(np.percentile(latencies, 99)),
        "warm_hit_rate": stats["warm_hit_rate"],
        "dispatches_per_tenant": {
            t: stats["tenants"][t]["dispatched"] for t in tenant_names
        },
    }

    # Bit-identity: one service job per layout vs the direct driver.
    svc = SimulationService(devices=devices, hardware=hardware)
    identical = True
    for kind in LAYOUT_KINDS:
        cfg = hardware.replace(layout=kind)
        res = svc.submit("checker", system, cfg, steps=steps, dt=dt).result(
            timeout=600.0
        )
        direct = Simulation.create(cfg, system.copy())
        direct.run(steps, dt)
        identical = (
            identical
            and _fields_equal(res.state, direct.download())
            and np.array_equal(res.forces, direct.download_forces())
        )
        direct.close()
    svc.close()

    fairness = (
        _fairness_replay(weights, jobs_per_tenant, system, hardware)
        if tenants > 1
        else {"order": [], "window_counts": {}, "heavy_light_ratio": 1.0}
    )
    fairness_ratio = fairness["heavy_light_ratio"]

    columns = {
        "jobs": "jobs",
        "jobs/s": "jobs_per_s",
        "p50 (s)": "p50_latency_s",
        "p99 (s)": "p99_latency_s",
        "warm hit": "warm_hit_rate",
    }
    row = [live[key] for key in columns.values()]
    table = format_table(list(columns), [row], float_fmt="{:.3f}")

    return ExperimentResult(
        experiment_id="service",
        title="Multi-tenant job service saturation over a device group",
        data={
            "n": n,
            "devices": devices,
            "tenants": tenants,
            "jobs_per_tenant": jobs_per_tenant,
            "steps": steps,
            "block_size": block_size,
            "weights": weights,
            "live": live,
            "bit_identical": identical,
            "fairness_ratio": fairness_ratio,
            "fairness_window_counts": fairness["window_counts"],
        },
        table=table,
        paper_claims={
            "service == direct": (
                "service-run jobs bit-identical to direct Simulation.create "
                "runs for every layout (the service only routes)"
            ),
            "weighted fairness": (
                "a weight-3 tenant gets ~3x a weight-1 tenant's dispatches "
                "under saturation (stride scheduling)"
            ),
        },
        measured_claims={
            "service == direct": (
                "bit-identical" if identical else "MISMATCH"
            ),
            "weighted fairness": (
                f"heavy/light ratio {fairness_ratio:.1f}x in the first "
                "half of the dispatch order"
                if tenants > 1
                else "n/a (single tenant)"
            ),
        },
        notes=[
            "Extends the paper: simulation-as-a-service scheduling "
            "(admission, stride-scheduled tenant fairness, least-loaded "
            "placement) over the simulated device group; live latency "
            "numbers are host wall-clock and machine-dependent.",
        ],
    )

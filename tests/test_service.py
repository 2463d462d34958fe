"""The service layer: unified API, scheduler policies, live service.

Covers the four contracts the job service makes:

* **One entry point** — :class:`SimulationConfig` + ``Simulation.create``
  subsume the three driver constructors, which take their knobs only
  as a config object.
* **Machine-readable refusals** — the :class:`ServiceError` family
  carries tenant/queue-depth/retry-after fields; the device-side
  ``LaunchError`` family is re-exported from the same package.
* **Scheduling policy** — stride-scheduled weighted fairness,
  priority/deadline ordering within a tenant, bounded-queue
  backpressure, least-loaded placement with a service-wide warm count.
* **Service == direct** — a job run through the service is bit-identical
  to driving the simulation yourself, for every layout, fastpath
  setting, and SM engine.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace

import numpy as np
import pytest

import repro.service as service_pkg
from repro.cudasim import G8800GTX
from repro.gravit import (
    GpuConfig,
    GpuSimulation,
    PooledSimulation,
    ShardedGpuSimulation,
    Simulation,
    SimulationConfig,
    plummer,
)
from repro.service import (
    JobCancelledError,
    JobHandle,
    JobScheduler,
    JobSpec,
    JobState,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
    SimulationService,
    TenantQuotaError,
)

N = 64
#: Reduced device so a job is milliseconds, not seconds.
PROPS = replace(G8800GTX, num_sms=2, max_blocks_per_sm=1, name="test-svc")
HW = SimulationConfig(device_props=PROPS, block_size=32)
FIELDS = ("px", "py", "pz", "vx", "vy", "vz", "mass")


@pytest.fixture(scope="module")
def system():
    return plummer(N, seed=11)


def make_spec(system, tenant="t0", **kw):
    kw.setdefault("config", HW)
    return JobSpec(tenant=tenant, system=system, **kw)


def drain_dispatch(sched):
    """Pump next_dispatch until dry; returns dispatched handles in order."""
    order = []
    while (item := sched.next_dispatch()) is not None:
        order.append(item[0])
    return order


# ---------------------------------------------------------------------------
# errors


class TestErrorHierarchy:
    def test_service_errors_derive_from_base(self):
        for cls in (
            QueueFullError,
            TenantQuotaError,
            JobCancelledError,
            ServiceClosedError,
        ):
            assert issubclass(cls, ServiceError)

    def test_machine_readable_fields(self):
        err = QueueFullError(
            "full",
            tenant="alice",
            job_id="job9",
            queue_depth=64,
            capacity=64,
            retry_after_s=1.5,
        )
        d = err.as_dict()
        assert d == {
            "error": "QueueFullError",
            "message": "full",
            "tenant": "alice",
            "job_id": "job9",
            "queue_depth": 64,
            "retry_after_s": 1.5,
            "capacity": 64,
        }

    def test_none_fields_dropped_from_dict(self):
        assert "tenant" not in ServiceError("x").as_dict()

    def test_quota_error_carries_quota(self):
        assert TenantQuotaError("q", quota=3).as_dict()["quota"] == 3

    def test_launch_family_reexported(self):
        from repro.cudasim.errors import LaunchError, OutOfMemoryError

        assert service_pkg.LaunchError is LaunchError
        assert service_pkg.OutOfMemoryError is OutOfMemoryError
        for name in ("CudaSimError", "StreamError", "ExecutionError"):
            assert name in service_pkg.__all__


# ---------------------------------------------------------------------------
# SimulationConfig + Simulation.create


class TestSimulationConfig:
    def test_frozen_and_hashable(self):
        cfg = SimulationConfig()
        with pytest.raises(AttributeError):
            cfg.layout = "aos"
        assert hash(cfg) == hash(SimulationConfig())

    def test_validation(self):
        with pytest.raises(ValueError, match="devices"):
            SimulationConfig(devices=0)
        with pytest.raises(ValueError, match="engine"):
            SimulationConfig(engine="quantum")
        with pytest.raises(ValueError, match="single-device"):
            SimulationConfig(devices=2, pool_records_per_block=16)

    def test_kernel_key_tracks_kernel_shaping_fields_only(self):
        base = SimulationConfig()
        assert base.kernel_key == SimulationConfig().kernel_key
        assert base.kernel_key != base.replace(layout="aos").kernel_key
        assert base.kernel_key != base.replace(block_size=64).kernel_key
        # Engine/fastpath/topology never change what gets compiled.
        assert base.kernel_key == base.replace(engine="process").kernel_key
        assert base.kernel_key == base.replace(fastpath=False).kernel_key
        assert base.kernel_key == base.replace(devices=4).kernel_key

    def test_unroll_normalized_for_equality(self):
        from repro.cudasim.kernel_cache import Unroll

        assert SimulationConfig(unroll=4) == SimulationConfig(
            unroll=Unroll.coerce(4)
        )

    def test_as_dict_is_json_safe(self):
        import json

        blob = json.dumps(HW.as_dict())
        assert "test-svc" in blob

    def test_create_dispatches_single_device(self, system):
        sim = Simulation.create(HW, system.copy())
        assert isinstance(sim, GpuSimulation)
        sim.close()

    def test_create_dispatches_sharded(self, system):
        sim = Simulation.create(HW.replace(devices=2), system.copy())
        assert isinstance(sim, ShardedGpuSimulation)
        sim.close()

    def test_create_dispatches_pooled(self, system):
        sim = Simulation.create(
            HW.replace(pool_records_per_block=16), system.copy()
        )
        assert isinstance(sim, PooledSimulation)
        sim.close()

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"use_graph": True},
            {"devices": 2},
            {"out_of_core": True, "tile_rows": 32},
            {"pool_records_per_block": 16},
            {"out_of_core": True, "tile_rows": 256},
        ],
        ids=(
            "plain", "graph", "sharded", "out-of-core", "pooled",
            "out-of-core-degenerate",
        ),
    )
    def test_second_close_is_a_no_op(self, system, overrides):
        """Every driver the front door builds tolerates a second close:
        leaving a ``with`` block after an explicit ``close()`` must not
        free its buffers twice."""
        with Simulation.create(HW.replace(**overrides), system.copy()) as sim:
            sim.step(0.01)
            sim.close()
        sim.close()

    def test_create_with_overrides_kwargs(self, system):
        sim = Simulation.create(
            system=system.copy(), layout="soa", device_props=PROPS,
            block_size=32,
        )
        assert isinstance(sim, GpuSimulation)
        assert sim.config.layout_kind == "soa"
        sim.close()

    def test_create_rejects_config_plus_overrides(self, system):
        with pytest.raises(ValueError, match="either"):
            Simulation.create(HW, system, layout="soa")

    def test_create_requires_system(self):
        with pytest.raises(ValueError, match="ParticleSystem"):
            Simulation.create(HW)


class TestDeprecationShims:
    def test_config_path_never_warns(self, system):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            GpuSimulation(system.copy(), GpuConfig(block_size=32)).close()
            Simulation.create(HW, system.copy()).close()

    def test_config_plus_kwargs_still_rejected(self, system):
        with pytest.raises(TypeError, match="layout_kind"):
            GpuSimulation(system.copy(), GpuConfig(), layout_kind="soa")


# ---------------------------------------------------------------------------
# scheduler (pure state machine)


class TestSchedulerAdmission:
    def test_queue_full_error_fields(self, system):
        sched = JobScheduler(2, max_queue_depth=2)
        for _ in range(2):
            sched.admit(JobHandle(make_spec(system), None))
        with pytest.raises(QueueFullError) as exc:
            sched.admit(JobHandle(make_spec(system), None))
        err = exc.value
        assert err.queue_depth == 2
        assert err.capacity == 2
        assert err.tenant == "t0"
        assert err.retry_after_s > 0

    def test_tenant_quota_error(self, system):
        sched = JobScheduler(2, max_queue_depth=64)
        sched.tenant("small", max_pending=1)
        sched.admit(JobHandle(make_spec(system, "small"), None))
        with pytest.raises(TenantQuotaError) as exc:
            sched.admit(JobHandle(make_spec(system, "small"), None))
        assert exc.value.quota == 1
        # Other tenants are unaffected by one tenant's quota.
        sched.admit(JobHandle(make_spec(system, "big"), None))

    def test_quota_counts_inflight(self, system):
        sched = JobScheduler(2, max_queue_depth=64)
        sched.tenant("small", max_pending=1)
        sched.admit(JobHandle(make_spec(system, "small"), None))
        assert len(drain_dispatch(sched)) == 1  # now inflight, not queued
        with pytest.raises(TenantQuotaError):
            sched.admit(JobHandle(make_spec(system, "small"), None))

    def test_cancel_frees_queue_slot(self, system):
        sched = JobScheduler(1, max_queue_depth=1)
        h = JobHandle(make_spec(system), None)
        sched.admit(h)
        assert sched.remove(h)
        assert not sched.remove(h)  # idempotent
        sched.admit(JobHandle(make_spec(system), None))  # slot reusable
        # The cancelled corpse is pruned, not dispatched.
        order = drain_dispatch(sched)
        assert h not in order
        assert len(order) == 1


class TestSchedulerFairness:
    def test_weighted_stride_ratio(self, system):
        sched = JobScheduler(
            1, max_queue_depth=64, max_inflight_per_device=64
        )
        sched.tenant("heavy", weight=3.0)
        sched.tenant("light", weight=1.0)
        for _ in range(12):
            sched.admit(JobHandle(make_spec(system, "heavy"), None))
            sched.admit(JobHandle(make_spec(system, "light"), None))
        order = [h.tenant for h in drain_dispatch(sched)]
        first_half = order[: len(order) // 2]
        ratio = first_half.count("heavy") / max(1, first_half.count("light"))
        assert ratio >= 2.0

    def test_equal_weights_alternate(self, system):
        sched = JobScheduler(
            1, max_queue_depth=64, max_inflight_per_device=64
        )
        for _ in range(4):
            sched.admit(JobHandle(make_spec(system, "a"), None))
            sched.admit(JobHandle(make_spec(system, "b"), None))
        order = [h.tenant for h in drain_dispatch(sched)]
        # No tenant ever gets two dispatches ahead of the other.
        for k in range(1, len(order)):
            counts = order[:k]
            assert abs(counts.count("a") - counts.count("b")) <= 1

    def test_priority_orders_within_tenant(self, system):
        sched = JobScheduler(
            1, max_queue_depth=64, max_inflight_per_device=64
        )
        lo = JobHandle(make_spec(system, priority=0), None)
        hi = JobHandle(make_spec(system, priority=5), None)
        mid = JobHandle(make_spec(system, priority=1), None)
        for h in (lo, hi, mid):
            sched.admit(h)
        assert drain_dispatch(sched) == [hi, mid, lo]

    def test_deadline_breaks_priority_ties(self, system):
        sched = JobScheduler(
            1, max_queue_depth=64, max_inflight_per_device=64
        )
        late = JobHandle(make_spec(system, deadline_s=9.0), None)
        soon = JobHandle(make_spec(system, deadline_s=1.0), None)
        never = JobHandle(make_spec(system), None)  # no deadline: last
        for h in (never, late, soon):
            sched.admit(h)
        assert drain_dispatch(sched) == [soon, late, never]

    def test_rejected_weight_changes_nothing(self, system):
        sched = JobScheduler(
            1, max_queue_depth=64, max_inflight_per_device=64
        )
        sched.tenant("a", weight=1.0)
        with pytest.raises(ValueError):
            sched.tenant("a", weight=-1.0)
        assert sched.tenants["a"].weight == 1.0
        with pytest.raises(ValueError):
            sched.tenant("c", weight=0.0)
        assert "c" not in sched.tenants
        with pytest.raises(ValueError):
            sched.tenant("a", weight=float("nan"))
        assert sched.tenants["a"].weight == 1.0
        for _ in range(3):
            sched.admit(JobHandle(make_spec(system, "a"), None))
            sched.admit(JobHandle(make_spec(system, "b"), None))
        order = [h.tenant for h in drain_dispatch(sched)]
        assert order == ["a", "b"] * 3

    def test_inflight_bound_blocks_dispatch(self, system):
        sched = JobScheduler(1, max_inflight_per_device=1)
        a = JobHandle(make_spec(system), None)
        b = JobHandle(make_spec(system), None)
        sched.admit(a)
        sched.admit(b)
        assert drain_dispatch(sched) == [a]  # device full at depth 1
        sched.complete(a)
        assert drain_dispatch(sched) == [b]


class TestPlacement:
    def test_idle_device_beats_device_that_ran_the_kernel(self, system):
        sched = JobScheduler(
            2, max_queue_depth=64, max_inflight_per_device=2
        )
        for _ in range(2):
            sched.admit(JobHandle(make_spec(system), None))
        first, second = drain_dispatch(sched)
        assert first.device_index == 0 and not first.warm_placement
        # Device 0 already ran the kernel but has a job in flight.
        assert second.device_index == 1 and second.warm_placement

    def test_ties_go_to_lowest_index(self, system):
        sched = JobScheduler(
            3, max_queue_depth=64, max_inflight_per_device=2
        )
        for _ in range(6):
            sched.admit(JobHandle(make_spec(system), None))
        handles = drain_dispatch(sched)
        assert [h.device_index for h in handles] == [0, 1, 2, 0, 1, 2]
        sched.complete(handles[5])  # device 2
        sched.complete(handles[4])  # device 1
        sched.admit(JobHandle(make_spec(system), None))
        (h,) = drain_dispatch(sched)
        assert h.device_index == 1

    def test_first_dispatch_cold_later_warm_on_any_device(self, system):
        sched = JobScheduler(
            2, max_queue_depth=64, max_inflight_per_device=1
        )
        cfg_a, cfg_b = HW.replace(layout="aos"), HW.replace(layout="soa")
        for cfg in (cfg_a, cfg_a, cfg_b, cfg_a, cfg_b):
            sched.admit(JobHandle(make_spec(system, config=cfg), None))
        placed = []
        while len(placed) < 5:
            batch = drain_dispatch(sched)
            placed += [(h.device_index, h.warm_placement) for h in batch]
            for h in batch:
                sched.complete(h)
        # Keys a, a, b, a, b land on devices 0, 1, 0, 1, 0: each kernel's
        # first dispatch is cold and every later one warm, on either
        # device.
        assert placed == [
            (0, False), (1, True), (0, False), (1, True), (0, True)
        ]
        assert sched.warm_hits == 3 and sched.cold_dispatches == 2

    def test_placement_option_is_gone(self):
        with pytest.raises(TypeError):
            JobScheduler(2, placement="cache")
        with pytest.raises(TypeError):
            SimulationService(placement="cache")


# ---------------------------------------------------------------------------
# live service


@pytest.fixture
def svc():
    s = SimulationService(devices=2, hardware=HW)
    yield s
    s.close()


class TestServiceRuns:
    def test_job_completes_with_result_metadata(self, svc, system):
        h = svc.submit("alice", system, HW, steps=2)
        res = h.result(timeout=120.0)
        assert res.tenant == "alice"
        assert res.steps == 2
        assert res.cycles > 0
        assert res.device in ("dev0", "dev1")
        assert res.state.px.shape == (N,)
        assert res.forces.shape == (N, 3)
        assert h.state is JobState.DONE

    @pytest.mark.parametrize("layout", ("aos", "soa", "aoas", "soaoas"))
    @pytest.mark.parametrize("fastpath", (True, False))
    def test_bit_identical_to_direct_run(self, svc, system, layout, fastpath):
        cfg = HW.replace(layout=layout, fastpath=fastpath)
        res = svc.submit("bits", system, cfg, steps=2).result(timeout=120.0)
        direct = Simulation.create(cfg, system.copy())
        direct.run(2, 0.01)
        state = direct.download()
        assert all(
            np.array_equal(getattr(res.state, f), getattr(state, f))
            for f in FIELDS
        )
        assert np.array_equal(res.forces, direct.download_forces())
        direct.close()

    @pytest.mark.parametrize("engine", ("serial", "process"))
    def test_bit_identical_across_sm_engines(self, system, engine):
        cfg = HW.replace(engine=engine)
        with SimulationService(devices=2, hardware=cfg) as svc:
            res = svc.submit("eng", system, cfg, steps=1).result(
                timeout=120.0
            )
        direct = Simulation.create(cfg, system.copy())
        direct.run(1, 0.01)
        assert np.array_equal(res.forces, direct.download_forces())
        direct.close()

    def test_pooled_job_runs_and_frees_heap(self, svc, system):
        cfg = HW.replace(pool_records_per_block=16)
        res = svc.submit("pool", system, cfg, steps=1).result(timeout=120.0)
        assert res.forces is None
        assert res.state.px.shape == (N,)
        # The job's pool storage went back to the device heap.
        dev = svc.group[int(res.device.removeprefix("dev"))]
        assert dev.gmem.bytes_in_use == 0

    def test_job_failure_does_not_poison_device(self, svc, system):
        bad = svc.submit("evil", system, HW, steps=1, dt=0.01,
                         scheme="not-a-scheme")
        with pytest.raises(ValueError):
            bad.result(timeout=120.0)
        assert bad.state is JobState.FAILED
        # The same devices keep serving other tenants.
        good = svc.submit("good", system, HW, steps=1)
        assert good.result(timeout=120.0).cycles > 0

    def test_many_tenants_all_complete(self, svc, system):
        cfgs = [HW.replace(layout=k) for k in ("aos", "soa", "soaoas")]
        handles = [
            svc.submit(f"t{i % 3}", system, cfgs[i % 3], steps=1)
            for i in range(9)
        ]
        results = [h.result(timeout=300.0) for h in handles]
        assert {r.job_id for r in results} == {h.job_id for h in handles}
        stats = svc.stats()
        assert stats["dispatches"] == 9
        assert stats["cold_dispatches"] == 3  # one per distinct kernel
        assert stats["warm_hits"] == 6

    def test_async_submit_and_wait(self, system):
        async def go():
            async with SimulationService(devices=2, hardware=HW) as svc:
                h = await svc.submit_async("aio", system, HW, steps=1)
                return await h.wait()

        res = asyncio.run(go())
        assert res.cycles > 0


class TestBackpressure:
    def test_queue_full_live(self, system):
        svc = SimulationService(
            devices=1, hardware=HW, max_queue_depth=2,
            max_inflight_per_device=1,
        )
        try:
            handles = [svc.submit("flood", system, HW, steps=1)]
            rejected = None
            # Keep pushing until the bounded queue refuses.
            for _ in range(16):
                try:
                    handles.append(svc.submit("flood", system, HW, steps=1))
                except QueueFullError as exc:
                    rejected = exc
                    break
            assert rejected is not None
            assert rejected.capacity == 2
            assert rejected.retry_after_s > 0
            for h in handles:
                h.result(timeout=300.0)
        finally:
            svc.close()

    def test_tenant_quota_live(self, svc, system):
        svc.register_tenant("capped", max_pending=1)
        first = svc.submit("capped", system, HW, steps=1)
        with pytest.raises(TenantQuotaError):
            svc.submit("capped", system, HW, steps=1)
        first.result(timeout=120.0)


class TestLifecycle:
    def test_drain_with_inflight_jobs(self, svc, system):
        handles = [svc.submit("d", system, HW, steps=1) for _ in range(5)]
        assert svc.drain(timeout=300.0)
        assert all(h.done() for h in handles)
        assert svc.queue_depth == 0 and svc.inflight == 0
        for h in handles:
            assert h.result().cycles > 0

    def test_submit_after_drain_rejected(self, svc, system):
        svc.drain(timeout=300.0)
        with pytest.raises(ServiceClosedError):
            svc.submit("late", system, HW, steps=1)

    def test_cancel_queued_job(self, system):
        svc = SimulationService(
            devices=1, hardware=HW, max_inflight_per_device=1
        )
        try:
            running = svc.submit("c", system, HW, steps=2)
            queued = [svc.submit("c", system, HW, steps=1) for _ in range(4)]
            victim = queued[-1]
            assert victim.cancel()
            with pytest.raises(JobCancelledError) as exc:
                victim.result(timeout=120.0)
            assert exc.value.job_id == victim.job_id
            assert victim.state is JobState.CANCELLED
            # Everyone else still completes.
            assert running.result(timeout=300.0).cycles > 0
            for h in queued[:-1]:
                assert h.result(timeout=300.0).cycles > 0
        finally:
            svc.close()

    def test_cancel_done_job_is_noop(self, svc, system):
        h = svc.submit("n", system, HW, steps=1)
        h.result(timeout=120.0)
        assert not h.cancel()
        assert h.state is JobState.DONE

    def test_close_is_idempotent(self, system):
        svc = SimulationService(devices=1, hardware=HW)
        svc.submit("x", system, HW, steps=1).result(timeout=120.0)
        svc.close()
        svc.close()


class TestServiceTelemetry:
    def test_counters_and_tracks(self, system):
        from repro.telemetry import runtime as tel
        from repro.telemetry.chrome_trace import spans_trace_events

        tel.enable()
        try:
            with SimulationService(devices=2, hardware=HW) as svc:
                svc.submit("tele", system, HW, steps=1).result(timeout=120.0)
                svc.drain(timeout=120.0)
            snap = tel.snapshot()
            assert snap["service.jobs.submitted"]["kind"] == "counter"
            assert snap["service.jobs.completed"]["kind"] == "counter"
            assert any(k.startswith("service.placement.") for k in snap)
            assert snap["service.job_latency_s"]["kind"] == "histogram"
            assert snap["service.queue_depth"]["kind"] == "gauge"
            # The tenant's job span gets its own named Chrome-trace track.
            events = spans_trace_events(tel.spans())
            track_names = {
                e["args"]["name"] for e in events if e["ph"] == "M"
            }
            assert "svc tele" in track_names
        finally:
            tel.disable()

"""The multi-tenant simulation service.

:class:`SimulationService` is the host-side front desk over a
:class:`~repro.cudasim.device_group.DeviceGroup`: tenants submit
:class:`~repro.service.jobs.JobSpec`-shaped simulation jobs and get back
:class:`~repro.service.jobs.JobHandle` futures; a dispatcher thread
drives the :class:`~repro.service.scheduler.JobScheduler` (admission →
weighted fairness → least-loaded placement) and lands each job on the
chosen device's dedicated service stream, where it runs exactly the same
:meth:`~repro.gravit.simulation_api.Simulation.create` path a direct
caller would use — results are bit-identical to driving the simulation
yourself, by construction.

Concurrency model: one :class:`threading.Condition` guards all scheduler
state; device streams provide per-device FIFO execution on their own
worker threads; job closures *never raise* into the stream (they return
``(status, payload)`` tuples) so a failing job cannot sticky-poison a
device stream and take down its neighbours.  Asyncio callers get
:meth:`submit_async`, :meth:`JobHandle.wait` and ``async with`` support
over the same thread-backed core, so the service works identically with
and without an event loop.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import threading
import time

from ..cudasim.device_group import DeviceGroup
from ..cudasim.errors import StreamError
from ..gravit.particles import ParticleSystem
from ..gravit.gpu_driver import PooledSimulation
from ..gravit.simulation_api import Simulation, SimulationConfig
from ..telemetry import runtime as _telemetry
from .errors import JobCancelledError, ServiceClosedError, ServiceError
from .jobs import JobHandle, JobResult, JobSpec, JobState
from .scheduler import JobScheduler

__all__ = ["SimulationService"]


class SimulationService:
    """Admit, schedule, and run tenant simulation jobs on a device group.

    ``group`` supplies the hardware; when omitted one is built from
    ``hardware`` (a :class:`SimulationConfig` whose topology knobs —
    device properties, toolchain, heap, fastpath — size the
    members) with ``devices`` cards.  Scheduling knobs:

    ``max_queue_depth``
        Service-wide bound on queued jobs; admission past it raises
        :class:`~repro.service.errors.QueueFullError` with a retry-after.
    ``max_inflight_per_device``
        Jobs dispatched-but-unfinished per device (1 running + the rest
        waiting in the device stream's FIFO).  Each job goes to the
        device with the fewest of them.
    """

    def __init__(
        self,
        group: DeviceGroup | None = None,
        *,
        devices: int = 2,
        hardware: SimulationConfig | None = None,
        max_queue_depth: int = 64,
        max_inflight_per_device: int = 2,
    ) -> None:
        if group is None:
            hw = hardware or SimulationConfig()
            group = hw.make_group(devices)
        self.group = group
        self.streams = group.open_streams("svc")
        self._sched = JobScheduler(
            len(group),
            max_queue_depth=max_queue_depth,
            max_inflight_per_device=max_inflight_per_device,
        )
        self._cond = threading.Condition()
        self._state = "running"  # -> "draining" -> "closed"
        self._stop = False
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="simulation-service", daemon=True
        )
        self._thread.start()

    # -- tenants & submission ------------------------------------------------

    def register_tenant(
        self,
        name: str,
        weight: float = 1.0,
        max_pending: int | None = None,
    ) -> None:
        """Declare a tenant's fair-share weight and pending-job quota.

        Unregistered tenants are auto-registered at first submit with
        weight 1 and no quota.
        """
        with self._cond:
            self._sched.tenant(name, weight=weight, max_pending=max_pending)

    def submit(
        self,
        tenant: str,
        system: ParticleSystem,
        config: SimulationConfig | None = None,
        *,
        steps: int = 1,
        dt: float = 0.01,
        scheme: str = "euler",
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> JobHandle:
        """Admit one job; returns its handle or raises the refusal."""
        spec = JobSpec(
            tenant=tenant,
            system=system,
            config=config or SimulationConfig(),
            steps=steps,
            dt=dt,
            scheme=scheme,
            priority=priority,
            deadline_s=deadline_s,
        )
        return self.submit_spec(spec)

    def submit_spec(self, spec: JobSpec) -> JobHandle:
        handle = JobHandle(spec, self)
        with self._cond:
            _telemetry.inc("service.jobs.submitted", tenant=spec.tenant)
            if self._state != "running":
                _telemetry.inc(
                    "service.jobs.rejected",
                    tenant=spec.tenant,
                    reason="closed",
                )
                raise ServiceClosedError(
                    f"service is {self._state}; not accepting jobs",
                    tenant=spec.tenant,
                    job_id=handle.job_id,
                )
            try:
                self._sched.admit(handle)
            except ServiceError as exc:
                _telemetry.inc(
                    "service.jobs.rejected",
                    tenant=spec.tenant,
                    reason=type(exc).__name__,
                )
                raise
            _telemetry.inc("service.jobs.admitted", tenant=spec.tenant)
            self._set_gauges()
            self._cond.notify_all()
        return handle

    async def submit_async(self, *args, **kwargs) -> JobHandle:
        """Asyncio-friendly :meth:`submit` (admission off the event loop)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, functools.partial(self.submit, *args, **kwargs)
        )

    # -- cancellation --------------------------------------------------------

    def cancel(self, handle: JobHandle) -> bool:
        """Best-effort cancel; True iff the job will not produce a result.

        Queued jobs leave the scheduler immediately; dispatched jobs are
        cancelled if their device-stream entry has not started running.
        A running job cannot be interrupted.
        """
        fail_future = None
        with self._cond:
            if handle.future.done():
                return handle.state is JobState.CANCELLED
            if handle.state is JobState.QUEUED:
                if not self._sched.remove(handle):
                    return False
                handle.state = JobState.CANCELLED
                handle.finished_s = time.perf_counter()
                _telemetry.inc("service.jobs.cancelled", tenant=handle.tenant)
                self._set_gauges()
                fail_future = JobCancelledError(
                    f"{handle.job_id} cancelled while queued",
                    tenant=handle.tenant,
                    job_id=handle.job_id,
                )
                self._cond.notify_all()
            elif (
                handle.state is JobState.DISPATCHED
                and handle._stream_future is not None
                and handle._stream_future.cancel()
            ):
                # The stream unregisters the cancelled entry from its
                # FIFO; _on_job_done releases the scheduler slot and
                # fails the client future.
                handle._cancelled = True
            else:
                return False
        if fail_future is not None:
            handle.future.set_exception(fail_future)
        return True

    # -- lifecycle -----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, run everything queued; True when fully idle."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            if self._state == "running":
                self._state = "draining"
            self._cond.notify_all()
            while not self._sched.idle():
                remaining = 1.0
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(min(remaining, 1.0))
        for stream in self.streams:
            stream.synchronize()
        return True

    def close(self) -> None:
        """Drain, stop the dispatcher, and close the service streams."""
        self.drain()
        with self._cond:
            self._state = "closed"
            self._stop = True
            self._cond.notify_all()
        self._thread.join(timeout=10.0)
        for stream in self.streams:
            stream.close()

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    async def __aenter__(self) -> "SimulationService":
        return self

    async def __aexit__(self, *exc) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.close)

    # -- introspection -------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return self._sched.queued()

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._sched.total_inflight()

    def stats(self) -> dict:
        with self._cond:
            out = self._sched.stats()
            out["state"] = self._state
            out["stream_depths"] = [s.depth for s in self.streams]
            return out

    # -- internals -----------------------------------------------------------

    def _set_gauges(self) -> None:
        _telemetry.set_gauge("service.queue_depth", self._sched.queued())
        _telemetry.set_gauge("service.inflight", self._sched.total_inflight())

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while True:
                    if self._stop:
                        return
                    item = self._sched.next_dispatch()
                    if item is not None:
                        break
                    self._cond.wait(0.5)
                handle, d = item
                handle.dispatched_s = time.perf_counter()
                handle.device = self.group[d].name
                self._set_gauges()
            stream = self.streams[d]
            try:
                fut = stream.submit(
                    "job",
                    functools.partial(self._run_job, handle),
                    device=handle.device,
                    tenant=handle.tenant,
                    job=handle.job_id,
                    track=f"svc {handle.tenant}",
                )
            except StreamError as exc:
                self._finish(handle, "error", exc)
                continue
            with self._cond:
                handle._stream_future = fut
            fut.add_done_callback(
                functools.partial(self._on_job_done, handle)
            )

    def _run_job(self, handle: JobHandle):
        """Runs on the device stream's worker; must never raise.

        Returning ``(status, payload)`` instead of raising keeps job
        failures from sticky-poisoning the device stream (which would
        refuse every later tenant's work on that card).
        """
        if handle._cancelled:
            return ("cancelled", None)
        with self._cond:
            if handle._cancelled:
                return ("cancelled", None)
            handle.state = JobState.RUNNING
        spec = handle.spec
        device = self.group[handle.device_index]
        t0 = time.perf_counter()
        try:
            sim = Simulation.create(spec.config, spec.system.copy(), device=device)
            try:
                cycles = sim.run(spec.steps, spec.dt, scheme=spec.scheme)
                replays = getattr(sim, "graph_replays", 0)
                if replays:
                    _telemetry.inc(
                        "service.graph_replays", replays, tenant=handle.tenant
                    )
                if isinstance(sim, PooledSimulation):
                    state = sim.writeback()
                    forces = None
                    # Return the job's pool storage to the device heap so
                    # tenants' populations don't accumulate across jobs.
                    sim.remove(list(sim.handles))
                    sim.pool.compact()
                else:
                    state = sim.download()
                    forces = sim.download_forces()
            finally:
                sim.close()
        except BaseException as exc:
            return ("error", exc)
        run_s = time.perf_counter() - t0
        queue_wait = (
            handle.dispatched_s - handle.submitted_s
            if handle.dispatched_s is not None
            else 0.0
        )
        return (
            "ok",
            JobResult(
                job_id=handle.job_id,
                tenant=handle.tenant,
                device=device.name,
                cycles=cycles,
                steps=spec.steps,
                state=state,
                forces=forces,
                queue_wait_s=queue_wait,
                run_s=run_s,
                warm_placement=bool(handle.warm_placement),
            ),
        )

    def _on_job_done(
        self, handle: JobHandle, fut: concurrent.futures.Future
    ) -> None:
        if fut.cancelled():
            status, payload = "cancelled", None
        else:
            try:
                status, payload = fut.result()
            except BaseException as exc:  # stream-level failure
                status, payload = "error", exc
        self._finish(handle, status, payload)

    def _finish(self, handle: JobHandle, status: str, payload) -> None:
        """Release the scheduler slot and resolve the client future."""
        now = time.perf_counter()
        with self._cond:
            run_s = payload.run_s if status == "ok" else None
            self._sched.complete(handle, run_s=run_s)
            handle.finished_s = now
            if status == "ok":
                handle.state = JobState.DONE
            elif status == "cancelled":
                handle.state = JobState.CANCELLED
            else:
                handle.state = JobState.FAILED
            self._set_gauges()
            self._cond.notify_all()
        if status == "ok":
            _telemetry.inc("service.jobs.completed", tenant=handle.tenant)
            _telemetry.inc(
                "service.placement.warm_hits"
                if handle.warm_placement
                else "service.placement.cold"
            )
            _telemetry.observe(
                "service.job_latency_s",
                now - handle.submitted_s,
                tenant=handle.tenant,
            )
            _telemetry.observe(
                "service.queue_wait_s",
                payload.queue_wait_s,
                tenant=handle.tenant,
            )
            handle.future.set_result(payload)
        elif status == "cancelled":
            _telemetry.inc("service.jobs.cancelled", tenant=handle.tenant)
            if not handle.future.done():
                handle.future.set_exception(
                    JobCancelledError(
                        f"{handle.job_id} cancelled before running",
                        tenant=handle.tenant,
                        job_id=handle.job_id,
                    )
                )
        else:
            _telemetry.inc("service.jobs.failed", tenant=handle.tenant)
            if not handle.future.done():
                handle.future.set_exception(payload)

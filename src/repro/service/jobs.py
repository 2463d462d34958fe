"""Job specifications, results, and the handle clients wait on."""

from __future__ import annotations

import asyncio
import concurrent.futures
import enum
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from ..gravit.particles import ParticleSystem
from ..gravit.simulation_api import SimulationConfig

__all__ = ["JobState", "JobSpec", "JobResult", "JobHandle"]

_job_ids = itertools.count(1)


class JobState(enum.Enum):
    QUEUED = "queued"  #: admitted, waiting in a tenant queue
    DISPATCHED = "dispatched"  #: placed on a device stream's FIFO
    RUNNING = "running"  #: executing on the device stream worker
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class JobSpec:
    """One tenant-submitted simulation job.

    ``priority`` orders jobs *within* a tenant's queue (larger first);
    ``deadline_s`` (seconds from submission) breaks priority ties
    earliest-deadline-first and feeds the latency accounting.  Cross-
    tenant ordering is the scheduler's weighted-fairness business, not
    the job's.
    """

    tenant: str
    system: ParticleSystem
    config: SimulationConfig = field(default_factory=SimulationConfig)
    steps: int = 1
    dt: float = 0.01
    scheme: str = "euler"
    priority: int = 0
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.config.devices != 1:
            raise ValueError(
                "service jobs run on one device each; submit with "
                f"devices=1 (got {self.config.devices}) — use "
                "Simulation.create directly for sharded runs"
            )

    def sort_key(self, seq: int) -> tuple:
        """Intra-tenant heap key: priority desc, deadline asc, FIFO."""
        deadline = self.deadline_s if self.deadline_s is not None else float("inf")
        return (-self.priority, deadline, seq)


@dataclass
class JobResult:
    """What a completed job hands back to its tenant."""

    job_id: str
    tenant: str
    device: str  #: name of the device that ran the job
    cycles: float  #: modeled device cycles for the stepped run
    steps: int
    state: ParticleSystem  #: final particle state (padding dropped)
    #: Raw float32 (n, 3) force records from the last force launch —
    #: the bit-identity surface against a direct GpuSimulation run.
    #: ``None`` for pool-backed jobs (their driver has no force buffer
    #: outliving the staging epoch).
    forces: np.ndarray | None
    queue_wait_s: float
    run_s: float
    #: An earlier job of the service was dispatched with this job's
    #: ``kernel_key``, so its compile should hit the shared kernel cache.
    warm_placement: bool


class JobHandle:
    """The client's grip on a submitted job.

    Wraps a :class:`concurrent.futures.Future`; :meth:`result` blocks the
    calling thread, :meth:`wait` awaits it from asyncio.  ``cancel``
    routes through the service so queued jobs leave the scheduler and
    dispatched-but-unstarted jobs leave their device FIFO.
    """

    def __init__(self, spec: JobSpec, service) -> None:
        self.spec = spec
        self.job_id = f"job{next(_job_ids)}"
        self.state = JobState.QUEUED
        self.future: concurrent.futures.Future = concurrent.futures.Future()
        self.submitted_s = time.perf_counter()
        self.dispatched_s: float | None = None
        self.finished_s: float | None = None
        self.device: str | None = None
        self.device_index: int | None = None
        self.warm_placement: bool | None = None
        self._service = service
        self._seq: int | None = None  # scheduler submission sequence
        self._stream_future: concurrent.futures.Future | None = None
        self._cancelled = False  # set under the service lock

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    def done(self) -> bool:
        return self.future.done()

    def result(self, timeout: float | None = None) -> JobResult:
        """Block until the job finishes; re-raises its failure."""
        return self.future.result(timeout)

    async def wait(self) -> JobResult:
        """Asyncio-friendly :meth:`result`."""
        return await asyncio.wrap_future(self.future)

    def cancel(self) -> bool:
        """Best-effort cancellation; True if the job will not run."""
        return self._service.cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobHandle({self.job_id}, tenant={self.tenant!r}, "
            f"state={self.state.value})"
        )

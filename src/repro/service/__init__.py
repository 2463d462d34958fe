"""``repro.service`` — simulation-as-a-service over a device group.

The multi-tenant job layer: tenants submit simulation jobs
(:class:`JobSpec`: scenario + :class:`~repro.gravit.SimulationConfig` +
steps + priority/deadline) to a :class:`SimulationService`, whose
scheduler admits them against a bounded queue, orders tenants by
weighted fairness, places each job on the least-loaded device, and
dispatches onto per-device streams.  Results are bit-identical to
calling :meth:`~repro.gravit.Simulation.create` directly.

One import site covers the whole failure surface of a submission: the
host-side :class:`ServiceError` family (admission, quota, cancellation,
lifecycle — all machine-readable) is defined here, and the device-side
:class:`~repro.cudasim.errors.LaunchError` family a running job can
surface through :meth:`JobHandle.result` is re-exported alongside it.
"""

from ..cudasim.errors import (
    CudaSimError,
    ExecutionError,
    LaunchError,
    OutOfMemoryError,
    StreamError,
)
from ..gravit.simulation_api import Simulation, SimulationConfig
from .errors import (
    JobCancelledError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
    TenantQuotaError,
)
from .jobs import JobHandle, JobResult, JobSpec, JobState
from .scheduler import JobScheduler, TenantState
from .service import SimulationService

__all__ = [
    "SimulationService",
    "Simulation",
    "SimulationConfig",
    "JobSpec",
    "JobResult",
    "JobHandle",
    "JobState",
    "JobScheduler",
    "TenantState",
    # host-side service errors
    "ServiceError",
    "QueueFullError",
    "TenantQuotaError",
    "JobCancelledError",
    "ServiceClosedError",
    # device-side errors a job result can re-raise
    "CudaSimError",
    "LaunchError",
    "OutOfMemoryError",
    "StreamError",
    "ExecutionError",
]

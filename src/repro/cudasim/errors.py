"""Exception hierarchy for the CUDA-like simulator.

Every error raised by :mod:`repro.cudasim` derives from :class:`CudaSimError`
so callers can catch simulator failures without masking programming errors
in their own code.
"""

from __future__ import annotations


class CudaSimError(Exception):
    """Base class for all simulator errors."""


class DeviceError(CudaSimError):
    """Invalid device configuration or device-limit violation."""


class MemoryError_(CudaSimError):
    """Device memory fault (OOB access, misaligned access, OOM).

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`; exported as ``DeviceMemoryError`` from the package.
    """


class AllocationError(MemoryError_):
    """Device allocator could not satisfy a request."""


class DoubleFreeError(AllocationError):
    """``free()`` of a pointer that is not (or no longer) allocated.

    Raised for the classic double free and for frees of addresses the
    allocator never handed out — including a stale pointer whose hole
    has since been coalesced into a neighbour.
    """


class LaunchError(CudaSimError):
    """Kernel launch configuration exceeds device limits."""


class OutOfMemoryError(AllocationError, LaunchError):
    """The device heap cannot satisfy an allocation request.

    Mirrors ``cudaErrorMemoryAllocation``: it is both an allocation
    failure and a launch-family error, so code guarding a sweep with
    ``except LaunchError`` also skips configurations that simply do not
    fit (e.g. 1 M-particle AoaS layouts on the 192 MiB default heap).
    """

    def __init__(
        self, message: str, requested: int | None = None,
        available: int | None = None,
    ) -> None:
        super().__init__(message)
        self.requested = requested
        self.available = available


class AccessViolation(MemoryError_):
    """A thread accessed an address outside any live allocation."""


class MisalignedAccess(MemoryError_):
    """A vector load/store address was not naturally aligned.

    Real CUDA hardware requires an N-byte load to be N-byte aligned; the
    simulator enforces the same contract instead of silently splitting.
    """


class StreamError(CudaSimError):
    """Misuse of the asynchronous stream API (closed stream, poisoned
    queue after an earlier failure, foreign event)."""


class GraphError(CudaSimError):
    """Misuse of the launch-graph API (see :mod:`repro.cudasim.graph`)."""


class GraphCaptureError(GraphError):
    """An operation that cannot be captured was issued during capture
    (device→host copies, host closures), or capture state was misused
    (double begin, capture on a closed/poisoned stream)."""


class GraphValidationError(GraphError):
    """``LaunchGraph.instantiate`` rejected the captured op sequence
    (wait on an event not recorded in-capture, duplicate rebind tag,
    peer copy leaving the captured device set)."""


class ExecutionError(CudaSimError):
    """Fault raised while executing kernel instructions."""


class DeadlockError(ExecutionError):
    """The warp scheduler found no runnable warp and no pending event.

    Typically caused by a barrier that not all warps of a block reach
    (divergent ``BAR_SYNC``), mirroring real-hardware hangs.
    """


class IRError(CudaSimError):
    """Malformed kernel IR (undefined register, bad loop bounds, ...)."""


class LoweringError(IRError):
    """Structured IR could not be lowered to a flat instruction stream."""


class RegisterAllocationError(IRError):
    """Register allocation failed or exceeded the per-thread budget."""


class TraceError(CudaSimError):
    """Memory-trace capture/replay mismatch."""

"""Admission, weighted fairness, and least-loaded placement.

:class:`JobScheduler` is a *pure state machine*: it owns no threads and
takes no locks — the service drives it under one condition variable.
That keeps every decision deterministic given the call sequence.

Three policies compose per dispatch:

* **Admission** — one service-wide bounded queue
  (:class:`~repro.service.errors.QueueFullError` with a ``retry_after_s``
  derived from the smoothed job service time) plus optional per-tenant
  pending quotas (:class:`~repro.service.errors.TenantQuotaError`).
* **Fairness** — stride scheduling across tenants: each tenant carries a
  virtual ``pass`` that advances by ``1 / weight`` per dispatched job,
  and the runnable tenant with the smallest pass goes next.  A tenant
  with weight 3 gets 3× the dispatch share of a weight-1 tenant under
  contention, and an idle tenant re-enters at the current minimum so it
  cannot hoard credit.  Within a tenant, jobs order by (priority desc,
  deadline asc, submission).
* **Placement** — the job goes to the free device with the fewest jobs
  in flight, lowest index on ties.  Every member of a device group
  shares one content-addressed kernel cache, so no device is warmer
  than another for a kernel.  A dispatch is *warm* when an earlier job
  of this scheduler was dispatched with the same
  :attr:`SimulationConfig.kernel_key`, i.e. when its compile should hit
  that shared cache.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from .errors import QueueFullError, TenantQuotaError
from .jobs import JobHandle, JobState

__all__ = ["JobScheduler", "TenantState"]


@dataclass
class TenantState:
    """Per-tenant queue + stride-scheduling accounting."""

    name: str
    weight: float = 1.0
    max_pending: int | None = None  #: queued + inflight quota (None = ∞)
    pass_value: float = 0.0
    pending: list = field(default_factory=list)  # heap of (key, handle)
    inflight: int = 0
    admitted: int = 0
    dispatched: int = 0

    @property
    def stride(self) -> float:
        return 1.0 / self.weight

    def live_queued(self) -> int:
        return sum(1 for _, h in self.pending if not h._cancelled)


class JobScheduler:
    """Deterministic admission/fairness/placement state machine."""

    def __init__(
        self,
        num_devices: int,
        *,
        max_queue_depth: int = 64,
        max_inflight_per_device: int = 2,
    ) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if max_inflight_per_device < 1:
            raise ValueError("max_inflight_per_device must be >= 1")
        self.num_devices = num_devices
        self.max_queue_depth = max_queue_depth
        self.max_inflight_per_device = max_inflight_per_device
        self.tenants: dict[str, TenantState] = {}
        self.queued_total = 0
        self.inflight = [0] * num_devices
        #: Kernel keys of every job dispatched so far.
        self.seen: set[str] = set()
        self.warm_hits = 0
        self.cold_dispatches = 0
        self.dispatches = 0
        #: EWMA of observed job run time, seeding the retry-after estimate.
        self.avg_run_s = 0.05
        self._seq = itertools.count()

    # -- tenants -------------------------------------------------------------

    def tenant(
        self,
        name: str,
        weight: float | None = None,
        max_pending: int | None = None,
    ) -> TenantState:
        """Fetch-or-register a tenant (idempotent; updates are explicit).

        A rejected weight (not > 0, NaN included) changes nothing.
        """
        if weight is not None and not weight > 0:
            raise ValueError(f"tenant weight must be > 0, got {weight}")
        ts = self.tenants.get(name)
        if ts is None:
            # A newcomer starts at the current minimum pass so it neither
            # starves the incumbents nor owes them history.
            ts = self.tenants[name] = TenantState(
                name,
                pass_value=min(
                    (t.pass_value for t in self.tenants.values()), default=0.0
                ),
            )
        if weight is not None:
            ts.weight = weight
        if max_pending is not None:
            ts.max_pending = max_pending
        return ts

    # -- admission -----------------------------------------------------------

    def retry_after_s(self) -> float:
        """Back-off estimate: time until the bounded queue frees a slot."""
        backlog = self.queued_total + sum(self.inflight)
        return max(self.avg_run_s, backlog * self.avg_run_s / self.num_devices)

    def admit(self, handle: JobHandle) -> None:
        """Enqueue an admitted job, or raise the refusal with fields set."""
        ts = self.tenant(handle.tenant)
        if self.queued_total >= self.max_queue_depth:
            raise QueueFullError(
                f"service queue is full ({self.queued_total}/"
                f"{self.max_queue_depth} jobs queued)",
                tenant=handle.tenant,
                job_id=handle.job_id,
                queue_depth=self.queued_total,
                capacity=self.max_queue_depth,
                retry_after_s=self.retry_after_s(),
            )
        pending = ts.live_queued() + ts.inflight
        if ts.max_pending is not None and pending >= ts.max_pending:
            raise TenantQuotaError(
                f"tenant {handle.tenant!r} is at its pending-job quota "
                f"({pending}/{ts.max_pending})",
                tenant=handle.tenant,
                job_id=handle.job_id,
                queue_depth=pending,
                quota=ts.max_pending,
                retry_after_s=self.retry_after_s(),
            )
        handle._seq = next(self._seq)
        heapq.heappush(ts.pending, (handle.spec.sort_key(handle._seq), handle))
        ts.admitted += 1
        self.queued_total += 1

    def remove(self, handle: JobHandle) -> bool:
        """Lazily drop a still-queued job (cancellation); True if removed."""
        if handle.state is not JobState.QUEUED or handle._cancelled:
            return False
        handle._cancelled = True  # pruned from the heap at dispatch time
        self.queued_total -= 1
        return True

    # -- dispatch ------------------------------------------------------------

    def _prune(self, ts: TenantState) -> None:
        while ts.pending and ts.pending[0][1]._cancelled:
            heapq.heappop(ts.pending)

    def next_dispatch(self) -> tuple[JobHandle, int] | None:
        """The next (job, device) to run, or None if nothing can move.

        None means either no live queued job or no device below its
        inflight bound — the service waits for a completion either way.
        The device is the least loaded one, lowest index on ties; all
        devices share one bound, so it is free iff any device is.
        """
        d = min(range(self.num_devices), key=self.inflight.__getitem__)
        if self.inflight[d] >= self.max_inflight_per_device:
            return None
        best: TenantState | None = None
        for ts in self.tenants.values():
            self._prune(ts)
            if ts.pending and (
                best is None
                or (ts.pass_value, ts.name) < (best.pass_value, best.name)
            ):
                best = ts
        if best is None:
            return None
        _, handle = heapq.heappop(best.pending)
        self.queued_total -= 1
        kernel_key = handle.spec.config.kernel_key
        warm = kernel_key in self.seen
        self.seen.add(kernel_key)
        self.inflight[d] += 1
        best.inflight += 1
        best.dispatched += 1
        best.pass_value += best.stride
        self.dispatches += 1
        if warm:
            self.warm_hits += 1
        else:
            self.cold_dispatches += 1
        handle.device_index = d
        handle.warm_placement = warm
        handle.state = JobState.DISPATCHED
        return handle, d

    def complete(self, handle: JobHandle, run_s: float | None = None) -> None:
        """Return a dispatched job's device slot and tenant credit."""
        d = handle.device_index
        if d is not None:
            self.inflight[d] -= 1
        ts = self.tenants.get(handle.tenant)
        if ts is not None:
            ts.inflight -= 1
        if run_s is not None and run_s > 0:
            self.avg_run_s += 0.25 * (run_s - self.avg_run_s)

    # -- introspection -------------------------------------------------------

    def queued(self) -> int:
        return self.queued_total

    def total_inflight(self) -> int:
        return sum(self.inflight)

    def idle(self) -> bool:
        return self.queued_total == 0 and self.total_inflight() == 0

    def warm_hit_rate(self) -> float:
        return self.warm_hits / self.dispatches if self.dispatches else 0.0

    def stats(self) -> dict:
        return {
            "dispatches": self.dispatches,
            "warm_hits": self.warm_hits,
            "cold_dispatches": self.cold_dispatches,
            "warm_hit_rate": self.warm_hit_rate(),
            "queued": self.queued_total,
            "inflight": list(self.inflight),
            "tenants": {
                name: {
                    "weight": ts.weight,
                    "admitted": ts.admitted,
                    "dispatched": ts.dispatched,
                    "queued": ts.live_queued(),
                    "inflight": ts.inflight,
                }
                for name, ts in sorted(self.tenants.items())
            },
        }

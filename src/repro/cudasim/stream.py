"""CUDA-streams-style asynchronous work queues over :class:`Device`.

A :class:`Stream` is a FIFO of device operations — async copies, kernel
launches, event records — executed by a dedicated worker thread so the
host (the experiment driver) can keep enqueuing the next configuration
while the previous one simulates.  Ordering semantics mirror CUDA:

* operations on one stream run in submission order;
* :meth:`Stream.record_event` marks a point in a stream, and
  :meth:`Stream.wait_event` on another stream blocks that stream's queue
  until the point is reached — cross-stream dependencies without a full
  device synchronize;
* :meth:`Stream.synchronize` / :meth:`Device.synchronize` drain the
  queue(s) and re-raise the first failure.

Each stream also keeps a *simulated* timeline cursor, in device cycles:
copies advance it by their modeled PCIe transfer time, launches by the
launch's simulated cycle count, and ``wait_event`` advances it to the
waited-for event's cycle.  The cursor feeds the telemetry spans
(``stream=<name>`` attribute) so the Chrome trace shows per-stream
tracks with overlap, and :attr:`Stream.cycles` gives the stream's total
simulated makespan for back-of-envelope overlap math.

Failure poisoning follows CUDA's sticky-error model: once an operation
raises, the stream refuses further work and every subsequent
``result()`` / ``synchronize()`` re-raises :class:`StreamError` wrapping
the original fault.  An event recorded behind the failure still fires,
carrying that fault, so a peer stream waiting on it fails at once with
the root cause instead of timing out.

Example::

    with dev.stream("sweep-aos") as s:
        s.memcpy_htod_async(buf, packed)
        h = s.launch_async(lk, grid=313, block=128, params={"pos": buf})
        done = s.record_event()
    other.wait_event(done)           # gate another stream on this work
    result = h.result()              # blocks until the launch simulated
"""

from __future__ import annotations

import concurrent.futures
import itertools
import threading
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from ..telemetry import runtime as _telemetry
from .errors import GraphCaptureError, StreamError
from .memory import DevicePtr

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import LaunchGraph
    from .launch import Device, LaunchResult
    from .lower import LoweredKernel

__all__ = ["Stream", "Event", "PCIE_BYTES_PER_S"]

#: Distinguishes "argument not passed" from an explicit ``timeout=None``
#: (wait forever) on :meth:`Stream.wait_event`.
_UNSET = object()

#: Modeled host↔device bandwidth (PCIe x16 gen1, the 8800 GTX's bus),
#: which places async copies on the simulated timeline and prices the
#: transfers of ``GpuForceBackend.predict_seconds``.  PCIe 1.1 x16 peaks
#: at 4 GB/s; 2009-era pinned-memory transfers sustained ~3 GB/s
#: (measured values in the bandwidthTest SDK sample of the period).
PCIE_BYTES_PER_S = 3.0e9

_stream_counter = itertools.count()


class Event:
    """A marker in a stream's queue, usable as a cross-stream dependency.

    ``cycle`` is the recording stream's simulated-timeline position at
    the moment the marker executed (``None`` until then).
    """

    def __init__(self, name: str | None = None) -> None:
        self.name = name or f"event{next(_stream_counter)}"
        self.cycle: float | None = None
        # The recording stream's sticky error when that stream had failed
        # before reaching the marker (None otherwise).
        self._error: BaseException | None = None
        self._fired = threading.Event()

    def query(self) -> bool:
        """True once the recording stream has reached the marker."""
        return self._fired.is_set()

    def synchronize(self, timeout: float | None = None) -> None:
        """Block the *host* until the marker executes; raise
        :class:`StreamError` from the recording stream's fault if that
        stream failed before reaching it."""
        if not self._fired.wait(timeout):
            raise StreamError(f"timed out waiting for event {self.name!r}")
        self._check()

    def _check(self) -> None:
        if self._error is not None:
            raise StreamError(
                f"event {self.name!r} was recorded behind a failure"
            ) from self._error

    def _fire(self, cycle: float, error: BaseException | None = None) -> None:
        self.cycle = cycle
        self._error = error
        self._fired.set()


class Stream:
    """An ordered, asynchronous queue of device operations.

    Create via :meth:`Device.stream`.  Every ``*_async`` method returns a
    :class:`concurrent.futures.Future`; ``result()`` blocks until that
    operation has simulated and yields the operation's value
    (:class:`LaunchResult` for launches, the host array for
    device-to-host copies, ``None`` for host-to-device copies).
    """

    def __init__(self, device: "Device", name: str | None = None) -> None:
        self.device = device
        self.name = name or f"stream{next(_stream_counter)}"
        #: Simulated cycle at which the last enqueued op completes.
        self.cycles = 0.0
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"cudasim-{self.name}"
        )
        self._error: BaseException | None = None
        self._pending: list[concurrent.futures.Future] = []
        self._lock = threading.Lock()
        self._closed = False
        self._depth = 0
        #: Active LaunchGraph recording this stream's ops (None = normal).
        self._capture: "LaunchGraph | None" = None

    # -- queue plumbing ----------------------------------------------------

    @property
    def depth(self) -> int:
        """Submitted-but-unfinished operations (the queue-depth gauge)."""
        return self._depth

    def _set_depth_gauge(self) -> None:
        _telemetry.set_gauge(
            "cudasim.stream.depth",
            self._depth,
            device=getattr(self.device, "name", None) or "device",
            stream=self.name,
        )

    def _on_op_done(self, fut: concurrent.futures.Future) -> None:
        with self._lock:
            self._depth -= 1
            if fut.cancelled():
                # A future cancelled before its queue entry ran must leave
                # the FIFO, or synchronize() chokes on a corpse that never
                # produced a result (and the list grows without bound).
                try:
                    self._pending.remove(fut)
                except ValueError:
                    pass
        self._set_depth_gauge()

    def _submit(
        self,
        label: str,
        fn: Callable[[], object],
        on_abort: Callable[[BaseException], None] | None = None,
        **attrs,
    ) -> concurrent.futures.Future:
        with self._lock:
            if self._capture is not None:
                raise GraphCaptureError(
                    f"stream {self.name!r} is capturing into graph "
                    f"{self._capture.name!r}; '{label}' is not capturable "
                    "(its result is consumed on the host)"
                )
            if self._closed:
                raise StreamError(f"stream {self.name!r} is closed")
            if self._error is not None:
                raise StreamError(
                    f"stream {self.name!r} aborted by an earlier failure"
                ) from self._error
            try:
                fut = self._pool.submit(
                    self._run_op, label, fn, attrs, on_abort
                )
            except RuntimeError as exc:
                # close()/__exit__ shut the pool between our _closed check
                # and this submit (or an interpreter-shutdown hook did).
                # Surface the stream-API error, not the executor's.
                self._closed = True
                raise StreamError(
                    f"stream {self.name!r} is closed"
                ) from exc
            self._pending.append(fut)
            self._depth += 1
        fut.add_done_callback(self._on_op_done)
        self._set_depth_gauge()
        return fut

    def submit(
        self, label: str, fn: Callable[[], object], **attrs
    ) -> concurrent.futures.Future:
        """Queue an arbitrary host closure on this stream's FIFO.

        The public face of the internal queue plumbing, used by host-side
        schedulers (the simulation service) to serialize work per device:
        ``fn`` runs on the stream's worker thread after every previously
        queued operation, inside a ``cudasim.stream.<label>`` telemetry
        span carrying ``attrs``.  The returned future supports
        :meth:`~concurrent.futures.Future.cancel` while the closure is
        still queued; a cancelled entry is unregistered from the FIFO so
        :meth:`synchronize` neither deadlocks nor reports it as a stream
        failure.
        """
        return self._submit(label, fn, **attrs)

    def _run_op(
        self,
        label: str,
        fn: Callable[[], object],
        attrs: dict,
        on_abort: Callable[[BaseException], None] | None,
    ):
        try:
            if self._error is not None:
                if on_abort is not None:
                    on_abort(self._error)
                raise StreamError(
                    f"stream {self.name!r} aborted by an earlier failure"
                ) from self._error
            begin = self.cycles
            span_attrs = {
                "stream": self.name,
                "device": getattr(self.device, "name", None) or "device",
                **attrs,  # caller attrs win (e.g. service job spans)
            }
            with _telemetry.span(
                f"cudasim.stream.{label}", **span_attrs
            ) as sp:
                value = fn()
                sp.set(sim_begin_cycle=begin, sim_end_cycle=self.cycles)
            return value
        except BaseException as exc:
            # First fault wins: ops draining behind a failure raise the
            # abort StreamError above, which must not replace the root
            # cause that synchronize() re-raises (sticky-error model).
            if self._error is None:
                self._error = exc
            raise

    def _copy_cycles(self, nbytes: int) -> float:
        seconds = nbytes / PCIE_BYTES_PER_S
        return seconds * self.device.props.clock_mhz * 1e6

    # -- operations --------------------------------------------------------

    def memcpy_htod_async(
        self, ptr: DevicePtr | int, data: np.ndarray, tag: str | None = None
    ) -> concurrent.futures.Future:
        """Queue a host→device copy (advances the timeline by PCIe time).

        ``tag`` names the copy for parameter rebinding when a
        :class:`~repro.cudasim.graph.LaunchGraph` capture is active; it
        is ignored in normal (non-capturing) execution.
        """
        data = np.ascontiguousarray(data)
        if self._capture is not None:
            return self._capture._record_htod(self, ptr, data, tag)

        def op() -> None:
            self.device.memcpy_htod(ptr, data)
            self.cycles += self._copy_cycles(data.nbytes)

        return self._submit("memcpy_htod", op, nbytes=int(data.nbytes))

    def memcpy_dtoh_async(
        self, ptr: DevicePtr | int, nwords: int
    ) -> concurrent.futures.Future:
        """Queue a device→host copy; ``result()`` is the host array."""

        def op() -> np.ndarray:
            out = self.device.memcpy_dtoh(ptr, nwords)
            self.cycles += self._copy_cycles(out.nbytes)
            return out

        return self._submit("memcpy_dtoh", op, nbytes=4 * nwords)

    def launch_async(
        self,
        lk: "LoweredKernel",
        grid: int,
        block: int,
        params: Mapping[str, object] | None = None,
        tag: str | None = None,
        **kwargs,
    ) -> concurrent.futures.Future:
        """Queue a kernel launch; ``result()`` is its :class:`LaunchResult`.

        ``tag`` names the launch for parameter rebinding when a
        :class:`~repro.cudasim.graph.LaunchGraph` capture is active; it
        is ignored in normal (non-capturing) execution.
        """
        if self._capture is not None:
            return self._capture._record_launch(
                self, lk, grid, block, params, tag, kwargs
            )

        def op() -> "LaunchResult":
            result = self.device.launch(
                lk, grid, block, params=params, stream=self.name, **kwargs
            )
            self.cycles += result.cycles
            return result

        return self._submit(
            "launch", op, kernel=lk.name, grid=grid, block=block
        )

    def record_event(self, event: Event | None = None) -> Event:
        """Queue a marker; it fires when all prior ops on this stream ran."""
        ev = event or Event()
        if self._capture is not None:
            self._capture._record_record(self, ev)
            return ev
        self._submit(
            "record_event",
            lambda: ev._fire(self.cycles),
            on_abort=lambda error: ev._fire(self.cycles, error),
            event=ev.name,
        )
        return ev

    def memcpy_peer_async(
        self,
        src: DevicePtr | int,
        dst_device: "Device",
        dst: DevicePtr | int,
        nwords: int,
        via_host: bool = False,
    ) -> concurrent.futures.Future:
        """Queue a device→device copy into another device's heap.

        Models ``cudaMemcpyPeerAsync``: ``nwords`` are read from ``src``
        on this stream's device and written to ``dst`` on ``dst_device``.
        The simulated timeline advances by one PCIe traversal when the
        devices are peer-capable, or two (device→host→device staging,
        ``via_host=True``) when they are not — the classic cost of
        forgetting ``cudaDeviceEnablePeerAccess``.
        """
        nbytes = 4 * nwords
        hops = 2 if via_host else 1
        if self._capture is not None:
            return self._capture._record_peer(
                self, src, dst_device, dst, nwords, hops
            )

        def op() -> None:
            data = self.device.memcpy_dtoh(src, nwords)
            dst_device.memcpy_htod(dst, data)
            self.cycles += hops * self._copy_cycles(nbytes)

        return self._submit(
            "memcpy_peer",
            op,
            nbytes=nbytes,
            via_host=via_host,
            dst_device=getattr(dst_device, "name", None) or "device",
        )

    def wait_event(self, event: Event, timeout: object = _UNSET) -> None:
        """Make all *later* ops on this stream wait for ``event``.

        Returns immediately (the wait itself is queued).  The stream's
        timeline jumps forward to the event's cycle, modeling the idle
        gap.  ``timeout`` (host seconds) guards against waiting on an
        event that is never recorded; it defaults to the device's
        ``event_timeout`` (60 s unless ``Device(event_timeout=...)`` or
        ``REPRO_EVENT_TIMEOUT`` says otherwise), and ``None`` or ``inf``
        waits forever.  If the recording stream failed before reaching
        the event, the wait fails at once with :class:`StreamError` from
        that stream's fault.
        """
        if self._capture is not None:
            self._capture._record_wait(self, event)
            return
        if timeout is _UNSET:
            timeout = self.device.event_timeout
        if timeout is not None and timeout == float("inf"):
            timeout = None  # threading caps finite timeouts; inf = forever

        def op() -> None:
            if not event._fired.wait(timeout):
                raise StreamError(
                    f"stream {self.name!r} timed out waiting for event "
                    f"{event.name!r} after {timeout}s (was it recorded? "
                    "raise Device(event_timeout=) or REPRO_EVENT_TIMEOUT "
                    "for legitimately slow upstream streams)"
                )
            event._check()
            self.cycles = max(self.cycles, event.cycle or 0.0)

        self._submit("wait_event", op, event=event.name)

    # -- completion --------------------------------------------------------

    def synchronize(self) -> None:
        """Block until every queued op ran; re-raise the first failure.

        The error is *sticky*, as in CUDA: once any operation on this
        stream has failed, every subsequent ``synchronize()`` re-raises
        :class:`StreamError` wrapping the original fault — not just the
        call that happens to drain the failed future — until the stream
        is torn down.
        """
        with self._lock:
            pending, self._pending = self._pending, []
        failure: BaseException | None = None
        for fut in pending:
            try:
                fut.result()
            except concurrent.futures.CancelledError:
                # A host-cancelled op never ran on the device; it is not
                # a stream failure and must not poison the queue.
                continue
            except BaseException as exc:
                if failure is None:
                    failure = exc
        if failure is None:
            # Nothing newly drained, but the stream may already be
            # poisoned from an earlier drain — sticky-error model.
            failure = self._error
        if failure is not None:
            raise StreamError(
                f"stream {self.name!r} failed: {failure}"
            ) from failure

    def _unregister(self) -> None:
        try:
            self.device._streams.remove(self)
        except ValueError:
            pass

    def close(self) -> None:
        """Drain the queue and release the worker thread."""
        try:
            self.synchronize()
        finally:
            # _closed flips under the same lock _submit checks it under,
            # so a racing submitter either lands before the shutdown or
            # sees the closed stream — never the executor's RuntimeError.
            with self._lock:
                self._closed = True
            self._pool.shutdown(wait=True)
            self._unregister()

    def __enter__(self) -> "Stream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # don't mask the in-flight exception with a drain failure
            with self._lock:
                self._closed = True
            self._pool.shutdown(wait=False, cancel_futures=True)
            # The aborted stream must still leave the device registry, or
            # Device.synchronize() keeps draining a closed stream and the
            # list grows without bound across failed sweeps.
            self._unregister()

    # -- graph capture ------------------------------------------------------

    def _begin_capture(self, graph: "LaunchGraph") -> None:
        """Route this stream's capturable ops into ``graph`` (internal —
        use :meth:`LaunchGraph.begin` / :meth:`DeviceGroup.capture`)."""
        with self._lock:
            if self._closed:
                raise GraphCaptureError(
                    f"cannot capture on closed stream {self.name!r}"
                )
            if self._error is not None:
                raise GraphCaptureError(
                    f"cannot capture on poisoned stream {self.name!r}"
                ) from self._error
            if self._capture is not None:
                raise GraphCaptureError(
                    f"stream {self.name!r} is already capturing into "
                    f"graph {self._capture.name!r}"
                )
            self._capture = graph

    def _end_capture(self, graph: "LaunchGraph") -> None:
        with self._lock:
            if self._capture is graph:
                self._capture = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"{len(self._pending)} queued"
        return f"Stream({self.name!r}, {state}, cycles={self.cycles:.0f})"

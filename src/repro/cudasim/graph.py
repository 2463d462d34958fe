"""Launch graphs: capture one epoch of stream work, replay it cheaply.

The CUDA Graphs analogue for the simulator.  Steady-state stepping
re-issues the *same* op sequence every step — copies, launches, event
choreography, peer broadcasts — and at service or out-of-core scale the
Python-side cost of that re-issue (a future, a span, a FIFO submit and a
worker handoff per op) becomes the ceiling long before the simulated GPU
does.  A :class:`LaunchGraph` records the epoch once, validates it, and
then replays it per step with near-zero host work: no per-op future
allocation, no per-op span setup, no FIFO submits — one graph-level
telemetry span and a single host pass over frozen closures.

Lifecycle (mirroring ``cudaStreamBeginCapture`` → ``cudaGraphInstantiate``
→ ``cudaGraphLaunch``)::

    graph = LaunchGraph("step")
    graph.begin(copy, compute)          # or: with LaunchGraph.capture(...)
    ...issue ops on the captured streams; nothing executes...
    graph.end()
    graph.instantiate()                 # validate + freeze closures
    for step in range(steps):
        graph.replay({"integrate": {"kick_dt": dt}})

**What is capturable**: ``memcpy_htod_async``, ``launch_async``,
``record_event``/``wait_event`` and ``memcpy_peer_async`` — ops whose
results live on the device.  ``memcpy_dtoh_async`` and ``Stream.submit``
are *not* (the host consumes their results the same step), and raise
:class:`GraphCaptureError` during capture.

**Validation** (:meth:`LaunchGraph.instantiate`): every ``wait_event``
must reference an event recorded *earlier in this capture* (a wait on a
pre-capture or foreign event would deadlock or silently order against a
stale cycle — it is rejected instead); every peer copy must target a
device whose stream is part of the capture (closed dependency set); and
rebind tags must be unique and sit on rebindable ops.  Because every
cross-stream dependency then points backwards, the capture order itself
is a valid topological order of the DAG.

**Replay** executes the frozen ops in capture order on the calling
thread.  Per-stream simulated cursors evolve exactly as the op-by-op
path's worker threads evolve them (copies advance by PCIe time, launches
by simulated cycles, waits jump to the waited event's re-fired cycle),
so replays are bit-identical to op-by-op execution — memory image,
cycles, :class:`KernelStats` and profiler output — for every layout ×
toolchain × fastpath setting.  A replay requires its streams
idle (no in-flight FIFO entries).  A replayed launch goes through
``Device.launch`` like any other, so it runs the program built from the
captured :class:`LoweredKernel` in this process; nothing a graph holds
can go stale.

**Rebinding**: ops captured with ``tag=`` accept new parameters at
replay — a new host array (or a ``{"ptr": ..., "data": ...}`` mapping,
e.g. after ``Device.reset`` re-allocation) for copies, a param-override
dict (new ``kick_dt``/``drift_dt``) for launches.

**Telemetry**: one ``cudasim.graph.replay`` span per replay; when
telemetry is on, child op spans are synthesized afterwards from the
recorded simulated cycles so the Chrome trace still shows per-stream
tracks with overlap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..telemetry import runtime as _telemetry
from .errors import (
    GraphCaptureError,
    GraphError,
    GraphValidationError,
    StreamError,
)
from .stream import Event, Stream

__all__ = ["LaunchGraph", "GraphOp", "ReplayResult"]

_graph_counter = itertools.count()

#: Ops a ``tag=`` (and therefore replay-time rebinding) is valid on.
_REBINDABLE = frozenset({"htod", "launch"})


@dataclass
class GraphOp:
    """One captured stream operation (an edge-carrying DAG node).

    ``stream`` indexes :attr:`LaunchGraph.streams`; dependency edges are
    implicit — program order within a stream, plus the record→wait pairs
    over :attr:`event`.  ``begin_cycle``/``end_cycle`` hold the op's
    simulated interval from the most recent replay (span synthesis).
    """

    kind: str  #: "htod" | "launch" | "record" | "wait" | "peer"
    stream: int
    label: str
    tag: str | None = None
    # htod / peer operands
    ptr: object = None
    data: np.ndarray | None = None
    nbytes: int = 0
    dst_device: object = None
    dst: object = None
    nwords: int = 0
    hops: int = 1
    # launch operands
    lk: object = None
    grid: int = 0
    block: int = 0
    params: dict | None = None
    kwargs: dict = field(default_factory=dict)
    # record / wait operand
    event: Event | None = None
    # last-replay simulated interval
    begin_cycle: float = 0.0
    end_cycle: float = 0.0


@dataclass
class ReplayResult:
    """What one :meth:`LaunchGraph.replay` produced.

    The single future-free return value replacing the op-by-op path's
    per-op futures: launch results in capture order and per-stream cursor
    positions around the replay.  Drivers that split an epoch into
    accounting intervals record events at the interval boundaries; every
    replay re-fires them at its own cycles.
    """

    graph: "LaunchGraph"
    #: LaunchResult per captured launch, in capture order.
    launches: list = field(default_factory=list)
    begin_cycles: tuple = ()
    end_cycles: tuple = ()

    @property
    def stream_deltas(self) -> tuple:
        """Per-stream cursor advance over this replay."""
        return tuple(
            e - b for b, e in zip(self.begin_cycles, self.end_cycles)
        )


class _CapturedFuture:
    """Placeholder returned by ``*_async`` calls during capture.

    Captured ops do not execute, so there is no result; any attempt to
    consume one is a capture bug and raises immediately instead of
    deadlocking a ``result()`` call.
    """

    __slots__ = ("_op",)

    def __init__(self, op: GraphOp) -> None:
        self._op = op

    def result(self, timeout: float | None = None):
        raise GraphCaptureError(
            f"captured op '{self._op.label}' has no result; graph replay "
            "returns launch results on its ReplayResult"
        )

    def add_done_callback(self, fn) -> None:
        raise GraphCaptureError(
            f"captured op '{self._op.label}' never completes on its own; "
            "replay the graph instead"
        )

    def cancel(self) -> bool:
        return False

    def done(self) -> bool:
        return False


class _CaptureContext:
    """``with LaunchGraph.capture(streams) as graph:`` plumbing."""

    def __init__(self, graph: "LaunchGraph", streams: Sequence[Stream]):
        self._graph = graph
        self._streams = streams

    def __enter__(self) -> "LaunchGraph":
        return self._graph.begin(*self._streams)

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._graph.end()
        else:
            self._graph.abort()


class LaunchGraph:
    """A captured, validated, replayable epoch of stream operations."""

    def __init__(self, name: str | None = None) -> None:
        self.name = name or f"graph{next(_graph_counter)}"
        self.streams: list[Stream] = []
        self.ops: list[GraphOp] = []
        #: idle -> capturing -> captured -> ready (or -> dead on abort).
        self.state = "idle"
        self.replays = 0
        self._stream_index: dict[int, int] = {}
        self._recorded: dict[int, int] = {}  # id(event) -> op index
        self._by_tag: dict[str, GraphOp] = {}
        self._program: list | None = None

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LaunchGraph({self.name!r}, {self.state}, {len(self.ops)} ops,"
            f" {len(self.streams)} streams, replays={self.replays})"
        )

    # -- capture lifecycle ---------------------------------------------------

    @classmethod
    def capture(
        cls, streams: Sequence[Stream], name: str | None = None
    ) -> _CaptureContext:
        """Context manager: begin on entry, end on exit, abort on error."""
        return _CaptureContext(cls(name), list(streams))

    def begin(self, *streams: Stream) -> "LaunchGraph":
        """Start recording: capturable ops on ``streams`` are captured,
        not executed, until :meth:`end`."""
        if self.state != "idle":
            raise GraphCaptureError(
                f"graph {self.name!r} is {self.state}; begin() needs a "
                "fresh graph"
            )
        if not streams:
            raise GraphCaptureError("capture needs at least one stream")
        if len({id(s) for s in streams}) != len(streams):
            raise GraphCaptureError("duplicate stream in capture set")
        attached: list[Stream] = []
        try:
            for s in streams:
                s._begin_capture(self)
                attached.append(s)
        except BaseException:
            for s in attached:
                s._end_capture(self)
            raise
        self.streams = list(streams)
        self._stream_index = {id(s): i for i, s in enumerate(streams)}
        self.state = "capturing"
        return self

    def end(self) -> "LaunchGraph":
        """Stop recording and detach from the streams."""
        if self.state != "capturing":
            raise GraphCaptureError(
                f"graph {self.name!r} is {self.state}, not capturing"
            )
        for s in self.streams:
            s._end_capture(self)
        self.state = "captured"
        return self

    def abort(self) -> None:
        """Detach from the streams and mark this graph unusable."""
        for s in self.streams:
            s._end_capture(self)
        self.state = "dead"

    # -- recording hooks (called by Stream while capturing) -----------------

    def _sidx(self, stream: Stream) -> int:
        try:
            return self._stream_index[id(stream)]
        except KeyError:  # pragma: no cover - stream._capture guards this
            raise GraphCaptureError(
                f"stream {stream.name!r} is not part of graph {self.name!r}"
            ) from None

    def _add(self, op: GraphOp):
        if self.state != "capturing":
            raise GraphCaptureError(
                f"graph {self.name!r} is {self.state}; op arrived outside "
                "an active capture"
            )
        self.ops.append(op)
        return op

    def _record_htod(self, stream, ptr, data, tag) -> _CapturedFuture:
        op = self._add(GraphOp(
            kind="htod", stream=self._sidx(stream), label="memcpy_htod",
            tag=tag, ptr=ptr, data=data, nbytes=int(data.nbytes),
        ))
        return _CapturedFuture(op)

    def _record_launch(
        self, stream, lk, grid, block, params, tag, kwargs
    ) -> _CapturedFuture:
        if "trace" in kwargs:
            raise GraphCaptureError(
                "per-launch trace hooks are host-side consumers and "
                "cannot be captured into a graph"
            )
        op = self._add(GraphOp(
            kind="launch", stream=self._sidx(stream), label="launch",
            tag=tag, lk=lk, grid=grid, block=block,
            params=dict(params or {}), kwargs=dict(kwargs),
        ))
        return _CapturedFuture(op)

    def _record_record(self, stream, event: Event) -> None:
        self._add(GraphOp(
            kind="record", stream=self._sidx(stream), label="record_event",
            event=event,
        ))
        self._recorded[id(event)] = len(self.ops) - 1

    def _record_wait(self, stream, event: Event) -> None:
        self._add(GraphOp(
            kind="wait", stream=self._sidx(stream), label="wait_event",
            event=event,
        ))

    def _record_peer(
        self, stream, src, dst_device, dst, nwords, hops
    ) -> _CapturedFuture:
        op = self._add(GraphOp(
            kind="peer", stream=self._sidx(stream), label="memcpy_peer",
            ptr=src, dst_device=dst_device, dst=dst, nwords=nwords,
            hops=hops, nbytes=4 * nwords,
        ))
        return _CapturedFuture(op)

    # -- instantiation -------------------------------------------------------

    def instantiate(self) -> "LaunchGraph":
        """Validate the captured DAG and freeze per-op closures.

        Checks, in capture order: every wait references an event recorded
        earlier *in this capture* (no cross-capture or forward waits —
        the replay would deadlock or order against a stale cycle); every
        peer copy stays inside the captured devices' heaps; tags are
        unique and rebindable.  Idempotent once ready.
        """
        if self.state == "ready":
            return self
        if self.state != "captured":
            raise GraphError(
                f"graph {self.name!r} is {self.state}; end() the capture "
                "before instantiate()"
            )
        if not self.ops:
            raise GraphValidationError(
                f"graph {self.name!r} captured no operations"
            )
        devices = {id(s.device) for s in self.streams}
        recorded: set[int] = set()
        for i, op in enumerate(self.ops):
            if op.kind == "record":
                recorded.add(id(op.event))
            elif op.kind == "wait":
                if id(op.event) not in recorded:
                    raise GraphValidationError(
                        f"op {i} of graph {self.name!r} waits on event "
                        f"{op.event.name!r}, which is not recorded earlier "
                        "in this capture — pre-capture and cross-capture "
                        "events cannot order replayed work"
                    )
            elif op.kind == "peer":
                if id(op.dst_device) not in devices:
                    raise GraphValidationError(
                        f"op {i} of graph {self.name!r} peer-copies to "
                        "a device outside the captured streams — the "
                        "dependency set must be closed"
                    )
            if op.tag is not None:
                if op.kind not in _REBINDABLE:
                    raise GraphValidationError(
                        f"tag {op.tag!r} on non-rebindable "
                        f"'{op.label}' op"
                    )
                if op.tag in self._by_tag:
                    raise GraphValidationError(
                        f"duplicate rebind tag {op.tag!r} in graph "
                        f"{self.name!r}"
                    )
                self._by_tag[op.tag] = op
        self._program = [self._freeze(op) for op in self.ops]
        self.state = "ready"
        return self

    def _freeze(self, op: GraphOp):
        """One closure per op, binding everything resolvable now.

        Each closure replicates exactly the simulated-cursor arithmetic
        of the corresponding ``Stream`` op — the bit-identity contract.
        """
        stream = self.streams[op.stream]
        device = stream.device
        if op.kind == "htod":

            def run_htod(result: ReplayResult, op=op, stream=stream,
                         device=device) -> None:
                op.begin_cycle = stream.cycles
                device.memcpy_htod(op.ptr, op.data)
                stream.cycles = op.end_cycle = (
                    stream.cycles + stream._copy_cycles(op.data.nbytes)
                )

            return run_htod
        if op.kind == "launch":

            def run_launch(result: ReplayResult, op=op, stream=stream,
                           device=device) -> None:
                op.begin_cycle = stream.cycles
                r = device.launch(
                    op.lk, op.grid, op.block, params=op.params,
                    stream=stream.name, **op.kwargs,
                )
                stream.cycles = op.end_cycle = stream.cycles + r.cycles
                result.launches.append(r)

            return run_launch
        if op.kind == "record":

            def run_record(result: ReplayResult, op=op,
                           stream=stream) -> None:
                op.begin_cycle = op.end_cycle = stream.cycles
                op.event._fire(stream.cycles)  # re-fires every replay

            return run_record
        if op.kind == "wait":

            def run_wait(result: ReplayResult, op=op, stream=stream) -> None:
                op.begin_cycle = stream.cycles
                # Validation guarantees the record already replayed, so
                # the wait is purely a timeline merge — no host blocking.
                stream.cycles = op.end_cycle = max(
                    stream.cycles, op.event.cycle or 0.0
                )

            return run_wait
        if op.kind == "peer":

            def run_peer(result: ReplayResult, op=op, stream=stream,
                         device=device) -> None:
                op.begin_cycle = stream.cycles
                data = device.memcpy_dtoh(op.ptr, op.nwords)
                op.dst_device.memcpy_htod(op.dst, data)
                stream.cycles = op.end_cycle = (
                    stream.cycles + op.hops * stream._copy_cycles(op.nbytes)
                )

            return run_peer
        raise GraphError(f"unknown op kind {op.kind!r}")  # pragma: no cover

    # -- rebinding -----------------------------------------------------------

    def bind(self, binds: Mapping[str, object]) -> "LaunchGraph":
        """Rebind tagged ops' parameters for subsequent replays.

        ``binds`` maps capture-time tags to new values: for ``htod`` ops
        a host array (same dtype and byte count) or a ``{"ptr": ...,
        "data": ...}`` mapping to also retarget the destination (e.g.
        after ``Device.reset`` re-allocation); for ``launch`` ops a dict
        of parameter overrides merged into the captured params.
        """
        for tag, value in binds.items():
            op = self._by_tag.get(tag)
            if op is None:
                raise GraphError(
                    f"graph {self.name!r} has no rebind tag {tag!r}; "
                    f"known tags: {sorted(self._by_tag)}"
                )
            if op.kind == "htod":
                ptr = None
                data = value
                if isinstance(value, Mapping):
                    ptr = value.get("ptr")
                    data = value.get("data")
                if data is not None:
                    arr = np.ascontiguousarray(data)
                    if (arr.nbytes != op.nbytes
                            or arr.dtype != op.data.dtype):
                        raise GraphError(
                            f"rebind {tag!r}: expected {op.nbytes} bytes "
                            f"of {op.data.dtype}, got {arr.nbytes} bytes "
                            f"of {arr.dtype}"
                        )
                    op.data = arr
                if ptr is not None:
                    op.ptr = ptr
            else:  # launch (validation restricts tags to _REBINDABLE)
                if not isinstance(value, Mapping):
                    raise GraphError(
                        f"rebind {tag!r}: launch ops take a mapping of "
                        f"param overrides, got {type(value).__name__}"
                    )
                unknown = set(value) - set(op.params)
                if unknown:
                    raise GraphError(
                        f"rebind {tag!r}: unknown launch params "
                        f"{sorted(unknown)}; captured params are "
                        f"{sorted(op.params)}"
                    )
                op.params.update(value)
        return self

    # -- replay --------------------------------------------------------------

    def replay(
        self, binds: Mapping[str, object] | None = None
    ) -> ReplayResult:
        """Re-execute the captured epoch; returns one :class:`ReplayResult`.

        Ops run in capture order on the calling thread — validation made
        that a topological order, so no worker handoffs, futures or
        per-op spans are needed.  Requires every captured stream to be
        idle (healthy, open, nothing in flight): replayed cursor math
        composes with in-flight FIFO ops in unspecified order otherwise.
        """
        if self.state != "ready":
            raise GraphError(
                f"graph {self.name!r} is {self.state}; instantiate() it "
                "before replay()"
            )
        for s in self.streams:
            if s._closed:
                raise GraphError(
                    f"graph {self.name!r}: captured stream {s.name!r} "
                    "is closed"
                )
            if s._error is not None:
                raise StreamError(
                    f"graph {self.name!r}: captured stream {s.name!r} "
                    "aborted by an earlier failure"
                ) from s._error
            if s.depth:
                raise GraphError(
                    f"graph {self.name!r}: stream {s.name!r} has "
                    f"{s.depth} in-flight ops; synchronize before replay"
                )
        if binds:
            self.bind(binds)
        result = ReplayResult(graph=self)
        result.begin_cycles = tuple(s.cycles for s in self.streams)
        wall0 = _telemetry.now_s()
        with _telemetry.span(
            "cudasim.graph.replay",
            graph=self.name, ops=len(self.ops), replay=self.replays,
        ) as sp:
            for run in self._program:
                run(result)
            result.end_cycles = tuple(s.cycles for s in self.streams)
            sp.set(
                cycles=max(result.stream_deltas, default=0.0),
                launches=len(result.launches),
            )
        self.replays += 1
        if _telemetry.enabled():
            parent = getattr(getattr(sp, "_record", None), "span_id", None)
            self._synthesize_spans(wall0, _telemetry.now_s(), parent)
        return result

    def _synthesize_spans(
        self, wall0: float, wall1: float, parent_id: int | None
    ) -> None:
        """Reconstruct child op spans from the recorded simulated cycles.

        Replay pays no per-op span cost, so the Chrome trace would show
        one opaque block; this maps each op's simulated interval onto the
        replay's wall window (linear scale) and appends the spans after
        the fact, preserving per-stream tracks and overlap shape.
        """
        c0 = min(op.begin_cycle for op in self.ops)
        c1 = max(op.end_cycle for op in self.ops)
        scale = max(wall1 - wall0, 0.0) / max(c1 - c0, 1.0)
        for op in self.ops:
            stream = self.streams[op.stream]
            attrs = {
                "stream": stream.name,
                "device": getattr(stream.device, "name", None) or "device",
                "graph": self.name,
                "replayed": True,
                "sim_begin_cycle": op.begin_cycle,
                "sim_end_cycle": op.end_cycle,
            }
            if op.kind == "launch":
                attrs.update(kernel=op.lk.name, grid=op.grid, block=op.block)
            elif op.kind in ("htod", "peer"):
                attrs["nbytes"] = op.nbytes
            elif op.event is not None:
                attrs["event"] = op.event.name
            _telemetry.synthesize_span(
                f"cudasim.stream.{op.label}",
                wall0 + (op.begin_cycle - c0) * scale,
                wall0 + (op.end_cycle - c0) * scale,
                attrs,
                parent_id=parent_id,
            )

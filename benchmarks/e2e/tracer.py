"""Outside-in layer timing for the end-to-end benchmark.

The traced run patches the public callables of each layer, at the name
its caller looks up, with a wrapper that records one span per call:
``(span id, parent id, thread, name, start, end, op, info)``.  Spans go
on per-thread stacks, so a span's parent is the innermost open span on
the same thread, and stay in memory until the child process exits.

A span's *self time* is its duration minus its child spans.  Self times
partition every root span's interval, so a layer's share is the sum of
its spans' self times over the thread-summed busy time.  Spans named
``bench.*`` are the harness's own roots (their self time is the part
no layer claims); ``dispatch.synchronize`` is a wait, not work, and is
excluded from busy time.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

#: Span name prefix -> layer.  Every wrapped callable maps to one layer.
LAYER_OF = {
    "gravit": "gravit",
    "service": "service",
    "dispatch": "dispatch",
    "graph": "dispatch",
    "copy": "copy",
    "xfer": "copy",
    "compile": "compile",
    "codegen": "codegen",
    "launch": "launch",
    "engine": "engine",
    "exec": "exec",
    "memory": "memory",
}

#: Layers in report order (outermost first).
LAYERS = (
    "gravit", "service", "dispatch", "copy", "compile", "codegen",
    "launch", "engine", "exec", "memory",
)

WAIT_SPANS = frozenset({"dispatch.synchronize"})


class Tracer:
    """In-memory span recorder with per-thread stacks.

    ``op`` labels the spans recorded from now on (``"setup"``, a timed
    op index, ``"teardown"``); a thread can override it with
    :meth:`set_thread_op` (service client threads, job workers).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: object = "setup"
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            return self._tls.stack

    def set_thread_op(self, op) -> None:
        self._tls.op = op

    def _current_op(self):
        op = getattr(self._tls, "op", None)
        return self.op if op is None else op

    def call(self, name: str, fn, *args, op=None, **kwargs):
        """Run ``fn`` inside a span (for low-frequency harness spans)."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((
                sid, parent, threading.get_ident(), name, t0, t1,
                self._current_op() if op is None else op, None,
            ))

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``info(result)`` (optional) extracts counters from the return
        value into the span's ``info`` slot.
        """
        raw = owner.__dict__[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        spans, ids, tls = self.spans, self._ids, self._tls
        clock, get_ident = time.perf_counter, threading.get_ident
        stack_of, current_op = self._stack, self._current_op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans.append((
                    sid, parent, get_ident(), name, t0, t1, current_op(),
                    info(result) if info and result is not None else None,
                ))

        self.patch(owner, attr, staticmethod(traced) if static else traced)

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def dump(self, path: str, workload: str, resolve) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, thread, name, t0, t1, op, info in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "thread": thread,
                    "name": name, "start": t0, "end": t1,
                    "workload": workload, "op": str(op),
                    "phase": resolve(op),
                }) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer's public callables (see README's layer table)."""
    from repro.core import coalescing
    from repro.cudasim import executor, fastpath, graph, kernel_cache, launch
    from repro.cudasim import memory, pipeline, stream
    from repro.cudasim.xfer import pipeline as xfer_pipeline
    from repro.gravit import gpu_driver, simulation_api
    from repro.service import service

    w = tracer.wrap
    # gravit: the front door and the drivers.
    w(simulation_api.Simulation, "create", "gravit.create")
    for cls in (gpu_driver.GpuSimulation, gpu_driver.OutOfCoreSimulation):
        for attr in ("step", "download", "download_forces", "close"):
            w(cls, attr, f"gravit.{attr}")
    w(gpu_driver.GpuForceBackend, "calibrate", "gravit.calibrate")
    w(gpu_driver.GpuForceBackend, "predict_seconds", "gravit.predict")
    # service: the front desk; job bodies are rooted by the submit wrapper.
    w(service.SimulationService, "__init__", "service.init")
    w(service.SimulationService, "submit", "service.submit")
    _wrap_stream_submit(tracer, stream.Stream)
    # dispatch: streams and graphs.
    for attr, name in (
        ("launch_async", "dispatch.launch_async"),
        ("memcpy_htod_async", "dispatch.htod_async"),
        ("memcpy_dtoh_async", "dispatch.dtoh_async"),
        ("record_event", "dispatch.record_event"),
        ("wait_event", "dispatch.wait_event"),
        ("synchronize", "dispatch.synchronize"),
    ):
        w(stream.Stream, attr, name)
    w(graph.LaunchGraph, "instantiate", "graph.instantiate")
    w(graph.LaunchGraph, "replay", "graph.replay")
    # copy: host<->device copies and the tile pipeline.
    w(launch.Device, "memcpy_htod", "copy.htod")
    w(launch.Device, "memcpy_dtoh", "copy.dtoh")
    w(xfer_pipeline.TransferPipeline, "stage", "xfer.stage")
    # compile and codegen.
    w(kernel_cache.KernelCache, "get_or_compile", "compile.get")
    w(launch, "lower_kernel", "compile.lower")
    w(fastpath, "compile_fastpath", "codegen.fastpath")
    # launch, SM engine, execution tier.
    w(launch.Device, "launch", "launch", info=_launch_info)
    w(launch, "run_sms", "engine")
    w(executor.SMExecutor, "__init__", "exec.init")
    w(fastpath.FastSMExecutor, "__init__", "exec.init")
    w(executor.SMExecutor, "run", "exec.run")
    # memory model.
    for cls in _subclasses(coalescing.CoalescingPolicy):
        if "transactions" in cls.__dict__:
            w(cls, "transactions", "memory.coalesce")
    w(pipeline.MemoryPipeline, "request", "memory.pipeline")
    for cls, name in ((memory.GlobalMemory, "memory.global"),
                      (memory.SharedMemory, "memory.shared")):
        w(cls, "gather", name)
        w(cls, "scatter", name)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _launch_info(result):
    mem = result.stats.memory
    return (result.stats.warp_instructions, mem.transactions, mem.requests)


def _wrap_stream_submit(tracer: Tracer, stream_cls) -> None:
    """``Stream.submit`` is a dispatch span on the caller's thread; the
    closure it queues becomes a ``service.job`` root span on the stream
    worker, labelled with the job id the service passes as ``job=``."""
    raw = stream_cls.__dict__["submit"]

    @functools.wraps(raw)
    def submit(self, label, fn, **attrs):
        job = attrs.get("job")
        if job is None:
            return tracer.call("dispatch.submit", raw, self, label, fn,
                               **attrs)

        def run_job():
            tracer.set_thread_op(job)
            try:
                return tracer.call("service.job", fn, op=job)
            finally:
                tracer.set_thread_op(None)

        return tracer.call("dispatch.submit", raw, self, label, run_job,
                           op=job, **attrs)

    tracer.patch(stream_cls, "submit", submit)


# -- aggregation --------------------------------------------------------------


def layer_metrics(spans, resolve, n_ops: int, counters: dict) -> dict:
    """Per-layer metrics of one traced child.

    ``resolve(op)`` maps a span's op label to ``"setup"``, ``"op"`` or
    anything else (ignored).  Unprefixed metrics are per timed op;
    ``setup.*`` metrics are totals of the set-up phase.  ``counters``
    carries the harness's deltas: ``vec`` (fastpath dispatch counters
    over the timed phase) and ``cache_misses`` (kernel-cache misses of
    the ``"setup"`` and ``"op"`` phases).
    """
    child_time: dict[int, float] = defaultdict(float)
    has_lower: set[int] = set()
    for sid, parent, _, name, t0, t1, _, _ in spans:
        if parent:
            child_time[parent] += t1 - t0
            if name == "compile.lower":
                has_lower.add(parent)

    acc = {ph: defaultdict(float) for ph in ("setup", "op")}
    for sid, parent, _, name, t0, t1, op, info in spans:
        phase = resolve(op)
        if phase not in acc:
            continue
        a = acc[phase]
        dur = t1 - t0
        self_s = dur - child_time.get(sid, 0.0)
        if parent == 0:
            a["busy"] += dur
        if name in WAIT_SPANS:
            a["wait"] += dur
            continue
        prefix = name.split(".", 1)[0]
        layer = LAYER_OF.get(prefix)
        if layer is None:  # a harness root: its self time is unclaimed
            continue
        a[f"{layer}.self"] += self_s
        if layer in ("dispatch", "copy"):
            a[f"{layer}.calls"] += 1
        if name == "graph.replay":
            a["graph.replays"] += 1
        elif name == "gravit.create":
            a["create"] += dur
        elif name == "compile.get":
            a["compile.calls"] += 1
            a["compile.miss_s" if sid in has_lower else "compile.hit_s"] += dur
        elif name == "compile.lower":
            a["compile.misses"] += 1
        elif name == "codegen.fastpath":
            a["codegen.calls"] += 1
            a["codegen.s"] += dur
        elif name == "launch":
            a["launch.calls"] += 1
            if info is not None:
                a["warp_instr"] += info[0]
                a["txns"] += info[1]
                a["requests"] += info[2]
        elif name == "exec.run":
            a["exec.sm_runs"] += 1
            a["exec.run_s"] += dur
        elif name == "exec.init":
            a["exec.init_s"] += self_s
        elif name.startswith("memory."):
            a[name] += self_s

    op_a = acc["op"]
    per = 1.0 / max(n_ops, 1)
    busy = op_a["busy"] - op_a["wait"]
    named = sum(op_a[f"{layer}.self"] for layer in LAYERS)
    vec, misses = counters["vec"], counters["cache_misses"]
    vwarps, vfall = vec["warps"], vec["fallbacks"]
    winstr = op_a["warp_instr"]
    out = {
        "gravit.create_s": op_a["create"] * per,
        "gravit.self_s": op_a["gravit.self"] * per,
        "service.self_s": op_a["service.self"] * per,
        "dispatch.calls": op_a["dispatch.calls"] * per,
        "dispatch.self_s": op_a["dispatch.self"] * per,
        "dispatch.wait_s": op_a["wait"] * per,
        "graph.replays": op_a["graph.replays"] * per,
        "copy.calls": op_a["copy.calls"] * per,
        "copy.self_s": op_a["copy.self"] * per,
        "compile.calls": op_a["compile.calls"] * per,
        "compile.misses": op_a["compile.misses"] * per,
        "compile.miss_s": op_a["compile.miss_s"] * per,
        "compile.hit_s": op_a["compile.hit_s"] * per,
        "codegen.calls": op_a["codegen.calls"] * per,
        "codegen.misses": (misses["op"] - op_a["compile.misses"]) * per,
        "codegen.s": op_a["codegen.s"] * per,
        "launch.calls": op_a["launch.calls"] * per,
        "launch.self_s": op_a["launch.self"] * per,
        "engine.self_s": op_a["engine.self"] * per,
        "exec.sm_runs": op_a["exec.sm_runs"] * per,
        "exec.init_s": op_a["exec.init_s"] * per,
        "exec.self_s": (op_a["exec.self"] - op_a["exec.init_s"]) * per,
        "exec.warp_instr": winstr * per,
        "exec.ns_per_warp_instr": (
            1e9 * op_a["exec.run_s"] / winstr if winstr else 0.0
        ),
        "fastpath.vec_instr_frac": (
            vec["instructions"] / winstr if winstr else 0.0
        ),
        "fastpath.fallback_frac": (
            vfall / (vwarps + vfall) if vwarps + vfall else 0.0
        ),
        "fastpath.warps_per_dispatch": (
            vwarps / vec["dispatches"] if vec["dispatches"] else 0.0
        ),
        "memory.coalesce_s": op_a["memory.coalesce"] * per,
        "memory.pipeline_s": op_a["memory.pipeline"] * per,
        "memory.global_s": op_a["memory.global"] * per,
        "memory.shared_s": op_a["memory.shared"] * per,
        "memory.txns": op_a["txns"] * per,
        "memory.txn_per_request": (
            op_a["txns"] / op_a["requests"] if op_a["requests"] else 0.0
        ),
        "trace.busy_s": busy * per,
        "trace.coverage": named / busy if busy > 0 else 0.0,
    }
    setup_a = acc["setup"]
    out["setup.create_s"] = setup_a["create"]
    for layer in LAYERS:
        out[f"setup.{layer}_s"] = setup_a[f"{layer}.self"]
    out["setup.compile_misses"] = setup_a["compile.misses"]
    out["setup.codegen_misses"] = misses["setup"] - setup_a["compile.misses"]
    return out

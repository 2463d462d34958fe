"""Host-side driver API: compile, allocate, copy, launch.

:class:`Device` is the simulator's answer to the CUDA runtime: it owns the
global memory, the toolchain (whose coalescing policy the paper varies),
and kernel launches.  :func:`compile_kernel` is the "nvcc" stage — it runs
the transform pipeline (LICM, unrolling, peephole), lowers, and allocates
registers, producing the per-thread register count that the occupancy
calculator consumes at launch time.  Compilation is memoized through the
content-addressed :mod:`repro.cudasim.kernel_cache`, and
:meth:`Device.stream` opens the asynchronous, CUDA-streams-style queue API
of :mod:`repro.cudasim.stream`.

Example::

    dev = Device(toolchain=Toolchain.CUDA_1_0)
    lk = dev.compile(kernel, CompileOptions(unroll=Unroll.FULL, licm=True))
    with dev.stream() as s:
        buf = dev.malloc(layout.size_bytes)
        s.memcpy_htod_async(buf, layout.pack(arrays))
        h = s.launch_async(lk, grid=313, block=128, params={"pos": buf, "n": n})
        s.synchronize()
    print(h.result().stats.summary(), h.result().time_ms)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..core.coalescing import CoalescingPolicy, policy_for
from ..telemetry import runtime as _telemetry
from .device import DeviceProperties, G8800GTX, Toolchain
from .envflags import env_choice, env_float
from .errors import LaunchError
from .executor import ENGINE_ENV, SM_ENGINES, run_sms
from .fastpath import fastpath_mode
from .ir import Kernel
from .kernel_cache import CompileOptions, KernelCache, default_cache
from .lower import LoweredKernel, lower
from .memory import DevicePtr, GlobalMemory
from .occupancy import OccupancyResult, occupancy
from .profiler import KernelStats
from .profiler import runtime as _profiler
from .regalloc import allocate
from .transforms import (
    eliminate_dead_code,
    fold_constants,
    hoist_invariants,
    unroll_loops,
)

__all__ = [
    "Device",
    "LaunchResult",
    "compile_kernel",
    "lower_kernel",
    "EVENT_TIMEOUT_ENV",
    "DEFAULT_EVENT_TIMEOUT",
]

#: Default simulated heap: big enough for a million 32-byte records plus
#: headroom, small enough to allocate instantly on the host.
DEFAULT_HEAP_BYTES = 192 * 1024 * 1024

#: Environment override for the default cross-stream event-wait timeout
#: (host seconds; ``inf`` waits forever).  See ``Device(event_timeout=)``.
EVENT_TIMEOUT_ENV = "REPRO_EVENT_TIMEOUT"

#: Default wall-clock guard on ``Stream.wait_event`` — generous enough
#: for saturated service queues, finite so a wait on an event nobody
#: records still surfaces as an error instead of a hang.
DEFAULT_EVENT_TIMEOUT = 60.0

_UNSET = object()


def lower_kernel(kernel: Kernel, options: CompileOptions) -> LoweredKernel:
    """The uncached compilation pipeline: validate, transform, lower,
    allocate registers.  Register allocation runs last so ``reg_count``
    reflects the optimized code."""
    if options.validate:
        from .validation import check_or_raise

        check_or_raise(kernel)
    k = kernel
    if options.licm:
        k = hoist_invariants(k)
    k = unroll_loops(k, override=options.unroll)
    lk = lower(k)
    if options.dce:
        fold_constants(lk)
        eliminate_dead_code(lk)
    allocate(lk, max_registers=options.max_registers)
    return lk


def compile_kernel(
    kernel: Kernel,
    options: CompileOptions | None = None,
    *,
    cache: KernelCache | None | object = _UNSET,
    toolchain: Toolchain | None = None,
) -> LoweredKernel:
    """Lower a kernel through the optimization pipeline (memoized).

    The configuration lives in ``options`` (:class:`CompileOptions`):
    ``unroll`` overrides the innermost-loop pragma, ``licm`` enables
    invariant code motion (the paper's manual optimization), ``dce`` runs
    constant folding + dead-code elimination, ``validate`` runs the
    static checker first.  Results are memoized in ``cache`` (default:
    the process-wide cache) keyed by the kernel's IR hash, the options
    and ``toolchain``; pass ``cache=None`` to force a fresh compilation.
    """
    if options is None:
        options = CompileOptions()
    cache_obj = default_cache() if cache is _UNSET else cache
    if cache_obj is None:
        return lower_kernel(kernel, options)
    return cache_obj.get_or_compile(
        kernel, options, lower_kernel, toolchain=toolchain
    )


@dataclass
class LaunchResult:
    """Outcome of one simulated kernel launch."""

    kernel_name: str
    grid: int
    block: int
    cycles: float
    stats: KernelStats
    occupancy: OccupancyResult
    device: DeviceProperties = field(repr=False, default=G8800GTX)
    #: Per-SM counter snapshots, index-aligned with ``stats.sm_cycles``
    #: (only SMs that received blocks appear).  The timeline exporter
    #: reads these to draw one slice + memory-pipe track per SM.
    sm_stats: list[KernelStats] = field(repr=False, default_factory=list)
    #: Merged :class:`~repro.cudasim.profiler.KernelProfile` when the
    #: launch ran with the profiler enabled, else ``None``.
    profile: object | None = field(repr=False, default=None)

    @property
    def time_s(self) -> float:
        return self.device.cycles_to_seconds(self.cycles)

    @property
    def time_ms(self) -> float:
        return 1e3 * self.time_s


class Device:
    """A simulated GPU + driver of a given CUDA toolchain revision.

    ``sm_engine`` selects how cycle simulation distributes SMs:
    ``"serial"`` (the historical loop) or ``"process"`` (a
    ``concurrent.futures`` process pool; see
    :func:`repro.cudasim.executor.run_sms`).
    Defaults to the ``REPRO_SM_ENGINE`` environment variable, else serial.
    ``cache`` is the kernel-compilation cache :meth:`compile` consults
    (default: the process-wide cache; pass ``None`` to disable).
    ``fastpath`` selects the execution mode of
    :mod:`repro.cudasim.fastpath` (bit-identical to the reference
    interpreter): ``0``/``False`` interpreter, ``2``/``True`` compiled;
    any other value raises :class:`ValueError`.  It defaults to the
    ``REPRO_EXEC_FASTPATH`` environment variable, else mode 2; the
    resolved mode is exposed as :attr:`fastpath_mode` (``fastpath`` is
    a read-only boolean view of it).
    ``name`` labels this device in telemetry spans and Chrome-trace
    tracks (:class:`~repro.cudasim.device_group.DeviceGroup` names its
    members ``dev0``, ``dev1``, …).
    """

    def __init__(
        self,
        props: DeviceProperties = G8800GTX,
        toolchain: Toolchain = Toolchain.CUDA_1_0,
        heap_bytes: int = DEFAULT_HEAP_BYTES,
        sm_engine: str | None = None,
        cache: KernelCache | None | object = _UNSET,
        fastpath: bool | int | None = None,
        name: str | None = None,
        event_timeout: float | None = None,
    ) -> None:
        self.props = props
        self.toolchain = toolchain
        self.name = name
        # Default wall-clock guard for Stream.wait_event on this device's
        # streams (host seconds).  None defers to REPRO_EVENT_TIMEOUT,
        # else 60 s; math.inf (or REPRO_EVENT_TIMEOUT=inf) waits forever.
        if event_timeout is None:
            event_timeout = env_float(EVENT_TIMEOUT_ENV, DEFAULT_EVENT_TIMEOUT)
        if event_timeout <= 0:
            raise ValueError(
                f"event_timeout must be > 0 seconds, got {event_timeout!r}"
            )
        self.event_timeout = float(event_timeout)
        self.policy: CoalescingPolicy = policy_for(toolchain)
        self.gmem = GlobalMemory(min(heap_bytes, props.global_mem_bytes))
        engine = sm_engine or env_choice(ENGINE_ENV, SM_ENGINES, "serial")
        if engine not in SM_ENGINES:
            raise LaunchError(
                f"unknown SM engine {engine!r}; choose from {SM_ENGINES}"
            )
        self.sm_engine = engine
        self.fastpath_mode = fastpath_mode(fastpath)
        self._cache = cache
        self._streams: list = []
        self._launch_lock = threading.Lock()

    @property
    def fastpath(self) -> bool:
        """Whether any compiled fast path is active (mode > 0)."""
        return self.fastpath_mode > 0

    # -- compilation ---------------------------------------------------------

    def compile(
        self, kernel: Kernel, options: CompileOptions | None = None
    ) -> LoweredKernel:
        """Compile ``kernel`` for this device, keyed by its toolchain.

        Equivalent to :func:`compile_kernel` with ``toolchain=self.toolchain``
        — two devices of different toolchain revisions never share a
        cache entry, mirroring per-``nvcc`` object files.
        """
        return compile_kernel(
            kernel, options or CompileOptions(),
            cache=self._cache, toolchain=self.toolchain,
        )

    # -- streams -------------------------------------------------------------

    def stream(self, name: str | None = None):
        """Open an asynchronous work queue (see :mod:`repro.cudasim.stream`)."""
        from .stream import Stream

        s = Stream(self, name=name)
        self._streams.append(s)
        return s

    def synchronize(self) -> None:
        """Block until every stream created on this device has drained."""
        for s in list(self._streams):
            s.synchronize()

    def queue_depth(self) -> int:
        """Submitted-but-unfinished ops across this device's streams.

        The host-side load signal schedulers (the simulation service)
        use for placement and backpressure decisions.
        """
        return sum(s.depth for s in list(self._streams))

    # -- memory management ---------------------------------------------------

    def malloc(self, nbytes: int) -> DevicePtr:
        return self.gmem.alloc(nbytes)

    def free(self, ptr: DevicePtr) -> None:
        self.gmem.free(ptr)

    def reset(self) -> None:
        self.gmem.reset()

    def memcpy_htod(self, ptr: DevicePtr | int, data: np.ndarray) -> None:
        self.gmem.write(ptr, data)

    def memcpy_dtoh(self, ptr: DevicePtr | int, nwords: int) -> np.ndarray:
        return self.gmem.read(ptr, nwords)

    # -- launching ---------------------------------------------------------------

    def launch(
        self,
        lk: LoweredKernel,
        grid: int,
        block: int,
        params: Mapping[str, object] | None = None,
        sm_count: int | None = None,
        max_resident_blocks: int | None = None,
        trace=None,
        stream: str | None = None,
    ) -> LaunchResult:
        """Cycle-simulate a 1-D launch.

        ``sm_count`` restricts the simulation to that many SMs (used by
        the hybrid timing mode to measure one representative SM);
        ``max_resident_blocks`` overrides the occupancy calculator (for
        what-if experiments); ``trace`` is an optional
        :class:`repro.cudasim.trace.TraceRecorder`-style hook invoked on
        every global access (forces the serial engine); ``stream`` tags
        the telemetry span with the issuing stream's name.  Launch time
        is ``max`` over the SMs' finish cycles.  SMs are simulated by the
        device's ``sm_engine`` — results are merged in SM order, so all
        engines produce identical stats and heap contents.
        """
        if grid <= 0:
            raise LaunchError(f"grid must be positive, got {grid}")
        occ = occupancy(
            self.props, block, max(1, lk.reg_count), 4 * lk.shared_words
        )
        resident = max_resident_blocks or occ.blocks_per_sm
        n_sms = min(sm_count or self.props.num_sms, self.props.num_sms, grid)

        values = dict(params or {})
        missing = set(lk.kernel.params) - set(values)
        if missing:
            raise LaunchError(f"missing kernel parameters: {sorted(missing)}")
        for name, v in values.items():
            if isinstance(v, DevicePtr):
                values[name] = int(v)

        assignments = [
            (sm, block_ids)
            for sm in range(n_sms)
            if (block_ids := list(range(sm, grid, n_sms)))
        ]
        stats = KernelStats()
        per_sm: list[KernelStats] = []
        end = 0.0
        span_attrs = {"kernel": lk.name, "grid": grid, "block": block}
        if stream is not None:
            span_attrs["stream"] = stream
        if self.name is not None:
            span_attrs["device"] = self.name
        profile_spec = _profiler.spec()
        with _telemetry.span("cudasim.launch", **span_attrs) as sp:
            # One cycle simulation at a time per device: concurrent streams
            # interleave on the simulated timeline, not on the host heap.
            with self._launch_lock:
                runs = run_sms(
                    self.props, self.policy, self.gmem, lk, values,
                    block, grid, assignments, resident,
                    engine=self.sm_engine, trace=trace,
                    fastpath=self.fastpath_mode, profile=profile_spec,
                )
            for run in runs:
                end = max(end, run.end_cycle)
                stats.merge(run.stats)
                per_sm.append(run.stats)
            stats.cycles = end
            sp.set(
                cycles=end,
                warp_instructions=stats.warp_instructions,
                transactions=stats.memory.transactions,
            )
        profile = None
        if profile_spec is not None:
            from .profiler import KernelProfile

            profile = KernelProfile.from_runs(
                lk, runs, self.props, self.toolchain, grid, block, end,
                occ, stats,
            )
        result = LaunchResult(
            kernel_name=lk.name,
            grid=grid,
            block=block,
            cycles=end,
            stats=stats,
            occupancy=occ,
            device=self.props,
            sm_stats=per_sm,
            profile=profile,
        )
        if profile is not None:
            session = _profiler.get()
            if session is not None:
                session.record(profile)
        _telemetry.record_launch(result)
        return result

"""Host-side GPU driver for the Gravit force kernel.

:class:`GpuForceBackend` owns a compiled kernel configuration (layout ×
block size × unroll × ICM × toolchain) and executes it in three modes:

``functional``
    numpy evaluation of the kernel's exact float32 tile arithmetic
    (:func:`repro.gravit.forces_cpu.direct_forces_f32_tiled`) — any n,
    instant, no timing.
``cycle``
    full cycle-level simulation on the device model — exact timing and
    numerics, practical for n up to a few thousand.
``hybrid``
    the scaling mode for the paper's 40 k – 1 M sweep: cycle-simulate one
    SM running its resident blocks for two slice counts, fit the paper's
    own Eq. 2 decomposition ``T = setup + nslices · slice_cost``, and
    extrapolate to any problem size (plus PCIe transfer time, since the
    paper times copy-in → kernel → copy-out).  Validated against full
    cycle simulation in the integration tests.
"""

from __future__ import annotations

import enum
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from ..core.layouts import LoadStep, MemoryLayout, make_layout
from ..cudasim import profiler as _profiler
from ..telemetry import runtime as _telemetry
from ..cudasim.device import DeviceProperties, G8800GTX, Toolchain
from ..cudasim.device_group import DeviceGroup
from ..cudasim.errors import GraphError
from ..cudasim.graph import LaunchGraph
from ..cudasim.kernel_cache import CompileOptions, Unroll
from ..cudasim.launch import Device, LaunchResult
from ..cudasim.lower import LoweredKernel
from ..cudasim.memory import DevicePtr
from ..cudasim.occupancy import occupancy
from ..cudasim.stream import Event, Stream
from ..cudasim.xfer import StagingBuffer, TilePlan, TransferPipeline, XferStats
from .forces_cpu import direct_forces_f32_tiled
from .gpu_kernels import (
    ALL_FIELDS,
    POSMASS_FIELDS,
    KernelPlan,
    build_force_kernel,
    build_force_kernel_ooc,
    build_integrate_kernel,
    column_param_names,
    step_param_names,
)
from .particles import ParticleSystem

__all__ = [
    "ExecutionMode",
    "GpuConfig",
    "GpuForceBackend",
    "GpuSimulation",
    "HybridTiming",
    "OutOfCoreSimulation",
    "PooledSimulation",
    "ShardedGpuSimulation",
    "PCIE_BYTES_PER_S",
    "device_buffers",
]


@contextmanager
def device_buffers(device: Device, *sizes: int):
    """Allocate device buffers that cannot leak.

    Yields one :class:`DevicePtr` per requested size and frees them all
    (in reverse order) on exit — including when the body, or a later
    allocation in the argument list, raises.  Replaces the hand-rolled
    ``try/finally`` malloc/free pairs that used to be copy-pasted around
    every launch.

    Teardown is all-or-nothing: a ``free`` that raises (e.g.
    :class:`~repro.cudasim.DoubleFreeError` for a buffer the body already
    released) does not stop the remaining buffers from being freed; the
    first failure is re-raised once every pointer has been returned —
    unless the body itself is already raising, in which case the body's
    exception propagates unmasked.
    """
    ptrs: list[DevicePtr] = []
    try:
        for nbytes in sizes:
            ptrs.append(device.malloc(nbytes))
        yield tuple(ptrs)
    finally:
        failure: BaseException | None = None
        for ptr in reversed(ptrs):
            try:
                device.free(ptr)
            except BaseException as exc:
                if failure is None:
                    failure = exc
        if failure is not None and sys.exc_info()[0] is None:
            raise failure


def _step_view(buf: DevicePtr, layout: MemoryLayout, step: LoadStep) -> DevicePtr:
    """Bounded sub-buffer of one load step's array inside ``buf``.

    The view spans exactly the step's records — kernels get a pointer
    whose extent matches the array it addresses instead of one computed
    by raw address arithmetic against the whole allocation.
    """
    extent = step.stride * (layout.n - 1) + step.vector.nbytes
    return buf.slice(step.base, extent)


def _step_params(
    buf: DevicePtr, layout: MemoryLayout, plan: KernelPlan, fields
) -> dict:
    """Per-step kernel pointer parameters for a layout living at ``buf``."""
    return {
        name: _step_view(buf, layout, step)
        for name, step in zip(plan.param_for_step, layout.read_plan(fields))
    }


class ExecutionMode(enum.Enum):
    """How :class:`GpuForceBackend` evaluates a configuration.

    Replaces the historical ``"functional" | "cycle" | "hybrid"`` string
    literals; :meth:`coerce` still accepts those spellings.
    """

    FUNCTIONAL = "functional"  #: numpy float32 math, no timing
    CYCLE = "cycle"  #: full cycle simulation — exact timing + numerics
    HYBRID = "hybrid"  #: one-SM calibration + Eq. 2 extrapolation

    @classmethod
    def coerce(cls, value: Union["ExecutionMode", str]) -> "ExecutionMode":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"unknown execution mode {value!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None

#: Effective host↔device bandwidth.  PCIe 1.1 x16 peaks at 4 GB/s; 2009-era
#: pinned-memory transfers sustained ~3 GB/s (measured values in the
#: bandwidthTest SDK sample of the period).
PCIE_BYTES_PER_S = 3.0e9


@dataclass(frozen=True)
class GpuConfig:
    """One point in the paper's optimization space."""

    layout_kind: str = "soaoas"
    block_size: int = 128
    unroll: int | str | Unroll | None = None  # None, factor, "full", Unroll
    licm: bool = False
    toolchain: Toolchain = Toolchain.CUDA_1_0
    eps: float = 1e-2
    g: float = 1.0

    def __post_init__(self) -> None:
        # Normalize Unroll.FULL / "full" to one canonical spelling so
        # equal configurations hash equal (GpuConfig keys result dicts).
        object.__setattr__(self, "unroll", Unroll.coerce(self.unroll))

    @property
    def compile_options(self) -> CompileOptions:
        """The compiler-option subspace of this configuration."""
        return CompileOptions(unroll=self.unroll, licm=self.licm)

    @property
    def label(self) -> str:
        bits = [self.layout_kind]
        if self.unroll:
            bits.append(
                "unroll" if self.unroll == "full" else f"unroll{self.unroll}"
            )
        if self.licm:
            bits.append("icm")
        return "+".join(bits)


@dataclass
class HybridTiming:
    """Fitted Eq. 2 model: per-SM cycles ≈ setup + nslices · slice_cost."""

    setup_cycles: float
    cycles_per_slice: float
    resident_blocks: int
    block_size: int
    device: DeviceProperties = field(repr=False, default=G8800GTX)

    def kernel_cycles(self, n: int, num_sms: int | None = None) -> float:
        """Predicted kernel wall-cycles for ``n`` particles."""
        k = self.block_size
        n_pad = -(-n // k) * k
        nslices = n_pad // k
        total_blocks = n_pad // k
        sms = num_sms or self.device.num_sms
        blocks_per_sm = -(-total_blocks // sms)
        waves = blocks_per_sm / self.resident_blocks
        return waves * (self.setup_cycles + nslices * self.cycles_per_slice)

    def kernel_seconds(self, n: int) -> float:
        return self.device.cycles_to_seconds(self.kernel_cycles(n))


class GpuForceBackend:
    """Far-field forces on the simulated GPU (paper Sec. IV)."""

    def __init__(
        self,
        config: GpuConfig | None = None,
        device: Device | None = None,
    ) -> None:
        self.config = config or GpuConfig()
        self.device = device or Device(toolchain=self.config.toolchain)
        if self.device.toolchain is not self.config.toolchain:
            raise ValueError(
                f"device toolchain {self.device.toolchain} != config "
                f"{self.config.toolchain}"
            )
        self._lowered: LoweredKernel | None = None
        self._plan: KernelPlan | None = None
        self._hybrid: HybridTiming | None = None

    # -- compilation -----------------------------------------------------

    def compile(self) -> LoweredKernel:
        """Compile (once) the kernel for this configuration.

        Goes through :meth:`Device.compile`, so repeated backends of the
        same configuration hit the process-wide kernel cache.
        """
        if self._lowered is None:
            cfg = self.config
            layout = make_layout(cfg.layout_kind, cfg.block_size)
            kernel, plan = build_force_kernel(
                layout, block_size=cfg.block_size
            )
            self._lowered = self.device.compile(kernel, cfg.compile_options)
            self._plan = plan
        return self._lowered

    @property
    def registers_per_thread(self) -> int:
        return self.compile().reg_count

    def occupancy(self):
        lk = self.compile()
        return occupancy(
            self.device.props,
            self.config.block_size,
            lk.reg_count,
            4 * lk.shared_words,
        )

    # -- functional mode ----------------------------------------------------

    def forces(self, system: ParticleSystem) -> np.ndarray:
        """Functional mode: the kernel's float32 math, via numpy."""
        return direct_forces_f32_tiled(
            system,
            g=self.config.g,
            eps=self.config.eps,
            tile=self.config.block_size,
        )

    # -- cycle mode ------------------------------------------------------------

    def forces_cycle(
        self, system: ParticleSystem, trace=None
    ) -> tuple[np.ndarray, LaunchResult]:
        """Cycle mode: simulate the launch; returns (forces, result).

        ``trace`` is an optional per-global-access hook (e.g. a
        :class:`repro.cudasim.trace.TraceRecorder`) forwarded to the
        launch, so callers can capture the kernel's memory stream for
        coalescing replay or timeline export.
        """
        lk = self.compile()
        cfg = self.config
        with _telemetry.span(
            "gravit.forces_cycle",
            layout=cfg.layout_kind,
            n=system.n,
            label=cfg.label,
        ) as sp:
            padded = system.padded(cfg.block_size)
            layout = make_layout(cfg.layout_kind, padded.n)
            assert self._plan is not None
            with device_buffers(
                self.device, layout.size_bytes, 16 * padded.n
            ) as (buf, out):
                if _profiler.enabled():
                    # Bin profiled traffic per layout field span plus the
                    # force-accumulator output.  Regions are profiler
                    # session state, so profiled runs must stay serial.
                    regions = _profiler.regions_for_layout(layout, buf.addr)
                    regions += (("out", out.addr, out.addr + 16 * padded.n),)
                    _profiler.set_regions(regions)
                self.device.memcpy_htod(buf, padded.pack(layout))
                params = _step_params(buf, layout, self._plan, POSMASS_FIELDS)
                params.update(
                    out=out, nslices=padded.n // cfg.block_size, eps=cfg.eps
                )
                result = self.device.launch(
                    lk,
                    grid=padded.n // cfg.block_size,
                    block=cfg.block_size,
                    params=params,
                    trace=trace,
                )
                words = self.device.memcpy_dtoh(out, 4 * padded.n)
            sp.set(cycles=result.cycles)
        records = words.reshape(-1, 4)
        forces = records[: system.n, :3].astype(np.float64) * cfg.g
        return forces, result

    def forces_for_mode(
        self,
        system: ParticleSystem,
        mode: ExecutionMode | str = ExecutionMode.FUNCTIONAL,
    ) -> np.ndarray:
        """Dispatch on :class:`ExecutionMode` (strings accepted)."""
        mode = ExecutionMode.coerce(mode)
        if mode is ExecutionMode.FUNCTIONAL:
            return self.forces(system)
        if mode is ExecutionMode.CYCLE:
            return self.forces_cycle(system)[0]
        raise ValueError(
            "hybrid mode predicts wall time, not forces; use "
            "predict_seconds(n)"
        )

    # -- hybrid mode --------------------------------------------------------------

    def calibrate(
        self, slice_counts: tuple[int, int] = (2, 6)
    ) -> HybridTiming:
        """Fit the Eq. 2 timing model from two single-SM measurements.

        Runs the kernel on one simulated SM with its full resident-block
        complement for ``s1`` and ``s2`` slices; the difference isolates
        the per-slice cost, the intercept the setup cost.  Slice cost is
        independent of the slice *data* (every slice does identical
        work), so synthetic particles suffice.
        """
        if self._hybrid is not None:
            return self._hybrid
        s1, s2 = slice_counts
        if not 0 < s1 < s2:
            raise ValueError("need 0 < s1 < s2 slice counts")
        lk = self.compile()
        cfg = self.config
        occ = self.occupancy()
        resident = occ.blocks_per_sm
        # Enough records for tile loads (s2 slices) and for the resident
        # blocks' own particle indices.
        n_data = cfg.block_size * max(s2, resident)
        rng = np.random.default_rng(0xB0)
        synthetic = ParticleSystem.from_arrays(
            rng.standard_normal((n_data, 3)).astype(np.float32),
            masses=np.full(n_data, 1.0 / n_data, dtype=np.float32),
        )
        layout = make_layout(cfg.layout_kind, n_data)
        assert self._plan is not None
        cycles = {}
        with _telemetry.span(
            "gravit.calibrate", layout=cfg.layout_kind, label=cfg.label
        ):
            with device_buffers(
                self.device, layout.size_bytes, 16 * n_data
            ) as (buf, out):
                self.device.memcpy_htod(buf, synthetic.pack(layout))
                base_params = _step_params(
                    buf, layout, self._plan, POSMASS_FIELDS
                )
                for s in (s1, s2):
                    params = dict(base_params, out=out, nslices=s, eps=cfg.eps)
                    result = self.device.launch(
                        lk,
                        grid=resident,
                        block=cfg.block_size,
                        params=params,
                        sm_count=1,
                    )
                    cycles[s] = result.cycles
        per_slice = (cycles[s2] - cycles[s1]) / (s2 - s1)
        setup = max(0.0, cycles[s1] - s1 * per_slice)
        self._hybrid = HybridTiming(
            setup_cycles=setup,
            cycles_per_slice=per_slice,
            resident_blocks=resident,
            block_size=cfg.block_size,
            device=self.device.props,
        )
        return self._hybrid

    def predict_seconds(self, n: int, include_transfers: bool = True) -> float:
        """Hybrid mode: end-to-end seconds for ``n`` particles.

        Matches the paper's measurement window: host→device copy, kernel,
        device→host copy of the force records.
        """
        model = self.calibrate()
        seconds = model.kernel_seconds(n)
        if include_transfers:
            k = self.config.block_size
            n_pad = -(-n // k) * k
            layout = make_layout(self.config.layout_kind, n_pad)
            bytes_moved = layout.size_bytes + 16 * n_pad
            seconds += bytes_moved / PCIE_BYTES_PER_S
        return seconds


def _phases(dt: float, scheme: str) -> tuple[tuple[float, float, bool], ...]:
    """``(kick_dt, drift_dt, drifts)`` per force + integrate phase of a step.

    ``"euler"`` is one kick-and-drift phase; ``"leapfrog"`` is
    kick-drift-kick: a half kick with the full drift, then a second force
    evaluation and the closing half kick.  ``drifts`` marks the phases
    that move positions, and still holds when ``dt`` is a placeholder.
    """
    if scheme == "euler":
        return ((dt, dt, True),)
    if scheme == "leapfrog":
        return ((dt / 2.0, dt, True), (dt / 2.0, 0.0, False))
    raise ValueError(f"unknown scheme {scheme!r}")


class _EpochDriver:
    """What the stepping drivers share: counters, graph cache, lifecycle.

    A driver states its epoch once, as a function that issues stream ops
    for a phase table (see :func:`_phases`) and tags each integrate launch
    ``integrate<phase><suffix>``.  :meth:`_epoch` runs it: op-by-op (the
    default, and the reference graph replay is tested against) on the
    live streams with the real ``kick_dt``/``drift_dt``; with
    ``use_graph=True`` it is captured once per graph name with ``0.0``
    placeholders, and every epoch replays that capture with the real
    values bound.

    Streams and device buffers are registered as they are acquired, so
    :meth:`close` releases each exactly once, and a constructor that fails
    part-way releases what it had acquired before re-raising.
    """

    def __init__(self, use_graph: bool = False) -> None:
        self.use_graph = bool(use_graph)
        self.cycles_total = 0.0
        self.steps_done = 0
        self.graph_replays = 0
        #: graph name -> (instantiated graph, what its capture returned).
        self._graphs: dict[str, tuple[LaunchGraph, object]] = {}
        self._owned = ExitStack()

    # -- resources -----------------------------------------------------------

    @contextmanager
    def _acquiring(self):
        """Constructor guard: a failure releases what was acquired so far."""
        try:
            yield
        except BaseException:
            self._owned.close()
            raise

    def _alloc(self, device: Device, nbytes: int) -> DevicePtr:
        ptr = device.malloc(nbytes)
        self._owned.callback(device.free, ptr)
        return ptr

    def _open_stream(self, device: Device, name: str) -> Stream:
        stream = device.stream(name)
        self._owned.callback(stream.close)
        return stream

    def close(self) -> None:
        """Release graphs, streams and device buffers (idempotent)."""
        self._graphs.clear()
        self._owned.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- stepping ------------------------------------------------------------

    def _dt_params(self, kick_dt: float, drift_dt: float) -> dict:
        """An integrate launch's time-step parameters."""
        return {"kick_dt": kick_dt * self.config.g, "drift_dt": drift_dt}

    def _epoch(
        self,
        name: str,
        streams: Sequence[Stream],
        issue: Callable,
        phases: Sequence[tuple[float, float, bool]],
        suffixes: Sequence[str] = ("",),
        check: Callable | None = None,
    ):
        """Run ``issue(phases)`` on the live streams, or replay its capture.

        In graph mode ``issue`` is captured on ``streams`` once, as graph
        ``name``, with ``0.0`` placeholders; every call then replays the
        capture with each ``integrate<p><suffix>`` tag bound to phase
        ``p``'s ``kick_dt``/``drift_dt``, after ``check(graph, captured)``
        has vetted it.  Returns what ``issue`` returned (at capture, in
        graph mode).
        """
        if not self.use_graph:
            return issue(phases)
        entry = self._graphs.get(name)
        if entry is None:
            graph = LaunchGraph(name=name)
            graph.begin(*streams)
            try:
                out = issue(tuple((0.0, 0.0, drifts) for *_, drifts in phases))
                graph.end()
            except BaseException:
                graph.abort()
                raise
            entry = self._graphs[name] = (graph.instantiate(), out)
        graph, out = entry
        if check is not None:
            check(graph, out)
        for stream in streams:
            stream.synchronize()  # a replay needs idle streams
        graph.replay({
            f"integrate{p}{suffix}": self._dt_params(kick_dt, drift_dt)
            for p, (kick_dt, drift_dt, _) in enumerate(phases)
            for suffix in suffixes
        })
        self.graph_replays += 1
        return out

    def _count_step(self, cycles: float, metric: str, scheme: str) -> float:
        self.cycles_total += cycles
        self.steps_done += 1
        _telemetry.inc(metric, scheme=scheme)
        return cycles

    def run(self, steps: int, dt: float, scheme: str = "euler") -> float:
        """Advance ``steps`` steps; returns total device cycles."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        return sum((self.step(dt, scheme=scheme) for _ in range(steps)), 0.0)


class GpuSimulation(_EpochDriver):
    """A fully device-resident Gravit run (cycle-simulated).

    Uploads the particle state once, then advances it with two kernel
    launches per step — the force kernel (Sec. IV) followed by the
    integration kernel — with no host round-trip in between, exactly how
    a production port would run.  This is also the executable proof of
    the paper's access-frequency grouping: the force kernel's traffic
    never touches the velocity arrays (asserted by trace in the tests).

    Intended for modest n (every step is a full cycle simulation).

    ``use_graph=True`` captures the step's launches (:meth:`_issue`, the
    function op-by-op stepping runs) into a
    :class:`~repro.cudasim.graph.LaunchGraph` on first use (one graph
    per integration scheme) and replays it every step with ``dt``
    rebound — bit-identical results, near-zero host dispatch.
    """

    def __init__(
        self,
        system: ParticleSystem,
        config: GpuConfig | None = None,
        device: Device | None = None,
        use_graph: bool = False,
    ) -> None:
        super().__init__(use_graph)
        self.config = config or GpuConfig()
        self.device = device or Device(toolchain=self.config.toolchain)
        self.n = system.n
        cfg = self.config
        padded = system.padded(cfg.block_size)
        self.n_pad = padded.n
        self.layout = make_layout(cfg.layout_kind, self.n_pad)

        force_kernel, self._force_plan = build_force_kernel(
            self.layout, block_size=cfg.block_size
        )
        self._force_lk = self.device.compile(
            force_kernel, cfg.compile_options
        )
        integrate_kernel, self._int_plan = build_integrate_kernel(
            self.layout, block_size=cfg.block_size
        )
        self._int_lk = self.device.compile(integrate_kernel)

        with self._acquiring():
            self._buf = self._alloc(self.device, self.layout.size_bytes)
            self.device.memcpy_htod(self._buf, padded.pack(self.layout))
            self._forces = self._alloc(self.device, 16 * self.n_pad)
            self._stream = self._open_stream(self.device, "gpu-step")

    def _params_for(self, plan: KernelPlan, fields) -> dict:
        return _step_params(self._buf, self.layout, plan, fields)

    def _issue(self, phases, trace=None) -> None:
        """Enqueue one step's launches on the step stream.

        Per phase: the force kernel, then the integrate kernel tagged
        ``integrate<p>``.  ``trace`` hooks the first force launch's
        global accesses (a graph cannot capture it).
        """
        cfg = self.config
        grid = self.n_pad // cfg.block_size
        fparams = self._params_for(self._force_plan, POSMASS_FIELDS)
        fparams.update(out=self._forces, nslices=grid, eps=cfg.eps)
        for p, (kick_dt, drift_dt, _) in enumerate(phases):
            hook = {"trace": trace} if trace is not None and p == 0 else {}
            self._stream.launch_async(
                self._force_lk, grid, cfg.block_size, params=fparams, **hook
            )
            iparams = self._params_for(self._int_plan, ALL_FIELDS)
            iparams.update(
                forces=self._forces, **self._dt_params(kick_dt, drift_dt)
            )
            self._stream.launch_async(
                self._int_lk, grid, cfg.block_size, params=iparams,
                tag=f"integrate{p}",
            )

    def step(self, dt: float, force_trace=None, scheme: str = "euler") -> float:
        """One integration step on the device; returns its cycle cost.

        ``scheme``: ``"euler"`` (one force + one kick-and-drift launch)
        or ``"leapfrog"`` (kick-drift-kick: two force evaluations).
        A step with a ``force_trace`` hook runs op-by-op in either mode.
        """
        phases = _phases(dt, scheme)
        with _telemetry.span(
            "gravit.gpu_step", scheme=scheme, n=self.n
        ) as sp:
            begin = self._stream.cycles
            if force_trace is None:
                self._epoch(
                    f"gpu-step-{scheme}", (self._stream,), self._issue, phases
                )
            else:
                self._issue(phases, trace=force_trace)
            self._stream.synchronize()
            # Only this step's launches moved the cursor, by integral
            # cycle counts, so the delta is exactly their sum.
            cycles = self._stream.cycles - begin
            sp.set(cycles=cycles)
        return self._count_step(cycles, "gravit.gpu_steps", scheme)

    def download(self) -> ParticleSystem:
        """Copy the particle state back to the host (padding dropped)."""
        words = self.device.memcpy_dtoh(self._buf, self.layout.size_words)
        return ParticleSystem.unpack(self.layout, words).take(self.n)

    def download_forces(self) -> np.ndarray:
        """Raw float32 ``(n, 3)`` force records as the kernel wrote them.

        No ``g`` scaling and no float64 widening — this is the buffer the
        integration kernel consumes, exposed for bit-exact comparisons
        (the sharded driver must reproduce it word for word).
        """
        words = self.device.memcpy_dtoh(self._forces, 4 * self.n_pad)
        return words.reshape(-1, 4)[: self.n, :3].copy()

    # Defined in this class body, not only inherited, so per-class
    # wrappers (benchmarks/e2e/tracer.py) find it.
    def close(self) -> None:
        """Close the step stream and free the device buffers (idempotent)."""
        super().close()


class OutOfCoreSimulation(_EpochDriver):
    """Tiled Gravit run for populations larger than the device heap.

    The host keeps the packed layout image as the system of record; the
    device only ever holds (a) one *resident* row slice of full records,
    (b) a 16-byte-per-row force accumulator for that slice, and (c) a
    ping-pong pair of staging slots through which every posmass column
    tile streams.  Per phase (one force evaluation + one integration),
    for each resident slice:

    1. the copy stream uploads the slice's full records (merged
       ``row_regions`` intervals, compacted into the resident slab);
    2. every column tile of the *pre-phase* image streams through the
       :class:`~repro.cudasim.xfer.TransferPipeline` — tile *t+1*
       prefetched while the chained force kernel
       (:func:`~repro.gravit.gpu_kernels.build_force_kernel_ooc`)
       consumes tile *t*, partial accumulators round-tripping bit-exactly
       through the force buffer;
    3. the integration kernel updates the resident records in place, and
       the copy stream writes them (and the forces) back to the host
       image — double-buffered host-side too, so later slices still read
       pre-phase state.

    Steps 1–3 up to the writeback are one slice's epoch
    (:meth:`_slice`); graph mode captures one graph per slice.  The
    writebacks stay op-by-op because the host consumes them this phase.

    Column tiles launch in increasing order with the in-core kernel's
    instruction sequence, so every float32 operation happens in the same
    order on the same values: results are **bit-identical** to
    :class:`GpuSimulation` for every layout × toolchain × engine ×
    fastpath combination (the differential suite in
    ``tests/test_outofcore.py`` is the gate).

    ``tile_rows`` (default ``4 · block_size``, rounded up to a block
    multiple) sizes both the resident slice and the streamed column
    tiles.  ``tile_rows >= n`` degenerates to an in-core
    :class:`GpuSimulation` behind the same interface.
    """

    def __init__(
        self,
        system: ParticleSystem,
        config: GpuConfig | None = None,
        device: Device | None = None,
        tile_rows: int | None = None,
        use_graph: bool = False,
    ) -> None:
        super().__init__(use_graph)
        self.config = config or GpuConfig()
        cfg = self.config
        self.device = device or Device(toolchain=cfg.toolchain)
        self.n = system.n
        padded = system.padded(cfg.block_size)
        self.n_pad = padded.n
        self.layout = make_layout(cfg.layout_kind, self.n_pad)
        k = cfg.block_size
        if tile_rows is None:
            tile_rows = 4 * k
        tile_rows = int(tile_rows)
        if tile_rows < 1:
            raise ValueError(f"tile_rows must be >= 1, got {tile_rows}")
        self.tile_rows = min(-(-tile_rows // k) * k, self.n_pad)
        self.degenerate = self.tile_rows >= self.n_pad
        if self.degenerate:
            # Everything fits in one tile: the streaming machinery would
            # only re-derive the in-core schedule, so use it directly.
            self._incore = GpuSimulation(
                system, cfg, device=self.device, use_graph=use_graph
            )
            self._owned.callback(self._incore.close)
            return

        #: Host system of record: the packed layout image (padded).  It
        #: is updated in place, because captured uploads alias it.
        self._image = padded.pack(self.layout)
        self._host_forces = np.zeros((self.n_pad, 4), dtype=np.float32)

        # Resident slices ship whole records; column tiles only posmass.
        self._rplan = TilePlan(self.layout, self.tile_rows)
        self._cplan = TilePlan(self.layout, self.tile_rows, POSMASS_FIELDS)
        self._psteps = self.layout.read_plan(POSMASS_FIELDS)
        self._pb_names = step_param_names(self._psteps)
        self._cb_names = column_param_names(self._psteps)
        self._isteps = self.layout.read_plan(ALL_FIELDS)

        with self._acquiring():
            self._resident = self._alloc(self.device, self._rplan.slot_bytes)
            self._forces = self._alloc(self.device, 16 * self.tile_rows)
            self._staging = StagingBuffer(
                self.device, self._cplan.slot_bytes, slots=2
            )
            self._owned.callback(self._staging.free)
            self._copy = self._open_stream(self.device, "ooc-copy")
            self._compute = self._open_stream(self.device, "ooc-compute")
        self.stats = XferStats()

        integrate_kernel, self._int_plan = build_integrate_kernel(
            self.layout, block_size=k
        )
        self._int_lk = self.device.compile(integrate_kernel)
        self._force_lks: dict[tuple[bool, bool], LoweredKernel] = {}

    def _force_lk(self, first: bool, last: bool) -> LoweredKernel:
        key = (first, last)
        if key not in self._force_lks:
            kernel, _ = build_force_kernel_ooc(
                self.layout,
                block_size=self.config.block_size,
                first=first,
                last=last,
            )
            self._force_lks[key] = self.device.compile(
                kernel, self.config.compile_options
            )
        return self._force_lks[key]

    def _slice(
        self, rtile, image, pipeline: TransferPipeline, phases
    ) -> Event:
        """Issue one resident slice's epoch; returns its integrate event.

        Uploads the slice's full records, streams every column tile of
        ``image`` through ``pipeline`` into the chained force kernel, then
        integrates the slice in place with the one phase in ``phases``
        (tagged ``integrate0``).  The resident upload and the tiles are
        recorded into ``pipeline.stats``.
        """
        k = self.config.block_size
        grid = rtile.rows // k
        ev_a = self._copy.record_event()
        res_bytes = 0
        for soff, words in self._rplan.host_views(rtile, image):
            self._copy.memcpy_htod_async(
                self._resident.slice(soff, 4 * words.size), words
            )
            res_bytes += 4 * words.size
        ev_res = self._copy.record_event()
        pipeline.stats.add_copy("resident", res_bytes, ev_a, ev_res)
        self._compute.wait_event(ev_res)
        # Fresh exposure reference: time the compute stream spent on the
        # previous slice's integrate (or waiting for this upload) is not
        # the prefetcher's failure.
        pipeline.mark()

        pb_params = {
            name: self._resident.slice(soff, extent)
            for name, (soff, extent) in zip(
                self._pb_names,
                self._rplan.step_offsets(rtile, POSMASS_FIELDS),
            )
        }
        ntiles = len(self._cplan)
        for ctile in self._cplan:
            pipeline.stage(
                self._make_upload(ctile, image),
                self._make_compute(ctile, ntiles, grid, pb_params),
            )

        (kick_dt, drift_dt, _), = phases
        iparams = {
            name: self._resident.slice(soff, extent)
            for name, (soff, extent) in zip(
                self._int_plan.param_for_step,
                self._rplan.step_offsets(rtile, ALL_FIELDS),
            )
        }
        iparams.update(
            forces=self._forces, **self._dt_params(kick_dt, drift_dt)
        )
        self._compute.launch_async(
            self._int_lk, grid, k, params=iparams, tag="integrate0"
        )
        return self._compute.record_event()

    def _check_tiles(self, graph: LaunchGraph, captured) -> None:
        """Refuse a slice graph whose capture baked in another tile count."""
        _, stats = captured
        if len(stats.tiles) != len(self._cplan):
            raise GraphError(
                f"graph {graph.name!r} captured {len(stats.tiles)} column "
                f"tiles but the plan now has {len(self._cplan)}; the capture "
                "no longer matches the tile schedule — re-create the "
                "simulation (or drop its graphs) after resizing"
            )

    def _phase(self, phase) -> float:
        """One force evaluation + one integration over every row.

        Forces for *all* rows are computed from the pre-phase image
        before any integrated state is visible (the writebacks land in a
        second host image), matching the in-core driver's force-then-
        integrate launch order exactly.
        """
        image = self._image
        next_image = image.copy()
        copy0, compute0 = self._copy.cycles, self._compute.cycles
        streams = (self._copy, self._compute)
        inflight, recorded = [], []
        for rtile in self._rplan:
            # A fresh pipeline per slice, so a capture's slot gates never
            # wait on another capture's events.  The cross-slice gates it
            # drops are cycle-neutral: the writeback below already waits
            # for the slice's integrate, which follows every tile.
            def issue(phases, rtile=rtile):
                pipeline = TransferPipeline(
                    self._copy, self._compute, self._staging,
                    XferStats(counted=False),
                )
                return (
                    self._slice(rtile, image, pipeline, phases),
                    pipeline.stats,
                )

            ev_int, stats = self._epoch(
                f"ooc-slice{rtile.index}", streams, issue, (phase,),
                check=self._check_tiles,
            )
            recorded.append(stats)

            self._copy.wait_event(ev_int)
            wb_a = self._copy.record_event()
            region_futs = [
                (offset, nbytes,
                 self._copy.memcpy_dtoh_async(
                     self._resident.slice(soff, nbytes), nbytes // 4
                 ))
                for offset, nbytes, soff in rtile.regions
            ]
            force_fut = self._copy.memcpy_dtoh_async(
                self._forces, 4 * rtile.rows
            )
            wb_b = self._copy.record_event()
            self.stats.add_copy(
                "writeback",
                sum(nb for _, nb, _ in rtile.regions) + 16 * rtile.rows,
                wb_a,
                wb_b,
            )
            inflight.append((rtile, region_futs, force_fut))

        self._copy.synchronize()
        self._compute.synchronize()
        # Drained: every slice's events hold this phase's cycles.
        for stats in recorded:
            self.stats.add_replay(stats)
        for rtile, region_futs, force_fut in inflight:
            for offset, nbytes, fut in region_futs:
                next_image[offset // 4 : (offset + nbytes) // 4] = fut.result()
            self._host_forces[rtile.lo : rtile.hi] = (
                force_fut.result().reshape(-1, 4)
            )
        image[:] = next_image
        return max(
            self._copy.cycles - copy0, self._compute.cycles - compute0
        )

    def _make_upload(self, ctile, image):
        def upload(slot: DevicePtr) -> int:
            total = 0
            for soff, words in self._cplan.host_views(ctile, image):
                self._copy.memcpy_htod_async(
                    slot.slice(soff, 4 * words.size), words
                )
                total += 4 * words.size
            return total

        return upload

    def _make_compute(self, ctile, ntiles, grid, pb_params):
        cfg = self.config

        def compute(slot: DevicePtr) -> None:
            params = dict(pb_params)
            for name, (soff, extent) in zip(
                self._cb_names, self._cplan.step_offsets(ctile)
            ):
                params[name] = slot.slice(soff, extent)
            params.update(
                out=self._forces,
                nslices=ctile.rows // cfg.block_size,
                eps=cfg.eps,
            )
            lk = self._force_lk(
                ctile.index == 0, ctile.index == ntiles - 1
            )
            self._compute.launch_async(
                lk, grid, cfg.block_size, params=params
            )

        return compute

    def step(self, dt: float, scheme: str = "euler") -> float:
        """One integration step, streamed; returns its cycle cost."""
        if self.degenerate:
            cycles = self._incore.step(dt, scheme=scheme)
            self.cycles_total = self._incore.cycles_total
            self.steps_done = self._incore.steps_done
            self.graph_replays = self._incore.graph_replays
            return cycles
        phases = _phases(dt, scheme)
        with _telemetry.span(
            "gravit.ooc_step", scheme=scheme, n=self.n,
            tile_rows=self.tile_rows,
        ) as sp:
            cycles = sum(self._phase(phase) for phase in phases)
            sp.set(cycles=cycles)
        return self._count_step(cycles, "gravit.ooc_steps", scheme)

    def download(self) -> ParticleSystem:
        """The current particle state (padding dropped) — no device I/O:
        the host image *is* the system of record."""
        if self.degenerate:
            return self._incore.download()
        return ParticleSystem.unpack(self.layout, self._image).take(self.n)

    def download_forces(self) -> np.ndarray:
        """Raw float32 ``(n, 3)`` forces of the last evaluation, matching
        :meth:`GpuSimulation.download_forces` word for word."""
        if self.degenerate:
            return self._incore.download_forces()
        return self._host_forces[: self.n, :3].copy()

    def xfer_summary(self) -> dict:
        """Transfer-pipeline accounting (see :class:`XferStats.summary`);
        empty when degenerate (no streaming happened)."""
        if self.degenerate:
            return {}
        return self.stats.summary()

    # Defined in this class body, not only inherited, so per-class
    # wrappers (benchmarks/e2e/tracer.py) find it.
    def close(self) -> None:
        """Close the streams and free the slab, staging slots and forces
        (or the in-core delegate); idempotent."""
        super().close()


def _slowest(phase_spans) -> float:
    """Sum over phases of the slowest ``(begin, end)`` event span."""
    return sum(
        (max(end.cycle - begin.cycle for begin, end in spans)
         for spans in phase_spans),
        0.0,
    )


class ShardedGpuSimulation(_EpochDriver):
    """:class:`GpuSimulation` row-block-sharded over a :class:`DeviceGroup`.

    The multi-GPU decomposition of the O(n²) far-field kernel (the
    row-block scheme of Belleman et al.'s multi-card ports): each of the
    ``M`` devices holds a *full replica* of the particle layout plus a
    full-size force buffer, and computes forces for its contiguous slice
    of particle rows over **all** ``n`` column particles.  Per phase:

    1. every shard launches the force + integration kernels for its rows
       on its own stream (asynchronously, so shards overlap);
    2. once every shard's kernels have run, each owner broadcasts the
       *posmass* regions of its rows to every peer replica
       (:meth:`Stream.memcpy_peer_async`, PCIe-costed; host-staged when
       the group lacks peer access) — velocities stay owner-local, the
       access-frequency grouping argument again;
    3. the step's modeled cost is the slowest shard's compute time plus
       the slowest owner's broadcast time, read from events recorded on
       each shard stream.

    Row slicing enters the kernels as a single integer ``row0`` offset on
    the thread index (``row_offset=True`` kernel variants), so the
    per-particle float instruction sequence is *unchanged* — state and
    forces are bit-identical to a single-device :class:`GpuSimulation`
    for every layout, toolchain, SM engine and fastpath setting (pinned
    by the tests).

    How many bytes the broadcast moves per row is a layout property
    (:meth:`MemoryLayout.row_regions`): interleaved layouts (aos/aoas)
    ship whole interleaved records, grouped layouts (soa/soaoas) ship
    only the posmass group — the copy-overhead asymmetry the ``multigpu``
    experiment measures.
    """

    def __init__(
        self,
        system: ParticleSystem,
        config: GpuConfig | None = None,
        group: DeviceGroup | None = None,
        num_devices: int = 2,
        device_props: DeviceProperties = G8800GTX,
        sm_engine: str | None = None,
        fastpath: bool | int | None = None,
        peer_access: bool = True,
        use_graph: bool = False,
    ) -> None:
        super().__init__(use_graph)
        self.config = config or GpuConfig()
        cfg = self.config
        self.group = group or DeviceGroup(
            num_devices,
            props=device_props,
            toolchain=cfg.toolchain,
            sm_engine=sm_engine,
            fastpath=fastpath,
            peer_access=peer_access,
        )
        self.num_devices = len(self.group)
        self.n = system.n
        padded = system.padded(cfg.block_size)
        self.n_pad = padded.n
        self.layout = make_layout(cfg.layout_kind, self.n_pad)

        # Contiguous block partition: device d owns blocks [b0, b1) and
        # therefore rows [b0·k, b1·k).  Trailing devices may own nothing
        # when there are fewer blocks than devices.
        k = cfg.block_size
        blocks = self.n_pad // k
        per = -(-blocks // self.num_devices)
        self._row_ranges: list[tuple[int, int]] = []
        for d in range(self.num_devices):
            b0 = min(d * per, blocks)
            b1 = min(b0 + per, blocks)
            self._row_ranges.append((b0 * k, b1 * k))

        force_kernel, self._force_plan = build_force_kernel(
            self.layout, block_size=k, row_offset=True
        )
        integrate_kernel, self._int_plan = build_integrate_kernel(
            self.layout, block_size=k, row_offset=True
        )
        # One compile per kernel for the whole group: members share the
        # group's content-addressed cache, so dev1.. are cache hits.
        self._force_lks = [
            dev.compile(force_kernel, cfg.compile_options)
            for dev in self.group
        ]
        self._int_lks = [dev.compile(integrate_kernel) for dev in self.group]

        packed = padded.pack(self.layout)
        with self._acquiring():
            self._bufs = [
                self._alloc(dev, self.layout.size_bytes) for dev in self.group
            ]
            self._forces = [
                self._alloc(dev, 16 * self.n_pad) for dev in self.group
            ]
            for dev, buf in zip(self.group, self._bufs):
                dev.memcpy_htod(buf, packed)
            self._streams = [
                self._open_stream(dev, f"shard{d}")
                for d, dev in enumerate(self.group)
            ]
        #: Merged posmass byte regions per owner — what a broadcast ships.
        self._regions = [
            self.layout.row_regions(r0, r1, POSMASS_FIELDS) if r0 < r1 else ()
            for r0, r1 in self._row_ranges
        ]

        self.compute_cycles_total = 0.0
        self.copy_cycles_total = 0.0
        self.copy_bytes_total = 0

    @property
    def row_ranges(self) -> tuple[tuple[int, int], ...]:
        """Per-device owned particle-row ranges ``[lo, hi)``."""
        return tuple(self._row_ranges)

    def _active(self) -> list[int]:
        return [
            d for d, (r0, r1) in enumerate(self._row_ranges) if r0 < r1
        ]

    def _launch(self, d: int, p: int, kick_dt: float, drift_dt: float):
        """Enqueue shard ``d``'s force + integrate launches of phase ``p``."""
        cfg = self.config
        r0, r1 = self._row_ranges[d]
        grid = (r1 - r0) // cfg.block_size
        stream, buf = self._streams[d], self._bufs[d]
        fparams = _step_params(
            buf, self.layout, self._force_plan, POSMASS_FIELDS
        )
        fparams.update(
            out=self._forces[d],
            nslices=self.n_pad // cfg.block_size,
            eps=cfg.eps,
            row0=r0,
        )
        stream.launch_async(
            self._force_lks[d], grid=grid, block=cfg.block_size,
            params=fparams,
        )
        iparams = _step_params(buf, self.layout, self._int_plan, ALL_FIELDS)
        iparams.update(
            forces=self._forces[d], row0=r0,
            **self._dt_params(kick_dt, drift_dt),
        )
        stream.launch_async(
            self._int_lks[d], grid=grid, block=cfg.block_size,
            params=iparams, tag=f"integrate{p}.{d}",
        )

    def _broadcast(self, d: int) -> int:
        """Enqueue owner ``d``'s posmass copies to its peers; returns bytes.

        The copies go on the owner's stream, so different owners'
        broadcasts overlap.
        """
        total = 0
        for e, peer in enumerate(self.group):
            if e == d:
                continue
            for offset, nbytes in self._regions[d]:
                self._streams[d].memcpy_peer_async(
                    self._bufs[d].slice(offset, nbytes),
                    peer,
                    self._bufs[e].slice(offset, nbytes),
                    nbytes // 4,
                    via_host=self.group.via_host,
                )
                total += nbytes
        return total

    def _issue(self, phases):
        """Enqueue one step on the shard streams; returns its accounting.

        Per phase, every shard that owns rows launches force + integrate
        (tagged ``integrate<p>.<d>``); after a drifting phase each owner
        broadcasts its posmass rows to every peer replica.  Events order
        the broadcasts without a host synchronize: an owner's copies wait
        until every peer's kernels of the phase have run (a peer's force
        kernel reads the pre-broadcast positions), and the next phase's
        launches wait until every broadcast into their replica landed.

        Returns ``(compute, copy, copy_bytes)``: per phase, the
        ``(begin, end)`` events bracketing each shard's kernels, and per
        broadcast, those bracketing each owner's copies; then the bytes
        broadcast.
        """
        active = self._active()
        compute, copy, copy_bytes = [], [], 0
        landed: dict[int, Event] = {}
        for p, (kick_dt, drift_dt, drifts) in enumerate(phases):
            ran: dict[int, Event] = {}
            spans = []
            for d in active:
                stream = self._streams[d]
                for e, event in landed.items():
                    if e != d:
                        stream.wait_event(event)
                begin = stream.record_event()
                self._launch(d, p, kick_dt, drift_dt)
                ran[d] = stream.record_event()
                spans.append((begin, ran[d]))
            compute.append(spans)
            landed = {}
            if not drifts or self.num_devices == 1:
                continue
            spans = []
            for d in active:
                stream = self._streams[d]
                for e, event in ran.items():
                    if e != d:
                        stream.wait_event(event)
                begin = stream.record_event()
                copy_bytes += self._broadcast(d)
                landed[d] = stream.record_event()
                spans.append((begin, landed[d]))
            copy.append(spans)
        return compute, copy, copy_bytes

    def step(self, dt: float, scheme: str = "euler") -> float:
        """One sharded step; returns its modeled cycle cost.

        Same schemes as :meth:`GpuSimulation.step`.  A position exchange
        follows every launch phase whose integration drifts positions
        (the leapfrog closing kick has ``drift_dt=0``, so it needs none).
        """
        phases = _phases(dt, scheme)
        with _telemetry.span(
            "gravit.sharded_step",
            scheme=scheme,
            n=self.n,
            devices=self.num_devices,
        ) as sp:
            compute, copy, copy_bytes = self._epoch(
                f"sharded-step-{scheme}", self._streams, self._issue, phases,
                suffixes=[f".{d}" for d in self._active()],
            )
            for stream in self._streams:
                stream.synchronize()
            compute, copy = _slowest(compute), _slowest(copy)
            cycles = compute + copy
            sp.set(cycles=cycles, copy_cycles=copy)
        self.compute_cycles_total += compute
        self.copy_cycles_total += copy
        self.copy_bytes_total += copy_bytes
        return self._count_step(cycles, "gravit.sharded_steps", scheme)

    # -- state ---------------------------------------------------------------

    def download(self) -> ParticleSystem:
        """Assemble the particle state from each shard's owned rows."""
        fields = {
            name: np.zeros(self.n_pad, dtype=np.float32)
            for name in self.layout.field_names
        }
        for d in self._active():
            r0, r1 = self._row_ranges[d]
            words = self.group[d].memcpy_dtoh(
                self._bufs[d], self.layout.size_words
            )
            shard = self.layout.unpack(words)
            for name, arr in shard.items():
                fields[name][r0:r1] = arr[r0:r1]
        return ParticleSystem.from_dict(fields).take(self.n)

    def download_forces(self) -> np.ndarray:
        """Raw float32 ``(n, 3)`` forces assembled from the owners.

        Bit-comparable against :meth:`GpuSimulation.download_forces`.
        """
        out = np.zeros((self.n_pad, 4), dtype=np.float32)
        for d in self._active():
            r0, r1 = self._row_ranges[d]
            words = self.group[d].memcpy_dtoh(self._forces[d], 4 * self.n_pad)
            out[r0:r1] = words.reshape(-1, 4)[r0:r1]
        return out[: self.n, :3].copy()


class PooledSimulation(_EpochDriver):
    """Device-resident run over a *dynamic* particle population.

    The :class:`~repro.cudasim.alloc.BlockPool` is the system of record:
    particles live in its (possibly sparse) blocks and the population can
    grow (:meth:`spawn`) or shrink (:meth:`remove`) between steps — the
    use case Gravit's static ``cudaMalloc``-everything port cannot serve.
    Stepping gathers the live records into a contiguous staging layout
    (the host-mediated analogue of a defragmenting gather kernel),
    advances it with :class:`GpuSimulation`'s two-kernel step, and
    scatters the result back to the pool records on :meth:`writeback` —
    record handles stay stable throughout, including across pool
    compaction.  Staging buffers come from the *same* device heap as the
    pool's blocks, so heap pressure and fragmentation are real.
    """

    def __init__(
        self,
        pool,
        device: Device,
        config: GpuConfig | None = None,
        handles=None,
    ) -> None:
        if getattr(device, "gmem", None) is not pool.memory:
            raise ValueError(
                "device must own the pool's heap "
                "(expected device.gmem is pool.memory)"
            )
        super().__init__()
        self.config = config or GpuConfig()
        self.pool = pool
        self.device = device
        self.handles = (
            list(handles) if handles is not None else pool.live_handles()
        )
        self._sim: GpuSimulation | None = None

    @property
    def n(self) -> int:
        return len(self.handles)

    # -- population changes ------------------------------------------------

    def spawn(self, system: ParticleSystem) -> list:
        """Add particles (allocated from the pool); returns their handles."""
        self._flush()
        new = system.spawn_into(self.pool)
        self.handles.extend(new)
        return new

    def remove(self, handles) -> None:
        """Kill particles: their pool records are freed immediately."""
        self._flush()
        doomed = {h.rid for h in handles}
        for h in handles:
            self.pool.free(h)
        self.handles = [h for h in self.handles if h.rid not in doomed]

    def compact(self):
        """Compact the pool (staged state is written back first)."""
        self._flush()
        return self.pool.compact()

    # -- stepping ----------------------------------------------------------

    def _flush(self) -> None:
        """Scatter staged state back to the pool; drop the staging sim."""
        if self._sim is not None:
            state = self._sim.download()
            self.pool.write_fields(self.handles, state.as_dict())
            self._sim.close()
            self._sim = None

    def _staging(self) -> GpuSimulation:
        if self._sim is None:
            if not self.handles:
                raise ValueError("pooled simulation has no live particles")
            state = ParticleSystem.from_pool(self.pool, self.handles)
            self._sim = GpuSimulation(state, self.config, device=self.device)
        return self._sim

    def step(self, dt: float, scheme: str = "euler") -> float:
        """One device step over the current population; returns cycles."""
        cycles = self._staging().step(dt, scheme=scheme)
        self.cycles_total += cycles
        self.steps_done += 1
        return cycles

    # -- state -------------------------------------------------------------

    def state(self) -> ParticleSystem:
        """Current particle state (staged if mid-epoch, else from pool)."""
        if self._sim is not None:
            return self._sim.download()
        return ParticleSystem.from_pool(self.pool, self.handles)

    def writeback(self) -> ParticleSystem:
        """Flush staged state to the pool and return it."""
        self._flush()
        return ParticleSystem.from_pool(self.pool, self.handles)

    def close(self) -> None:
        """Flush to the pool and release staging buffers (pool survives)."""
        self._flush()

"""The unified simulation surface: one config, one entry point.

The driver layer grew three host-side front doors — :class:`GpuSimulation`
(single device), :class:`ShardedGpuSimulation` (a :class:`DeviceGroup`)
and :class:`PooledSimulation` (dynamic populations over a block pool) —
each with its own kwarg sprawl for the same underlying knobs.  This
module collapses them behind:

* :class:`SimulationConfig` — a frozen dataclass naming *every* host-side
  choice: memory layout, compiler options, toolchain, SM engine,
  fastpath, device count, heap size, pool knobs.  Equal configurations
  compare and hash equal, and :attr:`SimulationConfig.kernel_key` is a
  stable digest of exactly the fields that determine the compiled force
  kernel's content-addressed cache entry — the service counts a job
  warm when an earlier job already ran its key.
* :class:`Simulation.create` — the single constructor.  It inspects the
  config and builds the right driver (pooled when ``pool_records_per_
  block`` is set, sharded when ``devices > 1``, plain otherwise) so the
  CLI, the tests and the multi-tenant service all drive the exact same
  surface.  Results are bit-identical to constructing the drivers
  directly: the config only *carries* the knobs, it never changes them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from typing import Union

from ..cudasim.device import DeviceProperties, G8800GTX, Toolchain
from ..cudasim.device_group import DeviceGroup
from ..cudasim.executor import SM_ENGINES
from ..cudasim.kernel_cache import Unroll
from ..cudasim.launch import DEFAULT_HEAP_BYTES, Device
from .gpu_driver import (
    GpuConfig,
    GpuSimulation,
    OutOfCoreSimulation,
    PooledSimulation,
    ShardedGpuSimulation,
)
from .particles import ParticleSystem

__all__ = ["SimulationConfig", "Simulation"]


@dataclass(frozen=True)
class SimulationConfig:
    """Every host-side knob of one simulation, in one frozen value.

    The kernel-shaping subspace (``layout`` … ``g``) mirrors
    :class:`~repro.gravit.gpu_driver.GpuConfig`; the execution subspace
    (``engine``, ``fastpath``) selects *how* the device simulates without
    changing any result bit; the topology subspace (``devices``,
    ``peer_access``, ``device_props``, ``heap_bytes``) sizes the
    hardware; ``pool_records_per_block`` switches on the dynamic
    block-pool backing.  ``unroll`` is normalized through
    :meth:`~repro.cudasim.kernel_cache.Unroll.coerce` so equal
    configurations hash equal.
    """

    layout: str = "soaoas"
    block_size: int = 128
    unroll: Union[int, str, Unroll, None] = None
    licm: bool = False
    toolchain: Toolchain = Toolchain.CUDA_1_0
    eps: float = 1e-2
    g: float = 1.0
    engine: str | None = None  #: SM engine (serial/thread/process); None = env
    fastpath: bool | int | None = None  #: exec mode 0|2; None = env default
    devices: int = 1
    peer_access: bool = True
    device_props: DeviceProperties = field(repr=False, default=G8800GTX)
    heap_bytes: int = DEFAULT_HEAP_BYTES
    #: When set, the simulation is pool-backed (dynamic population):
    #: records live in a BlockPool of this many records per block.
    pool_records_per_block: int | None = None
    #: Stream the population through device tiles instead of holding it
    #: resident — for populations larger than the device heap.
    out_of_core: bool = False
    #: Rows per streamed tile (out-of-core only); None = 4 x block_size.
    tile_rows: int | None = None
    #: Capture the steady-state step into a LaunchGraph once and replay
    #: it thereafter — same bits, near-zero host work per step.
    use_graph: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "unroll", Unroll.coerce(self.unroll))
        if self.devices < 1:
            raise ValueError(f"devices must be >= 1, got {self.devices}")
        if self.engine is not None and self.engine not in SM_ENGINES:
            raise ValueError(
                f"unknown SM engine {self.engine!r}; choose from {SM_ENGINES}"
            )
        if self.pool_records_per_block is not None:
            if self.pool_records_per_block < 1:
                raise ValueError("pool_records_per_block must be >= 1")
            if self.devices != 1:
                raise ValueError(
                    "pooled simulations are single-device; got "
                    f"devices={self.devices}"
                )
            if self.use_graph:
                raise ValueError(
                    "use_graph is unsupported for pooled simulations — "
                    "gather/scatter reshapes device memory every step, so "
                    "there is no steady-state op sequence to capture"
                )
        if self.tile_rows is not None and not self.out_of_core:
            raise ValueError("tile_rows requires out_of_core=True")
        if self.out_of_core:
            if self.tile_rows is not None and self.tile_rows < 1:
                raise ValueError(
                    f"tile_rows must be >= 1, got {self.tile_rows}"
                )
            if self.devices != 1:
                raise ValueError(
                    "out-of-core simulations are single-device; got "
                    f"devices={self.devices}"
                )
            if self.pool_records_per_block is not None:
                raise ValueError(
                    "out_of_core and pool_records_per_block are exclusive"
                )

    # -- derived views -------------------------------------------------------

    @property
    def gpu_config(self) -> GpuConfig:
        """The kernel-shaping subspace as the driver's :class:`GpuConfig`."""
        return GpuConfig(
            layout_kind=self.layout,
            block_size=self.block_size,
            unroll=self.unroll,
            licm=self.licm,
            toolchain=self.toolchain,
            eps=self.eps,
            g=self.g,
        )

    @property
    def kernel_key(self) -> str:
        """Digest of the fields that pick the compiled force kernel.

        Two configs share a ``kernel_key`` iff their force kernels land
        on the same content-addressed cache entry (layout × block size ×
        compile options × toolchain).  Engine/fastpath/topology knobs are
        excluded — they never change what gets compiled.
        """
        token = (
            f"{self.layout}|{self.block_size}|{self.unroll}|{self.licm}|"
            f"{self.toolchain.value}"
        )
        return hashlib.sha256(token.encode()).hexdigest()[:16]

    @property
    def label(self) -> str:
        bits = [self.gpu_config.label]
        if self.devices > 1:
            bits.append(f"x{self.devices}dev")
        if self.pool_records_per_block is not None:
            bits.append("pooled")
        if self.out_of_core:
            bits.append("ooc")
        if self.use_graph:
            bits.append("graph")
        return "+".join(bits)

    def replace(self, **changes) -> "SimulationConfig":
        return replace(self, **changes)

    def as_dict(self) -> dict:
        """JSON-safe dump for manifests and benchmark reports."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "device_props":
                value = value.name
            elif f.name == "toolchain":
                value = value.value
            out[f.name] = value
        return out

    # -- hardware construction ----------------------------------------------

    def make_device(self, name: str | None = None) -> Device:
        """A single simulated device matching this config's knobs."""
        return Device(
            props=self.device_props,
            toolchain=self.toolchain,
            heap_bytes=self.heap_bytes,
            sm_engine=self.engine,
            fastpath=self.fastpath,
            name=name,
        )

    def make_group(self, count: int | None = None) -> DeviceGroup:
        """A :class:`DeviceGroup` of ``count`` (default ``devices``)."""
        return DeviceGroup(
            count or self.devices,
            props=self.device_props,
            toolchain=self.toolchain,
            heap_bytes=self.heap_bytes,
            sm_engine=self.engine,
            fastpath=self.fastpath,
            peer_access=self.peer_access,
        )


class Simulation:
    """The one public constructor over every simulation driver."""

    @staticmethod
    def create(
        config: SimulationConfig | None = None,
        system: ParticleSystem | None = None,
        *,
        device: Device | None = None,
        group: DeviceGroup | None = None,
        **overrides,
    ):
        """Build the right driver for ``config`` (the unified entry point).

        Dispatch: ``pool_records_per_block`` set → a
        :class:`PooledSimulation` over a fresh block pool on ``device``;
        ``devices > 1`` → a :class:`ShardedGpuSimulation` over ``group``
        (built from the config when not given); otherwise a single-device
        :class:`GpuSimulation`.  ``device``/``group`` let callers (the
        job service) pin the simulation onto existing hardware; the
        config's topology knobs are only used when they are absent.

        ``overrides`` are :class:`SimulationConfig` fields for the
        config-less convenience form ``Simulation.create(system=sys,
        layout="soa")``; passing both a config and overrides is an error.
        """
        if config is not None and overrides:
            raise ValueError(
                "pass either a SimulationConfig or keyword overrides"
            )
        cfg = config or SimulationConfig(**overrides)
        if system is None:
            raise ValueError("Simulation.create needs a ParticleSystem")
        if cfg.pool_records_per_block is not None:
            from ..cudasim.alloc import BlockPool

            dev = device or cfg.make_device()
            pool = BlockPool(
                dev,
                layout_kind=cfg.layout,
                records_per_block=cfg.pool_records_per_block,
            )
            handles = system.spawn_into(pool)
            return PooledSimulation(
                pool, dev, cfg.gpu_config, handles=handles
            )
        if group is not None or cfg.devices > 1:
            return ShardedGpuSimulation(
                system,
                cfg.gpu_config,
                group=group or cfg.make_group(),
                use_graph=cfg.use_graph,
            )
        if cfg.out_of_core:
            return OutOfCoreSimulation(
                system,
                cfg.gpu_config,
                device=device or cfg.make_device(),
                tile_rows=cfg.tile_rows,
                use_graph=cfg.use_graph,
            )
        return GpuSimulation(
            system,
            cfg.gpu_config,
            device=device or cfg.make_device(),
            use_graph=cfg.use_graph,
        )

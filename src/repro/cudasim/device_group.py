"""Multi-GPU topology: a group of simulated devices sharing one host.

:class:`DeviceGroup` models the multi-card workstation of the late-2000s
GPGPU era (and the ``cudaSetDevice`` loop that drove it): ``M``
independent :class:`~repro.cudasim.launch.Device` instances, each with
its own global-memory heap and SM set, plus the host-visible topology
facts a multi-device driver needs:

* **Kernel-cache sharing.**  All members are handed the *same*
  content-addressed :class:`~repro.cudasim.kernel_cache.KernelCache`, so
  a kernel compiled for ``dev0`` is a cache hit on ``dev1``..``devM-1``
  — the cache key is (IR hash × options × toolchain), and group members
  share a toolchain.  This mirrors the real CUDA driver's per-PTX JIT
  cache being keyed by code, not by card.

* **Peer access.**  ``peer_access`` says whether device→device copies
  may cross the bus directly (``cudaDeviceEnablePeerAccess``) or must
  stage through host memory.  :meth:`via_host` translates the flag into
  the argument :meth:`~repro.cudasim.stream.Stream.memcpy_peer_async`
  expects: direct copies cost one modeled PCIe traversal, host-staged
  copies two.

Members are named ``dev0``, ``dev1``, … so telemetry spans (and the
Chrome trace's track assignment) distinguish which simulated card did
the work.

Example::

    group = DeviceGroup(4, toolchain=Toolchain.CUDA_1_1)
    lk = group[0].compile(kernel)          # compiles once...
    lks = [d.compile(kernel) for d in group]   # ...all cache hits
    with group[0].stream() as s:
        s.memcpy_peer_async(src, group[1], dst, nwords,
                            via_host=group.via_host)
"""

from __future__ import annotations

from typing import Iterator

from .device import DeviceProperties, G8800GTX, Toolchain
from .kernel_cache import KernelCache, default_cache
from .launch import DEFAULT_HEAP_BYTES, Device, _UNSET

__all__ = ["DeviceGroup"]


class DeviceGroup:
    """``count`` homogeneous simulated devices behind one host process.

    All constructor knobs other than ``count``, ``peer_access`` and
    ``cache`` are forwarded to every member :class:`Device`.  ``cache``
    defaults to the process-wide kernel cache; whatever cache is chosen,
    every member receives the *same* object, so compilation work is
    shared across the group by content address.  Pass ``cache=None`` to
    disable caching on all members (each compiles independently).
    """

    def __init__(
        self,
        count: int,
        props: DeviceProperties = G8800GTX,
        toolchain: Toolchain = Toolchain.CUDA_1_0,
        heap_bytes: int = DEFAULT_HEAP_BYTES,
        cache: KernelCache | None | object = _UNSET,
        fastpath: bool | None = None,
        peer_access: bool = True,
        event_timeout: float | None = None,
    ) -> None:
        if count < 1:
            raise ValueError(f"device count must be >= 1, got {count}")
        self.peer_access = bool(peer_access)
        shared_cache = default_cache() if cache is _UNSET else cache
        self.devices: tuple[Device, ...] = tuple(
            Device(
                props=props,
                toolchain=toolchain,
                heap_bytes=heap_bytes,
                cache=shared_cache,
                fastpath=fastpath,
                name=f"dev{i}",
                event_timeout=event_timeout,
            )
            for i in range(count)
        )
        self.cache = shared_cache

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self) -> Iterator[Device]:
        return iter(self.devices)

    def __getitem__(self, index: int) -> Device:
        return self.devices[index]

    # -- topology ------------------------------------------------------------

    @property
    def via_host(self) -> bool:
        """The ``via_host`` argument peer copies on this group should use."""
        return not self.peer_access

    # -- group-wide operations -----------------------------------------------

    def open_streams(self, prefix: str = "q") -> list:
        """One named stream per member, for host-side job dispatch.

        Streams are named ``<prefix><i>`` after their device index so
        telemetry spans and Chrome-trace tracks line up with
        :attr:`devices`; the caller owns (and must close) them.
        """
        return [
            dev.stream(f"{prefix}{i}") for i, dev in enumerate(self.devices)
        ]

    def capture(self, streams, name: str | None = None):
        """Capture a :class:`~repro.cudasim.graph.LaunchGraph` over
        ``streams`` (one or more streams on this group's members)::

            with group.capture(streams, "step") as graph:
                ...issue one epoch's ops...
            graph.instantiate()
            graph.replay()
        """
        from .graph import LaunchGraph

        return LaunchGraph.capture(streams, name=name)

    def queue_depths(self) -> tuple[int, ...]:
        """Per-member pending-op counts across each device's streams."""
        return tuple(dev.queue_depth() for dev in self.devices)

    def queue_depth(self) -> int:
        """Total pending ops across the whole group."""
        return sum(self.queue_depths())

    def synchronize(self) -> None:
        """Drain every stream on every member device."""
        for dev in self.devices:
            dev.synchronize()

    def reset(self) -> None:
        """Reset every member's heap (frees all allocations)."""
        for dev in self.devices:
            dev.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeviceGroup({len(self.devices)} x {self.devices[0].props.name},"
            f" peer_access={self.peer_access})"
        )

"""Failure injection: the simulator must fail loudly, not corrupt state.

Out-of-bounds kernels, misaligned vector accesses, heap exhaustion mid-
driver, oversized launches — each must surface as the right exception
with the device left usable.
"""

import contextlib

import numpy as np
import pytest

from repro.core import make_layout
from repro.cudasim import (
    CompileOptions,
    Device,
    DeviceGroup,
    KernelBuilder,
    compile_kernel,
)
from repro.cudasim.errors import (
    AccessViolation,
    AllocationError,
    LaunchError,
    MisalignedAccess,
    StreamError,
)
from repro.cudasim.occupancy import suggest_block_size
from repro.cudasim.xfer import TilePlan
from repro.cudasim import G8800GTX
from repro.gravit import (
    GpuConfig,
    GpuForceBackend,
    GpuSimulation,
    OutOfCoreSimulation,
    ShardedGpuSimulation,
    uniform_cube,
)


def _store_kernel(offset_expr):
    b = KernelBuilder("oob", params=("dst",))
    i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), b.sreg("tid"))
    addr = b.imad("a", i, 4, b.param("dst"))
    b.st_global(addr, b.mov("x", 1.0), offset=offset_expr)
    return compile_kernel(b.build())


class TestKernelFaults:
    def test_oob_store_raises(self):
        dev = Device(heap_bytes=1 << 12)
        dst = dev.malloc(64)
        lk = _store_kernel(1 << 12)  # offset past the heap
        with pytest.raises(AccessViolation):
            dev.launch(lk, 1, 32, {"dst": dst})

    def test_negative_address_raises(self):
        dev = Device(heap_bytes=1 << 12)
        b = KernelBuilder("neg", params=("dst",))
        addr = b.mov(b.reg("a"), -64)
        b.st_global(addr, b.mov("x", 1.0))
        with pytest.raises(AccessViolation):
            dev.launch(compile_kernel(b.build()), 1, 32,
                       {"dst": dev.malloc(64)})

    def test_misaligned_vec4_load_raises(self):
        dev = Device(heap_bytes=1 << 12)
        src = dev.malloc(256)
        b = KernelBuilder("mis", params=("src",))
        a = b.mov(b.reg("a"), src.addr + 4)  # 16B load at +4
        q = tuple(b.tmp() for _ in range(4))
        b.ld_global(q, a)
        b.param  # silence linters
        with pytest.raises(MisalignedAccess):
            dev.launch(compile_kernel(b.build()), 1, 32, {"src": src})

    def test_shared_oob_raises(self):
        dev = Device(heap_bytes=1 << 12)
        b = KernelBuilder("soob")
        saddr = b.shl(b.reg("sa"), b.sreg("tid"), 4)
        b.st_shared(saddr, b.mov("x", 1.0))
        kernel = b.build(shared_words=8)  # 32 B << 32 threads × 16 B
        with pytest.raises(AccessViolation):
            dev.launch(compile_kernel(kernel), 1, 32, {})

    def test_device_usable_after_fault(self):
        dev = Device(heap_bytes=1 << 12)
        dst = dev.malloc(4 * 32)
        with pytest.raises(AccessViolation):
            dev.launch(_store_kernel(1 << 12), 1, 32, {"dst": dst})
        # Same device, valid kernel: still works.
        dev.launch(_store_kernel(0), 1, 32, {"dst": dst})
        assert dev.memcpy_dtoh(dst, 32).sum() == 32


def _causes(exc):
    """``exc`` and its ``__cause__`` chain."""
    out = []
    while exc is not None:
        out.append(exc)
        exc = exc.__cause__
    return out


class TestCrossStreamFaults:
    def test_sharded_step_reports_the_shard_fault(self, monkeypatch):
        """A kernel fault on shard 1 of an op-by-op sharded step is the
        cause of ``step()``'s error: shard 0's wait on shard 1's event
        fails with it instead of timing out."""
        group = DeviceGroup(2, event_timeout=30)
        sim = ShardedGpuSimulation(
            uniform_cube(64, seed=4), GpuConfig(block_size=32), group=group
        )

        def fault(*args, **kwargs):
            raise AccessViolation("injected fault on shard 1")

        monkeypatch.setattr(group[1], "launch", fault)
        with pytest.raises(StreamError) as info:
            sim.step(1e-3)
        causes = _causes(info.value)
        assert any(isinstance(e, AccessViolation) for e in causes), causes
        with contextlib.suppress(StreamError):  # the streams stay poisoned
            sim.close()


class TestResourceExhaustion:
    def test_driver_upload_oom_propagates(self):
        system = uniform_cube(4096, seed=1)
        backend = GpuForceBackend(
            GpuConfig(block_size=64), device=Device(heap_bytes=1 << 12)
        )
        with pytest.raises(AllocationError):
            backend.forces_cycle(system)

    def test_gpu_simulation_oom(self):
        system = uniform_cube(4096, seed=2)
        with pytest.raises(AllocationError):
            GpuSimulation(
                system, GpuConfig(block_size=64),
                device=Device(heap_bytes=1 << 12),
            )

    @pytest.mark.parametrize("driver", ["plain", "sharded", "out-of-core"])
    def test_failed_constructor_frees_what_it_allocated(self, driver):
        """The heap fits the driver's first allocation but not a later
        one: the constructor must free the first before re-raising."""
        system = uniform_cube(1024, seed=3)
        cfg = GpuConfig(layout_kind="soaoas", block_size=128)
        layout = make_layout("soaoas", 1024)
        if driver == "out-of-core":  # first comes the resident slab
            heap = TilePlan(layout, 512).slot_bytes + 4096
        else:  # first comes the particle layout
            heap = layout.size_bytes + 4096
        if driver == "sharded":
            group = DeviceGroup(2, heap_bytes=heap)
            devices = list(group)
            build = lambda: ShardedGpuSimulation(system, cfg, group=group)
        elif driver == "plain":
            devices = [Device(heap_bytes=heap)]
            build = lambda: GpuSimulation(system, cfg, device=devices[0])
        else:
            devices = [Device(heap_bytes=heap)]
            build = lambda: OutOfCoreSimulation(
                system, cfg, device=devices[0], tile_rows=512
            )
        before = [dev.gmem.bytes_in_use for dev in devices]
        with pytest.raises(AllocationError):
            build()
        assert [dev.gmem.bytes_in_use for dev in devices] == before

    def test_register_hungry_block_rejected_at_launch(self):
        dev = Device(heap_bytes=1 << 12)
        b = KernelBuilder("hog", params=("dst",))
        regs = [b.tmp() for _ in range(40)]
        for r in regs:
            b.mov(r, 1.0)
        total = b.mov(b.reg("t"), 0.0)
        for r in regs:
            b.add(total, total, r)
        b.st_global(b.mov("a", b.param("dst")), total)
        lk = compile_kernel(b.build(), CompileOptions(dce=False))
        assert lk.reg_count > 32
        with pytest.raises(LaunchError):
            dev.launch(lk, 1, 512, {"dst": dev.malloc(64)})


class TestBlockSizeAdvisor:
    def test_paper_configuration_recovered(self):
        """16 regs/thread + 16 B/thread tile → the advisor picks 128."""
        r = suggest_block_size(G8800GTX, 16, shared_per_thread=16)
        assert r.block_size == 128
        assert r.occupancy(G8800GTX) == pytest.approx(2 / 3, abs=0.01)

    def test_amortization_tiebreak(self):
        """Among equal-occupancy blocks the advisor stops at the smallest
        K whose slice-overhead headroom is under tolerance — tightening
        the tolerance pushes it to larger K."""
        loose = suggest_block_size(
            G8800GTX, 16, shared_per_thread=16, amortization_tolerance=0.05
        )
        tight = suggest_block_size(
            G8800GTX, 16, shared_per_thread=16, amortization_tolerance=1e-9
        )
        assert loose.block_size <= 128 <= tight.block_size
        assert loose.occupancy(G8800GTX) == tight.occupancy(G8800GTX)

    def test_advisor_respects_occupancy_first(self):
        """A block size with lower occupancy never wins the tie-break.

        (Fun fact surfaced by this sweep: at the *baseline's* 18
        registers, an exotic 448-thread block squeezes 58 % out of the
        register file — but the paper's tuning story concerns the
        optimized 16-register kernel, where 128 wins.)"""
        from repro.cudasim import occupancy

        candidates = (32, 64, 96, 128, 160, 192, 256, 320, 384, 448, 512)
        r = suggest_block_size(
            G8800GTX, 18, shared_per_thread=16, block_sizes=candidates
        )
        occupancies = []
        for bs in candidates:
            try:
                occupancies.append(
                    occupancy(G8800GTX, bs, 18, 16 * bs).occupancy(G8800GTX)
                )
            except LaunchError:
                pass  # e.g. 512 threads × 18 regs exceeds the file
        assert r.occupancy(G8800GTX) == pytest.approx(max(occupancies))

    def test_impossible_demand_raises(self):
        with pytest.raises(LaunchError):
            suggest_block_size(G8800GTX, 124, shared_per_thread=600)

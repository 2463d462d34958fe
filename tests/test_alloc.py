"""Dynamic device allocator: free list, block pools, compaction, Gravit."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.cudasim import (
    AccessViolation,
    AllocationError,
    BlockPool,
    Device,
    DevicePtr,
    DoubleFreeError,
    FreeListAllocator,
    GlobalMemory,
    OutOfMemoryError,
    compact_pool,
)
from repro.gravit import (
    GpuConfig,
    GpuSimulation,
    ParticleSystem,
    PooledSimulation,
    device_buffers,
    uniform_sphere,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


# -- free list -------------------------------------------------------------


class TestFreeList:
    def test_alloc_free_alloc_reuses_address(self):
        fl = FreeListAllocator(1 << 16)
        a1, _ = fl.alloc(1000)
        fl.alloc(1000)
        fl.free(a1)
        a3, _ = fl.alloc(900)  # fits the hole -> first fit reuses it
        assert a3 == a1

    def test_interior_free_returns_bytes(self):
        fl = FreeListAllocator(1 << 16)
        ptrs = [fl.alloc(2048)[0] for _ in range(4)]
        in_use = fl.bytes_in_use
        fl.free(ptrs[1])
        fl.free(ptrs[2])
        assert fl.bytes_in_use == in_use - 2 * 2048

    def test_double_free_after_coalescing_raises(self):
        """Freeing twice must fail even once the hole has merged with its
        neighbours and the original segment boundary no longer exists."""
        fl = FreeListAllocator(1 << 16)
        a, b, c = (fl.alloc(512)[0] for _ in range(3))
        fl.free(a)
        fl.free(c)
        fl.free(b)  # merges with both neighbours
        for addr in (a, b, c):
            with pytest.raises(DoubleFreeError):
                fl.free(addr)

    def test_adjacent_holes_coalesce(self):
        fl = FreeListAllocator(1 << 16)
        ptrs = [fl.alloc(256)[0] for _ in range(8)]
        for p in ptrs:
            fl.free(p)
        assert fl.stats().free_segments == 1
        assert fl.largest_free_block == 1 << 16

    def test_oom_reports_largest_satisfiable(self):
        fl = FreeListAllocator(4096, align=256)
        keep = fl.alloc(256)[0]
        mid = fl.alloc(256)[0]
        fl.alloc(256)
        fl.free(mid)  # hole of 256 between two live allocations
        with pytest.raises(OutOfMemoryError) as ei:
            fl.alloc(1 << 20)
        # `available` is what a retry could actually get, not total free.
        assert ei.value.available == fl.largest_alloc
        assert 0 < ei.value.available < fl.bytes_free + 1
        fl.free(keep)

    def test_fragmentation_ratio(self):
        fl = FreeListAllocator(1 << 14, align=256)
        ptrs = [fl.alloc(256)[0] for _ in range(16)]
        assert fl.fragmentation_ratio == 0.0  # one tail hole
        for p in ptrs[::2]:
            fl.free(p)
        assert fl.fragmentation_ratio > 0.0


class TestGlobalMemoryAllocator:
    def test_interior_free_is_reusable(self):
        gm = GlobalMemory(1 << 14)
        a = gm.alloc(1024)
        b = gm.alloc(1024)
        gm.alloc(1024)
        gm.free(b)
        c = gm.alloc(512)
        assert c.addr == b.addr
        gm.free(a)

    def test_alignment_preserved(self):
        gm = GlobalMemory(1 << 14)
        a = gm.alloc(4)
        gm.free(a)
        b = gm.alloc(12)
        assert b.addr % GlobalMemory.ALLOC_ALIGN == 0

    def test_oom_available_is_accurate(self):
        gm = GlobalMemory(4096)
        gm.alloc(2048)
        with pytest.raises(OutOfMemoryError) as ei:
            gm.alloc(4096)
        # An alloc of exactly `available` must then succeed.
        assert gm.alloc(ei.value.available).nbytes >= ei.value.available

    def test_heap_stats_roundtrip(self):
        gm = GlobalMemory(1 << 14)
        gm.alloc(100, tag="probe")
        st = gm.heap_stats()
        assert st.allocations == 1
        assert st.bytes_in_use == gm.bytes_in_use
        assert len(list(gm.allocations())) == 1


# -- DevicePtr.slice -------------------------------------------------------


class TestDevicePtrSlice:
    def test_slice_bounds(self):
        p = DevicePtr(256, 64)
        v = p.slice(16, 32)
        assert (v.addr, v.nbytes) == (272, 32)

    @pytest.mark.parametrize("off,n", [(-1, 4), (0, 65), (60, 8), (0, -1)])
    def test_slice_out_of_range(self, off, n):
        with pytest.raises(AccessViolation):
            DevicePtr(256, 64).slice(off, n)

    def test_slice_does_not_inherit_tail(self):
        v = DevicePtr(0, 64).slice(0, 8)
        with pytest.raises(AccessViolation):
            v.slice(0, 16)


# -- device_buffers --------------------------------------------------------


class TestDeviceBuffers:
    def test_frees_on_exit_and_error(self):
        dev = Device(heap_bytes=1 << 14)
        with device_buffers(dev, 256, 512) as (a, b):
            assert dev.gmem.bytes_in_use >= 768
        assert dev.gmem.bytes_in_use == 0
        with pytest.raises(RuntimeError):
            with device_buffers(dev, 256):
                raise RuntimeError("boom")
        assert dev.gmem.bytes_in_use == 0

    def test_partial_allocation_unwound_on_oom(self):
        dev = Device(heap_bytes=1 << 12)
        with pytest.raises(OutOfMemoryError):
            with device_buffers(dev, 256, 1 << 20):
                pass  # pragma: no cover
        assert dev.gmem.bytes_in_use == 0


# -- block pool ------------------------------------------------------------


def _churn(pool, n, rounds, kill_frac=0.5, seed=0):
    rng = np.random.default_rng(seed)
    handles = pool.allocate_many(n)
    for _ in range(rounds):
        doomed = rng.choice(
            len(handles), size=int(kill_frac * len(handles)), replace=False
        )
        dset = set(doomed.tolist())
        for i in dset:
            pool.free(handles[i])
        handles = [h for i, h in enumerate(handles) if i not in dset]
        handles.extend(pool.allocate_many(int(0.5 * len(dset))))
    return handles


class TestBlockPool:
    def test_record_roundtrip(self):
        pool = BlockPool(GlobalMemory(1 << 16), "soaoas", 16)
        h = pool.allocate({"px": 1.5, "mass": 2.0})
        assert pool.read(h)["px"] == 1.5
        assert pool.read(h)["mass"] == 2.0
        pool.free(h)
        with pytest.raises(AllocationError):
            pool.read(h)

    def test_free_unknown_record_raises(self):
        pool = BlockPool(GlobalMemory(1 << 16), "aos", 16)
        h = pool.allocate()
        pool.free(h)
        with pytest.raises(AllocationError):
            pool.free(h)

    def test_slot_reuse_is_deterministic(self):
        pool = BlockPool(GlobalMemory(1 << 16), "soa", 8)
        hs = pool.allocate_many(8)
        loc = pool.location(hs[3])
        pool.free(hs[3])
        h2 = pool.allocate()
        assert pool.location(h2) == loc

    def test_handles_survive_compaction(self):
        pool = BlockPool(GlobalMemory(1 << 18), "soaoas", 16)
        handles = pool.allocate_many(64)
        for i, h in enumerate(handles):
            pool.write(h, {"px": float(i), "mass": 1.0})
        for h in handles[::3]:
            pool.free(h)
        survivors = [h for i, h in enumerate(handles) if i % 3]
        report = compact_pool(pool)
        assert report.records_moved > 0
        assert report.relocations  # old -> new locations recorded
        for i, h in enumerate(handles):
            if i % 3:
                assert pool.read(h)["px"] == float(i)
        assert pool.fragmentation_ratio < 0.25
        assert len(pool.live_handles()) == len(survivors)

    def test_oom_fragmented_then_compaction_frees_room(self):
        """Enough dead capacity exists in total, but it is scattered over
        sparse pool blocks; the alloc must raise until compaction migrates
        the stragglers, releases the blocks, and the holes coalesce."""
        gm = GlobalMemory(8192)
        pool = BlockPool(gm, "soa", records_per_block=16)
        blocks = gm.size_bytes // pool.block_bytes - 1
        handles = pool.allocate_many(16 * blocks)
        # Leave one record per block: every block stays pinned.
        for bid_start in range(0, len(handles), 16):
            for h in handles[bid_start + 1 : bid_start + 16]:
                pool.free(h)
        want = 2 * pool.block_bytes
        dead_bytes = (pool.capacity - pool.live_records) * (
            pool.block_bytes // pool.records_per_block
        )
        assert gm.bytes_free + dead_bytes >= want  # sufficient in total...
        with pytest.raises(OutOfMemoryError):
            gm.alloc(want)  # ...but trapped in fragmented blocks
        report = pool.compact()  # migrate stragglers, release empty blocks
        assert report.blocks_freed == blocks - 1
        ptr = gm.alloc(want)  # now the coalesced hole fits it
        assert ptr.nbytes >= want

    def test_churn_10k_records_in_2x_heap(self):
        """The acceptance envelope: >= 10k records of churn inside a heap
        sized 2x the live set, no OOM, frag < 0.25 after compaction."""
        rpb = 64
        live = 1024
        pool_probe = BlockPool(GlobalMemory(1 << 20), "soaoas", rpb)
        block_bytes = -(-pool_probe.block_bytes // 256) * 256
        heap = 2 * (live // rpb) * block_bytes
        gm = GlobalMemory(heap)
        pool = BlockPool(gm, "soaoas", rpb)
        rng = np.random.default_rng(42)
        handles = pool.allocate_many(live)
        churned = live
        while churned < 10_000:
            doomed = rng.choice(len(handles), size=live // 4, replace=False)
            dset = set(doomed.tolist())
            for i in dset:
                pool.free(handles[i])
            handles = [h for i, h in enumerate(handles) if i not in dset]
            handles.extend(pool.allocate_many(len(dset)))
            churned += len(dset)
        assert pool.live_records == live
        pool.compact()
        assert pool.fragmentation_ratio < 0.25
        assert gm.fragmentation_ratio < 0.25

    def test_coalesced_transactions_drop_after_compact(self):
        from repro.core import StrictHalfWarpPolicy

        pool = BlockPool(GlobalMemory(1 << 18), "soaoas", 16)
        _churn(pool, 128, rounds=3, seed=7)
        sparse = pool.coalesced_transactions(StrictHalfWarpPolicy())
        pool.compact()
        dense = pool.coalesced_transactions(StrictHalfWarpPolicy())
        assert dense <= sparse

    def test_telemetry_counters(self):
        telemetry.enable()
        pool = BlockPool(GlobalMemory(1 << 16), "aos", 16, name="tele")
        hs = pool.allocate_many(5)
        pool.free(hs[0])
        pool.compact()
        snap = telemetry.snapshot()
        series = {
            name: {
                tuple(sorted(s["labels"].items())): s
                for s in metric["series"]
            }
            for name, metric in snap.items()
        }
        key = (("pool", "tele"),)
        assert series["cudasim.alloc.allocs"][key]["value"] == 5
        assert series["cudasim.alloc.frees"][key]["value"] == 1
        assert series["cudasim.alloc.compactions"][key]["value"] == 1
        assert "cudasim.alloc.fragmentation_ratio" in snap
        assert "cudasim.alloc.live_records" in snap

    def test_failed_alloc_counter(self):
        telemetry.enable()
        pool = BlockPool(GlobalMemory(4096), "aos", 16, name="oomy")
        with pytest.raises(OutOfMemoryError):
            pool.allocate_many(10_000)
        snap = telemetry.snapshot()
        assert snap["cudasim.alloc.failed_allocs"]["series"][0]["value"] == 1


# -- Gravit dynamic populations --------------------------------------------


class TestParticlePools:
    def test_spawn_into_and_from_pool_roundtrip(self):
        system = uniform_sphere(30, seed=5)
        pool = BlockPool(GlobalMemory(1 << 18), "soaoas", 16)
        handles = system.spawn_into(pool)
        back = ParticleSystem.from_pool(pool, handles)
        for f in ("px", "py", "pz", "vx", "vy", "vz", "mass"):
            assert np.array_equal(getattr(system, f), getattr(back, f)), f

    def test_remove_mask_and_indices(self):
        system = uniform_sphere(10, seed=1)
        by_idx = system.remove([0, 3])
        mask = np.zeros(10, dtype=bool)
        mask[[0, 3]] = True
        by_mask = system.remove(mask)
        assert by_idx.n == by_mask.n == 8
        assert np.array_equal(by_idx.px, by_mask.px)
        with pytest.raises(ValueError):
            system.remove(np.ones(10, dtype=bool))
        with pytest.raises(IndexError):
            system.remove([10])

    def test_pooled_simulation_matches_plain(self):
        system = uniform_sphere(24, seed=8)
        cfg = GpuConfig(block_size=32, layout_kind="soaoas")
        dev = Device()
        pool = BlockPool(dev, "soaoas", 16)
        system.spawn_into(pool)
        with PooledSimulation(pool, dev, cfg) as psim:
            psim.run(2, 1e-3)
            pooled = psim.writeback()
        ref = GpuSimulation(system, cfg)
        ref.run(2, 1e-3)
        expect = ref.download()
        ref.close()
        for f in ("px", "py", "pz", "vx", "vy", "vz"):
            assert np.array_equal(getattr(pooled, f), getattr(expect, f)), f

    def test_pool_state_bit_identical_across_fastpath_modes(self):
        """Particle state and cycles after pooled steps, with a mid-run
        compaction, are bit-identical under the interpreter and the
        compiled fast path."""

        def run(fastpath):
            system = uniform_sphere(20, seed=13)
            cfg = GpuConfig(block_size=32, layout_kind="soaoas")
            dev = Device(fastpath=fastpath, heap_bytes=1 << 22)
            pool = BlockPool(dev, "soaoas", 16)
            handles = system.spawn_into(pool)
            with PooledSimulation(pool, dev, cfg) as psim:
                cycles = [psim.step(1e-3)]
                psim.remove(handles[::4])
                psim.compact()
                cycles.append(psim.step(1e-3))
                return cycles, psim.writeback()

        ref_cycles, ref = run(False)
        cycles, state = run(True)
        assert cycles == ref_cycles
        for f in ("px", "py", "pz", "vx", "vy", "vz", "mass"):
            assert np.array_equal(getattr(state, f), getattr(ref, f)), f

    def test_pooled_sim_rejects_foreign_device(self):
        pool = BlockPool(GlobalMemory(1 << 18), "soaoas", 16)
        uniform_sphere(8, seed=2).spawn_into(pool)
        with pytest.raises(ValueError):
            PooledSimulation(pool, Device())

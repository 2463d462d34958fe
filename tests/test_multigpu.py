"""Multi-device sharding: bit-identity, device groups, row regions.

The load-bearing contract: :class:`ShardedGpuSimulation` must produce
*bit-identical* state and forces to the single-device
:class:`GpuSimulation` for every layout × device count × fastpath
setting — row sharding only adds an integer offset to the thread index,
never a float operation.  Alongside it, the
:class:`DeviceGroup` topology units (shared kernel cache, peer-copy
semantics and cost) and the :meth:`MemoryLayout.row_regions` geometry
the broadcast ships.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.layouts import make_layout
from repro.cudasim import Device, DeviceGroup, KernelCache
from repro.gravit import (
    GpuConfig,
    GpuSimulation,
    ShardedGpuSimulation,
    uniform_sphere,
)

N, BLOCK = 96, 32
DT = 0.01
FIELDS = ("px", "py", "pz", "vx", "vy", "vz", "mass")


@pytest.fixture(scope="module")
def system():
    return uniform_sphere(N, seed=11)


def _run_single(system, cfg, steps=2, scheme="euler", **device_kw):
    sim = GpuSimulation(system.copy(), cfg, device=Device(**device_kw))
    sim.run(steps, DT, scheme=scheme)
    state, forces = sim.download(), sim.download_forces()
    sim.close()
    return state, forces


def _run_sharded(system, cfg, ndev, steps=2, scheme="euler", **group_kw):
    group = DeviceGroup(ndev, toolchain=cfg.toolchain, **group_kw)
    sim = ShardedGpuSimulation(system.copy(), cfg, group=group)
    sim.run(steps, DT, scheme=scheme)
    state, forces = sim.download(), sim.download_forces()
    stats = {
        "copy_bytes": sim.copy_bytes_total,
        "copy_cycles": sim.copy_cycles_total,
        "row_ranges": sim.row_ranges,
    }
    sim.close()
    return state, forces, stats


def _assert_state_equal(a, b):
    for f in FIELDS:
        assert np.array_equal(getattr(a, f), getattr(b, f)), f


class TestBitIdentity:
    @pytest.mark.parametrize(
        "kind", ("aos", "soa", "aoas", "soaoas", "soaoas64", "unopt")
    )
    @pytest.mark.parametrize("ndev", (2, 4, 8))
    def test_layout_and_device_count(self, system, kind, ndev):
        cfg = GpuConfig(layout_kind=kind, block_size=BLOCK)
        ref_state, ref_forces = _run_single(system, cfg)
        state, forces, _ = _run_sharded(system, cfg, ndev)
        _assert_state_equal(ref_state, state)
        assert np.array_equal(ref_forces, forces)

    @pytest.mark.parametrize("fastpath", (True, False))
    def test_fastpath_modes(self, system, fastpath):
        cfg = GpuConfig(layout_kind="soaoas", block_size=BLOCK)
        ref_state, ref_forces = _run_single(system, cfg, fastpath=fastpath)
        state, forces, _ = _run_sharded(system, cfg, 2, fastpath=fastpath)
        _assert_state_equal(ref_state, state)
        assert np.array_equal(ref_forces, forces)

    def test_leapfrog(self, system):
        cfg = GpuConfig(layout_kind="soa", block_size=BLOCK)
        ref_state, ref_forces = _run_single(
            system, cfg, steps=3, scheme="leapfrog"
        )
        state, forces, _ = _run_sharded(
            system, cfg, 3, steps=3, scheme="leapfrog"
        )
        _assert_state_equal(ref_state, state)
        assert np.array_equal(ref_forces, forces)

    def test_host_staged_exchange_same_result_higher_cost(self, system):
        """No peer access changes the copy *cost*, never the data."""
        cfg = GpuConfig(layout_kind="soaoas", block_size=BLOCK)
        s_peer, f_peer, peer = _run_sharded(
            system, cfg, 2, peer_access=True
        )
        s_host, f_host, host = _run_sharded(
            system, cfg, 2, peer_access=False
        )
        _assert_state_equal(s_peer, s_host)
        assert np.array_equal(f_peer, f_host)
        assert host["copy_bytes"] == peer["copy_bytes"]
        assert host["copy_cycles"] == pytest.approx(2 * peer["copy_cycles"])

    def test_more_devices_than_blocks(self, system):
        """Trailing shards own nothing and must be inert, not wrong."""
        cfg = GpuConfig(layout_kind="soa", block_size=BLOCK)
        ref_state, ref_forces = _run_single(system, cfg)
        state, forces, stats = _run_sharded(system, cfg, 8)
        _assert_state_equal(ref_state, state)
        assert np.array_equal(ref_forces, forces)
        empty = [r0 == r1 for r0, r1 in stats["row_ranges"]]
        assert any(empty)  # 3 blocks over 8 devices

    def test_row_ranges_partition_padded_rows(self, system):
        cfg = GpuConfig(layout_kind="soaoas", block_size=BLOCK)
        sim = ShardedGpuSimulation(system.copy(), cfg, num_devices=4)
        covered = []
        for r0, r1 in sim.row_ranges:
            covered.extend(range(r0, r1))
        assert covered == list(range(sim.n_pad))
        sim.close()


class TestCopyTraffic:
    def test_interleaved_layouts_ship_more_bytes(self, system):
        """aos/aoas broadcast whole records, soa/soaoas only posmass."""
        per_kind = {}
        for kind in ("aos", "soa", "aoas", "soaoas"):
            cfg = GpuConfig(layout_kind=kind, block_size=BLOCK)
            _, _, stats = _run_sharded(system, cfg, 2, steps=1)
            per_kind[kind] = stats["copy_bytes"]
        assert per_kind["soa"] < per_kind["aos"]
        assert per_kind["soaoas"] < per_kind["aoas"]
        # Grouped layouts ship exactly the 16-byte posmass group per row.
        n_pad = -(-N // BLOCK) * BLOCK
        assert per_kind["soaoas"] == 16 * n_pad
        # Interleaved layouts ship ~the whole 32-byte record per row.
        assert per_kind["aoas"] == 32 * n_pad

    def test_single_device_does_not_copy(self, system):
        cfg = GpuConfig(layout_kind="soaoas", block_size=BLOCK)
        _, _, stats = _run_sharded(system, cfg, 1, steps=1)
        assert stats["copy_bytes"] == 0
        assert stats["copy_cycles"] == 0.0


class TestDeviceGroup:
    def test_members_are_named_and_independent(self):
        group = DeviceGroup(3)
        assert [d.name for d in group] == ["dev0", "dev1", "dev2"]
        assert len({id(d.gmem) for d in group}) == 3
        ptr = group[0].malloc(64)
        group[0].memcpy_htod(ptr, np.ones(16, dtype=np.float32))
        # Same address space shape, different heaps: dev1 is untouched.
        assert group[1].gmem.bytes_in_use == 0
        group.reset()

    def test_kernel_cache_shared_by_content(self):
        from repro.gravit.gpu_kernels import build_force_kernel

        cache = KernelCache()
        group = DeviceGroup(4, cache=cache)
        kernel, _ = build_force_kernel(
            make_layout("soaoas", BLOCK), block_size=BLOCK
        )
        for dev in group:
            dev.compile(kernel)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 3

    def test_via_host_follows_peer_access(self):
        assert DeviceGroup(2, peer_access=True).via_host is False
        assert DeviceGroup(2, peer_access=False).via_host is True

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="count"):
            DeviceGroup(0)

    def test_group_synchronize_drains_member_streams(self):
        group = DeviceGroup(2)
        ptr = group[1].malloc(64)
        s = group[1].stream()
        s.memcpy_htod_async(ptr, np.arange(16, dtype=np.float32))
        group.synchronize()
        assert np.array_equal(
            group[1].memcpy_dtoh(ptr, 16), np.arange(16, dtype=np.float32)
        )
        s.close()


class TestRowRegions:
    def test_soa_regions_cover_exactly_posmass(self):
        layout = make_layout("soa", 64)
        regions = layout.row_regions(16, 32, ("px", "py", "pz", "mass"))
        # Four disjoint per-field arrays -> four intervals of 4 B/row.
        assert len(regions) == 4
        assert all(nbytes == 4 * 16 for _, nbytes in regions)

    def test_soaoas_posmass_is_one_interval(self):
        layout = make_layout("soaoas", 64)
        regions = layout.row_regions(0, 16, ("px", "py", "pz", "mass"))
        assert regions == ((0, 16 * 16),)

    def test_aos_rows_merge_into_one_span(self):
        layout = make_layout("aos", 64)  # 32-byte padded stride
        (offset, nbytes), = layout.row_regions(
            8, 16, ("px", "py", "pz", "mass")
        )
        assert offset == 8 * 32
        # One merged span across the interleaved records: from the first
        # row's px to the last row's mass lane.
        assert nbytes == 32 * 8 - 4

    def test_regions_are_word_aligned_and_in_bounds(self):
        for kind in ("unopt", "aos", "soa", "aoas", "soaoas", "soaoas64"):
            layout = make_layout(kind, 64)
            for offset, nbytes in layout.row_regions(8, 24):
                assert offset % 4 == 0 and nbytes % 4 == 0
                assert 0 <= offset and offset + nbytes <= layout.size_bytes

    def test_bad_ranges_rejected(self):
        layout = make_layout("soa", 64)
        for lo, hi in ((-1, 8), (8, 8), (8, 4), (0, 65)):
            with pytest.raises(IndexError):
                layout.row_regions(lo, hi)

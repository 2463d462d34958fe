"""Device memory: allocator, bounds/alignment checks, bank conflicts."""

import numpy as np
import pytest

from repro.cudasim import G8800GTX, bank_conflict_degree
from repro.cudasim.errors import (
    AccessViolation,
    AllocationError,
    MisalignedAccess,
)
from repro.cudasim.memory import GlobalMemory, SharedMemory


class TestAllocator:
    def test_alloc_is_256_aligned(self):
        gm = GlobalMemory(1 << 16)
        a = gm.alloc(100)
        b = gm.alloc(4)
        assert a.addr % 256 == 0 and b.addr % 256 == 0
        assert b.addr >= a.addr + 100

    def test_oom(self):
        gm = GlobalMemory(1024)
        with pytest.raises(AllocationError):
            gm.alloc(2048)

    def test_free_and_rewind(self):
        gm = GlobalMemory(1 << 14)
        a = gm.alloc(256)
        b = gm.alloc(256)
        gm.free(b)
        with pytest.raises(AllocationError):
            gm.free(b)  # double free
        c = gm.alloc(256)
        assert c.addr == b.addr  # tail space reclaimed

    def test_zero_alloc_rejected(self):
        with pytest.raises(AllocationError):
            GlobalMemory(1024).alloc(0)

    def test_reset(self):
        gm = GlobalMemory(1024)
        gm.alloc(512)
        gm.reset()
        assert gm.bytes_in_use == 0
        gm.alloc(1024)  # whole heap available again

    def test_ptr_offset(self):
        gm = GlobalMemory(1024)
        p = gm.alloc(64)
        q = p.offset(16)
        assert int(q) == int(p) + 16
        with pytest.raises(AccessViolation):
            p.offset(65)


class TestTransfers:
    def test_write_read_roundtrip(self):
        gm = GlobalMemory(1 << 12)
        p = gm.alloc(64)
        data = np.arange(16, dtype=np.float32)
        gm.write(p, data)
        np.testing.assert_array_equal(gm.read(p, 16), data)

    def test_out_of_bounds_transfer(self):
        gm = GlobalMemory(64)
        with pytest.raises(AccessViolation):
            gm.write(32, np.zeros(16, np.float32))

    def test_misaligned_transfer(self):
        gm = GlobalMemory(64)
        with pytest.raises(MisalignedAccess):
            gm.read(2, 1)


class TestKernelAccess:
    def test_gather_vector(self):
        gm = GlobalMemory(1 << 12)
        gm.words[:8] = np.arange(8, dtype=np.float32)
        out = gm.gather(np.array([0, 16]), lanes=4)
        np.testing.assert_array_equal(out[:, 0], [0, 1, 2, 3])
        np.testing.assert_array_equal(out[:, 1], [4, 5, 6, 7])

    def test_scatter(self):
        gm = GlobalMemory(1 << 12)
        gm.scatter(np.array([0, 8]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(gm.words[:4], [1, 3, 2, 4])

    def test_misaligned_vector_access(self):
        gm = GlobalMemory(1 << 12)
        with pytest.raises(MisalignedAccess):
            gm.gather(np.array([4]), lanes=4)  # 16B access at 4

    def test_oob_access(self):
        gm = GlobalMemory(64)
        with pytest.raises(AccessViolation):
            gm.gather(np.array([64]), lanes=2)


class TestSharedMemory:
    def test_roundtrip_and_bounds(self):
        sm = SharedMemory(words=32, device=G8800GTX)
        sm.scatter(np.array([0]), np.array([[7.0]]))
        assert sm.gather(np.array([0]), 1)[0, 0] == 7.0
        with pytest.raises(AccessViolation):
            sm.gather(np.array([128]), 1)

    def test_float32_storage(self):
        sm = SharedMemory(words=4, device=G8800GTX)
        sm.scatter(np.array([0]), np.array([[1.0 + 1e-9]]))
        assert sm.gather(np.array([0]), 1)[0, 0] == np.float32(1.0 + 1e-9)

    def test_stacked_blocks_share_one_access(self):
        """Blocks allocated together are rows of one stack: one scatter
        or gather with per-address rows serves each its own words, and
        each block's own view sees only its row."""
        a, b, c = SharedMemory.stacked(8, G8800GTX, 3)
        addrs, rows = np.array([0, 0, 8, 12]), np.array([0, 2, 2, 1])
        a.scatter(addrs, np.array([[1.0, 2.0, 3.0, 4.0], [5, 6, 7, 8]]), rows)
        assert a.words[:2].tolist() == [1.0, 5.0]
        assert b.words[3:5].tolist() == [4.0, 8.0]
        assert c.words[[0, 1, 2, 3]].tolist() == [2.0, 6.0, 3.0, 7.0]
        got = c.gather(addrs, 2, rows)
        assert got.tolist() == [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]
        assert b.gather(np.array([12]), 1)[0, 0] == 4.0
        with pytest.raises(AccessViolation):
            a.gather(np.array([28]), 2, np.array([1]))


class TestBankConflicts:
    def _degree(self, word_addrs, lanes=1, active=None):
        addrs = np.asarray(word_addrs) * 4
        if active is None:
            active = np.ones(len(addrs), dtype=bool)
        return bank_conflict_degree(addrs, active, lanes)

    def test_conflict_free_sequential(self):
        assert self._degree(np.arange(32)) == 1

    def test_broadcast_is_free(self):
        """All threads reading the same word: the CC 1.x broadcast path."""
        assert self._degree(np.zeros(32, dtype=int)) == 1

    def test_stride_2_two_way(self):
        assert self._degree(np.arange(16) * 2) == 2

    def test_stride_16_sixteen_way(self):
        assert self._degree(np.arange(16) * 16) == 16

    def test_vector_access_serializes_by_width(self):
        """A float4 shared read is 4 bank accesses even when broadcast."""
        assert self._degree(np.zeros(32, dtype=int), lanes=4) == 4

    def test_inactive_lanes_ignored(self):
        active = np.zeros(32, dtype=bool)
        active[0] = True
        assert self._degree(np.arange(32) * 16, active=active) == 1

    def test_halfwarp_granularity(self):
        # Conflicts are per half-warp: lanes 0..15 hit bank 0, lanes
        # 16..31 hit distinct banks — worst half decides.
        words = np.concatenate([np.zeros(16, int), np.arange(16)])
        assert self._degree(words) == 1

"""Half-warp address streams and transaction segment arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import make_layout
from repro.core.access import (
    HALFWARP,
    HalfWarpAccess,
    accesses_for_indices,
    halfwarp_access,
    warp_accesses,
)
from repro.core.coalescing import StrictHalfWarpPolicy
from repro.core.transactions import (
    MemoryTransaction,
    access_segments,
    cover_with_segments,
    segment_of,
    total_bytes,
    touched_segments,
)


def _loop_segments(addresses, access_size, segment_size):
    """The per-address loop ``access_segments`` vectorizes: each access's
    touched segments, in access order."""
    out = []
    for a in addresses:
        first = segment_of(int(a), segment_size)
        last = segment_of(int(a) + access_size - 1, segment_size)
        out.extend(range(first, last + 1, segment_size))
    return out


class TestHalfWarpAccess:
    def test_sequential_detection(self):
        a = HalfWarpAccess(np.arange(16) * 4 + 64, 4)
        assert a.is_sequential()
        assert a.sequential_base() == 64

    def test_sequential_with_gaps_in_activity(self):
        """CC 1.0 allows inactive lanes as long as active lane k hits
        element k."""
        active = np.ones(16, dtype=bool)
        active[3] = active[9] = False
        addrs = np.arange(16) * 4
        addrs[3] = 999  # garbage under an inactive lane is ignored
        a = HalfWarpAccess(addrs, 4, active)
        assert a.is_sequential()
        assert a.sequential_base() == 0

    def test_strided_not_sequential(self):
        a = HalfWarpAccess(np.arange(16) * 28, 4)
        assert not a.is_sequential()

    def test_shuffled_not_sequential(self):
        addrs = np.arange(16) * 4
        addrs[[0, 1]] = addrs[[1, 0]]
        assert not HalfWarpAccess(addrs, 4).is_sequential()

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            HalfWarpAccess(np.zeros(16, np.int64), 12)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            HalfWarpAccess(np.zeros(8, np.int64), 4)

    def test_all_inactive(self):
        a = HalfWarpAccess(np.zeros(16, np.int64), 4, np.zeros(16, bool))
        assert not a.any_active
        assert a.sequential_base() is None


class TestGenerators:
    def test_warp_accesses_covers_both_halves(self):
        lay = make_layout("soa", 64)
        step = lay.steps[0]
        halves = warp_accesses(step, 0)
        assert len(halves) == 2
        assert halves[0].addresses[0] == step.address(0)
        assert halves[1].addresses[0] == step.address(16)

    def test_halfwarp_access_validation(self):
        lay = make_layout("soa", 64)
        with pytest.raises(ValueError):
            halfwarp_access(lay.steps[0], 0, half=2)

    def test_warp_mask_split(self):
        lay = make_layout("soa", 64)
        mask = np.zeros(32, dtype=bool)
        mask[:20] = True
        h0, h1 = warp_accesses(lay.steps[0], 0, active=mask)
        assert h0.active.all()
        assert h1.active.sum() == 4

    def test_accesses_for_indices_gather(self):
        lay = make_layout("soa", 64)
        idx = np.array([5, 3, -1, 7] + [0] * 12, dtype=np.int64)
        (acc,) = accesses_for_indices(lay.steps[0], idx)
        assert not acc.active[2]
        assert acc.addresses[0] == lay.steps[0].address(5)

    def test_accesses_for_indices_shape_check(self):
        lay = make_layout("soa", 64)
        with pytest.raises(ValueError):
            accesses_for_indices(lay.steps[0], np.arange(10))


class TestTransactions:
    def test_segment_of(self):
        assert segment_of(0, 32) == 0
        assert segment_of(31, 32) == 0
        assert segment_of(32, 32) == 32
        assert segment_of(130, 128) == 128

    def test_transaction_validation(self):
        with pytest.raises(ValueError):
            MemoryTransaction(0, 48)
        with pytest.raises(ValueError):
            MemoryTransaction(16, 32)  # misaligned
        tx = MemoryTransaction(64, 64)
        assert tx.end == 128
        assert tx.covers(100, 4)
        assert not tx.covers(126, 4)

    def test_touched_segments_stride(self):
        segs = touched_segments(range(0, 448, 28), 4, 32)
        assert segs == sorted(set((a // 32) * 32 for a in range(0, 448, 28)))

    def test_touched_segments_straddle(self):
        # A 16-byte access at 24 straddles two 32-byte segments.
        assert touched_segments([24], 16, 32) == [0, 32]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        addrs=st.lists(st.integers(0, 4000).map(lambda a: a * 4), max_size=16),
        size=st.sampled_from([4, 8, 16, 28]),
        segment=st.sampled_from([32, 64, 128]),
    )
    def test_segments_match_the_per_address_loop(self, addrs, size, segment):
        """Vectorized segments equal the per-address loop, straddling
        accesses and the empty list included: in order per access, and
        sorted and deduplicated for ``touched_segments``."""
        want = _loop_segments(addrs, size, segment)
        got = access_segments(np.array(addrs, dtype=np.int64), size, segment)
        assert got.tolist() == want
        assert touched_segments(addrs, size, segment) == sorted(set(want))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        addrs=st.lists(st.integers(0, 4000), min_size=16, max_size=16),
        active=st.lists(st.booleans(), min_size=16, max_size=16),
        size=st.sampled_from([4, 8, 16]),
    )
    def test_strict_uncoalesced_matches_per_thread_loop(self, addrs, active, size):
        """CC 1.0's uncoalesced path issues one 32-byte transaction per
        touched segment of each active thread, in lane order."""
        acc = HalfWarpAccess(np.array(addrs) * 4, size, np.array(active))
        txs = StrictHalfWarpPolicy().transactions(acc)
        if StrictHalfWarpPolicy().is_coalesced(acc):
            return
        want = [
            MemoryTransaction(seg, 32)
            for seg in _loop_segments(acc.active_addresses, size, 32)
        ]
        assert txs == want

    def test_segments_reject_bad_segment_size(self):
        with pytest.raises(ValueError):
            access_segments(np.zeros(1, np.int64), 4, 48)

    def test_cover_with_segments_single(self):
        txs = cover_with_segments([0, 4, 8, 12], 4)
        assert txs == [MemoryTransaction(0, 32)]

    def test_cover_with_segments_reduces(self):
        # Bytes 64..72 live in the upper half of segment 0's 128B region.
        txs = cover_with_segments([64, 68], 4)
        assert txs == [MemoryTransaction(64, 32)]

    def test_cover_spanning_whole_segment(self):
        txs = cover_with_segments(list(range(0, 128, 4)), 4)
        assert txs == [MemoryTransaction(0, 128)]

    def test_total_bytes(self):
        assert total_bytes([MemoryTransaction(0, 32), MemoryTransaction(64, 64)]) == 96

    @settings(max_examples=50, deadline=None)
    @given(
        addrs=st.lists(
            st.integers(0, 4000).map(lambda a: a * 4), min_size=1, max_size=16
        ),
        size=st.sampled_from([4, 8, 16]),
    )
    def test_cover_property(self, addrs, size):
        """Every accessed byte is covered; transactions are aligned."""
        addrs = [a - a % size for a in addrs]  # naturally aligned accesses
        txs = cover_with_segments(addrs, size)
        for a in addrs:
            assert any(t.covers(a, size) for t in txs), (a, txs)
        for t in txs:
            assert t.address % t.size == 0

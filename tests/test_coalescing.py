"""Coalescing policies: the paper's per-revision transaction behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import make_layout
from repro.core.access import HalfWarpAccess, warp_accesses
from repro.core.coalescing import (
    POLICIES,
    DriverMergedPolicy,
    SegmentBasedPolicy,
    StrictHalfWarpPolicy,
    policy_for,
)
from repro.cudasim.device import Toolchain

STRICT = StrictHalfWarpPolicy()
MERGED = DriverMergedPolicy()
SEGMENT = SegmentBasedPolicy()


def _coalesced_scalar(base=0):
    return HalfWarpAccess(np.arange(16) * 4 + base, 4)


def _strided_scalar(stride=28, base=0):
    return HalfWarpAccess(np.arange(16) * stride + base, 4)


def _coalesced_vec4(base=0):
    return HalfWarpAccess(np.arange(16) * 16 + base, 16)


class TestRegistry:
    def test_policy_for_toolchain(self):
        assert policy_for(Toolchain.CUDA_1_0) is POLICIES["strict-halfwarp"]
        assert policy_for(Toolchain.CUDA_1_1) is POLICIES["driver-merged"]
        assert policy_for(Toolchain.CUDA_2_2) is POLICIES["segment-based"]

    def test_policy_for_strings(self):
        assert policy_for("1.0").name == "strict-halfwarp"
        assert policy_for("segment-based").name == "segment-based"
        with pytest.raises(ValueError):
            policy_for("3.0")

    def test_behavioural_signatures(self):
        assert STRICT.charges_replays and SEGMENT.charges_replays
        assert not MERGED.charges_replays
        assert SEGMENT.latency_override is not None


class TestCoalescedFastPath:
    """All policies treat a proper sequential aligned access identically."""

    @pytest.mark.parametrize("policy", [STRICT, MERGED, SEGMENT])
    def test_scalar_one_64b_transaction(self, policy):
        txs = policy.transactions(_coalesced_scalar())
        assert [(t.address, t.size) for t in txs] == [(0, 64)]

    @pytest.mark.parametrize("policy", [STRICT, MERGED, SEGMENT])
    def test_vec4_two_128b_transactions(self, policy):
        txs = policy.transactions(_coalesced_vec4(256))
        assert [(t.address, t.size) for t in txs] == [(256, 128), (384, 128)]

    def test_misaligned_base_breaks_coalescing_strict(self):
        """Sequential but base not aligned to 16*size: CC 1.0 degrades to
        one transaction per thread."""
        txs = STRICT.transactions(_coalesced_scalar(base=4))
        assert len(txs) == 16

    @pytest.mark.parametrize("policy", [MERGED, SEGMENT])
    def test_misaligned_base_costs_extra_bytes(self, policy):
        """The merging policies service it in one oversized segment —
        fewer transactions, but more bytes than the aligned fast path."""
        txs = policy.transactions(_coalesced_scalar(base=4))
        assert sum(t.size for t in txs) > 64

    @pytest.mark.parametrize("policy", [STRICT, MERGED, SEGMENT])
    def test_empty_access(self, policy):
        acc = HalfWarpAccess(np.zeros(16, np.int64), 4, np.zeros(16, bool))
        assert policy.transactions(acc) == []

    def test_is_coalesced_helper(self):
        assert STRICT.is_coalesced(_coalesced_scalar())
        assert not STRICT.is_coalesced(_strided_scalar())


class TestStrictPolicy:
    def test_uncoalesced_one_tx_per_thread(self):
        txs = STRICT.transactions(_strided_scalar(28))
        assert len(txs) == 16
        assert all(t.size == 32 for t in txs)

    def test_no_deduplication(self):
        """Two threads in the same 32B segment still pay twice on CC 1.0."""
        acc = HalfWarpAccess(
            np.repeat(np.arange(8) * 64, 2), 4
        )
        txs = STRICT.transactions(acc)
        assert len(txs) == 16

    def test_partial_activity(self):
        active = np.zeros(16, dtype=bool)
        active[:5] = True
        acc = HalfWarpAccess(np.arange(16) * 28, 4, active)
        assert len(STRICT.transactions(acc)) == 5


class TestDriverMergedPolicy:
    def test_uncoalesced_merged_into_128b_segments(self):
        txs = MERGED.transactions(_strided_scalar(28))
        # 16 × 28B span = 424 B → four 128-byte segments.
        assert [t.size for t in txs] == [128, 128, 128, 128]

    def test_deduplication(self):
        acc = HalfWarpAccess(np.repeat(np.arange(4) * 4, 4) + 4, 4)
        txs = MERGED.transactions(acc)
        assert len(txs) == 1


class TestSegmentBasedPolicy:
    def test_contiguous_strided_merges(self):
        txs = SEGMENT.transactions(_strided_scalar(28))
        assert sum(t.size for t in txs) <= 512
        # Deduplicated: strictly fewer than per-thread issue.
        assert len(txs) < 16

    def test_sparse_stride_stays_small(self):
        # 256-byte stride: 16 isolated 32B segments, no merging possible.
        txs = SEGMENT.transactions(_strided_scalar(256))
        assert len(txs) == 16
        assert all(t.size == 32 for t in txs)


class TestCoverageInvariant:
    """Whatever the policy, issued transactions must cover every byte the
    half-warp requested — the fundamental correctness property."""

    @settings(max_examples=40, deadline=None)
    @given(
        stride=st.sampled_from([4, 8, 12, 16, 28, 32, 60, 64, 100, 256]),
        base_word=st.integers(0, 64),
        size=st.sampled_from([4, 8, 16]),
        policy_name=st.sampled_from(sorted(POLICIES)),
    )
    def test_bytes_covered(self, stride, base_word, size, policy_name):
        base = base_word * size  # keep accesses naturally aligned
        stride = max(stride - stride % size, size)
        acc = HalfWarpAccess(np.arange(16) * stride + base, size)
        txs = POLICIES[policy_name].transactions(acc)
        for addr in acc.addresses:
            for b in range(0, size, 4):
                assert any(t.covers(int(addr) + b, 4) for t in txs)

    @pytest.mark.parametrize("kind", ["unopt", "aos", "soa", "aoas", "soaoas"])
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_layout_steps_covered(self, kind, policy_name):
        lay = make_layout(kind, 128)
        policy = POLICIES[policy_name]
        for step in lay.steps:
            for acc in warp_accesses(step, 0):
                txs = policy.transactions(acc)
                for addr in acc.addresses:
                    for b in range(0, step.vector.nbytes, 4):
                        assert any(t.covers(int(addr) + b, 4) for t in txs)


class TestPaperTransactionCounts:
    """The transaction arithmetic behind Figs. 3/5/7/9."""

    def _warp_tx(self, kind, policy, fields=None):
        lay = make_layout(kind, 256)
        total = 0
        for step in lay.read_plan(fields):
            for acc in warp_accesses(step, 0):
                total += len(policy.transactions(acc))
        return total

    def test_cuda10_full_structure(self):
        # Per warp (2 half-warps): AoS 7×32, SoA 7×1, AoaS 2×32, SoAoaS 2×2.
        assert self._warp_tx("unopt", STRICT) == 7 * 32
        assert self._warp_tx("soa", STRICT) == 7 * 2
        assert self._warp_tx("aoas", STRICT) == 2 * 32
        assert self._warp_tx("soaoas", STRICT) == 2 * 4

    def test_bytes_moved_ordering(self):
        from repro.core.transactions import total_bytes

        def moved(kind):
            lay = make_layout(kind, 256)
            return sum(
                total_bytes(STRICT.transactions(acc))
                for step in lay.steps
                for acc in warp_accesses(step, 0)
            )

        # Per warp per structure: unopt = 7 loads × 32 per-thread 32 B
        # bursts; SoA = 7 × 2 coalesced 64 B; SoAoaS = 2 × 4 coalesced
        # 128 B (its extra 128 B over SoA is the hidden padding lane).
        assert moved("unopt") == 7 * 32 * 32
        assert moved("soa") == 7 * 2 * 64
        assert moved("soaoas") == 2 * 4 * 128
        assert moved("soaoas") < moved("unopt") / 5
        assert moved("soa") < moved("unopt") / 5


#: Half-warp address patterns the classifier property test draws.
_PATTERNS = ("sequential", "misaligned", "strided", "broadcast", "random")


@st.composite
def _halfwarp_rows(draw):
    """``(addresses, active, size)``: up to six half-warps of one access
    width, each with its own address pattern and lane mask."""
    size = draw(st.sampled_from([4, 8, 16]))
    lanes = np.arange(16, dtype=np.int64)
    rows, masks = [], []
    for _ in range(draw(st.integers(1, 6))):
        pattern = draw(st.sampled_from(_PATTERNS))
        base = draw(st.integers(0, 32)) * 16 * size
        if pattern == "sequential":
            addrs = base + lanes * size
        elif pattern == "misaligned":
            skew = draw(st.sampled_from([4, size, 8 * size]))
            addrs = base + skew + lanes * size
        elif pattern == "strided":
            addrs = base + lanes * size * draw(st.integers(2, 9))
        elif pattern == "broadcast":
            addrs = np.full(16, base + draw(st.integers(0, 15)) * size)
        else:
            addrs = np.array(draw(st.lists(
                st.integers(0, 4096), min_size=16, max_size=16
            ))) * 4
        mask = draw(st.sampled_from(("full", "empty", "prefix", "random")))
        if mask == "full":
            active = np.ones(16, dtype=bool)
        elif mask == "empty":
            active = np.zeros(16, dtype=bool)
        elif mask == "prefix":
            active = lanes < draw(st.integers(1, 15))
        else:
            active = draw(hnp.arrays(bool, 16))
        rows.append(addrs)
        masks.append(active)
    return np.array(rows, dtype=np.int64), np.array(masks), size


class TestHalfWarpClassifier:
    """``halfwarp_transactions`` — the vectorized pass plus its
    ``transactions`` fallback — equals ``transactions`` half-warp by
    half-warp, for every policy."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=_halfwarp_rows())
    def test_equals_per_halfwarp_transactions(self, case):
        addresses, active, size = case
        for policy in POLICIES.values():
            out, coalesced = policy.halfwarp_transactions(
                addresses, active, size
            )
            assert len(out) == len(coalesced) == len(addresses)
            for h, (addrs, mask) in enumerate(zip(addresses, active)):
                acc = HalfWarpAccess(addrs, size, mask)
                assert list(out[h]) == policy.transactions(acc), (policy, h)
                assert bool(coalesced[h]) == policy.is_coalesced(acc)

    def test_coalesced_rows_share_canned_transactions(self):
        """Aligned sequential rows take the same canned transactions;
        a row one element off its base, or with no active lane, does
        not coalesce."""
        base = np.arange(16) * 16 + 256
        rows = np.array([base, base, base + 16, base])
        active = np.ones((4, 16), dtype=bool)
        active[3] = False
        out, coalesced = STRICT.halfwarp_transactions(rows, active, 16)
        assert coalesced.tolist() == [True, True, False, False]
        assert out[0] is out[1]
        assert [(t.address, t.size) for t in out[0]] == [(256, 128), (384, 128)]
        assert len(out[2]) == 16 and list(out[3]) == []

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            STRICT.halfwarp_transactions(
                np.zeros((1, 16), np.int64), np.ones((1, 16), bool), 12
            )

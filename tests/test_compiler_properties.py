"""Property-based equivalence of the compiler passes.

Hypothesis generates random arithmetic loop bodies; every optimization
pipeline (partial/full unrolling, LICM, DCE, and their compositions) must
produce a kernel that computes bit-identical results on the simulator.
This is the compiler's main safety net beyond the hand-written cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cudasim import CompileOptions, Device, KernelBuilder, compile_kernel
from repro.cudasim.asm import roundtrip
from repro.cudasim.ir import Kernel

#: Register pool the generated bodies operate on.
POOL = 4

#: (opcode name, arity) choices for generated body instructions.
_BIN_OPS = ["add", "sub", "mul", "fmin", "fmax"]
_TRI_OPS = ["mad"]
_UN_OPS = ["neg", "fabs"]

_instr_strategy = st.one_of(
    st.tuples(
        st.sampled_from(_BIN_OPS),
        st.integers(0, POOL - 1),
        st.integers(0, POOL - 1),
        st.integers(0, POOL - 1),
    ),
    st.tuples(
        st.sampled_from(_TRI_OPS),
        st.integers(0, POOL - 1),
        st.integers(0, POOL - 1),
        st.integers(0, POOL - 1),
        st.integers(0, POOL - 1),
    ),
    st.tuples(
        st.sampled_from(_UN_OPS),
        st.integers(0, POOL - 1),
        st.integers(0, POOL - 1),
    ),
    st.tuples(
        st.just("ldacc"),  # load next element, accumulate into a pool reg
        st.integers(0, POOL - 1),
    ),
    st.tuples(
        st.just("imm"),  # overwrite with a small constant
        st.integers(0, POOL - 1),
        st.integers(-3, 3),
    ),
    st.tuples(
        st.just("invariant"),  # loop-invariant recompute (LICM target)
        st.integers(0, POOL - 1),
    ),
)

body_strategy = st.lists(_instr_strategy, min_size=1, max_size=10)


def _build_kernel(body: list[tuple], trips: int) -> Kernel:
    """Materialize a generated body into a kernel.

    Pool registers start at small tid-dependent values; the loop walks an
    input array with an induction address; afterwards every pool register
    is folded into one value and stored per thread.
    """
    b = KernelBuilder("generated", params=("src", "dst", "c"))
    pool = [b.reg(f"r{k}") for k in range(POOL)]
    tidf = b.i2f(b.reg("tf"), b.sreg("tid"))
    for k, r in enumerate(pool):
        b.mad(r, tidf, 0.125, float(k))
    soft = b.mov(b.reg("soft"), b.param("c"))
    addr = b.reg("addr")
    b.imad(addr, b.sreg("tid"), 4 * trips, b.param("src"))
    with b.loop(0, trips):
        for ins in body:
            kind = ins[0]
            if kind in _BIN_OPS:
                getattr(b, kind)(pool[ins[1]], pool[ins[2]], pool[ins[3]])
            elif kind in _TRI_OPS:
                b.mad(pool[ins[1]], pool[ins[2]], pool[ins[3]], pool[ins[4]])
            elif kind in _UN_OPS:
                getattr(b, kind)(pool[ins[1]], pool[ins[2]])
            elif kind == "ldacc":
                v = b.tmp("v")
                b.ld_global(v, addr)
                b.add(pool[ins[1]], pool[ins[1]], v)
            elif kind == "imm":
                b.mov(pool[ins[1]], float(ins[2]))
            elif kind == "invariant":
                e = b.tmp("e")
                b.mul(e, soft, soft)
                b.add(pool[ins[1]], pool[ins[1]], e)
        b.iadd(addr, addr, 4)
    total = b.reg("total")
    b.mov(total, 0.0)
    for r in pool:
        # Clamp per register so generated mul chains cannot overflow.
        clamped = b.fmin(b.tmp("cl"), r, 1e6)
        clamped = b.fmax(b.tmp("cf"), clamped, -1e6)
        b.add(total, total, clamped)
    oaddr = b.imad(b.reg("oa"), b.sreg("tid"), 4, b.param("dst"))
    b.st_global(oaddr, total)
    return b.build()


def _run(lk, trips: int, threads: int = 32) -> np.ndarray:
    dev = Device(heap_bytes=1 << 18)
    n = threads * trips
    src = dev.malloc(4 * n)
    dst = dev.malloc(4 * threads)
    rng = np.random.default_rng(123)
    dev.memcpy_htod(src, rng.random(n).astype(np.float32))
    dev.launch(lk, 1, threads, {"src": src, "dst": dst, "c": 1.5})
    return dev.memcpy_dtoh(dst, threads)


PIPELINES = [
    {"unroll": 2},
    {"unroll": 4},
    {"unroll": "full"},
    {"licm": True},
    {"unroll": "full", "licm": True},
    {"dce": False},
    {"unroll": "full", "licm": True, "dce": False},
]


class TestPipelineEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(body=body_strategy, trips=st.sampled_from([4, 8]))
    def test_all_pipelines_agree(self, body, trips):
        kernel = _build_kernel(body, trips)
        baseline = _run(
            compile_kernel(kernel, CompileOptions(dce=False)), trips
        )
        # Self-amplifying bodies (e.g. r = -(r² + r) per trip) overflow
        # f32 to inf before the end-of-kernel clamp; discard those
        # examples rather than fail — equivalence is only meaningful on
        # finite results.
        assume(np.isfinite(baseline).all())
        for kw in PIPELINES:
            out = _run(compile_kernel(kernel, CompileOptions(**kw)), trips)
            np.testing.assert_array_equal(
                out, baseline, err_msg=f"pipeline {kw} diverged"
            )

    @settings(max_examples=10, deadline=None)
    @given(body=body_strategy)
    def test_assembler_roundtrip_preserves_results(self, body):
        kernel = _build_kernel(body, 4)
        lk = compile_kernel(kernel, CompileOptions(unroll="full", licm=True))
        baseline = _run(lk, 4)
        rt = roundtrip(lk)
        from repro.cudasim import allocate

        allocate(rt)
        np.testing.assert_array_equal(_run(rt, 4), baseline)

    @settings(max_examples=10, deadline=None)
    @given(body=body_strategy, trips=st.sampled_from([8]))
    def test_unroll_never_increases_registers(self, body, trips):
        kernel = _build_kernel(body, trips)
        rolled = compile_kernel(kernel)
        unrolled = compile_kernel(kernel, CompileOptions(unroll="full"))
        assert unrolled.reg_count <= rolled.reg_count

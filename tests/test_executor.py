"""Cycle-level SIMT execution: semantics, divergence, barriers, timing."""

import numpy as np
import pytest

from repro.cudasim import (
    Device,
    KernelBuilder,
    Toolchain,
    compile_kernel,
)
from repro.cudasim.errors import DeadlockError, ExecutionError, LaunchError


def _device():
    return Device(toolchain=Toolchain.CUDA_1_0, heap_bytes=1 << 20)


def _launch(builder_fn, grid=1, block=32, params=None, device=None):
    dev = device or _device()
    lk = compile_kernel(builder_fn)
    return dev, dev.launch(lk, grid=grid, block=block, params=params or {})


class TestArithmetic:
    def test_float_ops_round_to_f32(self):
        b = KernelBuilder("k", params=("dst",))
        x = b.reg("x")
        b.mov(x, 1.0)
        b.add(x, x, 1e-9)  # vanishes in float32
        b.st_global(b.imad("a", b.sreg("tid"), 4, b.param("dst")), x)
        dev = _device()
        dst = dev.malloc(128)
        dev.launch(compile_kernel(b.build()), 1, 32, {"dst": dst})
        assert dev.memcpy_dtoh(dst, 1)[0] == np.float32(1.0)

    def test_rsqrt_and_mad(self):
        b = KernelBuilder("k", params=("dst",))
        t = b.reg("t")
        b.mov(t, 16.0)
        r = b.reg("r")
        b.rsqrt(r, t)  # 0.25
        b.mad(r, r, 8.0, 1.0)  # 3.0
        b.st_global(b.imad("a", b.sreg("tid"), 4, b.param("dst")), r)
        dev = _device()
        dst = dev.malloc(128)
        dev.launch(compile_kernel(b.build()), 1, 32, {"dst": dst})
        np.testing.assert_allclose(dev.memcpy_dtoh(dst, 32), 3.0, rtol=1e-6)

    def test_integer_ops_exact(self):
        b = KernelBuilder("k", params=("dst",))
        i = b.reg("i")
        b.mov(i, b.sreg("tid"))
        b.shl(i, i, 2)
        b.iadd(i, i, 5)
        addr = b.imad("a", b.sreg("tid"), 4, b.param("dst"))
        f = b.reg("f")
        b.i2f(f, i)
        b.st_global(addr, f)
        dev = _device()
        dst = dev.malloc(128)
        dev.launch(compile_kernel(b.build()), 1, 32, {"dst": dst})
        np.testing.assert_array_equal(
            dev.memcpy_dtoh(dst, 32), np.arange(32) * 4 + 5
        )

    def test_selp_and_setp(self):
        b = KernelBuilder("k", params=("dst",))
        p = b.pred()
        b.setp("lt", p, b.sreg("tid"), 16)
        v = b.selp("v", 1.0, 2.0, p)
        b.st_global(b.imad("a", b.sreg("tid"), 4, b.param("dst")), v)
        dev = _device()
        dst = dev.malloc(128)
        dev.launch(compile_kernel(b.build()), 1, 32, {"dst": dst})
        out = dev.memcpy_dtoh(dst, 32)
        np.testing.assert_array_equal(out[:16], 1.0)
        np.testing.assert_array_equal(out[16:], 2.0)

    def test_special_registers(self):
        b = KernelBuilder("k", params=("dst",))
        i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), b.sreg("tid"))
        f = b.i2f("f", i)
        b.st_global(b.imad("a", i, 4, b.param("dst")), f)
        dev = _device()
        dst = dev.malloc(4 * 64)
        dev.launch(compile_kernel(b.build()), 2, 32, {"dst": dst})
        np.testing.assert_array_equal(dev.memcpy_dtoh(dst, 64), np.arange(64))


class TestControlFlow:
    def test_divergent_forward_branch_masks_lanes(self):
        b = KernelBuilder("k", params=("dst",))
        p = b.pred()
        x = b.mov("x", 0.0)
        b.setp("lt", p, b.sreg("tid"), 10)
        with b.if_(p):
            b.mov(x, 1.0)
        b.st_global(b.imad("a", b.sreg("tid"), 4, b.param("dst")), x)
        dev = _device()
        dst = dev.malloc(128)
        dev.launch(compile_kernel(b.build()), 1, 32, {"dst": dst})
        out = dev.memcpy_dtoh(dst, 32)
        np.testing.assert_array_equal(out[:10], 1.0)
        np.testing.assert_array_equal(out[10:], 0.0)

    def test_predicated_exit_tail_guard(self):
        """The canonical i >= n early exit with a ragged tail."""
        b = KernelBuilder("k", params=("dst", "n"))
        i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), b.sreg("tid"))
        p = b.pred()
        b.setp("ge", p, i, b.param("n"))
        b.exit(pred=p)
        b.st_global(b.imad("a", i, 4, b.param("dst")), b.mov("one", 1.0))
        dev = _device()
        dst = dev.malloc(4 * 64)
        dev.memcpy_htod(dst, np.zeros(64, np.float32))
        dev.launch(compile_kernel(b.build()), 2, 32, {"dst": dst, "n": 50})
        out = dev.memcpy_dtoh(dst, 64)
        assert out[:50].sum() == 50 and out[50:].sum() == 0

    def test_divergent_backward_branch_per_lane_trips(self):
        """Per-thread trip counts: thread t loops t times (the control
        structure a Barnes-Hut traversal needs)."""
        b = KernelBuilder("k", params=("dst",))
        acc = b.mov("acc", 0.0)
        stop = b.reg("stop")
        b.mov(stop, b.sreg("tid"))  # per-thread trip count → divergence
        with b.loop(0, stop):
            b.add(acc, acc, 1.0)
        b.st_global(b.imad("o", b.sreg("tid"), 4, b.param("dst")), acc)
        dev = _device()
        dst = dev.malloc(128)
        dev.launch(compile_kernel(b.build()), 1, 32, {"dst": dst})
        np.testing.assert_array_equal(
            dev.memcpy_dtoh(dst, 32), np.arange(32, dtype=np.float32)
        )

    def test_uniform_loop_executes(self):
        b = KernelBuilder("k", params=("dst",))
        acc = b.mov("acc", 0.0)
        with b.loop(0, 10):
            b.add(acc, acc, 2.0)
        b.st_global(b.imad("a", b.sreg("tid"), 4, b.param("dst")), acc)
        dev = _device()
        dst = dev.malloc(128)
        dev.launch(compile_kernel(b.build()), 1, 32, {"dst": dst})
        np.testing.assert_array_equal(dev.memcpy_dtoh(dst, 32), 20.0)


class TestBarriersAndShared:
    def test_shared_tile_reversal(self):
        """Block-wide data exchange through shared memory with a barrier."""
        b = KernelBuilder("k", params=("src", "dst"))
        tid = b.mov("t", b.sreg("tid"))
        v = b.reg("v")
        b.ld_global(v, b.imad("a", tid, 4, b.param("src")))
        b.st_shared(b.shl("sa", tid, 2), v)
        b.bar_sync()
        rev = b.isub("rev", 31, tid)
        w = b.reg("w")
        b.ld_shared(w, b.shl("sb", rev, 2))
        b.st_global(b.imad("o", tid, 4, b.param("dst")), w)
        kernel = b.build(shared_words=32)
        dev = _device()
        src = dev.malloc(128)
        dst = dev.malloc(128)
        data = np.arange(32, dtype=np.float32)
        dev.memcpy_htod(src, data)
        dev.launch(compile_kernel(kernel), 1, 32, {"src": src, "dst": dst})
        np.testing.assert_array_equal(dev.memcpy_dtoh(dst, 32), data[::-1])

    def test_barrier_across_warps(self):
        """Warp 1 reads what warp 0 wrote before the barrier."""
        b = KernelBuilder("k", params=("dst",))
        tid = b.mov("t", b.sreg("tid"))
        f = b.i2f("f", tid)
        b.st_shared(b.shl("sa", tid, 2), f)
        b.bar_sync()
        partner = b.isub(b.reg("partner"), 63, tid)
        w = b.reg("w")
        b.ld_shared(w, b.shl("sb", partner, 2))
        b.st_global(b.imad("o", tid, 4, b.param("dst")), w)
        kernel = b.build(shared_words=64)
        dev = _device()
        dst = dev.malloc(256)
        dev.launch(compile_kernel(kernel), 1, 64, {"dst": dst})
        np.testing.assert_array_equal(
            dev.memcpy_dtoh(dst, 64), np.arange(64)[::-1]
        )

    def test_clock_monotonic(self):
        b = KernelBuilder("k", params=("dst",))
        c0 = b.clock(b.reg("c0"))
        acc = b.mov("acc", 0.0)
        with b.loop(0, 4):
            b.add(acc, acc, 1.0)
        c1 = b.clock(b.reg("c1"))
        d = b.isub("d", c1, c0)
        b.st_global(
            b.imad("o", b.sreg("tid"), 4, b.param("dst")), b.i2f("f", d)
        )
        dev = _device()
        dst = dev.malloc(128)
        dev.launch(compile_kernel(b.build()), 1, 32, {"dst": dst})
        assert (dev.memcpy_dtoh(dst, 32) > 0).all()


class TestTimingProperties:
    def _cycles(self, n_warps, device=None):
        b = KernelBuilder("k", params=("src", "dst"))
        tid = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), b.sreg("tid"))
        acc = b.mov("acc", 0.0)
        addr = b.imad("a", tid, 4, b.param("src"))
        with b.loop(0, 16):
            v = b.tmp("v")
            b.ld_global(v, addr)
            b.add(acc, acc, v)
        b.st_global(b.imad("o", tid, 4, b.param("dst")), acc)
        dev = device or _device()
        threads = 32 * n_warps
        src = dev.malloc(4 * threads)
        dst = dev.malloc(4 * threads)
        res = dev.launch(
            compile_kernel(b.build()), 1, threads, {"src": src, "dst": dst}
        )
        return res.cycles

    def test_latency_hiding_with_more_warps(self):
        """8 warps issuing the same loads finish far sooner than 8x the
        single-warp time — the SIMT latency-hiding mechanism."""
        one = self._cycles(1)
        eight = self._cycles(8)
        assert eight < 3 * one

    def test_stats_populated(self):
        b = KernelBuilder("k", params=("dst",))
        b.st_global(
            b.imad("o", b.sreg("tid"), 4, b.param("dst")), b.mov("x", 1.0)
        )
        dev = _device()
        dst = dev.malloc(128)
        res = dev.launch(compile_kernel(b.build()), 1, 32, {"dst": dst})
        assert res.stats.warp_instructions >= 3
        assert res.stats.memory.transactions >= 1
        assert res.stats.blocks_executed == 1
        assert res.time_s > 0


class TestLaunchValidation:
    def test_missing_param(self):
        b = KernelBuilder("k", params=("dst",))
        b.mov("x", 1.0)
        dev = _device()
        with pytest.raises(LaunchError, match="dst"):
            dev.launch(compile_kernel(b.build()), 1, 32, {})

    def test_bad_grid(self):
        b = KernelBuilder("k")
        b.mov("x", 1.0)
        dev = _device()
        with pytest.raises(LaunchError):
            dev.launch(compile_kernel(b.build()), 0, 32)

    def test_block_not_warp_multiple(self):
        b = KernelBuilder("k")
        b.mov("x", 1.0)
        dev = _device()
        with pytest.raises(LaunchError):
            dev.launch(compile_kernel(b.build()), 1, 48)

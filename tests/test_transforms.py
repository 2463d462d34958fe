"""Loop unrolling, invariant code motion and peephole passes.

Semantic equivalence is checked by *executing* transformed kernels on the
simulator and comparing outputs against the untransformed original.
"""

import numpy as np
import pytest

from repro.cudasim import (
    CompileOptions,
    Device,
    KernelBuilder,
    Op,
    Toolchain,
    compile_kernel,
    lower,
)
from repro.cudasim.errors import IRError
from repro.cudasim.ir import LoopStmt, walk_instrs
from repro.cudasim.lower import LoweredKernel
from repro.cudasim.regalloc import allocate
from repro.cudasim.transforms import (
    eliminate_dead_code,
    fold_constants,
    hoist_invariants,
    unroll_loops,
)
from repro.cudasim.transforms.unroll import UnrollDecision


def _sum_kernel(trips: int = 8, unroll=None):
    """out[tid] = sum of trips consecutive elements starting at tid*trips."""
    b = KernelBuilder("sumk", params=("src", "dst"))
    i = b.reg("i")
    b.imad(i, b.sreg("ctaid"), b.sreg("ntid"), b.sreg("tid"))
    addr = b.reg("addr")
    b.imad(addr, i, 4 * trips, b.param("src"))
    acc = b.reg("acc")
    b.mov(acc, 0.0)
    with b.loop(0, trips, unroll=unroll):
        v = b.tmp("v")
        b.ld_global(v, addr)
        b.add(acc, acc, v)
        b.iadd(addr, addr, 4)
    oaddr = b.reg("oaddr")
    b.imad(oaddr, i, 4, b.param("dst"))
    b.st_global(oaddr, acc)
    return b.build()


def _run(lk: LoweredKernel, trips: int, threads: int = 64) -> np.ndarray:
    dev = Device(toolchain=Toolchain.CUDA_1_0, heap_bytes=1 << 20)
    n = threads * trips
    src = dev.malloc(4 * n)
    dst = dev.malloc(4 * threads)
    rng = np.random.default_rng(9)
    data = rng.random(n).astype(np.float32)
    dev.memcpy_htod(src, data)
    dev.launch(
        lk, grid=threads // 32, block=32, params={"src": src, "dst": dst}
    )
    return dev.memcpy_dtoh(dst, threads), data


class TestUnrollCorrectness:
    @pytest.mark.parametrize("factor", [2, 4, 8, "full"])
    def test_unrolled_matches_rolled(self, factor):
        trips = 8
        rolled = compile_kernel(_sum_kernel(trips))
        unrolled = compile_kernel(
            _sum_kernel(trips), CompileOptions(unroll=factor)
        )
        out_r, data = _run(rolled, trips)
        out_u, _ = _run(unrolled, trips)
        np.testing.assert_array_equal(out_r, out_u)
        expect = data.reshape(-1, trips).astype(np.float32)
        np.testing.assert_allclose(out_r, expect.sum(axis=1), rtol=1e-6)

    def test_full_unroll_removes_loop_and_folds_offsets(self):
        k = unroll_loops(_sum_kernel(4), override="full")
        assert not any(
            isinstance(s, LoopStmt) for s in _walk_stmts(k.body)
        )
        offsets = sorted(
            i.offset for i in walk_instrs(k.body) if i.op is Op.LD_GLOBAL
        )
        assert offsets == [0, 4, 8, 12]

    def test_partial_unroll_keeps_loop_with_bigger_step(self):
        decisions: list[UnrollDecision] = []
        k = unroll_loops(_sum_kernel(8), override=4, decisions=decisions)
        loops = [s for s in _walk_stmts(k.body) if isinstance(s, LoopStmt)]
        assert len(loops) == 1
        assert loops[0].step == 4
        assert decisions[-1].factor == 4

    def test_full_unroll_frees_loop_register(self):
        rolled = compile_kernel(_sum_kernel(8))
        unrolled = compile_kernel(_sum_kernel(8), CompileOptions(unroll="full"))
        assert unrolled.reg_count < rolled.reg_count

    def test_non_dividing_factor_rejected(self):
        with pytest.raises(IRError):
            unroll_loops(_sum_kernel(8), override=3)

    def test_dynamic_loop_not_unrolled(self):
        b = KernelBuilder("k", params=("n",))
        b.mov("acc", 0.0)
        with b.loop(0, b.param("n"), unroll="full"):
            b.add("acc", "acc", 1.0)
        b.mov("o", "acc")
        decisions = []
        k = unroll_loops(b.build(), decisions=decisions)
        assert any(d.reason == "dynamic trip count" for d in decisions)
        assert any(isinstance(s, LoopStmt) for s in _walk_stmts(k.body))

    def test_loop_var_read_in_body_substituted(self):
        """Full unroll of a body that reads the loop variable."""
        b = KernelBuilder("k", params=("dst",))
        acc = b.reg("acc")
        b.mov(acc, 0.0)
        with b.loop(0, 4) as j:
            v = b.tmp("v")
            b.i2f(v, j)
            b.add(acc, acc, v)
        oaddr = b.reg("oaddr")
        b.imad(oaddr, b.sreg("tid"), 4, b.param("dst"))
        b.st_global(oaddr, acc)
        rolled = compile_kernel(b.build())
        unrolled = compile_kernel(b.build(), CompileOptions(unroll="full"))
        dev = Device(heap_bytes=1 << 16)
        dst = dev.malloc(4 * 32)
        dev.launch(rolled, 1, 32, {"dst": dst})
        r = dev.memcpy_dtoh(dst, 32)
        dev.launch(unrolled, 1, 32, {"dst": dst})
        u = dev.memcpy_dtoh(dst, 32)
        np.testing.assert_array_equal(r, u)
        assert float(u[0]) == 6.0  # 0+1+2+3

    def test_nested_only_innermost_overridden(self):
        b = KernelBuilder("k", params=("src", "dst"))
        b.mov("acc", 0.0)
        addr = b.reg("addr")
        b.mov(addr, b.param("src"))
        with b.loop(0, 2):
            with b.loop(0, 4):
                v = b.tmp("v")
                b.ld_global(v, addr)
                b.add("acc", "acc", v)
                b.iadd(addr, addr, 4)
        b.st_global(b.mov("o", b.param("dst")), "acc")
        k = unroll_loops(b.build(), override="full")
        loops = [s for s in _walk_stmts(k.body) if isinstance(s, LoopStmt)]
        assert len(loops) == 1  # outer survives, inner expanded


class TestLICM:
    def _kernel_with_invariant(self):
        b = KernelBuilder("k", params=("src", "dst", "c"))
        soft = b.reg("soft")
        b.mov(soft, b.param("c"))
        acc = b.reg("acc")
        b.mov(acc, 0.0)
        addr = b.reg("addr")
        b.imad(addr, b.sreg("tid"), 16, b.param("src"))
        with b.loop(0, 4):
            e = b.tmp("e")
            b.mul(e, soft, soft)  # invariant, recomputed per iteration
            v = b.tmp("v")
            b.ld_global(v, addr)
            b.mad(acc, v, e, acc)
            b.iadd(addr, addr, 4)
        oaddr = b.reg("oaddr")
        b.imad(oaddr, b.sreg("tid"), 4, b.param("dst"))
        b.st_global(oaddr, acc)
        return b.build()

    def test_invariant_hoisted_and_semantics_kept(self):
        k = self._kernel_with_invariant()
        hoisted = hoist_invariants(k)
        (loop,) = [s for s in _walk_stmts(hoisted.body) if isinstance(s, LoopStmt)]
        body_ops = [i.op for i in walk_instrs(loop.body)]
        assert Op.MUL not in body_ops  # the e = soft*soft moved out

        dev = Device(heap_bytes=1 << 16)
        src = dev.malloc(4 * 32 * 4)
        dst = dev.malloc(4 * 32)
        data = np.arange(128, dtype=np.float32)
        dev.memcpy_htod(src, data)
        outs = []
        for kk in (k, hoisted):
            lk = compile_kernel(kk, CompileOptions(dce=False))
            dev.launch(lk, 1, 32, {"src": src, "dst": dst, "c": 2.0})
            outs.append(dev.memcpy_dtoh(dst, 32))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_loop_variant_code_not_hoisted(self):
        b = KernelBuilder("k", params=("dst",))
        b.mov("acc", 0.0)
        with b.loop(0, 4):
            b.add("acc", "acc", 1.0)  # reads its own result: not invariant
        b.st_global(b.mov("o", b.param("dst")), "acc")
        k = hoist_invariants(b.build())
        (loop,) = [s for s in _walk_stmts(k.body) if isinstance(s, LoopStmt)]
        assert any(i.op is Op.ADD for i in walk_instrs(loop.body))

    def test_cascade_moves_marked_code_to_top(self):
        """An invariant inside a nested loop cascades past the outer loop."""
        b = KernelBuilder("k", params=("c", "dst"))
        soft = b.reg("soft")
        b.mov(soft, b.param("c"))
        b.mov("acc", 0.0)
        with b.loop(0, 2):
            with b.loop(0, 4):
                e = b.tmp("e")
                b.mul(e, soft, soft)
                b.add("acc", "acc", e)
        b.st_global(b.mov("o", b.param("dst")), "acc")
        k = hoist_invariants(b.build())
        top_level_ops = []
        for s in k.body:
            if not isinstance(s, LoopStmt):
                top_level_ops.extend(i.op for i in walk_instrs(s))
        assert Op.MUL in top_level_ops


class TestPeephole:
    def test_dce_removes_dead_chain(self):
        b = KernelBuilder("k", params=("dst",))
        b.mov("dead1", 1.0)
        b.add("dead2", "dead1", 2.0)
        b.mov("live", 3.0)
        b.st_global(b.mov("o", b.param("dst")), "live")
        lk = lower(b.build())
        removed = eliminate_dead_code(lk)
        assert removed == 2
        assert all("dead" not in str(i) for i in lk.instructions)

    def test_dce_keeps_loads(self):
        b = KernelBuilder("k", params=("src",))
        b.ld_global(b.reg("unused"), b.mov("a", b.param("src")))
        lk = lower(b.build())
        eliminate_dead_code(lk)
        assert any(i.op is Op.LD_GLOBAL for i in lk.instructions)

    def test_dce_remaps_branch_targets(self):
        k = _sum_kernel(4)
        lk = lower(k)
        # Inject a dead mov before the loop head.
        from repro.cudasim.isa import Imm, Instr, Reg

        lk.instructions.insert(3, Instr(Op.MOV, dsts=(Reg("zzz"),), srcs=(Imm(0),)))
        lk.targets = {l: (t + 1 if t >= 3 else t) for l, t in lk.targets.items()}
        eliminate_dead_code(lk)
        allocate(lk)
        out, data = _run(lk, 4)
        np.testing.assert_allclose(
            out, data.reshape(-1, 4).sum(axis=1, dtype=np.float32), rtol=1e-6
        )

    def test_constant_folding(self):
        b = KernelBuilder("k", params=("dst",))
        b.mul("x", 3.0, 4.0)
        b.iadd("y", 5, 7)
        b.st_global(b.mov("o", b.param("dst")), "x")
        lk = lower(b.build())
        folds = fold_constants(lk)
        assert folds == 2
        movs = [i for i in lk.instructions if i.op is Op.MOV]
        values = {i.srcs[0].value for i in movs if hasattr(i.srcs[0], "value")}
        assert 12.0 in values and 12 in values


def _walk_stmts(stmt):
    from repro.cudasim.ir import IfStmt, Seq

    if isinstance(stmt, Seq):
        for s in stmt:
            yield s
            yield from _walk_stmts(s)
    elif isinstance(stmt, (LoopStmt, IfStmt)):
        yield from _walk_stmts(stmt.body)

"""Compiler internals: determinism, liveness corner cases, pass hygiene."""

import numpy as np
import pytest

from repro.core import make_layout
from repro.cudasim import (
    CompileOptions,
    KernelBuilder,
    Op,
    compile_kernel,
    lower,
)
from repro.cudasim.liveness import analyze
from repro.cudasim.regalloc import allocate
from repro.cudasim.transforms import eliminate_dead_code, unroll_loops
from repro.cudasim.transforms.unroll import UnrollDecision
from repro.gravit.gpu_kernels import build_force_kernel


class TestDeterminism:
    def test_register_allocation_is_reproducible(self):
        """Two independent compiles of the same kernel produce identical
        physical assignments — the experiments depend on stable counts."""
        lay = make_layout("soaoas", 128)
        kernel, _ = build_force_kernel(lay, block_size=128)
        a = compile_kernel(kernel, CompileOptions(unroll="full", licm=True))
        b = compile_kernel(kernel, CompileOptions(unroll="full", licm=True))
        assert a.reg_map == b.reg_map
        assert a.pred_map == b.pred_map
        assert [i.op for i in a.instructions] == [i.op for i in b.instructions]

    def test_builder_fresh_names_do_not_leak_across_builders(self):
        def build():
            bld = KernelBuilder("k", params=("dst",))
            bld.st_global(
                bld.imad("o", bld.sreg("tid"), 4, bld.param("dst")),
                bld.mov(bld.tmp("x"), 1.0),
            )
            return compile_kernel(bld.build())

        assert build().reg_map == build().reg_map


class TestLivenessCorners:
    def test_liveness_through_if(self):
        b = KernelBuilder("k", params=("dst",))
        x = b.mov("x", 1.0)
        y = b.mov("y", 2.0)
        p = b.pred()
        b.setp("lt", p, b.sreg("tid"), 8)
        with b.if_(p):
            b.add(x, x, y)  # y only read inside the conditional
        b.st_global(b.mov("a", b.param("dst")), x)
        lk = lower(b.build())
        info = analyze(lk)
        # y must be live across the branch into the if-body.
        bra_idx = next(
            i for i, ins in enumerate(lk.instructions) if ins.op is Op.BRA
        )
        from repro.cudasim import Reg

        assert Reg("y") in info.live_out[bra_idx]

    def test_value_live_across_whole_loop(self):
        b = KernelBuilder("k", params=("dst",))
        seed_reg = b.mov("seed", 7.0)
        acc = b.mov("acc", 0.0)
        with b.loop(0, 3):
            b.add(acc, acc, seed_reg)
        b.st_global(b.mov("a", b.param("dst")), acc)
        lk = lower(b.build())
        allocate(lk)
        # seed and acc must not share a register.
        assert lk.reg_map["seed"] != lk.reg_map["acc"]

    def test_dead_after_loop_can_share(self):
        b = KernelBuilder("k", params=("dst",))
        t = b.mov("t", 7.0)
        acc = b.mov("acc", 0.0)
        with b.loop(0, 3):
            b.add(acc, acc, t)
        # t is dead here; a new temp may reuse its register.
        u = b.mov("u", 3.0)
        b.add(acc, acc, u)
        b.st_global(b.mov("a", b.param("dst")), acc)
        lk = lower(b.build())
        allocate(lk)
        assert lk.reg_count <= 4


class TestPassHygiene:
    def test_dce_is_idempotent(self):
        b = KernelBuilder("k", params=("dst",))
        b.mov("dead", 1.0)
        b.st_global(b.mov("a", b.param("dst")), b.mov("x", 2.0))
        lk = lower(b.build())
        first = eliminate_dead_code(lk)
        second = eliminate_dead_code(lk)
        assert first >= 1 and second == 0

    def test_unroll_reports_decisions(self):
        b = KernelBuilder("k", params=("n",))
        acc = b.mov("acc", 0.0)
        with b.loop(0, 8):
            b.add(acc, acc, 1.0)
        with b.loop(0, b.param("n")):
            b.add(acc, acc, 1.0)
        decisions: list[UnrollDecision] = []
        unroll_loops(b.build(), override="full", decisions=decisions)
        reasons = sorted(d.reason for d in decisions)
        assert reasons == ["dynamic trip count", "full"]

    def test_unroll_is_pure(self):
        """The input kernel tree is never mutated by the pass."""
        lay = make_layout("soaoas", 64)
        kernel, _ = build_force_kernel(lay, block_size=64)
        before = compile_kernel(kernel).static_instruction_count
        unroll_loops(kernel, override="full")
        after = compile_kernel(kernel).static_instruction_count
        assert before == after

    def test_compile_does_not_mutate_kernel(self):
        lay = make_layout("soa", 64)
        kernel, _ = build_force_kernel(lay, block_size=64)
        r1 = compile_kernel(kernel, CompileOptions(licm=True)).reg_count
        r2 = compile_kernel(kernel).reg_count
        r3 = compile_kernel(kernel, CompileOptions(licm=True)).reg_count
        assert r1 == r3 and r2 >= r1


class TestStatsConsistency:
    def test_thread_vs_warp_instruction_accounting(self):
        from repro.cudasim import Device

        b = KernelBuilder("k", params=("dst",))
        b.st_global(
            b.imad("o", b.sreg("tid"), 4, b.param("dst")), b.mov("x", 1.0)
        )
        dev = Device(heap_bytes=1 << 16)
        dst = dev.malloc(4 * 64)
        res = dev.launch(compile_kernel(b.build()), 2, 32, {"dst": dst})
        # Full warps, no divergence: threads = 32 × warp instructions.
        assert res.stats.thread_instructions == 32 * res.stats.warp_instructions

    def test_sm_cycles_bound_total(self):
        from repro.cudasim import Device

        lay = make_layout("soa", 128)
        kernel, plan = build_force_kernel(lay, block_size=64)
        lk = compile_kernel(kernel)
        dev = Device(heap_bytes=1 << 22)
        buf = dev.malloc(lay.size_bytes)
        out = dev.malloc(16 * 128)
        params = {
            p: buf.addr + s.base
            for p, s in zip(
                plan.param_for_step,
                lay.read_plan(("px", "py", "pz", "mass")),
            )
        }
        params.update(out=out, nslices=2, eps=1e-2)
        res = dev.launch(lk, grid=2, block=64, params=params)
        assert res.cycles == pytest.approx(max(res.stats.sm_cycles))

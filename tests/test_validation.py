"""Static kernel validation and divergent-barrier deadlock detection."""

import pytest

from repro.core import make_layout
from repro.cudasim import (
    CompileOptions,
    Device,
    G8800GTX,
    KernelBuilder,
    compile_kernel,
)
from repro.cudasim.errors import IRError
from repro.cudasim.validation import check_or_raise, validate_kernel
from repro.gravit.gpu_kernels import build_force_kernel


def _issues(kernel, **kw):
    return validate_kernel(kernel, **kw)


def _severities(issues):
    return [i.severity for i in issues]


class TestValidateKernel:
    def test_clean_force_kernel(self):
        lay = make_layout("soaoas", 128)
        kernel, _ = build_force_kernel(lay, block_size=128)
        issues = _issues(kernel, device=G8800GTX)
        assert not [i for i in issues if i.severity == "error"]

    def test_undeclared_parameter(self):
        b = KernelBuilder("k", params=("a",))
        b.emit(
            __import__("repro.cudasim.isa", fromlist=["Instr"]).Instr(
                __import__("repro.cudasim.isa", fromlist=["Op"]).Op.MOV,
                dsts=(b.reg("x"),),
                srcs=(__import__("repro.cudasim.isa", fromlist=["Param"]).Param("ghost"),),
            )
        )
        issues = _issues(b.build())
        assert any(
            i.severity == "error" and "ghost" in i.message for i in issues
        )

    def test_static_shared_oob(self):
        b = KernelBuilder("k")
        b.alloc_shared(4)  # 16 bytes
        b.ld_shared(b.reg("v"), 12, offset=8)  # touches byte 20..24
        issues = _issues(b.build())
        assert any("outside the declared" in i.message for i in issues)

    def test_misaligned_global_offset(self):
        b = KernelBuilder("k", params=("p",))
        q = [b.tmp() for _ in range(4)]
        b.ld_global(tuple(q), b.mov("a", b.param("p")), offset=4)
        issues = _issues(b.build())
        assert any("natural alignment" in i.message for i in issues)

    def test_divergent_barrier_warning(self):
        b = KernelBuilder("k")
        p = b.pred()
        b.setp("lt", p, b.sreg("tid"), 8)
        with b.if_(p):
            b.bar_sync()
        issues = _issues(b.build())
        assert any(
            i.severity == "warning" and "BAR_SYNC" in i.message
            for i in issues
        )

    def test_huge_loop_warning(self):
        b = KernelBuilder("k")
        with b.loop(0, 1 << 24):
            b.add("x", "x", 1.0)
        issues = _issues(b.build())
        assert any("iterations" in i.message for i in issues)

    def test_bad_unroll_pragma(self):
        b = KernelBuilder("k")
        with b.loop(0, 10, unroll=3):
            b.add("x", "x", 1.0)
        issues = _issues(b.build())
        assert any("does not divide" in i.message for i in issues)

    def test_device_budget_checks(self):
        b = KernelBuilder("k")
        b.mov("x", 1.0)
        kernel = b.build(shared_words=8000)  # 32 KB > 16 KB/SM
        issues = _issues(kernel, device=G8800GTX)
        assert any("shared usage" in i.message for i in issues)
        issues = _issues(
            b.build(), device=G8800GTX, regs_per_thread=200
        )
        assert any("architectural limit" in i.message for i in issues)
        issues = _issues(
            b.build(), device=G8800GTX, regs_per_thread=30, block_size=512
        )
        assert any("registers; the SM has" in i.message for i in issues)

    def test_errors_sorted_first(self):
        b = KernelBuilder("k")
        p = b.pred()
        b.setp("lt", p, b.sreg("tid"), 8)
        with b.if_(p):
            b.bar_sync()
        b.ld_shared(b.reg("v"), 0)  # no shared declared: error
        issues = _issues(b.build())
        assert _severities(issues) == sorted(
            _severities(issues), key={"error": 0, "warning": 1, "info": 2}.get
        )

    def test_check_or_raise(self):
        b = KernelBuilder("k")
        b.ld_shared(b.reg("v"), 0)  # 0 shared words declared
        with pytest.raises(IRError, match="failed validation"):
            check_or_raise(b.build())

    def test_compile_kernel_validate_flag(self):
        b = KernelBuilder("k")
        b.ld_shared(b.reg("v"), 0)
        with pytest.raises(IRError):
            compile_kernel(b.build(), CompileOptions(validate=True))
        # default: no validation, compiles fine
        compile_kernel(b.build())


class TestDivergentBarrierAtRuntime:
    def test_exited_warps_release_barriers(self):
        """Hardware-counter semantics: a warp that EXITs stops counting
        toward the block's barrier, so a warp waiting at BAR_SYNC is
        released when its sibling retires (matches CC 1.x behaviour —
        the validator still flags the pattern as dangerous)."""
        b = KernelBuilder("k", params=("dst",))
        p = b.pred()
        b.setp("ge", p, b.sreg("tid"), 32)  # true for warp 1
        b.exit(pred=p)  # warp 1 leaves before the barrier
        b.bar_sync()
        b.st_global(
            b.imad("o", b.sreg("tid"), 4, b.param("dst")), b.mov("x", 1.0)
        )
        kernel = b.build(shared_words=1)
        dev = Device(heap_bytes=1 << 16)
        dst = dev.malloc(4 * 64)
        import numpy as np

        dev.memcpy_htod(dst, np.zeros(64, np.float32))
        res = dev.launch(compile_kernel(kernel), 1, 64, {"dst": dst})
        out = dev.memcpy_dtoh(dst, 64)
        assert out[:32].sum() == 32  # warp 0 got past the barrier
        assert out[32:].sum() == 0
        assert res.cycles > 0

    def test_static_validator_is_the_guard(self):
        """The conditional-barrier hang is caught statically, which is
        where real tooling catches it too."""
        b = KernelBuilder("k")
        p = b.pred()
        b.setp("lt", p, b.sreg("tid"), 8)
        with b.if_(p):
            b.bar_sync()
        issues = validate_kernel(b.build(shared_words=1))
        assert any(i.severity == "warning" for i in issues)

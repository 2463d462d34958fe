"""Fastpath vs interpreter: bit-identity, CFG splitting, codegen cache.

The compiled fast path (:mod:`repro.cudasim.fastpath`) must be an exact
stand-in for the reference interpreter in *both* of its modes — per-warp
v1 (``fastpath=1``) and cross-warp vectorized v2 (``fastpath=2``): same
memory image, same :class:`KernelStats`, same cycle counts — for every
layout, coalescing policy, unroll factor, a divergent Barnes-Hut
traversal, and a dynamic pooled-simulation epoch with mid-run
compaction.  These tests pin that equivalence byte for byte, including
the fallback seams where the v2 warp-group scheduler must hand buckets
back to the per-warp path (divergence, barriers, mixed resident blocks,
conflicting shared addressing).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.cudasim import (
    BlockPool,
    Device,
    KernelBuilder,
    compile_kernel,
    profiler,
)
from repro.cudasim.cfg import (
    FUSIBLE_OPS,
    block_kind,
    fusible_run_ends,
    leaders,
    split_blocks,
)
from repro.cudasim.device import G8800GTX, Toolchain
from repro.cudasim.fastpath import (
    FASTPATH_ENV,
    compile_fastpath,
    fastpath_enabled,
    fastpath_mode,
    generate_source,
    program_key,
)
from repro.cudasim.kernel_cache import CompileOptions, KernelCache
from repro.gravit import GpuConfig, ParticleSystem, PooledSimulation, uniform_sphere
from repro.gravit.gpu_barneshut import bh_forces_gpu
from repro.gravit.gpu_driver import GpuForceBackend
from repro.gravit.gpu_kernels import build_force_kernel
from repro.gravit.spawn import uniform_cube
from repro.core.layouts import LAYOUT_KINDS, make_layout


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    profiler.disable()
    yield
    telemetry.disable()
    profiler.disable()


N = 64
BLOCK = 32

#: Interpreter, per-warp v1, cross-warp vectorized v2.
MODES = (0, 1, 2)


def _forces_run(cfg: GpuConfig, fastpath: int):
    """One forces_cycle on a fresh device; returns everything observable."""
    system = uniform_cube(N, seed=7)
    dev = Device(
        toolchain=cfg.toolchain, fastpath=fastpath, cache=KernelCache()
    )
    backend = GpuForceBackend(cfg, device=dev)
    forces, result = backend.forces_cycle(system)
    return (
        forces.tobytes(),
        dev.gmem.words.tobytes(),
        result.cycles,
        result.stats.as_dict(),
    )


def _assert_identical(slow, fast):
    assert fast[0] == slow[0], "force outputs differ"
    assert fast[1] == slow[1], "global memory images differ"
    assert fast[2] == slow[2], "cycle counts differ"
    # Stall attribution first: the two stall counters are the part of
    # KernelStats the vectorized replay reconstructs rather than
    # observes, so surface them before the full-dict comparison.
    assert (
        fast[3]["scoreboard_stalls"] == slow[3]["scoreboard_stalls"]
    ), "scoreboard stall attribution differs"
    assert (
        fast[3]["idle_cycles"] == slow[3]["idle_cycles"]
    ), "idle-cycle attribution differs"
    assert fast[3] == slow[3], "kernel stats differ"


class TestDifferentialForces:
    """Layouts × coalescing policies, straight-line force kernel."""

    @pytest.mark.parametrize("toolchain", list(Toolchain))
    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_layout_toolchain_bit_identical(self, kind, toolchain):
        cfg = GpuConfig(
            layout_kind=kind, block_size=BLOCK, toolchain=toolchain
        )
        interp = _forces_run(cfg, 0)
        for mode in (1, 2):
            _assert_identical(interp, _forces_run(cfg, mode))

    @pytest.mark.parametrize("unroll", [2, 16, BLOCK])
    def test_unroll_bit_identical(self, unroll):
        cfg = GpuConfig(
            layout_kind="soaoas", block_size=BLOCK, unroll=unroll, licm=True
        )
        interp = _forces_run(cfg, 0)
        for mode in (1, 2):
            _assert_identical(interp, _forces_run(cfg, mode))


class TestDifferentialDivergent:
    """Barnes-Hut traversal: data-dependent loops, divergence stack."""

    def test_bh_traversal_bit_identical(self):
        outs = []
        for fastpath in MODES:
            system = uniform_sphere(48, seed=11)
            dev = Device(fastpath=fastpath, cache=KernelCache())
            forces, result = bh_forces_gpu(
                system, block_size=BLOCK, device=dev
            )
            outs.append(
                (
                    forces.tobytes(),
                    dev.gmem.words.tobytes(),
                    result.cycles,
                    result.stats.as_dict(),
                )
            )
        for fast in outs[1:]:
            _assert_identical(outs[0], fast)


class TestDifferentialPooled:
    """A dynamic-population epoch: spawn, step, remove, compact, step."""

    def test_pooled_epoch_bit_identical(self):
        states = []
        for fastpath in MODES:
            system = uniform_sphere(20, seed=13)
            cfg = GpuConfig(block_size=BLOCK, layout_kind="soaoas")
            dev = Device(
                heap_bytes=1 << 22, fastpath=fastpath, cache=KernelCache()
            )
            pool = BlockPool(dev, "soaoas", 16)
            handles = system.spawn_into(pool)
            with PooledSimulation(pool, dev, cfg) as psim:
                psim.step(1e-3)
                psim.remove(handles[::4])
                psim.compact()
                psim.step(1e-3)
                state = psim.writeback()
            states.append(
                tuple(
                    getattr(state, f).tobytes()
                    for f in ("px", "py", "pz", "vx", "vy", "vz", "mass")
                )
            )
        assert states[0] == states[1]
        assert states[0] == states[2]


class TestDifferentialProfile:
    """`gravit-prof` KernelProfile: identical across all three modes."""

    def test_profile_identical_across_modes(self):
        cfg = GpuConfig(layout_kind="soaoas", block_size=BLOCK, unroll=16)
        dumps = []
        for fastpath in MODES:
            profiler.enable()
            profiler.reset()
            system = uniform_cube(N, seed=7)
            dev = Device(fastpath=fastpath, cache=KernelCache())
            backend = GpuForceBackend(cfg, device=dev)
            forces, result = backend.forces_cycle(system)
            assert result.profile is not None
            dumps.append((forces.tobytes(), result.profile.as_dict()))
            profiler.disable()
        assert dumps[0] == dumps[1]
        assert dumps[0] == dumps[2]


# -- v2 fallback seams -----------------------------------------------------
#
# Micro-kernels that force the cross-warp scheduler off its lockstep
# window: divergence leaving warps at one PC with different masks, a
# barrier splitting a bucket mid-stretch, mixed resident blocks parked
# at different PCs, and a bank-conflicted shared load whose real issue
# cost contradicts the replay's assumption.  Each must be bit-identical
# (memory, cycles, stats — stall attribution included) across modes.


def _run_kernel_modes(kernel, grid, block, out_words, shared_words=None):
    """Launch ``kernel`` under each fastpath mode; return observables."""
    outs = []
    for mode in MODES:
        dev = Device(
            toolchain=Toolchain.CUDA_1_0,
            fastpath=mode,
            cache=KernelCache(),
            heap_bytes=1 << 20,
        )
        lk = compile_kernel(kernel)
        dst = dev.malloc(4 * out_words)
        result = dev.launch(lk, grid=grid, block=block, params={"dst": dst})
        outs.append(
            (
                dev.memcpy_dtoh(dst, out_words).tobytes(),
                dev.gmem.words.tobytes(),
                result.cycles,
                result.stats.as_dict(),
            )
        )
    for fast in outs[1:]:
        _assert_identical(outs[0], fast)
    return outs


class TestVectorFallbacks:
    def test_same_pc_different_masks(self):
        """Warp 0 takes the `if` fully, warp 1 diverges: after
        reconvergence both warps sit at the same PC with different
        divergence histories and the tail masks must match exactly."""
        b = KernelBuilder("k_masks", params=("dst",))
        tid = b.sreg("tid")
        i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), tid)
        p = b.pred()
        b.setp("lt", p, tid, 40)
        x = b.mov(b.reg("x"), 1.0)
        with b.if_(p):
            b.add(x, x, 2.0)
            b.mul(x, x, 3.0)
        b.add(x, x, 5.0)
        b.mul(x, x, 0.5)
        b.st_global(b.imad("a", i, 4, b.param("dst")), x)
        _run_kernel_modes(b.build(), grid=2, block=64, out_words=128)

    def test_barrier_splits_bucket(self):
        """bar_sync in the middle of an ALU stretch: the bucket must
        park at the barrier, not vector-step across it."""
        b = KernelBuilder("k_bar", params=("dst",))
        tid = b.sreg("tid")
        i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), tid)
        x = b.i2f(b.reg("x"), tid)
        b.add(x, x, 1.0)
        b.mul(x, x, 2.0)
        b.st_shared(b.shl("sa", tid, 2), x)
        b.bar_sync()
        rev = b.isub("rev", 63, tid)
        y = b.ld_shared(b.reg("y"), b.shl("sb", rev, 2))
        b.add(y, y, x)
        b.mul(y, y, 0.25)
        b.st_global(b.imad("a", i, 4, b.param("dst")), y)
        _run_kernel_modes(
            b.build(shared_words=64), grid=3, block=64, out_words=192
        )

    def test_mixed_blocks_at_different_pcs(self):
        """Per-block trip counts leave co-resident warps from different
        blocks parked at different PCs of the same program."""
        b = KernelBuilder("k_mixed", params=("dst",))
        tid = b.sreg("tid")
        cta = b.sreg("ctaid")
        i = b.imad("i", cta, b.sreg("ntid"), tid)
        trips = b.iadd("trips", b.imul("t7", cta, 3), 2)
        acc = b.mov(b.reg("acc"), 1.0)
        with b.loop(0, trips):
            b.add(acc, acc, 1.0)
            b.mul(acc, acc, 0.5)
        b.st_global(b.imad("a", i, 4, b.param("dst")), acc)
        _run_kernel_modes(b.build(), grid=34, block=32, out_words=34 * 32)

    def test_bank_conflict_breaks_cost_assumption(self):
        """All 32 lanes hit shared bank 0 (stride 32 words): the real
        broadcast degree contradicts the replay's assumed issue cost,
        forcing the mid-window abort path."""
        b = KernelBuilder("k_conflict", params=("dst",))
        tid = b.sreg("tid")
        i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), tid)
        x = b.i2f(b.reg("x"), tid)
        b.st_shared(b.shl("sa", tid, 7), x)
        b.bar_sync()
        y = b.ld_shared(b.reg("y"), b.shl("sb", tid, 7))
        b.add(y, y, 1.0)
        b.mul(y, y, 2.0)
        b.st_global(b.imad("a", i, 4, b.param("dst")), y)
        _run_kernel_modes(
            b.build(shared_words=64 * 32), grid=2, block=64, out_words=128
        )


# -- CFG splitting ---------------------------------------------------------


def _lowered(unroll=None):
    layout = make_layout("soaoas", N)
    kernel, _ = build_force_kernel(layout, block_size=BLOCK)
    dev = Device(cache=KernelCache())
    return dev.compile(kernel, CompileOptions(unroll=unroll)), dev


class TestCfg:
    def test_blocks_cover_program_in_order(self):
        lk, _ = _lowered()
        blocks = split_blocks(lk)
        assert blocks[0].start == 0
        assert blocks[-1].end == len(lk.instructions)
        for prev, cur in zip(blocks, blocks[1:]):
            assert prev.end == cur.start

    def test_straight_blocks_are_fusible_and_boundaries_singletons(self):
        lk, _ = _lowered()
        for blk in split_blocks(lk):
            ops = [i.op for i in lk.instructions[blk.start : blk.end]]
            if blk.kind == "straight":
                assert all(op in FUSIBLE_OPS for op in ops)
            else:
                assert len(blk) == 1
                assert block_kind(lk.instructions[blk.start]) == blk.kind

    def test_branch_targets_are_leaders(self):
        lk, _ = _lowered()
        lead = leaders(lk)
        from repro.cudasim.isa import Op

        for ins in lk.instructions:
            if ins.op is Op.BRA:
                assert lk.targets[ins.target] in lead

    def test_fusible_run_ends_consistent(self):
        lk, _ = _lowered()
        ends = fusible_run_ends(lk)
        assert len(ends) == len(lk.instructions)
        for pc, ins in enumerate(lk.instructions):
            if ins.op in FUSIBLE_OPS:
                end = ends[pc]
                assert pc < end <= len(lk.instructions)
                # Every instruction inside the run is fusible and shares
                # the same run end.
                for q in range(pc, end):
                    assert lk.instructions[q].op in FUSIBLE_OPS
                    assert ends[q] == end


# -- codegen + cache -------------------------------------------------------


class TestCodegenCache:
    def test_program_key_stable_and_toolchain_sensitive(self):
        lk, _ = _lowered()
        k1 = program_key(lk, G8800GTX, Toolchain.CUDA_1_0)
        k2 = program_key(lk, G8800GTX, Toolchain.CUDA_1_0)
        k3 = program_key(lk, G8800GTX, Toolchain.CUDA_2_2)
        assert k1 == k2
        assert k1 != k3

    def test_program_key_vectorize_sensitive(self):
        """A per-warp v1 program cached on disk must never be returned
        to the vectorized executor, and vice versa."""
        lk, _ = _lowered()
        k1 = program_key(lk, G8800GTX, Toolchain.CUDA_1_0, vectorize=False)
        k2 = program_key(lk, G8800GTX, Toolchain.CUDA_1_0, vectorize=True)
        assert k1 != k2

    def test_compile_fastpath_memoizes(self):
        lk, _ = _lowered()
        cache = KernelCache()
        p1 = compile_fastpath(lk, G8800GTX, Toolchain.CUDA_1_0, cache=cache)
        p2 = compile_fastpath(lk, G8800GTX, Toolchain.CUDA_1_0, cache=cache)
        assert p1 is p2

    def test_codegen_templates_deduplicate(self):
        """Unrolled kernels repeat instruction shapes; the generated
        module must share one template per shape, not one def per pc."""
        lk, _ = _lowered(unroll=16)
        source = generate_source(lk, G8800GTX)
        templates = source.count("def _T")
        binds = source.count("steps[")
        assert binds >= len(
            [i for i in lk.instructions if i.op in FUSIBLE_OPS]
        )
        assert templates < binds / 2

    def test_env_switch(self, monkeypatch):
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        assert fastpath_enabled() is True
        monkeypatch.setenv(FASTPATH_ENV, "0")
        assert fastpath_enabled() is False
        assert fastpath_enabled(True) is True
        assert Device(cache=KernelCache()).fastpath is False
        assert Device(cache=KernelCache(), fastpath=True).fastpath is True

    def test_env_three_state(self, monkeypatch):
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        assert fastpath_mode() == 2
        monkeypatch.setenv(FASTPATH_ENV, "0")
        assert fastpath_mode() == 0
        monkeypatch.setenv(FASTPATH_ENV, "1")
        assert fastpath_mode() == 1
        assert fastpath_enabled() is True
        monkeypatch.setenv(FASTPATH_ENV, "2")
        assert fastpath_mode() == 2

    def test_mode_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(FASTPATH_ENV, "2")
        assert fastpath_mode(0) == 0
        assert fastpath_mode(1) == 1
        assert fastpath_mode(False) == 0
        assert fastpath_mode(True) == 2
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        with pytest.raises(ValueError):
            fastpath_mode(3)
        with pytest.raises(ValueError):
            fastpath_mode(-1)

    def test_device_exposes_resolved_mode(self):
        for mode in MODES:
            dev = Device(cache=KernelCache(), fastpath=mode)
            assert dev.fastpath_mode == mode
            assert dev.fastpath is (mode > 0)

    @pytest.mark.parametrize("value", ("off", "false", "no", "OFF", "False"))
    def test_env_false_spellings_disable(self, monkeypatch, value):
        """The regression: ``REPRO_EXEC_FASTPATH=off`` used to silently
        *enable* the fast path (the old ``!= \"0\"`` parse)."""
        monkeypatch.setenv(FASTPATH_ENV, value)
        assert fastpath_enabled() is False

    @pytest.mark.parametrize("value", ("1", "true", "yes", "on", "TRUE"))
    def test_env_true_spellings_enable(self, monkeypatch, value):
        monkeypatch.setenv(FASTPATH_ENV, value)
        assert fastpath_enabled() is True

    @pytest.mark.parametrize("value", ("maybe", "3", "enabled", "offf"))
    def test_env_garbage_rejected(self, monkeypatch, value):
        monkeypatch.setenv(FASTPATH_ENV, value)
        with pytest.raises(ValueError, match=FASTPATH_ENV):
            fastpath_enabled()

    def test_env_empty_means_default_and_whitespace_tolerated(
        self, monkeypatch
    ):
        monkeypatch.setenv(FASTPATH_ENV, "")
        assert fastpath_enabled() is True
        monkeypatch.setenv(FASTPATH_ENV, " off ")
        assert fastpath_enabled() is False

    def test_sm_engine_env_rejected_loudly(self, monkeypatch):
        from repro.cudasim.executor import ENGINE_ENV

        monkeypatch.setenv(ENGINE_ENV, "threads")  # typo of "thread"
        with pytest.raises(ValueError, match=ENGINE_ENV):
            Device(cache=KernelCache())


# -- per-kernel executor plan ----------------------------------------------


def _rebind_kernel():
    """Launch values that reach fused instructions: two scalar
    parameters, the block and grid dimensions and the output pointer."""
    b = KernelBuilder("k_rebind", params=("dst", "scale", "bias"))
    tid = b.sreg("tid")
    i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), tid)
    x = b.i2f(b.reg("x"), i)
    b.mul(x, x, b.param("scale"))
    b.add(x, x, b.param("bias"))
    g = b.i2f(b.reg("g"), b.sreg("nctaid"))
    b.add(x, x, g)
    b.st_global(b.imad("a", i, 4, b.param("dst")), x)
    return b.build()


def _rebind_launch(lk, mode, grid, block, scale, bias):
    dev = Device(fastpath=mode, cache=KernelCache(), heap_bytes=1 << 20)
    words = grid * block
    dst = dev.malloc(4 * words)
    result = dev.launch(
        lk, grid=grid, block=block,
        params={"dst": dst, "scale": scale, "bias": bias},
    )
    return (
        dev.memcpy_dtoh(dst, words).tobytes(),
        dev.gmem.words.tobytes(),
        result.cycles,
        result.stats.as_dict(),
    )


@pytest.fixture
def _fresh_default_cache():
    """Fast-path programs live in the process-default kernel cache."""
    from repro.cudasim.kernel_cache import set_default_cache

    previous = set_default_cache(KernelCache())
    yield
    set_default_cache(previous)


class TestKernelPlan:
    """A lowered kernel's executor state is built by its first SM run and
    reused by every later one, on any SM, launch or thread."""

    #: (grid, block, scale, bias) of successive launches of one kernel.
    LAUNCHES = ((3, 64, 2.0, 1.0), (5, 32, -0.5, 7.0), (2, 96, 3.0, -2.0))

    @pytest.mark.parametrize("mode", MODES)
    def test_reused_plan_rebinds_launch_values(self, mode):
        kernel = _rebind_kernel()
        shared = compile_kernel(kernel, cache=None)
        for launch in self.LAUNCHES:
            reference = _rebind_launch(
                compile_kernel(kernel, cache=None), 0, *launch
            )
            _assert_identical(reference, _rebind_launch(shared, mode, *launch))
        assert shared.exec_plan is not None

    def test_state_built_once(self, monkeypatch, _fresh_default_cache):
        import repro.cudasim.executor as executor_mod
        import repro.cudasim.fastpath as fastpath_mod

        calls = {"prepare": 0, "program": 0, "steps": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(
            executor_mod, "_prepare",
            counted("prepare", executor_mod._prepare),
        )
        monkeypatch.setattr(
            fastpath_mod, "compile_fastpath",
            counted("program", fastpath_mod.compile_fastpath),
        )
        monkeypatch.setattr(
            fastpath_mod.StepSet, "__init__",
            counted("steps", fastpath_mod.StepSet.__init__),
        )
        lk = compile_kernel(_rebind_kernel(), cache=None)
        for _ in range(3):
            _rebind_launch(lk, 2, 8, 64, 1.0, 0.0)  # 8 SM runs per launch
        assert calls == {"prepare": 1, "program": 1, "steps": 1}

    def test_plan_is_not_pickled(self):
        """The process engine ships kernels to workers; the plan holds
        exec-built code and stays behind."""
        import pickle

        lk = compile_kernel(_rebind_kernel(), cache=None)
        _rebind_launch(lk, 2, 2, 32, 1.0, 0.0)
        assert lk.exec_plan is not None
        clone = pickle.loads(pickle.dumps(lk))
        assert clone.exec_plan is None
        assert clone.instructions == lk.instructions

    def test_concurrent_launches_share_plan_safely(self):
        """More threads than cores launch one kernel with different
        launch values at once, under a tiny switch interval: a shared
        step family would mix their parameters or lose counter updates,
        so every result must still equal its interpreter reference."""
        import sys
        import threading

        kernel = _rebind_kernel()
        lk = compile_kernel(kernel, cache=None)
        cases = self.LAUNCHES * 2
        expected = [
            _rebind_launch(compile_kernel(kernel, cache=None), 0, *case)
            for case in cases
        ]
        got: list = [None] * len(cases)

        def work(k):
            got[k] = _rebind_launch(lk, 2, *cases[k])

        threads = [
            threading.Thread(target=work, args=(k,))
            for k in range(len(cases))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for want, have in zip(expected, got):
            _assert_identical(want, have)

"""Fastpath vs interpreter: bit-identity, CFG splitting, codegen cache.

The compiled fast path (:mod:`repro.cudasim.fastpath`, ``fastpath=True``)
must be an exact stand-in for the reference interpreter: same memory
image, same :class:`KernelStats`, same cycle counts — for every
layout, coalescing policy, unroll factor, a divergent Barnes-Hut
traversal, a dynamic pooled-simulation epoch with mid-run compaction,
and generated chains of fusible ops and shared loads.  These tests pin
that equivalence byte for byte, including the fallback seams where the
cross-warp scheduler must hand buckets back to the per-warp path
(divergence, barriers, mixed resident blocks, conflicting shared
addressing) and the static shared loads it folds into its runs.  v2
has one cross-warp scheduler, the replay, for profiled and unprofiled
launches alike: profiles match the interpreter's, and profiling changes
no scheduling decision.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cudasim import (
    BlockPool,
    Device,
    DeviceGroup,
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
from repro.cudasim.errors import AccessViolation, MisalignedAccess
from repro.cudasim.fastpath import (
    FALLBACK_REASONS,
    FASTPATH_ENV,
    FastSMExecutor,
    compile_fastpath,
    fastpath_enabled,
    generate_program,
    reset_vec_counters,
    vec_counters,
)
from repro.cudasim.isa import Imm, Instr, Op
from repro.cudasim.kernel_cache import CompileOptions, KernelCache
from repro.gravit import GpuConfig, ParticleSystem, PooledSimulation, uniform_sphere
from repro.gravit.gpu_barneshut import bh_forces_gpu, build_bh_kernel
from repro.gravit.gpu_driver import GpuForceBackend, _step_params
from repro.gravit.gpu_kernels import POSMASS_FIELDS, build_force_kernel
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

#: Interpreter, compiled fast path.  Their test ids, ``0`` and ``2``,
#: are the names these cases have had since the switch was an integer.
MODES = (False, True)
MODE_IDS = ("0", "2")


def _forces_run(cfg: GpuConfig, fastpath: bool):
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
        _assert_identical(_forces_run(cfg, False), _forces_run(cfg, True))

    @pytest.mark.parametrize("unroll", [2, 16, BLOCK])
    def test_unroll_bit_identical(self, unroll):
        cfg = GpuConfig(
            layout_kind="soaoas", block_size=BLOCK, unroll=unroll, licm=True
        )
        _assert_identical(_forces_run(cfg, False), _forces_run(cfg, True))


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

    def test_bh_traversal_profile_identical(self):
        """Profiled, the divergent loops and reconvergence pops of the
        traversal go through the replay scheduler too (two warps per
        block): its profile must match the interpreter's counter for
        counter."""
        dumps = []
        for fastpath in MODES:
            profiler.enable()
            profiler.reset()
            reset_vec_counters()
            dev = Device(fastpath=fastpath, cache=KernelCache())
            forces, result = bh_forces_gpu(
                uniform_sphere(48, seed=11), block_size=2 * BLOCK, device=dev
            )
            dumps.append((forces.tobytes(), result.profile.as_dict()))
            profiler.disable()
        assert vec_counters()["dispatches"] > 0
        prof = dumps[0][1]
        assert prof["divergent_branches"] > 0 and prof["reconvergences"] > 0
        assert dumps[1] == dumps[0]
        assert _walk_plans(compile_kernel(build_bh_kernel(2 * BLOCK)))


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


class TestDifferentialProfile:
    """`gravit-prof` KernelProfile: identical across both modes."""

    def test_profile_identical_across_modes(self):
        """Every layout kind, rolled, unrolled by 16 and fully unrolled,
        with two warps per block so v2 runs its cross-warp replay."""
        for kind in LAYOUT_KINDS:
            for unroll in (None, 16, "full"):
                cfg = GpuConfig(
                    layout_kind=kind, block_size=2 * BLOCK, unroll=unroll
                )
                dumps = []
                for fastpath in MODES:
                    profiler.enable()
                    profiler.reset()
                    system = uniform_cube(N, seed=7)
                    dev = Device(fastpath=fastpath, cache=KernelCache())
                    backend = GpuForceBackend(cfg, device=dev)
                    forces, result = backend.forces_cycle(system)
                    assert result.profile is not None
                    dumps.append(
                        (forces.tobytes(), result.profile.as_dict())
                    )
                    profiler.disable()
                assert dumps[0] == dumps[1], (kind, unroll)

    @pytest.mark.parametrize("case", ("paper", "bank_conflict"))
    def test_profiling_changes_no_scheduling_decision(self, case):
        """A profiled v2 launch makes exactly the dispatches, fallbacks
        and aborts of an unprofiled one: one scheduler for both.  Only
        the gang counters differ: a profiled launch runs its SMs one at
        a time, an unprofiled one as a gang (both launches use 2 SMs)
        whose memory accesses and barriers are stacked requests."""
        counts = []
        for profiled in (False, True):
            if profiled:
                profiler.enable()
            reset_vec_counters()
            dev = Device(
                fastpath=True, cache=KernelCache(), heap_bytes=1 << 20
            )
            if case == "paper":
                cfg = GpuConfig(
                    layout_kind="soaoas", block_size=128, unroll="full"
                )
                GpuForceBackend(cfg, device=dev).forces_cycle(
                    uniform_cube(256, seed=7)
                )
            else:
                lk = compile_kernel(_bank_conflict_kernel())
                dev.launch(
                    lk, grid=2, block=64, params={"dst": dev.malloc(512)}
                )
            counts.append(vec_counters())
            profiler.disable()
        assert counts[0]["dispatches"] > 0
        gang = ("gang_members", "gang_splits")
        assert [counts[0][k] for k in gang] == [2, 0]
        assert [counts[1][k] for k in gang] == [0, 0]
        assert counts[0]["gang_stacked"] > 0
        assert counts[1]["gang_stacked"] == 0
        gang += ("gang_stacked",)
        for c in counts:
            for k in gang:
                del c[k]
        assert counts[1] == counts[0]


# -- v2 fallback seams -----------------------------------------------------
#
# Micro-kernels at the seams of the cross-warp replay scheduler:
# divergence leaving warps at one PC with different masks, a barrier
# splitting a bucket mid-stretch, mixed resident blocks parked at
# different PCs, and a bank-conflicted shared load whose real issue cost
# contradicts the replay's assumption.  Each must be bit-identical
# (memory, cycles, stats — stall attribution included) across modes,
# unprofiled and profiled, profiles included.


def _run_kernel_modes(
    kernel, grid, block, out_words, params=None, props=G8800GTX
):
    """Launch ``kernel`` on ``props`` under each fastpath mode; return
    observables.

    ``params`` are launch values besides the ``dst`` output pointer.
    With the profiler enabled the launches' profiles must match too."""
    outs = []
    profiles = []
    for mode in MODES:
        dev = Device(
            props=props,
            toolchain=Toolchain.CUDA_1_0,
            fastpath=mode,
            cache=KernelCache(),
            heap_bytes=1 << 20,
        )
        lk = compile_kernel(kernel)
        dst = dev.malloc(4 * out_words)
        result = dev.launch(
            lk, grid=grid, block=block, params={"dst": dst, **(params or {})}
        )
        outs.append(
            (
                dev.memcpy_dtoh(dst, out_words).tobytes(),
                dev.gmem.words.tobytes(),
                result.cycles,
                result.stats.as_dict(),
            )
        )
        if result.profile is not None:
            profiles.append(result.profile.as_dict())
    for fast in outs[1:]:
        _assert_identical(outs[0], fast)
    assert len(profiles) in (0, len(MODES))
    for prof in profiles[1:]:
        assert prof == profiles[0], "kernel profiles differ"
    _walk_plans(lk)
    return outs


def _run_seam(kernel, grid, block, out_words, **kw):
    """:func:`_run_kernel_modes` unprofiled, then profiled (the profiler
    is disabled again by the autouse fixture)."""
    for profiled in (False, True):
        if profiled:
            profiler.enable()
        _run_kernel_modes(kernel, grid, block, out_words, **kw)


def _replay_plans(
    kernel, grid, block, out_words, params=None, props=G8800GTX
):
    """Launch ``kernel`` once on the compiled path; return the replay
    plans its program memoized, each checked by :func:`_walk_plans`."""
    dev = Device(
        props=props, fastpath=True, cache=KernelCache(), heap_bytes=1 << 20
    )
    lk = compile_kernel(kernel)
    dev.launch(
        lk, grid=grid, block=block,
        params={"dst": dev.malloc(4 * out_words), **(params or {})},
    )
    plans = _walk_plans(lk)
    assert plans, "no replay plan was memoized"
    return plans


def _assert_state(state, kr, lr, pr):
    """A replay state's per-row issue counts equal ``kr``; its next-issue
    offsets and next pcs equal ``lr`` and ``pr`` for the rows that
    issued."""
    ks, nis, ps = state[3:]
    assert ks == tuple(kr)
    for m, km in enumerate(kr):
        if km:
            assert (nis[m], ps[m]) == (lr[m], pr[m]), m


def _walk_plans(lk):
    """Every replay plan memoized on ``lk``'s programs (``_vreplay``
    results, ``None`` left out), each checked against a reference walk
    of its prefix: items are runs and validated loads and branches
    only, each row's events follow its pc trajectory (a run's static
    branches go the way they record, a validated branch the assumed
    way), every validated event's state is what walking the plan up to
    it gives, and at the end each row's run groups and validated events
    add up to its issue count."""
    plans = []
    for program in lk.exec_plan.programs.values():
        for (pcs, _, dkey, _), meta in program.vmeta.items():
            if meta is None:
                continue
            plan, state = meta[0], meta[-1]
            kr = [0] * len(dkey)
            lr = list(dkey)
            pr = list(pcs)
            for e in plan:
                assert e[0] in (1, 2, 3), e[0]
                if e[0] == 2:
                    # Every group covers every row of the range, so the
                    # run's steps are each row's next events in order.
                    run = e[1]
                    a, b = run.rows
                    assert all(pr[m] == run.pcs[0] for m in range(a, b))
                    nxt = run.pcs[0]
                    for arg, q in zip(run.args, run.pcs):
                        assert q == nxt, (q, nxt)
                        nxt = q + 1
                        c = program.costs[q]
                        if isinstance(arg, int):  # static branch
                            tgt, pi, _, _, c = program.bra[q]
                            assert arg == tgt or (pi >= 0 and arg == q + 1)
                            nxt = arg
                        elif arg is not None:  # static load
                            c = program.mem[q][0]
                    for m in range(a, b):
                        kr[m] += len(run.pcs)
                        lr[m] = run.issue[-1][m - a] + c
                        pr[m] = nxt
                    continue
                m, q = e[1], e[2]
                assert pr[m] == q, (m, pr[m], q)
                kr[m] += 1
                lr[m] = e[3] + e[4]
                if e[0] == 3:
                    tgt, _, _, taken, _ = program.bra[q]
                    pr[m] = tgt if taken else q + 1
                else:
                    pr[m] = q + 1
                _assert_state(e[5], kr, lr, pr)
            _assert_state(state, kr, lr, pr)
            plans.append(meta)
    return plans


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
        _run_seam(b.build(), grid=2, block=64, out_words=128)

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
        _run_seam(b.build(shared_words=64), grid=3, block=64, out_words=192)

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
        _run_seam(b.build(), grid=34, block=32, out_words=34 * 32)

    def test_bank_conflict_breaks_cost_assumption(self):
        """All 32 lanes hit shared bank 0 (stride 32 words): the real
        broadcast degree contradicts the replay's assumed issue cost,
        forcing the mid-window abort path, profiled or not."""
        for profiled in (False, True):
            if profiled:
                profiler.enable()
            reset_vec_counters()
            _run_kernel_modes(
                _bank_conflict_kernel(), grid=2, block=64, out_words=128
            )
            assert vec_counters()["abort_cost"] >= 1

    def test_memory_stalls_inside_replay_windows(self):
        """A warp woken by its global load runs a dependent chain while
        its siblings still wait on theirs: the replay's idle gaps are
        won by warps it never issued, stalled on memory, so the
        profiled attribution must read their pre-dispatch scoreboards."""
        b = KernelBuilder("k_memgaps", params=("dst",))
        tid = b.sreg("tid")
        i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), tid)
        a = b.imad("a", i, 4, b.param("dst"))
        x = b.ld_global(b.reg("x"), a)
        y = b.add(b.reg("y"), x, 1.0)
        b.mul(y, y, 1.5)
        b.rsqrt(y, y)
        b.add(y, y, x)
        b.bar_sync()
        b.mul(y, y, 0.5)
        b.add(y, y, 2.0)
        b.st_global(a, y)
        _run_seam(b.build(), grid=34, block=64, out_words=34 * 64)

    def test_solo_warp_predicated_steps(self):
        """One warp per block never dispatches cross-warp, so the fused
        driver runs every fusible step on the warp's arena row: a
        predicated step counts its own active lanes, not the warp's."""
        b = KernelBuilder("k_solo_pred", params=("dst",))
        tid = b.sreg("tid")
        i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), tid)
        p = b.pred()
        b.setp("lt", p, tid, 10)
        x = b.i2f(b.reg("x"), tid)
        b.emit(Instr(Op.ADD, dsts=(x,), srcs=(x, Imm(1.5)), pred=p))
        b.emit(Instr(
            Op.MUL, dsts=(x,), srcs=(x, Imm(3.0)), pred=p, pred_neg=True
        ))
        b.st_global(b.imad("a", i, 4, b.param("dst")), x)
        _run_seam(b.build(), grid=1, block=32, out_words=32)

    def test_clock_in_leftover_events(self):
        """Global loads wake a block's two warps at different cycles, so
        validated shared loads split the replay window between their
        CLOCK reads: each read is a one-row run's step and must see its
        own issue time, not the dispatch's.  The loads' base is uniform but
        not written by a constant ``mov``, so they stay validated."""
        reset_vec_counters()
        _run_seam(
            _clock_kernel(lambda b, tid: b.isub(b.reg("s0"), tid, tid)),
            grid=1, block=64, out_words=256,
        )
        got = vec_counters()
        assert got["row_loads"] > 0
        assert got["row_events"] > 0

    def test_row_counters_flush_to_telemetry(self):
        """The per-row counters reach the registry like every other
        dispatch counter."""
        telemetry.enable()
        reset_vec_counters()
        _run_kernel_modes(
            _clock_kernel(lambda b, tid: b.isub(b.reg("s0"), tid, tid)),
            grid=1, block=64, out_words=256,
        )
        snap = telemetry.snapshot()
        got = vec_counters()
        for name in ("row_events", "row_loads"):
            series = snap[f"cudasim.fastpath.vec.{name}"]["series"]
            assert sum(s["value"] for s in series) == got[name] > 0

    @pytest.mark.parametrize("profiled", (False, True))
    def test_fallback_reasons_sum_to_fallbacks(self, profiled):
        """Every fallback is counted under exactly one reason, profiled
        or not."""
        if profiled:
            profiler.enable()
        reset_vec_counters()
        _run_kernel_modes(
            _bank_conflict_kernel(), grid=2, block=64, out_words=128
        )
        bh_forces_gpu(
            uniform_sphere(48, seed=11), block_size=64,
            device=Device(fastpath=True, cache=KernelCache()),
        )
        got = vec_counters()
        assert got["fallbacks"] > 0
        assert sum(got[r] for r in FALLBACK_REASONS) == got["fallbacks"]

    def test_counters_add_up_under_concurrent_runs(self):
        """Concurrent SM runs flush the process-wide counters at once:
        no update may be lost, so N concurrent copies of a launch count
        exactly N times its serial counts."""
        import sys
        import threading

        def launch():
            dev = Device(
                fastpath=True, cache=KernelCache(), heap_bytes=1 << 20
            )
            lk = compile_kernel(_bank_conflict_kernel())
            dev.launch(lk, grid=2, block=64, params={"dst": dev.malloc(512)})

        reset_vec_counters()
        launch()
        once = vec_counters()
        assert once["dispatches"] > 0
        reset_vec_counters()
        threads = [
            threading.Thread(target=lambda: [launch() for _ in range(4)])
            for _ in range(6)
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
        assert vec_counters() == {k: 24 * v for k, v in once.items()}


def _clock_kernel(base):
    """Global loads wake a block's two warps at different cycles; then
    three CLOCK reads interleave with shared loads at the register that
    ``base(builder, tid)`` writes."""
    b = KernelBuilder("k_clock_left", params=("dst",))
    tid = b.sreg("tid")
    i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), tid)
    a = b.imad("a", i, 4, b.param("dst"))
    x = b.ld_global(b.reg("x"), a)
    y = b.add(b.reg("y"), x, 1.0)
    s0 = base(b, tid)
    clocks = []
    for k in range(3):
        clocks.append(b.clock(b.reg(f"c{k}")))
        b.add(y, y, b.ld_shared(b.reg(f"l{k}"), s0, offset=4 * k))
    for k, c in enumerate(clocks):
        b.st_global(a, c, offset=4 * 64 * (k + 1))
    b.st_global(a, y)
    return b.build(shared_words=4)


#: Words of the shared tile the static-load kernels fill, one per thread
#: of a 64-thread block.
TILE = 64


def _tile_kernel(name, base, width=4, loads=8, active=None):
    """Each thread stores a value of its global index into its word of
    the shared tile; after a barrier ``base(builder, tid)`` sets ``s0``,
    and ``loads`` shared loads of ``width`` words at ``[s0 + 16k]`` feed
    an accumulator chain.  With ``active``, that part runs inside ``if
    laneid < active`` and ends in a store, so the rows park before they
    reconverge; every lane then adds all loaded registers, so lanes
    outside the ``if`` show what the loads left in them."""
    b = KernelBuilder(name, params=("dst",))
    tid = b.sreg("tid")
    i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), tid)
    a = b.imad("a", i, 4, b.param("dst"))
    v = b.i2f(b.reg("v"), i)
    b.mad(v, v, 0.75, 1.0)
    b.st_shared(b.shl("sa", tid, 2), v)
    b.bar_sync()
    xs = [
        [b.mov(b.reg(f"x{k}_{j}"), -1.0) for j in range(width)]
        for k in range(loads)
    ]
    acc = b.mov(b.reg("acc"), 0.5)

    def body():
        s0 = base(b, tid)
        for k, row in enumerate(xs):
            b.ld_shared(tuple(row) if width > 1 else row[0], s0,
                        offset=16 * k)
            for x in row:
                b.mad(acc, acc, 0.5, x)

    if active is None:
        body()
    else:
        p = b.pred()
        b.setp("lt", p, b.sreg("laneid"), active)
        with b.if_(p):
            body()
            b.st_global(a, acc)
    for row in xs:
        for x in row:
            b.add(acc, acc, x)
    b.st_global(a, acc)
    return b.build(shared_words=TILE)


def _stagger_kernel(active=None):
    """Warp 1 of a 64-thread block reads global memory at a 17-word
    stride (uncoalesced) and wakes long after warp 0.  Each warp then
    reads two static ``.v2`` loads and stores, so it parks right after
    them (inside ``if laneid < active`` when given); the loaded
    registers are first read after the window, then a lane-dependent
    (validated) load joins the stored sum."""
    b = KernelBuilder("k_stagger", params=("dst",))
    tid = b.sreg("tid")
    i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), tid)
    o = b.imad("o", i, 4, b.param("dst"))
    stride = b.imad("st", b.shr(b.reg("wid"), tid, 5), 16, 1)
    a = b.imad("a", b.imul("j", i, stride), 4, b.param("dst"))
    y = b.add(b.reg("y"), b.ld_global(b.reg("x"), a), 1.0)
    regs = [b.mov(b.reg(f"l{k}"), -1.0) for k in range(4)]

    def body():
        s0 = b.mov(b.reg("s0"), 0)
        for k in range(2):
            b.ld_shared(tuple(regs[2 * k: 2 * k + 2]), s0, offset=8 * k)
        b.st_global(o, y)

    if active is None:
        body()
    else:
        p = b.pred()
        b.setp("lt", p, b.sreg("laneid"), active)
        with b.if_(p):
            body()
    # l3 first: its load is still in flight right after the store.
    for r in reversed(regs):
        b.add(y, y, r)
    z = b.ld_shared(b.reg("z"), b.shl(b.reg("s1"), b.sreg("laneid"), 2))
    b.add(y, y, z)
    b.st_global(o, y)
    return b.build(shared_words=32)


class TestStaticLoads:
    """Shared loads at a base last written in the window by a constant
    ``mov`` fold into replay runs like ALU ops; every other load stays
    validated.  Each case is bit-identical to the interpreter, profiled
    and not (profiles include the folded loads' bank conflicts)."""

    @staticmethod
    def _const_base(b, tid):
        return b.mov(b.reg("s0"), 0)

    def test_clock_between_static_loads(self):
        """The CLOCK kernel with a constant base: its loads are static,
        so they no longer split the window and no load is validated."""
        reset_vec_counters()
        _run_seam(
            _clock_kernel(self._const_base), grid=1, block=64, out_words=256
        )
        got = vec_counters()
        assert got["row_loads"] == 0
        assert got["dispatches"] > 0

    def test_group_reads_several_blocks(self, monkeypatch):
        """Two resident blocks per SM hold different tiles: one group of
        static loads reads every row's own block from a stacked view."""
        rows_read = []
        stacked = FastSMExecutor._vshared

        def spy(warps, lo, hi):
            view = stacked(warps, lo, hi)
            rows_read.append(view.shape[1])
            return view

        monkeypatch.setattr(FastSMExecutor, "_vshared", staticmethod(spy))
        reset_vec_counters()
        grid = 2 * G8800GTX.num_sms
        _run_seam(
            _tile_kernel("k_tiles", self._const_base),
            grid=grid, block=TILE, out_words=grid * TILE,
        )
        got = vec_counters()
        assert got["row_loads"] == 0
        assert max(rows_read) > 1, "no group read more than one block"

    @pytest.mark.parametrize("width", (1, 4))
    def test_partial_warp_reads_static_loads(self, width):
        """Inside a lane-divergent ``if`` every row is partially
        active: the folded reads write only the active lanes, and the
        others keep their values past reconvergence."""
        reset_vec_counters()
        _run_seam(
            _tile_kernel(
                f"k_tiles_partial{width}", self._const_base,
                width=width, active=20,
            ),
            grid=2, block=TILE, out_words=2 * TILE,
        )
        got = vec_counters()
        assert got["masked_runs"] > 0
        assert got["row_loads"] == 0

    @pytest.mark.parametrize("active", (None, 20))
    def test_static_loads_left_out_of_groups(self, active):
        """Warp 1's uncoalesced global load wakes it long after warp 0,
        which runs through its static loads alone: they are left out of
        every multi-row group, and a one-row run reads them, fully or
        partially active."""
        kernel = _stagger_kernel(active)
        _run_seam(kernel, grid=1, block=TILE, out_words=17 * TILE)
        assert any(
            e[0] == 2
            and e[1].rows[1] - e[1].rows[0] == 1
            and any(isinstance(arg, tuple) for arg in e[1].args)
            for meta in _replay_plans(kernel, 1, TILE, 17 * TILE)
            for e in meta[0]
        ), "no one-row run holds a static load"

    @staticmethod
    def _rewritten(b, tid):
        s0 = b.mov(b.reg("s0"), 0)
        return b.iadd(s0, s0, 16)

    def test_iadd_advanced_base_is_static(self):
        """An unpredicated ``iadd`` of an integer immediate carries its
        source's constant, as the tile cursor of a rolled loop does: the
        loads at the advanced base are static."""
        reset_vec_counters()
        _run_seam(
            _tile_kernel("k_advanced", self._rewritten, width=4, loads=4),
            grid=2, block=TILE, out_words=2 * TILE,
        )
        got = vec_counters()
        assert got["row_loads"] == 0
        assert got["dispatches"] > 0

    @staticmethod
    def _predicated(b, tid):
        s0 = b.mov(b.reg("s0"), 0)
        p = b.pred()
        b.setp("lt", p, b.sreg("laneid"), 16)
        b.emit(Instr(Op.MOV, dsts=(s0,), srcs=(Imm(16),), pred=p))
        return s0

    @staticmethod
    def _predicated_iadd(b, tid):
        s0 = b.mov(b.reg("s0"), 0)
        p = b.pred()
        b.setp("lt", p, b.sreg("laneid"), 16)
        b.emit(Instr(Op.IADD, dsts=(s0,), srcs=(s0, Imm(16)), pred=p))
        return s0

    @staticmethod
    def _register_iadd(b, tid):
        s0 = b.mov(b.reg("s0"), 0)
        return b.iadd(s0, s0, b.mov(b.reg("s1"), 16))

    @staticmethod
    def _lane_dependent(b, tid):
        return b.shl(b.reg("s0"), b.sreg("laneid"), 2)

    @pytest.mark.parametrize(
        "base, width",
        [
            ("_predicated", 4),
            ("_predicated_iadd", 4),
            ("_register_iadd", 4),
            ("_lane_dependent", 1),
        ],
    )
    def test_loads_that_stay_validated(self, base, width):
        """A base set by a predicated ``mov``, advanced by a predicated
        ``iadd`` or by an ``iadd`` of a register, or different per lane
        is not static."""
        reset_vec_counters()
        _run_seam(
            _tile_kernel(
                f"k_validated{base}", getattr(self, base), width=width,
                loads=4,
            ),
            grid=2, block=TILE, out_words=2 * TILE,
        )
        assert vec_counters()["row_loads"] > 0

    @staticmethod
    def _walk_out(b, tid):
        """Walk the tile with an ``iadd``-advanced cursor, one load per
        step, one step past its last word; return the cursor."""
        s0 = b.mov(b.reg("s0"), 0)
        with b.loop(0, TILE + 1):
            b.ld_shared(b.reg("w"), s0)
            b.iadd(s0, s0, 4)
        return s0

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize(
        "addr, width, error",
        [
            (2, 1, MisalignedAccess),
            (-4, 1, AccessViolation),
            (4 * TILE, 1, AccessViolation),
            (4 * (TILE - 2), 4, AccessViolation),
            ("walk", 1, AccessViolation),
        ],
    )
    def test_bad_constant_base_raises(self, mode, addr, width, error):
        """A constant base that is misaligned or out of bounds is not
        static: the load runs through ``_issue`` and faults.  ``walk``
        leaves the tile through a cursor that ``iadd`` advances from a
        constant (:meth:`_walk_out`)."""
        kernel = _tile_kernel(
            f"k_bad{addr}_{width}",
            self._walk_out if addr == "walk"
            else lambda b, tid: b.mov(b.reg("s0"), addr),
            width=width, loads=1,
        )
        dev = Device(fastpath=mode, cache=KernelCache(), heap_bytes=1 << 20)
        lk = compile_kernel(kernel)
        with pytest.raises(error):
            dev.launch(
                lk, grid=2, block=TILE, params={"dst": dev.malloc(4 * 128)}
            )


def _drift_kernel(name, active=None, clock=False):
    """Resident blocks of two warps drift out of phase, each block's
    warps in step.  Slot ``s = ctaid >> shift`` (the block's place on
    its SM) fetches global memory at a ``16s + 1``-word stride, which
    coalesces for slot 0 only, and meets at a barrier; a last, coalesced
    load, issued by every block within one memory latency, opens one
    replay window before any block's stretch.  The stretch is a rolled
    loop over the shared tile whose cursor ``iadd`` advances: per
    iteration, two static loads into one register, each feeding an
    accumulator step, so blocks a whole iteration apart read other words
    at one pc.  With ``active`` it runs inside ``if laneid < active``;
    with ``clock`` a CLOCK read joins it."""
    b = KernelBuilder(name, params=("dst", "shift"))
    tid, cta = b.sreg("tid"), b.sreg("ctaid")
    i = b.imad("i", cta, b.sreg("ntid"), tid)
    o = b.imad("o", i, 4, b.param("dst"))
    v = b.i2f(b.reg("v"), i)
    b.mad(v, v, 0.75, 1.0)
    b.st_shared(b.shl("sa", tid, 2), v)
    b.bar_sync()
    slot = b.shr(b.reg("slot"), cta, b.param("shift"))
    stride = b.imad("st", slot, 16, 1)
    a = b.imad("a", b.imul("j", i, stride), 4, b.param("dst"))
    y = b.add(b.reg("y"), b.ld_global(b.reg("g"), a), 1.0)
    b.bar_sync()
    b.add(y, y, b.ld_global(b.reg("z"), o))
    x = b.mov(b.reg("x"), -1.0)
    acc = b.mov(b.reg("acc"), 0.5)

    def body():
        s0 = b.mov(b.reg("s0"), 0)
        with b.loop(0, 6):
            for k in range(2):
                b.ld_shared(x, s0, offset=4 * k)
                b.mad(acc, acc, 0.5, x)
                if clock and not k:
                    b.add(y, y, b.clock(b.reg("c")))
            b.iadd(s0, s0, 16)

    if active is None:
        body()
    else:
        p = b.pred()
        b.setp("lt", p, b.sreg("laneid"), active)
        with b.if_(p):
            body()
    b.add(acc, acc, x)
    b.add(acc, acc, y)
    b.st_global(o, acc)
    return b.build(shared_words=TILE)


#: A 1-SM G80: grid 3 puts three blocks on it, slots 0-2 by ``ctaid``.
ONE_SM = replace(G8800GTX, num_sms=1)
#: A 2-SM G80: grid 6 puts three blocks on each SM, slots 0-2 by
#: ``ctaid >> 1``, so both SMs run as one gang.
DRIFT_GANG = replace(G8800GTX, num_sms=2)


class TestRangeRuns:
    """Rows of out-of-phase blocks fold into runs over row ranges: each
    range's rows at one pc (static loads also at one word) form a
    stacked step over just those rows, with the range's views, masks,
    scoreboard rows, issues and lanes.  Each case is bit-identical to
    the interpreter, profiled and not."""

    @pytest.mark.parametrize(
        "props, grid, shift, kw",
        [
            (ONE_SM, 3, 0, {}),
            (DRIFT_GANG, 6, 1, {}),
            (ONE_SM, 3, 0, {"active": 20}),
            (ONE_SM, 3, 0, {"clock": True}),
        ],
        ids=("one-sm", "gang", "active", "clock"),
    )
    def test_out_of_phase_blocks(self, props, grid, shift, kw):
        kernel = _drift_kernel(f"k_drift{grid}{''.join(kw)}", **kw)
        out_words = 33 * TILE * grid
        params = {"shift": shift}
        reset_vec_counters()
        plans = _replay_plans(
            kernel, grid, TILE, out_words, params=params, props=props
        )
        got = vec_counters()
        assert got["gang_members"] == (2 if props is DRIFT_GANG else 0)
        assert got["gang_splits"] == 0
        assert any(
            e[0] == 2
            and 2 <= e[1].rows[1] - e[1].rows[0] < len(meta[-1][3])
            for meta in plans
            for e in meta[0]
        ), "no run over a strict sub-range of two or more rows"
        _run_seam(kernel, grid, TILE, out_words, params=params, props=props)

    def test_concurrent_launches_build_shared_runs(self):
        """More threads than cores launch one lowered drift kernel at
        once, under a tiny switch interval: they share its memoized
        plans, whose runs each build their executable form on first
        execution, so every result must equal the interpreter's."""
        import sys
        import threading

        lk = compile_kernel(_drift_kernel("k_drift_threads"), cache=None)
        out_words = 33 * TILE * 3

        def launch(mode):
            dev = Device(
                props=ONE_SM, fastpath=mode, cache=KernelCache(),
                heap_bytes=1 << 20,
            )
            dst = dev.malloc(4 * out_words)
            result = dev.launch(
                lk, grid=3, block=TILE, params={"dst": dst, "shift": 0}
            )
            return (
                dev.memcpy_dtoh(dst, out_words).tobytes(),
                dev.gmem.words.tobytes(),
                result.cycles,
                result.stats.as_dict(),
            )

        want = launch(False)
        got: list = [None] * 6

        def work(k):
            got[k] = launch(True)

        threads = [
            threading.Thread(target=work, args=(k,)) for k in range(len(got))
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
        for have in got:
            _assert_identical(want, have)


# -- gangs -----------------------------------------------------------------
#
# A compiled launch runs the SMs holding the same number of blocks as one
# gang: one scheduler pass over member-interleaved arena rows, with every
# data-dependent outcome compared against the leader's.  Each case is
# bit-identical to the interpreter per SM (memory image, KernelStats
# including sm_cycles, end cycles), with two warps per block.

#: Block size of the gang cases: two warps, so v2 dispatches cross-warp.
GANG_BLOCK = 64

#: A 3-SM G80: grids 3, 6 and 5 give each SM one block, two blocks, or
#: uneven counts (2, 2, 1 — a gang of two and a lone SM).
GANG_PROPS = replace(G8800GTX, num_sms=3)


def _gang_observables(dev, result, out, out_words):
    return (
        dev.memcpy_dtoh(out, out_words).tobytes(),
        dev.gmem.words.tobytes(),
        result.cycles,
        result.stats.as_dict(),
        [s.as_dict() for s in result.sm_stats],
    )


def _assert_per_sm_identical(outs):
    """Two :func:`_gang_observables` tuples agree, per SM included."""
    _assert_identical(outs[0][:4], outs[1][:4])
    assert outs[1][4] == outs[0][4], "per-SM kernel stats differ"


def _gang_forces(kind, unroll, grid, mode, props=GANG_PROPS):
    """The paper's force kernel over one slice of ``GANG_BLOCK`` bodies
    (``nslices=1`` keeps the interpreter affordable at any grid)."""
    cfg = GpuConfig(layout_kind=kind, block_size=GANG_BLOCK, unroll=unroll)
    dev = Device(
        props=props, fastpath=mode, cache=KernelCache(), heap_bytes=1 << 22
    )
    backend = GpuForceBackend(cfg, device=dev)
    lk = backend.compile()
    n = grid * GANG_BLOCK
    layout = make_layout(kind, n)
    buf, out = dev.malloc(layout.size_bytes), dev.malloc(16 * n)
    dev.memcpy_htod(buf, uniform_cube(n, seed=7).pack(layout))
    params = _step_params(buf, layout, backend._plan, POSMASS_FIELDS)
    params.update(out=out, nslices=1, eps=cfg.eps)
    result = dev.launch(lk, grid=grid, block=GANG_BLOCK, params=params)
    return _gang_observables(dev, result, out, 4 * n)


def _gang_modes(
    kernel, grid, out_words, params=None, toolchain=Toolchain.CUDA_1_0,
    props=G8800GTX, per_sm=None, plans=None,
):
    """Launch ``kernel`` on ``props`` (default: the G80's 16 SMs) in both
    modes; assert the per-SM observables match, and the profiles when
    the profiler is on, walk the compiled run's replay plans
    (:func:`_walk_plans`) and return its vec counters.
    ``params(dev)`` adds launch values besides ``dst``; a ``per_sm``
    list receives the per-SM stats dicts, and a ``plans`` list the
    ``(key, plan)`` items the compiled run memoized."""
    outs = []
    profiles = []
    for mode in MODES:
        reset_vec_counters()
        dev = Device(
            props=props,
            toolchain=toolchain,
            fastpath=mode,
            cache=KernelCache(),
            heap_bytes=1 << 20,
        )
        dst = dev.malloc(4 * out_words)
        values = {"dst": dst, **(params(dev) if params else {})}
        lk = compile_kernel(kernel)
        result = dev.launch(lk, grid=grid, block=GANG_BLOCK, params=values)
        outs.append(_gang_observables(dev, result, dst, out_words))
        if result.profile is not None:
            profiles.append(result.profile.as_dict())
    _assert_per_sm_identical(outs)
    assert len(profiles) in (0, len(MODES))
    for prof in profiles[1:]:
        assert prof == profiles[0], "kernel profiles differ"
    _walk_plans(lk)
    if plans is not None:
        for program in lk.exec_plan.programs.values():
            plans.extend(program.vmeta.items())
    if per_sm is not None:
        per_sm.extend(outs[1][4])
    return vec_counters()


def _branch_kernel(cmp):
    """Block 2 alone goes the other way at a forward branch: under
    ``eq`` it runs the ``if`` body and the leader skips it, under ``ne``
    the other way round."""
    b = KernelBuilder(f"k_gang_branch_{cmp}", params=("dst",))
    tid, cta = b.sreg("tid"), b.sreg("ctaid")
    i = b.imad("i", cta, b.sreg("ntid"), tid)
    x = b.i2f(b.reg("x"), i)
    b.add(x, x, 1.0)
    p = b.pred()
    b.setp(cmp, p, cta, 2)
    with b.if_(p):
        b.mul(x, x, 3.0)
        b.add(x, x, 0.5)
    b.mul(x, x, 0.5)
    b.add(x, x, 2.0)
    b.st_global(b.imad("a", i, 4, b.param("dst")), x)
    return b.build()


def _misaligned_kernel():
    """Block 2 reads its source one word off alignment, so its load
    coalesces into other transactions: more of them under CUDA 1.0,
    which charges their replays to the issue; one larger one under
    CUDA 1.1, which changes only when the data arrives."""
    b = KernelBuilder("k_gang_misaligned", params=("dst", "src"))
    tid, cta = b.sreg("tid"), b.sreg("ctaid")
    i = b.imad("i", cta, b.sreg("ntid"), tid)
    p = b.pred()
    b.setp("eq", p, cta, 2)
    skew = b.selp(b.reg("skew"), 4, 0, p)
    a = b.iadd("sa", b.imad("s", i, 4, b.param("src")), skew)
    x = b.ld_global(b.reg("x"), a)
    y = b.add(b.reg("y"), x, 1.0)
    b.mul(y, y, 1.5)
    b.add(y, y, x)
    b.st_global(b.imad("a", i, 4, b.param("dst")), y)
    return b.build()


def _lanes_kernel():
    """Predicated steps whose active lanes depend on the block (``laneid
    < 4·ctaid + 3``), after warp 1's uncoalesced load staggers the
    warps, so they run in multi-row and one-row runs and the fused
    driver: every member counts its own lanes, and nothing splits."""
    b = KernelBuilder("k_gang_lanes", params=("dst",))
    tid, cta = b.sreg("tid"), b.sreg("ctaid")
    i = b.imad("i", cta, b.sreg("ntid"), tid)
    o = b.imad("o", i, 4, b.param("dst"))
    stride = b.imad("st", b.shr(b.reg("wid"), tid, 5), 16, 1)
    a = b.imad("a", b.imul("j", i, stride), 4, b.param("dst"))
    y = b.add(b.reg("y"), b.ld_global(b.reg("x"), a), 1.0)
    p = b.pred()
    lim = b.iadd("lim", b.imul("c4", cta, 4), 3)
    b.setp("lt", p, b.sreg("laneid"), lim)
    x = b.i2f(b.reg("v"), tid)
    for _ in range(3):
        b.emit(Instr(Op.ADD, dsts=(x,), srcs=(x, Imm(1.5)), pred=p))
        b.emit(Instr(
            Op.MUL, dsts=(x,), srcs=(x, Imm(0.5)), pred=p, pred_neg=True
        ))
    # Unpaired, so each SM's thread_instructions depends on its lanes.
    b.emit(Instr(Op.ADD, dsts=(x,), srcs=(x, Imm(0.25)), pred=p))
    b.add(y, y, x)
    b.st_global(o, y)
    return b.build()


def _conflict_stride_kernel():
    """Block 2 stores its shared row at a two-word stride, the others at
    one word: its store alone costs a two-way bank conflict, with the
    same lanes, transactions and scoreboard as the leader's."""
    b = KernelBuilder("k_gang_conflict", params=("dst",))
    tid, cta = b.sreg("tid"), b.sreg("ctaid")
    i = b.imad("i", cta, b.sreg("ntid"), tid)
    p = b.pred()
    b.setp("eq", p, cta, 2)
    stride = b.selp(b.reg("stride"), 8, 4, p)
    b.st_shared(b.imul("sa", tid, stride), b.i2f(b.reg("x"), i))
    b.bar_sync()
    y = b.ld_shared(b.reg("y"), b.shl("sb", tid, 2))
    b.add(y, y, 1.0)
    b.st_global(b.imad("a", i, 4, b.param("dst")), y)
    return b.build(shared_words=2 * GANG_BLOCK)


def _predicated_access_kernel():
    """Global and shared accesses predicated on ``laneid`` limits that
    depend on the block, their inactive lanes out of bounds or
    misaligned.  Loads keep ``3·ctaid + 2`` lanes, all in half-warp 0;
    stores ``5·ctaid − 3``, so block 0 has none.  Every member with an
    active lane issues one coalesced transaction per access and no bank
    conflict, and stores mark no register, so the gang holds while each
    SM counts its own lanes and memory traffic."""
    b = KernelBuilder("k_gang_predicated", params=("dst", "src"))
    tid, cta, lane = b.sreg("tid"), b.sreg("ctaid"), b.sreg("laneid")
    i = b.imad("i", cta, b.sreg("ntid"), tid)
    few, some = b.pred(), b.pred()
    b.setp("lt", few, lane, b.imad("lf", cta, 3, 2))
    b.setp("lt", some, lane, b.imad("ls", cta, 5, -3))
    ga = b.selp(b.reg("ga"), b.imad("g", i, 4, b.param("src")), 1 << 30, few)
    x = b.mov(b.reg("x"), -1.0)
    b.emit(Instr(Op.LD_GLOBAL, dsts=(x,), srcs=(ga,), pred=few))
    sa = b.selp(b.reg("sa"), b.shl("s", tid, 2), 1 << 20, some)
    b.emit(Instr(Op.ST_SHARED, srcs=(sa, x), pred=some))
    b.bar_sync()
    la = b.selp(b.reg("la"), b.shl("l", tid, 2), 2, few)
    y = b.mov(b.reg("y"), 0.5)
    b.emit(Instr(Op.LD_SHARED, dsts=(y,), srcs=(la,), pred=few))
    b.add(y, y, x)
    o = b.imad("o", i, 4, b.param("dst"))
    oa = b.selp(b.reg("oa"), o, 2, some)
    b.emit(Instr(Op.ST_GLOBAL, srcs=(oa, y), pred=some))
    b.st_global(o, y, offset=4 * 4 * GANG_BLOCK)
    return b.build(shared_words=GANG_BLOCK)


#: Words of the read-only source of the generated gang kernels.
_GEN_SRC_WORDS = 2048
#: Bytes one block's lanes of one generated global store may span.
_GEN_SLAB = 2304
#: Largest grid the generator launches.
_GEN_GRID = 6


def _gen_src(dev):
    src = dev.malloc(4 * _GEN_SRC_WORDS)
    dev.memcpy_htod(src, np.arange(_GEN_SRC_WORDS, dtype=np.float32))
    return {"src": src}


@st.composite
def _gang_memory_kernels(draw):
    """``(kernel, props, grid, toolchain, out_words)``: a straight-line
    kernel of block-dependent memory accesses, launched at a grid that
    forms a gang (two warps per block).

    It draws global loads and stores at ``%ctaid``-dependent offsets,
    misaligned on some blocks; shared stores and loads at
    ``%ctaid``-dependent strides on either side of ``bar.sync``; and
    predicates ``laneid < a·ctaid + c`` on any of them, whose inactive
    lanes point out of bounds or off alignment.  Each block stores into
    its own slab of every global store region, so the SMs' writes are
    disjoint, and every loaded register is stored at the end."""
    props, grid = draw(st.sampled_from(
        ((G8800GTX, 2), (G8800GTX, 4), (GANG_PROPS, 3), (GANG_PROPS, _GEN_GRID))
    ))
    toolchain = draw(st.sampled_from(list(Toolchain)))
    b = KernelBuilder("k_gang_mem", params=("dst", "src"))
    tid, cta, lane = b.sreg("tid"), b.sreg("ctaid"), b.sreg("laneid")
    i = b.imad("i", cta, b.sreg("ntid"), tid)
    codd = b.reg("codd")
    b.emit(Instr(Op.AND, dsts=(codd,), srcs=(cta, Imm(1))))
    odd = b.pred()
    b.setp("ne", odd, codd, 0)
    pool = [b.i2f(b.reg("v"), i)]
    regions = 0

    def guard(addr, k):
        """``(predicate, address)``: maybe a block-dependent lane limit,
        with the inactive lanes' address replaced by a faulting one."""
        if not draw(st.booleans()):
            return None, addr
        p = b.pred()
        lim = b.imad(
            f"lim{k}", cta, draw(st.sampled_from((0, 3, 7, 16))),
            draw(st.sampled_from((-4, 0, 5, 16, 32))),
        )
        b.setp("lt", p, lane, lim)
        bad = draw(st.sampled_from((1 << 28, 2)))
        return p, b.selp(b.reg(f"g{k}"), addr, bad, p)

    def loaded(p, width, k):
        dsts = tuple(b.reg(f"x{k}_{j}") for j in range(width))
        if p is not None:  # inactive lanes keep a defined value
            for d in dsts:
                b.mov(d, -1.0)
        pool.extend(dsts)
        return dsts

    def per_block(even, odd_value, name):
        return b.selp(b.reg(name), odd_value, even, odd)

    for k in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(("load", "store", "shared")))
        width = draw(st.sampled_from((1, 2, 4)))
        if kind == "load":
            # Element tid·stride + ctaid·K, one further on odd blocks.
            e = b.imad(
                f"e{k}", tid, draw(st.sampled_from((1, 2))),
                b.imul(f"c{k}", cta, draw(st.sampled_from((0, 1, 16, 17)))),
            )
            if draw(st.booleans()):
                b.iadd(e, e, codd)
            p, addr = guard(b.imad(f"a{k}", e, 4 * width, b.param("src")), k)
            dsts = loaded(p, width, k)
            b.emit(Instr(Op.LD_GLOBAL, dsts=dsts, srcs=(addr,), pred=p))
        elif kind == "store":
            e = b.imul(f"e{k}", tid, draw(st.sampled_from((1, 2))))
            if draw(st.booleans()):
                b.iadd(e, e, codd)
            slab = b.imad(f"o{k}", cta, _GEN_SLAB, regions * _GEN_GRID * _GEN_SLAB)
            regions += 1
            addr = b.iadd(f"a{k}", b.imad(f"b{k}", e, 4 * width, slab), b.param("dst"))
            p, addr = guard(addr, k)
            srcs = tuple(draw(st.sampled_from(pool)) for _ in range(width))
            b.emit(Instr(Op.ST_GLOBAL, srcs=(addr, *srcs), pred=p))
        else:
            width = min(width, 2)
            strides = (1, 2, 16, 17)
            stride = per_block(
                4 * draw(st.sampled_from(strides)),
                4 * draw(st.sampled_from(strides)), f"ss{k}",
            )
            p, addr = guard(b.imul(f"sa{k}", tid, stride), k)
            srcs = tuple(draw(st.sampled_from(pool)) for _ in range(width))
            b.emit(Instr(Op.ST_SHARED, srcs=(addr, *srcs), pred=p))
            b.bar_sync()
            t = tid
            if draw(st.booleans()):  # read the neighbour's words
                t = b.reg(f"t{k}")
                b.emit(Instr(Op.XOR, dsts=(t,), srcs=(tid, Imm(1))))
            stride = per_block(
                4 * draw(st.sampled_from(strides)),
                4 * draw(st.sampled_from(strides)), f"ls{k}",
            )
            p, addr = guard(b.imul(f"la{k}", t, stride), f"l{k}")
            dsts = loaded(p, width, f"l{k}")
            b.emit(Instr(Op.LD_SHARED, dsts=dsts, srcs=(addr,), pred=p))
    out = b.imad("out", i, 4, b.param("dst"))
    base = regions * _GEN_GRID * _GEN_SLAB
    column = 4 * _GEN_GRID * GANG_BLOCK
    for k, reg in enumerate(pool):
        b.st_global(out, reg, offset=base + k * column)
    out_words = (base + len(pool) * column) // 4
    kernel = b.build(shared_words=17 * GANG_BLOCK + 8)
    return kernel, props, grid, toolchain, out_words


class TestGangs:
    """Congruent SMs run as one gang: interpreter ≡ ganged v2 per SM,
    and a member whose data sends it another way leaves exactly."""

    @pytest.mark.parametrize("grid", (3, 6, 5))
    @pytest.mark.parametrize("unroll", (None, "full"))
    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_layouts_unrolls_and_grids(self, kind, unroll, grid):
        outs = []
        for mode in MODES:
            reset_vec_counters()
            outs.append(_gang_forces(kind, unroll, grid, mode))
        _assert_per_sm_identical(outs)
        # Grid 5 leaves SM 2 with one block: a gang of two and a lone SM.
        assert vec_counters()["gang_members"] == (2 if grid == 5 else 3)

    def test_uneven_grid_over_sixteen_sms(self):
        """Grid 35 over the G80's 16 SMs: SMs 0–2 hold three blocks and
        run as one gang, SMs 3–15 hold two and run as another."""
        outs = []
        for mode in MODES:
            reset_vec_counters()
            outs.append(_gang_forces("soaoas", "full", 35, mode, G8800GTX))
        _assert_per_sm_identical(outs)
        got = vec_counters()
        assert got["gang_members"] == 16 and got["gang_splits"] == 0

    @pytest.mark.parametrize("cmp", ("eq", "ne"))
    def test_branch_taken_on_one_sm_splits(self, cmp):
        """Block 2's member leaves at the branch the leader takes the
        other way, whichever of them the replay's assumption holds for."""
        got = _gang_modes(_branch_kernel(cmp), grid=4, out_words=256)
        assert got["gang_members"] == 4 and got["gang_splits"] == 1

    def test_trip_counts_split_every_member(self):
        """Per-block trip counts: the leader leaves its loop first, so
        every follower leaves at that back-edge and finishes alone."""
        b = KernelBuilder("k_gang_trips", params=("dst",))
        tid, cta = b.sreg("tid"), b.sreg("ctaid")
        i = b.imad("i", cta, b.sreg("ntid"), tid)
        trips = b.iadd("trips", b.imul("t3", cta, 3), 2)
        acc = b.mov(b.reg("acc"), 1.0)
        with b.loop(0, trips):
            b.add(acc, acc, 1.0)
            b.mul(acc, acc, 0.5)
        b.st_global(b.imad("a", i, 4, b.param("dst")), acc)
        got = _gang_modes(b.build(), grid=4, out_words=256)
        assert got["gang_members"] == 4 and got["gang_splits"] == 3

    @pytest.mark.parametrize(
        "toolchain", (Toolchain.CUDA_1_0, Toolchain.CUDA_1_1)
    )
    def test_misaligned_load_splits_its_member(self, toolchain):
        """One block's global load coalesces differently: that member
        leaves at the load, by its issue cost (CUDA 1.0) or by the ready
        time of its destination alone (CUDA 1.1)."""
        got = _gang_modes(
            _misaligned_kernel(), grid=4, out_words=256,
            params=lambda dev: {"src": dev.malloc(4 * 260)},
            toolchain=toolchain,
        )
        assert got["gang_members"] == 4 and got["gang_splits"] == 1

    @pytest.mark.parametrize(
        "props, grid", ((G8800GTX, 4), (GANG_PROPS, 3)),
        ids=("g80-grid4", "3sm-grid3"),
    )
    def test_predicated_lanes_per_member(self, props, grid):
        """Lane counts of predicated steps differ per member while the
        schedule does not: the gang holds, and each SM's
        ``thread_instructions`` is its own (pinned per SM above)."""
        got = _gang_modes(
            _lanes_kernel(), grid=grid, out_words=17 * GANG_BLOCK * grid,
            props=props,
        )
        assert got["gang_members"] == grid and got["gang_splits"] == 0
        assert got["row_events"] > 0 and got["fallbacks"] > 0

    def test_bank_conflict_alone_splits_its_member(self):
        """Block 2's shared store differs from the leader's only in its
        bank-conflict degree: that member leaves at the store."""
        got = _gang_modes(_conflict_stride_kernel(), grid=4, out_words=256)
        assert got["gang_members"] == 4 and got["gang_splits"] == 1
        assert got["gang_stacked"] > 0

    def test_predicated_accesses_hold_the_gang(self):
        """Predicated global and shared accesses whose lane masks differ
        per member, one member with no lane at all: the gang holds, and
        each SM's lane counts and memory traffic are its own (pinned per
        SM against the interpreter)."""
        per_sm = []
        got = _gang_modes(
            _predicated_access_kernel(), grid=4, out_words=8 * GANG_BLOCK,
            params=lambda dev: {"src": dev.malloc(4 * 4 * GANG_BLOCK)},
            per_sm=per_sm,
        )
        assert got["gang_members"] == 4 and got["gang_splits"] == 0
        assert got["gang_stacked"] > 0
        busy = [s for s in per_sm if s["blocks_executed"]]
        assert len({s["thread_instructions"] for s in busy}) == 4
        assert len({s["memory"]["requests"] for s in busy}) == 2

    def test_generated_memory_kernels(self):
        """Generated kernels of block-dependent global and shared
        accesses agree per SM with the interpreter, ganged; across the
        derandomized draws some members leave and stacked requests serve
        the rest."""
        reached = dict.fromkeys(("gang_splits", "gang_stacked"), 0)

        @settings(
            max_examples=120,
            derandomize=True,
            deadline=None,
            database=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(case=_gang_memory_kernels())
        def agree(case):
            kernel, props, grid, toolchain, out_words = case
            got = _gang_modes(
                kernel, grid, out_words, params=_gen_src,
                toolchain=toolchain, props=props,
            )
            assert got["gang_members"] == (grid if props is G8800GTX else 3)
            for name in reached:
                reached[name] += got[name]

        agree()
        assert all(reached.values()), reached

    def test_gang_counters_flush_to_telemetry(self):
        """``gang_members``, ``gang_splits`` and ``gang_stacked`` reach
        the registry like every other dispatch counter."""
        telemetry.enable()
        got = _gang_modes(_branch_kernel("eq"), grid=4, out_words=256)
        snap = telemetry.snapshot()
        for name in ("gang_members", "gang_splits", "gang_stacked"):
            series = snap[f"cudasim.fastpath.vec.{name}"]["series"]
            assert sum(s["value"] for s in series) == got[name] > 0

    def test_bh_traversal(self):
        """Data-dependent traversal loops: the gang splits early."""
        outs = []
        for mode in MODES:
            reset_vec_counters()
            dev = Device(fastpath=mode, cache=KernelCache())
            forces, result = bh_forces_gpu(
                uniform_sphere(128, seed=11), block_size=GANG_BLOCK,
                device=dev,
            )
            outs.append(
                (
                    forces.tobytes(),
                    dev.gmem.words.tobytes(),
                    result.cycles,
                    result.stats.as_dict(),
                    [s.as_dict() for s in result.sm_stats],
                )
            )
        _assert_per_sm_identical(outs)
        got = vec_counters()
        assert got["gang_members"] == 2 and got["gang_splits"] > 0


def _bank_conflict_kernel():
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
    return b.build(shared_words=64 * 32)


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
    def test_one_program_per_kernel(self, monkeypatch):
        """A program depends on the kernel and the device timing only:
        launches on both toolchains and on two members of a device group
        share one, compiled once, and the second member's launch of the
        same geometry finds every replay plan already built."""
        import repro.cudasim.fastpath as fastpath_mod

        builds = []

        def counted(*args):
            builds.append(args)
            return compile_fastpath(*args)

        monkeypatch.setattr(fastpath_mod, "compile_fastpath", counted)
        kernel = _rebind_kernel()
        lk = compile_kernel(kernel, cache=None)
        group = DeviceGroup(2, cache=None, heap_bytes=1 << 20, fastpath=True)
        devices = [
            Device(
                toolchain=toolchain, cache=None, heap_bytes=1 << 20,
                fastpath=True,
            )
            for toolchain in (Toolchain.CUDA_1_0, Toolchain.CUDA_2_2)
        ] + list(group)
        plans = []
        for dev in devices:
            reference = Device(
                toolchain=dev.toolchain, fastpath=False, cache=None,
                heap_bytes=1 << 20,
            )
            _assert_identical(
                _rebind_on(reference, compile_kernel(kernel, cache=None)),
                _rebind_on(dev, lk),
            )
            (program,) = lk.exec_plan.programs.values()
            plans.append(len(program.vmeta))
        assert len(builds) == 1
        assert list(lk.exec_plan.programs) == [G8800GTX]
        assert plans[2] > 0
        assert plans[3] == plans[2]

    def test_codegen_templates_deduplicate(self):
        """Unrolled kernels repeat instruction shapes: every fusible pc
        gets a bind-table row, the rows share one template per shape,
        and the module holds templates only — its size does not grow
        with the unroll factor."""
        lk, _ = _lowered(unroll=16)
        fused = [
            pc for pc, i in enumerate(lk.instructions) if i.op in FUSIBLE_OPS
        ]
        source, table, _ = generate_program(lk)
        assert [pc for pc, _, _ in table] == fused
        templates = {index for _, index, _ in table}
        assert len(templates) == source.count("def _V")
        assert len(templates) < len(table) / 2
        sizes = [
            len(generate_program(_lowered(unroll)[0])[0].splitlines())
            for unroll in (2, 16, "full")
        ]
        assert sizes == sorted(sizes, reverse=True), sizes

    def test_env_switch(self, monkeypatch):
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        assert fastpath_enabled() is True
        monkeypatch.setenv(FASTPATH_ENV, "0")
        assert fastpath_enabled() is False
        assert fastpath_enabled(True) is True
        assert Device(cache=KernelCache()).fastpath is False
        assert Device(cache=KernelCache(), fastpath=True).fastpath is True

    def test_env_three_state(self, monkeypatch):
        """Unset means on, ``0`` off and ``1`` on; the integer mode
        ``2`` is gone and rejected like any other unknown spelling."""
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        assert fastpath_enabled() is True
        monkeypatch.setenv(FASTPATH_ENV, "0")
        assert fastpath_enabled() is False
        monkeypatch.setenv(FASTPATH_ENV, "1")
        assert fastpath_enabled() is True
        monkeypatch.setenv(FASTPATH_ENV, "2")
        with pytest.raises(ValueError, match=FASTPATH_ENV):
            fastpath_enabled()

    def test_mode_override_beats_env(self, monkeypatch):
        """An explicit boolean wins over the environment, even over a
        value the environment would reject; an integer is no switch."""
        for env in ("0", "1", "2"):
            monkeypatch.setenv(FASTPATH_ENV, env)
            assert fastpath_enabled(False) is False
            assert fastpath_enabled(True) is True
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        for value in (0, 1, 2, -1, np.True_, "on"):
            with pytest.raises(TypeError):
                fastpath_enabled(value)

    def test_device_exposes_resolved_mode(self, monkeypatch):
        """Every layer that takes ``fastpath=`` takes a bool or None and
        raises :class:`TypeError` on an int before running anything."""
        from repro.cudasim.executor import run_sms
        from repro.gravit import ShardedGpuSimulation, SimulationConfig

        monkeypatch.setenv(FASTPATH_ENV, "0")
        assert Device(cache=KernelCache()).fastpath is False
        for mode in MODES:
            assert Device(cache=KernelCache(), fastpath=mode).fastpath is mode
            group = DeviceGroup(2, cache=KernelCache(), fastpath=mode)
            assert [dev.fastpath for dev in group] == [mode, mode]
        system = uniform_cube(8, seed=1)
        for bad in (0, 2):
            with pytest.raises(TypeError):
                Device(cache=KernelCache(), fastpath=bad)
            with pytest.raises(TypeError):
                DeviceGroup(2, cache=KernelCache(), fastpath=bad)
            with pytest.raises(TypeError):
                SimulationConfig(fastpath=bad)
            with pytest.raises(TypeError):
                ShardedGpuSimulation(system, fastpath=bad)
            with pytest.raises(TypeError):
                run_sms(
                    G8800GTX, None, None, None, {}, 32, 1, [], 1,
                    fastpath=bad,
                )

    @pytest.mark.parametrize("value", ("off", "false", "no", "OFF", "False"))
    def test_env_false_spellings_disable(self, monkeypatch, value):
        """The regression: ``REPRO_EXEC_FASTPATH=off`` used to silently
        *enable* the fast path (the old ``!= \"0\"`` parse)."""
        monkeypatch.setenv(FASTPATH_ENV, value)
        assert fastpath_enabled() is False

    @pytest.mark.parametrize("value", ("true", "yes", "on", "TRUE"))
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
    return _rebind_on(dev, lk, grid, block, scale, bias)


def _rebind_on(dev, lk, grid=3, block=64, scale=2.0, bias=1.0):
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


class TestKernelPlan:
    """A lowered kernel's executor state is built by its first SM run and
    reused by every later one, on any SM, launch or thread."""

    #: (grid, block, scale, bias) of successive launches of one kernel.
    LAUNCHES = ((3, 64, 2.0, 1.0), (5, 32, -0.5, 7.0), (2, 96, 3.0, -2.0))

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_reused_plan_rebinds_launch_values(self, mode):
        kernel = _rebind_kernel()
        shared = compile_kernel(kernel, cache=None)
        for launch in self.LAUNCHES:
            reference = _rebind_launch(
                compile_kernel(kernel, cache=None), False, *launch
            )
            _assert_identical(reference, _rebind_launch(shared, mode, *launch))
        assert shared.exec_plan is not None

    def test_state_built_once(self, monkeypatch):
        """Steps are built once per program, with the program: not per
        SM run, and not per SM running at once.  A warm-up launch builds
        the plan, then threads launch the kernel at once with different
        launch values under a tiny switch interval; every result equals
        its interpreter reference."""
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
            fastpath_mod, "_build_steps",
            counted("steps", fastpath_mod._build_steps),
        )
        kernel = _rebind_kernel()
        lk = compile_kernel(kernel, cache=None)
        for _ in range(3):
            _rebind_launch(lk, True, 8, 64, 1.0, 0.0)  # 8 SM runs each
        assert calls == {"prepare": 1, "program": 1, "steps": 1}
        (program,) = lk.exec_plan.programs.values()
        self._assert_concurrent_launches(kernel, lk)
        assert calls["program"] == calls["steps"] == 1
        assert list(lk.exec_plan.programs) == [G8800GTX]
        assert lk.exec_plan.programs[G8800GTX] is program

    def test_plan_is_not_pickled(self):
        """The kernel cache's disk layer pickles kernels; the plan holds
        exec-built code and stays behind."""
        import pickle

        lk = compile_kernel(_rebind_kernel(), cache=None)
        _rebind_launch(lk, True, 2, 32, 1.0, 0.0)
        assert lk.exec_plan is not None
        clone = pickle.loads(pickle.dumps(lk))
        assert clone.exec_plan is None
        assert clone.instructions == lk.instructions

    def test_concurrent_launches_share_plan_safely(self):
        """More threads than cores launch one kernel with different
        launch values at once, under a tiny switch interval: a shared
        step family would mix their parameters or lose counter updates,
        so every result must still equal its interpreter reference."""
        kernel = _rebind_kernel()
        self._assert_concurrent_launches(
            kernel, compile_kernel(kernel, cache=None)
        )

    def _assert_concurrent_launches(self, kernel, lk) -> None:
        """Launch ``lk`` (lowered from ``kernel``) from one thread per
        case of :attr:`LAUNCHES` (twice over) at once, under a tiny
        switch interval; each result must equal the interpreter's."""
        import sys
        import threading

        cases = self.LAUNCHES * 2
        expected = [
            _rebind_launch(compile_kernel(kernel, cache=None), False, *case)
            for case in cases
        ]
        got: list = [None] * len(cases)

        def work(k):
            got[k] = _rebind_launch(lk, True, *cases[k])

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

    def test_concurrent_compiles_keep_programs_apart(self):
        """Two threads compile and launch *different* kernels at once:
        each program's bind tables must stay with that program, so every
        result still equals its interpreter reference."""
        import sys
        import threading

        kernels = [
            [_scaled_kernel(c, bias) for c in (0.5, 1.5, 2.5, 3.5)]
            for bias in (1.0, -2.0)
        ]
        expected = [
            [
                _rebind_launch(
                    compile_kernel(k, cache=None), False, 2, 64, 1.5, 0.25
                )
                for k in row
            ]
            for row in kernels
        ]
        got: list = [[], []]
        start = threading.Barrier(2)

        def work(t):
            start.wait()
            for k in kernels[t]:
                lk = compile_kernel(k, cache=None)
                got[t].append(_rebind_launch(lk, True, 2, 64, 1.5, 0.25))

        threads = [threading.Thread(target=work, args=(t,)) for t in (0, 1)]
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
        for want_row, got_row in zip(expected, got):
            assert len(got_row) == len(want_row)
            for want, have in zip(want_row, got_row):
                _assert_identical(want, have)


def _scaled_kernel(c: float, bias: float):
    """A fused chain whose immediates (and so its program) depend on
    ``c`` and ``bias``; the launch interface matches ``_rebind_kernel``."""
    b = KernelBuilder(f"k_scaled_{c}_{bias}", params=("dst", "scale", "bias"))
    tid = b.sreg("tid")
    i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), tid)
    x = b.i2f(b.reg("x"), i)
    b.mad(x, x, c, b.param("scale"))
    b.add(x, x, bias)
    b.mul(x, x, b.param("bias"))
    b.st_global(b.imad("a", i, 4, b.param("dst")), x)
    return b.build()


# -- generated kernels -------------------------------------------------------
#
# Chains of fusible ops and shared loads drawn over the kernel builder:
# immediates, launch parameters and thread ids as operands, destinations
# aliasing a source, integers past float32's exact range fed into float
# ops, predicated ops, CLOCK reads, and an optional predicated exit that
# leaves every warp partially active.  Every lane first fills its four
# words of a shared tile; the chain's scalar and ``.v4`` loads then read
# it at constant bases (static loads, also kept across later ops or
# clobbered by a predicated ``mov``) and at register bases masked into
# range (validated loads, bank conflicts included).

_FLOAT_BIN = (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MIN, Op.MAX)
_FLOAT_UN = (Op.RSQRT, Op.SQRT, Op.NEG, Op.ABS, Op.F2I, Op.I2F, Op.MOV)
_INT_BIN = (Op.IADD, Op.ISUB, Op.IMUL, Op.AND, Op.OR, Op.XOR)
_CMPS = ("lt", "le", "gt", "ge", "eq", "ne")

_imms = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, width=32),
    st.integers(-(2**31), 2**31 - 1),
    st.integers(2**24 + 1, 2**30),
)

#: Largest word index a masked register base reaches (``and`` mask).
_MASKED_HI = 127
#: Registers a generated chain defines at most (each is stored with two
#: probes, all live at once).
_POOL_MAX = 18


@st.composite
def _fusible_chains(draw):
    """``(kernel, grid, block, outputs)`` for one generated kernel: a
    shared-tile fill and barrier, then a straight-line chain of fusible
    ops and shared loads whose registers are all stored."""
    block = 32 * draw(st.integers(2, 4))
    words = 4 * block
    b = KernelBuilder("k_fuzz", params=("dst", "pf", "pi"))
    tid = b.sreg("tid")
    i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), tid)
    pool = [
        b.i2f(b.reg("r0"), tid),
        b.mov(b.reg("r1"), b.param("pf")),
        b.iadd(b.reg("r2"), tid, b.param("pi")),  # past 2**24
        b.mul(b.reg("r3"), b.i2f(b.reg("r4"), tid), draw(_imms)),
    ]
    # Each lane fills its four words of the tile, different per block.
    b.st_shared(b.shl("fa", tid, 4), (b.i2f(b.reg("fi"), i), *pool[1:]))
    # The loads' base, set before the barrier: a load that keeps it is
    # not static (its constant was written outside the window).  ``hi``
    # bounds its word index in every lane (None: a load must set it).
    sb = b.mov(b.reg("sb"), 0)
    pool.append(sb)
    hi = 0
    b.bar_sync()
    # A lane-dependent predicate, so predicated ops see partial masks.
    p = b.pred()
    b.setp("lt", p, b.sreg("laneid"), draw(st.integers(1, 31)))
    preds = [p]
    if draw(st.booleans()):
        q = b.pred()
        b.setp("ge", q, b.sreg("laneid"), draw(st.integers(1, 31)))
        b.exit(pred=q)
    if draw(st.booleans()):
        # Odd warps run a few more ops, so the chain's windows start
        # staggered and their validated events split rows' segments.
        lag = b.mov(b.reg("lag"), 1.0)
        wodd = b.reg("wodd")
        b.emit(Instr(
            Op.AND, dsts=(wodd,), srcs=(b.shr("wid", tid, 5), Imm(1))
        ))
        odd = b.pred()
        b.setp("ne", odd, wodd, 0)
        with b.if_(odd):
            for _ in range(draw(st.integers(4, 8))):
                b.mul(lag, lag, 1.5)
        pool.append(lag)
    register = st.integers(0, 10**6).map(lambda k: pool[k % len(pool)])
    operand = st.one_of(
        register, register, register, _imms, st.just(b.param("pf")),
        st.just(tid),
    )
    for step in range(draw(st.integers(2, 14))):
        op = draw(st.sampled_from(
            _FLOAT_BIN + _FLOAT_UN + _INT_BIN
            + (Op.MAD, Op.IMAD, Op.SHL, Op.SETP, Op.SELP, Op.CLOCK)
            + (Op.LD_SHARED,) * 4
        ))
        guard = draw(st.sampled_from(preds)) if draw(st.booleans()) else None
        # A predicated write only updates some lanes, so its destination
        # must already be defined.  Past _POOL_MAX registers every write
        # aliases one, so the stores' live ranges fit a 128-thread block.
        alias = (
            guard is not None or draw(st.booleans())
            or len(pool) >= _POOL_MAX
        )
        dst = draw(register) if alias else b.reg(f"v{step}")
        if op is Op.LD_SHARED:
            base = draw(st.sampled_from(
                ("const", "const", "pred", "masked", "keep")
            ))
            if hi is None and base != "masked":
                base = "const"
            if base in ("const", "pred"):
                c0 = draw(st.integers(0, words - 4))
                b.emit(Instr(
                    Op.MOV, dsts=(sb,), srcs=(Imm(4 * c0),),
                    pred=guard if base == "pred" else None,
                    pred_neg=(
                        base == "pred" and guard is not None
                        and draw(st.booleans())
                    ),
                ))
                hi = c0 if base == "const" or guard is None else max(hi, c0)
            elif base == "masked":
                # Word stride 1, 4 or 16: the last puts every lane of a
                # half-warp in one bank, so the load conflicts and aborts.
                shift = draw(st.sampled_from((0, 2, 4)))
                b.emit(Instr(
                    Op.AND, dsts=(sb,),
                    srcs=(draw(register), Imm(_MASKED_HI >> shift)),
                ))
                b.shl(sb, sb, 2 + shift)
                hi = _MASKED_HI >> shift << shift
            width = draw(st.sampled_from((1, 4)))
            if width == 1:
                dsts = (dst,)
            elif alias or len(pool) + width > _POOL_MAX:
                alias = True
                dsts = tuple(draw(st.lists(
                    register, min_size=width, max_size=width, unique=True
                )))
            else:
                dsts = tuple(b.reg(f"v{step}_{j}") for j in range(width))
            b.ld_shared(
                dsts, sb, offset=4 * draw(st.integers(0, words - width - hi))
            )
            if sb in dsts:
                hi = None
            if not alias:
                pool.extend(dsts)
            continue
        if op is Op.SETP:
            p = b.pred()
            b.setp(draw(st.sampled_from(_CMPS)), p,
                   draw(operand), draw(operand))
            preds.append(p)
            continue
        if dst == sb:
            hi = None
        if op is Op.SELP:
            srcs = (draw(operand), draw(operand),
                    draw(st.sampled_from(preds)))
        elif op is Op.SHL:
            srcs = (draw(operand), draw(st.integers(0, 8)))
        elif op is Op.CLOCK:
            srcs = ()
        elif op in (Op.MAD, Op.IMAD):
            srcs = tuple(draw(operand) for _ in range(3))
        elif op in _FLOAT_UN:
            srcs = (draw(operand),)
        else:
            srcs = (draw(operand), draw(operand))
        b.emit(Instr(
            op, dsts=(dst,), srcs=tuple(b._coerce(s) for s in srcs),
            pred=guard, pred_neg=guard is not None and draw(st.booleans()),
        ))
        if not alias:
            pool.append(dst)
    # Memory holds float32 words, which would hide a register's low
    # bits; store two exact probes of each register besides its value:
    # its low integer bits and whether it is float32-representable.
    outs = []
    for k, reg in enumerate(pool):
        rounded = b.add(b.reg(f"f{k}"), reg, 0.0)
        same = b.pred()
        b.setp("eq", same, reg, rounded)
        low = b.reg(f"lo{k}")
        b.emit(Instr(Op.AND, dsts=(low,), srcs=(reg, Imm(255))))
        outs += [reg, low, b.selp(b.reg(f"ex{k}"), 1.0, 0.0, same)]
    addr = b.imad("a", i, 4, b.param("dst"))
    for k, reg in enumerate(outs):
        b.st_global(addr, reg, offset=4 * k * 3 * 128)
    grid = draw(st.integers(1, 3))
    return b.build(shared_words=words), grid, block, len(outs)


class TestGeneratedKernels:
    """interpreter ≡ fast path on generated fusible chains, plus the
    shrunk counterexamples the strategy found."""

    @pytest.mark.parametrize(
        "op, srcs",
        [
            (Op.DIV, (1.0, 0.0)),
            (Op.RSQRT, (0.0,)),
            (Op.RSQRT, (-4.0,)),
            (Op.SQRT, (-1.0,)),
        ],
    )
    def test_unfoldable_constants_run_on_device(self, op, srcs):
        """Constant folding used to raise on immediates the host cannot
        evaluate (ZeroDivisionError, math domain error), failing the
        compile; the device computes inf/NaN instead."""
        b = KernelBuilder("k_unfoldable", params=("dst",))
        i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), b.sreg("tid"))
        x = b.reg("x")
        b.emit(Instr(op, dsts=(x,), srcs=tuple(Imm(v) for v in srcs)))
        b.st_global(b.imad("a", i, 4, b.param("dst")), x)
        outs = _run_kernel_modes(b.build(), grid=1, block=64, out_words=64)
        assert not np.isfinite(np.frombuffer(outs[0][0], np.float32)).any()

    @settings(
        max_examples=80,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @pytest.mark.parametrize("profiled", (False, True))
    @given(case=_fusible_chains(), pf=_imms)
    def test_fusible_chains_bit_identical(self, profiled, case, pf):
        """Profiled runs take the same replay scheduler as unprofiled
        ones, and their profiles must match the interpreter's too."""
        if profiled:
            profiler.enable()
        kernel, grid, block, outputs = case
        _run_kernel_modes(
            kernel, grid=grid, block=block,
            out_words=outputs * 3 * 128,
            params={"pf": pf, "pi": 2**24 + 3},
        )


class TestReplayPlans:
    """Every memoized replay plan holds only run events and validated
    loads and branches, and passes the reference prefix walk of
    :func:`_walk_plans`: the state each validated event carries for an
    abort, and the plan's end state, are what walking the plan gives.
    :func:`_run_kernel_modes` and :func:`_replay_plans` walk the plans
    of every kernel they launch (the seams, the stagger and drift
    kernels, the generated chains), and the Barnes-Hut profile test
    walks the divergent tree walk's."""

    @pytest.mark.parametrize("unroll", (None, "full"))
    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_paper_kernel_calibration(self, kind, unroll):
        """The force kernel of every layout, rolled and fully unrolled,
        in a one-SM calibration: six resident blocks, loop back-edges,
        out-of-phase blocks on the uncoalesced layouts."""
        backend = GpuForceBackend(
            GpuConfig(layout_kind=kind, block_size=2 * BLOCK, unroll=unroll),
            device=Device(fastpath=True, cache=KernelCache()),
        )
        backend.calibrate((1, 2))
        assert _walk_plans(backend.compile())


# -- counted loops ---------------------------------------------------------
#
# The replay decides a counted loop's branches when the loop counter is a
# known constant: set by a ``mov`` in the window or read at dispatch entry
# (an *entry constant*), then advanced by ``iadd``.  Generated loops and
# the named cases below pin interpreter ≡ compiled path per SM, profiled
# or not, and walk every replay plan.


def _loop_bound(start, trips, step, cmp):
    """The bound a do-while loop's ``setp.<cmp> p, j, bound`` needs to
    run ``trips`` times from ``j = start`` in steps of ``step``."""
    if cmp in ("le", "ge"):
        return start + (trips - 1) * step
    return start + trips * step


def _emit_loop(b, head, body, j, step, cond):
    """A do-while loop at label ``head``: ``body()``, ``iadd j, j, step``,
    then ``cond(p)`` sets the predicate ``p`` that branches back."""
    b.emit(Instr(Op.LABEL, target=head))
    body()
    b.iadd(j, j, step)
    p = b.pred()
    cond(p)
    b.emit(Instr(Op.BRA, target=head, pred=p))


def _loop_prologue(name, params=("dst", "src")):
    """Builder, ``%i`` and accumulator of a counted-loop kernel whose
    ``GANG_BLOCK`` threads first fill a four-word-per-thread shared tile
    and meet at a barrier."""
    b = KernelBuilder(name, params=params)
    tid = b.sreg("tid")
    i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), tid)
    v = b.i2f(b.reg("v"), i)
    w = b.mad(b.reg("w"), v, 0.25, 3.0)
    b.st_shared(b.shl("sa", tid, 4), (v, w, w, v))
    b.bar_sync()
    return b, i, b.mov(b.reg("acc"), 0.5)


def _loop_epilogue(b, i, acc):
    b.st_global(b.imad("o", i, 4, b.param("dst")), acc)
    return b.build(shared_words=4 * GANG_BLOCK)


@st.composite
def _counted_loop_kernels(draw):
    """``(kernel, props, grid, n)``: one counted loop, or two nested,
    launched at a grid that forms a gang (two warps per block).

    Each loop draws an immediate trip count (1 to 200 alone, at most 50
    nested inside another), an ``lt``/``le``/``gt``/``ge``/``ne``
    condition with a positive or negative step, and maybe a shared-load
    cursor that ``iadd`` walks up or down the tile.  A ``bar.sync`` or
    a global load may separate the counter's and cursor's ``mov`` from
    the loop, so windows enter it mid-way; the outer loop may instead
    be bounded by the kernel parameter ``n``.  A ``%tid``-dependent
    branch may put the loops under a partial mask (no barrier there)."""
    props, grid = draw(st.sampled_from(
        ((G8800GTX, 2), (G8800GTX, 4), (GANG_PROPS, 3), (GANG_PROPS, 6))
    ))
    b, i, acc = _loop_prologue("k_counted", ("dst", "src", "n"))
    nest = draw(st.sampled_from((1, 2)))
    guard = draw(st.sampled_from((None, 20, 40)))
    n = 0

    def loop(d):
        nonlocal n
        inner = d + 1 == nest
        trips = draw(st.integers(1, 200 if nest == 1 else 50 if inner else 4))
        cmp = draw(st.sampled_from(("lt", "le", "gt", "ge", "ne")))
        step = draw(st.sampled_from((1, 2, 3)))
        if cmp in ("gt", "ge") or (cmp == "ne" and draw(st.booleans())):
            step = -step
        start = draw(st.integers(-8, 8))
        bound = _loop_bound(start, trips, step, cmp)
        if not inner and draw(st.booleans()):
            n, bound = bound, b.param("n")
        j = b.mov(b.reg(f"j{d}"), start)
        cursor = None
        if draw(st.booleans()):
            words = 1 if trips > 128 else draw(st.sampled_from((1, 2)))
            up = draw(st.booleans())
            cursor = b.mov(b.reg(f"c{d}"), 0 if up else 4 * words * (trips - 1))
            width = draw(st.sampled_from((1, 2)))
            advance = 4 * words if up else -4 * words
        sep = draw(st.sampled_from(
            (None, "global") if guard else (None, "bar", "global")
        ))
        late = None
        if sep == "bar":
            b.bar_sync()
        elif sep == "global":
            stride = draw(st.sampled_from((1, 5)))
            late = b.ld_global(
                b.reg(f"g{d}"), b.imad(f"ga{d}", i, 4 * stride, b.param("src"))
            )

        def body():
            if cursor is not None:
                xs = tuple(b.reg(f"x{d}_{k}") for k in range(width))
                b.ld_shared(xs if width > 1 else xs[0], cursor)
                for x in xs:
                    b.add(acc, acc, x)
                b.iadd(cursor, cursor, advance)
            b.mad(acc, acc, 0.5, b.i2f(b.reg(f"t{d}"), j))
            if not inner:
                loop(d + 1)

        _emit_loop(
            b, f"head{d}", body, j, step, lambda p: b.setp(cmp, p, j, bound)
        )
        if late is not None:
            b.add(acc, acc, late)

    if guard is None:
        loop(0)
    else:
        q = b.pred()
        b.setp("lt", q, b.sreg("tid"), guard)
        with b.if_(q):
            loop(0)
    return _loop_epilogue(b, i, acc), props, grid, n


def _back_edges(lk):
    """The pcs of ``lk``'s backward branches."""
    return {
        pc for pc, ins in enumerate(lk.instructions)
        if ins.op is Op.BRA and lk.targets[ins.target] <= pc
    }


def _branch_kinds(plans, pcs):
    """``(static, validated)``: whether some plan runs a branch of
    ``pcs`` as a static step of a run, and whether some plan validates
    one."""
    static = validated = False
    for _, meta in plans:
        for e in meta[0] if meta is not None else ():
            if e[0] == 2:
                static |= any(
                    isinstance(arg, int) and q in pcs
                    for arg, q in zip(e[1].args, e[1].pcs)
                )
            elif e[0] == 3:
                validated |= e[2] in pcs
    return static, validated


class TestCountedLoops:
    """Counted-loop branches are static when their counter is a known
    constant, at the loop's real trip count; every other branch stays
    validated."""

    def test_generated_counted_loops(self):
        """Generated counted loops agree per SM with the interpreter,
        ganged or profiled; across the derandomized draws the replay
        decides static branches, reads entry constants, and still
        aborts validated branches."""
        reached = dict.fromkeys(
            ("static_branches", "entry_constants", "abort_branch"), 0
        )

        @settings(
            max_examples=25,
            derandomize=True,
            deadline=None,
            database=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(case=_counted_loop_kernels(), profiled=st.booleans())
        def agree(case, profiled):
            kernel, props, grid, n = case
            if profiled:
                profiler.enable()
            plans = []
            try:
                got = _gang_modes(
                    kernel, grid, grid * GANG_BLOCK, props=props,
                    params=lambda dev: {**_gen_src(dev), "n": n},
                    plans=plans,
                )
            finally:
                profiler.disable()
            reached["abort_branch"] += got["abort_branch"]
            lk = compile_kernel(kernel)
            static, _ = _branch_kinds(plans, set(range(len(lk.instructions))))
            reached["static_branches"] += static
            reached["entry_constants"] += sum(
                key[3] is not None for key, meta in plans if meta is not None
            )

        agree()
        assert all(reached.values()), reached

    @staticmethod
    def _loop_kernel(variant):
        """A 40-trip loop after a barrier.  Under ``plain`` and
        ``lane_counter`` the counter ``j`` is set before the barrier, so
        the loop's windows take it at dispatch entry; under the other
        variants the window sets it.  ``variant`` changes how the loop's
        condition is computed.  Under ``lane_counter`` half the lanes
        count from 1 instead of 0, in steps of 2 to a bound of 80, so
        they still leave together; under ``rejoin`` they count from 1
        in steps of 1 and leave one iteration early, and rejoin the
        others at the loop's head."""
        b, i, acc = _loop_prologue(f"k_loop_{variant}")
        tid = b.sreg("tid")
        j = b.reg("j")
        bound, step = 40, 1
        on = None

        def lanes_ahead():
            q = b.pred()
            b.setp("lt", q, b.sreg("laneid"), 16)
            with b.if_(q):
                b.iadd(j, j, 1)

        if variant in ("plain", "lane_counter"):
            b.mov(j, 0)
        if variant == "lane_counter":
            bound, step = 80, 2
            lanes_ahead()
        elif variant == "loaded_bound":
            bound = b.ld_global(b.reg("nb"), b.param("src"), offset=4 * 40)
        elif variant == "predicated_setp":
            on = b.pred()
            b.setp("lt", on, tid, 1000)
        b.bar_sync()
        if variant not in ("plain", "lane_counter"):
            b.mov(j, 0)
        if variant == "rejoin":
            lanes_ahead()

        def cond(p):
            if on is not None:
                b.emit(Instr(
                    Op.SETP, dsts=(p,), srcs=(j, Imm(bound)), cmp="lt",
                    pred=on,
                ))
                return
            b.setp("lt", p, j, bound)
            if variant == "rewritten":
                b.add(acc, acc, b.selp(b.reg("s"), 1.0, 0.0, p))
                b.setp("lt", p, b.mov(b.reg("jc"), j), bound)

        _emit_loop(
            b, "head",
            lambda: b.mad(acc, acc, 0.5, b.i2f(b.reg("t"), j)),
            j, step, cond,
        )
        return _loop_epilogue(b, i, acc)

    def test_counter_known_at_entry_is_static(self):
        """The plain loop: every window after the barrier knows ``j``
        from dispatch entry, so its back-edge is static and no window
        aborts at the loop's exit."""
        kernel = self._loop_kernel("plain")
        plans = []
        got = _gang_modes(
            kernel, 4, 4 * GANG_BLOCK, params=_gen_src, plans=plans
        )
        edges = _back_edges(compile_kernel(kernel))
        assert _branch_kinds(plans, edges) == (True, False)
        assert any(key[3] is not None for key, _ in plans)
        assert got["abort_branch"] == 0

    @pytest.mark.parametrize(
        "variant",
        ("predicated_setp", "loaded_bound", "lane_counter", "rewritten"),
    )
    def test_branches_that_stay_validated(self, variant):
        """A predicated ``setp``, a ``setp`` against a register loaded
        from memory, a counter that differs across lanes at entry, and a
        predicate rewritten between its ``setp`` and the branch leave
        the back-edge validated."""
        kernel = self._loop_kernel(variant)
        plans = []
        _gang_modes(kernel, 4, 4 * GANG_BLOCK, params=_gen_src, plans=plans)
        edges = _back_edges(compile_kernel(kernel))
        assert _branch_kinds(plans, edges) == (False, True)

    def test_lanes_rejoining_at_entry(self):
        """Lanes that diverged over the counter rejoin at the loop's
        head: a window entering there runs them under the wider mask,
        so it cannot take the counter from the lanes active before."""
        _gang_modes(
            self._loop_kernel("rejoin"), 4, 4 * GANG_BLOCK, params=_gen_src
        )

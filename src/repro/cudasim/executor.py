"""Cycle-level SIMT execution of lowered kernels on one SM.

Model (G80-like, single issue port per SM):

* warps issue in round-robin; each issued warp instruction occupies the
  issue port for its issue cost (4 cycles ALU, 16 SFU, more for replayed
  memory accesses);
* results carry a ready-cycle in a per-warp scoreboard; a warp whose next
  instruction needs a pending register is not issuable — *latency hiding
  emerges from other warps filling the gap*, which is exactly the
  occupancy mechanism of the paper's Sec. IV-A;
* global accesses run through the per-SM memory pipeline
  (:mod:`repro.cudasim.pipeline`) after the toolchain's coalescing policy
  converts them to transactions;
* shared accesses serialize by bank-conflict degree;
* ``BAR_SYNC`` blocks a warp until all live warps of its block arrive;
* branch divergence is handled with a reconvergence mask stack: taken
  lanes of a forward branch park at the target; lanes leaving a
  divergent *backward* loop park at the fall-through pc until the
  loopers finish — which is what lets data-dependent loops (the GPU
  Barnes-Hut traversal) run.

Functional semantics are evaluated eagerly and vectorized across the 32
lanes with numpy; float operations round to float32 per operation so
kernel numerics match a float32 host reference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.access import HALFWARP
from ..core.coalescing import CoalescingPolicy
from ..telemetry import runtime as _telemetry
from .device import DeviceProperties
from .errors import (
    AccessViolation,
    DeadlockError,
    ExecutionError,
    MisalignedAccess,
)
from .isa import Imm, Instr, IssueClass, Op, Param, Reg, Special, SReg
from .lower import LoweredKernel
from .memory import GlobalMemory, SharedMemory
from .pipeline import MemoryPipeline
from .profiler import KernelStats
from .texture import TextureCache

__all__ = [
    "STACKED_OPS",
    "BlockState",
    "WarpState",
    "SMExecutor",
    "SMRun",
    "run_sms",
]

WARP = 32

_F32 = np.float32
_F64 = np.float64


def _f32(x):
    return np.asarray(x, dtype=_F32)


def _i64(x):
    return np.asarray(np.asarray(x, dtype=_F64), dtype=np.int64)


_FLOAT_BINOPS: dict[Op, Callable] = {
    Op.ADD: lambda a, b: _f32(a) + _f32(b),
    Op.SUB: lambda a, b: _f32(a) - _f32(b),
    Op.MUL: lambda a, b: _f32(a) * _f32(b),
    Op.DIV: lambda a, b: _f32(a) / _f32(b),
    Op.MIN: lambda a, b: np.minimum(_f32(a), _f32(b)),
    Op.MAX: lambda a, b: np.maximum(_f32(a), _f32(b)),
}

_INT_BINOPS: dict[Op, Callable] = {
    Op.IADD: lambda a, b: _i64(a) + _i64(b),
    Op.ISUB: lambda a, b: _i64(a) - _i64(b),
    Op.IMUL: lambda a, b: _i64(a) * _i64(b),
    Op.SHL: lambda a, b: _i64(a) << _i64(b),
    Op.SHR: lambda a, b: _i64(a) >> _i64(b),
    Op.AND: lambda a, b: _i64(a) & _i64(b),
    Op.OR: lambda a, b: _i64(a) | _i64(b),
    Op.XOR: lambda a, b: _i64(a) ^ _i64(b),
}

_CMPS: dict[str, Callable] = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}


#: Ops :meth:`SMExecutor._issue` hands to :meth:`SMExecutor._issue_stacked`,
#: which serves one warp or the same warp of every member of a fast-path
#: gang in one call: global and shared accesses and barriers.
STACKED_OPS = frozenset(
    {Op.LD_GLOBAL, Op.ST_GLOBAL, Op.LD_SHARED, Op.ST_SHARED, Op.BAR_SYNC}
)


@dataclass
class BlockState:
    block_id: int
    shared: SharedMemory
    warps: list["WarpState"] = field(default_factory=list)
    barrier_count: int = 0

    @property
    def live_warps(self) -> int:
        return sum(1 for w in self.warps if not w.done)

    @property
    def done(self) -> bool:
        return all(w.done for w in self.warps)


class WarpState:
    """Execution state of one warp."""

    __slots__ = (
        "block",
        "warp_in_block",
        "pc",
        "active",
        "alive",
        "div_stack",
        "regs",
        "preds",
        "pending",
        "next_issue",
        "at_barrier",
        "done",
        "tid",
        "mem_ready",
        "_fp_act",
        "_fp_na",
        "_row",
        "_fol",
        "_prof_t0",
    )

    def __init__(
        self, block: BlockState, warp_in_block: int, reg_count: int, pred_count: int
    ) -> None:
        self.block = block
        self.warp_in_block = warp_in_block
        self.pc = 0
        self.active = np.ones(WARP, dtype=bool)
        self.alive = np.ones(WARP, dtype=bool)
        self.div_stack: list[tuple[int, np.ndarray]] = []
        self.regs = np.zeros((max(reg_count, 1), WARP), dtype=_F64)
        self.preds = np.zeros((max(pred_count, 1), WARP), dtype=bool)
        # Scoreboard: per-register ready cycle.  A dense float64 array
        # (0.0 = always ready) instead of a dict, so readiness checks are
        # one vectorized gather+max instead of a per-register dict walk.
        self.pending = np.zeros(max(reg_count, 1), dtype=_F64)
        # Profiler shadow scoreboard, allocated lazily on the first
        # profiled load: ready cycles written only by the memory path, so
        # a stalling register with ``pending[r] == mem_ready[r]`` is
        # waiting on memory, anything else on an ALU/SFU latency.
        self.mem_ready: np.ndarray | None = None
        self.next_issue = 0.0
        self.at_barrier = False
        self.done = False
        self.tid = warp_in_block * WARP + np.arange(WARP, dtype=np.int64)
        self._prof_t0 = 0.0  # activation cycle, for achieved occupancy
        # Fastpath cache: active-lane count keyed by the identity of
        # ``active`` (every change rebinds a fresh array, see _exit_if
        # and _retire, and the cache keeps the old object alive so its
        # id cannot be reused).
        self._fp_act = None
        self._fp_na = 0
        # Arena row index under the vectorized fastpath (-1 = unbound).
        self._row = -1
        # Under a fastpath gang, the other members' copies of this warp
        # (set on the leader's warps only; see fastpath.FastSMExecutor).
        self._fol = ()


class _Prep:
    """Pre-resolved instruction: physical register indices, target index."""

    __slots__ = (
        "instr",
        "op",
        "dsts",
        "src_kinds",
        "srcs",
        "pred",
        "pred_neg",
        "cmp",
        "offset",
        "target",
        "issue_class",
        "need_regs",
        "need_arr",
    )

    def __init__(self, instr: Instr):
        self.instr = instr
        self.op = instr.op
        self.cmp = instr.cmp
        self.offset = instr.offset
        self.pred_neg = instr.pred_neg
        self.issue_class = instr.issue_class
        self.target: int | None = None  # filled by executor
        self.dsts: list[int] = []
        self.srcs: list = []
        self.src_kinds: list[str] = []
        self.pred: int | None = None
        self.need_regs: list[int] = []


def _prepare(lk: LoweredKernel, skip: frozenset) -> list[_Prep | None]:
    """Pre-resolve every instruction whose op is not in ``skip`` (those
    pcs hold ``None``: an executor that never issues them through
    :meth:`SMExecutor._issue` need not keep them resident)."""
    out: list[_Prep | None] = []
    for ins in lk.instructions:
        if ins.op in skip:
            out.append(None)
            continue
        p = _Prep(ins)
        if ins.op is Op.BRA:
            p.target = lk.targets[ins.target]
        for d in ins.dsts:
            if d.is_predicate:
                p.dsts.append(-1 - lk.pred_map[d.name])
            else:
                p.dsts.append(lk.reg_map[d.name])
        for s in ins.srcs:
            if isinstance(s, Reg):
                if s.is_predicate:
                    p.src_kinds.append("pred")
                    p.srcs.append(lk.pred_map[s.name])
                else:
                    p.src_kinds.append("reg")
                    idx = lk.reg_map[s.name]
                    p.srcs.append(idx)
                    p.need_regs.append(idx)
            elif isinstance(s, Imm):
                p.src_kinds.append("imm")
                p.srcs.append(s.value)
            elif isinstance(s, Param):
                p.src_kinds.append("param")
                p.srcs.append(s.name)
            elif isinstance(s, SReg):
                p.src_kinds.append("sreg")
                p.srcs.append(s.special)
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"bad operand {s!r}")
        if ins.pred is not None:
            p.pred = lk.pred_map[ins.pred.name]
        # Registers whose pending status blocks issue: sources and
        # destinations (in-order WAW on loads).
        for d in ins.dsts:
            if not d.is_predicate:
                p.need_regs.append(lk.reg_map[d.name])
        p.need_arr = np.array(p.need_regs, dtype=np.intp)
        out.append(p)
    return out


class KernelPlan:
    """Launch-invariant executor state of one lowered kernel.

    Everything an SM run derives from the kernel alone — the pre-resolved
    instructions and, per device timing, the fast path's
    compiled program — is built on the kernel's first SM run and shared,
    read-only, by every later run on any SM, launch or thread.  Lives on
    :attr:`LoweredKernel.exec_plan`.  Threads racing on a first build
    may each build an entry; any of them serves, since entries are pure
    functions of the kernel and their key.
    """

    __slots__ = ("prepped", "programs")

    def __init__(self) -> None:
        #: Ops left unprepared (see :func:`_prepare`) → per-pc ``_Prep``.
        self.prepped: dict = {}
        #: ``DeviceProperties`` → FastProgram, filled by
        #: :class:`repro.cudasim.fastpath.FastSMExecutor`; the only
        #: copy of each program.
        self.programs: dict = {}


def kernel_plan(lk: LoweredKernel) -> KernelPlan:
    """``lk``'s :class:`KernelPlan`, created on its first use."""
    plan = lk.exec_plan
    if plan is None:
        plan = lk.exec_plan = KernelPlan()
    return plan


class SMExecutor:
    """Runs a queue of blocks on one simulated SM."""

    def __init__(
        self,
        device: DeviceProperties,
        policy: CoalescingPolicy,
        gmem: GlobalMemory,
        lk: LoweredKernel,
        params: dict,
        block_dim: int,
        grid_dim: int,
        stats: KernelStats | None = None,
        trace=None,
        sm_index: int = 0,
        profile=None,
    ) -> None:
        self.device = device
        self.policy = policy
        self.gmem = gmem
        self.lk = lk
        self.params = params
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.trace = trace  # optional per-global-access hook
        self.sm_index = sm_index
        # Optional SMProfile; every hook below is guarded by a single
        # ``is not None`` read, and no hook mutates simulation state, so
        # disabled profiling is free and enabled profiling bit-identical.
        self.profile = profile
        self.stats = stats if stats is not None else KernelStats()
        #: Finish cycle of this SM, set when its simulation ends.
        self.end_cycle: float | None = None
        self.pipeline = MemoryPipeline(device, policy)
        self.texcache = TextureCache(device, self.pipeline)
        self.plan = kernel_plan(lk)
        skip = self._UNPREPARED
        prepped = self.plan.prepped.get(skip)
        if prepped is None:
            prepped = self.plan.prepped[skip] = _prepare(lk, skip)
        self._prepped = prepped
        self._lane = np.arange(WARP, dtype=np.int64)

    #: Ops this executor never issues through :meth:`_issue`, so never
    #: pre-resolves (the interpreter issues everything).
    _UNPREPARED: frozenset = frozenset()

    @property
    def members(self) -> tuple:
        """The SMs one :meth:`run` simulates: this executor's, plus the
        other members of a compiled gang (see
        :class:`repro.cudasim.fastpath.FastSMExecutor`), in SM order."""
        return (self,)

    def _needs(self, pc: int):
        """Registers whose pending status blocks issue at ``pc``."""
        return self._prepped[pc].need_arr

    # ------------------------------------------------------------- operands

    def _value(self, warp: WarpState, kind: str, src):
        if kind == "reg":
            return warp.regs[src]
        if kind == "imm":
            return src
        if kind == "param":
            try:
                return self.params[src]
            except KeyError:
                raise ExecutionError(f"missing kernel parameter {src!r}") from None
        if kind == "pred":
            return warp.preds[src]
        # special register
        sp: Special = src
        if sp is Special.TID:
            return warp.tid
        if sp is Special.CTAID:
            return warp.block.block_id
        if sp is Special.NTID:
            return self.block_dim
        if sp is Special.NCTAID:
            return self.grid_dim
        if sp is Special.LANEID:
            return self._lane
        raise ExecutionError(f"unknown special register {sp!r}")

    def _values(self, warp: WarpState, p: _Prep) -> list:
        return [
            self._value(warp, k, s) for k, s in zip(p.src_kinds, p.srcs)
        ]

    @staticmethod
    def _write(warp: WarpState, dst: int, value, mask: np.ndarray) -> None:
        if dst < 0:  # predicate file
            warp.preds[-1 - dst][mask] = np.broadcast_to(value, (WARP,))[mask]
        else:
            arr = np.broadcast_to(np.asarray(value, dtype=_F64), (WARP,))
            warp.regs[dst][mask] = arr[mask]

    # ------------------------------------------------------------ readiness

    def _wake_time(self, warp: WarpState) -> float | None:
        """Earliest cycle the warp could issue, or None if externally blocked."""
        if warp.done or warp.at_barrier:
            return None
        t = warp.next_issue
        need = self._prepped[warp.pc].need_arr
        if need.size:
            ready = float(warp.pending[need].max())
            if ready > t:
                t = ready
        return t

    def _ready(self, warp: WarpState, now: float) -> bool:
        t = self._wake_time(warp)
        return t is not None and t <= now

    # -------------------------------------------------------- profiling

    def _prof_gap(self, warps, now: float, new_now: float) -> None:
        """Attribute one issue-port idle gap to a stall reason.

        The gap ends when the earliest warp wakes, so the gap *is* that
        warp's stall; scan in flat warp order with strict ``<`` so the
        attribution is independent of scheduler bookkeeping (the fast
        path calls this with the same warp list and produces the same
        winner).
        """
        best = None
        best_t = 0.0
        for w in warps:
            t = self._wake_time(w)
            if t is not None and (best is None or t < best_t):
                best, best_t = w, t
        if best is None:  # pragma: no cover - defensive
            reason = "other"
        else:
            reason = self._prof_reason(
                best.pending, best.mem_ready, best.next_issue,
                self._needs(best.pc), best_t, now,
            )
        self.profile.gap(now, new_now - now, reason)

    @staticmethod
    def _prof_reason(
        pending, mem_ready, next_issue: float, need, t: float, now: float
    ) -> str:
        """Why a warp that wakes at ``t`` could not issue at ``now``,
        from its scoreboard ``pending``, memory shadow ``mem_ready``,
        ``next_issue`` and the registers ``need`` its pc waits on."""
        if t > next_issue:
            # Blocked on the scoreboard.  The binding register is the
            # one whose ready cycle equals the wake time; it was
            # produced by the memory pipeline iff the shadow scoreboard
            # agrees exactly.
            for r in need:
                if pending[r] == t:
                    if mem_ready is not None and mem_ready[r] == t:
                        return "mem_dependency"
                    return "exec_dependency"
            return "other"
        if next_issue > now:
            # The only mechanism pushing next_issue past the current
            # cycle at a no-issue point is a barrier release.
            return "barrier"
        return "other"  # pragma: no cover - defensive

    # ------------------------------------------------------------------ run

    def run(self, block_ids: list[int], max_resident: int) -> float:
        """Execute ``block_ids`` with at most ``max_resident`` co-resident
        blocks; returns the finish cycle (every member's is its
        :attr:`end_cycle`)."""
        # Kernel float math follows IEEE-754 silently, like the GPU:
        # overflow → inf, 0/0 → NaN, without host-side warnings.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if not _telemetry.enabled():
                return self._run(block_ids, max_resident)
            with _telemetry.span(
                "cudasim.sm",
                kernel=self.lk.name,
                sms=[m.sm_index for m in self.members],
                blocks=len(block_ids),
            ) as sp:
                end = self._run(block_ids, max_resident)
                sp.set(cycles=end)
                return end

    def _run(self, block_ids: list[int], max_resident: int) -> float:
        queue = deque(block_ids)
        resident: list[BlockState] = []
        now = 0.0

        def activate() -> None:
            while queue and len(resident) < max_resident:
                bid = queue.popleft()
                blk = BlockState(
                    block_id=bid,
                    shared=SharedMemory(self.lk.shared_words, self.device),
                )
                n_warps = self.block_dim // WARP
                for w in range(n_warps):
                    ws = WarpState(
                        blk, w, self.lk.reg_count, self.lk.pred_count
                    )
                    ws.next_issue = now
                    ws._prof_t0 = now
                    blk.warps.append(ws)
                resident.append(blk)
                self.stats.blocks_executed += 1
                self.stats.warps_executed += n_warps

        activate()
        rr = 0
        # The flat warp list only changes on block retire/admit, so it is
        # cached across scheduler iterations instead of rebuilt each time.
        warps = [w for blk in resident for w in blk.warps]
        while resident:
            issued = False
            n = len(warps)
            for k in range(n):
                warp = warps[(rr + k) % n]
                if self._ready(warp, now):
                    rr = (rr + k + 1) % n
                    now = self._issue(warp, now)
                    issued = True
                    break
                elif not warp.done and not warp.at_barrier:
                    self.stats.scoreboard_stalls += 1
            # Retire finished blocks, admit queued ones.
            finished = [b for b in resident if b.done]
            if finished:
                for b in finished:
                    resident.remove(b)
                activate()
                warps = [w for blk in resident for w in blk.warps]
                continue
            if issued:
                continue
            # Nobody issuable: advance time to the earliest wake-up.
            wakes = [t for w in warps if (t := self._wake_time(w)) is not None]
            if not wakes:
                if any(not w.done for w in warps):
                    raise DeadlockError(
                        f"kernel {self.lk.name!r}: all warps blocked "
                        f"(divergent barrier?) at cycle {now:.0f}"
                    )
                continue
            new_now = max(now, min(wakes))
            if new_now == now:  # pragma: no cover - defensive
                raise DeadlockError(
                    f"kernel {self.lk.name!r}: scheduler stuck at {now:.0f}"
                )
            self.stats.idle_cycles += new_now - now
            if self.profile is not None:
                self._prof_gap(warps, now, new_now)
            now = new_now
        self.stats.sm_cycles.append(now)
        self.end_cycle = now
        return now

    # ---------------------------------------------------------------- issue

    def _issue(self, warp: WarpState, now: float) -> float:
        """Execute one instruction for ``warp``; returns the new SM clock."""
        prof = self.profile
        # Reconvergence check: lanes parked for this pc rejoin.
        while warp.div_stack and warp.pc == warp.div_stack[-1][0]:
            _, mask = warp.div_stack.pop()
            warp.active = (warp.active | mask) & warp.alive
            if prof is not None:
                prof.reconvergences += 1

        pc = warp.pc
        p = self._prepped[pc]
        op = p.op
        if op in STACKED_OPS:
            return self._issue_stacked(
                (self,), (warp,), warp.regs[:, None], warp.preds[:, None],
                p, now,
            )[0]
        dev = self.device

        mask = warp.active.copy()
        if p.pred is not None and op is not Op.BRA and op is not Op.EXIT:
            pv = warp.preds[p.pred]
            mask &= (~pv) if p.pred_neg else pv

        active_lanes = int(mask.sum())
        self.stats.count(op, p.issue_class, active_lanes)
        issue = dev.alu_issue_cycles
        advance_pc = True

        if op in _FLOAT_BINOPS:
            a, b = self._values(warp, p)
            self._write(warp, p.dsts[0], _FLOAT_BINOPS[op](a, b), mask)
            self._mark(warp, p.dsts[0], now + dev.alu_result_latency)
            if op is Op.DIV:
                issue = dev.sfu_issue_cycles
                self._mark(warp, p.dsts[0], now + dev.sfu_result_latency)
        elif op in _INT_BINOPS:
            a, b = self._values(warp, p)
            self._write(warp, p.dsts[0], _INT_BINOPS[op](a, b), mask)
            self._mark(warp, p.dsts[0], now + dev.alu_result_latency)
        elif op is Op.MOV:
            (a,) = self._values(warp, p)
            self._write(warp, p.dsts[0], a, mask)
            self._mark(warp, p.dsts[0], now + dev.alu_result_latency)
        elif op is Op.MAD:
            a, b, c = self._values(warp, p)
            self._write(warp, p.dsts[0], _f32(a) * _f32(b) + _f32(c), mask)
            self._mark(warp, p.dsts[0], now + dev.alu_result_latency)
        elif op is Op.IMAD:
            a, b, c = self._values(warp, p)
            self._write(warp, p.dsts[0], _i64(a) * _i64(b) + _i64(c), mask)
            self._mark(warp, p.dsts[0], now + dev.alu_result_latency)
        elif op in (Op.RSQRT, Op.SQRT):
            (a,) = self._values(warp, p)
            with np.errstate(divide="ignore", invalid="ignore"):
                root = np.sqrt(_f32(a))
                val = (_f32(1.0) / root) if op is Op.RSQRT else root
            self._write(warp, p.dsts[0], val, mask)
            issue = dev.sfu_issue_cycles
            self._mark(warp, p.dsts[0], now + dev.sfu_result_latency)
        elif op is Op.NEG:
            (a,) = self._values(warp, p)
            self._write(warp, p.dsts[0], -_f32(a), mask)
            self._mark(warp, p.dsts[0], now + dev.alu_result_latency)
        elif op is Op.ABS:
            (a,) = self._values(warp, p)
            self._write(warp, p.dsts[0], np.abs(_f32(a)), mask)
            self._mark(warp, p.dsts[0], now + dev.alu_result_latency)
        elif op is Op.F2I:
            (a,) = self._values(warp, p)
            self._write(warp, p.dsts[0], np.trunc(np.asarray(a, dtype=_F64)), mask)
            self._mark(warp, p.dsts[0], now + dev.alu_result_latency)
        elif op is Op.I2F:
            (a,) = self._values(warp, p)
            self._write(warp, p.dsts[0], _f32(np.asarray(a, dtype=_F64)), mask)
            self._mark(warp, p.dsts[0], now + dev.alu_result_latency)
        elif op is Op.SETP:
            a, b = self._values(warp, p)
            av = np.broadcast_to(np.asarray(a, dtype=_F64), (WARP,))
            bv = np.broadcast_to(np.asarray(b, dtype=_F64), (WARP,))
            self._write(warp, p.dsts[0], _CMPS[p.cmp](av, bv), mask)
        elif op is Op.SELP:
            a, b, pv = self._values(warp, p)
            av = np.broadcast_to(np.asarray(a, dtype=_F64), (WARP,))
            bv = np.broadcast_to(np.asarray(b, dtype=_F64), (WARP,))
            self._write(warp, p.dsts[0], np.where(pv, av, bv), mask)
            self._mark(warp, p.dsts[0], now + dev.alu_result_latency)
        elif op is Op.CLOCK:
            self._write(warp, p.dsts[0], float(now), mask)
        elif op is Op.NOP:
            pass
        elif op is Op.BRA:
            advance_pc = self._branch(warp, p)
            issue = dev.alu_issue_cycles
        elif op is Op.EXIT:
            advance_pc = self._exit(warp, p, now)
        elif op is Op.LD_TEX:
            issue = self._tex_access(warp, p, mask, now)
        else:  # pragma: no cover - defensive
            raise ExecutionError(f"unimplemented op {op!r}")

        if advance_pc:
            warp.pc += 1
            if warp.pc >= len(self._prepped):
                self._retire(warp, now)
        if prof is not None:
            prof.note_issue(pc, active_lanes, issue)
        warp.next_issue = now + issue
        return now + issue

    def _issue_stacked(
        self, ms: tuple, ws: tuple, R, P, p: _Prep, now: float
    ) -> list[float]:
        """Issue ``p`` — a global or shared access or a barrier — for warp
        ``ws[g]`` of each member executor ``ms[g]``, every warp at ``p``'s
        pc with no reconvergence pending there; returns each member's
        new clock.

        ``R[slot]``/``P[slot]`` are the warps' stacked ``(M, 32)``
        register/predicate rows.  The interpreter passes one warp's own
        rows (``M = 1``), and a :mod:`~repro.cudasim.fastpath` gang its
        members' adjacent arena rows (their blocks, admitted together,
        share one shared-memory stack), so the lane masks, addresses and
        the access itself are computed once for every member, while each
        member's counts, memory pipeline, scoreboard, barrier and profile
        stay its own.  The access rules live in :meth:`_global_access`
        and :meth:`_shared_access` alone.
        """
        op = p.op
        if len(ws) == 1:
            mask = ws[0].active[None]
        else:
            mask = np.array([w.active for w in ws])
        if p.pred is not None:
            pv = P[p.pred]
            mask = mask & ((~pv) if p.pred_neg else pv)
        lanes = mask.sum(axis=1).tolist()
        for m, n in zip(ms, lanes):
            m.stats.count(op, p.issue_class, n)
        if op is Op.BAR_SYNC:
            issue = [self.device.alu_issue_cycles] * len(ws)
            for m, w in zip(ms, ws):
                m._barrier(w, now)
        elif op is Op.LD_GLOBAL or op is Op.ST_GLOBAL:
            issue = self._global_access(ms, ws, R, P, p, mask, lanes, now)
        else:
            issue = self._shared_access(ms, ws, R, P, p, mask, lanes, now)
        ends = []
        for m, w, n, c in zip(ms, ws, lanes, issue):
            pc = w.pc
            w.pc = pc + 1
            if w.pc >= len(m._prepped):
                m._retire(w, now)
            if m.profile is not None:
                m.profile.note_issue(pc, n, c)
            w.next_issue = now + c
            ends.append(now + c)
        return ends

    # ------------------------------------------------------------- helpers

    @staticmethod
    def _mark(warp: WarpState, dst: int, ready: float) -> None:
        if dst >= 0:
            warp.pending[dst] = ready

    @staticmethod
    def _prof_mark_mem(warp: WarpState, dsts, ready: float) -> None:
        """Record memory-produced ready cycles in the shadow scoreboard
        (profiling only; never read by the simulation itself)."""
        mem_ready = warp.mem_ready
        if mem_ready is None:
            mem_ready = warp.mem_ready = np.zeros_like(warp.pending)
        for dst in dsts:
            if dst >= 0:
                mem_ready[dst] = ready

    def _branch(self, warp: WarpState, p: _Prep) -> bool:
        target = p.target
        assert target is not None
        if p.pred is None:
            taken = warp.active.copy()
        else:
            pv = warp.preds[p.pred]
            taken = warp.active & ((~pv) if p.pred_neg else pv)
        if not taken.any():
            return True  # fall through
        if bool(np.array_equal(taken, warp.active)):
            warp.pc = target
            return False
        if self.profile is not None:
            self.profile.divergent_branches += 1
        if target <= warp.pc:
            # Divergent backward branch (a per-lane data-dependent loop,
            # e.g. Barnes-Hut traversal): lanes leaving the loop park at
            # the fall-through pc and rejoin when the loopers arrive.
            resume = warp.pc + 1
            not_taken = warp.active & ~taken
            if warp.div_stack and warp.div_stack[-1][0] == resume:
                pc0, mask = warp.div_stack[-1]
                warp.div_stack[-1] = (pc0, mask | not_taken)
            else:
                warp.div_stack.append((resume, not_taken.copy()))
            warp.active = taken.copy()
            warp.pc = target
            return False
        # Divergent forward branch: taken lanes park at the target.
        warp.div_stack.append((target, taken.copy()))
        warp.active = warp.active & ~taken
        return True

    def _exit(self, warp: WarpState, p: _Prep, now: float) -> bool:
        if p.pred is None:
            dying = warp.active.copy()
        else:
            pv = warp.preds[p.pred]
            dying = warp.active & ((~pv) if p.pred_neg else pv)
        warp.alive &= ~dying
        # Rebind instead of mutating in place: the fastpath caches the
        # active-lane count by the mask's identity.
        warp.active = warp.active & ~dying
        if not warp.alive.any():
            self._retire(warp, now)
            return False
        if not warp.active.any():
            # Jump ahead to the nearest reconvergence point.
            if warp.div_stack:
                pc, mask = warp.div_stack.pop()
                warp.pc = pc
                warp.active = mask & warp.alive
                if self.profile is not None:
                    self.profile.reconvergences += 1
                return False
            self._retire(warp, now)
            return False
        return True

    def _retire(self, warp: WarpState, now: float) -> None:
        if warp.done:
            return
        if self.profile is not None:
            self.profile.warp_resident_cycles += now - warp._prof_t0
        warp.done = True
        warp.active = np.zeros(WARP, dtype=bool)
        # A retiring warp may release a barrier its siblings wait on.
        blk = warp.block
        live = blk.live_warps
        if live and blk.barrier_count >= live:
            self._release_barrier(blk, now)

    def _barrier(self, warp: WarpState, now: float) -> None:
        blk = warp.block
        warp.at_barrier = True
        blk.barrier_count += 1
        self.stats.barrier_waits += 1
        if blk.barrier_count >= blk.live_warps:
            self._release_barrier(blk, now)

    def _release_barrier(self, blk: BlockState, now: float) -> None:
        blk.barrier_count = 0
        for w in blk.warps:
            if w.at_barrier:
                w.at_barrier = False
                w.next_issue = max(w.next_issue, now + self.device.barrier_cycles)

    def _operand(self, ws: tuple, R, P, k: int, p: _Prep):
        """Source operand ``k`` of ``p`` for the stacked warps ``ws``: an
        ``(M, 32)`` array, or a scalar when it is the same in every lane
        of every member (an immediate or a launch parameter)."""
        kind, src = p.src_kinds[k], p.srcs[k]
        if kind == "reg":
            return R[src]
        if kind == "pred":
            return P[src]
        if kind in ("imm", "param"):
            return self._value(ws[0], kind, src)
        # Special registers: %ctaid differs per member.
        return np.array(
            [np.broadcast_to(self._value(w, kind, src), (WARP,)) for w in ws]
        )

    def _stacked_addresses(self, ws: tuple, R, P, p: _Prep) -> np.ndarray:
        """Per-lane byte addresses of memory instruction ``p`` as an
        ``(M, 32)`` int64 stack."""
        base = np.asarray(self._operand(ws, R, P, 0, p), dtype=_F64)
        if base.ndim == 0:
            base = np.broadcast_to(base, (len(ws), WARP))
        return base.astype(np.int64) + p.offset

    def _move(
        self, mem, ws: tuple, R, P, p: _Prep, addrs: np.ndarray, mask, n: int,
        *rows,
    ) -> None:
        """The data movement of memory instruction ``p`` over its ``n``
        stacked active lanes: one gather from ``mem`` into the
        destination rows, or one scatter of the store operands (a
        ``(width, n)`` matrix, lanes in member-major order as
        ``addrs[mask]``; scalar operands fill their row directly).
        ``rows`` passes shared memory the stack row of each lane.  The
        gather or scatter checks alignment and bounds before it touches
        anything, so a fault leaves no trace."""
        full = n == addrs.size
        sel = addrs.ravel() if full else addrs[mask]
        if p.op is Op.LD_GLOBAL or p.op is Op.LD_SHARED:
            data = mem.gather(sel, len(p.dsts), *rows)
            for k, dst in enumerate(p.dsts):
                if full:
                    R[dst][...] = data[k].reshape(addrs.shape)
                else:
                    R[dst][mask] = data[k]
            return
        vals = np.empty((len(p.srcs) - 1, n), dtype=_F64)
        for k in range(len(vals)):
            v = self._operand(ws, R, P, 1 + k, p)
            if isinstance(v, np.ndarray) and v.ndim:
                vals[k] = v.ravel() if full else v[mask]
            else:
                vals[k] = v
        mem.scatter(sel, vals, *rows)

    @staticmethod
    def _one_at_a_time(
        access: str, ms: tuple, ws: tuple, R, P, p: _Prep, mask: np.ndarray,
        lanes: list, now: float,
    ) -> list[float]:
        """Run the stacked ``access`` (a method name) member by member,
        each through its own executor and rows, in member order; returns
        the members' issue costs.  A member that faults raises after the
        earlier members' accesses, as if each had issued alone."""
        return [
            c
            for g in range(len(ws))
            for c in getattr(ms[g], access)(
                ms[g : g + 1], ws[g : g + 1], [r[g : g + 1] for r in R],
                [q[g : g + 1] for q in P], p, mask[g : g + 1],
                lanes[g : g + 1], now,
            )
        ]

    def _global_access(
        self, ms: tuple, ws: tuple, R, P, p: _Prep, mask: np.ndarray,
        lanes: list, now: float,
    ) -> list[float]:
        """One global load or store for the stacked warps (see
        :meth:`_issue_stacked`; ``lanes`` counts each member's active
        lanes in ``mask``); returns each member's issue cost.

        One pass computes the ``(M, 32)`` addresses and one checked
        gather or scatter serves every member's active lanes (if a lane
        would fault, the members run one at a time instead).  A stacked
        store writes the members' lanes in member order, which a
        race-free launch cannot tell from one member at a time.
        :meth:`CoalescingPolicy.halfwarp_transactions` converts all 2M
        half-warps in one pass; each member with an active lane then
        queues its transactions on its own memory pipeline and marks its
        own destinations, and a member with none makes no request.
        """
        dev = self.device
        M = len(ws)
        is_load = p.op is Op.LD_GLOBAL
        addrs = self._stacked_addresses(ws, R, P, p)
        n = sum(lanes)
        if not n:
            return [dev.alu_issue_cycles] * M
        try:
            self._move(self.gmem, ws, R, P, p, addrs, mask, n)
        except (MisalignedAccess, AccessViolation):
            if M == 1:
                raise
            return self._one_at_a_time("_global_access", ms, ws, R, P, p,
                                       mask, lanes, now)
        nbytes = 4 * (len(p.dsts) if is_load else len(p.srcs) - 1)
        if self.trace is not None:  # traced launches run gangs of one
            for m, w, on, a, act in zip(ms, ws, lanes, addrs, mask):
                if on:
                    m.trace(
                        pc=w.pc,
                        block=w.block.block_id,
                        warp=w.warp_in_block,
                        is_load=is_load,
                        width=nbytes,
                        addresses=a,
                        active=act,
                    )
        # Timing: coalesce per half-warp, queue each member's transactions.
        halves, coalesced = self.policy.halfwarp_transactions(
            addrs.reshape(2 * M, HALFWARP), mask.reshape(2 * M, HALFWARP),
            nbytes,
        )
        charges = self.policy.charges_replays
        issue = []
        for g, (m, w, on) in enumerate(zip(ms, ws, lanes)):
            if not on:
                issue.append(dev.alu_issue_cycles)
                continue
            h0, h1 = halves[2 * g], halves[2 * g + 1]
            prof = m.profile
            if prof is not None:
                for h, half_txs in ((2 * g, h0), (2 * g + 1, h1)):
                    if half_txs:
                        prof.note_global(w.pc, half_txs, bool(coalesced[h]))
            ready = m.pipeline.request([*h0, *h1], now, nbytes, is_load)
            if is_load:
                for dst in p.dsts:
                    m._mark(w, dst, ready)
                if prof is not None:
                    prof.mem_latency[w.pc] += ready - now
                    m._prof_mark_mem(w, p.dsts, ready)
            replays = 0
            if charges:
                replays = max(0, len(h0) - 1) + max(0, len(h1) - 1)
                if prof is not None and replays:
                    prof.replays[w.pc] += replays
            issue.append(
                dev.alu_issue_cycles + replays * dev.memory.replay_issue_cycles
            )
        return issue

    def _tex_access(
        self, warp: WarpState, p: _Prep, mask: np.ndarray, now: float
    ) -> float:
        """Read-only fetch through the per-SM texture cache."""
        dev = self.device
        lanes = len(p.dsts)
        addrs = self._stacked_addresses(
            (warp,), warp.regs[:, None], warp.preds[:, None], p
        )[0]
        if not mask.any():
            return dev.alu_issue_cycles
        if mask.all():
            idx = slice(None)
            sel = addrs
        else:
            idx = mask.nonzero()[0]
            sel = addrs[idx]
        data = self.gmem.gather(sel, lanes)
        for k, dst in enumerate(p.dsts):
            warp.regs[dst][idx] = data[k]
        if self.trace is not None:
            self.trace(
                pc=warp.pc,
                block=warp.block.block_id,
                warp=warp.warp_in_block,
                is_load=True,
                width=4 * lanes,
                addresses=addrs,
                active=mask,
            )
        ready = self.texcache.access(sel, 4 * lanes, now)
        for dst in p.dsts:
            self._mark(warp, dst, ready)
        if self.profile is not None:
            # Texture traffic reaches the pipeline only on cache misses
            # (inside TextureCache), so no per-pc transaction split here;
            # fills are still in the pipeline-level byte totals.
            self.profile.mem_latency[warp.pc] += ready - now
            self._prof_mark_mem(warp, p.dsts, ready)
        return dev.alu_issue_cycles

    def _shared_access(
        self, ms: tuple, ws: tuple, R, P, p: _Prep, mask: np.ndarray,
        lanes: list, now: float,
    ) -> list[float]:
        """One shared load or store for the stacked warps (see
        :meth:`_issue_stacked`); returns each member's issue cost.

        As in :meth:`_global_access`, one pass computes the addresses and
        one checked gather or scatter serves every member's active lanes:
        a gang's blocks at one resident slot are rows of one stack (see
        :class:`~repro.cudasim.memory.SharedMemory`), and each lane reads
        or writes its member's row.  If a lane would fault, the members
        run one at a time.  The bank-conflict degree that sets each
        member's cost is computed once per distinct address pattern."""
        dev = self.device
        M = len(ws)
        is_load = p.op is Op.LD_SHARED
        width = len(p.dsts) if is_load else len(p.srcs) - 1
        addrs = self._stacked_addresses(ws, R, P, p)
        n = sum(lanes)
        if not n:
            return [dev.alu_issue_cycles] * M
        shared = ws[0].block.shared
        rows = ()
        if M > 1:
            rows = (np.repeat([w.block.shared.row for w in ws], lanes),)
        try:
            self._move(shared, ws, R, P, p, addrs, mask, n, *rows)
        except (MisalignedAccess, AccessViolation):
            if M == 1:
                raise
            return self._one_at_a_time("_shared_access", ms, ws, R, P, p,
                                       mask, lanes, now)
        ready = now + dev.alu_result_latency
        degrees: dict[bytes, int] = {}
        issue = []
        for m, w, on, a, act in zip(ms, ws, lanes, addrs, mask):
            if not on:
                issue.append(dev.alu_issue_cycles)
                continue
            if is_load:
                for dst in p.dsts:
                    m._mark(w, dst, ready)
            key = a.tobytes() + act.tobytes()
            degree = degrees.get(key)
            if degree is None:
                degree = degrees[key] = shared.conflict_degree(a, width, act)
            if m.profile is not None and degree > 1:
                m.profile.bank_conflicts[w.pc] += degree - 1
            issue.append(dev.alu_issue_cycles * degree)
        return issue


# ----------------------------------------------------------- multi-SM runner
#
# Between launches the SMs of the model are fully independent: each
# executes its own round-robin share of the grid against the launch-time
# memory image, and race-free kernels (every kernel in this repository)
# write disjoint output ranges.  :func:`run_sms` simulates them in this
# process — one SM at a time, or, in compiled mode, the congruent SMs of
# a launch as one gang — and returns their results in SM-index order.


@dataclass
class SMRun:
    """Outcome of one SM's simulation."""

    sm_index: int
    end_cycle: float
    stats: KernelStats
    #: SMProfile when the launch ran with profiling enabled, else None.
    profile: object | None = None


def _run_group(
    device: DeviceProperties,
    policy: CoalescingPolicy,
    gmem: GlobalMemory,
    lk: LoweredKernel,
    params: dict,
    block_dim: int,
    grid_dim: int,
    group: list[tuple[int, list[int]]],
    resident: int,
    trace=None,
    fastpath: bool | None = False,
    profile_spec=None,
) -> list[SMRun]:
    """Simulate ``group``'s ``(sm_index, block_ids)`` assignments: one SM,
    or (compiled path) several holding the same number of blocks as one
    gang.  Returns one :class:`SMRun` per member."""
    from .fastpath import FastSMExecutor, fastpath_enabled

    (sm_index, block_ids), gang = group[0], group[1:]
    stats = KernelStats()
    profile = None
    if profile_spec is not None:
        from .profiler import SMProfile

        profile = SMProfile(len(lk.instructions), sm_index, profile_spec)
    extra = {}
    if fastpath_enabled(fastpath):
        executor_cls = FastSMExecutor
        extra["gang"] = gang
    else:
        executor_cls = SMExecutor
    ex = executor_cls(
        device=device,
        policy=policy,
        gmem=gmem,
        lk=lk,
        params=params,
        block_dim=block_dim,
        grid_dim=grid_dim,
        stats=stats,
        trace=trace,
        sm_index=sm_index,
        profile=profile,
        **extra,
    )
    end = ex.run(block_ids, resident)
    if profile is not None:
        profile.end_cycle = end
    runs = []
    for m in ex.members:
        m.stats.memory.merge(m.pipeline.stats)
        runs.append(
            SMRun(
                sm_index=m.sm_index,
                end_cycle=m.end_cycle,
                stats=m.stats,
                profile=m.profile,
            )
        )
    return runs


def _gangs(assignments: list[tuple[int, list[int]]]) -> list[list]:
    """Assignments grouped by block count, each group in SM order.

    SMs holding the same number of blocks start congruent — same warps,
    same pcs, same clocks — whatever their block ids, so each group can
    run as one compiled gang.  Launch geometry alone decides this."""
    groups: dict[int, list] = {}
    for assignment in assignments:
        groups.setdefault(len(assignment[1]), []).append(assignment)
    return list(groups.values())


def run_sms(
    device: DeviceProperties,
    policy: CoalescingPolicy,
    gmem: GlobalMemory,
    lk: LoweredKernel,
    params: dict,
    block_dim: int,
    grid_dim: int,
    assignments: list[tuple[int, list[int]]],
    resident: int,
    trace=None,
    fastpath: bool | None = False,
    profile=None,
) -> list[SMRun]:
    """Simulate every (sm_index, block_ids) assignment; results in SM order.

    ``fastpath`` picks the executor: ``False`` the interpreter, ``True``
    the compiled :class:`repro.cudasim.fastpath.FastSMExecutor`, and
    ``None`` the ``REPRO_EXEC_FASTPATH`` environment variable (see
    :func:`repro.cudasim.fastpath.fastpath_enabled`; any other type
    raises :class:`TypeError`).  On the compiled path the assignments
    holding the same number of blocks run as one gang (see
    :func:`_gangs`), unless a ``trace`` hook or the profiler is on: both
    observe one SM in program order, so each SM then runs alone.  Both
    executors, ganged or not, produce identical results.  ``profile`` is
    an optional :class:`~repro.cudasim.profiler.ProfileSpec` for per-SM
    counters.
    """
    from .fastpath import fastpath_enabled

    fastpath = fastpath_enabled(fastpath)
    if fastpath and trace is None and profile is None:
        groups = _gangs(assignments)
    else:
        groups = [[assignment] for assignment in assignments]
    runs = [
        run
        for group in groups
        for run in _run_group(
            device, policy, gmem, lk, params, block_dim, grid_dim,
            group, resident, trace=trace, fastpath=fastpath,
            profile_spec=profile,
        )
    ]
    runs.sort(key=lambda run: run.sm_index)
    return runs

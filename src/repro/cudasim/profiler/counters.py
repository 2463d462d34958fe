"""Hardware-counter-style profile containers.

Two levels, mirroring the executor's SM/launch split:

* :class:`SMProfile` — the raw per-SM counter block one
  :class:`~repro.cudasim.executor.SMExecutor` (or the compiled fastpath)
  fills while it runs: per-pc issue counts / active lanes / issue-port
  cycles, global-memory transactions split coalesced vs uncoalesced,
  bytes binned into named address *regions* (the ``MemoryLayout`` field
  spans), replay and bank-conflict counts, and the cycle-accurate
  stall-reason breakdown of every idle gap.
* :class:`KernelProfile` — the launch-level merge, attributed back to IR
  instructions and basic blocks (via :mod:`repro.cudasim.cfg`) so a
  report can name the hot op, not just the hot kernel.

Every counter is *simulated* (cycles, transactions, bytes), never
wall-clock, so profiles of the same configuration are deterministic and
``gravit-prof diff`` of two identical runs reports zero deltas.

Stall-reason taxonomy (:data:`STALL_REASONS`) — each idle gap of the SM
scheduler (no warp issuable) is attributed to the warp that wakes
earliest, classified by what that warp is waiting on:

``mem_dependency``
    a source/destination register still pending on a global/texture
    load (the scoreboard slot was last written by the memory pipeline);
``exec_dependency``
    a register pending on an ALU/SFU result latency;
``barrier``
    the warp's next-issue cycle was pushed out by a barrier release
    (``BAR_SYNC`` synchronization cost);
``other``
    anything unclassifiable (defensive; empty for the paper's kernels).

Branch divergence does not stall the issue port — its cost is issue
slots spent on inactive lanes — so it is reported as *warp execution
efficiency* (``thread_instructions / (32 × warp_instructions)``) and a
divergent-branch count, not as gap cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cfg import split_blocks
from ..isa import Op, SFU_OPS, format_instr

__all__ = [
    "STALL_REASONS",
    "FLOPS_PER_OP",
    "ProfileSpec",
    "SMProfile",
    "KernelProfile",
    "regions_for_layout",
]

#: Idle-gap classification buckets (see module docstring).
STALL_REASONS = ("mem_dependency", "exec_dependency", "barrier", "other")

#: Floating-point operations per active lane per issued instruction.
#: MAD counts two (multiply + add), matching how the device's
#: ``peak_gflops`` assumes one MAD per SP per cycle.
FLOPS_PER_OP = {
    Op.ADD: 1, Op.SUB: 1, Op.MUL: 1, Op.DIV: 1, Op.MIN: 1, Op.MAX: 1,
    Op.MAD: 2, Op.RSQRT: 1, Op.SQRT: 1, Op.NEG: 1, Op.ABS: 1,
}


@dataclass(frozen=True)
class ProfileSpec:
    """Per-launch profiling configuration.

    Passed through :func:`repro.cudasim.executor.run_sms` to every SM, so
    the executor never reads the enabling session's module global.
    """

    #: Named byte ranges ``(name, lo, hi)`` for memory-traffic binning;
    #: transactions are attributed to the first containing region.
    regions: tuple[tuple[str, int, int], ...] = ()
    #: Cap on retained per-SM gap events (totals keep accumulating).
    max_gap_events: int = 4096


def regions_for_layout(layout, base_addr: int, prefix: str = "") -> tuple:
    """Region table covering one :class:`~repro.core.layouts.MemoryLayout`.

    One region per load step, named by the step's fields and spanning
    ``base + step.base .. base + step.base + stride*(n-1) + vector`` —
    interleaved layouts produce overlapping spans (AoS is one region),
    grouped layouts split per field group.  Binning is first-match in
    step order, so overlapping spans attribute to the earliest step.
    """
    regions = []
    for step in layout.steps:
        name = "+".join(f for f in step.fields if f is not None) or "pad"
        lo = base_addr + step.base
        hi = base_addr + step.base + step.stride * (layout.n - 1) + step.vector.nbytes
        regions.append((prefix + name, int(lo), int(hi)))
    return tuple(regions)


class SMProfile:
    """Raw profiling counters of one SM's simulation (see module doc).

    Allocated by :func:`repro.cudasim.executor._run_group` when a
    :class:`ProfileSpec` is supplied; every executor hook is guarded by
    ``if self.profile is not None`` so a disabled profiler costs one
    predictable branch (the telemetry tracer's zero-overhead pattern).
    """

    def __init__(
        self, n_pcs: int, sm_index: int, spec: ProfileSpec
    ) -> None:
        self.n_pcs = n_pcs
        self.sm_index = sm_index
        self.regions = spec.regions
        self.max_gap_events = spec.max_gap_events
        # Per-pc attribution arrays (index = instruction pc).
        self.issue_count = np.zeros(n_pcs, dtype=np.int64)
        self.lanes = np.zeros(n_pcs, dtype=np.int64)
        self.issue_cycles = np.zeros(n_pcs, dtype=np.float64)
        self.tx_coalesced = np.zeros(n_pcs, dtype=np.int64)
        self.tx_uncoalesced = np.zeros(n_pcs, dtype=np.int64)
        self.mem_bytes = np.zeros(n_pcs, dtype=np.int64)
        self.replays = np.zeros(n_pcs, dtype=np.int64)
        self.mem_latency = np.zeros(n_pcs, dtype=np.float64)
        self.bank_conflicts = np.zeros(n_pcs, dtype=np.int64)
        # Stall-gap breakdown + capped event timeline.
        self.stall_cycles = {reason: 0.0 for reason in STALL_REASONS}
        self.gap_events: list[tuple[float, float, str]] = []
        self.dropped_gap_events = 0
        # Scalars.
        self.divergent_branches = 0
        self.reconvergences = 0
        self.warp_resident_cycles = 0.0
        self.end_cycle = 0.0
        self.region_tx: dict[str, int] = {}
        self.region_bytes: dict[str, int] = {}

    # -- hooks (hot paths; profiling enabled only) ----------------------

    def note_issue(self, pc: int, lanes: int, issue: float) -> None:
        self.issue_count[pc] += 1
        self.lanes[pc] += lanes
        self.issue_cycles[pc] += issue

    def note_global(self, pc: int, txs, coalesced: bool) -> None:
        """One half-warp's transactions from the coalescing policy."""
        if coalesced:
            self.tx_coalesced[pc] += len(txs)
        else:
            self.tx_uncoalesced[pc] += len(txs)
        regions = self.regions
        rtx = self.region_tx
        rbytes = self.region_bytes
        for tx in txs:
            self.mem_bytes[pc] += tx.size
            for name, lo, hi in regions:
                if lo <= tx.address < hi:
                    rtx[name] = rtx.get(name, 0) + 1
                    rbytes[name] = rbytes.get(name, 0) + tx.size
                    break

    def gap(self, start: float, cycles: float, reason: str) -> None:
        """One idle gap of the SM scheduler, already classified."""
        # float() here: the executors hand over numpy scalars read off
        # the scoreboard, and the dumps must stay json-serializable.
        cycles = float(cycles)
        self.stall_cycles[reason] += cycles
        if len(self.gap_events) < self.max_gap_events:
            self.gap_events.append((float(start), cycles, reason))
        else:
            self.dropped_gap_events += 1

    # -- export ---------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-safe dump (used by parity tests and per-SM reports)."""
        return {
            "sm_index": self.sm_index,
            "end_cycle": float(self.end_cycle),
            "issue_count": self.issue_count.tolist(),
            "lanes": self.lanes.tolist(),
            "issue_cycles": self.issue_cycles.tolist(),
            "tx_coalesced": self.tx_coalesced.tolist(),
            "tx_uncoalesced": self.tx_uncoalesced.tolist(),
            "mem_bytes": self.mem_bytes.tolist(),
            "replays": self.replays.tolist(),
            "mem_latency": self.mem_latency.tolist(),
            "bank_conflicts": self.bank_conflicts.tolist(),
            "stall_cycles": dict(self.stall_cycles),
            "gap_events": [list(e) for e in self.gap_events],
            "dropped_gap_events": self.dropped_gap_events,
            "divergent_branches": self.divergent_branches,
            "reconvergences": self.reconvergences,
            "warp_resident_cycles": float(self.warp_resident_cycles),
            "region_tx": dict(sorted(self.region_tx.items())),
            "region_bytes": dict(sorted(self.region_bytes.items())),
        }


_ARRAY_FIELDS = (
    "issue_count", "lanes", "issue_cycles", "tx_coalesced",
    "tx_uncoalesced", "mem_bytes", "replays", "mem_latency",
    "bank_conflicts",
)


@dataclass
class KernelProfile:
    """Launch-level profile: per-SM blocks merged, attributed to the IR."""

    kernel_name: str
    grid: int
    block: int
    cycles: float
    toolchain: str
    n_pcs: int
    instr_text: list[str]
    op_names: list[str]
    issue_count: np.ndarray
    lanes: np.ndarray
    issue_cycles: np.ndarray
    tx_coalesced: np.ndarray
    tx_uncoalesced: np.ndarray
    mem_bytes: np.ndarray
    replays: np.ndarray
    mem_latency: np.ndarray
    bank_conflicts: np.ndarray
    stall_cycles: dict[str, float]
    divergent_branches: int
    reconvergences: int
    warp_resident_cycles: float
    region_tx: dict[str, int]
    region_bytes: dict[str, int]
    regions: tuple
    flops: float
    pipeline_bytes: int
    pipeline_transactions: int
    occupancy_theoretical: float
    device: dict
    per_sm: list[SMProfile] = field(repr=False, default_factory=list)
    blocks: list[dict] = field(default_factory=list)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_runs(
        cls, lk, runs, device, toolchain, grid, block, cycles, occupancy,
        stats,
    ) -> "KernelProfile":
        """Merge the per-SM profiles of one launch, in SM order."""
        profiles = [run.profile for run in runs if run.profile is not None]
        n = len(lk.instructions)
        merged = {name: None for name in _ARRAY_FIELDS}
        for name in _ARRAY_FIELDS:
            acc = None
            for p in profiles:
                arr = getattr(p, name)
                acc = arr.copy() if acc is None else acc + arr
            merged[name] = acc if acc is not None else np.zeros(n)
        stall = {reason: 0.0 for reason in STALL_REASONS}
        region_tx: dict[str, int] = {}
        region_bytes: dict[str, int] = {}
        div = reconv = 0
        resident = 0.0
        for p in profiles:
            for k, v in p.stall_cycles.items():
                stall[k] = stall.get(k, 0.0) + v
            for k, v in p.region_tx.items():
                region_tx[k] = region_tx.get(k, 0) + v
            for k, v in p.region_bytes.items():
                region_bytes[k] = region_bytes.get(k, 0) + v
            div += p.divergent_branches
            reconv += p.reconvergences
            resident += float(p.warp_resident_cycles)
        ops = [ins.op for ins in lk.instructions]
        flops = float(
            sum(
                int(merged["lanes"][pc]) * FLOPS_PER_OP[op]
                for pc, op in enumerate(ops)
                if op in FLOPS_PER_OP
            )
        )
        blocks = []
        lo_tx = merged["tx_uncoalesced"]
        for blk in split_blocks(lk):
            sl = slice(blk.start, blk.end)
            blocks.append(
                {
                    "start": blk.start,
                    "end": blk.end,
                    "kind": blk.kind,
                    "warp_instructions": int(merged["issue_count"][sl].sum()),
                    "issue_cycles": float(merged["issue_cycles"][sl].sum()),
                    "tx_uncoalesced": int(lo_tx[sl].sum()),
                    "bytes": int(merged["mem_bytes"][sl].sum()),
                }
            )
        props = device
        dev_info = {
            "num_sms": props.num_sms,
            "sps_per_sm": props.sps_per_sm,
            "clock_mhz": props.clock_mhz,
            "max_warps_per_sm": props.max_warps_per_sm,
            "bytes_per_cycle": props.memory.bytes_per_cycle,
            "peak_gflops": props.peak_gflops,
        }
        regions = profiles[0].regions if profiles else ()
        return cls(
            kernel_name=lk.name,
            grid=grid,
            block=block,
            cycles=cycles,
            toolchain=str(getattr(toolchain, "value", toolchain)),
            n_pcs=n,
            instr_text=[format_instr(ins) for ins in lk.instructions],
            op_names=[op.name.lower() for op in ops],
            stall_cycles=stall,
            divergent_branches=div,
            reconvergences=reconv,
            warp_resident_cycles=resident,
            region_tx=dict(sorted(region_tx.items())),
            region_bytes=dict(sorted(region_bytes.items())),
            regions=regions,
            flops=flops,
            pipeline_bytes=stats.memory.bytes_moved,
            pipeline_transactions=stats.memory.transactions,
            occupancy_theoretical=occupancy.occupancy(device),
            device=dev_info,
            per_sm=list(profiles),
            blocks=blocks,
            **{name: merged[name] for name in _ARRAY_FIELDS},
        )

    # -- derived metrics ------------------------------------------------

    @property
    def warp_instructions(self) -> int:
        return int(self.issue_count.sum())

    @property
    def thread_instructions(self) -> int:
        return int(self.lanes.sum())

    @property
    def warp_execution_efficiency(self) -> float:
        """Active lanes per issue slot: 1.0 = never divergent."""
        issued = self.warp_instructions
        if not issued:
            return 1.0
        return self.thread_instructions / (32.0 * issued)

    @property
    def sm_cycles_total(self) -> float:
        return float(sum(p.end_cycle for p in self.per_sm))

    @property
    def occupancy_achieved(self) -> float:
        """Average resident warps per SM cycle / max warps per SM."""
        total = self.sm_cycles_total
        if total <= 0:
            return 0.0
        max_warps = self.device["max_warps_per_sm"]
        return self.warp_resident_cycles / (total * max_warps)

    @property
    def transactions(self) -> int:
        return int(self.tx_coalesced.sum() + self.tx_uncoalesced.sum())

    @property
    def uncoalesced_transactions(self) -> int:
        return int(self.tx_uncoalesced.sum())

    @property
    def total_stall_cycles(self) -> float:
        return float(sum(self.stall_cycles.values()))

    def hot_instructions(self, top: int = 5) -> list[dict]:
        """The ``top`` pcs by issue-port cycles (the "hot op" list)."""
        order = np.argsort(self.issue_cycles)[::-1]
        out = []
        for pc in order[:top]:
            pc = int(pc)
            if self.issue_count[pc] == 0:
                continue
            out.append(self.instruction_row(pc))
        return out

    def instruction_row(self, pc: int) -> dict:
        return {
            "pc": pc,
            "op": self.op_names[pc],
            "text": self.instr_text[pc],
            "count": int(self.issue_count[pc]),
            "lanes": int(self.lanes[pc]),
            "issue_cycles": float(self.issue_cycles[pc]),
            "tx_coalesced": int(self.tx_coalesced[pc]),
            "tx_uncoalesced": int(self.tx_uncoalesced[pc]),
            "bytes": int(self.mem_bytes[pc]),
            "replays": int(self.replays[pc]),
            "mem_latency": float(self.mem_latency[pc]),
            "bank_conflicts": int(self.bank_conflicts[pc]),
        }

    def as_dict(self) -> dict:
        """Full JSON-safe dump, including per-SM blocks (parity tests
        compare this across execution modes)."""
        return {
            "kernel": self.kernel_name,
            "grid": self.grid,
            "block": self.block,
            "cycles": float(self.cycles),
            "toolchain": self.toolchain,
            "warp_instructions": self.warp_instructions,
            "thread_instructions": self.thread_instructions,
            "issue_count": self.issue_count.tolist(),
            "lanes": self.lanes.tolist(),
            "issue_cycles": self.issue_cycles.tolist(),
            "tx_coalesced": self.tx_coalesced.tolist(),
            "tx_uncoalesced": self.tx_uncoalesced.tolist(),
            "mem_bytes": self.mem_bytes.tolist(),
            "replays": self.replays.tolist(),
            "mem_latency": self.mem_latency.tolist(),
            "bank_conflicts": self.bank_conflicts.tolist(),
            "stall_cycles": {k: float(v) for k, v in self.stall_cycles.items()},
            "divergent_branches": self.divergent_branches,
            "reconvergences": self.reconvergences,
            "warp_resident_cycles": float(self.warp_resident_cycles),
            "region_tx": dict(self.region_tx),
            "region_bytes": dict(self.region_bytes),
            "flops": self.flops,
            "pipeline_bytes": self.pipeline_bytes,
            "pipeline_transactions": self.pipeline_transactions,
            "occupancy_theoretical": self.occupancy_theoretical,
            "occupancy_achieved": self.occupancy_achieved,
            "warp_execution_efficiency": self.warp_execution_efficiency,
            "blocks": [dict(b) for b in self.blocks],
            "per_sm": [p.as_dict() for p in self.per_sm],
        }

"""Control-flow structure of a :class:`~repro.cudasim.lower.LoweredKernel`.

The fastpath compiler (:mod:`repro.cudasim.fastpath`) executes
*straight-line* stretches of a kernel as pre-compiled Python functions and
falls back to the cycle interpreter for everything whose timing couples to
shared SM state.  The split rule is therefore stricter than a classical
CFG: a basic block ends not only at branches and branch targets but at
**every** instruction whose issue interacts with machinery outside the
warp's private register file —

* ``BRA`` / ``EXIT`` — change the pc, the active mask, or the divergence
  stack;
* ``BAR_SYNC`` — couples warps of a block (arrival order matters);
* ``LD_GLOBAL`` / ``ST_GLOBAL`` / ``LD_TEX`` — enter the shared per-SM
  memory pipeline, whose queueing discipline is order-sensitive;
* ``LD_SHARED`` / ``ST_SHARED`` — serialized by bank-conflict degree.

What remains inside a block is pure ALU/SFU/predicate work that touches
only the warp's registers, predicates and scoreboard — exactly the part
that can be fused into one compiled call without perturbing the
cycle-accurate schedule.

Branch *targets* also start blocks.  That matters beyond the obvious
jump-entry reason: the executor's reconvergence stack only ever parks
lanes at forward-branch targets and at the instruction following a
backward branch, so every possible reconvergence pc is a block leader and
a fused run can never need a mid-block reconvergence check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .isa import Instr, Op
from .lower import LoweredKernel

__all__ = [
    "FUSIBLE_OPS",
    "BasicBlock",
    "block_kind",
    "leaders",
    "split_blocks",
    "fusible_run_ends",
    "replay_schedulable",
]

#: Instructions executable inside a fused block: warp-private effects only
#: (registers, predicates, scoreboard), fixed issue cost, no pc change.
FUSIBLE_OPS = frozenset(
    {
        Op.MOV, Op.ADD, Op.SUB, Op.MUL, Op.MAD, Op.DIV, Op.MIN, Op.MAX,
        Op.NEG, Op.ABS, Op.RSQRT, Op.SQRT,
        Op.IADD, Op.ISUB, Op.IMUL, Op.IMAD, Op.SHL, Op.SHR,
        Op.AND, Op.OR, Op.XOR,
        Op.F2I, Op.I2F,
        Op.SETP, Op.SELP,
        Op.CLOCK, Op.NOP,
    }
)

_KINDS = {
    Op.BRA: "branch",
    Op.EXIT: "exit",
    Op.BAR_SYNC: "barrier",
    Op.LD_GLOBAL: "memory",
    Op.ST_GLOBAL: "memory",
    Op.LD_TEX: "memory",
    Op.LD_SHARED: "memory",
    Op.ST_SHARED: "memory",
}


def block_kind(instr: Instr) -> str:
    """Classification of the block one instruction belongs to:
    ``"straight"`` for fusible ALU work, else the boundary kind."""
    if instr.op in FUSIBLE_OPS:
        return "straight"
    try:
        return _KINDS[instr.op]
    except KeyError:  # pragma: no cover - defensive
        raise ValueError(f"unclassifiable op {instr.op!r}") from None


@dataclass(frozen=True)
class BasicBlock:
    """Half-open instruction range ``[start, end)`` of one block.

    ``kind`` is ``"straight"`` for a fusible ALU run (length >= 1) or the
    boundary kind (``branch``/``exit``/``barrier``/``memory``) for the
    singleton blocks the interpreter keeps handling.  ``successors`` are
    the pcs execution can reach next (``len(instructions)`` stands for
    kernel end); divergence makes both successors of a branch reachable.
    """

    start: int
    end: int
    kind: str
    successors: tuple[int, ...]

    def __len__(self) -> int:
        return self.end - self.start


def leaders(lk: LoweredKernel) -> set[int]:
    """Pcs that start a basic block."""
    lead = {0}
    for pc, ins in enumerate(lk.instructions):
        if ins.op in FUSIBLE_OPS:
            continue
        lead.add(pc)  # boundary instructions are blocks of their own
        lead.add(pc + 1)
        if ins.op is Op.BRA:
            lead.add(lk.targets[ins.target])
    n = len(lk.instructions)
    return {pc for pc in lead if pc < n}


def split_blocks(lk: LoweredKernel) -> list[BasicBlock]:
    """Split ``lk`` into :class:`BasicBlock`\\ s (covering, in pc order)."""
    n = len(lk.instructions)
    if n == 0:
        return []
    lead = sorted(leaders(lk))
    blocks: list[BasicBlock] = []
    for i, start in enumerate(lead):
        end = lead[i + 1] if i + 1 < len(lead) else n
        ins = lk.instructions[start]
        kind = block_kind(ins)
        if kind == "straight":
            succ: tuple[int, ...] = (end,)
        elif ins.op is Op.BRA:
            # Under SIMT divergence both edges are live even for an
            # unconditional branch (inactive lanes fall through and park),
            # so keep fall-through and target unless they coincide.
            succ = tuple(dict.fromkeys((start + 1, lk.targets[ins.target])))
        elif ins.op is Op.EXIT:
            succ = (start + 1,)
        else:  # barrier / memory
            succ = (start + 1,)
        blocks.append(BasicBlock(start=start, end=end, kind=kind, successors=succ))
    return blocks


def replay_schedulable(instr: Instr) -> bool:
    """True when the v2 replay scheduler may issue ``instr`` inside a
    cross-warp vector window.

    The compiled fast path's vectorized executor schedules whole
    multi-block stretches ahead of time and *validates* its assumptions
    at dispatch, so the window rule is looser than the per-warp
    ``FUSIBLE_OPS`` split: besides warp-private ALU work it admits

    * an **unpredicated** ``LD_SHARED`` — assumed conflict-free, its
      real issue cost is checked against the assumption and a mismatch
      aborts the window (a predicated one can skip its destination
      marks entirely, which would make dependent wakes dynamic);
    * ``BRA`` — *static* when it is unconditional or its predicate was
      set in the window by a ``setp`` on known integer constants (a
      counted loop's condition): the replay follows its real direction.
      Any other branch is scheduled under a direction assumption
      (backward taken, forward fall-through) that the dispatcher
      verifies per execution.

    Everything else still parks the row: barriers and global-memory ops
    couple to shared SM state whose timing cannot be pre-validated, and
    ``EXIT`` retires the warp.
    """
    op = instr.op
    if op in FUSIBLE_OPS:
        return True
    if op is Op.LD_SHARED:
        return instr.pred is None
    return op is Op.BRA


def fusible_run_ends(lk: LoweredKernel) -> list[int]:
    """Per-pc end (exclusive) of the fusible run containing that pc.

    ``ends[pc]`` is meaningful only for fusible pcs; boundary pcs map to
    ``pc`` itself (an empty run) so indexing is always safe.  A fused
    executor entering at *any* pc of a straight block — including
    mid-block, after a dependency stall handed the issue port to another
    warp — runs to ``ends[pc]``.
    """
    n = len(lk.instructions)
    ends = [0] * n
    for blk in split_blocks(lk):
        for pc in range(blk.start, blk.end):
            ends[pc] = blk.end if blk.kind == "straight" else pc
    return ends

"""Peephole cleanups: constant folding and dead-code elimination.

Run after the structural transforms to tidy the instruction stream —
e.g. a fully-unrolled loop whose induction register kept a final-value
update nothing reads, or ``IADD r, r, 0`` left by offset folding.
These passes operate on *lowered* kernels so they see real control flow.
"""

from __future__ import annotations

import math

from ..isa import Imm, Instr, Op, Reg
from ..liveness import analyze
from ..lower import LoweredKernel

__all__ = ["eliminate_dead_code", "fold_constants"]

#: Side-effect-free ops whose results may be discarded.
_REMOVABLE = frozenset(
    {
        Op.MOV,
        Op.ADD,
        Op.SUB,
        Op.MUL,
        Op.MAD,
        Op.DIV,
        Op.MIN,
        Op.MAX,
        Op.NEG,
        Op.ABS,
        Op.RSQRT,
        Op.SQRT,
        Op.IADD,
        Op.ISUB,
        Op.IMUL,
        Op.IMAD,
        Op.SHL,
        Op.SHR,
        Op.AND,
        Op.OR,
        Op.XOR,
        Op.F2I,
        Op.I2F,
        Op.SETP,
        Op.SELP,
        Op.NOP,
    }
)


def eliminate_dead_code(lk: LoweredKernel) -> int:
    """Remove instructions whose results are never observed.

    Iterates liveness + sweep to a fixed point; rebuilds branch-target
    indices after each sweep.  Returns the number of instructions removed.
    Loads are *not* removed even when dead — the paper's microbenchmark
    exists precisely because nvcc would do that, and we want the measured
    kernels to keep their loads unless the author removes them.
    """
    removed_total = 0
    while True:
        info = analyze(lk)
        dead: list[int] = []
        for i, ins in enumerate(lk.instructions):
            if ins.op not in _REMOVABLE or not ins.dsts:
                continue
            if ins.op is Op.NOP:
                dead.append(i)
                continue
            if all(d not in info.live_out[i] for d in ins.dsts):
                dead.append(i)
        if not dead:
            return removed_total
        removed_total += sum(
            1 for i in dead if lk.instructions[i].op is not Op.NOP
        )
        _delete_indices(lk, dead)


def _delete_indices(lk: LoweredKernel, indices: list[int]) -> None:
    doomed = set(indices)
    # Remap label targets: count survivors before each old index.
    new_index = []
    survivors = 0
    for i in range(len(lk.instructions) + 1):
        new_index.append(survivors)
        if i < len(lk.instructions) and i not in doomed:
            survivors += 1
    # new_index[i] = position of old instruction i in the new stream if it
    # survives; for targets we need "first survivor at or after i".
    remapped: dict[str, int] = {}
    for label, tgt in lk.targets.items():
        j = tgt
        while j in doomed:
            j += 1
        remapped[label] = new_index[j] if j < len(lk.instructions) else survivors
    lk.instructions = [
        ins for i, ins in enumerate(lk.instructions) if i not in doomed
    ]
    lk.targets = remapped


def _as_number(op: Op, value: float):
    if op in (Op.IADD, Op.ISUB, Op.IMUL, Op.IMAD, Op.SHL, Op.SHR,
              Op.AND, Op.OR, Op.XOR, Op.F2I):
        return int(value)
    return float(value)


_FOLDERS = {
    Op.ADD: lambda a, b: a + b,
    Op.SUB: lambda a, b: a - b,
    Op.MUL: lambda a, b: a * b,
    Op.DIV: lambda a, b: a / b,
    Op.MIN: min,
    Op.MAX: max,
    Op.IADD: lambda a, b: int(a) + int(b),
    Op.ISUB: lambda a, b: int(a) - int(b),
    Op.IMUL: lambda a, b: int(a) * int(b),
    Op.SHL: lambda a, b: int(a) << int(b),
    Op.SHR: lambda a, b: int(a) >> int(b),
    Op.AND: lambda a, b: int(a) & int(b),
    Op.OR: lambda a, b: int(a) | int(b),
    Op.XOR: lambda a, b: int(a) ^ int(b),
}

_UNARY_FOLDERS = {
    Op.MOV: lambda a: a,
    Op.NEG: lambda a: -a,
    Op.ABS: abs,
    Op.RSQRT: lambda a: 1.0 / math.sqrt(a),
    Op.SQRT: math.sqrt,
    Op.F2I: int,
    Op.I2F: float,
}


def fold_constants(lk: LoweredKernel) -> int:
    """Evaluate instructions whose sources are all immediates.

    Folded instructions become ``MOV dst, Imm`` — still one instruction,
    but cheaper chains become visible to DCE.  MAD/IMAD with constant
    sources fold too.  An operation the host cannot evaluate (division
    by zero, square root of a negative, overflow) is left to run on the
    device, which yields IEEE inf/NaN instead of failing compilation.
    Returns the number of folds performed.
    """
    folds = 0
    out: list[Instr] = []
    for ins in lk.instructions:
        new = ins
        if ins.pred is None and len(ins.dsts) == 1:
            vals = [s.value for s in ins.srcs if isinstance(s, Imm)]
            all_imm = len(vals) == len(ins.srcs)
            try:
                if all_imm and ins.op in _FOLDERS and len(vals) == 2:
                    new = _mov(
                        ins.dsts[0],
                        _as_number(ins.op, _FOLDERS[ins.op](*vals)),
                    )
                elif all_imm and ins.op in _UNARY_FOLDERS and len(vals) == 1:
                    new = _mov(ins.dsts[0], _UNARY_FOLDERS[ins.op](vals[0]))
                elif all_imm and ins.op in (Op.MAD, Op.IMAD) and len(vals) == 3:
                    result = vals[0] * vals[1] + vals[2]
                    new = _mov(ins.dsts[0], _as_number(ins.op, result))
            except (ArithmeticError, ValueError):
                new = ins
        if new is not ins:
            folds += 1
        out.append(new)
    lk.instructions = out
    return folds


def _mov(dst: Reg, value) -> Instr:
    return Instr(Op.MOV, dsts=(dst,), srcs=(Imm(value),), comment="folded")

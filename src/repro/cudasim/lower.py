"""Lowering: structured kernel IR → flat branch-based instruction stream.

Counted loops lower to the bottom-tested form nvcc emits for simple
kernels, which carries exactly the per-iteration overhead the paper counts
in Sec. IV-A — "one compare, an add, a jump"::

    mov   j, start
  head:
    <body>
    iadd  j, j, step
    setp.lt p, j, stop
    @p bra head

plus, when the trip count is not statically known to be positive, a guard
compare-and-branch before the loop.  ``IfStmt`` lowers to a predicated
branch over its body.

The result is a :class:`LoweredKernel`: a label-free instruction array with
branch targets resolved to instruction indices, ready for register
allocation and execution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import LoweringError
from .ir import IfStmt, Kernel, LoopStmt, RawStmt, Seq, Stmt
from .isa import Imm, Instr, Op, Reg

__all__ = ["LoweredKernel", "lower", "disassemble"]


@dataclass
class LoweredKernel:
    """Executable form of a kernel.

    ``instructions`` contains no ``LABEL`` pseudo-ops; every ``BRA``'s
    ``target`` is a key of ``targets`` which maps to the index of the
    instruction to jump to (possibly ``len(instructions)`` for a branch to
    the end).  ``reg_map``/``reg_count`` are filled by the register
    allocator (:mod:`repro.cudasim.regalloc`).
    """

    kernel: Kernel
    instructions: list[Instr]
    targets: dict[str, int]
    reg_map: dict[str, int] = field(default_factory=dict)
    pred_map: dict[str, int] = field(default_factory=dict)
    reg_count: int = 0
    pred_count: int = 0
    #: Launch-invariant executor state
    #: (:class:`repro.cudasim.executor.KernelPlan`), built by the first SM
    #: run and shared by every later one.  The kernel must not be mutated
    #: once it has run.  Never compared, and never pickled: the kernel
    #: cache's disk layer pickles the kernel, and the plan holds
    #: ``exec``-built code that the next process rebuilds on first run.
    exec_plan: object = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["exec_plan"] = None
        return state

    @property
    def name(self) -> str:
        return self.kernel.name

    @property
    def shared_words(self) -> int:
        return self.kernel.shared_words

    @property
    def static_instruction_count(self) -> int:
        return sum(1 for i in self.instructions if i.is_real)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LoweredKernel {self.name!r} {len(self.instructions)} instrs, "
            f"{self.reg_count} regs>"
        )


class _Lowerer:
    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.out: list[Instr] = []
        self._labels = itertools.count()

    def fresh_label(self, stem: str) -> str:
        return f".{stem}_{next(self._labels)}"

    def emit(self, instr: Instr) -> None:
        self.out.append(instr)

    def lower_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, RawStmt):
            # Raw LABELs come from hand-written / assembled kernels; the
            # lowerer's own labels are dot-prefixed so they never collide
            # (duplicates are caught at resolution either way).
            self.emit(stmt.instr)
        elif isinstance(stmt, Seq):
            for s in stmt:
                self.lower_stmt(s)
        elif isinstance(stmt, LoopStmt):
            self.lower_loop(stmt)
        elif isinstance(stmt, IfStmt):
            self.lower_if(stmt)
        else:  # pragma: no cover - defensive
            raise LoweringError(f"cannot lower {stmt!r}")

    def lower_loop(self, loop: LoopStmt) -> None:
        if loop.unroll not in (None, 1):
            raise LoweringError(
                f"loop carries unexpanded unroll pragma {loop.unroll!r}; "
                f"run repro.cudasim.transforms.unroll first"
            )
        head = self.fresh_label("loop")
        end = self.fresh_label("endloop")
        trip = loop.static_trip_count()
        if trip == 0:
            return
        self.emit(
            Instr(Op.MOV, dsts=(loop.var,), srcs=(loop.start,),
                  comment="loop init")
        )
        guard_pred = None
        if trip is None:
            # Dynamic bounds: guard against a zero-trip loop.
            guard_pred = Reg(f"p$guard{next(self._labels)}")
            cmp = "ge" if loop.step > 0 else "le"
            self.emit(
                Instr(Op.SETP, dsts=(guard_pred,),
                      srcs=(loop.var, loop.stop), cmp=cmp,
                      comment="loop guard")
            )
            self.emit(Instr(Op.BRA, target=end, pred=guard_pred))
        self.emit(Instr(Op.LABEL, target=head))
        self.lower_stmt(loop.body)
        self.emit(
            Instr(Op.IADD, dsts=(loop.var,), srcs=(loop.var, Imm(loop.step)),
                  comment="loop incr")
        )
        back_pred = Reg(f"p$loop{next(self._labels)}")
        cmp = "lt" if loop.step > 0 else "gt"
        self.emit(
            Instr(Op.SETP, dsts=(back_pred,), srcs=(loop.var, loop.stop),
                  cmp=cmp, comment="loop cond")
        )
        self.emit(Instr(Op.BRA, target=head, pred=back_pred))
        self.emit(Instr(Op.LABEL, target=end))

    def lower_if(self, stmt: IfStmt) -> None:
        skip = self.fresh_label("endif")
        # Branch over the body when the predicate does NOT select it.
        self.emit(
            Instr(Op.BRA, target=skip, pred=stmt.pred,
                  pred_neg=not stmt.negate)
        )
        self.lower_stmt(stmt.body)
        self.emit(Instr(Op.LABEL, target=skip))


def lower(kernel: Kernel) -> LoweredKernel:
    """Flatten ``kernel`` and resolve labels to instruction indices."""
    lw = _Lowerer(kernel)
    lw.lower_stmt(kernel.body)
    # Ensure the stream terminates.
    if not lw.out or lw.out[-1].op not in (Op.EXIT,):
        lw.emit(Instr(Op.EXIT, comment="implicit exit"))
    # Strip labels, building target indices.
    instructions: list[Instr] = []
    targets: dict[str, int] = {}
    for ins in lw.out:
        if ins.op is Op.LABEL:
            if ins.target in targets:
                raise LoweringError(f"duplicate label {ins.target!r}")
            targets[ins.target] = len(instructions)
        else:
            instructions.append(ins)
    for ins in instructions:
        if ins.op is Op.BRA and ins.target not in targets:
            raise LoweringError(f"branch to unknown label {ins.target!r}")
    return LoweredKernel(kernel=kernel, instructions=instructions, targets=targets)


def disassemble(lk: LoweredKernel) -> str:
    """Readable listing with label back-annotations (debugging aid)."""
    by_index: dict[int, list[str]] = {}
    for label, idx in lk.targets.items():
        by_index.setdefault(idx, []).append(label)
    lines: list[str] = [f"// kernel {lk.name}  regs={lk.reg_count}"]
    for i, ins in enumerate(lk.instructions):
        for label in by_index.get(i, ()):
            lines.append(f"{label}:")
        lines.append(f"  {i:4d}  {ins}")
    for label in by_index.get(len(lk.instructions), ()):
        lines.append(f"{label}: // end")
    return "\n".join(lines)

"""Trace-compiled warp execution: the executor's compiled fast path.

The reference interpreter (:class:`~repro.cudasim.executor.SMExecutor`)
dispatches every dynamic instruction through a chain of ``isinstance``
checks, dict lookups and fresh operand lists — roughly 25 µs per warp
instruction, which makes the *simulator* the bottleneck long before the
modeled G80 is (see ISSUE 4 / BENCH_exec.json).  This module removes that
overhead without perturbing a single simulated cycle:

1. :mod:`repro.cudasim.cfg` splits the lowered kernel into basic blocks
   at branch / barrier / exit / memory-op boundaries.  Everything inside
   a block touches only the warp's private register file, predicates and
   scoreboard.
2. :func:`compile_fastpath` generates Python source with one issue
   handler *template* per distinct in-block instruction shape — float32
   rounding preserved op for op — and ``exec``s it into a module.  Which
   template each pc instantiates, with which register slots and
   immediates, is a ``(pc, template, args)`` bind table applied once to
   build the :class:`FastProgram`'s steps, so the module's size is set
   by the number of shapes, not of pcs (a fully unrolled kernel compiles
   as fast as a rolled one).  A program is built once per kernel and
   device timing, steps included, and lives on the kernel's
   :class:`~repro.cudasim.executor.KernelPlan`, keyed by
   :class:`~repro.cudasim.device.DeviceProperties`: it reads nothing
   else, so every toolchain and every device of a group shares it.  Like
   a compiled CUDA kernel it is never rebound: each SM run passes its
   launch's values (block and grid dimensions, kernel parameters) to
   every step as one argument ``L``, cast once per run.
3. :class:`FastSMExecutor` replaces the O(warps) round-robin rescan with
   a cached wake-time list (invalidated on scoreboard writes and barrier
   release) and keeps all resident warps' register files, predicates and
   scoreboards stacked in one per-SM arena (``(regs, warps, lanes)``
   arrays; each :class:`WarpState` holds row views).
4. The templates are *data-only* and run on a stack of arena rows: one
   in-place ufunc per op (``out=`` the float64 destination rows,
   computing in float32 or int64 through the ufunc's own casts, under
   ``where=`` the active mask).  Scoreboard marks, issue counts and lane
   counts are written by the caller.  Warps sitting at the same pc of
   the same basic block are *batched*: the cross-warp scheduler runs one
   step over all of their rows, and writes the marks and counts once per
   run of steps, a row alone at its pc being a run of one row.  The
   straight-line stretches of a warp that is the only one ready run
   through a fused driver inlined in :meth:`FastSMExecutor._run` that
   replays the interpreter's exact stall/idle accounting while other
   warps sleep, with the same templates on the warp's one arena row.
   Divergence, barriers and per-warp-divergent scoreboard timing fall
   back to that per-warp path; :func:`vec_counters` counts every
   fallback and abort by reason.
5. Congruent SMs of a launch run as one *gang* whose arena rows stack
   every member's warps, so each step runs over all of them at once
   (see below).

Bit-identity argument
---------------------

Basic blocks may NOT be fused blindly: when several warps are ready the
interpreter interleaves them instruction by instruction on the shared SM
clock, and the memory pipeline's queue order depends on that
interleaving.  The fused driver therefore only runs ahead while the
executing warp is the *only* ready warp:

* other warps' wake times are constant during a fused run — ALU blocks
  cannot release barriers, retire warps or touch the memory pipeline —
  so ``t_other`` (earliest wake among other warps) is computed once;
* the run stops (a) at the block end, (b) as soon as ``t_other <= now``
  (the round-robin scan would pick the other warp next: after an issue
  the issuing warp is last in scan order), or (c) on a dependency stall
  that another warp would win (``t_other <= wake``), in which case the
  driver returns *without* accounting and the outer loop reproduces the
  interpreter's scan and idle-advance literally;
* per-issue accounting inside the run mirrors the interpreter's scan:
  every countable other warp contributes one scoreboard stall per issue,
  and a solo stall adds ``countable_others + 1`` stalls plus the idle
  gap, in the same float order;
* reconvergence pcs are always block leaders (see :mod:`.cfg`), so the
  divergence-stack check is needed only at run entry.

The v2 cross-warp scheduler is a *replay*
(:meth:`FastSMExecutor._vreplay` /
:meth:`FastSMExecutor._vdispatch_replay`), the only one, profiled or
not: the interpreter's round-robin scan is simulated once in pure
Python over a window of schedulable pcs
(:func:`repro.cudasim.cfg.replay_schedulable` — fusible ALU work plus
unpredicated shared loads and branches) for every countable warp of
the SM, and the resulting issue plan is memoized on the shared program
keyed by the warps' pc and entry-wake configuration and their *entry
constants* (below).  Every simulated
time is a dyadic rational, so float64 sums are exact in any
association order and the plan's offsets from dispatch time hold for
any dispatch clock.  Shared loads are scheduled at their
conflict-free cost.  The replay tracks, per row, the integer constants
its registers hold: set by a ``mov`` in the window, or read at
dispatch — the loop counters and tile cursors live at the row's pc,
when every active lane of every gang member holds the same exact
integer — then advanced by unpredicated ``iadd`` steps of integers, as
a rolled loop counts and walks its tile.  A load is *static* when its
base register holds such a constant and the address is aligned and in
bounds: every active lane then reads the same words, a broadcast that
costs exactly that, and the window holds no stores, so it is as
state-invisible as an ALU op and needs no check.  A branch is *static*
when it is unconditional or its predicate comes from a ``setp`` on such
constants and integer immediates in the window, as a counted loop's
``setp.lt p, j, 128`` does: the replay follows its real direction, so
the plan leaves a counted loop at its real trip count, and the branch
only adds its issue and lane counts.  Within each segment
between validated events, range groups (the rows at one pc, per
maximal range of consecutive rows, a lone row included; static loads
also at one address, each row reading its own block; static branches
also going one way) fold into
stacked steps over their rows, and the groups of one row range become
one *run event*: its steps execute back to back over those rows (a
static load as one read of a stacked view of the rows' shared
memory), then one precomputed ``(rows, k)`` offset array writes every
scoreboard mark the run leaves behind and its issue and lane counts
are added at once.  A run can go round a loop many times.  So resident
blocks that run out of phase fold block by block.  A plan holds run
events and validated events only.
The other loads and branches are validated, the branches scheduled
under a direction assumption (backward taken, forward fall-through): at
dispatch each such event is
either proven by a cheap vectorized check (whole-warp broadcast load,
uniform predicate) or executed through the real ``_issue``, and any
deviation — cost, direction, or a mask rebind from divergence —
aborts the window.  Every validated event carries the replay's state
as of its issue, and one routine (:meth:`FastSMExecutor._vend`) ends
every window from such a state, at an abort or at the plan's cut: it
restores warp clocks, pcs and the exact stall/idle attribution of the
prefix.  Mixed
resident blocks whose divergence stacks reach into the window's
visited pc range fall back before dispatch.  The plan also
records each idle advance of its schedule with the rows that can win
it and their in-window scoreboard marks, so a profiled dispatch
attributes every gap to the stall reason the interpreter's scan would
(:meth:`FastSMExecutor._vgaps`): profiling changes no scheduling
decision.

Gangs extend the argument across SMs.  The SMs of a launch that hold
the same number of blocks (:func:`repro.cudasim.executor.run_sms`
groups them from launch geometry alone) start *congruent*: the same
warps at the same pcs with the same clocks, differing only in block ids
and data.  One :class:`FastSMExecutor` drives them as a gang: one scan,
one wake list and one replay plan, computed from the leader's warps,
over an arena whose rows interleave the members.  This is exact for as
long as the members stay congruent, because everything the scheduler
decides from — pcs, wake times, masks, barrier and done state — is then
the same in every member:

* fusible steps and static shared loads depend on no data but their
  own rows, so one call over all members' rows gives each member what
  its own call would, and their scoreboard marks are the same;
* a global or shared access (validated shared loads included) or a
  barrier is one *stacked request* over the warp's adjacent member
  rows (:meth:`~repro.cudasim.executor.SMExecutor._issue_stacked`,
  the interpreter's own access rules run on ``M × 32`` lanes): one pass
  computes every member's lane masks and addresses, one gather or
  scatter moves every member's data (the members' blocks at one
  resident slot keep their shared memory as rows of one stack), and
  one vectorized pass classifies all 2M half-warps' coalescing; each
  member then makes its own memory pipeline request, counts,
  scoreboard marks and barrier arrival, and a member with no active
  lane makes no request;
* the other data-dependent outcomes run per member, through the
  member's own executor (its stats, texture cache and blocks):
  ``_issue`` for texture fetches, exits, branches and any pc with a
  reconvergence pending; so do the lane counts of predicated steps,
  which feed only ``thread_instructions``;
* after each of those, every member's outcome — clock, pc, active mask,
  divergence depth, scoreboard, barrier and done state — is compared
  with the leader's.  Equal outcomes keep the gang congruent.  A member
  whose outcome differs leaves at that instruction: inside a window the
  abort reconstruction ends the window for every member (it is exact
  after any event, matched or not), the leaver copies its rows into an
  arena of its own, and it later resumes alone from its own clock, the
  scan cursor and its block queue — exactly where a lone run of that SM
  would stand.

Scan stalls, idle cycles and the per-pc issue counts are the gang's:
they are counted once and handed to each member as it leaves or the
gang ends.  Members interleave their global stores instruction by
instruction, all of them in one scatter, instead of running one SM
after another.  Every kernel in this repository is race-free — the SMs
of a launch write disjoint ranges and never read each other's writes —
so that order is invisible.  A stacked access checks every active
lane's alignment and bounds before it moves anything; if one would
fault, the members issue it one at a time, so the same typed error
comes from the same member as in a lone run.  A trace hook or the
profiler observes one SM's accesses in program order, so those
launches run their SMs one at a time.

The switch between the two is a boolean: the reference interpreter
stays available behind ``REPRO_EXEC_FASTPATH=0`` or
``Device(fastpath=False)``, and ``=1`` or ``fastpath=True`` (the
default) selects this module.  ``tests/test_fastpath.py`` pins heap
bytes, :class:`KernelStats`, :class:`KernelProfile` and end cycles
across both for every layout × coalescing policy.
"""

from __future__ import annotations

import operator
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..telemetry import runtime as _telemetry
from .cfg import FUSIBLE_OPS, fusible_run_ends, replay_schedulable
from .device import DeviceProperties
from .envflags import env_mapped
from .errors import DeadlockError, ExecutionError
from .executor import STACKED_OPS, WARP, BlockState, SMExecutor, WarpState
from .isa import ISSUE_CLASS, SFU_OPS, Imm, Op, Param, Reg, Special, SReg
from .lower import LoweredKernel
from .memory import SharedMemory

__all__ = [
    "FASTPATH_ENV",
    "FASTPATH_MODES",
    "FastProgram",
    "fastpath_enabled",
    "compile_fastpath",
    "vec_counters",
    "reset_vec_counters",
    "FastSMExecutor",
]

#: Environment switch: ``0``/``false``/``no``/``off`` forces the
#: reference interpreter, ``1``/``true``/``yes``/``on`` (the default when
#: unset) the compiled path.  Parsed strictly by :func:`env_mapped`: any
#: other value is rejected.
FASTPATH_ENV = "REPRO_EXEC_FASTPATH"

#: Spelling → switch for :data:`FASTPATH_ENV`.
FASTPATH_MODES = {
    "0": False, "false": False, "no": False, "off": False,
    "1": True, "true": True, "yes": True, "on": True,
}

_F64 = np.float64
_INF = float("inf")
_NAN = float("nan")

_CMP_UFUNCS = {
    "lt": "less",
    "le": "less_equal",
    "gt": "greater",
    "ge": "greater_equal",
    "eq": "equal",
    "ne": "not_equal",
}
#: The same comparisons on the replay's tracked constants (Python
#: floats compare as the float64 ufuncs do).
_CMP_OPS = {
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
    "ne": operator.ne,
}


def fastpath_enabled(override: bool | None = None) -> bool:
    """Resolve the fastpath switch: ``True`` compiled, ``False``
    interpreter.

    An explicit ``override`` wins over the environment.  ``None`` reads
    :data:`FASTPATH_ENV` strictly through :data:`FASTPATH_MODES`, so
    ``=off`` can never silently *enable* the fast path and a typo fails
    loudly; unset means ``True``.  Any other type raises
    :class:`TypeError`.
    """
    if override is None:
        return env_mapped(FASTPATH_ENV, FASTPATH_MODES, default=True)
    if not isinstance(override, bool):
        raise TypeError(
            f"fastpath must be True, False or None; got {override!r}"
        )
    return override


@dataclass(frozen=True, eq=False)
class FastProgram:
    """One lowered kernel compiled for the fast path: an immutable value
    shared by every SM, launch, device and thread that runs the kernel.

    ``steps`` holds one data-only step per fusible pc (``None``
    elsewhere), called as ``s(R, P, tid, cta, act, L, t=None)`` on a
    stack of arena rows (``(warps, lanes)``); ``L`` is the launch's
    :meth:`launch_values`.  ``deps``/``ends`` and the ``flush_*`` arrays
    are metadata used by the fused driver and the stat flush.  The
    static per-pc timing every caller of a step applies itself is
    ``costs`` (issue cycles), ``lats`` (result latency, ``None`` when
    the op writes no scoreboard entry) and ``writes`` (destination
    register slot, ``-1`` when none).
    """

    n: int
    steps: tuple
    #: ``(source, operand context)`` of each ``L[k]`` the steps read:
    #: ``source`` is a kernel parameter's name, :attr:`Special.NTID` or
    #: :attr:`Special.NCTAID`, the context a :data:`_SCALAR_CASTS` key.
    launch: tuple
    deps: list  # per-pc tuple of blocking register slots (may be empty)
    ends: list[int]  # per-pc fusible-run end (cfg.fusible_run_ends)
    # Stat flush: the kernel's distinct ops (first-appearance order),
    # each pc's index into them, and each pc's profiler issue cost.
    flush_ops: list
    flush_group: np.ndarray
    flush_cost: np.ndarray
    costs: list  # per-pc issue cycles (None: not fusible)
    lats: list  # per-pc result latency (None: no mark)
    writes: list  # per-pc scoreboarded dst slot (-1: none)
    #: Per-pc ``(issue cycles, result latency, dst slots, address reg
    #: slot, byte offset)`` for the memory ops the replay scheduler can
    #: place inside a window — unpredicated shared loads, whose result
    #: latency is constant and whose issue cost is the conflict-free
    #: one: proven statically for a constant broadcast address,
    #: validated at execution time otherwise.  ``None`` for every other
    #: pc.
    mem: list
    #: Per-pc ``(target, pred slot, pred negated, assumed taken, issue
    #: cycles)`` for branches (see :func:`_bra_costs`): ``pred slot`` is
    #: ``-1`` for an unconditional branch, and ``assumed taken`` is the
    #: direction a validated branch is scheduled under.  ``None`` for
    #: every other pc.
    bra: list
    #: Per-pc replay-window membership
    #: (:func:`repro.cudasim.cfg.replay_schedulable`): fusible ALU work
    #: plus the shared loads and branches.
    vok: list
    #: Per-pc ``(register slots written, constant, source slot,
    #: predicate write)`` for the replay's constant tracking (see
    #: :func:`_reg_writes`).
    regw: list
    #: ``{pc: register slots}`` a dispatch reads as entry constants at
    #: a row entering there (see :func:`_entry_regs`).
    live: dict
    #: Fusible pcs whose step needs more than the stack: CLOCK steps
    #: take the per-row issue moments, predicated steps return their
    #: lane mask (the caller counts its active lanes).
    clock_pcs: frozenset = frozenset()
    pred_pcs: frozenset = frozenset()
    #: Scheduler-replay cache keyed by ``(pcs, k0, dkey, entry)`` —
    #: schedules are pure functions of the program and the key, so the
    #: cache lives here and is shared by every SM executor and launch of
    #: this program.
    vmeta: dict = field(default_factory=dict)

    def launch_values(self, block_dim: int, grid_dim: int, params) -> tuple:
        """The steps' ``L`` for one launch: each value of :attr:`launch`,
        cast to its operand context."""
        values = {**params, Special.NTID: block_dim, Special.NCTAID: grid_dim}
        return tuple(
            _SCALAR_CASTS[ctx](values[src]) for src, ctx in self.launch
        )


# --------------------------------------------------------------- codegen


class _Args:
    """Collects the per-instruction values a step template is bound to.

    Register slots, predicate slots and immediates become factory
    parameters (``x0, x1, …``), so every instruction with the same
    *shape* shares one template ``def`` — unrolled kernels repeat a few
    dozen shapes thousands of times, and deduplicating keeps the
    generated module's compile time flat in the unroll factor.
    """

    __slots__ = ("names", "values")

    def __init__(self):
        self.names: list[str] = []
        self.values: list = []

    def add(self, value) -> str:
        name = f"x{len(self.names)}"
        self.names.append(name)
        self.values.append(value)
        return name


#: Conversions of a scalar operand (immediate, kernel parameter, block or
#: grid dimension) per operand context — the interpreter's ``_f32`` /
#: ``_i64`` / ``asarray(x, float64)``.  Immediates are converted once at
#: codegen, launch values once per SM run
#: (:meth:`FastProgram.launch_values`).
_SCALAR_CASTS = {
    "f32": lambda v: np.asarray(v, dtype=np.float32),
    "i64": lambda v: np.asarray(np.asarray(v, dtype=_F64), dtype=np.int64),
    "f64": lambda v: np.asarray(v, dtype=_F64),
}

#: Numpy ufunc per vector-template op, computed in float32 (``f32``) or
#: int64 (``i64``) by the ufunc's own casting loop.
_F32_UFUNCS = {
    Op.ADD: "add", Op.SUB: "subtract", Op.MUL: "multiply",
    Op.DIV: "divide", Op.MIN: "minimum", Op.MAX: "maximum",
    Op.SQRT: "sqrt", Op.NEG: "negative", Op.ABS: "absolute",
}
_I64_UFUNCS = {
    Op.IADD: "add", Op.ISUB: "subtract", Op.IMUL: "multiply",
    Op.SHL: "left_shift", Op.SHR: "right_shift",
    Op.AND: "bitwise_and", Op.OR: "bitwise_or", Op.XOR: "bitwise_xor",
}
#: Keyword tails selecting a ufunc's computation type.
_F32_KW = ", dtype=_F32, casting='unsafe'"
_I64_KW = ", dtype=_I64, casting='unsafe'"
_F64_KW = ", dtype=_F64, casting='unsafe'"


def _voperand(
    s, ctx: str | None, scalars: dict, lk: LoweredKernel, args: _Args
) -> str:
    """Cross-warp operand: register and predicate slots resolve to
    per-slot ``(warps, lanes)`` rows, ``tid`` to the stacked thread ids,
    ``ctaid`` to the per-row ``(warps, 1)`` block-id column (it varies
    across a cross-block bucket).  Scalars arrive pre-converted to the
    operand context ``ctx`` (see :data:`_SCALAR_CASTS`), so the ufunc's
    casting loop only ever converts vector operands — exactly as
    ``astype`` would."""
    if isinstance(s, Reg):
        if s.is_predicate:
            return f"P[{args.add(lk.pred_map[s.name])}]"
        return f"R[{args.add(lk.reg_map[s.name])}]"
    if isinstance(s, Imm):
        return args.add(_SCALAR_CASTS[ctx](s.value))
    if isinstance(s, Param):
        return _launch_value(scalars, s.name, ctx)
    if isinstance(s, SReg):
        sp = s.special
        if sp is Special.TID:
            return "tid"
        if sp is Special.CTAID:
            return "cta"
        if sp is Special.NTID or sp is Special.NCTAID:
            return _launch_value(scalars, sp, ctx)
        if sp is Special.LANEID:
            return "_lane"
    raise ExecutionError(f"cannot codegen operand {s!r}")


def _launch_value(scalars: dict, source, ctx: str) -> str:
    """Step operand reading launch value ``source`` converted to ``ctx``:
    ``L[k]``, ``k`` the index of ``(source, ctx)`` in ``scalars`` (which
    becomes :attr:`FastProgram.launch`)."""
    return f"L[{scalars.setdefault((source, ctx), len(scalars))}]"


def _emit_vstep(ins, lk: LoweredKernel, scalars: dict) -> tuple[str, _Args]:
    """Data-only template body for one instruction over a warp stack.

    The step computes the instruction for every row of the stack (one
    row for a single warp) in place: one ufunc writes the float64
    destination row through ``out=``, computing in float32 or int64
    (``dtype=``) with the ufunc's own input/output casts, under
    ``where=act`` (``True`` for fully active stacks).  MAD/IMAD and
    RSQRT keep their intermediate in a float32 (int64) temporary, so
    every rounding step matches the interpreter's.  Timing, scoreboard
    marks and issue/lane counters are the caller's job; a predicated
    step returns its lane mask over the stack (the caller counts it,
    per gang member if need be), and ``CLOCK`` reads the per-row issue
    moments ``t``.
    """
    args = _Args()
    op = ins.op
    body: list[str] = []
    mask = "act"
    if ins.pred is not None:
        pi = args.add(lk.pred_map[ins.pred.name])
        body.append(f"m = act & {'~' if ins.pred_neg else ''}P[{pi}]")
        mask = "m"

    def src(k: int, ctx: str | None) -> str:
        return _voperand(ins.srcs[k], ctx, scalars, lk, args)

    if ins.dsts and op is not Op.NOP:
        # Operand slots are bound before the destination's, so one
        # shape always yields the same template text.
        if op in _F32_UFUNCS:
            fn, kw = _F32_UFUNCS[op], _F32_KW
            srcs = [src(k, "f32") for k in range(len(ins.srcs))]
        elif op in _I64_UFUNCS:
            fn, kw = _I64_UFUNCS[op], _I64_KW
            srcs = [src(0, "i64"), src(1, "i64")]
        elif op is Op.MAD or op is Op.IMAD:
            ctx = "f32" if op is Op.MAD else "i64"
            fn, kw = "add", _F32_KW if op is Op.MAD else _I64_KW
            a, b, c = (src(k, ctx) for k in range(3))
            body.append(f"T = np.multiply({a}, {b}{kw})")
            srcs = ["T", c]
        elif op is Op.RSQRT:
            fn, kw = "divide", _F32_KW
            body.append(f"T = np.sqrt({src(0, 'f32')}{_F32_KW})")
            srcs = ["_F1", "T"]
        elif op is Op.F2I:
            fn, kw, srcs = "trunc", _F64_KW, [src(0, "f64")]
        elif op is Op.I2F:
            fn, kw, srcs = "positive", _F32_KW, [src(0, "f64")]
        elif op is Op.SETP:
            fn, kw = _CMP_UFUNCS[ins.cmp], ""
            srcs = [src(0, "f64"), src(1, "f64")]
        elif op is Op.SELP:
            a, b, p = src(0, "f64"), src(1, "f64"), src(2, None)
            body.append(f"v = np.where({p}, {a}, {b})")
            fn, kw, srcs = "positive", _F64_KW, ["v"]
        elif op is Op.MOV:
            fn, kw, srcs = "positive", _F64_KW, [src(0, "f64")]
        elif op is Op.CLOCK:
            fn, kw, srcs = "positive", _F64_KW, ["t"]
        else:
            raise ExecutionError(f"cannot codegen fusible op {op!r}")
        d = ins.dsts[0]
        if d.is_predicate:
            out = f"P[{args.add(lk.pred_map[d.name])}]"
        else:
            out = f"R[{args.add(lk.reg_map[d.name])}]"
        body.append(
            f"np.{fn}({', '.join(srcs)}, out={out}{kw}, where={mask})"
        )
    if mask == "m":
        body.append("return m")
    elif not body:
        body.append("pass")
    return "\n".join(body), args



def _emit_factory(lk: LoweredKernel) -> tuple[list[str], tuple, int, tuple]:
    """Emit the template factory ``make_vsteps``.

    The factory defines the templates — one ``def`` per distinct
    instruction shape — and returns them.  Which template each pc uses,
    with which slots and immediates, is *data*: the returned table of
    ``(pc, template index, args)`` rows, which :func:`_build_steps`
    applies.  The module therefore grows with the number of shapes, not
    of pcs.  Launch values are no part of either: the steps read them
    from their argument ``L``, laid out by the returned ``(source,
    context)`` tuple (:attr:`FastProgram.launch`).

    Returns the source lines, the table, the template count and the
    launch layout.
    """
    scalars: dict = {}
    templates: dict[str, tuple[str, list[str]]] = {}
    table: list[tuple] = []
    for pc, ins in enumerate(lk.instructions):
        if ins.op not in FUSIBLE_OPS:
            continue
        body, args = _emit_vstep(ins, lk, scalars)
        entry = templates.get(body)
        if entry is None:
            entry = (len(templates), list(args.names))
            templates[body] = entry
        table.append((pc, entry[0], tuple(args.values)))
    lines = [
        "",
        "",
        "def make_vsteps():",
        "    _F32 = np.float32",
        "    _F64 = np.float64",
        "    _I64 = np.int64",
        "    _F1 = np.asarray(1.0, _F32)",
        f"    _lane = np.arange({WARP}, dtype=_I64)",
    ]
    names = []
    for tmpl_body, (index, argnames) in templates.items():
        name = f"_V{index}"
        names.append(name)
        lines.append("")
        lines.append(f"    def {name}({', '.join(argnames)}):")
        lines.append("        def s(R, P, tid, cta, act, L, t=None):")
        lines.extend(f"            {ln}" for ln in tmpl_body.splitlines())
        lines.append("        return s")
    lines.append("")
    lines.append(f"    return ({''.join(f'{n}, ' for n in names)})")
    return lines, tuple(table), len(templates), tuple(scalars)


def generate_program(lk: LoweredKernel) -> tuple[str, tuple, tuple]:
    """Source of the program module for ``lk``, its bind table and its
    launch layout (see :func:`_emit_factory`)."""
    lines, table, n_tmpl, launch = _emit_factory(lk)
    head = [
        f"# codegen: fastpath for kernel {lk.name!r} "
        f"({len(table)}/{len(lk.instructions)} pcs fused, "
        f"{n_tmpl} step shapes) -- generated, do not edit",
        "import numpy as np",
    ]
    return "\n".join(head + lines) + "\n", table, launch


def _build_steps(lk: LoweredKernel) -> tuple[tuple, tuple]:
    """Generate and ``exec`` ``lk``'s program module, then instantiate
    one step per fusible pc (``None`` elsewhere).  Returns the steps and
    their launch layout (:attr:`FastProgram.launch`)."""
    source, table, launch = generate_program(lk)
    namespace: dict = {}
    exec(compile(source, f"<fastpath:{lk.name}>", "exec"), namespace)
    templates = namespace["make_vsteps"]()
    steps: list = [None] * len(lk.instructions)
    for pc, index, args in table:
        steps[pc] = templates[index](*args)
    return tuple(steps), launch


def _need_tuples(lk: LoweredKernel) -> list[tuple[int, ...]]:
    """Per-pc registers whose pending status blocks issue (sources plus
    destinations, matching ``executor._prepare``).  Plain tuples: the
    scheduler reads 2–4 scoreboard slots per check, where scalar array
    indexing beats a fancy-index + ``max`` reduction."""
    out = []
    for ins in lk.instructions:
        need = [
            lk.reg_map[s.name]
            for s in ins.srcs
            if isinstance(s, Reg) and not s.is_predicate
        ]
        need.extend(
            lk.reg_map[d.name] for d in ins.dsts if not d.is_predicate
        )
        out.append(tuple(need))
    return out


def _step_costs(
    lk: LoweredKernel, dev: DeviceProperties
) -> tuple[list, list, list]:
    """Per-pc (issue cycles, result latency, scoreboarded dst slot).

    Mirrors the interpreter's ``_issue``: SFU ops (``SFU_OPS``)
    issue/complete on SFU timing, everything else on ALU timing;
    ``SETP``/``CLOCK``/``NOP`` and predicate destinations write no
    scoreboard mark (latency ``None``, slot ``-1``).  Non-fusible pcs
    carry ``None`` costs.
    """
    costs: list = []
    lats: list = []
    writes: list = []
    alu_i, sfu_i = float(dev.alu_issue_cycles), float(dev.sfu_issue_cycles)
    alu_l, sfu_l = float(dev.alu_result_latency), float(dev.sfu_result_latency)
    for ins in lk.instructions:
        if ins.op not in FUSIBLE_OPS:
            costs.append(None)
            lats.append(None)
            writes.append(-1)
            continue
        sfu = ins.op in SFU_OPS
        costs.append(sfu_i if sfu else alu_i)
        lat = None
        if (
            ins.op not in (Op.SETP, Op.CLOCK, Op.NOP)
            and ins.dsts
            and not ins.dsts[0].is_predicate
        ):
            lat = sfu_l if sfu else alu_l
        lats.append(lat)
        writes.append(
            lk.reg_map[ins.dsts[0].name] if lat is not None else -1
        )
    return costs, lats, writes


def _mem_costs(lk: LoweredKernel, dev: DeviceProperties) -> list:
    """Per-pc replay metadata for schedulable memory ops.

    Only unpredicated ``LD_SHARED`` qualifies: its result latency is the
    constant ALU latency and its destination marks are unconditional, so
    dependent wakes stay static.  The issue cost assumes a conflict-free
    access — degree ``lanes`` for an L-word vector load (a float4 read
    is 4 shared accesses even without conflicts).  A load whose address
    the replay proves to be a constant, aligned, in-bounds broadcast
    (*static*, see :meth:`FastSMExecutor._vreplay`) has exactly that
    cost; for any other the dispatcher compares the real cost returned
    by ``_issue`` against it and aborts the window on the first
    mismatch.  A predicated load can skip its destination marks
    entirely when the mask comes up empty, so it parks the row instead.
    """
    alu_i = float(dev.alu_issue_cycles)
    alu_l = float(dev.alu_result_latency)
    out: list = []
    for ins in lk.instructions:
        if ins.op is Op.LD_SHARED and ins.pred is None:
            dsts = tuple(
                lk.reg_map[d.name] for d in ins.dsts if not d.is_predicate
            )
            # Address metadata for the dispatcher's inlined execution of
            # the dominant access shape (register base, fully active,
            # whole-warp broadcast): the base register slot (or -1 when
            # the address is not a plain register) and the byte offset.
            src0 = ins.srcs[0] if ins.srcs else None
            aslot = (
                lk.reg_map[src0.name]
                if isinstance(src0, Reg) and not src0.is_predicate
                else -1
            )
            out.append((alu_i * len(dsts), alu_l, dsts, aslot, ins.offset))
        else:
            out.append(None)
    return out


def _exact(s) -> bool:
    """``s`` is an immediate integer of magnitude at most ``2**24``, so
    exact in float32 and in the register file's float64."""
    if not isinstance(s, Imm):
        return False
    v = float(s.value)
    return v.is_integer() and abs(v) <= 2**24


def _gpr(s) -> bool:
    """``s`` is a general-purpose (non-predicate) register."""
    return isinstance(s, Reg) and not s.is_predicate


def _reg_writes(lk: LoweredKernel) -> list:
    """Per-pc ``(register slots written, constant, source slot,
    predicate write)``.

    ``constant`` is set for two unpredicated writers whose immediate is
    an exact integer (see :func:`_exact`): ``mov reg, imm`` (source
    slot ``-1``) leaves every active lane holding ``imm``; ``iadd reg,
    src, imm`` (source slot ``src``) leaves ``src``'s value plus
    ``imm``, the counter step or tile-cursor advance of a rolled loop.
    The replay tracks these writers per row: a ``mov`` sets a constant,
    an ``iadd`` carries one when ``src`` holds a tracked constant and
    the sum stays within ``2**24``, and every other register write
    invalidates what it overwrites.  Tracked constants prove shared
    loads static, and predicates known.

    ``predicate write`` is ``None`` when the pc writes no predicate,
    else ``(pred slot, test)``.  An unpredicated ``setp`` whose operands
    are registers or exact integer immediates has ``test = (compare,
    slot a, imm a, slot b, imm b)`` (slot ``-1`` for an immediate): when
    its registers hold tracked constants, every active lane gets the
    same outcome, so the row's predicate is *known*, as the ``setp.lt
    p, j, 128`` of a counted loop is.  Any other predicate write
    (``test = None``) makes it unknown again.
    """
    out: list = []
    for ins in lk.instructions:
        slots = ()
        if ins.op is not Op.NOP:
            slots = tuple(lk.reg_map[d.name] for d in ins.dsts if _gpr(d))
        const = None
        src = -1
        imm = ins.srcs[-1] if ins.srcs else None
        if ins.pred is None and slots and _exact(imm):
            if ins.op is Op.MOV:
                const = float(imm.value)
            elif ins.op is Op.IADD and _gpr(ins.srcs[0]):
                const = float(imm.value)
                src = lk.reg_map[ins.srcs[0].name]
        pw = None
        pdst = [d for d in ins.dsts if d.is_predicate]
        if pdst and ins.op is not Op.NOP:
            test = None
            if ins.op is Op.SETP and ins.pred is None and all(
                _gpr(s) or _exact(s) for s in ins.srcs
            ):
                a, b = (
                    (lk.reg_map[s.name], None) if _gpr(s)
                    else (-1, float(s.value))
                    for s in ins.srcs
                )
                test = (_CMP_OPS[ins.cmp], *a, *b)
            pw = (lk.pred_map[pdst[0].name], test)
        out.append((slots, const, src, pw))
    return out


def _entry_regs(lk: LoweredKernel) -> dict:
    """Per-pc register slots a dispatch reads as *entry constants*:
    ``{pc: slots}``, for the pcs with at least one.

    A register is *inductive* when every write to it is an unpredicated
    ``mov`` of an exact integer (see :func:`_exact`) or an unpredicated
    ``iadd`` of one to an inductive register: a loop counter or a tile
    cursor.  This is judged by virtual register name, because the
    allocator reuses slots (the AoS kernel's loop counter shares its
    slot with a temporary of the tile fetch).  The ones a window can
    read as an unpredicated shared load's base or as a static ``setp``
    operand (see :func:`_reg_writes`), directly or through the ``iadd``
    steps that advance them, are read at dispatch wherever they are
    *live* — read on some path before they are overwritten — so a
    window that starts after their ``mov`` knows them too.  Liveness is
    one backward pass over those few registers only.
    """
    ins_all = lk.instructions
    bad: set = set()  # registers a non-inductive write reaches
    adds: dict[str, set] = {}  # register -> its iadd steps' sources
    for ins in ins_all:
        op = ins.op
        if not ins.dsts or op is Op.NOP:
            continue
        ok = (
            (op is Op.MOV or op is Op.IADD)
            and ins.pred is None
            and _exact(ins.srcs[-1])
            and (op is Op.MOV or _gpr(ins.srcs[0]))
        )
        for d in ins.dsts:
            if not ok:
                bad.add(d.name)
            elif op is Op.IADD:
                adds.setdefault(d.name, set()).add(ins.srcs[0].name)
            else:
                adds.setdefault(d.name, set())
    ind = adds.keys() - bad
    while True:
        drop = {r for r in ind if not adds[r] <= ind}
        if not drop:
            break
        ind -= drop
    cand: set = set()
    for ins in ins_all:
        if ins.op is Op.LD_SHARED and ins.pred is None:
            s = ins.srcs[0]
            if _gpr(s) and s.name in ind:
                cand.add(s.name)
        elif ins.op is Op.SETP and ins.pred is None and all(
            _exact(s) or (_gpr(s) and s.name in ind) for s in ins.srcs
        ):
            cand.update(s.name for s in ins.srcs if _gpr(s))
    todo = list(cand)
    while todo:
        new = adds[todo.pop()] - cand
        cand |= new
        todo.extend(new)
    if not cand:
        return {}
    bit = {r: 1 << k for k, r in enumerate(sorted(cand))}
    n = len(ins_all)
    use = [0] * n
    keep = [-1] * n  # bits an unpredicated write leaves unkilled
    jump: dict[int, tuple] = {}  # successors, where not just pc + 1
    for pc, ins in enumerate(ins_all):
        for s in ins.srcs:
            if type(s) is Reg:
                use[pc] |= bit.get(s.name, 0)
        if ins.pred is None and ins.op is not Op.NOP:
            for d in ins.dsts:
                keep[pc] &= ~bit.get(d.name, 0)
        if ins.op is Op.BRA:
            tgt = lk.targets[ins.target]
            jump[pc] = (tgt,) if ins.pred is None else (pc + 1, tgt)
        elif ins.op is Op.EXIT and ins.pred is None:
            jump[pc] = ()
    live = [0] * (n + 1)
    changed = True
    while changed:
        changed = False
        out = 0  # live after pc: live[pc + 1] unless pc jumps
        for pc in range(n - 1, -1, -1):
            succ = jump.get(pc)
            if succ is not None:
                out = 0
                for t in succ:
                    out |= live[t]
            v = use[pc] | (out & keep[pc])
            if v != live[pc]:
                live[pc] = v
                changed = True
            out = v
    slots: dict[int, tuple] = {}  # live set -> its slots
    for v in set(live):
        slots[v] = tuple(sorted({lk.reg_map[r] for r in bit if v & bit[r]}))
    return {pc: slots[v] for pc, v in enumerate(live[:n]) if v}


def _bra_costs(lk: LoweredKernel, dev: DeviceProperties) -> list:
    """Per-pc replay metadata for branches.

    A branch's issue cost is the constant ALU cost and it writes no
    scoreboard entry, so the only unknown is its direction.  A branch is
    *static* when the replay knows that direction: every unconditional
    branch, and one on a predicate the row's window set from tracked
    constants (see :func:`_reg_writes`), as a counted loop's ``setp`` on
    its counter does.  The replay follows a static branch's real
    direction, so a counted loop leaves the plan at its real trip
    count.  Every other branch is *validated*: the replay assumes
    backward branches taken and forward ones falling through (guards are
    rarely taken on the hot path) and keeps scheduling down the assumed
    trajectory; the dispatcher validates it as it executes — a uniform
    predicate matching the assumption is free, anything else runs
    through ``_issue`` and aborts the window exactly on a direction
    mismatch or divergence.
    """
    alu_i = float(dev.alu_issue_cycles)
    out: list = []
    for pc, ins in enumerate(lk.instructions):
        if ins.op is Op.BRA:
            tgt = lk.targets[ins.target]
            if ins.pred is None:
                # Unconditional: taken lanes equal the active mask, so
                # the interpreter always jumps — nothing to validate.
                out.append((tgt, -1, False, True, alu_i))
            else:
                out.append(
                    (
                        tgt,
                        lk.pred_map[ins.pred.name],
                        ins.pred_neg,
                        tgt <= pc,
                        alu_i,
                    )
                )
        else:
            out.append(None)
    return out


def _build_program(lk: LoweredKernel, dev: DeviceProperties) -> FastProgram:
    steps, launch = _build_steps(lk)
    ends = fusible_run_ends(lk)
    costs, lats, writes = _step_costs(lk, dev)
    mem = _mem_costs(lk, dev)
    # Fused ops have static issue costs (SFU ops on SFU timing, all else
    # on ALU timing, as in _step_costs), so the profiler's per-pc
    # issue cycles are count x cost.  The only shared loads counted
    # here are the replay's static and inlined broadcasts, which issue
    # at their conflict-free vector cost.
    ops = [i.op for i in lk.instructions]
    flush_ops = list(dict.fromkeys(ops))
    group_of = {op: g for g, op in enumerate(flush_ops)}
    alu_i, sfu_i = float(dev.alu_issue_cycles), float(dev.sfu_issue_cycles)
    return FastProgram(
        n=len(lk.instructions),
        steps=steps,
        launch=launch,
        deps=_need_tuples(lk),
        ends=ends,
        flush_ops=flush_ops,
        flush_group=np.array([group_of[op] for op in ops], dtype=np.intp),
        flush_cost=np.array(
            [
                m[0] if m is not None else sfu_i if op in SFU_OPS else alu_i
                for op, m in zip(ops, mem)
            ],
            dtype=_F64,
        ),
        clock_pcs=frozenset(
            pc for pc, ins in enumerate(lk.instructions) if ins.op is Op.CLOCK
        ),
        pred_pcs=frozenset(
            pc for pc, ins in enumerate(lk.instructions)
            if ins.op in FUSIBLE_OPS and ins.pred is not None
        ),
        costs=costs,
        lats=lats,
        writes=writes,
        mem=mem,
        bra=_bra_costs(lk, dev),
        vok=[replay_schedulable(ins) for ins in lk.instructions],
        regw=_reg_writes(lk),
        live=_entry_regs(lk),
    )


def compile_fastpath(lk: LoweredKernel, dev: DeviceProperties) -> FastProgram:
    """Compile the fastpath program for one lowered kernel.

    Every call builds; the caller keeps the result on the kernel's
    :class:`~repro.cudasim.executor.KernelPlan`.  A build is counted on
    the telemetry registry as ``cudasim.fastpath.misses`` and wrapped in
    a ``cudasim.fastpath.compile`` span.
    """
    with _telemetry.span("cudasim.fastpath.compile", kernel=lk.name):
        program = _build_program(lk, dev)
    _telemetry.inc("cudasim.fastpath.misses", kernel=lk.name)
    return program


# ------------------------------------------------------------- executor


#: Why a bucket attempt fell back to the per-warp path; every fallback
#: counts exactly one reason, so these sum to ``fallbacks``.
FALLBACK_REASONS = (
    "fallback_bucket",  # fewer than 2 warps, or not one contiguous range
    "fallback_no_plan",  # the replay schedules under 2 issues
    "fallback_pending",  # a pre-window pending exceeds its threshold
    "fallback_reconverge",  # a reconvergence pc inside the window
)

#: Process-local dispatch telemetry for the cross-warp scheduler.  The
#: executor benchmark reads these directly;
#: when the telemetry layer is enabled each SM run also flushes its
#: deltas to the registry as ``cudasim.fastpath.vec.*`` counters.
_VEC_COUNTERS = {
    "dispatches": 0,  # successful cross-warp dispatches
    "warps": 0,  # warps issued through those dispatches
    "instructions": 0,  # warp-instructions issued vectorized
    "fallbacks": 0,  # bucket attempts that fell back to the per-warp path
    **dict.fromkeys(FALLBACK_REASONS, 0),
    "abort_cost": 0,  # replay aborted: shared-load cost mismatch
    "abort_branch": 0,  # replay aborted: branch direction or divergence
    "masked_runs": 0,  # multi-row run events under a partial lane mask
    "row_events": 0,  # steps of one-row runs the dispatches ran
    "row_loads": 0,  # per-row validated shared loads, inline or _issue
    "gang_members": 0,  # SM runs that ran in a gang of two or more
    "gang_splits": 0,  # members that left a gang before it finished
    "gang_stacked": 0,  # member issues served by one stacked request
}


#: Concurrent SM runs (several streams or devices) flush at once.
_VEC_LOCK = threading.Lock()


def vec_counters() -> dict:
    """Snapshot of the cross-warp dispatch counters (process-local)."""
    with _VEC_LOCK:
        return dict(_VEC_COUNTERS)


def reset_vec_counters() -> None:
    """Zero the cross-warp dispatch counters (benchmark bookkeeping)."""
    with _VEC_LOCK:
        for k in _VEC_COUNTERS:
            _VEC_COUNTERS[k] = 0


def _vread(reads: tuple, R: list, S: np.ndarray, act) -> None:
    """Static shared loads of a run's rows: each ``(dst slot, word)``
    writes ``S[word]`` — the ``(rows, 1)`` column of each row's own
    block word in a stacked shared view (see
    :meth:`FastSMExecutor._vshared`) — across the rows' active lanes."""
    if act is True:
        for d, w in reads:
            R[d][...] = S[w]
    else:
        for d, w in reads:
            np.copyto(R[d], S[w], where=act)


class _Run:
    """Run event of a replay plan: the range groups of one row range
    ``rows = (a, b)`` that a segment folds together (see
    :meth:`FastSMExecutor._vreplay`), executed as back-to-back stacked
    steps over the bucket's rows ``a`` to ``b − 1``.  A row alone at its
    pc forms a *one-row* run (``b = a + 1``), whose steps the dispatcher
    counts as per-row work (``row_events``).

    ``pcs`` are the steps in plan order: fusible ALU steps, static
    shared loads and static branches, which may go round a loop many
    times.  ``args`` gives each step's operand: ``None`` for an ALU
    step, a static load's ``(dst slot, word index)`` reads, or the pc a
    static branch goes to (its real direction).  ``issue`` gives the
    steps' ``(steps, b − a)`` issue offsets from dispatch time.  The
    executable form is derived from these by :meth:`build` on first
    execution: plans are memoized, and a window aborted early never
    runs its later events.  ``seq`` stays ``None`` until then.

    ``seq`` executes the steps as ``(ALU pcs, reads)`` chunks, each
    stretch of ALU steps followed by the static loads issued after it
    as ``(dst slot, word index)`` reads (see :func:`_vread`); ``shared``
    says whether there are any.  A static branch runs nothing: it only
    adds its issue and lane counts.  ``cols``/``offs`` hold the final
    scoreboard mark of every register slot the run writes, loads
    included, as ``(b − a, k)`` per-row offsets from dispatch time
    (``None`` when it marks nothing) — a later write of a slot overrides
    an earlier one, exactly as issuing the steps one by one would.
    ``plain`` are the unpredicated pcs, whose lane count is the range's;
    ``times`` gives each ALU step, in ``seq`` order, the ``(b − a, 1)``
    issue offsets a CLOCK step reads (``None`` for every other step).
    ``simple`` runs need neither.  ``conf`` lists the ``(pc,
    conflicts)`` a profiled dispatch adds for multi-word loads: an
    L-word broadcast serializes L-fold, ``(b − a) × (L − 1)`` per group.
    """

    __slots__ = (
        "rows", "pcs", "args", "issue", "seq", "shared", "plain", "cols",
        "offs", "times", "simple", "conf",
    )

    def __init__(self, groups: list[tuple], a: int, b: int) -> None:
        self.rows = (a, b)
        self.args = tuple(g[0] for g in groups)
        self.pcs = tuple(g[1] for g in groups)
        self.issue = np.array([g[2] for g in groups], dtype=_F64)
        self.seq = None

    def build(self, prog: FastProgram) -> None:
        """Derive the executable form.  ``seq`` is set last, so an SM
        run on another thread sees either no form or a complete one."""
        issue = self.issue
        marks: dict[int, tuple] = {}  # slot -> (step index, latency)
        seq: list[tuple] = []
        steps: list[int] = []
        reads: list[tuple] = []
        times: list = []
        conf: list[tuple] = []
        for i, (load, q) in enumerate(zip(self.args, self.pcs)):
            if type(load) is int:
                continue  # a static branch only counts
            if load is None:
                if reads:
                    seq.append((tuple(steps), tuple(reads)))
                    steps, reads = [], []
                steps.append(q)
                times.append(
                    issue[i][:, None] if q in prog.clock_pcs else None
                )
                lat = prog.lats[q]
                if lat is not None:
                    marks[prog.writes[q]] = (i, lat)
                continue
            done = (i, prog.mem[q][1])
            for d, _ in load:
                marks[d] = done
            reads.extend(load)
            if len(load) > 1:
                conf.append((q, issue.shape[1] * (len(load) - 1)))
        seq.append((tuple(steps), tuple(reads)))
        self.shared = any(r for _, r in seq)
        self.conf = tuple(conf)
        self.cols = self.offs = None
        if marks:
            slots = sorted(marks)
            idx, lat = zip(*map(marks.get, slots))
            self.cols = np.array(slots, dtype=np.intp)
            self.offs = np.ascontiguousarray(
                (issue[list(idx)] + np.array(lat)[:, None]).T
            )
        self.plain = tuple(q for q in self.pcs if q not in prog.pred_pcs)
        self.times = tuple(times)
        self.simple = len(self.plain) == len(self.pcs) and not any(
            t is not None for t in self.times
        )
        self.seq = tuple(seq)


class FastSMExecutor(SMExecutor):
    """SM executor running straight-line stretches through codegen.

    Drop-in replacement for :class:`SMExecutor` selected by
    ``run_sms(..., fastpath=True)``; produces bit-identical memory,
    stats and cycle counts (pinned by ``tests/test_fastpath.py``).
    It runs its kernel's one :class:`FastProgram`, whose steps every
    run shares; a run owns only its per-pc issue and lane counts and
    its launch values ``L``.

    The executor keeps every resident warp's register file, predicate
    file and scoreboard stacked in one per-SM arena and dispatches warp
    buckets through one cross-warp scheduler, the replay
    (:meth:`_vdispatch_replay`), whether or not the profiler is on: a
    profiled dispatch makes the same decisions and additionally
    attributes the plan's idle gaps (:meth:`_vgaps`).  Buckets it
    cannot dispatch fall back to the fused driver and the interpreter's
    ``_issue``, one warp at a time.

    ``gang`` lists ``(sm_index, block_ids)`` of other SMs holding as
    many blocks as this one: they run as one *gang* with this executor
    as the leader (see the module docstring).  Each member is an
    executor of its own — stats, memory pipeline, texture cache, block
    queue — but the gang has one round-robin scan, one wake list and one
    arena whose rows interleave the members (row = warp × M + member),
    so every vector step runs over all members at once.  A member whose
    outcome differs from the leader's leaves and finishes alone.
    """

    def __init__(self, *args, gang=(), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # One program per kernel × device timing, shared by every run.
        program = self.plan.programs.get(self.device)
        if program is None:
            program = self.plan.programs[self.device] = compile_fastpath(
                self.lk, self.device
            )
        self._program = program
        self._vsteps = program.steps
        self._ends = program.ends
        # Replay plans, shared by every SM and launch of the program.
        self._vrmeta = program.vmeta  # (pcs, k0, dkey) -> replay
        self._vok = program.vok
        # Dispatch counters (merged into _VEC_COUNTERS per run); the
        # fallback/abort reasons and masked runs are tallied in _vwhy.
        self._vd = self._vw = self._vi = self._vf = 0
        self._vwhy = dict.fromkeys(_VEC_COUNTERS, 0)
        if gang and (self.trace is not None or self.profile is not None):
            raise ValueError(
                "traced and profiled launches run their SMs one at a time"
            )
        #: The current gang's other members, in SM order.
        self._fols = [
            FastSMExecutor(
                self.device, self.policy, self.gmem, self.lk, self.params,
                self.block_dim, self.grid_dim, sm_index=sm,
            )
            for sm, _ in gang
        ]
        for f, (_, ids) in zip(self._fols, gang):
            f._queue = deque(ids)
        self._gang = tuple(self._fols)  # every follower, leavers included
        self._gm = 1 + len(self._fols)  # gang size M

    @property
    def members(self) -> tuple:
        return (self, *self._gang)

    # -- arena ------------------------------------------------------------

    def _arena_alloc(self, max_resident: int) -> None:
        """Allocate the stacked per-SM state: one row per resident warp
        and gang member.

        :class:`WarpState` instances are bound to row *views*, so the
        interpreter's ``_issue`` and the steps read and write the same
        storage — there is no copy on either side of a fallback
        boundary.  Rows interleave a gang's members (row = warp × M +
        member), so one warp's members are adjacent and a warp range is
        one contiguous stack.
        """
        rows = max(1, max_resident) * max(1, self.block_dim // WARP)
        rows *= self._gm
        regs = max(self.lk.reg_count, 1)
        preds = max(self.lk.pred_count, 1)
        self._a_regs = np.zeros((regs, rows, WARP), dtype=_F64)
        self._a_preds = np.zeros((preds, rows, WARP), dtype=bool)
        self._a_pend = np.zeros((rows, regs), dtype=_F64)
        self._a_tid = np.zeros((rows, WARP), dtype=np.int64)
        self._a_cta = np.zeros((rows, 1), dtype=np.int64)
        self._a_rows: dict = {}

    def _vrows(self, lo: int, hi: int) -> tuple:
        """Stack views of warps ``[lo, hi)`` — every member's row of
        each: per-slot register and predicate rows (lists, so a step
        indexes them without building a view), the scoreboard, thread
        ids and block-id column, and the scoreboard as ``(warps,
        members, regs)``.  The arena lives for the whole SM run (a gang
        split re-lays it out and drops the cache), so the views are
        cached."""
        key = (lo, hi)
        views = self._a_rows.get(key)
        if views is None:
            M = self._gm
            a, b = lo * M, hi * M
            pend = self._a_pend[a:b]
            views = self._a_rows[key] = (
                list(self._a_regs[:, a:b]),
                list(self._a_preds[:, a:b]),
                pend,
                self._a_tid[a:b],
                self._a_cta[a:b],
                pend.reshape(hi - lo, M, pend.shape[1]),
            )
        return views

    def _bind(self, w: WarpState, row: int) -> None:
        """Point ``w``'s register, predicate, scoreboard and thread-id
        views at arena row ``row``."""
        w.regs = self._a_regs[:, row, :]
        w.preds = self._a_preds[:, row, :]
        w.pending = self._a_pend[row]
        w.tid = self._a_tid[row]

    def _assign_rows(self, warps: list[WarpState]) -> None:
        """Bind every warp (and its gang copies) to the arena rows
        matching its list index.

        Blocks are only ever removed from or appended to the resident
        list, so surviving warps move monotonically *down* (``old >
        idx``) and precede all fresh warps — copying in ascending index
        order never overwrites a row that is still to be read.
        """
        M = self._gm
        regs3, preds3 = self._a_regs, self._a_preds
        pend2, tid2, cta2 = self._a_pend, self._a_tid, self._a_cta
        for idx, w in enumerate(warps):
            old = w._row
            if old == idx:
                continue
            lo = idx * M
            hi = lo + M
            if old < 0:
                # Fresh warp: all state is zero except the thread ids.
                regs3[:, lo:hi, :] = 0.0
                preds3[:, lo:hi, :] = False
                pend2[lo:hi] = 0.0
                tid2[lo:hi] = w.tid
            else:
                o = old * M
                regs3[:, lo:hi, :] = regs3[:, o : o + M, :]
                preds3[:, lo:hi, :] = preds3[:, o : o + M, :]
                pend2[lo:hi] = pend2[o : o + M]
                tid2[lo:hi] = tid2[o : o + M]
            for row, mw in enumerate((w, *w._fol), lo):
                cta2[row, 0] = mw.block.block_id
                mw._row = idx
                self._bind(mw, row)

    # -- scheduler --------------------------------------------------------

    # Fusible pcs always run through the compiled steps, never _issue.
    _UNPREPARED = FUSIBLE_OPS

    def _needs(self, pc: int):
        return self._program.deps[pc]

    def _wake_time(self, warp: WarpState) -> float | None:
        t = self._wake_inf(warp)
        return None if t == _INF else t

    def _wake_inf(self, warp: WarpState) -> float:
        """``_wake_time`` with ``inf`` for blocked warps, via scalar
        scoreboard reads (2–4 slots beat a fancy-index reduction)."""
        if warp.done or warp.at_barrier:
            return _INF
        t = warp.next_issue
        pending = warp.pending
        for r in self._program.deps[warp.pc]:
            v = pending[r]
            if v > t:
                t = v
        return t

    def _vreplay(
        self, pcs: tuple, k0: int, dkey: tuple, entry: tuple | None
    ) -> tuple | None:
        """Symbolic replay of the scheduler for one warp bucket.

        Simulates the interpreter's round-robin scan/issue/idle loop for
        ``W`` warps whose entry pcs are ``pcs`` and whose entry wake
        offsets (relative to dispatch time, flat row order) are
        ``dkey``, with the first pick at row ``k0``.  Every scheduling
        decision is re-derived from static information only, so the
        schedule and its stall/idle charges are exact for any entry
        stagger, any mix of pcs, and any interleaving of ALU work with
        schedulable shared loads: those have a constant result latency,
        so dependent wakes stay static, and their issue cost is the
        conflict-free one.

        Each row tracks the integer constants its registers hold (see
        :func:`_reg_writes`): set by a ``mov`` in the window, or given
        at dispatch as the row's *entry constants* (``entry``: per row,
        the values of the registers :func:`_entry_regs` lists at its
        entry pc, ``None`` where unknown; ``entry`` is ``None`` when no
        value is known), then carried through unpredicated ``iadd``
        steps of integers.  A load is *static* when its base register
        holds such a constant and the resulting address is aligned and
        in bounds: every active lane then reads the same words, a
        broadcast whose cost is exactly the assumed one, so it folds
        like an ALU op and can never abort.  A branch is *static* when
        it is unconditional or its predicate was set in the window by a
        ``setp`` on constants and immediates: the replay follows its
        real direction, and it folds like an ALU op too, so a counted
        loop ends the row's trajectory at its real trip count.  Whether
        a load or branch is static depends only on the window's
        instructions and the key, so it is part of the memoized plan.
        Every other load and branch is validated by the dispatcher as it
        executes, aborting the window mid-schedule on the first mismatch
        (still exact, because events run in schedule order); a
        validated branch is scheduled under a direction assumption (see
        :func:`_bra_costs`), and a wrong one aborts the window at that
        branch with the real outcome applied.

        A row *parks* when it reaches an instruction the replay cannot
        schedule — barrier, global/texture access, store,
        predicated load, ``EXIT`` — from then on only a lower bound on
        its wake is known (its entry wake when it never issued, else its
        issue end raised by in-window dependency completions; pre-window
        pendings can only raise it further).  The replay cuts at the
        first decision a parked row could influence:

        * a scan reaches a parked row at a time at or past its bound;
        * an idle advance whose target some parked row's bound reaches.

        Pre-window register pendings are bounded by per-row thresholds:
        each row's pending for a register first read in-window at issue
        time ``T`` must satisfy ``pending <= now + T``.  Under that
        bound every modeled wake the replay *acted on* (picks and idle
        targets) equals the real wake, so the schedule is exact; the
        dispatcher checks the bound vectorized and falls back if it
        fails.

        Each idle advance is recorded for the profiler (:meth:`_vgaps`).
        The interpreter attributes the gap to the first warp in flat
        order whose wake equals the target.  Every row's real wake is at
        least its modeled one, and the row picked right after the
        advance has both equal, so the winner is among the rows modeled
        to wake at the target, the *candidates*.  Plans are memoized, so
        the records are packed into one float64 array: per gap its start
        and target offsets and candidate count, then per candidate in
        flat order its row, pc, next-issue offset (-1 when never issued)
        and the in-window ready offset of each of the pc's dependencies
        (NaN when only a pre-window pending can bind it, which the
        dispatcher reads).

        Returns ``None`` when the window is too small to be worth
        dispatching, else ``(plan, qlo, qhi, cut, rr_pos, cols, thr2,
        gaps, state)``: the execution plan (run events of stacked steps
        and static loads over row ranges, validated loads and branch
        validations, in schedule order up to the reordering of disjoint
        rows inside a segment), per-row visited pc ranges, the port-free
        cut offset, the ring cursor at the cut, the pre-window threshold
        arrays, the idle-advance records (``None`` when there are none)
        and the window's end state.  A *state* is ``(stalls, idle,
        ngaps, k, ni, p)``: the stall and idle charges and idle-advance
        count so far, and per row its issue count, next-issue offset and
        next pc (the last two meaningful only for rows that issued).
        Every validated event carries the state as of its own issue, so
        the dispatcher ends a window after any event or at the cut
        through one routine (:meth:`_vend`).  All offsets are exact
        dyadic rationals, so the float arithmetic is association-free.
        """
        prog = self._program
        W = len(dkey)
        deps = prog.deps
        costs = prog.costs
        lats = prog.lats
        dst = prog.writes
        mem = prog.mem
        bra = prog.bra
        regw = prog.regw
        sbytes = 4 * self.lk.shared_words
        k = [0] * W
        p = list(pcs)  # per-row current pc along the planned trajectory
        qlo = list(pcs)  # per-row visited pc range (issue points)
        qhi = list(pcs)
        wake_v = list(dkey)
        fin = [False] * W
        b = list(dkey)  # wake lower bound, parked rows only
        ni = [-1.0] * W  # last issue + cost (next_issue), -1 = never issued
        bk = [0] * W  # back-edges taken
        wrow: list[dict] = [{} for _ in range(W)]  # in-window completions
        threc: list[dict] = [{} for _ in range(W)]  # pre-window first reads
        cst: list[dict] = [{} for _ in range(W)]  # constant regs
        pst: list[dict] = [{} for _ in range(W)]  # known predicates
        if entry is not None:
            for m, vals in enumerate(entry):
                for r, v in zip(prog.live.get(pcs[m], ()), vals):
                    if v is not None:
                        cst[m][r] = v
        plan: list[tuple] = []
        # Fusible events since the last validated one: ``(back-edges,
        # pc, row, t, arg)``, ``arg`` as in :class:`_Run`.
        seg: list[tuple] = []
        gaps: list[float] = []  # idle-advance records, packed
        ngaps = 0
        stalls = 0
        idle = 0.0
        total = 0
        for m in range(W):
            q = pcs[m]
            if costs[q] is None and mem[q] is None and bra[q] is None:
                # Parked at entry: its bound is the (clamped) entry
                # wake, which every scan time strictly exceeds when the
                # row was already ready, so the first reach cuts.
                fin[m] = True

        # The plan folds the schedule as it is made.  Within a *segment*
        # — a maximal run of fusible events (ALU ops, static shared
        # loads and static branches) between validated events (other
        # loads and branches) — execution order across rows is
        # state-invisible: registers are warp-private, the window has no
        # stores so shared memory is frozen, a static branch changes no
        # state, and each event keeps its own scheduled time.  A row's
        # pcs strictly increase between the back-edges it takes, so
        # sorting a segment by (back-edges taken, pc, row) keeps each
        # row in program order.  Each *range group* — a maximal range of
        # consecutive rows at one such (back-edges, pc), static loads
        # also at one word index (each row reading its own block) and
        # static branches also going one way — folds into one stacked
        # step over those rows.  Groups over one range merge into one
        # run event (see :class:`_Run`): the next group of a range joins
        # its range's run unless some item placed after that run touches
        # one of its rows.  Moving a group up past items on other rows
        # only reorders events of disjoint rows inside one segment,
        # which commute.  Folds never cross a validated event:
        # everything before it in the plan is also before it in schedule
        # time, which is what makes a mid-window abort exact.
        def flush_seg() -> None:
            # Open runs' groups by row range, pairwise disjoint: an item
            # on rows [a, b) closes every open run it overlaps.
            live: dict[tuple, list] = {}
            first = len(plan)
            seg.sort()  # (back-edges, pc, row) is unique
            ns = len(seg)
            j = 0
            while j < ns:
                n_b, q, a, _, arg = seg[j]
                b = a + 1
                jj = j + 1
                while jj < ns:
                    f = seg[jj]
                    if f[1] != q or f[2] != b or f[0] != n_b or f[4] != arg:
                        break
                    b += 1
                    jj += 1
                groups = live.pop((a, b), None)
                if live:
                    for rng in [r for r in live if r[0] < b and a < r[1]]:
                        del live[rng]
                if groups is None:
                    groups = []
                    plan.append((groups, a, b))
                live[a, b] = groups
                groups.append((arg, q, tuple(f[3] for f in seg[j:jj])))
                j = jj
            # The segment's runs are complete.
            plan[first:] = [(2, _Run(*r)) for r in plan[first:]]
            seg.clear()

        def issue(pos: int, t: float) -> float:
            """Issue row ``pos``'s next instruction at ``t``; return cost."""
            nonlocal total
            q = p[pos]
            c = costs[q]
            wr = wrow[pos]
            if k[pos]:
                # Record pre-window read thresholds (the entry pc's own
                # deps are bounded exactly by the entry wake).
                th = threc[pos]
                for r in deps[q]:
                    if r not in wr and r not in th:
                        th[r] = t
            kind = 0  # fusible; 1 validated load, 3 validated branch
            if c is not None:
                seg.append((bk[pos], q, pos, t, None))
                w = dst[q]
                if w >= 0:
                    wr[w] = t + lats[q]
                nxt = q + 1
            else:
                mq = mem[q]
                if mq is not None:
                    c, lat, dsts, aslot, off = mq
                    # Shared load: constant latency, conflict-free cost.
                    # A static one (see the docstring) is a fusible
                    # event with its ``(dst slot, word)`` reads; any
                    # other is validated.
                    base = cst[pos].get(aslot)
                    addr = -1 if base is None else int(base) + off
                    if (
                        addr >= 0
                        and not addr & 3
                        and addr + 4 * len(dsts) <= sbytes
                    ):
                        w0 = addr >> 2
                        reads = tuple(zip(dsts, range(w0, w0 + len(dsts))))
                        seg.append((bk[pos], q, pos, t, reads))
                    else:
                        kind = 1
                    done = t + lat
                    for w in dsts:
                        wr[w] = done
                    nxt = q + 1
                else:
                    # Branch: static when unconditional or its predicate
                    # is known, and then a fusible event going its real
                    # way; else validated under a direction assumption.
                    tgt, pi, neg, taken, c = bra[q]
                    if pi >= 0:
                        known = pst[pos].get(pi)
                        if known is None:
                            kind = 3
                        else:
                            taken = known != neg
                    nxt = tgt if taken else q + 1
                    if not kind:
                        seg.append((bk[pos], q, pos, t, nxt))
                    if nxt <= q:
                        bk[pos] += 1
            slots, cv, src, pw = regw[q]
            if slots:
                cs = cst[pos]
                if cv is not None and src >= 0:
                    # iadd: carries a constant only from a tracked one.
                    base = cs.get(src)
                    cv = None if base is None else base + cv
                    if cv is not None and abs(cv) > 2**24:
                        cv = None
                if cv is not None:
                    cs[slots[0]] = cv
                elif cs:
                    for r in slots:
                        cs.pop(r, None)
            if pw is not None:
                # Predicate write: known from a static setp on tracked
                # constants, unknown after any other.
                pslot, test = pw
                known = None
                if test is not None:
                    cmp, sa, va, sb, vb = test
                    cs = cst[pos]
                    if sa >= 0:
                        va = cs.get(sa)
                    if sb >= 0:
                        vb = cs.get(sb)
                    if va is not None and vb is not None:
                        known = cmp(va, vb)
                if known is None:
                    pst[pos].pop(pslot, None)
                else:
                    pst[pos][pslot] = known
            k[pos] += 1
            total += 1
            if q < qlo[pos]:
                qlo[pos] = q
            elif q > qhi[pos]:
                qhi[pos] = q
            p[pos] = nxt
            end = t + c
            ni[pos] = end
            if kind:
                # A validated event closes the segment before it, and
                # carries the state as of its issue for an exact abort.
                flush_seg()
                plan.append((
                    kind, pos, q, t, c,
                    (stalls, idle, ngaps, tuple(k), tuple(ni), tuple(p)),
                ))
            if (
                costs[nxt] is not None
                or mem[nxt] is not None
                or bra[nxt] is not None
            ):
                wk = end
                for r in deps[nxt]:
                    v = wr.get(r)
                    if v is not None and v > wk:
                        wk = v
                wake_v[pos] = wk
            else:
                fin[pos] = True
                bb = end
                for r in deps[nxt]:
                    v = wr.get(r)
                    if v is not None and v > bb:
                        bb = v
                b[pos] = bb
            return c

        # The main loop already scanned up to and picked row k0 (its
        # stalls are charged there), so the first issue is uncharged.
        # The event cap bounds the schedule of long loops, and of
        # validated back-edges assumed taken (the plan past such a
        # loop's real trip count is never executed — its final
        # iteration's branch aborts).
        t = issue(k0, 0.0)
        cur = k0 + 1  # ring position of the next scan start
        while total < 24576:
            # One interpreter scan from ``cur`` at port-free time ``t``.
            # Positions outside the bucket are done or at a barrier
            # (wake inf, uncounted), so the ring covers members only.
            pick = -1
            charges = 0
            reach = False
            for s in range(W):
                pos = cur + s
                if pos >= W:
                    pos -= W
                if fin[pos]:
                    if t >= b[pos]:
                        reach = True  # might be ready — undecidable
                        break
                    charges += 1
                    continue
                if wake_v[pos] <= t:
                    pick = pos
                    break
                charges += 1
            if reach:
                break  # cut before this scan; its charges are dropped
            if pick < 0:
                # Failed full scan.  Find the idle target among the
                # running rows; every parked row must provably sleep
                # past it, else the advance is undecidable.
                tgt = _INF
                for pos in range(W):
                    if not fin[pos] and wake_v[pos] < tgt:
                        tgt = wake_v[pos]
                if tgt == _INF:
                    break  # every row parked — natural window end
                if any(fin[pos] and b[pos] <= tgt for pos in range(W)):
                    break  # cut before this scan
                stalls += W
                idle += tgt - t
                cands = [
                    pos for pos in range(W)
                    if not fin[pos] and wake_v[pos] == tgt
                ]
                gaps += (t, tgt, len(cands))
                for pos in cands:
                    q = p[pos]
                    gaps += (pos, q, ni[pos])
                    gaps.extend(wrow[pos].get(r, _NAN) for r in deps[q])
                ngaps += 1
                t = tgt
                continue  # post-idle scan, same cursor
            stalls += charges
            t += issue(pick, t)
            cur = pick + 1
        cut = t
        rr_pos = cur
        if total < 2:
            return None  # nothing beyond the forced first issue
        flush_seg()
        regs = sorted(set().union(*(th.keys() for th in threc)))
        if regs:
            cols = np.array(regs, dtype=np.intp)
            thr2 = np.full((W, len(regs)), _INF, dtype=_F64)
            for m in range(W):
                th = threc[m]
                for j, r in enumerate(regs):
                    v = th.get(r)
                    if v is not None:
                        thr2[m, j] = v
        else:
            cols = thr2 = None
        return (
            tuple(plan),
            tuple(qlo),
            tuple(qhi),
            cut,
            rr_pos,
            cols,
            thr2,
            np.array(gaps, dtype=_F64) if gaps else None,
            (stalls, idle, ngaps, tuple(k), tuple(ni), tuple(p)),
        )

    def _vdispatch_replay(
        self,
        warps: list[WarpState],
        wake: list[float],
        i: int,
        pc0: int,
        now: float,
    ) -> tuple[float, int] | None:
        """Cross-warp dispatch through the symbolic scheduler replay.

        The bucket is every countable warp — at *any* pc — and the
        schedule comes from :meth:`_vreplay` keyed by the bucket's exact
        entry pcs and wake pattern, so staggered, reordered and mixed-pc
        groups vectorize, and by its entry constants (:meth:`_ventry`),
        read only when some row's pc has a live inductive register.  Run
        events, static shared loads and branches included, execute as
        stacked numpy steps over their row ranges (one row or more);
        validated loads and branches replay in schedule order,
        inline or through the interpreter's own ``_issue`` at their
        scheduled times.  Stall and idle charges come from the replay's
        closed forms; with the profiler on, so do the idle gaps, and the
        inlined paths add the counters ``_issue`` would.  Every decision
        is the same with the profiler on or off.
        """
        prog = self._program
        n = len(warps)
        lo = hi = -1
        count = 0
        for j in range(n):
            wp = warps[j]
            if wp.done or wp.at_barrier:
                continue
            if lo < 0:
                lo = j
            hi = j
            count += 1
        W = count
        if W < 2 or hi - lo + 1 != W:
            return self._vfallback("fallback_bucket")
        k0 = i - lo
        pcs = tuple(warps[lo + m].pc for m in range(W))
        # Entry wake offsets in flat row order; anything at or before
        # ``now`` schedules identically to 0 (scans never happen
        # earlier), so clamping collapses the cache key space.
        dkey = tuple(max(0.0, wake[lo + m] - now) for m in range(W))
        entry = None
        live = prog.live
        if live and not live.keys().isdisjoint(pcs):
            entry = self._ventry(warps, lo, pcs)
        key = (pcs, k0, dkey, entry)
        vrmeta = self._vrmeta
        meta = vrmeta.get(key, False)
        if meta is False:
            if len(vrmeta) >= 65536:
                vrmeta.clear()
            meta = vrmeta[key] = self._vreplay(*key)
        if meta is None:
            return self._vfallback("fallback_no_plan")
        plan, qlovec, qhivec, cut, rr_pos, cols, thr2, gaps, state = meta
        kvec = state[3]
        hi2 = hi + 1
        pend3 = self._vrows(lo, hi2)[5]
        # Every member's scoreboard equals the leader's (its rows are
        # member 0 of each warp), so the leader's rows decide.
        if cols is not None and not (pend3[:, 0, cols] <= now + thr2).all():
            return self._vfallback("fallback_pending")
        # A reconvergence point inside a row's visited pc range would
        # rejoin parked lanes mid-window; entries at the entry pc
        # itself pop on commit, anything else in range falls back.
        for m in range(W):
            km = kvec[m]
            if km:
                stack = warps[lo + m].div_stack
                if stack:
                    p0 = pcs[m]
                    idx = len(stack) - 1
                    while idx >= 0 and stack[idx][0] == p0:
                        idx -= 1
                    if idx >= 0:
                        ql, qh = qlovec[m], qhivec[m]
                        if any(
                            ql <= s0 <= qh for s0, _ in stack[: idx + 1]
                        ):
                            return self._vfallback("fallback_reconverge")
        # Committed.  Gaps are classified from the pre-dispatch
        # scoreboards, so before anything executes.
        prof = self.profile
        recs = None
        if prof is not None and gaps is not None:
            recs = self._vgaps(warps, lo, now, gaps)
        # Reconvergence pops for every row that issues (rows the window
        # never schedules haven't moved).
        for m in range(W):
            if not kvec[m]:
                continue
            wp = warps[lo + m]
            while wp.div_stack and wp.pc == wp.div_stack[-1][0]:
                self._rejoin(wp)
        allfull = True
        acts = []
        nas = []
        for j in range(lo, hi2):
            wp = warps[j]
            act = wp.active
            if act is wp._fp_act:
                na = wp._fp_na
            else:
                na = int(np.count_nonzero(act))
                wp._fp_act = act
                wp._fp_na = na
            acts.append(act)
            nas.append(na)
            if na != WARP:
                allfull = False
        vsteps = self._vsteps
        M = self._gm
        gang = M > 1
        if allfull:
            act2 = True
        elif gang:
            # Members are congruent: each warp's mask is every member's.
            act2 = np.repeat(np.vstack(acts), M, axis=0)
        else:
            act2 = np.vstack(acts)
        # Per row range of the plan's runs, from its first run on: its
        # views, mask, row and lane counts and whether it is full; and
        # its stacked shared view, from its first static load on.
        ranges: dict[tuple, tuple] = {}
        shared: dict[tuple, np.ndarray] = {}
        # Each warp's predicate rows (all of its members), for branches.
        preds = [self._vrows(j, j + 1)[1] for j in range(lo, hi2)]
        issue_one = self._issue_at
        mem = prog.mem
        bra = prog.bra
        cnt = self._cnt
        lanes_acc = self._lanes_acc
        L = self._L
        why = self._vwhy
        nev = nld = 0  # steps of one-row runs, validated loads
        for e in plan:
            kind = e[0]
            if kind == 2:
                # Run event: its steps back to back over its row range,
                # then all of its scoreboard marks and issue/lane counts
                # at once.
                run = e[1]
                if run.seq is None:
                    run.build(prog)
                rng = ranges.get(run.rows)
                if rng is None:
                    a, b = run.rows
                    nlr = sum(nas[a:b])
                    full = nlr == WARP * (b - a)
                    rng = ranges[run.rows] = (
                        self._vrows(lo + a, lo + b),
                        True if full else act2[a * M : b * M],
                        b - a, nlr, full,
                    )
                (Rr, Pr, pendr, tidr, ctar, pend3r), actr, nr, nlr, full = rng
                S = None
                if run.shared:
                    S = shared.get(run.rows)
                    if S is None:
                        a, b = run.rows
                        S = shared[run.rows] = self._vshared(
                            warps, lo + a, lo + b
                        )
                if run.simple:
                    for qs, reads in run.seq:
                        for q in qs:
                            vsteps[q](Rr, Pr, tidr, ctar, actr, L)
                        if reads:
                            _vread(reads, Rr, S, actr)
                else:
                    self._vrun_special(
                        run, Rr, Pr, tidr, ctar, actr, now, S
                    )
                if run.cols is not None:
                    if gang:
                        pend3r[:, :, run.cols] = (now + run.offs)[:, None]
                    else:
                        pendr[:, run.cols] = now + run.offs
                for q in run.pcs:
                    cnt[q] += nr
                for q in run.plain:
                    lanes_acc[q] += nlr
                if nr == 1:
                    nev += len(run.pcs)
                elif not full:
                    why["masked_runs"] += M
                if prof is not None:
                    for q, extra in run.conf:
                        prof.bank_conflicts[q] += extra
                continue
            m = e[1]
            q = e[2]
            wp = warps[lo + m]
            t = now + e[3]
            if kind == 3:
                tgt, pi, neg, taken, _c = bra[q]
                if nas[m] == WARP:
                    # Fully active warp: the assumption holds iff the
                    # predicate is uniform in the assumed direction in
                    # every member's row: all false when a negated guard
                    # is taken or a plain one falls through, else all
                    # true.
                    prow = preds[m][pi]
                    if (not prow.any()) if neg == taken else prow.all():
                        cnt[q] += 1
                        lanes_acc[q] += WARP
                        continue
                # Partial mask or assumption miss: run the real branch.
                # It may still match (uniform over a partial mask) —
                # anything else ends the window exactly here with the
                # real outcome already applied.
                end = issue_one(wp, q, t)
                miss = (
                    end != t + e[4]
                    or wp.pc != (tgt if taken else q + 1)
                    or wp.active is not acts[m]
                )
                reason = "abort_branch"
            else:
                nld += 1
                # Inlined execution of the dominant shared-load shape —
                # register base, fully active warp, whole-warp broadcast
                # address, aligned and in bounds.  Broadcast degree is
                # exactly ``len(dsts)`` (one distinct word per bank,
                # serialized by the vector width), which is the replay's
                # assumed cost, so this shape can never abort; stats
                # flow through the per-pc counters ``_fold_counts``
                # folds, identically to ``KernelStats.count``, and so do
                # the profiler's issue cycles (``flush_cost``).  A gang
                # takes this path when every member's row has the shape,
                # each reading its own block.
                _, lat, dsts, aslot, off = mem[q]
                if aslot >= 0 and nas[m] == WARP:
                    nw = len(dsts)
                    hits = []
                    for mw in (wp, *wp._fol):
                        arow = mw.regs[aslot]
                        a0 = arow[0]
                        addr = int(a0) + off
                        if (
                            addr & 3
                            or addr < 0
                            or addr + 4 * nw > mw.block.shared.size_bytes
                            or not (arow == a0).all()
                        ):
                            break
                        hits.append((mw, addr >> 2))
                    else:
                        tl = t + lat
                        for mw, ws in hits:
                            words = mw.block.shared.words
                            regs, pending = mw.regs, mw.pending
                            for kk, dst in enumerate(dsts):
                                regs[dst][:] = words[ws + kk]
                                pending[dst] = tl
                        cnt[q] += 1
                        lanes_acc[q] += WARP
                        if prof is not None and nw > 1:
                            prof.bank_conflicts[q] += nw - 1
                        continue
                end = issue_one(wp, q, t)
                miss = end != t + e[4]
                reason = "abort_cost"
            # A miss aborts every member's window; a matching leader
            # whose followers differ ends it for the leavers' sake.
            if miss:
                why[reason] += M
            elif self._split_at:
                why[reason] += len(self._split_at)
            else:
                continue
            break
        else:
            e = None
        why["row_events"] += nev * M
        why["row_loads"] += nld * M
        if e is None:
            return self._vend(
                warps, wake, lo, now, recs, state, rr_pos, now + cut
            )
        res = self._vend(
            warps, wake, lo, now, recs, e[5], e[1] + 1, end, e[1]
        )
        if self._split_at:
            self._split(res[1])
        return res

    def _ventry(
        self, warps: list[WarpState], lo: int, pcs: tuple
    ) -> tuple | None:
        """The entry constants of the bucket of rows from ``lo`` at
        ``pcs`` (see :meth:`_vreplay`): per row, the value of each
        register :attr:`FastProgram.live` lists at its pc when it is an
        exact integer of magnitude at most ``2**24`` held by every
        active lane of every gang member, else ``None``.  A row with
        lanes rejoining at its pc gives none, since the window runs it
        under the wider mask.  ``None`` when no value is known."""
        live = self._program.live
        M = self._gm
        W = len(pcs)
        cols = sorted({r for q in pcs for r in live.get(q, ())})
        # (regs, warps, every member's lanes): a warp's members are
        # adjacent rows, and their masks are the warp's.
        A = self._a_regs[cols, lo * M : (lo + W) * M].reshape(
            len(cols), W, M * WARP
        )
        rows = warps[lo : lo + W]
        if all(w.active is w._fp_act and w._fp_na == WARP for w in rows):
            least, most = A.min(axis=2), A.max(axis=2)
        else:
            act = np.tile(np.vstack([w.active for w in rows]), M)
            least = np.where(act, A, _INF).min(axis=2)
            most = np.where(act, A, -_INF).max(axis=2)
        ok = (
            (least == most)
            & (least == np.trunc(least))
            & (np.abs(least) <= 2**24)
        )
        vals = dict(zip(cols, np.where(ok, least, _NAN).tolist()))
        out = []
        for m, q in enumerate(pcs):
            stack = rows[m].div_stack
            if stack and stack[-1][0] == q:
                out.append(())
            else:
                out.append(tuple(
                    None if vals[r][m] != vals[r][m] else vals[r][m]
                    for r in live.get(q, ())
                ))
        if all(v is None for row in out for v in row):
            return None
        return tuple(out)

    def _vend(
        self,
        warps: list[WarpState],
        wake: list[float],
        lo: int,
        now: float,
        recs: list | None,
        state: tuple,
        pos: int,
        end: float,
        m_ab: int = -1,
    ) -> tuple[float, int]:
        """End a dispatch window of the rows from ``lo`` at replay state
        ``state`` (see :meth:`_vreplay`), either at the plan's cut or
        right after a validated event; resume the main loop at ``end``
        with the ring cursor at row ``pos``.  ``recs`` are the
        classified gaps of a profiled dispatch.

        A committed window ends at the cut with the plan's end state.  An
        aborted one ends at the event whose real outcome differs from
        the plan's — a scheduled load hit a bank conflict (its real issue
        cost exceeds the replay's conflict-free assumption), or a
        scheduled branch went the other way or diverged — so every later
        scheduled event is invalid.  The executed prefix, the
        mismatching event included, is exactly what the interpreter
        would have done (no earlier decision depended on the outcome),
        so the event's own state ends the window: its row ``m_ab`` keeps
        the pc and next issue ``_issue`` just gave it (the real branch
        outcome), at the real end, and the cursor lands just past it.
        The same ends a gang's window when some members' outcome at a
        validated event differs from the leader's (see
        :meth:`_gang_issue`): it is exact after *any* event, matched or
        not, so every member leaves the window in the interpreter's
        state, each aborting row keeping its own ``_issue`` result.

        Either way the state's stall and idle charges are added, its
        gaps are emitted, and every row that issued is placed at its
        next pc and next-issue time, with its wake from the scoreboard.
        """
        stalls, idle, ngaps, ks, nis, pcs = state
        stats = self.stats
        stats.scoreboard_stalls += stalls
        stats.idle_cycles += idle
        if recs:
            for rec in recs[:ngaps]:
                self.profile.gap(*rec)
        deps = self._program.deps
        W = len(ks)
        for m in range(W):
            if not ks[m]:
                continue
            j = lo + m
            wp = warps[j]
            if m == m_ab:
                t = end  # _issue set every member's pc and next_issue
            else:
                wp.pc = pc = pcs[m]
                t = now + nis[m]
                wp.next_issue = t
                for fw in wp._fol:
                    fw.pc = pc
                    fw.next_issue = t
            pending = wp.pending
            for r in deps[wp.pc]:
                v = pending[r]
                if v > t:
                    t = v
            wake[j] = t
        M = self._gm
        self._vd += M
        self._vw += W * M
        self._vi += sum(ks) * M
        rr = lo + pos if pos < W else (lo + W) % len(warps)
        return end, rr

    def _vgaps(
        self, warps: list[WarpState], lo: int, now: float, gaps: np.ndarray
    ) -> list[tuple]:
        """A plan's packed idle-advance records (see :meth:`_vreplay`) as
        ``prof.gap`` arguments, classified as the interpreter's
        ``_prof_gap`` would.

        Must run before the plan executes: each candidate's scoreboard
        is its pre-dispatch ``pending`` overlaid with the in-window
        marks the replay recorded.  The winner is the first candidate
        whose wake reaches the gap's end.
        """
        deps = self._program.deps
        reason_of = self._prof_reason
        vals = gaps.tolist()
        out = []
        j = 0
        while j < len(vals):
            t, tgt, n = vals[j], vals[j + 1], int(vals[j + 2])
            j += 3
            end = now + tgt
            found = False
            for _ in range(n):
                m, q, ni = int(vals[j]), int(vals[j + 1]), vals[j + 2]
                need = deps[q]
                marks = vals[j + 3 : j + 3 + len(need)]
                j += 3 + len(need)
                if found:
                    continue
                wp = warps[lo + m]
                pending = wp.pending
                # ``v != v`` is NaN: no in-window mark.
                pv = {
                    r: pending[r] if v != v else now + v
                    for r, v in zip(need, marks)
                }
                nxt = now + ni if ni >= 0 else wp.next_issue
                win = (pv, wp.mem_ready, nxt, need)
                found = max([nxt, *pv.values()]) == end
            out.append((now + t, tgt - t, reason_of(*win, end, now + t)))
        return out

    def _vrun_special(
        self, run, R, P, tid, cta, act, now: float, S
    ) -> None:
        """Steps of a run holding CLOCK or predicated steps: CLOCK reads
        its per-row issue moments (each warp's, for all of its gang
        members), predicated steps report their lane masks (every other
        step's lanes are the dispatch's); static loads read ``S`` as in
        a simple run."""
        vsteps = self._vsteps
        L = self._L
        M = self._gm
        times = iter(run.times)
        for qs, reads in run.seq:
            for q in qs:
                tq = next(times)
                if tq is not None:
                    tq = now + (tq if M == 1 else np.repeat(tq, M, axis=0))
                got = vsteps[q](R, P, tid, cta, act, L, tq)
                if got is not None:
                    self._pred_lanes(q, got)
            if reads:
                _vread(reads, R, S, act)

    def _pred_lanes(self, q: int, m: np.ndarray) -> None:
        """Count the active lanes of predicated step ``q``, given its
        lane mask ``m`` over the step's rows: into the per-pc lane
        counts of a lone SM, per member for a gang (its predicates are
        data, so each member's count is its own)."""
        glanes = self._glanes
        if glanes is None:
            self._lanes_acc[q] += int(np.count_nonzero(m))
        else:
            glanes[:, q] += np.count_nonzero(
                m.reshape(-1, self._gm, WARP), axis=(0, 2)
            )

    @staticmethod
    def _vshared(warps: list[WarpState], lo: int, hi: int) -> np.ndarray:
        """Stacked shared-memory view of warps ``[lo, hi)``'s rows (each
        warp's gang members included) for static loads, shaped
        ``(shared words, rows, 1)``: ``S[word]`` is the ``(rows, 1)``
        column of each row's own block word.  Rows of one block share a
        broadcast view of its words; rows of several blocks read a
        stacked copy, which is exact because a window holds no stores
        (shared memory is frozen for the dispatch)."""
        blk = warps[lo].block
        if warps[hi - 1].block is blk and not warps[lo]._fol:
            return blk.shared.words[:, None, None]
        return np.stack(
            [
                w.block.shared.words
                for j in range(lo, hi)
                for w in (warps[j], *warps[j]._fol)
            ],
            axis=1,
        )[:, :, None]

    def _vfallback(self, reason: str) -> None:
        """Count one fallback to the per-warp path under ``reason``
        (once per gang member)."""
        self._vf += self._gm
        self._vwhy[reason] += self._gm
        return None

    def _run(self, block_ids: list[int], max_resident: int) -> float:
        self._queue = deque(block_ids)
        self._max_resident = max_resident
        for mb in self.members:
            mb._resident = []
        self._split_at: list[tuple] = []  # (follower, its clock) leaving
        self._leavers: list = []  # members that left, to finish alone
        # Scheduler stalls and idle cycles are the gang's, counted on the
        # leader's stats from here; followers take them when they leave
        # or the gang ends.
        self._gbase = (self.stats.scoreboard_stalls, self.stats.idle_cycles)
        self._glanes = None
        if self._fols:
            # Per-member lane counts of predicated steps (row = member).
            self._glanes = np.zeros((self._gm, self._program.n), np.int64)
            self._vwhy["gang_members"] += self._gm
        self._arena_alloc(max_resident)
        prog = self._program
        self._cnt = [0] * prog.n  # per-pc issue counts
        self._lanes_acc = [0] * prog.n  # per-pc active-lane counts
        self._L = prog.launch_values(
            self.block_dim, self.grid_dim, self.params
        )
        end = self._loop(0.0, 0)
        for f in self._leavers:
            f._loop(*f._resume)
        return end

    def _loop(self, now: float, rr: int) -> float:
        """The scheduler loop from clock ``now`` and scan cursor ``rr``
        over the resident blocks and block queue; returns the finish
        cycle."""
        vsteps = self._vsteps
        prepped = self._prepped
        stats = self.stats
        prof = self.profile
        wake_of = self._wake_inf
        prog = self._program
        deps = prog.deps
        costs = prog.costs
        lats = prog.lats
        writes = prog.writes
        cnt = self._cnt
        lanes_acc = self._lanes_acc
        L = self._L
        ends = self._ends
        n_prog = prog.n
        vok = self._vok
        queue = self._queue
        resident = self._resident
        max_resident = self._max_resident

        # The scan state is cached instead of recomputed per iteration:
        # ``wake[i]`` is warp i's earliest issue cycle (inf = done or at
        # a barrier) and is invalidated on exactly the events that can
        # change it — the warp's own issue, barrier release, retirement.
        warps: list[WarpState] = []
        spans: list[tuple[int, int]] = []
        wake: list[float] = []

        def activate() -> None:
            # A gang admits blocks in lockstep: one per member, their
            # shared memories rows of one stack.
            while queue and len(resident) < max_resident:
                gang = (self, *self._fols)
                shared = SharedMemory.stacked(
                    self.lk.shared_words, self.device, len(gang)
                )
                for mb, sh in zip(gang, shared):
                    mb._admit(now, sh)

        def rebuild() -> None:
            nonlocal warps, spans, wake
            warps = self._rebuild()
            spans = []
            lo = 0
            for blk in resident:
                hi = lo + len(blk.warps)
                spans.extend([(lo, hi)] * len(blk.warps))
                lo = hi
            wake = [wake_of(w) for w in warps]

        # A member resuming alone after leaving its gang may have just
        # finished a block (see _split); a fresh run has none resident.
        self._drop_blocks([k for k, b in enumerate(resident) if b.done])
        activate()
        rebuild()
        while resident:
            n = len(warps)
            # Round-robin scan over cached wake times: issue the first
            # ready warp from the cursor, charging one scoreboard stall
            # per countable (finite-wake) warp scanned before it —
            # exactly the interpreter's accounting.  The same pass also
            # collects what the fused driver needs about the *other*
            # warps (their count and earliest wake), so one O(n) loop
            # serves both the scan and the fused-run entry.
            i = -1
            stalls = 0
            countable_others = 0
            t_other = _INF
            for k in range(n):
                j = rr + k
                if j >= n:
                    j -= n
                t = wake[j]
                if i < 0 and t <= now:
                    i = j
                    continue
                if t != _INF:
                    countable_others += 1
                    if i < 0:
                        stalls += 1
                    if t < t_other:
                        t_other = t
            stats.scoreboard_stalls += stalls
            if i >= 0:
                rr = i + 1
                if rr >= n:
                    rr = 0
                warp = warps[i]
                pc0 = warp.pc
                if countable_others and vok[pc0]:
                    res = self._vdispatch_replay(warps, wake, i, pc0, now)
                    if res is not None:
                        now, rr = res
                        continue
                if vsteps[pc0] is not None:
                    # Fused driver, inlined (one entry per scheduler
                    # iteration makes the call itself measurable).  The
                    # scan above already charged the stalls that chose
                    # this warp, so the first instruction issues
                    # unconditionally; each further issue replays the
                    # interpreter's full round-robin scan in constant
                    # time (other wake times are provably constant while
                    # this warp runs — see the module docstring).  Each
                    # step runs on the warp's arena row, followed by the
                    # bookkeeping a run event does for its rows.
                    while warp.div_stack and warp.pc == warp.div_stack[-1][0]:
                        self._rejoin(warp)
                    act = warp.active
                    if act is warp._fp_act:
                        na = warp._fp_na
                    else:
                        na = int(np.count_nonzero(act))  # == int(act.sum())
                        warp._fp_act = act
                        warp._fp_na = na
                    if na == WARP:
                        act = True
                    # Each step runs on all of the warp's member rows;
                    # the leader's row reads back for the wake checks.
                    R1, P1, pend1, tid1, cta1, _ = self._vrows(i, i + 1)
                    pending = warp.pending
                    if not warp._fol:
                        pend1 = None
                    pc = pc0
                    end = ends[pc]
                    while True:
                        got = vsteps[pc](R1, P1, tid1, cta1, act, L, now)
                        w = writes[pc]
                        if w >= 0:
                            if pend1 is None:
                                pending[w] = now + lats[pc]
                            else:
                                pend1[:, w] = now + lats[pc]
                        cnt[pc] += 1
                        if got is None:
                            lanes_acc[pc] += na
                        else:
                            self._pred_lanes(pc, got)
                        now += costs[pc]
                        pc += 1
                        if pc >= end or t_other <= now:
                            break  # block end, or another warp scans first
                        wk = now
                        for r in deps[pc]:
                            v = pending[r]
                            if v > wk:
                                wk = v
                        if wk > now:
                            if t_other <= wk:
                                # Another warp wins the idle-advance;
                                # stop with no accounting — the outer
                                # loop replays the interpreter's scan
                                # and advance exactly.
                                break
                            stats.scoreboard_stalls += countable_others + 1
                            stats.idle_cycles += wk - now
                            if prof is not None:
                                # The running warp is provably the gap's
                                # earliest waker (others wake at or past
                                # t_other > wk), so attribute directly —
                                # same verdict as the interpreter's scan
                                # (its next issue is ``now``).
                                prof.gap(
                                    now,
                                    wk - now,
                                    self._prof_reason(
                                        pending, warp.mem_ready, now,
                                        deps[pc], wk, now,
                                    ),
                                )
                            now = wk
                        stats.scoreboard_stalls += countable_others
                    warp.pc = pc
                    warp.next_issue = now
                    for fw in warp._fol:
                        fw.pc = pc
                        fw.next_issue = now
                    if pc >= n_prog:  # pragma: no cover - lower() appends EXIT
                        for mw in (warp, *warp._fol):
                            self._retire(mw, now)
                    # _wake_inf inlined: this runs once per fused entry.
                    if warp.done or warp.at_barrier:
                        wake[i] = _INF
                    else:
                        t = now
                        for r in deps[pc]:
                            v = pending[r]
                            if v > t:
                                t = v
                        wake[i] = t
                    if warp.done:  # defensive: fused run hit kernel end
                        lo, hi = spans[i]
                        for j in range(lo, hi):
                            wake[j] = wake_of(warps[j])
                else:
                    op = prepped[pc0].op
                    if warp._fol:
                        now = self._gang_issue(warp, now)
                        if self._split_at:
                            self._split(rr)
                    else:
                        now = self._issue(warp, now)
                    if op is Op.BAR_SYNC or op is Op.EXIT or warp.done:
                        # Barrier release / retirement can change every
                        # sibling's wake time; anything else only self.
                        lo, hi = spans[i]
                        for j in range(lo, hi):
                            wake[j] = wake_of(warps[j])
                    elif warp.at_barrier:
                        wake[i] = _INF
                    else:
                        t = warp.next_issue
                        pending = warp.pending
                        for r in deps[warp.pc]:
                            v = pending[r]
                            if v > t:
                                t = v
                        wake[i] = t
                if warp.done and warp.block.done:
                    # The interpreter scans for finished blocks every
                    # iteration, but a block can only complete on the
                    # issue that retires its last warp — checking the
                    # issued warp's block is equivalent.
                    self._drop_blocks([resident.index(warp.block)])
                    activate()
                    rebuild()
                continue
            # Nobody issuable (``stalls`` above already counted every
            # countable warp, and ``t_other`` is the minimum over all of
            # them): advance time to the earliest wake-up.
            t_min = t_other
            if t_min == _INF:
                if any(not w.done for w in warps):
                    raise DeadlockError(
                        f"kernel {self.lk.name!r}: all warps blocked "
                        f"(divergent barrier?) at cycle {now:.0f}"
                    )
                self._drop_blocks(
                    [k for k, b in enumerate(resident) if b.done]
                )
                activate()
                rebuild()
                continue
            new_now = t_min if t_min > now else now
            if new_now == now:  # pragma: no cover - defensive
                raise DeadlockError(
                    f"kernel {self.lk.name!r}: scheduler stuck at {now:.0f}"
                )
            stats.idle_cycles += new_now - now
            if prof is not None:
                self._prof_gap(warps, now, new_now)
            now = new_now
        self._finish(now)
        return now

    # -- gangs ------------------------------------------------------------

    def _admit(self, now: float, shared: SharedMemory) -> None:
        """Make this member's next queued block resident at ``now``, with
        shared memory ``shared``."""
        blk = BlockState(block_id=self._queue.popleft(), shared=shared)
        n_warps = self.block_dim // WARP
        for w in range(n_warps):
            ws = WarpState(blk, w, self.lk.reg_count, self.lk.pred_count)
            ws.next_issue = now
            ws._prof_t0 = now
            blk.warps.append(ws)
        self._resident.append(blk)
        self.stats.blocks_executed += 1
        self.stats.warps_executed += n_warps

    def _rebuild(self) -> list[WarpState]:
        """Flat warp lists of every member after a block retired or was
        admitted; links each of the leader's warps to its copies
        (``_fol``) and binds all of them to arena rows.  Returns the
        leader's list, the one the scheduler scans."""
        warps = [w for blk in self._resident for w in blk.warps]
        self._warps = warps
        for f in self._fols:
            f._warps = [w for blk in f._resident for w in blk.warps]
        if self._fols:
            for j, w in enumerate(warps):
                w._fol = tuple(f._warps[j] for f in self._fols)
        self._assign_rows(warps)
        return warps

    def _drop_blocks(self, ks: list[int]) -> None:
        """Retire the resident blocks at positions ``ks`` — the same
        positions in every member, whose blocks finish together."""
        if ks:
            for mb in (self, *self._fols):
                mb._resident[:] = [
                    b for k, b in enumerate(mb._resident) if k not in ks
                ]

    def _rejoin(self, warp: WarpState) -> None:
        """Pop one reconvergence entry at ``warp``'s pc: its parked lanes
        rejoin, in every member (their masks are the leader's)."""
        _, mask = warp.div_stack.pop()
        warp.active = (warp.active | mask) & warp.alive
        if self.profile is not None:
            self.profile.reconvergences += 1
        for fw in warp._fol:
            fw.div_stack.pop()
            fw.active = warp.active

    def _issue_at(self, warp: WarpState, pc: int, now: float) -> float:
        """Issue ``warp``'s instruction at ``pc`` from inside a dispatch
        window, where its pc attribute still holds the window's entry."""
        warp.pc = pc
        if not warp._fol:
            return self._issue(warp, now)
        for fw in warp._fol:
            fw.pc = pc
        return self._gang_issue(warp, now)

    def _gang_issue(self, warp: WarpState, now: float) -> float:
        """The interpreter's issue of ``warp``'s instruction in every
        member, each with its own stats, memory pipeline, texture cache
        and block; returns the leader's clock.

        A global or shared access or a barrier is one stacked request
        (:meth:`SMExecutor._issue_stacked` over the warp's adjacent arena
        rows, ``M × 32`` lanes): one pass computes every member's lane
        masks, addresses, data movement and coalescing, and each member
        then makes its own pipeline request, counts and scoreboard marks.
        Branches, exits, texture fetches and a pc with a reconvergence
        pending run ``_issue`` per member.

        Global and texture costs, bank conflicts, branch directions,
        exits and barriers are data: each follower's outcome — clock,
        pc, active mask, divergence depth, scoreboard, barrier and done
        state — is compared with the leader's, and one that differs is
        queued in ``_split_at`` with its own clock, to leave the gang
        (:meth:`_split`).  Equal masks are rebound to the leader's
        object, as the congruent steps assume."""
        fols = warp._fol
        p = self._prepped[warp.pc]
        if p.op in STACKED_OPS and not (
            warp.div_stack and warp.pc == warp.div_stack[-1][0]
        ):
            j = warp._row
            R, P = self._vrows(j, j + 1)[:2]
            end, *ends = self._issue_stacked(
                (self, *self._fols), (warp, *fols), R, P, p, now
            )
            self._vwhy["gang_stacked"] += self._gm
        else:
            end = self._issue(warp, now)
            ends = [f._issue(fw, now) for f, fw in zip(self._fols, fols)]
        M = self._gm
        j = warp._row * M
        pend = self._a_pend[j : j + M]
        same = (pend[1:] == pend[0]).all(axis=1).tolist()
        pc, act, done, bar = warp.pc, warp.active, warp.done, warp.at_barrier
        depth = len(warp.div_stack)
        count = warp.block.barrier_count
        for f, fw, fe, ok in zip(self._fols, fols, ends, same):
            if (
                ok
                and fe == end
                and fw.pc == pc
                and fw.done == done
                and fw.at_barrier == bar
                and len(fw.div_stack) == depth
                and fw.block.barrier_count == count
                and (fw.active is act or np.array_equal(fw.active, act))
            ):
                fw.active = act
            else:
                self._split_at.append((f, fe))
        return end

    def _split(self, rr: int) -> None:
        """Let the members queued in ``_split_at`` leave the gang.

        Each leaver copies its rows into an arena of its own and will
        resume alone from its own clock, the scan cursor ``rr`` and its
        block queue once the gang has finished (:meth:`_leave`); the
        remaining members' rows close ranks."""
        leaving = {id(f): end for f, end in self._split_at}
        self._split_at = []
        M = self._gm
        keep = [0]
        for g, f in enumerate(self._fols, 1):
            if id(f) in leaving:
                f._leave(self, g, leaving[id(f)], rr)
                self._leavers.append(f)
            else:
                keep.append(g)
        self._vwhy["gang_splits"] += len(leaving)
        self._fols = [self._fols[g - 1] for g in keep[1:]]
        self._gm = M2 = len(keep)
        nw = len(self._warps)
        rows = (np.arange(nw)[:, None] * M + np.array(keep)).ravel()
        n = nw * M2
        self._a_regs[:, :n] = self._a_regs[:, rows]
        self._a_preds[:, :n] = self._a_preds[:, rows]
        self._a_pend[:n] = self._a_pend[rows]
        self._a_tid[:n] = self._a_tid[rows]
        self._a_cta[:n] = self._a_cta[rows]
        self._a_rows = {}
        for j, w in enumerate(self._warps):
            w._fol = tuple(f._warps[j] for f in self._fols)
            for row, mw in enumerate((w, *w._fol), j * M2):
                self._bind(mw, row)
        glanes = self._glanes[keep]
        if M2 == 1:
            # A gang of one: back to the lone SM's counters.
            for q, extra in enumerate(glanes[0].tolist()):
                self._lanes_acc[q] += extra
            glanes = None
        self._glanes = glanes

    def _leave(self, lead: "FastSMExecutor", g: int, now: float, rr: int):
        """Leave ``lead``'s gang as member ``g`` at clock ``now`` and scan
        cursor ``rr``: take this member's arena rows, copies of the
        gang's issue and lane counts, its stalls and idle cycles so far,
        and the leader's launch values, then wait in ``_resume`` to run
        alone."""
        M = lead._gm
        self._gm = 1
        self._fols = []
        self._glanes = None
        self._split_at = []
        self._max_resident = lead._max_resident
        self._arena_alloc(self._max_resident)
        nw = len(self._warps)
        hi = nw * M
        self._a_regs[:, :nw] = lead._a_regs[:, g:hi:M]
        self._a_preds[:, :nw] = lead._a_preds[:, g:hi:M]
        self._a_pend[:nw] = lead._a_pend[g:hi:M]
        self._a_tid[:nw] = lead._a_tid[g:hi:M]
        self._a_cta[:nw] = lead._a_cta[g:hi:M]
        for j, w in enumerate(self._warps):
            self._bind(w, j)
        self._cnt = list(lead._cnt)
        self._lanes_acc = (
            np.array(lead._lanes_acc, dtype=np.int64) + lead._glanes[g]
        ).tolist()
        self._L = lead._L
        stats, gstats = self.stats, lead.stats
        stats.scoreboard_stalls += gstats.scoreboard_stalls - lead._gbase[0]
        stats.idle_cycles += gstats.idle_cycles - lead._gbase[1]
        self._resume = (now, rr)

    def _finish(self, now: float) -> None:
        """End the run at ``now``: every member still in the gang ends
        here too, with the gang's issue and lane counts, stalls and idle
        cycles."""
        stats = self.stats
        c = np.array(self._cnt, dtype=np.int64)
        ln = np.array(self._lanes_acc, dtype=np.int64)
        glanes = self._glanes
        for g, f in enumerate(self._fols, 1):
            fstats = f.stats
            fstats.scoreboard_stalls += stats.scoreboard_stalls - self._gbase[0]
            fstats.idle_cycles += stats.idle_cycles - self._gbase[1]
            fstats.sm_cycles.append(now)
            f._fold_counts(c, ln + glanes[g])
            f.end_cycle = now
        stats.sm_cycles.append(now)
        self._fold_counts(c, ln if glanes is None else ln + glanes[0])
        self.end_cycle = now
        self._flush_vec()

    # -- stats ------------------------------------------------------------

    def _flush_vec(self) -> None:
        """Merge this run's dispatch counters into the process totals."""
        why = self._vwhy
        why["dispatches"] = self._vd
        why["warps"] = self._vw
        why["instructions"] = self._vi
        why["fallbacks"] = self._vf
        with _VEC_LOCK:
            for name, value in why.items():
                _VEC_COUNTERS[name] += value
        if _telemetry.enabled():
            for name, value in why.items():
                if value:
                    _telemetry.inc(
                        f"cudasim.fastpath.vec.{name}",
                        float(value),
                        kernel=self.lk.name,
                    )
        for name in why:
            why[name] = 0
        self._vd = self._vw = self._vi = self._vf = 0

    def _fold_counts(self, c: np.ndarray, ln: np.ndarray) -> None:
        """Fold per-pc issue counts ``c`` and lane counts ``ln`` of the
        compiled paths into :class:`KernelStats`.

        Dynamic counts are order-independent integer sums, so batching
        them per pc leaves ``by_op``/``by_class`` and the instruction
        totals identical to per-issue counting.  The same holds for the
        profiler's per-pc counters: every fused op has a static issue
        cost (SFU ops 16 cycles, everything else 4 — mirroring
        ``_step_costs``), and so does every shared load the replay
        inlines (its conflict-free vector cost), so ``count × cost``
        equals the interpreter's per-issue accumulation exactly.  The
        fold is vectorized over the
        program's pcs (counts stay far below 2**53, so the float64
        per-op sums are exact).
        """
        if not c.any():
            return
        program = self._program
        stats = self.stats
        stats.warp_instructions += int(c.sum())
        stats.thread_instructions += int(ln.sum())
        per_op = np.bincount(
            program.flush_group, weights=c, minlength=len(program.flush_ops)
        )
        for op, total in zip(program.flush_ops, per_op.tolist()):
            if total:
                total = int(total)
                cls = ISSUE_CLASS[op]
                stats.by_class[cls] = stats.by_class.get(cls, 0) + total
                stats.by_op[op] = stats.by_op.get(op, 0) + total
        prof = self.profile
        if prof is not None:
            prof.issue_count += c
            prof.lanes += ln
            prof.issue_cycles += c * program.flush_cost

"""Content-addressed kernel-compilation cache and :class:`CompileOptions`.

The paper's whole experimental loop is "recompile with new flags →
relaunch → time it" over a layout × unroll × block-size grid.  The
transform pipeline (LICM, unrolling, DCE, register allocation) is
deterministic, so a configuration that has been lowered once never needs
lowering again: this module keys compiled kernels by a *content hash* of
the source IR plus the full option set and the toolchain revision, the
same way ccache keys object files by preprocessed source.

Three pieces:

* :class:`CompileOptions` — a frozen dataclass holding every compiler
  option (``compile_kernel(kernel, CompileOptions(unroll=..., ...))``).
  It is also the cache key's option component, so there is exactly one
  canonical spelling of every configuration (``Unroll.FULL`` and
  ``"full"`` normalize to the same key).
* :func:`kernel_fingerprint` — a stable SHA-256 digest of a kernel's IR
  tree (names, operands, loop structure; comments excluded).  Two
  structurally identical kernels share a fingerprint even when built by
  different :class:`~repro.cudasim.ir.KernelBuilder` instances.
* :class:`KernelCache` — a bounded, thread-safe map from
  ``(fingerprint, options, toolchain)`` to the compiled
  :class:`~repro.cudasim.lower.LoweredKernel`, with an optional on-disk
  spill so repeated CLI sweeps skip compilation across processes.
  Hits and misses are counted locally and on the telemetry registry
  (``cudasim.kernel_cache.hits`` / ``.misses``).

Cached :class:`LoweredKernel` objects are shared between callers; the
compilation pipeline is the only code that mutates them, and it runs
before insertion, so sharing is safe.
"""

from __future__ import annotations

import enum
import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import Callable, Union

from ..telemetry import runtime as _telemetry
from .errors import IRError
from .ir import IfStmt, Kernel, LoopStmt, RawStmt, Seq, Stmt
from .isa import Imm, Instr, Param, Reg, SReg

__all__ = [
    "Unroll",
    "CompileOptions",
    "CacheStats",
    "KernelCache",
    "kernel_fingerprint",
    "default_cache",
    "set_default_cache",
]

#: Bump when a compiler pass changes observable output, so stale on-disk
#: cache entries from older builds can never be returned.
COMPILER_GENERATION = 1


class Unroll(enum.Enum):
    """Symbolic unroll policies (replaces the ``"full"`` string sentinel)."""

    FULL = "full"

    @classmethod
    def coerce(
        cls, value: Union[int, str, "Unroll", None]
    ) -> Union[int, str, None]:
        """Normalize an unroll spec to ``None``, a positive int or ``"full"``."""
        if value is None or value is cls.FULL:
            return "full" if value is cls.FULL else None
        if isinstance(value, str):
            if value != "full":
                raise IRError(
                    f"unknown unroll spec {value!r}; use a factor, "
                    f"Unroll.FULL or 'full'"
                )
            return "full"
        if isinstance(value, bool) or not isinstance(value, int):
            raise IRError(f"unroll must be int, 'full' or Unroll, got {value!r}")
        if value < 1:
            raise IRError(f"unroll factor must be >= 1, got {value}")
        return value


@dataclass(frozen=True)
class CompileOptions:
    """One point in the compiler-option space (and the cache key's options).

    ``unroll`` accepts an int factor, ``"full"``, :data:`Unroll.FULL` or
    ``None`` and is normalized on construction so equal configurations
    compare (and hash) equal.
    """

    unroll: Union[int, str, Unroll, None] = None
    licm: bool = False
    dce: bool = True
    max_registers: int | None = None
    validate: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "unroll", Unroll.coerce(self.unroll))

    def replace(self, **changes) -> "CompileOptions":
        return replace(self, **changes)

    def key_token(self) -> str:
        """Canonical string folded into the cache key."""
        parts = [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)]
        return ";".join(parts)


def _operand_token(op) -> str:
    if isinstance(op, Reg):
        return f"r:{op.name}"
    if isinstance(op, Imm):
        return f"i:{op.value!r}"
    if isinstance(op, Param):
        return f"p:{op.name}"
    if isinstance(op, SReg):
        return f"s:{op.special.value}"
    raise IRError(f"cannot fingerprint operand {op!r}")


def _feed_instr(h, ins: Instr) -> None:
    h.update(ins.op.name.encode())
    for d in ins.dsts:
        h.update(_operand_token(d).encode())
    for s in ins.srcs:
        h.update(_operand_token(s).encode())
    h.update(
        f"|{ins.offset}|{ins.cmp}|{ins.target}|"
        f"{ins.pred.name if ins.pred else ''}|{ins.pred_neg}".encode()
    )


def _feed_stmt(h, stmt: Stmt) -> None:
    if isinstance(stmt, RawStmt):
        h.update(b"raw(")
        _feed_instr(h, stmt.instr)
    elif isinstance(stmt, Seq):
        h.update(b"seq(")
        for s in stmt:
            _feed_stmt(h, s)
    elif isinstance(stmt, LoopStmt):
        h.update(
            f"loop({_operand_token(stmt.var)},"
            f"{_operand_token(stmt.start)},{_operand_token(stmt.stop)},"
            f"{stmt.step},{stmt.unroll}".encode()
        )
        _feed_stmt(h, stmt.body)
    elif isinstance(stmt, IfStmt):
        h.update(f"if({_operand_token(stmt.pred)},{stmt.negate}".encode())
        _feed_stmt(h, stmt.body)
    else:  # pragma: no cover - defensive
        raise IRError(f"cannot fingerprint {stmt!r}")
    h.update(b")")


def kernel_fingerprint(kernel: Kernel) -> str:
    """Stable content hash of a kernel's IR (comments excluded)."""
    h = hashlib.sha256()
    h.update(kernel.name.encode())
    h.update(repr(kernel.params).encode())
    h.update(str(kernel.shared_words).encode())
    _feed_stmt(h, kernel.body)
    return h.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`KernelCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "hit_rate": self.hit_rate,
        }


class KernelCache:
    """Bounded LRU map from compile keys to :class:`LoweredKernel`.

    ``persist_dir`` enables the on-disk layer: every stored entry is also
    pickled to ``<persist_dir>/<key>.lk`` and missing in-memory entries
    are re-read from there (a *disk hit* still counts as a hit).  Corrupt
    or unreadable files fall back to recompilation.
    """

    def __init__(
        self, max_entries: int = 512, persist_dir: str | None = None
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.persist_dir = persist_dir
        self.stats = CacheStats()
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def key(
        self, kernel: Kernel, options: CompileOptions, toolchain=None
    ) -> str:
        """Full cache key: IR hash × options × toolchain × compiler gen."""
        h = hashlib.sha256()
        h.update(kernel_fingerprint(kernel).encode())
        h.update(options.key_token().encode())
        h.update(str(getattr(toolchain, "value", toolchain)).encode())
        h.update(str(COMPILER_GENERATION).encode())
        return h.hexdigest()

    def get_or_compile(
        self,
        kernel: Kernel,
        options: CompileOptions,
        compile_fn: Callable[[Kernel, CompileOptions], object],
        toolchain=None,
    ):
        """Return the cached lowering for this configuration, compiling on miss."""
        key = self.key(kernel, options, toolchain)
        with self._lock:
            lk = self._entries.get(key)
            if lk is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                _telemetry.inc("cudasim.kernel_cache.hits", kernel=kernel.name)
                return lk
        lk = self._load_disk(key)
        if lk is not None:
            with self._lock:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._put_locked(key, lk, spill=False)
            _telemetry.inc("cudasim.kernel_cache.hits", kernel=kernel.name)
            return lk
        lk = compile_fn(kernel, options)
        with self._lock:
            self.stats.misses += 1
            self._put_locked(key, lk, spill=True)
        _telemetry.inc("cudasim.kernel_cache.misses", kernel=kernel.name)
        return lk

    def get_or_build(self, key: str, build: Callable[[], object]):
        """Memoize an arbitrary compiled artifact under a caller-made key.

        The generic sibling of :meth:`get_or_compile` used by the
        executor fastpath for its codegen'd programs.  Entries share the
        LRU budget and hit/miss counters but never touch the disk layer:
        ``exec``-built module objects are not picklable.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry
        entry = build()
        with self._lock:
            self.stats.misses += 1
            self._put_locked(key, entry, spill=False)
        return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    # -- internals ---------------------------------------------------------

    def _put_locked(self, key: str, lk, spill: bool) -> None:
        self._entries[key] = lk
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        if spill and self.persist_dir is not None:
            self._store_disk(key, lk)

    def _disk_path(self, key: str) -> str:
        return os.path.join(self.persist_dir, f"{key}.lk")

    def _load_disk(self, key: str):
        if self.persist_dir is None:
            return None
        try:
            with open(self._disk_path(key), "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            return None

    def _store_disk(self, key: str, lk) -> None:
        try:
            os.makedirs(self.persist_dir, exist_ok=True)
            tmp = self._disk_path(key) + ".tmp"
            with open(tmp, "wb") as fh:
                pickle.dump(lk, fh)
            os.replace(tmp, self._disk_path(key))
        except OSError:  # disk cache is best-effort
            pass


#: Environment variable naming a directory for the persistent layer of
#: the process-default cache.
PERSIST_ENV = "REPRO_KERNEL_CACHE_DIR"

_default: KernelCache | None = None
_default_lock = threading.Lock()


def default_cache() -> KernelCache:
    """The process-wide cache :func:`repro.cudasim.compile_kernel` uses."""
    global _default
    with _default_lock:
        if _default is None:
            _default = KernelCache(persist_dir=os.environ.get(PERSIST_ENV))
        return _default


def set_default_cache(cache: KernelCache | None) -> KernelCache | None:
    """Swap the process-default cache (``None`` → fresh on next use)."""
    global _default
    with _default_lock:
        previous, _default = _default, cache
    return previous

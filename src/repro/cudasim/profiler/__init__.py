"""Opt-in, Nsight-style profiler for the cycle simulator.

Layout of the package:

* :mod:`~repro.cudasim.profiler.stats` — :class:`KernelStats`, the
  always-on per-launch statistics block (moved here from the old
  ``cudasim/profiler.py`` module; the import path
  ``repro.cudasim.profiler.KernelStats`` is unchanged).
* :mod:`~repro.cudasim.profiler.counters` — the opt-in
  hardware-counter containers: :class:`ProfileSpec`, per-SM
  :class:`SMProfile`, merged :class:`KernelProfile`.
* :mod:`~repro.cudasim.profiler.runtime` — the process-global session
  (``enable``/``disable``/``spec``), telemetry's zero-overhead pattern.
* :mod:`~repro.cudasim.profiler.roofline` — memory/compute-bound
  classification against the device's modeled ceilings.
* :mod:`~repro.cudasim.profiler.report` — ``repro.profile/v1``
  documents, console reports, and counter diffs.
* :mod:`~repro.cudasim.profiler.cli` — the ``gravit-prof`` entry point.

Typical use::

    from repro.cudasim import profiler

    profiler.enable()
    forces, result = backend.forces_cycle(system)   # any launch
    prof = profiler.last_profile()
    print(prof.stall_cycles, prof.occupancy_achieved)

Profiling never perturbs the simulation: results and cycle counts are
bit-identical with the profiler on or off, and the interpreter and the
compiled fastpath produce identical counters (pinned by tests).
"""

from .counters import (
    FLOPS_PER_OP,
    STALL_REASONS,
    KernelProfile,
    ProfileSpec,
    SMProfile,
    regions_for_layout,
)
from .report import (
    PROFILE_SCHEMA,
    diff_documents,
    load_document,
    profile_document,
    render_report,
    validate_profile,
    write_document,
)
from .roofline import render_roofline, roofline
from .runtime import (
    ProfilerSession,
    disable,
    enable,
    enabled,
    get,
    last_profile,
    profiles,
    reset,
    set_regions,
    spec,
)
from .stats import KernelStats

__all__ = [
    "KernelStats",
    "ProfileSpec",
    "SMProfile",
    "KernelProfile",
    "STALL_REASONS",
    "FLOPS_PER_OP",
    "regions_for_layout",
    "ProfilerSession",
    "enable",
    "disable",
    "enabled",
    "get",
    "reset",
    "spec",
    "set_regions",
    "last_profile",
    "profiles",
    "roofline",
    "render_roofline",
    "PROFILE_SCHEMA",
    "profile_document",
    "validate_profile",
    "render_report",
    "diff_documents",
    "load_document",
    "write_document",
]

"""Process-global profiler state — the opt-in switch the launcher reads.

Mirrors :mod:`repro.telemetry.runtime`: one module-level ``_ACTIVE``
slot, ``enable()`` installs a :class:`ProfilerSession`, ``disable()``
clears it, and the single hot-path hook (``Device.launch`` reading
:func:`spec`) is one global read returning ``None`` when profiling is
off.  The executor itself never touches this module — it receives a
:class:`~repro.cudasim.profiler.counters.ProfileSpec` through
``run_sms``, so the launch that reads the spec decides what every SM
counts.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .counters import KernelProfile, ProfileSpec

__all__ = [
    "ProfilerSession",
    "enable",
    "disable",
    "enabled",
    "fresh_session",
    "get",
    "reset",
    "spec",
    "set_regions",
    "last_profile",
    "profiles",
]

#: How many merged launch profiles a session retains.
PROFILE_RING = 256


class ProfilerSession:
    """One enabled profiling session (regions config + collected profiles)."""

    def __init__(
        self,
        regions: tuple = (),
        max_gap_events: int = 4096,
    ) -> None:
        self.regions = tuple(regions)
        self.max_gap_events = int(max_gap_events)
        self.profiles: list[KernelProfile] = []
        self.last_profile: KernelProfile | None = None

    def spec(self) -> ProfileSpec:
        """The per-launch configuration passed to the SMs."""
        return ProfileSpec(
            regions=self.regions, max_gap_events=self.max_gap_events
        )

    def record(self, profile: KernelProfile) -> None:
        self.last_profile = profile
        self.profiles.append(profile)
        if len(self.profiles) > PROFILE_RING:
            del self.profiles[: len(self.profiles) - PROFILE_RING]


_ACTIVE: ProfilerSession | None = None


def enable(regions: tuple = (), max_gap_events: int = 4096) -> ProfilerSession:
    """Install (or return the already-active) profiler session."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = ProfilerSession(regions, max_gap_events)
    return _ACTIVE


def disable() -> None:
    global _ACTIVE
    _ACTIVE = None


def enabled() -> bool:
    return _ACTIVE is not None


def get() -> ProfilerSession | None:
    return _ACTIVE


@contextmanager
def fresh_session(max_gap_events: int = 4096) -> Iterator[ProfilerSession]:
    """A new session for the ``with`` body only: whatever was active
    before it (a session, or none) is active again afterwards."""
    global _ACTIVE
    saved = _ACTIVE
    _ACTIVE = ProfilerSession(max_gap_events=max_gap_events)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = saved


def reset() -> ProfilerSession | None:
    """Drop collected profiles; stays enabled (and keeps its regions)."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE = ProfilerSession(_ACTIVE.regions, _ACTIVE.max_gap_events)
    return _ACTIVE


# -- hooks -----------------------------------------------------------------


def spec() -> ProfileSpec | None:
    """The active session's launch spec, or ``None`` when disabled.

    This is the only profiler call on the launch path; when profiling is
    off it is a single global read.
    """
    active = _ACTIVE
    return active.spec() if active is not None else None


def set_regions(regions: tuple) -> None:
    """Update the address-region table for subsequent launches.

    Harmless no-op when disabled, so kernel drivers can advertise their
    buffer layout unconditionally.
    """
    active = _ACTIVE
    if active is not None:
        active.regions = tuple(regions)


def last_profile() -> KernelProfile | None:
    active = _ACTIVE
    return active.last_profile if active is not None else None


def profiles() -> list[KernelProfile]:
    active = _ACTIVE
    return list(active.profiles) if active is not None else []

"""Multi-SM engine determinism: serial and process-pool cycle
simulation must be indistinguishable.

The acceptance bar is bit-identical particle state and identical
``KernelStats`` across engines — parallelism may only change wall-clock
time, never simulation results.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cudasim import SM_ENGINES, Device, LaunchError
from repro.cudasim.executor import ENGINE_ENV, run_sms
from repro.gravit import (
    GpuConfig,
    GpuSimulation,
    SimulationConfig,
    two_galaxies,
)


def run_gpu_steps(engine: str, steps: int = 2):
    """Cycle-simulate a short device-resident run on one engine."""
    system = two_galaxies(128, seed=3)
    dev = Device(sm_engine=engine, heap_bytes=1 << 22)
    with GpuSimulation(
        system, GpuConfig(block_size=64), device=dev
    ) as sim:
        cycles = sim.run(steps, dt=1e-3)
        state = sim.download()
    return cycles, state


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(LaunchError):
            Device(sm_engine="gpu-go-brr")

    def test_engine_env_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "process")
        assert Device().sm_engine == "process"
        monkeypatch.delenv(ENGINE_ENV)
        assert Device().sm_engine == "serial"

    def test_thread_engine_rejected(self, monkeypatch):
        """There is no thread engine: every way of asking for one fails
        with the same typed errors as any other unknown engine."""
        assert SM_ENGINES == ("serial", "process")
        with pytest.raises(LaunchError):
            Device(sm_engine="thread")
        with pytest.raises(ValueError, match="engine"):
            SimulationConfig(engine="thread")
        monkeypatch.setenv(ENGINE_ENV, "thread")
        with pytest.raises(ValueError, match=ENGINE_ENV):
            Device()

    def test_run_sms_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            run_sms(None, None, None, None, {}, 1, 1, [], 1, engine="nope")


class TestProcessEngineDeterminism:
    """The process pool ships heap segments out and replays stores back."""

    def test_bit_identical_particle_state_and_stats(self):
        serial_cycles, serial_state = run_gpu_steps("serial")
        process_cycles, process_state = run_gpu_steps("process")
        assert process_cycles == serial_cycles
        assert np.array_equal(serial_state.positions, process_state.positions)
        assert np.array_equal(
            serial_state.velocities, process_state.velocities
        )

    def test_identical_kernel_stats(self):
        from repro.gravit import GpuForceBackend

        results = {}
        for engine in ("serial", "process"):
            backend = GpuForceBackend(
                GpuConfig(block_size=64),
                device=Device(sm_engine=engine, heap_bytes=1 << 22),
            )
            forces, launch = backend.forces_cycle(two_galaxies(128, seed=3))
            results[engine] = (forces, launch)
        serial_forces, serial_launch = results["serial"]
        process_forces, process_launch = results["process"]
        assert np.array_equal(serial_forces, process_forces)
        assert serial_launch.cycles == process_launch.cycles
        assert (
            serial_launch.stats.as_dict() == process_launch.stats.as_dict()
        )
        assert len(serial_launch.sm_stats) == len(process_launch.sm_stats)
        for a, b in zip(serial_launch.sm_stats, process_launch.sm_stats):
            assert a.as_dict() == b.as_dict()


class TestTraceFallback:
    def test_trace_forces_serial_engine(self):
        """A trace hook must see every access in program order, so the
        process engine hands traced launches back to the serial path."""
        from repro.cudasim import TraceRecorder

        recorder = TraceRecorder()
        backend_kwargs = dict(block_size=64)
        from repro.gravit import GpuForceBackend

        backend = GpuForceBackend(
            GpuConfig(**backend_kwargs),
            device=Device(sm_engine="process", heap_bytes=1 << 22),
        )
        forces, launch = backend.forces_cycle(
            two_galaxies(128, seed=3), trace=recorder
        )
        assert len(recorder.trace.records) > 0
        assert launch.cycles > 0

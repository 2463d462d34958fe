"""Device-resident simulation: force + integrate kernels, no host hop.

Includes the executable proof of the paper's access-frequency grouping:
under SoAoaS the force kernel's recorded memory traffic never touches
the velocity array.
"""

import numpy as np
import pytest

from repro.core import make_layout
from repro.cudasim.trace import TraceRecorder
from repro.gravit import (
    GpuConfig,
    GpuSimulation,
    ParticleSystem,
    euler_step,
    direct_forces,
    plummer,
    uniform_cube,
)


def _cpu_euler_f32(system, steps, dt, eps, tile):
    """Host-side reference: same scheme, same f32 force math."""
    from repro.gravit.forces_cpu import direct_forces_f32_tiled

    sys_ = system.copy()
    for _ in range(steps):
        euler_step(
            sys_,
            lambda s: direct_forces_f32_tiled(s, eps=eps, tile=tile),
            dt,
        )
    return sys_


class TestGpuSimulation:
    @pytest.mark.parametrize("kind", ["soaoas", "unopt"])
    def test_matches_cpu_euler(self, kind):
        system = plummer(128, seed=51)
        with GpuSimulation(
            system, GpuConfig(layout_kind=kind, block_size=64)
        ) as gpu:
            gpu.run(3, dt=1e-3)
            result = gpu.download()
        ref = _cpu_euler_f32(system, 3, 1e-3, eps=1e-2, tile=64)
        scale = np.abs(ref.positions).max()
        np.testing.assert_allclose(
            result.positions, ref.positions, atol=5e-5 * scale
        )
        np.testing.assert_allclose(
            result.velocities, ref.velocities, atol=5e-4 * scale
        )

    def test_padding_particles_stay_put(self):
        system = uniform_cube(50, seed=52)  # pads to 64
        with GpuSimulation(
            system, GpuConfig(block_size=64)
        ) as gpu:
            gpu.run(2, dt=1e-2)
            result = gpu.download()
        assert result.n == 50  # padding dropped on download

    def test_momentum_conserved(self):
        system = plummer(128, seed=53)
        p0 = system.momentum()
        with GpuSimulation(system, GpuConfig(block_size=64)) as gpu:
            gpu.run(5, dt=1e-3)
            after = gpu.download()
        np.testing.assert_allclose(after.momentum(), p0, atol=5e-4)

    def test_cycles_accumulate(self):
        system = uniform_cube(64, seed=54)
        with GpuSimulation(system, GpuConfig(block_size=64)) as gpu:
            c1 = gpu.step(1e-3)
            c2 = gpu.step(1e-3)
            assert gpu.cycles_total == pytest.approx(c1 + c2)
            assert gpu.steps_done == 2

    def test_config_xor_overrides(self):
        system = uniform_cube(64, seed=55)
        with pytest.raises(TypeError):
            GpuSimulation(system, GpuConfig(), layout_kind="soa")

    def test_negative_steps_rejected(self):
        system = uniform_cube(64, seed=56)
        with GpuSimulation(system, GpuConfig(block_size=64)) as gpu:
            with pytest.raises(ValueError):
                gpu.run(-1, dt=1e-3)


class TestFrequencyGroupingProof:
    def test_force_kernel_never_touches_velocities(self):
        """Under SoAoaS the velocity array is a disjoint address range;
        the force kernel's trace must stay outside it (Sec. IV's point)."""
        system = uniform_cube(128, seed=57)
        sim = GpuSimulation(
            system, GpuConfig(layout_kind="soaoas", block_size=64)
        )
        try:
            layout = sim.layout
            vel_step = layout.step_for("vx")
            vel_lo = sim._buf.addr + vel_step.base
            vel_hi = vel_lo + vel_step.stride * layout.n
            rec = TraceRecorder("force")
            sim.step(1e-3, force_trace=rec)
            assert len(rec.trace.records) > 0
            for record in rec.trace.records:
                for addr, active in zip(record.addresses, record.active):
                    if active:
                        assert not (vel_lo <= addr < vel_hi), (
                            "force kernel touched the velocity array"
                        )
        finally:
            sim.close()

    def test_aos_force_kernel_wastes_velocity_bandwidth(self):
        """Contrast: under 28-byte AoS the per-thread bursts of the force
        kernel inevitably drag velocity bytes through the bus."""
        from repro.core import policy_for

        system = uniform_cube(128, seed=58)
        sim = GpuSimulation(
            system, GpuConfig(layout_kind="unopt", block_size=64)
        )
        try:
            rec = TraceRecorder("force")
            sim.step(1e-3, force_trace=rec)
            report = rec.report(policy_for("1.0"))
            assert report.efficiency < 0.25
        finally:
            sim.close()


class TestLeapfrogOnDevice:
    def test_matches_cpu_leapfrog(self):
        from repro.gravit import leapfrog_step
        from repro.gravit.forces_cpu import direct_forces_f32_tiled

        system = plummer(128, seed=61)
        with GpuSimulation(
            system, GpuConfig(layout_kind="soaoas", block_size=64)
        ) as gpu:
            gpu.run(3, dt=1e-3, scheme="leapfrog")
            result = gpu.download()
        ref = system.copy()
        for _ in range(3):
            leapfrog_step(
                ref,
                lambda s: direct_forces_f32_tiled(s, eps=1e-2, tile=64),
                1e-3,
            )
        scale = np.abs(ref.positions).max()
        np.testing.assert_allclose(
            result.positions, ref.positions, atol=5e-5 * scale
        )
        np.testing.assert_allclose(
            result.velocities, ref.velocities, atol=5e-4 * scale
        )

    def test_leapfrog_conserves_energy_better(self):
        def drift(scheme):
            system = plummer(96, seed=62)
            e0 = system.kinetic_energy() + system.potential_energy()
            with GpuSimulation(
                system, GpuConfig(block_size=32, eps=3e-2)
            ) as gpu:
                gpu.run(12, dt=8e-3, scheme=scheme)
                after = gpu.download()
            e1 = after.kinetic_energy() + after.potential_energy()
            return abs(e1 - e0) / abs(e0)

        assert drift("leapfrog") < drift("euler")

    def test_unknown_scheme(self):
        system = uniform_cube(64, seed=63)
        with GpuSimulation(system, GpuConfig(block_size=64)) as gpu:
            with pytest.raises(ValueError):
                gpu.step(1e-3, scheme="rk4")

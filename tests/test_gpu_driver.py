"""GPU driver: cycle/functional/hybrid modes and their agreement."""

import numpy as np
import pytest

from repro.cudasim import Toolchain
from repro.gravit import (
    GpuConfig,
    GpuForceBackend,
    direct_forces,
    plummer,
    uniform_cube,
)


def _backend(**kw):
    return GpuForceBackend(GpuConfig(**kw))


class TestConfig:
    def test_label(self):
        cfg = GpuConfig(layout_kind="soaoas", unroll="full", licm=True)
        assert cfg.label == "soaoas+unroll+icm"
        assert GpuConfig(unroll=4).label == "soaoas+unroll4"

    def test_config_xor_overrides(self):
        # Configuration travels only in a GpuConfig.
        with pytest.raises(TypeError):
            GpuForceBackend(GpuConfig(), layout_kind="soa")
        with pytest.raises(TypeError):
            GpuForceBackend(layout_kind="soa")

    def test_registers_and_occupancy_exposed(self):
        be = _backend(block_size=128, unroll="full", licm=True)
        assert be.registers_per_thread == 16
        assert be.occupancy().blocks_per_sm == 4


class TestCycleMode:
    @pytest.mark.parametrize("kind", ["unopt", "soa", "aoas", "soaoas"])
    def test_cycle_forces_match_reference(self, kind):
        system = plummer(192, seed=21)
        be = _backend(layout_kind=kind, block_size=64)
        forces, result = be.forces_cycle(system)
        ref = direct_forces(system, eps=be.config.eps)
        scale = np.linalg.norm(ref, axis=1, keepdims=True) + 1e-12
        assert np.max(np.abs(forces - ref) / scale) < 1e-3
        assert result.cycles > 0

    def test_cycle_matches_functional(self):
        system = uniform_cube(128, seed=22)
        be = _backend(block_size=64)
        cyc, _ = be.forces_cycle(system)
        fun = be.forces(system)
        scale = np.abs(fun).max()
        np.testing.assert_allclose(cyc, fun, atol=3e-5 * scale)

    def test_optimizations_preserve_numerics(self):
        system = uniform_cube(128, seed=23)
        base, _ = _backend(block_size=64).forces_cycle(system)
        opt, _ = _backend(
            block_size=64, unroll="full", licm=True
        ).forces_cycle(system)
        np.testing.assert_allclose(opt, base, rtol=1e-6, atol=1e-10)

    def test_padding_is_invisible(self):
        """A ragged N (not a block multiple) returns exactly N forces."""
        system = uniform_cube(100, seed=24)
        be = _backend(block_size=64)
        forces, _ = be.forces_cycle(system)
        assert forces.shape == (100, 3)
        ref = direct_forces(system, eps=be.config.eps)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(forces, ref, atol=1e-3 * scale)

    def test_g_applied(self):
        system = uniform_cube(64, seed=25)
        f1, _ = _backend(block_size=64, g=1.0).forces_cycle(system)
        f2, _ = _backend(block_size=64, g=2.0).forces_cycle(system)
        np.testing.assert_allclose(f2, 2.0 * f1, rtol=1e-7)


class TestHybridMode:
    def test_hybrid_matches_full_cycle_simulation(self):
        """The Eq. 2 extrapolation agrees with simulating every block."""
        be = _backend(block_size=64)
        model = be.calibrate(slice_counts=(2, 5))
        n = 64 * 32  # 32 blocks over 16 SMs → 2 per SM
        system = uniform_cube(n, seed=26)
        _, result = be.forces_cycle(system)
        predicted = model.kernel_cycles(n)
        assert predicted == pytest.approx(result.cycles, rel=0.15)

    def test_calibration_cached(self):
        be = _backend(block_size=64)
        assert be.calibrate() is be.calibrate()

    def test_predict_scales_quadratically(self):
        be = _backend()
        t1 = be.predict_seconds(100_000, include_transfers=False)
        t2 = be.predict_seconds(200_000, include_transfers=False)
        assert t2 / t1 == pytest.approx(4.0, rel=0.05)

    def test_transfers_included(self):
        be = _backend()
        with_t = be.predict_seconds(500_000)
        without = be.predict_seconds(500_000, include_transfers=False)
        assert with_t > without

    def test_bad_slice_counts(self):
        be = _backend(block_size=64)
        with pytest.raises(ValueError):
            be.calibrate(slice_counts=(4, 4))


class TestOptimizationOrdering:
    def test_paper_speedup_chain_at_scale(self):
        """baseline ≥ soaoas > unrolled > full-opt in predicted seconds."""
        n = 1_000_000
        t = {}
        for label, kw in [
            ("base", dict(layout_kind="unopt")),
            ("soaoas", dict(layout_kind="soaoas")),
            ("unroll", dict(layout_kind="soaoas", unroll="full")),
            ("opt", dict(layout_kind="soaoas", unroll="full", licm=True)),
        ]:
            t[label] = _backend(**kw).predict_seconds(n)
        assert t["unroll"] < t["soaoas"]
        assert t["opt"] < t["unroll"]
        total = t["base"] / t["opt"]
        assert 1.15 < total < 1.40  # paper: 1.27x

    def test_unroll_speedup_in_paper_band(self):
        n = 1_000_000
        rolled = _backend(layout_kind="soaoas").predict_seconds(n)
        unrolled = _backend(
            layout_kind="soaoas", unroll="full"
        ).predict_seconds(n)
        assert rolled / unrolled == pytest.approx(1.18, abs=0.05)

    def test_toolchain_affects_timing_not_results(self):
        system = uniform_cube(128, seed=27)
        outs = {}
        for tc in (Toolchain.CUDA_1_0, Toolchain.CUDA_2_2):
            be = GpuForceBackend(
                GpuConfig(block_size=64, toolchain=tc)
            )
            f, res = be.forces_cycle(system)
            outs[tc] = (f, res.cycles)
        np.testing.assert_array_equal(
            outs[Toolchain.CUDA_1_0][0], outs[Toolchain.CUDA_2_2][0]
        )
        assert outs[Toolchain.CUDA_1_0][1] != outs[Toolchain.CUDA_2_2][1]


class TestDeviceBuffers:
    def test_allocates_and_frees(self):
        from repro.cudasim import Device
        from repro.gravit import device_buffers

        dev = Device(heap_bytes=1 << 20)
        with device_buffers(dev, 256, 512) as (a, b):
            assert dev.gmem.bytes_in_use >= 256 + 512
        assert dev.gmem.bytes_in_use == 0

    def test_frees_on_body_exception(self):
        from repro.cudasim import Device
        from repro.gravit import device_buffers

        dev = Device(heap_bytes=1 << 20)
        with pytest.raises(RuntimeError, match="boom"):
            with device_buffers(dev, 256, 512):
                raise RuntimeError("boom")
        assert dev.gmem.bytes_in_use == 0

    def test_poisoned_free_does_not_leak_the_rest(self):
        """The teardown regression: freeing the *last* buffer inside the
        body makes the reversed teardown loop hit DoubleFreeError first;
        before the fix that aborted the loop and leaked every earlier
        buffer.  All buffers must be freed and the failure re-raised."""
        from repro.cudasim import Device, DoubleFreeError
        from repro.gravit import device_buffers

        dev = Device(heap_bytes=1 << 20)
        with pytest.raises(DoubleFreeError):
            with device_buffers(dev, 256, 512, 1024) as ptrs:
                dev.free(ptrs[2])  # teardown trips on this one first
        assert dev.gmem.bytes_in_use == 0

    def test_body_exception_wins_over_teardown_failure(self):
        """A body failure must not be masked by the DoubleFreeError the
        teardown then encounters."""
        from repro.cudasim import Device
        from repro.gravit import device_buffers

        dev = Device(heap_bytes=1 << 20)
        with pytest.raises(RuntimeError, match="body"):
            with device_buffers(dev, 256, 512) as ptrs:
                dev.free(ptrs[1])
                raise RuntimeError("body")
        assert dev.gmem.bytes_in_use == 0

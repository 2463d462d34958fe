"""Out-of-core streaming: bit-identity, degeneration, OOM headroom.

The load-bearing contract: :class:`OutOfCoreSimulation` must produce
*bit-identical* state and forces to the in-core :class:`GpuSimulation`
for every layout × toolchain × fastpath setting — tiling
only changes which buffer a float is loaded from, never the value or
the order of any float operation.  Partial force accumulators
round-trip through the force buffer bit-exactly because every ``mad``
result is already rounded to float32 before the store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cudasim import Device
from repro.cudasim.device import Toolchain
from repro.cudasim.errors import OutOfMemoryError
from repro.gravit import (
    GpuConfig,
    GpuSimulation,
    OutOfCoreSimulation,
    Simulation,
    SimulationConfig,
    uniform_sphere,
)
from repro.telemetry import runtime as telemetry

N, BLOCK = 96, 32
DT = 0.01
FIELDS = ("px", "py", "pz", "vx", "vy", "vz", "mass")


@pytest.fixture(scope="module")
def system():
    return uniform_sphere(N, seed=23)


def _run_single(system, cfg, steps=2, scheme="euler", **device_kw):
    sim = GpuSimulation(system.copy(), cfg, device=Device(**device_kw))
    sim.run(steps, DT, scheme=scheme)
    state, forces = sim.download(), sim.download_forces()
    sim.close()
    return state, forces


def _run_ooc(system, cfg, tile_rows, steps=2, scheme="euler", **device_kw):
    device = Device(toolchain=cfg.toolchain, **device_kw)
    sim = OutOfCoreSimulation(
        system.copy(), cfg, device=device, tile_rows=tile_rows
    )
    sim.run(steps, DT, scheme=scheme)
    state, forces = sim.download(), sim.download_forces()
    summary = sim.xfer_summary()
    sim.close()
    return state, forces, summary


def _assert_state_equal(a, b):
    for f in FIELDS:
        assert np.array_equal(getattr(a, f), getattr(b, f)), f


class TestBitIdentity:
    @pytest.mark.parametrize(
        "kind", ("aos", "soa", "aoas", "soaoas", "soaoas64", "unopt")
    )
    def test_every_layout(self, system, kind):
        cfg = GpuConfig(layout_kind=kind, block_size=BLOCK)
        ref_state, ref_forces = _run_single(system, cfg)
        state, forces, summary = _run_ooc(system, cfg, tile_rows=32)
        _assert_state_equal(ref_state, state)
        assert np.array_equal(ref_forces, forces)
        assert summary["tiles"] > 0

    @pytest.mark.parametrize(
        "toolchain", (Toolchain.CUDA_1_0, Toolchain.CUDA_1_1)
    )
    def test_every_toolchain(self, system, toolchain):
        cfg = GpuConfig(
            layout_kind="soaoas", block_size=BLOCK, toolchain=toolchain
        )
        ref_state, ref_forces = _run_single(system, cfg)
        state, forces, _ = _run_ooc(system, cfg, tile_rows=32)
        _assert_state_equal(ref_state, state)
        assert np.array_equal(ref_forces, forces)

    @pytest.mark.parametrize("fastpath", (True, False))
    def test_fastpath_modes(self, system, fastpath):
        cfg = GpuConfig(layout_kind="soaoas", block_size=BLOCK)
        ref_state, ref_forces = _run_single(system, cfg, fastpath=fastpath)
        state, forces, _ = _run_ooc(
            system, cfg, tile_rows=32, fastpath=fastpath
        )
        _assert_state_equal(ref_state, state)
        assert np.array_equal(ref_forces, forces)

    def test_compile_options(self, system):
        cfg = GpuConfig(
            layout_kind="soaoas", block_size=BLOCK, unroll="full", licm=True
        )
        ref_state, ref_forces = _run_single(system, cfg)
        state, forces, _ = _run_ooc(system, cfg, tile_rows=32)
        _assert_state_equal(ref_state, state)
        assert np.array_equal(ref_forces, forces)

    def test_leapfrog(self, system):
        cfg = GpuConfig(layout_kind="soa", block_size=BLOCK)
        ref_state, ref_forces = _run_single(
            system, cfg, steps=3, scheme="leapfrog"
        )
        state, forces, _ = _run_ooc(
            system, cfg, tile_rows=32, steps=3, scheme="leapfrog"
        )
        _assert_state_equal(ref_state, state)
        assert np.array_equal(ref_forces, forces)

    def test_tile_rows_not_dividing_n(self, system):
        """n=96 padded stays 96; tile_rows=64 gives tiles of 64 and 32."""
        cfg = GpuConfig(layout_kind="aoas", block_size=BLOCK)
        ref_state, ref_forces = _run_single(system, cfg)
        state, forces, summary = _run_ooc(system, cfg, tile_rows=64)
        _assert_state_equal(ref_state, state)
        assert np.array_equal(ref_forces, forces)
        assert summary["tiles"] == 2 * 2 * 2  # 2 slices x 2 tiles x 2 steps

    def test_odd_n_pads_like_incore(self):
        """A population that isn't block-multiple pads identically."""
        system = uniform_sphere(100, seed=5)
        cfg = GpuConfig(layout_kind="soaoas", block_size=BLOCK)
        ref_state, ref_forces = _run_single(system, cfg)
        state, forces, _ = _run_ooc(system, cfg, tile_rows=96)
        _assert_state_equal(ref_state, state)
        assert np.array_equal(ref_forces, forces)


class TestDegeneration:
    def test_tile_rows_geq_n_runs_in_core(self, system):
        cfg = GpuConfig(layout_kind="soaoas", block_size=BLOCK)
        sim = OutOfCoreSimulation(
            system.copy(), cfg, tile_rows=4 * N
        )
        assert sim.degenerate
        assert sim.xfer_summary() == {}
        sim.run(2, DT)
        state, forces = sim.download(), sim.download_forces()
        assert sim.steps_done == 2
        sim.close()
        ref_state, ref_forces = _run_single(system, cfg)
        _assert_state_equal(ref_state, state)
        assert np.array_equal(ref_forces, forces)

    def test_default_tile_rows_rounded_to_block_multiple(self, system):
        cfg = GpuConfig(layout_kind="soa", block_size=BLOCK)
        sim = OutOfCoreSimulation(system.copy(), cfg, tile_rows=33)
        assert sim.tile_rows == 64  # rounded up to a block multiple
        assert not sim.degenerate
        sim.close()

    def test_rejects_bad_tile_rows(self, system):
        cfg = GpuConfig(layout_kind="soa", block_size=BLOCK)
        with pytest.raises(ValueError):
            OutOfCoreSimulation(system.copy(), cfg, tile_rows=0)


class TestOutOfMemoryHeadroom:
    """The reason this subsystem exists: populations beyond the heap."""

    HEAP = 48 * 1024  # fits tiles, not a 2048-particle soaoas image

    def test_incore_oom_but_tiled_runs_and_matches(self):
        system = uniform_sphere(2048, seed=9)
        cfg = GpuConfig(layout_kind="soaoas", block_size=128)
        with pytest.raises(OutOfMemoryError):
            GpuSimulation(
                system.copy(), cfg, device=Device(heap_bytes=self.HEAP)
            )
        sim = OutOfCoreSimulation(
            system.copy(),
            cfg,
            device=Device(heap_bytes=self.HEAP),
            tile_rows=256,
        )
        sim.run(1, DT)
        state, forces = sim.download(), sim.download_forces()
        sim.close()
        # A big-heap in-core run is the ground truth.
        ref_state, ref_forces = _run_single(system, cfg, steps=1)
        _assert_state_equal(ref_state, state)
        assert np.array_equal(ref_forces, forces)


class TestSimulationFrontDoor:
    def test_create_routes_out_of_core(self, system):
        cfg = SimulationConfig(
            layout="soaoas", block_size=BLOCK, out_of_core=True, tile_rows=32
        )
        sim = Simulation.create(cfg, system.copy())
        assert isinstance(sim, OutOfCoreSimulation)
        assert sim.tile_rows == 32
        assert "ooc" in cfg.label
        sim.close()

    def test_tile_rows_without_out_of_core_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(tile_rows=64)

    def test_out_of_core_excludes_other_topologies(self):
        with pytest.raises(ValueError):
            SimulationConfig(out_of_core=True, devices=2)
        with pytest.raises(ValueError):
            SimulationConfig(out_of_core=True, pool_records_per_block=32)

    def test_config_round_trips_new_fields(self):
        cfg = SimulationConfig(out_of_core=True, tile_rows=128)
        dumped = cfg.as_dict()
        assert dumped["out_of_core"] is True
        assert dumped["tile_rows"] == 128


class TestOverlapTelemetry:
    def test_prefetch_hides_under_compute(self):
        """From tile 2 of a slice onward, tile uploads must overlap the
        compute stream's kernel launches on the simulated timeline — the
        Chrome-trace claim, asserted on the span cycles it's built from.

        Uses six column tiles per slice: only the first tile of each
        slice (and the serial resident uploads) can't hide, so a solid
        majority of copy spans must land under a kernel launch."""
        big = uniform_sphere(192, seed=31)
        telemetry.enable()
        telemetry.reset()
        try:
            cfg = GpuConfig(layout_kind="soaoas", block_size=BLOCK)
            _, _, summary = _run_ooc(big, cfg, tile_rows=32, steps=1)
            spans = telemetry.spans()
        finally:
            telemetry.disable()

        copies = [
            (s.attrs["sim_begin_cycle"], s.attrs["sim_end_cycle"])
            for s in spans
            if s.name == "cudasim.stream.memcpy_htod"
            and s.attrs.get("stream") == "ooc-copy"
        ]
        launches = [
            (s.attrs["sim_begin_cycle"], s.attrs["sim_end_cycle"])
            for s in spans
            if s.name == "cudasim.stream.launch"
            and s.attrs.get("stream") == "ooc-compute"
        ]
        assert copies and launches
        overlapped = sum(
            1
            for c0, c1 in copies
            if any(l0 < c1 and c0 < l1 for l0, l1 in launches)
        )
        # The pipeline prefetches while force kernels run: a solid
        # majority of uploads must intersect a launch interval.
        assert overlapped / len(copies) > 0.5
        # And the summary agrees: most tile-copy cycles were hidden.
        assert summary["copy_exposed_fraction"] < 0.5

    def test_copy_spans_carry_device_track(self, system):
        """The trace exporter keys tracks on (device, stream): every
        pipeline copy span must carry both."""
        telemetry.enable()
        telemetry.reset()
        try:
            cfg = GpuConfig(layout_kind="soa", block_size=BLOCK)
            _run_ooc(system, cfg, tile_rows=32, steps=1)
            spans = telemetry.spans()
        finally:
            telemetry.disable()
        copies = [
            s for s in spans if s.name.startswith("cudasim.stream.memcpy_")
        ]
        assert copies
        for s in copies:
            assert s.attrs.get("device")
            assert s.attrs.get("nbytes", 0) > 0


class TestGraphTransferAccounting:
    def test_graph_summary_matches_op_by_op(self):
        """Graph replays re-fire the events their capture recorded: every
        replay's tiles must still be counted, so after several steps both
        modes report the same transfer totals (graph mode used to stop
        counting tiles after the capture)."""
        system = uniform_sphere(128, seed=5)
        cfg = GpuConfig(layout_kind="soaoas", block_size=32)
        summaries, counters = [], []
        for use_graph in (False, True):
            telemetry.enable()
            telemetry.reset()
            try:
                sim = OutOfCoreSimulation(
                    system.copy(), cfg, device=Device(), tile_rows=32,
                    use_graph=use_graph,
                )
                sim.run(7, DT)
                summaries.append(sim.xfer_summary())
                sim.close()
                snap = telemetry.snapshot()
            finally:
                telemetry.disable()
            counters.append(tuple(
                sum(s["value"] for s in snap[name]["series"])
                for name in ("cudasim.xfer.tiles", "cudasim.xfer.copy_bytes")
            ))
        op, graph = summaries
        assert op["tiles"] == 7 * 16
        for key in (
            "tiles", "copy_bytes", "tile_copy_cycles", "extra_copy_cycles",
            "tile_compute_cycles", "exposed_cycles", "copy_exposed_fraction",
        ):
            assert graph[key] == op[key], key
        assert counters[1] == counters[0]

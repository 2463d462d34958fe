"""Launch graphs: capture, validation, replay, rebinding, bit-identity.

The contract mirrors CUDA Graphs: a capture records one epoch of stream
ops without executing them; ``instantiate()`` validates the DAG (waits
reference in-capture events, peer copies stay inside the captured
devices, rebind tags are unique); ``replay()`` re-executes with
near-zero host work and results bit-identical to op-by-op execution —
memory image, simulated cycles, and :class:`KernelStats` — across
layouts and fastpath modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cudasim import (
    Device,
    Event,
    GraphCaptureError,
    GraphError,
    GraphValidationError,
    KernelBuilder,
    LaunchGraph,
    StreamError,
)
from repro.gravit import GpuConfig, plummer
from repro.gravit.gpu_driver import (
    GpuSimulation,
    OutOfCoreSimulation,
    ShardedGpuSimulation,
)
from repro.gravit.simulation_api import Simulation, SimulationConfig


def scale_kernel():
    b = KernelBuilder("scale", params=("x", "y", "n"))
    i = b.tmp("i")
    ax = b.tmp("ax")
    ay = b.tmp("ay")
    v = b.tmp("v")
    b.imad(i, b.sreg("ctaid"), b.sreg("ntid"), b.sreg("tid"))
    b.imad(ax, i, 4, b.param("x"))
    b.imad(ay, i, 4, b.param("y"))
    b.ld_global(v, ax)
    b.mad(v, v, 2.0, 0.0)
    b.st_global(ay, v)
    return b.build()


N, BLOCK = 256, 64


@pytest.fixture
def dev():
    return Device(heap_bytes=1 << 20)


@pytest.fixture
def rig(dev):
    """Device + compiled kernel + buffers + host input."""
    lk = dev.compile(scale_kernel())
    x = np.arange(N, dtype=np.float32)
    bx = dev.malloc(4 * N)
    by = dev.malloc(4 * N)
    return lk, x, bx, by


def capture_scale(dev, rig, tag_htod=None, tag_launch=None):
    """One htod + launch epoch captured on a fresh stream."""
    lk, x, bx, by = rig
    s = dev.stream("cap")
    with LaunchGraph.capture([s], name="scale") as graph:
        s.memcpy_htod_async(bx, x, tag=tag_htod)
        s.launch_async(
            lk, grid=N // BLOCK, block=BLOCK,
            params={"x": bx, "y": by, "n": N}, tag=tag_launch,
        )
    return graph.instantiate(), s


class TestCaptureLifecycle:
    def test_captured_ops_do_not_execute(self, dev, rig):
        lk, x, bx, by = rig
        graph, s = capture_scale(dev, rig)
        # Nothing ran: the input buffer is still zero-filled.
        assert not np.array_equal(dev.memcpy_dtoh(bx, N), x)
        assert s.cycles == 0.0
        assert len(graph) == 2
        s.close()

    def test_capture_context_aborts_on_error(self, dev, rig):
        lk, x, bx, by = rig
        s = dev.stream()
        with pytest.raises(RuntimeError, match="boom"):
            with LaunchGraph.capture([s]) as graph:
                s.memcpy_htod_async(bx, x)
                raise RuntimeError("boom")
        assert graph.state == "dead"
        assert s._capture is None  # detached — stream is usable again
        s.memcpy_htod_async(bx, x)
        s.synchronize()
        s.close()

    def test_begin_requires_fresh_graph_and_streams(self, dev):
        s = dev.stream()
        g = LaunchGraph()
        g.begin(s)
        with pytest.raises(GraphCaptureError, match="capturing"):
            g.begin(s)
        g.end()
        with pytest.raises(GraphCaptureError):
            g.begin(s)  # captured, not idle
        with pytest.raises(GraphCaptureError, match="at least one"):
            LaunchGraph().begin()
        with pytest.raises(GraphCaptureError, match="duplicate"):
            LaunchGraph().begin(s, s)
        s.close()

    def test_stream_cannot_join_two_captures(self, dev):
        s = dev.stream()
        g1 = LaunchGraph().begin(s)
        with pytest.raises(GraphCaptureError, match="already capturing"):
            LaunchGraph().begin(s)
        g1.abort()
        s.close()

    def test_closed_or_poisoned_stream_rejects_capture(self, dev, rig):
        lk, x, bx, by = rig
        s = dev.stream()
        s.close()
        with pytest.raises(GraphCaptureError, match="closed"):
            LaunchGraph().begin(s)
        bad = dev.stream()
        bad.launch_async(lk, grid=-1, block=BLOCK, params={})
        with pytest.raises(StreamError):
            bad.synchronize()
        with pytest.raises(GraphCaptureError, match="poisoned"):
            LaunchGraph().begin(bad)
        bad._pool.shutdown(wait=True)
        bad._unregister()

    def test_dtoh_and_submit_not_capturable(self, dev, rig):
        lk, x, bx, by = rig
        s = dev.stream()
        with LaunchGraph.capture([s]):
            with pytest.raises(GraphCaptureError, match="memcpy_dtoh"):
                s.memcpy_dtoh_async(bx, N)
            with pytest.raises(GraphCaptureError, match="not capturable"):
                s.submit("host-op", lambda: None)
        s.close()

    def test_captured_future_refuses_consumption(self, dev, rig):
        lk, x, bx, by = rig
        s = dev.stream()
        with LaunchGraph.capture([s]):
            fut = s.memcpy_htod_async(bx, x)
            with pytest.raises(GraphCaptureError, match="no result"):
                fut.result()
            with pytest.raises(GraphCaptureError, match="never completes"):
                fut.add_done_callback(lambda f: None)
            assert fut.cancel() is False
            assert fut.done() is False
        s.close()


class TestValidation:
    def test_wait_on_precapture_event_is_error_not_deadlock(self, dev, rig):
        """The headline edge case: an event recorded before the capture
        must be rejected at instantiate() — replaying such a wait would
        deadlock (never re-fired) or order against a stale cycle."""
        lk, x, bx, by = rig
        s = dev.stream()
        pre = s.record_event()  # recorded op-by-op, before any capture
        s.synchronize()
        g = LaunchGraph().begin(s)
        s.memcpy_htod_async(bx, x)
        s.wait_event(pre)
        g.end()
        with pytest.raises(GraphValidationError, match="pre-capture"):
            g.instantiate()
        s.close()

    def test_forward_wait_rejected(self, dev):
        # record *after* wait in capture order — not a valid topo order.
        s0 = dev.stream("a")
        s1 = dev.stream("b")
        g = LaunchGraph().begin(s0, s1)
        ev = Event("later")
        s1.wait_event(ev)
        s0.record_event(ev)
        g.end()
        with pytest.raises(GraphValidationError, match="not recorded"):
            g.instantiate()
        s0.close()
        s1.close()

    def test_in_capture_record_wait_pair_validates(self, dev, rig):
        lk, x, bx, by = rig
        s0 = dev.stream("a")
        s1 = dev.stream("b")
        with LaunchGraph.capture([s0, s1]) as g:
            s0.memcpy_htod_async(bx, x)
            ev = s0.record_event()
            s1.wait_event(ev)
        g.instantiate()
        r = g.replay()
        # The consumer's cursor jumped to the producer's copy time.
        assert r.end_cycles[1] == r.end_cycles[0] > 0
        s0.close()
        s1.close()

    def test_peer_copy_outside_capture_rejected(self, dev):
        outsider = Device(heap_bytes=1 << 20, name="outsider")
        src = dev.malloc(4 * N)
        dst = outsider.malloc(4 * N)
        s = dev.stream()
        with LaunchGraph.capture([s]) as g:
            s.memcpy_peer_async(src, outsider, dst, N)
        with pytest.raises(GraphValidationError, match="outside"):
            g.instantiate()
        s.close()

    def test_duplicate_tag_rejected(self, dev, rig):
        lk, x, bx, by = rig
        s = dev.stream()
        with LaunchGraph.capture([s]) as g:
            s.memcpy_htod_async(bx, x, tag="t")
            s.memcpy_htod_async(by, x, tag="t")
        with pytest.raises(GraphValidationError, match="duplicate rebind"):
            g.instantiate()
        s.close()

    def test_empty_capture_rejected(self, dev):
        s = dev.stream()
        with LaunchGraph.capture([s]) as g:
            pass
        with pytest.raises(GraphValidationError, match="no operations"):
            g.instantiate()
        s.close()

    def test_instantiate_requires_ended_capture(self, dev):
        s = dev.stream()
        g = LaunchGraph().begin(s)
        with pytest.raises(GraphError, match="end"):
            g.instantiate()
        g.abort()
        s.close()


class TestReplay:
    def test_replay_matches_op_by_op(self, dev, rig):
        lk, x, bx, by = rig
        graph, s = capture_scale(dev, rig)
        r = graph.replay()
        out_graph = dev.memcpy_dtoh(by, N)
        graph_cycles = s.cycles

        ref = dev.stream("ref")
        ref.memcpy_htod_async(bx, x)
        h = ref.launch_async(
            lk, grid=N // BLOCK, block=BLOCK,
            params={"x": bx, "y": by, "n": N},
        )
        ref.synchronize()
        assert np.array_equal(out_graph, dev.memcpy_dtoh(by, N))
        assert np.array_equal(out_graph, 2 * x)
        assert graph_cycles == ref.cycles
        # LaunchResult parity: same cycles and identical KernelStats.
        assert len(r.launches) == 1
        assert r.launches[0].cycles == h.result().cycles
        assert r.launches[0].stats == h.result().stats
        assert graph.replays == 1
        ref.close()
        s.close()

    def test_rebind_htod_array(self, dev, rig):
        lk, x, bx, by = rig
        graph, s = capture_scale(dev, rig, tag_htod="input")
        graph.replay()
        y = np.linspace(1.0, 2.0, N, dtype=np.float32)
        graph.replay({"input": y})
        assert np.array_equal(dev.memcpy_dtoh(by, N), 2 * y)
        s.close()

    def test_rebind_shape_and_dtype_checked(self, dev, rig):
        graph, s = capture_scale(dev, rig, tag_htod="input")
        with pytest.raises(GraphError, match="bytes"):
            graph.bind({"input": np.zeros(N // 2, dtype=np.float32)})
        with pytest.raises(GraphError, match="float32"):
            graph.bind({"input": np.zeros(N, dtype=np.float64)})
        s.close()

    def test_rebind_unknown_tag_and_param(self, dev, rig):
        graph, s = capture_scale(
            dev, rig, tag_htod="input", tag_launch="kernel"
        )
        with pytest.raises(GraphError, match="no rebind tag"):
            graph.replay({"nope": np.zeros(N, dtype=np.float32)})
        with pytest.raises(GraphError, match="unknown launch params"):
            graph.replay({"kernel": {"alpha": 3.0}})
        with pytest.raises(GraphError, match="mapping"):
            graph.replay({"kernel": 3.0})
        s.close()

    def test_replay_after_device_reset_with_rebound_pointers(self, dev, rig):
        """Edge case: Device.reset() frees the heap under the captured
        pointers; a ``{"ptr", "data"}`` rebind (and launch param
        override) retargets the graph at re-allocated buffers."""
        lk, x, bx, by = rig
        graph, s = capture_scale(
            dev, rig, tag_htod="input", tag_launch="kernel"
        )
        graph.replay()
        dev.reset()
        nbx = dev.malloc(4 * N)
        nby = dev.malloc(4 * N)
        y = x[::-1].copy()
        graph.replay({
            "input": {"ptr": nbx, "data": y},
            "kernel": {"x": nbx, "y": nby},
        })
        assert np.array_equal(dev.memcpy_dtoh(nby, N), 2 * y)
        s.close()

    def test_replay_requires_idle_streams(self, dev, rig):
        import threading

        graph, s = capture_scale(dev, rig)
        gate = threading.Event()
        s.submit("block", gate.wait)
        with pytest.raises(GraphError, match="in-flight"):
            graph.replay()
        gate.set()
        s.synchronize()
        graph.replay()
        s.close()

    def test_replay_on_closed_stream_rejected(self, dev, rig):
        graph, s = capture_scale(dev, rig)
        s.close()
        with pytest.raises(GraphError, match="closed"):
            graph.replay()

    def test_replay_before_instantiate_rejected(self, dev, rig):
        lk, x, bx, by = rig
        s = dev.stream()
        with LaunchGraph.capture([s]) as g:
            s.memcpy_htod_async(bx, x)
        with pytest.raises(GraphError, match="instantiate"):
            g.replay()
        s.close()

    def test_replay_emits_one_span_plus_synthesized_children(self, dev, rig):
        from repro.telemetry import runtime as tel

        graph, s = capture_scale(dev, rig)
        tel.enable()
        try:
            graph.replay()
            spans = list(tel.spans())
        finally:
            tel.disable()
        replay_spans = [r for r in spans if r.name == "cudasim.graph.replay"]
        assert len(replay_spans) == 1
        children = [r for r in spans if r.attrs.get("replayed")]
        assert {r.name for r in children} == {
            "cudasim.stream.memcpy_htod", "cudasim.stream.launch"
        }
        # Synthesized children nest under the replay span and carry the
        # simulated interval for the Chrome-trace track layout.
        for r in children:
            assert r.parent_id == replay_spans[0].span_id
            assert r.attrs["sim_end_cycle"] >= r.attrs["sim_begin_cycle"]
        s.close()


LAYOUTS = ["aos", "soa", "aoas", "soaoas", "unopt"]


def _run_driver_pair(make, steps=2, dt=0.01, scheme="leapfrog"):
    """Build op-by-op and graph-mode twins; assert bit-identity."""
    a = make(False)
    b = make(True)
    try:
        ca = sum(a.step(dt, scheme=scheme) for _ in range(steps))
        cb = sum(b.step(dt, scheme=scheme) for _ in range(steps))
        sa, sb = a.download(), b.download()
        assert np.array_equal(sa.positions, sb.positions)
        assert np.array_equal(sa.velocities, sb.velocities)
        assert np.array_equal(a.download_forces(), b.download_forces())
        assert ca == pytest.approx(cb, rel=1e-12)
        assert b.graph_replays > 0
    finally:
        a.close()
        b.close()


class TestDriverBitIdentity:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_single_device(self, layout):
        system = plummer(96, seed=11)
        cfg = GpuConfig(layout_kind=layout, block_size=32)
        _run_driver_pair(
            lambda g: GpuSimulation(plummer(96, seed=11), cfg, use_graph=g)
        )

    # Ids 0 and 2: the names these cases have had since the switch was
    # an integer.
    @pytest.mark.parametrize("fastpath", [False, True], ids=["0", "2"])
    def test_single_device_fastpath_modes(self, fastpath):
        cfg = GpuConfig(block_size=32)
        _run_driver_pair(
            lambda g: GpuSimulation(
                plummer(96, seed=12), cfg,
                device=Device(fastpath=fastpath), use_graph=g,
            )
        )

    def test_traced_step_runs_op_by_op(self):
        """A ``force_trace`` hook cannot be captured: graph mode runs that
        step op-by-op, uncounted as a replay, and stays bit-identical."""
        from repro.cudasim.trace import TraceRecorder

        cfg = GpuConfig(block_size=32)
        sims = [
            GpuSimulation(plummer(96, seed=20), cfg, use_graph=g)
            for g in (False, True)
        ]
        try:
            for sim in sims:
                sim.run(2, 0.01)  # graph mode: capture, then replay
                rec = TraceRecorder("force")
                sim.step(0.01, force_trace=rec)
                assert rec.trace.records
                sim.step(0.01)
            a, b = sims
            assert b.graph_replays == 3
            sa, sb = a.download(), b.download()
            assert np.array_equal(sa.positions, sb.positions)
            assert np.array_equal(sa.velocities, sb.velocities)
            assert np.array_equal(a.download_forces(), b.download_forces())
            assert a.cycles_total == b.cycles_total
        finally:
            for sim in sims:
                sim.close()

    @pytest.mark.parametrize("layout", ["aos", "soaoas"])
    def test_sharded(self, layout):
        cfg = GpuConfig(layout_kind=layout, block_size=32)
        _run_driver_pair(
            lambda g: ShardedGpuSimulation(
                plummer(96, seed=13), cfg, num_devices=3, use_graph=g
            )
        )

    def test_sharded_tracks_copy_accounting(self):
        cfg = GpuConfig(block_size=32)
        a = ShardedGpuSimulation(plummer(96, seed=14), cfg, num_devices=2)
        b = ShardedGpuSimulation(
            plummer(96, seed=14), cfg, num_devices=2, use_graph=True
        )
        try:
            a.run(2, 0.01)
            b.run(2, 0.01)
            assert a.copy_bytes_total == b.copy_bytes_total > 0
            assert a.compute_cycles_total == pytest.approx(
                b.compute_cycles_total
            )
            assert a.copy_cycles_total == pytest.approx(b.copy_cycles_total)
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("layout", ["aos", "soaoas"])
    def test_out_of_core(self, layout):
        cfg = GpuConfig(layout_kind=layout, block_size=32)
        _run_driver_pair(
            lambda g: OutOfCoreSimulation(
                plummer(96, seed=15), cfg, tile_rows=32, use_graph=g
            )
        )

    def test_out_of_core_degenerate_delegates(self):
        cfg = GpuConfig(block_size=64)
        sim = OutOfCoreSimulation(
            plummer(64, seed=16), cfg, tile_rows=64, use_graph=True
        )
        try:
            assert sim.degenerate
            sim.run(2, 0.01)
            assert sim.graph_replays == 2
        finally:
            sim.close()

    def test_ooc_tile_count_mismatch_refused(self):
        """Edge case: the capture bakes in the column-tile count; a
        resized tile plan must be refused, not replayed against the
        wrong schedule."""
        from repro.cudasim.xfer.plan import TilePlan
        from repro.gravit.gpu_driver import POSMASS_FIELDS

        cfg = GpuConfig(block_size=32)
        sim = OutOfCoreSimulation(
            plummer(96, seed=17), cfg, tile_rows=32, use_graph=True
        )
        try:
            sim.step(0.01)  # captures with the original tile count
            sim._cplan = TilePlan(sim.layout, 64, POSMASS_FIELDS)
            with pytest.raises(GraphError, match="column"):
                sim.step(0.01)
        finally:
            sim.close()


class TestSimulationApiAndService:
    def test_config_label_and_pooled_rejection(self):
        assert SimulationConfig(use_graph=True).label.endswith("+graph")
        with pytest.raises(ValueError, match="use_graph"):
            SimulationConfig(pool_records_per_block=32, use_graph=True)

    @pytest.mark.parametrize(
        "kw",
        [
            {},
            {"devices": 2},
            {"out_of_core": True, "tile_rows": 32},
        ],
        ids=["single", "sharded", "ooc"],
    )
    def test_create_dispatches_use_graph(self, kw):
        cfg = SimulationConfig(block_size=32, use_graph=True, **kw)
        base = cfg.replace(use_graph=False)
        a = Simulation.create(base, plummer(96, seed=18))
        b = Simulation.create(cfg, plummer(96, seed=18))
        try:
            ca = a.run(2, 0.01)
            cb = b.run(2, 0.01)
            assert b.graph_replays > 0
            assert ca == pytest.approx(cb, rel=1e-12)
            sa, sb = a.download(), b.download()
            assert np.array_equal(sa.positions, sb.positions)
            assert np.array_equal(
                a.download_forces(), b.download_forces()
            )
        finally:
            a.close()
            b.close()

    def test_service_steady_jobs_use_graphs(self):
        from repro.service import SimulationService
        from repro.telemetry import runtime as tel

        system = plummer(64, seed=19)
        graph_cfg = SimulationConfig(block_size=32, use_graph=True)
        base_cfg = SimulationConfig(block_size=32)
        tel.enable()
        try:
            svc = SimulationService(devices=2)
            try:
                hg = svc.submit("t1", system.copy(), graph_cfg,
                                steps=3, dt=0.01)
                hb = svc.submit("t2", system.copy(), base_cfg,
                                steps=3, dt=0.01)
                rg, rb = hg.result(), hb.result()
            finally:
                svc.close()
            assert np.array_equal(rg.state.positions, rb.state.positions)
            assert np.array_equal(rg.forces, rb.forces)
            assert rg.cycles == pytest.approx(rb.cycles)
            snap = tel.snapshot()
            series = snap["service.graph_replays"]["series"]
            assert sum(e["value"] for e in series) == 3
            assert {"tenant": "t1"} in [e["labels"] for e in series]
        finally:
            tel.disable()

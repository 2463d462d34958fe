"""Stream API semantics: FIFO ordering, events, failure poisoning.

The contract mirrors CUDA streams: operations on one stream execute in
submission order; an event recorded on stream A gates operations queued
after ``wait_event`` on stream B; errors are sticky.  The simulated
timeline cursor must advance by the modeled copy/launch durations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cudasim import (
    Device,
    Event,
    KernelBuilder,
    StreamError,
)
from repro.cudasim.errors import LaunchError
from repro.cudasim.stream import PCIE_BYTES_PER_S


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
def launched(dev):
    """Device + compiled kernel + input/output buffers."""
    lk = dev.compile(scale_kernel())
    x = np.arange(N, dtype=np.float32)
    bx = dev.malloc(4 * N)
    by = dev.malloc(4 * N)
    return lk, x, bx, by


class TestFifoOrdering:
    def test_copy_launch_copy_in_order(self, dev, launched):
        lk, x, bx, by = launched
        with dev.stream() as s:
            s.memcpy_htod_async(bx, x)
            h = s.launch_async(
                lk, grid=N // BLOCK, block=BLOCK,
                params={"x": bx, "y": by, "n": N},
            )
            out = s.memcpy_dtoh_async(by, N).result()
        assert np.array_equal(out, 2 * x)
        assert h.result().cycles > 0

    def test_queue_order_is_submission_order(self, dev):
        order = []
        s = dev.stream()
        # Internal hook: queue no-op work through the same FIFO.
        for k in range(8):
            s._submit("noop", lambda k=k: order.append(k))
        s.synchronize()
        assert order == list(range(8))
        s.close()

    def test_timeline_advances_by_copy_and_launch(self, dev, launched):
        lk, x, bx, by = launched
        with dev.stream() as s:
            s.memcpy_htod_async(bx, x)
            h = s.launch_async(
                lk, grid=N // BLOCK, block=BLOCK,
                params={"x": bx, "y": by, "n": N},
            )
            s.synchronize()
            copy_cycles = (
                x.nbytes / PCIE_BYTES_PER_S
            ) * dev.props.clock_mhz * 1e6
            assert s.cycles == pytest.approx(
                copy_cycles + h.result().cycles
            )


class TestEvents:
    def test_event_fires_after_prior_work(self, dev, launched):
        lk, x, bx, by = launched
        with dev.stream() as s:
            s.memcpy_htod_async(bx, x)
            ev = s.record_event()
            assert isinstance(ev, Event)
            s.synchronize()
        assert ev.query()
        assert ev.cycle is not None and ev.cycle > 0

    def test_cross_stream_gating(self, dev, launched):
        lk, x, bx, by = launched
        s0 = dev.stream("producer")
        s1 = dev.stream("consumer")
        s0.memcpy_htod_async(bx, x)
        s0.launch_async(
            lk, grid=N // BLOCK, block=BLOCK,
            params={"x": bx, "y": by, "n": N},
        )
        ev = s0.record_event()
        s1.wait_event(ev)
        out = s1.memcpy_dtoh_async(by, N).result()
        assert np.array_equal(out, 2 * x)
        # The consumer's timeline jumped to (at least) the event cycle.
        assert s1.cycles >= ev.cycle
        s0.close()
        s1.close()

    def test_wait_event_timeout_on_unrecorded_event(self, dev):
        s = dev.stream()
        s.wait_event(Event("never"), timeout=0.05)
        with pytest.raises(StreamError, match="never"):
            s.synchronize()

    def test_event_synchronize_blocks_host(self, dev):
        with dev.stream() as s:
            ev = s.record_event()
            ev.synchronize(timeout=5.0)
            assert ev.query()


class TestFailurePoisoning:
    def test_error_propagates_and_poisons(self, dev, launched):
        lk, x, bx, by = launched
        s = dev.stream()
        bad = s.launch_async(lk, grid=-1, block=BLOCK, params={})
        with pytest.raises(Exception):
            bad.result()
        with pytest.raises(StreamError, match="earlier failure"):
            s.memcpy_htod_async(bx, x)
        with pytest.raises(StreamError, match="failed"):
            s.synchronize()

    def test_event_behind_a_failure_carries_it(self, dev, launched):
        """A record queued behind a failing op still fires, carrying the
        producer's fault: the consumer's wait and the host's
        ``Event.synchronize`` raise it instead of timing out."""
        import threading

        lk, x, bx, by = launched
        gate = threading.Event()
        p, c = dev.stream("producer"), dev.stream("consumer")
        p.submit("gate", gate.wait)  # hold the queue until all is queued
        p.launch_async(lk, grid=-1, block=BLOCK, params={})
        ev = p.record_event()
        c.wait_event(ev, timeout=30)
        gate.set()
        for sync in (c.synchronize, lambda: ev.synchronize(timeout=30)):
            with pytest.raises(StreamError) as info:
                sync()
            causes = []
            exc = info.value
            while exc is not None:
                causes.append(exc)
                exc = exc.__cause__
            assert any(isinstance(e, LaunchError) for e in causes), causes

    def test_closed_stream_rejects_work(self, dev, launched):
        lk, x, bx, by = launched
        s = dev.stream()
        s.close()
        with pytest.raises(StreamError, match="closed"):
            s.memcpy_htod_async(bx, x)

    def test_synchronize_stays_poisoned_after_drain(self, dev, launched):
        """The sticky-error regression: the *second* synchronize (whose
        pending list is already empty) must still re-raise."""
        lk, x, bx, by = launched
        s = dev.stream()
        s.launch_async(lk, grid=-1, block=BLOCK, params={})
        with pytest.raises(StreamError, match="failed"):
            s.synchronize()
        # Nothing left to drain — the error must re-raise anyway.
        with pytest.raises(StreamError, match="failed"):
            s.synchronize()
        with pytest.raises(StreamError, match="failed"):
            s.synchronize()

    def test_exception_in_with_block_unregisters_stream(self, dev, launched):
        """The ``__exit__`` regression: a body exception must still remove
        the aborted stream from the device registry, or every subsequent
        ``Device.synchronize`` drains a closed stream."""
        lk, x, bx, by = launched
        with pytest.raises(RuntimeError, match="boom"):
            with dev.stream("doomed") as s:
                s.memcpy_htod_async(bx, x)
                raise RuntimeError("boom")
        assert s not in dev._streams
        dev.synchronize()  # must not touch the aborted stream

    def test_clean_exit_unregisters_stream(self, dev):
        with dev.stream() as s:
            pass
        assert s not in dev._streams


class TestCancellation:
    """A future cancelled before its queue entry runs must unregister
    from the stream's FIFO — the pre-service leak left the corpse in
    ``_pending`` where ``synchronize()`` choked on it."""

    def test_cancelled_op_leaves_fifo_and_sync_completes(self, dev):
        import threading

        gate = threading.Event()
        ran = []
        s = dev.stream()
        blocker = s.submit("block", gate.wait)
        doomed = s.submit("doomed", lambda: ran.append("doomed"))
        assert doomed.cancel()  # still queued behind the blocker
        gate.set()
        s.synchronize()  # must neither raise nor deadlock
        assert doomed not in s._pending
        assert ran == []
        assert blocker.result() is True
        s.close()

    def test_cancelled_op_does_not_poison_stream(self, dev):
        import threading

        gate = threading.Event()
        ran = []
        s = dev.stream()
        s.submit("block", gate.wait)
        s.submit("doomed", lambda: ran.append("doomed")).cancel()
        gate.set()
        s.synchronize()
        # Later work still runs: the cancellation was not an error.
        s.submit("after", lambda: ran.append("after"))
        s.synchronize()
        assert ran == ["after"]
        s.close()

    def test_depth_gauge_tracks_cancellation(self, dev):
        import threading

        gate = threading.Event()
        s = dev.stream()
        s.submit("block", gate.wait)
        doomed = s.submit("doomed", lambda: None)
        assert s.depth == 2
        doomed.cancel()
        gate.set()
        s.synchronize()
        assert s.depth == 0
        s.close()

    def test_running_op_cannot_be_cancelled(self, dev):
        import threading

        started = threading.Event()
        gate = threading.Event()

        def op():
            started.set()
            gate.wait()
            return "done"

        s = dev.stream()
        fut = s.submit("running", op)
        assert started.wait(5.0)
        assert not fut.cancel()  # already executing
        gate.set()
        assert fut.result(5.0) == "done"
        s.synchronize()
        s.close()


class TestStickyErrorFirstFaultWins:
    """Regression: ops draining behind a failure raise the abort
    StreamError, which must never *replace* the recorded root cause —
    ``synchronize()`` re-raises the first fault, not the last echo."""

    def test_root_cause_survives_aborted_followers(self, dev):
        import threading

        gate = threading.Event()
        s = dev.stream()
        s.submit("block", gate.wait)

        def boom():
            raise ValueError("root cause 42")

        s.submit("boom", boom)
        # Queue N ops behind the failure *before* it executes; each one
        # drains through _run_op, sees the poisoned stream, and aborts.
        for k in range(6):
            s.submit(f"after{k}", lambda: None)
        gate.set()
        for _ in range(3):  # sticky across repeated drains
            with pytest.raises(StreamError, match="root cause 42") as ei:
                s.synchronize()
            assert isinstance(ei.value.__cause__, ValueError)
            assert "root cause 42" in str(ei.value.__cause__)
        # The recorded fault is the original, not an abort StreamError.
        assert isinstance(s._error, ValueError)
        s._pool.shutdown(wait=True)
        s._unregister()


class TestCloseShutdownRace:
    """Regression: a submit racing ``close()`` must surface the stream
    API's StreamError, never the executor's raw RuntimeError."""

    def test_pool_shutdown_window_raises_stream_error(self, dev):
        # Deterministic re-creation of the race window: the pool is shut
        # but the submitter has not yet observed _closed.
        s = dev.stream()
        s._pool.shutdown(wait=True)
        with pytest.raises(StreamError, match="closed"):
            s.submit("late", lambda: None)
        assert s._closed  # the failed submit latched the closed state
        s._unregister()

    def test_submitter_racing_close_sees_stream_errors_only(self, dev):
        import threading

        for _ in range(10):
            s = dev.stream()
            leaked = []
            started = threading.Event()

            def submitter():
                started.set()
                for _ in range(200):
                    try:
                        s.submit("noop", lambda: None)
                    except StreamError:
                        return  # the documented close-race outcome
                    except BaseException as exc:  # pragma: no cover
                        leaked.append(exc)
                        return

            t = threading.Thread(target=submitter)
            t.start()
            started.wait()
            s.close()
            t.join()
            assert leaked == []


class TestEventTimeoutConfiguration:
    """Regression: the 60 s wait_event guard was hardcoded; it now comes
    from ``Device(event_timeout=)`` / ``REPRO_EVENT_TIMEOUT``."""

    def test_default_is_60s(self, dev):
        from repro.cudasim import DEFAULT_EVENT_TIMEOUT

        assert DEFAULT_EVENT_TIMEOUT == 60.0
        assert dev.event_timeout == 60.0

    def test_constructor_override_governs_wait(self):
        d = Device(heap_bytes=1 << 20, event_timeout=0.05)
        s = d.stream()
        s.wait_event(Event("nobody-records-this"))
        with pytest.raises(StreamError, match="after 0.05s"):
            s.synchronize()

    def test_env_override(self, monkeypatch):
        from repro.cudasim import EVENT_TIMEOUT_ENV

        monkeypatch.setenv(EVENT_TIMEOUT_ENV, "0.25")
        assert Device(heap_bytes=1 << 20).event_timeout == 0.25

    def test_env_rejects_garbage(self, monkeypatch):
        from repro.cudasim import EVENT_TIMEOUT_ENV

        monkeypatch.setenv(EVENT_TIMEOUT_ENV, "soon")
        with pytest.raises(ValueError, match="REPRO_EVENT_TIMEOUT"):
            Device(heap_bytes=1 << 20)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="event_timeout"):
            Device(heap_bytes=1 << 20, event_timeout=0.0)

    def test_infinite_timeout_waits_not_overflows(self):
        # threading.Event.wait(inf) raises OverflowError on some
        # platforms; the stream must translate inf into "wait forever".
        d = Device(heap_bytes=1 << 20, event_timeout=float("inf"))
        s0 = d.stream("producer")
        s1 = d.stream("consumer")
        ev = s0.record_event()
        s1.wait_event(ev)
        s1.synchronize()
        s0.close()
        s1.close()

    def test_explicit_argument_beats_device_default(self):
        d = Device(heap_bytes=1 << 20, event_timeout=30.0)
        s = d.stream()
        s.wait_event(Event("never"), timeout=0.05)
        with pytest.raises(StreamError, match="never"):
            s.synchronize()


class TestPeerCopy:
    def test_peer_copy_moves_data(self, dev):
        peer = Device(heap_bytes=1 << 20, name="peer")
        src = dev.malloc(4 * N)
        dst = peer.malloc(4 * N)
        x = np.arange(N, dtype=np.float32)
        dev.memcpy_htod(src, x)
        with dev.stream() as s:
            s.memcpy_peer_async(src, peer, dst, N)
        assert np.array_equal(peer.memcpy_dtoh(dst, N), x)

    def test_peer_copy_costs_one_pcie_traversal(self, dev):
        peer = Device(heap_bytes=1 << 20)
        src = dev.malloc(4 * N)
        dst = peer.malloc(4 * N)
        one_hop = (4 * N / PCIE_BYTES_PER_S) * dev.props.clock_mhz * 1e6
        with dev.stream() as s:
            s.memcpy_peer_async(src, peer, dst, N)
            s.synchronize()
            assert s.cycles == pytest.approx(one_hop)

    def test_host_staged_copy_costs_double(self, dev):
        peer = Device(heap_bytes=1 << 20)
        src = dev.malloc(4 * N)
        dst = peer.malloc(4 * N)
        with dev.stream() as direct:
            direct.memcpy_peer_async(src, peer, dst, N)
            direct.synchronize()
        with dev.stream() as staged:
            staged.memcpy_peer_async(src, peer, dst, N, via_host=True)
            staged.synchronize()
        assert staged.cycles == pytest.approx(2 * direct.cycles)


class TestDeviceIntegration:
    def test_device_synchronize_drains_all_streams(self, dev, launched):
        lk, x, bx, by = launched
        s0 = dev.stream()
        s1 = dev.stream()
        s0.memcpy_htod_async(bx, x)
        s1.memcpy_htod_async(by, x)
        dev.synchronize()
        assert np.array_equal(dev.memcpy_dtoh(bx, N), x)
        assert np.array_equal(dev.memcpy_dtoh(by, N), x)
        s0.close()
        s1.close()

    def test_launch_span_carries_stream_name(self, dev, launched):
        from repro.telemetry import runtime as tel

        lk, x, bx, by = launched
        tel.enable()
        try:
            with dev.stream("tagged") as s:
                s.memcpy_htod_async(bx, x)
                s.launch_async(
                    lk, grid=N // BLOCK, block=BLOCK,
                    params={"x": bx, "y": by, "n": N},
                )
                s.synchronize()
            spans = [
                r for r in tel.spans()
                if r.attrs.get("stream") == "tagged"
            ]
            names = {r.name for r in spans}
            assert "cudasim.launch" in names
            assert "cudasim.stream.launch" in names
        finally:
            tel.disable()

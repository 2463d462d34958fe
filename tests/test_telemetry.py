"""Telemetry layer: no-op overhead, metrics, spans, exporters, CLI."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro import telemetry
from repro.cudasim import (
    Device,
    KernelBuilder,
    Toolchain,
    TraceRecorder,
    compile_kernel,
)
from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with telemetry disabled."""
    telemetry.disable()
    yield
    telemetry.disable()


def _store_kernel():
    b = KernelBuilder("tiny", params=("dst",))
    x = b.reg("x")
    b.mov(x, 2.0)
    b.st_global(b.imad("a", b.sreg("tid"), 4, b.param("dst")), x)
    return compile_kernel(b.build())


def _launch(grid=2, block=32):
    dev = Device(toolchain=Toolchain.CUDA_1_0, heap_bytes=1 << 20)
    dst = dev.malloc(4 * grid * block)
    return dev.launch(_store_kernel(), grid=grid, block=block, params={"dst": dst})


# -- no-op backend ---------------------------------------------------------


class TestNoopBackend:
    def test_disabled_span_is_one_shared_object(self):
        assert not telemetry.enabled()
        s1 = telemetry.span("a")
        s2 = telemetry.span("b")
        assert s1 is s2 is telemetry.NOOP_SPAN
        with s1 as inner:
            assert inner is s1
        assert inner.set(anything=1) is s1

    def test_disabled_span_allocates_nothing(self):
        """The executor hot loop must pay nothing when telemetry is off:
        repeated enter/exit leaves traced memory flat."""
        for _ in range(16):  # warm caches
            with telemetry.span("warm"):
                pass
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(2000):
                with telemetry.span("hot"):
                    pass
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert grown < 512, f"no-op span leaked {grown} bytes over 2000 iters"

    def test_disabled_metrics_and_recorders_are_inert(self):
        telemetry.inc("x", 5, k="v")
        telemetry.set_gauge("g", 1.0)
        telemetry.observe("h", 2.0)
        telemetry.record_launch(_launch())
        assert telemetry.snapshot() == {}
        assert telemetry.spans() == []
        assert telemetry.last_launch() is None

    def test_launch_unaffected_by_disabled_telemetry(self):
        result = _launch()
        assert result.cycles > 0
        assert len(result.sm_stats) == 2  # grid=2 on >=2 SMs


# -- metrics ---------------------------------------------------------------


class TestMetrics:
    def test_counter_label_aggregation(self):
        c = Counter("launches")
        c.inc(kernel="a")
        c.inc(2, kernel="a")
        c.inc(kernel="b")
        c.inc(10)  # unlabelled series
        assert c.value(kernel="a") == 3
        assert c.value(kernel="b") == 1
        assert c.value() == 10
        assert c.total() == 14
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_label_order_is_irrelevant(self):
        c = Counter("c")
        c.inc(1, a=1, b=2)
        c.inc(1, b=2, a=1)
        assert c.value(a=1, b=2) == 2

    def test_histogram_stats_and_buckets(self):
        h = Histogram("lat", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v, op="ld")
        stats = h.stats(op="ld")
        assert stats["count"] == 4
        assert stats["sum"] == pytest.approx(555.5)
        assert stats["min"] == 0.5
        assert stats["max"] == 500.0
        assert stats["mean"] == pytest.approx(555.5 / 4)
        assert stats["bucket_counts"] == [1, 1, 1, 1]  # last = +inf overflow

    def test_registry_get_or_create_and_kind_clash(self):
        reg = MetricsRegistry()
        assert reg.counter("n") is reg.counter("n")
        with pytest.raises(TypeError):
            reg.gauge("n")
        reg.gauge("g").set(3.5, sm=0)
        snap = reg.snapshot()
        assert snap["n"]["kind"] == "counter"
        assert snap["g"]["series"] == [{"labels": {"sm": 0}, "value": 3.5}]
        json.dumps(snap)  # snapshot must be JSON-safe


# -- spans -----------------------------------------------------------------


class TestSpans:
    def test_nesting_attrs_and_ordering(self):
        telemetry.enable()
        with telemetry.span("outer", phase="setup") as outer:
            with telemetry.span("inner"):
                pass
            outer.set(cycles=42)
        records = telemetry.spans()
        assert [r.name for r in records] == ["outer", "inner"]
        outer_rec = records[0]
        inner_rec = records[1]
        assert inner_rec.parent_id == outer_rec.span_id
        assert outer_rec.parent_id is None
        assert outer_rec.attrs == {"phase": "setup", "cycles": 42}
        assert outer_rec.end_s >= inner_rec.end_s >= inner_rec.start_s
        json.dumps(outer_rec.as_dict())

    def test_exception_closes_span_and_tags_error(self):
        telemetry.enable()
        with pytest.raises(RuntimeError):
            with telemetry.span("boom"):
                raise RuntimeError("x")
        (rec,) = telemetry.spans()
        assert rec.end_s is not None
        assert rec.attrs["error"] == "RuntimeError"


# -- instrumentation -------------------------------------------------------


class TestLaunchInstrumentation:
    def test_record_launch_rolls_kernel_stats_into_registry(self):
        telemetry.enable()
        result = _launch()
        snap = telemetry.snapshot()
        stats = result.stats
        series = {
            name: snap[name]["series"][0]["value"]
            for name in (
                "cudasim.launches",
                "cudasim.warp_instructions",
                "cudasim.memory.transactions",
                "cudasim.memory.bytes",
            )
        }
        assert series["cudasim.launches"] == 1
        assert series["cudasim.warp_instructions"] == stats.warp_instructions
        assert series["cudasim.memory.transactions"] == stats.memory.transactions
        assert series["cudasim.memory.bytes"] == stats.memory.bytes_moved
        assert snap["cudasim.occupancy"]["series"][0]["value"] == pytest.approx(
            result.occupancy.occupancy(result.device)
        )
        # Per-launch and per-SM spans were emitted: a compiled launch
        # runs congruent SMs as one gang, whose span lists its members,
        # so every SM of the launch is in exactly one span.
        names = [r.name for r in telemetry.spans()]
        assert "cudasim.launch" in names
        sms = [
            sm
            for r in telemetry.spans()
            if r.name == "cudasim.sm"
            for sm in r.attrs["sms"]
        ]
        assert sorted(sms) == list(range(len(result.sm_stats)))

    def test_kernel_stats_as_dict_is_json_safe(self):
        result = _launch()
        payload = json.dumps(result.stats.as_dict())
        back = json.loads(payload)
        assert back["warp_instructions"] == result.stats.warp_instructions
        assert "st_global" in back["by_op"]
        assert "mem_global" in back["by_class"]
        assert back["memory"]["transactions"] == result.stats.memory.transactions


# -- chrome trace export ---------------------------------------------------


class TestChromeTrace:
    def test_export_schema_valid_and_monotonic(self, tmp_path):
        telemetry.enable()
        recorder = TraceRecorder()
        dev = Device(toolchain=Toolchain.CUDA_1_0, heap_bytes=1 << 20)
        dst = dev.malloc(4 * 64)
        dev.launch(
            _store_kernel(), grid=2, block=32, params={"dst": dst},
            trace=recorder,
        )
        path = telemetry.export_chrome_trace(
            str(tmp_path / "trace.json"), memory_trace=recorder.trace
        )
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)  # must be valid JSON
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        last_ts = -1.0
        phases = set()
        for event in events:
            assert "ph" in event and "pid" in event and "name" in event
            phases.add(event["ph"])
            ts = event.get("ts")
            assert ts is not None and ts >= 0
            assert ts >= last_ts, "ts must be monotonically ordered"
            last_ts = ts
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert "tid" in event
        # Kernel slices, counters, metadata and access instants all present.
        assert {"M", "X", "C", "i"} <= phases

    def test_slices_cover_sm_cycles_and_args(self, tmp_path):
        result = _launch()
        events = telemetry.launch_trace_events(result)
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == len(result.stats.sm_cycles)
        dev = result.device
        for sm, (event, end_cycle) in enumerate(
            zip(slices, result.stats.sm_cycles)
        ):
            assert event["dur"] == pytest.approx(
                dev.cycles_to_seconds(end_cycle) * 1e6
            )
            assert event["args"]["warp_instructions"] > 0
            assert event["tid"] == sm + 1

    def test_span_events_exported(self, tmp_path):
        telemetry.enable()
        with telemetry.span("phase", layout="soa"):
            _launch()
        path = telemetry.export_chrome_trace(str(tmp_path / "t.json"))
        events = json.load(open(path))["traceEvents"]
        span_events = [e for e in events if e.get("cat") == "span"]
        assert {e["name"] for e in span_events} >= {"phase", "cudasim.launch"}
        (phase,) = [e for e in span_events if e["name"] == "phase"]
        assert phase["args"] == {"layout": "soa"}

    def test_export_without_data_raises(self, tmp_path):
        with pytest.raises(ValueError):
            telemetry.export_chrome_trace(str(tmp_path / "t.json"))


# -- manifests -------------------------------------------------------------


class TestManifests:
    def test_launch_manifest_roundtrip(self, tmp_path):
        telemetry.enable()
        result = _launch()
        path = str(tmp_path / "results.jsonl")
        telemetry.write_manifest(path, wall_s=0.25)
        telemetry.write_manifest(path, result=result)
        records = telemetry.read_manifests(path)
        assert len(records) == 2
        rec = records[0]
        assert rec["schema"] == telemetry.MANIFEST_SCHEMA
        assert rec["kind"] == "kernel-launch"
        assert rec["wall_s"] == 0.25
        data = rec["data"]
        # The counters the paper's argument is read off:
        assert data["occupancy"] == pytest.approx(
            result.occupancy.occupancy(result.device)
        )
        assert data["warp_instructions"] == result.stats.warp_instructions
        assert data["memory_transactions"] == result.stats.memory.transactions
        assert data["memory_bytes"] == result.stats.memory.bytes_moved
        assert data["time_ms"] == pytest.approx(result.time_ms)
        assert rec["environment"]["python"]
        assert rec["metrics"]["cudasim.launches"]["series"][0]["value"] == 1
        assert telemetry.read_manifests(path, kind="kernel-launch") == records
        assert telemetry.read_manifests(path, kind="experiment") == []

    def test_build_manifest_minimal(self):
        m = telemetry.build_manifest("custom", data={"x": 1})
        assert m["kind"] == "custom"
        assert m["data"] == {"x": 1}
        assert "config" not in m
        json.dumps(m)


# -- CLI -------------------------------------------------------------------


class TestCli:
    def test_run_json_prints_records_and_appends_manifest(
        self, tmp_path, capsys
    ):
        from repro.experiments.registry import main

        path = str(tmp_path / "results.jsonl")
        rc = main(["run", "fig11", "--quick", "--json", path])
        assert rc == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 1, "stdout must carry exactly the JSON records"
        printed = json.loads(lines[0])
        assert printed["kind"] == "experiment"
        assert printed["data"]["experiment_id"] == "fig11"
        (stored,) = telemetry.read_manifests(path, kind="experiment")
        assert stored["data"]["experiment_id"] == "fig11"
        assert stored["data"]["measured_claims"]
        assert stored["wall_s"] >= 0

    def test_run_without_json_keeps_stdout_human(self, capsys):
        from repro.experiments.registry import main

        assert main(["run", "fig11", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "paper vs measured" in out

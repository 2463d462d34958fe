"""Broader coverage: warp-scaling experiment, launch partitioning,
nested divergence, CLI entry point."""

import json

import numpy as np
import pytest

from repro.cudasim import Device, KernelBuilder, Toolchain, compile_kernel
from repro.experiments.registry import main
from repro.experiments.warp_scaling import measure_warps, run as run_warps


class TestWarpScaling:
    @pytest.fixture(scope="class")
    def result(self):
        return run_warps(warp_counts=(1, 4, 16))

    def test_gap_widens_with_warps(self, result):
        gaps = result.data["gaps"]
        assert gaps[-1] > gaps[0] * 1.3

    def test_latency_regime_matches_fig10_band(self, result):
        """At 1 warp the AoS/SoAoaS gap is Fig. 10's ~1.3-1.5x."""
        assert 1.1 < result.data["gaps"][0] < 1.6

    def test_soaoas_scales_flat(self, result):
        cyc = result.data["cycles"]["soaoas"]
        assert cyc[-1] < 1.3 * cyc[0]  # coalesced traffic doesn't saturate

    def test_single_measurement(self):
        v = measure_warps("soa", 2, records_per_thread=2)
        assert v > 0


class TestLaunchPartitioning:
    def _counter_kernel(self):
        b = KernelBuilder("count", params=("dst",))
        i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), b.sreg("tid"))
        b.st_global(b.imad("a", i, 4, b.param("dst")), b.mov("x", 1.0))
        return compile_kernel(b.build())

    def test_blocks_spread_across_sms(self):
        dev = Device(heap_bytes=1 << 20)
        lk = self._counter_kernel()
        grid = 40
        dst = dev.malloc(4 * 32 * grid)
        res = dev.launch(lk, grid, 32, {"dst": dst})
        # Every thread wrote exactly once regardless of SM assignment.
        assert dev.memcpy_dtoh(dst, 32 * grid).sum() == 32 * grid
        assert res.stats.blocks_executed == grid
        # 40 blocks over 16 SMs: the busiest SM ran ceil(40/16)=3 blocks.
        assert len(res.stats.sm_cycles) == 16

    def test_sm_count_restriction(self):
        dev = Device(heap_bytes=1 << 20)
        lk = self._counter_kernel()
        dst = dev.malloc(4 * 32 * 8)
        res_1sm = dev.launch(lk, 8, 32, {"dst": dst}, sm_count=1)
        res_all = dev.launch(lk, 8, 32, {"dst": dst})
        assert len(res_1sm.stats.sm_cycles) == 1
        assert res_1sm.cycles > res_all.cycles  # serialized on one SM

    def test_max_resident_override(self):
        dev = Device(heap_bytes=1 << 20)
        lk = self._counter_kernel()
        dst = dev.malloc(4 * 32 * 8)
        serial = dev.launch(
            lk, 8, 32, {"dst": dst}, sm_count=1, max_resident_blocks=1
        )
        packed = dev.launch(
            lk, 8, 32, {"dst": dst}, sm_count=1, max_resident_blocks=8
        )
        assert packed.cycles < serial.cycles

    def test_launch_result_time_units(self):
        dev = Device(heap_bytes=1 << 20)
        lk = self._counter_kernel()
        dst = dev.malloc(4 * 32)
        res = dev.launch(lk, 1, 32, {"dst": dst})
        assert res.time_ms == pytest.approx(1e3 * res.time_s)
        assert res.time_s == pytest.approx(res.cycles / 1.35e9)


class TestNestedDivergence:
    def test_nested_ifs(self):
        b = KernelBuilder("nest", params=("dst",))
        x = b.mov("x", 0.0)
        p_outer = b.pred()
        b.setp("lt", p_outer, b.sreg("tid"), 16)
        with b.if_(p_outer):
            b.add(x, x, 1.0)
            p_inner = b.pred()
            b.setp("lt", p_inner, b.sreg("tid"), 8)
            with b.if_(p_inner):
                b.add(x, x, 10.0)
            b.add(x, x, 100.0)
        b.st_global(b.imad("o", b.sreg("tid"), 4, b.param("dst")), x)
        dev = Device(heap_bytes=1 << 16)
        dst = dev.malloc(128)
        dev.launch(compile_kernel(b.build()), 1, 32, {"dst": dst})
        out = dev.memcpy_dtoh(dst, 32)
        np.testing.assert_array_equal(out[:8], 111.0)
        np.testing.assert_array_equal(out[8:16], 101.0)
        np.testing.assert_array_equal(out[16:], 0.0)

    def test_if_inside_uniform_loop(self):
        b = KernelBuilder("k", params=("dst",))
        acc = b.mov("acc", 0.0)
        with b.loop(0, 4) as j:
            p = b.pred()
            jf = b.i2f(b.tmp("jf"), j)
            tf = b.i2f(b.tmp("tf"), b.sreg("tid"))
            b.setp("lt", p, tf, jf)  # diverges within the warp
            with b.if_(p):
                b.add(acc, acc, 1.0)
        b.st_global(b.imad("o", b.sreg("tid"), 4, b.param("dst")), acc)
        dev = Device(heap_bytes=1 << 16)
        dst = dev.malloc(128)
        dev.launch(compile_kernel(b.build()), 1, 32, {"dst": dst})
        out = dev.memcpy_dtoh(dst, 32)
        # Thread t is counted for iterations j > t, j in 0..3.
        expect = np.maximum(0, 3 - np.arange(32))
        np.testing.assert_array_equal(out, expect)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "warps" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "nonsense"]) == 2

    def test_run_with_outputs(self, tmp_path, capsys):
        j = str(tmp_path / "r.jsonl")
        assert main(["run", "diagrams", "--json", j, "--dat", str(tmp_path)]) == 0
        record = json.loads(open(j).read().splitlines()[0])
        assert record["experiment_id"] == "fig3579"
        captured = capsys.readouterr()
        # With --json, stdout carries the JSON records; summaries move
        # to stderr.
        assert json.loads(captured.out.splitlines()[0])["kind"] == "experiment"
        assert "paper vs measured" in captured.err

    @pytest.mark.parametrize("before", (None, "0", "on"))
    def test_no_fastpath_is_scoped_to_the_command(self, monkeypatch, before):
        """``--no-fastpath`` pins the interpreter while the command runs,
        then leaves the environment as it found it: a later command
        and a new device resolve the switch as before."""
        import os

        from repro.cudasim import fastpath_enabled
        from repro.cudasim.fastpath import FASTPATH_ENV
        from repro.experiments import registry

        if before is None:
            monkeypatch.delenv(FASTPATH_ENV, raising=False)
        else:
            monkeypatch.setenv(FASTPATH_ENV, before)
        enabled = fastpath_enabled()
        seen = []

        class Result:
            def summary(self):
                return ""

        def run_experiment(name, quick=False):
            dev = Device(cache=None, heap_bytes=1 << 12)
            seen.append((fastpath_enabled(), dev.fastpath))
            return Result()

        monkeypatch.setattr(registry, "run_experiment", run_experiment)
        assert main(["run", "occupancy", "--no-fastpath"]) == 0
        assert os.environ.get(FASTPATH_ENV) == before
        assert main(["run", "occupancy"]) == 0
        assert seen == [(False, False), (enabled, enabled)]
        assert os.environ.get(FASTPATH_ENV) == before
        assert fastpath_enabled() is enabled

    @pytest.mark.parametrize("before", (False, True), ids=("off", "on"))
    def test_telemetry_and_profile_are_scoped_to_the_command(
        self, monkeypatch, before
    ):
        """``--telemetry`` and ``--profile`` are on while the command
        runs, then left as the command found them: off stays off (a
        leaked profiler would also run every later launch's SMs one at a
        time), and sessions that were on stay the same sessions."""
        from repro import telemetry
        from repro.cudasim import profiler
        from repro.experiments import registry

        class Result:
            def summary(self):
                return ""

        seen = []

        def run_experiment(name, quick=False):
            seen.append((telemetry.enabled(), profiler.enabled()))
            return Result()

        monkeypatch.setattr(registry, "run_experiment", run_experiment)
        telemetry.disable()
        profiler.disable()
        try:
            if before:
                telemetry.enable()
                profiler.enable()
            sessions = (telemetry.get(), profiler.get())
            assert main(["run", "occupancy", "--telemetry", "--profile"]) == 0
            assert seen == [(True, True)]
            assert (telemetry.enabled(), profiler.enabled()) == (before,) * 2
            assert (telemetry.get(), profiler.get()) == sessions
        finally:
            telemetry.disable()
            profiler.disable()


class TestModelVsSim:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.model_vs_sim import run

        return run()

    def test_absolute_error_bounded(self, result):
        for state in result.data["states"].values():
            assert abs(state["relative_error"]) < 0.25

    def test_speedup_ratios_track(self, result):
        pred = result.data["speedup_pred"]
        meas = result.data["speedup_meas"]
        for label in pred:
            assert pred[label] == pytest.approx(meas[label], abs=0.07)

    def test_model_consistently_optimistic(self, result):
        """Eq. 2 omits stalls, so it should never over-predict cost."""
        for state in result.data["states"].values():
            assert state["relative_error"] < 0.0


class TestBhTradeoff:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.bh_tradeoff import run

        return run(n=600, thetas=(0.0, 0.6, 1.0))

    def test_theta_zero_is_exact(self, result):
        assert result.data["points"][0]["rms_error"] < 1e-9

    def test_error_and_work_tradeoff(self, result):
        points = result.data["points"]
        errors = [p["rms_error"] for p in points]
        visits = [p["mean_visits"] for p in points]
        assert errors == sorted(errors)
        assert visits == sorted(visits, reverse=True)

    def test_sweet_spot_cheap_and_accurate(self, result):
        mid = result.data["points"][1]  # theta = 0.6
        assert mid["rms_error"] < 0.01
        assert mid["work_vs_direct"] < 0.5

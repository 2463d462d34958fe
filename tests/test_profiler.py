"""gravit-prof: counter parity, zero overhead, schema, diff, ranking.

The profiler's contract has three legs, each pinned here:

* **bit identity** — enabling profiling must not perturb the simulation:
  memory image, cycles and ``KernelStats`` are byte-identical with the
  profiler on or off;
* **counter identity** — the compiled fast path and the reference
  interpreter must produce *identical* profiler counters (stall
  attribution included), for every layout, unroll factor, and a
  divergent Barnes-Hut kernel;
* **documents** — the ``repro.profile/v1`` JSON document validates,
  round-trips, and diffs to zero against a same-config rerun.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import telemetry
from repro.cudasim import Device
from repro.cudasim import profiler
from repro.cudasim.device import Toolchain
from repro.cudasim.kernel_cache import KernelCache
from repro.cudasim.profiler import (
    PROFILE_SCHEMA,
    STALL_REASONS,
    diff_documents,
    profile_document,
    regions_for_layout,
    roofline,
    validate_profile,
)
from repro.core.layouts import make_layout
from repro.gravit import GpuConfig
from repro.gravit.gpu_barneshut import bh_forces_gpu
from repro.gravit.gpu_driver import GpuForceBackend
from repro.gravit.spawn import uniform_cube, uniform_sphere

N = 64
BLOCK = 32


@pytest.fixture(autouse=True)
def _clean_sessions():
    profiler.disable()
    telemetry.disable()
    yield
    profiler.disable()
    telemetry.disable()


def _forces_run(
    cfg: GpuConfig,
    *,
    fastpath: bool = True,
    profile: bool = True,
):
    """One forces_cycle on a fresh device; returns everything observable."""
    if profile:
        profiler.enable()
        profiler.reset()
    else:
        profiler.disable()
    system = uniform_cube(N, seed=7)
    dev = Device(
        toolchain=cfg.toolchain,
        fastpath=fastpath,
        cache=KernelCache(),
    )
    backend = GpuForceBackend(cfg, device=dev)
    forces, result = backend.forces_cycle(system)
    profile_dict = (
        result.profile.as_dict() if result.profile is not None else None
    )
    profiler.disable()
    return (
        forces.tobytes(),
        dev.gmem.words.tobytes(),
        result.cycles,
        result.stats.as_dict(),
        profile_dict,
    )


def _bh_run(*, fastpath: bool):
    """Divergent Barnes-Hut traversal with profiling on."""
    profiler.enable()
    profiler.reset()
    system = uniform_sphere(48, seed=11)
    dev = Device(fastpath=fastpath, cache=KernelCache(), heap_bytes=1 << 22)
    forces, _result = bh_forces_gpu(system, block_size=BLOCK, device=dev)
    p = profiler.last_profile()
    assert p is not None
    dump = p.as_dict()
    profiler.disable()
    return forces.tobytes(), dump


class TestFastpathCounterParity:
    """Interpreter and compiled fast path: identical profiler output."""

    @pytest.mark.parametrize("kind", ["aos", "soa", "aoas", "soaoas"])
    def test_layouts(self, kind):
        cfg = GpuConfig(layout_kind=kind, block_size=BLOCK)
        interp = _forces_run(cfg, fastpath=False)
        fast = _forces_run(cfg, fastpath=True)
        assert interp == fast

    @pytest.mark.parametrize("unroll", [2, 16, BLOCK])
    def test_unroll(self, unroll):
        cfg = GpuConfig(
            layout_kind="soaoas", block_size=BLOCK, unroll=unroll, licm=True
        )
        interp = _forces_run(cfg, fastpath=False)
        fast = _forces_run(cfg, fastpath=True)
        assert interp == fast

    @pytest.mark.parametrize("toolchain", list(Toolchain))
    def test_toolchains(self, toolchain):
        cfg = GpuConfig(
            layout_kind="aos", block_size=BLOCK, toolchain=toolchain
        )
        interp = _forces_run(cfg, fastpath=False)
        fast = _forces_run(cfg, fastpath=True)
        assert interp == fast

    def test_divergent_barnes_hut(self):
        interp_forces, interp_profile = _bh_run(fastpath=False)
        fast_forces, fast_profile = _bh_run(fastpath=True)
        assert interp_forces == fast_forces
        assert interp_profile == fast_profile
        # The traversal actually diverges, so the counters mean something.
        assert interp_profile["divergent_branches"] > 0


class TestZeroPerturbation:
    """Profiling on vs off: identical simulation, no profiler work off."""

    def test_bit_identical_with_and_without_profiler(self):
        cfg = GpuConfig(layout_kind="soaoas", block_size=BLOCK)
        on = _forces_run(cfg, profile=True)
        off = _forces_run(cfg, profile=False)
        # Everything observable except the profile itself matches.
        assert on[:4] == off[:4]
        assert on[4] is not None and off[4] is None

    def test_membench_identical_with_and_without_profiler(self):
        """The fig10 microbenchmark: same cycles/transactions either way."""
        from repro.cudasim.device import Toolchain
        from repro.experiments.fig10_memory_cycles import measure_layout

        def run(enabled):
            if enabled:
                profiler.enable()
                profiler.reset()
            else:
                profiler.disable()
            m = measure_layout("aos", Toolchain.CUDA_1_0, n=128, block=32)
            profiler.disable()
            return m

        assert run(True) == run(False)

    def test_disabled_runs_allocate_no_profiler_state(self, monkeypatch):
        """With the session off, no SMProfile is ever constructed and no
        launch grows a shadow scoreboard — the zero-overhead contract."""
        from repro.cudasim.profiler import counters

        def _boom(*args, **kwargs):
            raise AssertionError("SMProfile built while profiling disabled")

        monkeypatch.setattr(counters.SMProfile, "__init__", _boom)
        profiler.disable()
        cfg = GpuConfig(layout_kind="aos", block_size=BLOCK)
        system = uniform_cube(N, seed=7)
        dev = Device(toolchain=cfg.toolchain, cache=KernelCache())
        backend = GpuForceBackend(cfg, device=dev)
        _forces, result = backend.forces_cycle(system)
        assert result.profile is None


class TestProfileContent:
    def _profile(self, kind="soaoas"):
        cfg = GpuConfig(layout_kind=kind, block_size=BLOCK)
        profiler.enable()
        profiler.reset()
        system = uniform_cube(N, seed=7)
        dev = Device(toolchain=cfg.toolchain, cache=KernelCache())
        backend = GpuForceBackend(cfg, device=dev)
        backend.forces_cycle(system)
        p = profiler.last_profile()
        assert p is not None
        return p

    def test_stall_reasons_cover_idle_cycles(self):
        p = self._profile()
        assert set(p.stall_cycles) == set(STALL_REASONS)
        assert sum(p.stall_cycles.values()) > 0
        # Every attributed stall cycle is an idle/gap cycle of some SM.
        assert all(v >= 0 for v in p.stall_cycles.values())

    def test_issue_counts_match_kernel_stats(self):
        """Profiler issue counters re-derive KernelStats' instruction
        totals — the double-counting audit for the merged SMs."""
        cfg = GpuConfig(layout_kind="aos", block_size=BLOCK)
        profiler.enable()
        profiler.reset()
        system = uniform_cube(N, seed=7)
        dev = Device(toolchain=cfg.toolchain, cache=KernelCache())
        backend = GpuForceBackend(cfg, device=dev)
        _forces, result = backend.forces_cycle(system)
        p = result.profile
        assert int(p.issue_count.sum()) == result.stats.warp_instructions
        assert int(p.lanes.sum()) == result.stats.thread_instructions

    def test_region_attribution(self):
        p = self._profile("soaoas")
        assert p.regions, "driver did not advertise layout regions"
        assert p.region_tx, "no traffic binned to any region"
        assert sum(p.region_tx.values()) <= int(
            p.tx_coalesced.sum() + p.tx_uncoalesced.sum()
        )
        assert any("px" in name for name in p.region_tx)

    def test_occupancy_and_efficiency_bounds(self):
        p = self._profile()
        assert 0.0 < p.occupancy_achieved <= 1.0
        assert 0.0 < p.warp_execution_efficiency <= 1.0
        assert p.occupancy_theoretical > 0.0

    def test_roofline_classification(self):
        p = self._profile()
        analysis = roofline(p)
        assert analysis["bound"] in ("memory", "compute")
        assert analysis["arithmetic_intensity"] > 0
        assert analysis["achieved_flops_per_cycle"] <= (
            analysis["peak_flops_per_cycle"]
        )

    def test_regions_for_layout_spans(self):
        layout = make_layout("soaoas", 64)
        regions = regions_for_layout(layout, 4096)
        assert all(lo >= 4096 for _name, lo, _hi in regions)
        assert all(hi <= 4096 + layout.size_bytes for _n, _lo, hi in regions)
        names = [name for name, _lo, _hi in regions]
        assert len(names) == len(set(names))


class TestDocuments:
    def _document(self):
        cfg = GpuConfig(layout_kind="aoas", block_size=BLOCK)
        profiler.enable()
        profiler.reset()
        system = uniform_cube(N, seed=7)
        dev = Device(toolchain=cfg.toolchain, cache=KernelCache())
        backend = GpuForceBackend(cfg, device=dev)
        backend.forces_cycle(system)
        doc = profile_document(
            profiler.last_profile(), {"workload": "force", "layout": "aoas"}
        )
        profiler.disable()
        return doc

    def test_schema_validates_and_serializes(self):
        doc = self._document()
        assert doc["schema"] == PROFILE_SCHEMA
        assert validate_profile(doc) == []
        # Round-trips through JSON without numpy leakage.
        assert validate_profile(json.loads(json.dumps(doc))) == []

    def test_same_config_diff_is_empty(self):
        a, b = self._document(), self._document()
        assert diff_documents(a, b) == []

    def test_diff_reports_counter_deltas(self):
        a, b = self._document(), self._document()
        b["profile"]["cycles"] += 100.0
        b["profile"]["stall_cycles"]["mem_dependency"] += 50.0
        deltas = diff_documents(a, b)
        paths = [d["path"] for d in deltas]
        assert any("cycles" in p for p in paths)
        assert any("mem_dependency" in p for p in paths)

    def test_validator_catches_missing_sections(self):
        doc = self._document()
        del doc["roofline"]
        doc["profile"].pop("stall_cycles")
        problems = validate_profile(doc)
        assert problems
        assert any("roofline" in p for p in problems)
        assert any("stall_cycles" in p for p in problems)


class TestCli:
    def test_run_report_diff_roundtrip(self, tmp_path, capsys):
        from repro.cudasim.profiler.cli import main

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = [
            "run", "--kernel", "membench", "--layout", "soa",
            "--n", "128", "--block", "32",
        ]
        assert main([*base, "--json", str(a)]) == 0
        assert main([*base, "--json", str(b)]) == 0
        assert main(["report", str(a)]) == 0
        out = capsys.readouterr().out
        assert "stall cycles" in out
        assert main(["diff", str(a), str(b)]) == 0

    def test_diff_flags_config_drift(self, tmp_path):
        from repro.cudasim.profiler.cli import main

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        common = ["run", "--kernel", "membench", "--n", "128", "--block", "32"]
        assert main([*common, "--layout", "soa", "--json", str(a)]) == 0
        assert main([*common, "--layout", "aos", "--json", str(b)]) == 0
        assert main(["diff", str(a), str(b)]) == 1

    @pytest.mark.parametrize("before", (None, "0", "on"))
    def test_no_fastpath_is_scoped_to_the_command(
        self, monkeypatch, capsys, before
    ):
        """``--no-fastpath`` pins the interpreter while the launch runs,
        then leaves the environment as it found it."""
        import os

        from repro.cudasim import fastpath_enabled
        from repro.cudasim.fastpath import FASTPATH_ENV
        from repro.cudasim.profiler import cli

        if before is None:
            monkeypatch.delenv(FASTPATH_ENV, raising=False)
        else:
            monkeypatch.setenv(FASTPATH_ENV, before)
        enabled = fastpath_enabled()
        seen = []

        def run_force(*args):
            dev = Device(cache=None, heap_bytes=1 << 12)
            seen.append((fastpath_enabled(), dev.fastpath))
            return {}, None  # no profile: the command reports an error

        monkeypatch.setattr(cli, "run_force", run_force)
        assert cli.main(["run", "--kernel", "force", "--no-fastpath"]) == 1
        assert os.environ.get(FASTPATH_ENV) == before
        assert cli.main(["run", "--kernel", "force"]) == 1
        assert seen == [(False, False), (enabled, enabled)]
        assert os.environ.get(FASTPATH_ENV) == before
        assert fastpath_enabled() is enabled
        assert "produced no profile" in capsys.readouterr().err

    @pytest.mark.parametrize("before", (False, True), ids=("off", "on"))
    def test_profiler_session_is_scoped_to_the_command(
        self, monkeypatch, before
    ):
        """``run`` profiles in a fresh session of its own, then leaves the
        profiler and telemetry as it found them: off stays off, and a
        session that was on is the active one again."""
        from repro.cudasim.profiler import cli

        if before:
            telemetry.enable()
            profiler.enable()
        sessions = (telemetry.get(), profiler.get())
        seen = []

        def run_force(*args):
            seen.append(profiler.get())
            return {}, None  # no profile: the command reports an error

        monkeypatch.setattr(cli, "run_force", run_force)
        assert cli.main(["run", "--kernel", "force"]) == 1
        assert seen[0] is not None and seen[0] is not sessions[1]
        assert (telemetry.enabled(), profiler.enabled()) == (before,) * 2
        assert (telemetry.get(), profiler.get()) == sessions


class TestTelemetryIntegration:
    def test_stall_counter_track_in_chrome_trace(self, tmp_path):
        telemetry.enable()
        profiler.enable()
        cfg = GpuConfig(layout_kind="soaoas", block_size=BLOCK)
        system = uniform_cube(N, seed=7)
        dev = Device(toolchain=cfg.toolchain, cache=KernelCache())
        backend = GpuForceBackend(cfg, device=dev)
        _forces, result = backend.forces_cycle(system)
        path = tmp_path / "trace.json"
        telemetry.export_chrome_trace(str(path), result)
        doc = json.loads(path.read_text())
        stall_events = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "C" and e["name"].startswith("stalls SM")
        ]
        assert stall_events, "no stall counter track exported"
        assert set(stall_events[0]["args"]) == set(STALL_REASONS)
        ts = [e["ts"] for e in stall_events]
        assert ts == sorted(ts)

    def test_stall_metrics_in_registry(self):
        telemetry.enable()
        profiler.enable()
        cfg = GpuConfig(layout_kind="aos", block_size=BLOCK)
        system = uniform_cube(N, seed=7)
        dev = Device(toolchain=cfg.toolchain, cache=KernelCache())
        backend = GpuForceBackend(cfg, device=dev)
        backend.forces_cycle(system)
        snap = telemetry.snapshot()
        series = snap["cudasim.profiler.stall_cycles"]["series"]
        reasons = {s["labels"]["reason"] for s in series}
        assert reasons == set(STALL_REASONS)
        assert sum(s["value"] for s in series) > 0


class TestProfileExperiment:
    def test_counter_ranking_matches_cycle_ranking(self):
        from repro.experiments import profile_report

        result = profile_report.run()
        assert result.data["rankings_agree"], (
            result.data["ranking_by_counters"],
            result.data["ranking_by_cycles"],
        )
        assert result.data["ranking_by_cycles"][0] == "aos"
        assert result.data["ranking_by_cycles"][-1] == "soaoas"

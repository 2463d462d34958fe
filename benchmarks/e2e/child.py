"""One child process of the end-to-end benchmark.

Runs one workload's fixed unit of work from a cold start and prints one
JSON object on stdout: set-up time, per-op host times, simulated
cycles, peak RSS, output digests and check values (and, with
``--trace 1``, the per-layer metrics).  Host times are reported at
reference speed (see :class:`Speed`).  ``run.py`` starts these one at
a time and pools them; run this file directly only to debug one child::

    PYTHONPATH=src python benchmarks/e2e/child.py --workload resident-1024 --seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]

#: Integration step of every stepping workload (Euler, as in the paper).
DT = 0.01

#: Relative force error the checks accept against float64 direct sums.
FORCE_TOL = 1e-3

#: Largest |measured/paper - 1| the sweep check accepts.
PAPER_TOL = 0.1

#: Service tenants: every layout, rolled and fully unrolled.
LAYOUTS = ("aos", "soa", "aoas", "soaoas")
JOB_N = 128
JOB_STEPS = 2

#: The paper's Fig. 12 headline ratios (Sec. V).
PAPER_RATIOS = {
    "opt_vs_aos": 1.27,
    "opt_vs_cpu": 87.0,
    "unroll_vs_rolled": 1.18,
    "icm_vs_unroll": 1.06,
}

#: Work per child; ``smoke`` is the shrunken variant for the smoke test.
#: A service round is one job per tenant, in an order drawn from the seed.
PLANS = {
    "resident-1024": {"full": {"n": 1024, "steps": 4},
                      "smoke": {"n": 128, "steps": 1}},
    "ooc-graph-512": {"full": {"n": 512, "steps": 8},
                      "smoke": {"n": 256, "steps": 1}},
    "service-mix": {"full": {"rounds": 4}, "smoke": {"rounds": 1}},
    "paper-sweep": {"full": {"warm": 2, "quick": False},
                    "smoke": {"warm": 1, "quick": True}},
}

#: Seconds one :func:`reference_work` call takes on an idle core of the
#: machine the bounds were set on (a 2-core Xeon container).
REF_S = 0.018


def planned_ops(workload: str, smoke: bool) -> int:
    """Operations one child attempts: set-up step, warm-up jobs or cold
    sweep included."""
    plan = PLANS[workload]["smoke" if smoke else "full"]
    if workload == "service-mix":
        return (plan["rounds"] + 1) * 2 * len(LAYOUTS)
    if workload == "paper-sweep":
        return plan["warm"] + 1
    return plan["steps"] + 1


def reference_work() -> None:
    """Fixed host work that never touches the simulator: an integer loop,
    dict traffic and small numpy ops, the mix the simulator's host code
    runs."""
    total = 0
    for i in range(100_000):
        total += i * i
    table: dict[int, int] = {}
    for i in range(50_000):
        table[i & 255] = table.get(i & 127, 0) + 1
    a = np.arange(128.0).reshape(4, 32)
    mask = a > 3
    for _ in range(3_000):
        a = np.where(mask, a * 1.0001, a + 0.5)


def _time_reference() -> float:
    t = time.perf_counter()
    reference_work()
    return time.perf_counter() - t


class Speed:
    """Host speed, sampled by timing :func:`reference_work` just before
    and just after each timed section of a child.

    The machine is shared: each core, on its own, runs up to ~1.7x slower
    for seconds at a time while other tenants load it, and the simulator
    slows with it.  :meth:`scale` turns the raw seconds of the section
    just timed into seconds at reference speed: raw x ``REF_S`` / the
    mean of the samples before and after it.  A sample is taken on the
    core the work ran on: the calling thread's, or, for work whose
    threads use every core (``every_cpu``), each core in turn, averaged.
    """

    def __init__(self, every_cpu: bool = False) -> None:
        self.cpus = None
        if every_cpu and hasattr(os, "sched_setaffinity"):
            self.cpus = sorted(os.sched_getaffinity(0))
        reference_work()  # warm-up: the first call is slower
        self.factors: list[float] = []
        self.before = self._sample()

    def _sample(self) -> float:
        if self.cpus is None:
            return _time_reference()
        home = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(_time_reference())
        finally:
            os.sched_setaffinity(0, home)
        return sum(times) / len(times)

    def scale(self, raw: float) -> float:
        """Seconds at reference speed of the section that just ended."""
        after = self._sample()
        factor = REF_S / (0.5 * (self.before + after))
        self.before = after
        self.factors.append(factor)
        return raw * factor

    def median(self) -> float:
        """Median speed relative to the reference (1 = as fast)."""
        return float(np.median(self.factors))


def derive_seed(seed: int, *stream: int) -> int:
    """An independent input seed per (benchmark seed, input stream)."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def state_digest(system) -> str:
    return digest(system.px, system.py, system.pz, system.vx, system.vy,
                  system.vz, system.mass)


def force_err(system, raw_forces, g: float, eps: float) -> float:
    """Max |kernel - float64 direct| / max |direct| over all particles."""
    from repro.gravit.forces_cpu import direct_forces

    ref = direct_forces(system, g=g, eps=eps)
    got = np.asarray(raw_forces, dtype=np.float64) * g
    return float(np.abs(got - ref).max() / np.abs(ref).max())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Harness:
    """Counts the fastpath dispatches and kernel-cache misses of the timed
    phase; in a traced run also roots the workload's calls in harness
    spans and labels every span with its phase."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.counters: dict = {}
        self._start = None

    def phase(self, op) -> None:
        if self.tracer is not None:
            self.tracer.op = op

    def begin_timed(self, op) -> None:
        from repro.cudasim import fastpath

        self.phase(op)
        self._start = (fastpath.vec_counters(), cache_misses())

    def end_timed(self) -> None:
        from repro.cudasim import fastpath

        self.phase("teardown")
        vec0, miss0 = self._start
        vec1 = fastpath.vec_counters()
        self.counters = {
            "vec": {k: vec1[k] - vec0[k] for k in vec1},
            "cache_misses": {"op": cache_misses() - miss0},
        }

    def call(self, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(f"bench.{fn.__name__}", fn, *args, **kwargs)


def cache_misses() -> int:
    from repro.cudasim.kernel_cache import default_cache

    return default_cache().stats.misses


# -- workloads ---------------------------------------------------------------


def run_stepping(h: Harness, seed: int, plan: dict, ooc: bool) -> dict:
    from repro.gravit import Simulation, SimulationConfig
    from repro.gravit.spawn import plummer

    cfg = SimulationConfig(layout="soaoas", unroll="full", block_size=128)
    if ooc:
        cfg = cfg.replace(out_of_core=True, tile_rows=128, use_graph=True)
    system = plummer(plan["n"], seed=derive_seed(seed, 1))
    speed = Speed()

    t0 = time.perf_counter()
    sim = h.call(Simulation.create, cfg, system)
    h.call(sim.step, DT)
    setup_s = speed.scale(time.perf_counter() - t0)

    h.begin_timed(0)
    op_s, cycles = [], []
    before = None
    for i in range(plan["steps"]):
        if i == plan["steps"] - 1:
            h.phase("check")
            before = sim.download()
        h.phase(i)
        t = time.perf_counter()
        cycles.append(h.call(sim.step, DT))
        op_s.append(speed.scale(time.perf_counter() - t))
    h.end_timed()
    rss = peak_rss_mb()

    forces = sim.download_forces()
    final = sim.download()
    xfer = sim.xfer_summary() if ooc else {}
    sim.close()
    err = force_err(before, forces, cfg.g, cfg.eps)
    return {
        "setup_s": setup_s,
        "op_s": op_s,
        "ops": len(op_s),
        "speed": speed.median(),
        "sim_cycles": cycles,
        "sim_cycles_per_op": float(np.median(cycles)),
        "peak_rss_mb": rss,
        "digest": state_digest(final),
        "checks": {"force_err": err},
        "failed": int(err > FORCE_TOL),
        "layer_extra": {
            "xfer.copy_exposed_frac": xfer.get("copy_exposed_fraction", 0.0),
        },
    }


def run_service(h: Harness, seed: int, plan: dict) -> dict:
    from repro.gravit import ParticleSystem, SimulationConfig
    from repro.gravit.spawn import plummer
    from repro.service import SimulationService

    tenants = [
        (f"{layout}-{'unrolled' if unroll else 'rolled'}",
         SimulationConfig(layout=layout, unroll=unroll))
        for layout in LAYOUTS
        for unroll in (None, "full")
    ]
    per_round = len(tenants)
    jobs = plan["rounds"] * per_round
    # Job order: each round is a shuffled permutation of the tenants, so
    # every round does the same work whatever the seed.
    rng = np.random.default_rng(derive_seed(seed, 3))
    order = np.concatenate([
        rng.permutation(per_round) for _ in range(plan["rounds"])
    ])
    warm_inputs = [plummer(JOB_N, seed=derive_seed(seed, 4, t))
                   for t in range(len(tenants))]
    inputs = [plummer(JOB_N, seed=derive_seed(seed, 5, i))
              for i in range(jobs)]
    job_index: dict[str, object] = {}
    speed = Speed(every_cpu=True)

    t0 = time.perf_counter()
    svc = h.call(SimulationService, devices=2)
    handles = [
        svc.submit(name, warm_inputs[t], cfg, steps=JOB_STEPS, dt=DT)
        for t, (name, cfg) in enumerate(tenants)
    ]
    for handle in handles:
        job_index[handle.job_id] = "setup"
    warm_failed = 0
    for handle in handles:
        try:
            handle.result()
        except Exception as exc:  # a failed warm-up job is a failed op
            warm_failed += 1
            print(f"warm-up job failed: {exc!r}", file=sys.stderr)
    setup_s = speed.scale(time.perf_counter() - t0)

    h.begin_timed("loop")
    lock = threading.Lock()
    done: list = [None] * jobs
    errors: list[str] = []
    tracer = h.tracer

    def client(pending) -> None:
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            name, cfg = tenants[order[i]]
            if tracer is not None:
                tracer.set_thread_op(i)
            t = time.perf_counter()
            try:
                handle = svc.submit(name, inputs[i], cfg, steps=JOB_STEPS,
                                    dt=DT)
                job_index[handle.job_id] = i
                result = handle.result()
            except Exception as exc:  # failed or refused job: keep going
                with lock:
                    errors.append(f"job {i} ({name}): {exc!r}")
                continue
            done[i] = (time.perf_counter() - t, result)

    # Closed loop: two clients, each submits its next job when the
    # previous one returns.  A round ends when all its jobs have; an op
    # is a job's share of its round's wall time.
    op_s = []
    for r in range(plan["rounds"]):
        pending = iter(range(r * per_round, (r + 1) * per_round))
        clients = [threading.Thread(target=client, args=(pending,),
                                    name=f"client{k}") for k in range(2)]
        t = time.perf_counter()
        for c in clients:
            c.start()
        for c in clients:
            c.join()
        op_s.append(speed.scale(time.perf_counter() - t) / per_round)
    h.end_timed()
    rss = peak_rss_mb()
    svc.close()
    for e in errors:
        print(e, file=sys.stderr)

    ok = [(i, d) for i, d in enumerate(done) if d is not None]
    worst_err = 0.0
    wrong = 0
    per_tenant: dict[str, set] = {}
    for i, (_, r) in ok:
        cfg = tenants[order[i]][1]
        # The returned forces are the last force launch's, evaluated at
        # the positions before the last drift: undo that drift.
        st = r.state
        before = ParticleSystem.from_arrays(
            st.positions.astype(np.float64)
            - st.velocities.astype(np.float64) * DT,
            masses=st.mass,
        )
        err = force_err(before, r.forces, cfg.g, cfg.eps)
        worst_err = max(worst_err, err)
        wrong += err > FORCE_TOL
        per_tenant.setdefault(tenants[order[i]][0], set()).add(r.cycles)
    sim_cycles = {k: sorted(v) for k, v in sorted(per_tenant.items())}
    latencies = [d[0] for _, d in ok]
    results = [d[1] for _, d in ok]
    q = [r.queue_wait_s for r in results]
    run = [r.run_s for r in results]
    handoff = [lat - r.queue_wait_s - r.run_s
               for lat, r in zip(latencies, results)]
    return {
        "setup_s": setup_s,
        "op_s": op_s,
        "ops": jobs,
        "speed": speed.median(),
        "sim_cycles": sim_cycles,
        "sim_cycles_per_op": float(np.mean(
            [np.mean(v) for v in sim_cycles.values()]
        )) if sim_cycles else 0.0,
        "peak_rss_mb": rss,
        "digest": _jobs_digest(done),
        "checks": {"force_err": worst_err},
        "failed": len(errors) + warm_failed + wrong,
        "layer_extra": {
            "service.queue_wait_s.p50": _median(q),
            "service.run_s.p50": _median(run),
            "service.handoff_s.p50": _median(handoff),
            "service.warm_hit_frac": (
                sum(r.warm_placement for r in results) / len(results)
                if results else 0.0
            ),
        },
        "job_index": job_index,
    }


def _jobs_digest(done) -> str:
    h = hashlib.sha256()
    for d in done:
        h.update(state_digest(d[1].state).encode() if d else b"missing")
    return h.hexdigest()


def _median(values) -> float:
    return float(np.median(values)) if values else 0.0


def paper_err(seconds: dict) -> float:
    """Largest |measured / paper - 1| over the Fig. 12 headline ratios,
    from the unrounded per-level seconds at the largest size."""
    t = {label: series[-1] for label, series in seconds.items()}
    measured = {
        "opt_vs_aos": t["gpu-aos"] / t["gpu-full-opt"],
        "opt_vs_cpu": t["cpu"] / t["gpu-full-opt"],
        "unroll_vs_rolled": t["gpu-soaoas"] / t["gpu-soaoas-unroll"],
        "icm_vs_unroll": t["gpu-soaoas-unroll"] / t["gpu-full-opt"],
    }
    return max(abs(measured[k] / PAPER_RATIOS[k] - 1.0) for k in measured)


def run_sweep(h: Harness, seed: int, plan: dict) -> dict:
    """The Fig. 12 sweep has no random inputs: ``seed`` does not enter."""
    from repro.cudasim.device import G8800GTX
    from repro.experiments import fig12_gravit_levels as fig12

    sizes = fig12.QUICK_SIZES if plan["quick"] else fig12.PAPER_SIZES

    def sweep():
        return fig12.run(sizes)

    speed = Speed()
    t0 = time.perf_counter()
    cold = h.call(sweep)
    setup_s = speed.scale(time.perf_counter() - t0)
    seconds = cold.data["seconds"]
    cold_digest = hashlib.sha256(
        json.dumps(seconds, sort_keys=True).encode()
    ).hexdigest()

    h.begin_timed(0)
    op_s, mismatched = [], 0
    for i in range(plan["warm"]):
        h.phase(i)
        t = time.perf_counter()
        warm = h.call(sweep)
        op_s.append(speed.scale(time.perf_counter() - t))
        mismatched += warm.data["seconds"] != seconds
    h.end_timed()
    err = paper_err(seconds)
    # Modeled device time of the largest size over all GPU levels.
    device_s = sum(s[-1] for label, s in seconds.items() if label != "cpu")
    return {
        "setup_s": setup_s,
        "op_s": op_s,
        "ops": len(op_s),
        "speed": speed.median(),
        "sim_cycles": [device_s * G8800GTX.clock_mhz * 1e6],
        "sim_cycles_per_op": device_s * G8800GTX.clock_mhz * 1e6,
        "peak_rss_mb": peak_rss_mb(),
        "digest": cold_digest,
        "checks": {"paper_err": err},
        "failed": mismatched + int(err > PAPER_TOL),
        "layer_extra": {},
    }


# -- entry point -------------------------------------------------------------


#: Per-layer metrics some workloads cannot produce; 0 where absent.
LAYER_EXTRA_KEYS = (
    "service.queue_wait_s.p50",
    "service.run_s.p50",
    "service.handoff_s.p50",
    "service.warm_hit_frac",
    "xfer.copy_exposed_frac",
)


def run(workload: str, seed: int, smoke: bool, trace: bool,
        spans_path: str | None = None) -> dict:
    plan = PLANS[workload]["smoke" if smoke else "full"]
    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    h = Harness(tracer)
    miss_setup0 = cache_misses()
    if workload == "service-mix":
        out = run_service(h, seed, plan)
    elif workload == "paper-sweep":
        out = run_sweep(h, seed, plan)
    else:
        out = run_stepping(h, seed, plan, ooc=workload.startswith("ooc"))
    out["attempted"] = planned_ops(workload, smoke)
    job_index = out.pop("job_index", {})
    counters = h.counters
    extra = out.pop("layer_extra")
    if tracer is not None:
        from tracer import layer_metrics

        tracer.restore()
        counters["cache_misses"]["setup"] = (
            cache_misses() - miss_setup0 - counters["cache_misses"]["op"]
        )

        def resolve(op):
            op = job_index.get(op, op)
            if op == "setup":
                return "setup"
            if op == "loop" or isinstance(op, int):
                return "op"
            return str(op)

        layers = layer_metrics(tracer.spans, resolve, out["ops"], counters)
        layers.update({k: float(extra.get(k, 0.0)) for k in LAYER_EXTRA_KEYS})
        out["layers"] = layers
        if spans_path:
            tracer.dump(spans_path, workload, resolve)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args(argv)

    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.smoke, bool(args.trace),
              args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

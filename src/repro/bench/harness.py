"""Benchmark harness: run scenarios, record ``BENCH_<host>.json``.

Every future PR inherits a perf baseline from the JSON reports this
module writes: instructions simulated per second, simulated cycles per
second, trace-recording throughput and engine telemetry, per scenario,
per host, with history. The report format is versioned and validated
(:func:`validate_report`), and updating an existing file appends a run
instead of clobbering the history.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import time
from dataclasses import asdict

from repro.bench.scenarios import BenchScenario, get_suite, sampled_config

#: Bump on any incompatible change to the report layout.
SCHEMA_VERSION = 1

#: Bounded history per file: oldest runs fall off.
MAX_RUNS = 50


# ----------------------------------------------------------------------
# Host identity and file naming
# ----------------------------------------------------------------------
def host_fingerprint() -> dict:
    """Stable description of the measuring host, recorded per report.

    ``REPRO_BENCH_HOST`` overrides the hostname-derived label (CI sets
    it so cached artifacts keep one name across ephemeral runners).
    """
    label = os.environ.get("REPRO_BENCH_HOST") or platform.node() or "unknown"
    return {
        "label": _sanitize(label),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 0,
    }


def _sanitize(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", label).strip("-") or "unknown"


def default_bench_path(root: str = ".") -> str:
    """``BENCH_<host>.json`` in ``root`` for the current host."""
    return os.path.join(root, f"BENCH_{host_fingerprint()['label']}.json")


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, check=False,
        )
        return out.stdout.strip() or None
    except OSError:
        return None


# ----------------------------------------------------------------------
# Scenario execution
# ----------------------------------------------------------------------
def _config_for(core: str):
    from repro.core.config import cortex_a53_public_config, cortex_a72_public_config

    if core == "a53":
        return cortex_a53_public_config()
    if core == "a72":
        return cortex_a72_public_config()
    raise ValueError(f"unknown core {core!r}")


def _workload(name: str):
    from repro.workloads.microbench import MICROBENCHMARKS
    from repro.workloads.spec import SPEC_WORKLOADS

    if name in MICROBENCHMARKS:
        return MICROBENCHMARKS[name]
    if name in SPEC_WORKLOADS:
        return SPEC_WORKLOADS[name]
    raise KeyError(f"unknown workload {name!r}")


def _run_simulate(scn: BenchScenario, repeats: int) -> dict:
    """Steady-state simulator throughput over pre-recorded traces."""
    from repro.simulator import simulate

    if scn.sampled_seeds:
        configs = [sampled_config(scn.core, seed) for seed in scn.sampled_seeds]
    else:
        configs = [_config_for(scn.core)]
    traces = [_workload(n).trace(scale=scn.scale) for n in scn.workloads]
    instructions = len(configs) * sum(len(t) for t in traces)
    # Warm pass: records decode/stream caches and yields the cycle count
    # (identical on every pass — simulation is deterministic).
    cycles = sum(simulate(config, t).cycles for config in configs for t in traces)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for config in configs:
            for trace in traces:
                simulate(config, trace)
        best = min(best, time.perf_counter() - t0)
    return {
        "instructions": instructions,
        "cycles": cycles,
        "wall_seconds": best,
        "instructions_per_second": instructions / best,
        "cycles_per_second": cycles / best,
        "telemetry": None,
    }


def _run_trace(scn: BenchScenario, repeats: int) -> dict:
    """Front-end (interpreter) trace-recording throughput."""
    from repro.frontend.interpreter import trace_program

    workloads = [_workload(n) for n in scn.workloads]
    programs = [w.program(scale=scn.scale) for w in workloads]
    caps = [w.max_instructions for w in workloads]
    instructions = sum(
        len(trace_program(p, max_instructions=c))
        for p, c in zip(programs, caps)
    )
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for program, cap in zip(programs, caps):
            trace_program(program, max_instructions=cap)
        best = min(best, time.perf_counter() - t0)
    return {
        "instructions": instructions,
        "cycles": 0,
        "wall_seconds": best,
        "instructions_per_second": instructions / best,
        "cycles_per_second": 0.0,
        "telemetry": None,
    }


def _run_engine(scn: BenchScenario, repeats: int) -> dict:
    """Batched engine throughput + telemetry over a config grid.

    Submits the grid twice: the first batch simulates every unique
    trial, the second is answered entirely from the engine cache — the
    recorded telemetry shows both.
    """
    import itertools

    from repro.engine import EvaluationEngine

    base = _config_for(scn.core)
    keys = [k for k, _values in scn.grid]
    axes = [values for _k, values in scn.grid]
    configs = [
        base.with_updates(dict(zip(keys, combo)))
        for combo in itertools.product(*axes)
    ]
    workloads = [_workload(n) for n in scn.workloads]
    with EvaluationEngine(workloads=workloads, scale=scn.scale) as engine:
        pairs = [(c, w.name) for c in configs for w in workloads]
        t0 = time.perf_counter()
        stats_list = engine.simulate_batch(pairs)
        wall = time.perf_counter() - t0
        engine.simulate_batch(pairs)  # warm pass: pure cache hits
        telemetry = asdict(engine.telemetry)
    instructions = sum(s.instructions for s in stats_list)
    cycles = sum(s.cycles for s in stats_list)
    return {
        "instructions": instructions,
        "cycles": cycles,
        "wall_seconds": wall,
        "instructions_per_second": instructions / wall,
        "cycles_per_second": cycles / wall,
        "telemetry": telemetry,
    }


def _run_fabric(scn: BenchScenario, repeats: int) -> dict:
    """Distributed-dispatch overhead vs the serial path, per task.

    The grid runs twice over the same (memoised) traces: once through a
    serial engine, once decomposed into fabric tasks on a throwaway
    SQLite queue drained by an in-process worker. The difference,
    divided by the task count, is the fabric's per-task dispatch cost
    (enqueue + lease claim + store write-back + completion + read-back);
    the serial pass doubles as proof the in-process path is untouched.
    Each repeat uses a fresh queue file so no pass is answered from the
    previous pass's store.
    """
    import itertools
    import shutil
    import tempfile

    from repro.engine import EvaluationEngine
    from repro.fabric import FabricWorker, JobQueue, plan_simulations
    from repro.isa.decoder import Decoder
    from repro.store import open_store

    base = _config_for(scn.core)
    keys = [k for k, _values in scn.grid]
    axes = [values for _k, values in scn.grid]
    configs = [
        base.with_updates(dict(zip(keys, combo)))
        for combo in itertools.product(*axes)
    ]
    workloads = [_workload(n) for n in scn.workloads]
    pairs = [(c, w.name) for c in configs for w in workloads]

    # Warm pass: traces record once, shared by both timed paths below.
    with EvaluationEngine(workloads=workloads, scale=scn.scale) as engine:
        stats_list = engine.simulate_batch(pairs)
    instructions = sum(s.instructions for s in stats_list)
    cycles = sum(s.cycles for s in stats_list)

    best_serial = best_fabric = float("inf")
    tmp = tempfile.mkdtemp(prefix="repro-bench-fabric-")
    try:
        for rep in range(repeats):
            with EvaluationEngine(workloads=workloads, scale=scn.scale) as engine:
                t0 = time.perf_counter()
                engine.simulate_batch(pairs)
                best_serial = min(best_serial, time.perf_counter() - t0)

            path = os.path.join(tmp, f"pass{rep}.sqlite")
            decoder = Decoder()
            items = [(config, name, scn.scale, {}, decoder)
                     for config, name in pairs]
            t0 = time.perf_counter()
            plan = plan_simulations(items)
            with JobQueue(path) as queue:
                queue.enqueue(plan.tasks, submitted_by="bench")
            FabricWorker(path, drain=True, poll=0.01, lease=60.0).run()
            with open_store(path) as store:
                for key in plan.keys:
                    assert store.get_sim(key) is not None
            best_fabric = min(best_fabric, time.perf_counter() - t0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    n_tasks = len(pairs)
    overhead_ms = max(0.0, best_fabric - best_serial) / n_tasks * 1e3
    return {
        "instructions": instructions,
        "cycles": cycles,
        "wall_seconds": best_fabric,
        "instructions_per_second": instructions / best_fabric,
        "cycles_per_second": cycles / best_fabric,
        "telemetry": {
            "tasks": n_tasks,
            "serial_wall_seconds": best_serial,
            "fabric_wall_seconds": best_fabric,
            "dispatch_overhead_ms_per_task": overhead_ms,
        },
    }


def _run_service(scn: BenchScenario, repeats: int) -> dict:
    """HTTP-dispatch overhead vs the serial path, per task.

    The fabric measurement (:func:`_run_fabric`) with the wire in the
    loop: queue *and* store sit behind an in-process experiment service
    (``repro serve``'s machinery on a loopback socket), the worker and
    the read-back both speak HTTP. Reported next to the local fabric
    scenario, the delta in ``dispatch_overhead_ms_per_task`` is what
    one task costs in request round-trips (claim, heartbeat, store
    write-back, completion) — the price of dropping the shared-
    filesystem requirement.
    """
    import itertools
    import shutil
    import tempfile

    from repro.engine import EvaluationEngine
    from repro.fabric import FabricWorker, plan_simulations
    from repro.isa.decoder import Decoder
    from repro.service.client import HttpQueue
    from repro.service.server import ExperimentService
    from repro.store import open_store

    base = _config_for(scn.core)
    keys = [k for k, _values in scn.grid]
    axes = [values for _k, values in scn.grid]
    configs = [
        base.with_updates(dict(zip(keys, combo)))
        for combo in itertools.product(*axes)
    ]
    workloads = [_workload(n) for n in scn.workloads]
    pairs = [(c, w.name) for c in configs for w in workloads]

    with EvaluationEngine(workloads=workloads, scale=scn.scale) as engine:
        stats_list = engine.simulate_batch(pairs)
    instructions = sum(s.instructions for s in stats_list)
    cycles = sum(s.cycles for s in stats_list)

    token = "bench-service-token"
    best_serial = best_service = float("inf")
    tmp = tempfile.mkdtemp(prefix="repro-bench-service-")
    try:
        for rep in range(repeats):
            with EvaluationEngine(workloads=workloads, scale=scn.scale) as engine:
                t0 = time.perf_counter()
                engine.simulate_batch(pairs)
                best_serial = min(best_serial, time.perf_counter() - t0)

            path = os.path.join(tmp, f"pass{rep}.sqlite")
            decoder = Decoder()
            items = [(config, name, scn.scale, {}, decoder)
                     for config, name in pairs]
            service = ExperimentService(path, token=token, port=0).start()
            try:
                t0 = time.perf_counter()
                plan = plan_simulations(items)
                with HttpQueue(service.url, token=token) as queue:
                    queue.enqueue(plan.tasks, submitted_by="bench")
                FabricWorker(service.url, drain=True, poll=0.01, lease=60.0,
                             token=token).run()
                with open_store(service.url, token=token) as store:
                    for key in plan.keys:
                        assert store.get_sim(key) is not None
                best_service = min(best_service, time.perf_counter() - t0)
            finally:
                service.stop()
                service.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    n_tasks = len(pairs)
    overhead_ms = max(0.0, best_service - best_serial) / n_tasks * 1e3
    return {
        "instructions": instructions,
        "cycles": cycles,
        "wall_seconds": best_service,
        "instructions_per_second": instructions / best_service,
        "cycles_per_second": cycles / best_service,
        "telemetry": {
            "tasks": n_tasks,
            "serial_wall_seconds": best_serial,
            "service_wall_seconds": best_service,
            "dispatch_overhead_ms_per_task": overhead_ms,
        },
    }


def _run_dispatch(scn: BenchScenario, repeats: int) -> dict:
    """Dispatch overhead per task, both transports, one scenario.

    The ``fabric`` and ``service`` scenarios each compare one transport
    against the serial path; this scenario times *both* against one
    shared serial baseline so the pair of per-task figures in its
    telemetry — ``sqlite_overhead_ms_per_task`` and
    ``http_overhead_ms_per_task`` — is measured on the same pass over
    the same warm traces. It exists to track the wire-speed work
    (batched claim/complete, long-poll, keep-alive connections,
    compressed payloads, worker pipelining) as one number per
    transport.
    """
    import itertools
    import shutil
    import tempfile

    from repro.engine import EvaluationEngine
    from repro.fabric import FabricWorker, JobQueue, plan_simulations
    from repro.isa.decoder import Decoder
    from repro.service.client import HttpQueue
    from repro.service.server import ExperimentService
    from repro.store import open_store

    base = _config_for(scn.core)
    keys = [k for k, _values in scn.grid]
    axes = [values for _k, values in scn.grid]
    configs = [
        base.with_updates(dict(zip(keys, combo)))
        for combo in itertools.product(*axes)
    ]
    workloads = [_workload(n) for n in scn.workloads]
    pairs = [(c, w.name) for c in configs for w in workloads]

    # Warm pass: traces record once, shared by every timed path below.
    with EvaluationEngine(workloads=workloads, scale=scn.scale) as engine:
        stats_list = engine.simulate_batch(pairs)
    instructions = sum(s.instructions for s in stats_list)
    cycles = sum(s.cycles for s in stats_list)

    token = "bench-dispatch-token"
    best_serial = best_sqlite = best_http = float("inf")
    tmp = tempfile.mkdtemp(prefix="repro-bench-dispatch-")

    def reset(path):
        # Fresh queue/store every pass, but a *stable* path so the
        # workers' per-host trace cache (``<store>.traces/``, keyed by
        # store spec) stays warm across passes — matching a steady-state
        # fleet, where trace blobs persist on each host by design.
        for suffix in ("", "-wal", "-shm"):
            try:
                os.remove(path + suffix)
            except OSError:
                pass

    try:
        http_port = 0
        for rep in range(repeats):
            with EvaluationEngine(workloads=workloads, scale=scn.scale) as engine:
                t0 = time.perf_counter()
                engine.simulate_batch(pairs)
                best_serial = min(best_serial, time.perf_counter() - t0)

            decoder = Decoder()
            items = [(config, name, scn.scale, {}, decoder)
                     for config, name in pairs]

            path = os.path.join(tmp, "sqlite-pass.sqlite")
            reset(path)
            # Schema setup happens outside the timed region on both
            # transports (the service builds its tables at start);
            # the timer covers plan → enqueue → drain → readback.
            with JobQueue(path) as queue:
                t0 = time.perf_counter()
                plan = plan_simulations(items)
                queue.enqueue(plan.tasks, submitted_by="bench")
            FabricWorker(path, drain=True, poll=0.01, lease=60.0).run()
            with open_store(path) as store:
                assert all(s is not None for s in store.get_sims(plan.keys))
            best_sqlite = min(best_sqlite, time.perf_counter() - t0)

            path = os.path.join(tmp, "http-pass.sqlite")
            reset(path)
            service = ExperimentService(path, token=token, port=http_port).start()
            http_port = service.port  # keep the URL (= trace dir) stable
            try:
                t0 = time.perf_counter()
                plan = plan_simulations(items)
                with HttpQueue(service.url, token=token) as queue:
                    queue.enqueue(plan.tasks, submitted_by="bench")
                FabricWorker(service.url, drain=True, poll=0.01, lease=60.0,
                             token=token).run()
                with open_store(service.url, token=token) as store:
                    assert all(
                        s is not None for s in store.get_sims(plan.keys))
                best_http = min(best_http, time.perf_counter() - t0)
            finally:
                service.stop()
                service.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    n_tasks = len(pairs)
    sqlite_ms = max(0.0, best_sqlite - best_serial) / n_tasks * 1e3
    http_ms = max(0.0, best_http - best_serial) / n_tasks * 1e3
    return {
        "instructions": instructions,
        "cycles": cycles,
        "wall_seconds": best_http,
        "instructions_per_second": instructions / best_http,
        "cycles_per_second": cycles / best_http,
        "telemetry": {
            "tasks": n_tasks,
            "serial_wall_seconds": best_serial,
            "sqlite_wall_seconds": best_sqlite,
            "http_wall_seconds": best_http,
            "sqlite_overhead_ms_per_task": sqlite_ms,
            "http_overhead_ms_per_task": http_ms,
        },
    }


def _run_race(scn: BenchScenario, repeats: int) -> dict:
    """Async-race fleet saturation on a speed-skewed two-worker fabric.

    The same engine-backed race (grid candidates x workload instances,
    no elimination so both modes do identical committed work) runs
    twice against a fresh SQLite fabric drained by two in-process
    workers, one fast and one slowed by a fixed per-task delay:

    - ``sync`` — the per-step barrier: the fast worker drains its share
      of each step, then idles until the slow worker releases the
      frontier;
    - ``async`` — speculative lookahead keeps future steps enqueued, so
      the fast worker always has work.

    The telemetry reports each mode's busy-worker fraction (summed
    task-holding seconds over ``wall x workers``) and the saturation
    gain — the headline of the asynchronous racing PR. The decision
    records of both modes are asserted identical: saturation is free.
    """
    import itertools
    import shutil
    import tempfile
    import threading

    from repro.engine import EvaluationEngine, TrialCache
    from repro.engine.evaluator import AssignmentEvaluator
    from repro.engine.executors import FabricExecutor
    from repro.fabric import FabricWorker
    from repro.hardware.board import FireflyRK3399
    from repro.store import open_store
    from repro.tuning.race import race

    class SkewedWorker(FabricWorker):
        """A fabric worker slowed by a fixed per-task delay, recording
        the wall seconds it spends holding tasks."""

        def __init__(self, store_path, delay, **kwargs):
            super().__init__(store_path, **kwargs)
            self.delay = delay
            self.busy_seconds = 0.0

        def _execute(self, task):
            """Delay, then run the task; accumulate busy wall time."""
            t0 = time.perf_counter()
            time.sleep(self.delay)
            super()._execute(task)
            self.busy_seconds += time.perf_counter() - t0

    base = _config_for(scn.core)
    keys = [k for k, _values in scn.grid]
    axes = [values for _k, values in scn.grid]
    candidates = [dict(zip(keys, combo))
                  for combo in itertools.product(*axes)]
    instances = list(scn.workloads)
    workloads = [_workload(n) for n in instances]
    hw = FireflyRK3399().core(scn.core)
    delays = (0.04, 0.4)  # fast vs slow worker, seconds per task
    lookahead = 6

    # Warm the shared trace memos once so neither mode pays recording.
    with EvaluationEngine(workloads=workloads, scale=scn.scale) as engine:
        stats_list = engine.simulate_batch(
            [(base, w.name) for w in workloads])
    instructions = sum(s.instructions for s in stats_list) * len(candidates)
    cycles = sum(s.cycles for s in stats_list) * len(candidates)

    tmp = tempfile.mkdtemp(prefix="repro-bench-race-")
    measures = {}
    records = {}
    try:
        for rep in range(repeats):
            for mode in ("sync", "async"):
                path = os.path.join(tmp, f"{mode}{rep}.sqlite")
                store = open_store(path)
                engine = EvaluationEngine(
                    hw=hw, workloads=workloads, scale=scn.scale,
                    store=store,
                    executor=FabricExecutor(store, poll=0.005))
                workers = [SkewedWorker(path, delay, poll=0.005, lease=30.0)
                           for delay in delays]
                threads = [threading.Thread(target=w.run, daemon=True)
                           for w in workers]
                for thread in threads:
                    thread.start()
                try:
                    cache = TrialCache(AssignmentEvaluator(engine, base))
                    t0 = time.perf_counter()
                    result = race(
                        candidates, instances, cache,
                        batch_evaluate=cache.evaluate_batch,
                        first_test=len(instances) + 1,  # no elimination
                        mode=mode, lookahead=lookahead, timeout=600,
                    )
                    wall = time.perf_counter() - t0
                finally:
                    for worker in workers:
                        worker.stop()
                    for thread in threads:
                        thread.join(timeout=60)
                    engine.close()
                    store.close()
                busy = sum(w.busy_seconds for w in workers)
                fraction = busy / (wall * len(workers))
                prev = measures.get(mode)
                if prev is None or wall < prev["wall"]:
                    measures[mode] = {"wall": wall, "busy_fraction": fraction}
                records[mode] = result.decision_record()
        if records["async"] != records["sync"]:
            raise RuntimeError("race bench: async decisions diverged from sync")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    sync_m, async_m = measures["sync"], measures["async"]
    return {
        "instructions": instructions,
        "cycles": cycles,
        "wall_seconds": async_m["wall"],
        "instructions_per_second": instructions / async_m["wall"],
        "cycles_per_second": cycles / async_m["wall"],
        "telemetry": {
            "candidates": len(candidates),
            "instances": len(instances),
            "tasks": len(candidates) * len(instances),
            "workers": len(delays),
            "worker_delays_seconds": list(delays),
            "lookahead": lookahead,
            "sync_wall_seconds": sync_m["wall"],
            "async_wall_seconds": async_m["wall"],
            "sync_busy_fraction": sync_m["busy_fraction"],
            "async_busy_fraction": async_m["busy_fraction"],
            "saturation_gain":
                async_m["busy_fraction"] / sync_m["busy_fraction"],
            "wall_speedup": sync_m["wall"] / async_m["wall"],
        },
    }


def _fresh_trace(wl, scale: float):
    """Record a trace from scratch — the cold path independent workers pay.

    Bypasses the workload's trace memo on purpose: these scenarios
    measure what re-recording costs, so a warm cache would be the wrong
    baseline.
    """
    from repro.frontend.interpreter import trace_program

    program = wl.program(scale=scale)
    trace = trace_program(program, iterations=1,
                          max_instructions=wl.max_instructions)
    trace.name = wl.name
    return trace


def _run_batch(scn: BenchScenario, repeats: int) -> dict:
    """Race-step fusion: K candidates, one instance, one shared stream.

    Three measured variants of the same K-candidate x instance block:

    - *isolated* — K serial passes, each re-recording and re-flattening
      the trace (what K independent workers pay);
    - *warm serial* — K ``SnipeSim.run`` passes over one memoised trace
      (the best the unbatched in-process path can do);
    - *batched* — one fresh recording, then ``simulate_batch`` runs all
      K cores over the one issue stream built from it.

    The headline number is the batched variant's *effective*
    per-candidate throughput (K x instructions / wall); the telemetry
    records all three walls and the two speedups.
    """
    import itertools

    from repro.isa.decoder import Decoder
    from repro.simulator import SnipeSim, simulate_batch

    base = _config_for(scn.core)
    keys = [k for k, _values in scn.grid]
    axes = [values for _k, values in scn.grid]
    configs = [
        base.with_updates(dict(zip(keys, combo)))
        for combo in itertools.product(*axes)
    ]
    k = len(configs)
    workloads = [_workload(n) for n in scn.workloads]
    decoder = Decoder()
    warm_traces = [wl.trace(scale=scn.scale) for wl in workloads]
    instructions_per_pass = sum(len(t) for t in warm_traces)

    best_isolated = best_warm = best_batched = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for wl in workloads:
            for config in configs:
                SnipeSim(config, decoder=decoder).run(_fresh_trace(wl, scn.scale))
        best_isolated = min(best_isolated, time.perf_counter() - t0)

        t0 = time.perf_counter()
        for trace in warm_traces:
            for config in configs:
                SnipeSim(config, decoder=decoder).run(trace)
        best_warm = min(best_warm, time.perf_counter() - t0)

        t0 = time.perf_counter()
        for wl in workloads:
            simulate_batch(_fresh_trace(wl, scn.scale), configs, decoder=decoder)
        best_batched = min(best_batched, time.perf_counter() - t0)

    effective = k * instructions_per_pass
    return {
        "instructions": effective,
        "cycles": 0,
        "wall_seconds": best_batched,
        "instructions_per_second": effective / best_batched,
        "cycles_per_second": 0.0,
        "telemetry": {
            "candidates": k,
            "isolated_wall_seconds": best_isolated,
            "warm_serial_wall_seconds": best_warm,
            "batched_wall_seconds": best_batched,
            "speedup_vs_isolated": best_isolated / best_batched,
            "speedup_vs_warm_serial": best_warm / best_batched,
        },
    }


def _run_mmap(scn: BenchScenario, repeats: int) -> dict:
    """Columnar blob attach cost vs the record-and-persist cold path.

    The build phase (cold workload copies, so recording is really paid)
    is what the *first* worker on a host does: record, columnarise,
    persist. Each timed attach pass then plays the *second* worker: a
    fresh :class:`~repro.engine.tracestore.TraceStore` over the same
    cache directory memory-maps every blob and materialises the first
    tuple to prove the mapping is live. Throughput is attach-side.
    """
    import copy
    import shutil
    import tempfile

    from repro.engine.tracestore import TraceStore
    from repro.isa.decoder import Decoder

    workloads = [_workload(n) for n in scn.workloads]
    decoder = Decoder()
    tmp = tempfile.mkdtemp(prefix="repro-bench-mmap-")
    try:
        # Cold copies: the suite's earlier scenarios warm the shared
        # workload trace memos, which would understate the build cost.
        cold = []
        for wl in workloads:
            c = copy.copy(wl)
            c._trace_cache = {}
            cold.append(c)
        t0 = time.perf_counter()
        first = TraceStore(cold, scale=scn.scale, cache_dir=tmp)
        built = [first.columns(wl.name, decoder) for wl in cold]
        build_wall = time.perf_counter() - t0
        instructions = sum(len(c) for c in built)

        best_attach = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            attacher = TraceStore(workloads, scale=scn.scale, cache_dir=tmp)
            attached = [attacher.columns(wl.name, decoder) for wl in workloads]
            for cols in attached:
                cols.tuples(0, 1)
            best_attach = min(best_attach, time.perf_counter() - t0)
            if attacher.column_attaches != len(workloads):
                raise RuntimeError("mmap scenario rebuilt instead of attaching")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    return {
        "instructions": instructions,
        "cycles": 0,
        "wall_seconds": best_attach,
        "instructions_per_second": instructions / best_attach,
        "cycles_per_second": 0.0,
        "telemetry": {
            "blobs": len(workloads),
            "build_persist_wall_seconds": build_wall,
            "attach_wall_seconds": best_attach,
            "attach_speedup": build_wall / best_attach,
        },
    }


_RUNNERS = {"simulate": _run_simulate, "trace": _run_trace,
            "engine": _run_engine, "fabric": _run_fabric,
            "service": _run_service, "dispatch": _run_dispatch,
            "batch": _run_batch, "mmap": _run_mmap,
            "race": _run_race}


def run_scenario(scn: BenchScenario, repeats: int = None) -> dict:
    """Execute one scenario; returns its report record."""
    runner = _RUNNERS.get(scn.kind)
    if runner is None:
        raise ValueError(f"unknown scenario kind {scn.kind!r}")
    reps = max(1, repeats if repeats is not None else scn.repeats)
    record = runner(scn, reps)
    record.update(
        name=scn.name,
        kind=scn.kind,
        core=scn.core if scn.kind != "trace" else None,
        workloads=len(scn.workloads),
        repeats=reps,
        scale=scn.scale,
    )
    return record


def run_suite(suite: str = "full", repeats: int = None, progress=None) -> dict:
    """Run a named suite; returns the report *run entry* (one per call).

    ``progress`` is an optional ``callable(str)`` invoked per scenario.
    """
    scenarios = get_suite(suite)
    results = []
    for scn in scenarios:
        if progress is not None:
            progress(f"bench: {scn.name} ({scn.kind}, {len(scn.workloads)} workloads)")
        results.append(run_scenario(scn, repeats=repeats))
    sim_records = [r for r in results if r["kind"] == "simulate"]
    total_instr = sum(r["instructions"] for r in sim_records)
    total_wall = sum(r["wall_seconds"] for r in sim_records)
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "suite": suite,
        "git": _git_describe(),
        "scenarios": results,
        "totals": {
            "simulate_instructions": total_instr,
            "simulate_wall_seconds": total_wall,
            "simulate_instructions_per_second":
                total_instr / total_wall if total_wall else 0.0,
        },
    }


# ----------------------------------------------------------------------
# Report files
# ----------------------------------------------------------------------
def validate_report(report) -> None:
    """Schema check for a ``BENCH_*.json`` payload; raises ``ValueError``.

    Used by the tests and the CI smoke job so that a malformed report
    fails loudly instead of silently breaking the perf history.
    """
    def need(cond, msg):
        if not cond:
            raise ValueError(f"invalid bench report: {msg}")

    need(isinstance(report, dict), "not an object")
    need(report.get("schema_version") == SCHEMA_VERSION,
         f"schema_version != {SCHEMA_VERSION}")
    host = report.get("host")
    need(isinstance(host, dict), "missing host")
    for key in ("label", "machine", "platform", "python", "cpu_count"):
        need(key in host, f"host.{key} missing")
    runs = report.get("runs")
    need(isinstance(runs, list) and runs, "runs missing or empty")
    for run in runs:
        need(isinstance(run.get("timestamp"), str), "run.timestamp missing")
        need(run.get("suite") in ("full", "quick"), "run.suite invalid")
        need(isinstance(run.get("scenarios"), list) and run["scenarios"],
             "run.scenarios missing or empty")
        for scn in run["scenarios"]:
            for key in ("name", "kind", "workloads", "repeats", "instructions",
                        "cycles", "wall_seconds", "instructions_per_second",
                        "cycles_per_second"):
                need(key in scn, f"scenario.{key} missing")
            need(scn["kind"] in ("simulate", "trace", "engine", "fabric",
                                 "service", "dispatch", "batch", "mmap",
                                 "race"),
                 f"scenario kind {scn['kind']!r} invalid")
            need(scn["wall_seconds"] > 0, "non-positive wall_seconds")
            need(scn["instructions"] > 0, "non-positive instructions")
        totals = run.get("totals")
        need(isinstance(totals, dict), "run.totals missing")
        need("simulate_instructions_per_second" in totals,
             "totals.simulate_instructions_per_second missing")


def load_report(path: str) -> dict:
    """Read and validate an existing report file."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    validate_report(report)
    return report


def update_report_file(path: str, run_entry: dict) -> dict:
    """Append ``run_entry`` to the report at ``path`` (creating it).

    An existing valid report keeps its history (bounded at
    :data:`MAX_RUNS`); an existing *invalid* file raises instead of
    being clobbered.
    """
    if os.path.exists(path):
        report = load_report(path)
        report["host"] = host_fingerprint()
    else:
        report = {
            "schema_version": SCHEMA_VERSION,
            "host": host_fingerprint(),
            "runs": [],
        }
    report["runs"].append(run_entry)
    report["runs"] = report["runs"][-MAX_RUNS:]
    validate_report(report)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return report


def run_bench(suite: str = "full", repeats: int = None, out: str = None,
              progress=None) -> tuple:
    """Run a suite and record it; returns ``(report, run_entry, path)``."""
    run_entry = run_suite(suite, repeats=repeats, progress=progress)
    path = out if out else default_bench_path()
    report = update_report_file(path, run_entry)
    return report, run_entry, path


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------
#: Default relative throughput loss tolerated before a scenario counts
#: as regressed (``repro bench --compare``'s gate).
DEFAULT_MAX_REGRESSION = 0.15


def _normalize_scenario_name(name: str) -> str:
    """Fold quick-suite variants onto their full-suite counterparts."""
    return name[:-len("-quick")] if name.endswith("-quick") else name


def compare_runs(baseline_run: dict, run_entry: dict,
                 max_regression: float = DEFAULT_MAX_REGRESSION) -> tuple:
    """Diff per-scenario throughput of ``run_entry`` against a baseline.

    Scenarios are matched by name with the ``-quick`` suffix stripped,
    so a CI quick run compares against a committed full-suite baseline.
    A scenario *regresses* when its instructions-per-second falls more
    than ``max_regression`` (relative) below the baseline's. Returns
    ``(rows, regressions)``: every matched scenario as a comparison
    dict, and the regressed subset. Scenarios present on only one side
    are skipped — a renamed or new scenario is not a regression.
    """
    base_by_name = {
        _normalize_scenario_name(s["name"]): s
        for s in baseline_run["scenarios"]
    }
    rows, regressions = [], []
    for scn in run_entry["scenarios"]:
        base = base_by_name.get(_normalize_scenario_name(scn["name"]))
        if base is None:
            continue
        baseline_ips = base["instructions_per_second"]
        current_ips = scn["instructions_per_second"]
        ratio = current_ips / baseline_ips if baseline_ips else float("inf")
        row = {
            "name": _normalize_scenario_name(scn["name"]),
            "baseline_instructions_per_second": baseline_ips,
            "current_instructions_per_second": current_ips,
            "ratio": ratio,
            "regressed": ratio < 1.0 - max_regression,
        }
        rows.append(row)
        if row["regressed"]:
            regressions.append(row)
    return rows, regressions

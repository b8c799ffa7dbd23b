"""Benchmark harness: run scenarios, record ``BENCH_<host>.json``.

Every future PR inherits a perf baseline from the JSON reports this
module writes: instructions simulated per second, simulated cycles per
second, trace-recording throughput, batch-fusion and trace-attach
telemetry, per scenario, per host, with history. The report format is
versioned and validated (:func:`validate_report`), and updating an
existing file appends a run instead of clobbering the history.
"""

from __future__ import annotations

import json
import os
import platform
import re
import time

from repro.bench.scenarios import BenchScenario, get_suite, sampled_config
from repro.store.registry import git_describe

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
            "batch": _run_batch, "mmap": _run_mmap}

#: Kinds earlier versions recorded. Their runs stay valid history in
#: report files, but they no longer run: ``campaignbench/``'s
#: ``campaign-fleet`` and ``sweep-http`` workloads measure those layers
#: end to end.
RETIRED_KINDS = ("engine", "fabric", "service", "dispatch", "race")


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
        "git": git_describe(),
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
            need(scn["kind"] in _RUNNERS or scn["kind"] in RETIRED_KINDS,
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
    than ``max_regression`` (relative) below the baseline's. That rate
    is each kind's headline: simulator or recording throughput for
    ``simulate``/``trace``, effective per-candidate throughput for
    ``batch`` and attach-side throughput for ``mmap``. Returns
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

"""Which ``repro`` entry points the traced run wraps, and the per-layer
metrics computed from the spans they record.

Every wrapped entry point is public: a module function or a method of
a class the package exports. Layers follow ``src/repro``'s modules;
``executor`` is the part of ``engine`` that waits on an executor and is
reported as ``engine.executor_wait_s``. The simulator's own modules
(``core``, ``memory``, ``branch``) run inside ``simulator`` spans:
wrapping their per-instruction functions would cost more than they do.
"""

from __future__ import annotations

import glob
import importlib
import json
import os
import statistics

from spans import span_wrapper

# ---------------------------------------------------------------------------
# Extractors: pull the one value a span needs from a call.
# ---------------------------------------------------------------------------


def _stage(args, kwargs, result):
    return kwargs.get("stage", args[2] if len(args) > 2 else None)


def _sim_batch(args, kwargs, result):
    return {"n": len(result), "instr": sum(s.instructions for s in result)}


def _sim_one(args, kwargs, result):
    return {"n": 1, "instr": result.instructions}


def _enqueued(args, kwargs, result):
    return [task[0] for task in args[1]]


def _claimed(args, kwargs, result):
    if result is None:
        tasks = []
    elif isinstance(result, tuple):   # claim_many_prechecked: (tasks, rows)
        tasks = result[0]
    elif isinstance(result, list):
        tasks = result
    else:
        tasks = [result]
    return {"worker": args[1], "keys": [task.key for task in tasks]}


def _outstanding(args, kwargs, result):
    return sorted(result.outstanding)


def _endpoint(args, kwargs, result):
    return args[2]


_QUEUE = ["enqueue", "requeue_dead", "cancel", "claim", "claim_many",
          "heartbeat", "complete", "complete_many", "release", "fail",
          "register_worker", "worker_beat", "workers", "states", "counts",
          "retries", "dead", "errors", "purge_done"]
_CLAIMS = {"claim", "claim_many", "claim_many_prechecked"}
_COMPLETES = {"complete", "complete_many", "complete_many_with_results"}
_BATCH = ["evaluate_batch", "submit_batch", "poll_batch", "cancel_batch"]

#: (module, class or None, attributes, layer, extractors by attribute)
TARGETS = [
    ("repro.validation.campaign", "ValidationCampaign",
     ["run", "step2_lmbench", "step4_tune", "component_round", "evaluate",
      "step5_inspect", "apply_fixes"], "validation", {"step4_tune": _stage}),
    ("repro.tuning.irace", "IraceTuner", ["run"], "tuning", {}),
    ("repro.tuning.race", None, ["race"], "tuning", {}),
    ("repro.engine.engine", "EvaluationEngine",
     ["simulate", "simulate_batch", "submit_batch", "poll_batch",
      "cancel_batch", "evaluate", "evaluate_batch", "measure_hw", "cost_of"],
     "engine", {}),
    ("repro.engine.evaluator", "TrialCache", ["__call__", *_BATCH], "engine", {}),
    ("repro.engine.evaluator", "AssignmentEvaluator", ["__call__", *_BATCH],
     "engine", {}),
    ("repro.engine.tracestore", "TraceStore", ["get", "columns"], "engine", {}),
    ("repro.engine.executors", "SerialExecutor", ["run", "submit", "poll"],
     "executor", {}),
    ("repro.engine.executors", "ProcessExecutor",
     ["run", "submit", "poll", "cancel", "close"], "executor", {}),
    ("repro.engine.executors", "FabricExecutor",
     ["run", "submit", "poll", "cancel", "close"], "executor",
     {"submit": _outstanding}),
    ("repro.hardware.board", "HardwareCore", ["measure"], "hardware", {}),
    ("repro.hardware.lmbench", None, ["lat_mem_rd"], "hardware", {}),
    ("repro.simulator.simulator", None, ["simulate", "simulate_batch"],
     "simulator", {"simulate": _sim_one, "simulate_batch": _sim_batch}),
    ("repro.simulator.simulator", "SnipeSim", ["run"], "simulator",
     {"run": _sim_one}),
    ("repro.trace.record", "Trace", ["stream_with", "columns_with"], "trace", {}),
    ("repro.trace.columnar", "ColumnarTrace", ["build", "to_blob", "from_blob"],
     "trace", {}),
    # Recording a workload: build its program, then interpret it.
    ("repro.workloads.base", "Workload", ["trace"], "frontend", {}),
    ("repro.frontend.interpreter", None, ["trace_program"], "frontend", {}),
    ("repro.store.resultstore", "ResultStore",
     ["get_sim", "get_sims", "put_sim", "put_sim_many", "get_hw", "put_hw",
      "get_cost", "put_cost_many", "put_checkpoint", "get_checkpoint"],
     "store", {}),
    ("repro.fabric.queue", "JobQueue", _QUEUE, "fabric",
     {"enqueue": _enqueued, **{name: _claimed for name in _CLAIMS}}),
    ("repro.service.client", "HttpQueue",
     [*_QUEUE, "claim_many_prechecked", "complete_many_with_results"], "fabric",
     {"enqueue": _enqueued, **{name: _claimed for name in _CLAIMS}}),
    ("repro.fabric.scheduler", None, ["plan_groups", "plan_simulations"],
     "fabric", {}),
    # Its own layer, so the claims inside it count as outermost fabric calls.
    ("repro.fabric.worker", "FabricWorker", ["run"], "worker", {}),
    ("repro.service.client", "ServiceClient", ["call"], "service",
     {"call": _endpoint}),
]

#: Layers of the main thread's timeline, in report order.
LAYERS = ["validation", "tuning", "engine", "executor", "hardware",
          "simulator", "trace", "frontend", "store", "fabric", "service"]


_LOCAL, _FLEET, _SWEEP = "campaign-local", "campaign-fleet", "sweep-http"

#: Which end-to-end metric each per-layer metric should move, and on
#: which workload — written down before measuring, printed beside each
#: value by traced runs, so a change can name the layer it moved.
MOVES = {
    "frontend.record_s": "setup_s on all workloads",
    "trace.columns_s": f"setup_s on all workloads; wall_s on {_FLEET} (workers attach per host)",
    "trace.attaches": f"setup_s on all workloads; wall_s on {_FLEET}",
    "trace.persists": f"setup_s on all workloads; wall_s on {_FLEET}",
    "simulator.busy_s": f"wall_s, trials_per_s on {_LOCAL}; little on {_SWEEP}",
    "simulator.kinstr_per_s": f"wall_s, trials_per_s on {_LOCAL}; little on {_SWEEP}",
    "simulator.calls": f"wall_s, trials_per_s on {_LOCAL}; little on {_SWEEP}",
    "simulator.configs_per_pass": f"wall_s, trials_per_s on {_LOCAL}; little on {_SWEEP}",
    "hardware.busy_s": f"wall_s on {_LOCAL} and {_FLEET}",
    "hardware.measurements": f"wall_s on {_LOCAL} and {_FLEET}",
    "validation.lmbench_s": f"wall_s on {_LOCAL} and {_FLEET}",
    "validation.stage1_s": f"wall_s on {_LOCAL} and {_FLEET}",
    "validation.stage2_s": f"wall_s on {_LOCAL} and {_FLEET}",
    "validation.evaluate_s": f"wall_s on {_LOCAL} and {_FLEET}",
    "engine.requested": f"trials_per_s on {_LOCAL} and {_SWEEP}",
    "engine.unique": f"trials_per_s on {_LOCAL} and {_SWEEP}",
    "engine.hit_frac": f"trials_per_s on {_LOCAL} and {_SWEEP}",
    "engine.store_hits": f"trials_per_s on {_LOCAL} and {_SWEEP}",
    "engine.batched_trials": f"trials_per_s on {_LOCAL} and {_SWEEP}",
    "engine.self_s": f"trials_per_s on {_LOCAL} and {_SWEEP}",
    "engine.executor_wait_s": f"latency_p90_ms on {_FLEET}",
    "tuning.self_s": f"wall_s, latency_p90_ms on {_FLEET}; wall_s on {_LOCAL}",
    "tuning.steps": f"wall_s, latency_p90_ms on {_FLEET}",
    "tuning.wasted_evals": f"wall_s, latency_p90_ms on {_FLEET}",
    "tuning.useful_frac": f"wall_s, latency_p90_ms on {_FLEET}",
    **{f"fabric.{name}": (f"latency_p90_ms, wall_s on {_FLEET}; "
                          f"trials_per_s on {_SWEEP}")
       for name in ("enqueue_s", "claim_calls", "tasks_per_claim", "claim_ms_p50",
                    "complete_calls", "worker_busy_frac", "lease_share_max",
                    "retried", "dead", "queue_wait_ms_p50")},
    **{f"store.{name}": f"trials_per_s, setup_s on {_SWEEP}"
       for name in ("get_calls", "get_s", "put_calls", "put_s")},
    **{f"service.{name}": f"trials_per_s on {_SWEEP}; none on the other two"
       for name in ("requests_per_task", "bytes_per_task", "compressed_frac",
                    "retries", "rtt_ms_p50", "server_busy_s")},
    **{f"{layer}.self_s": "wall_s of the workload (share of the main thread's timeline)"
       for layer in ("validation", "hardware", "simulator", "trace", "frontend",
                     "store", "fabric", "service")},
    "bench.traced_wall_s": "the layer self times plus unattributed_s add up to it",
    "bench.unattributed_s": "wall_s: main-thread time no wrapped entry point covers",
    "bench.untraced_wall_s": "wall_s of the same rounds with tracing off",
    "bench.overhead_s": "none: tracing cost, traced minus untraced wall",
    "bench.overhead_frac": "none: tracing cost as a share of the untraced wall",
    "host.calibration_start_ms": "none: host-drift label, not code",
    "host.calibration_end_ms": "none: host-drift label, not code",
    "tuned_error_pct": f"none of the timings; tuning quality on {_LOCAL} and {_FLEET}",
    "heldout_error_pct": f"none of the timings; tuning quality on {_LOCAL} and {_FLEET}",
}


def install_tracing(recorder, patches) -> None:
    """Wrap every entry point in :data:`TARGETS` with a span."""
    for module_name, class_name, attrs, layer, extract in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        prefix = f"{class_name}." if class_name else ""
        for attr in attrs:
            patches.wrap(owner, attr, span_wrapper(
                recorder, layer, prefix + attr, extract.get(attr)))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def load_dumps(trace_dir: str) -> list:
    """Every process's span dump in ``trace_dir``."""
    dumps = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            dumps.append(json.load(fh))
    return dumps


def _spans(dumps, server=None):
    """``(dump, thread, span)`` triples; ``server`` filters on whether the
    thread is an HTTP request handler of the in-process service."""
    for dump in dumps:
        for thread, spans in dump["threads"]:
            is_server = "process_request_thread" in thread
            if server is not None and is_server != server:
                continue
            for span in spans:
                yield dump, thread, span


def _dur(span) -> float:
    return (span[3] - span[2]) / 1e9


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _short(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def timeline_attribution(dumps, main_pid: int, windows: list) -> dict:
    """Self seconds per layer on the benchmark's main thread, inside the
    timed windows (so that they plus the remainder make up the wall)."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    for dump, thread, span in _spans(dumps):
        if dump["pid"] != main_pid or thread != "MainThread":
            continue
        if not any(w0 <= span[2] and span[3] <= w1 for w0, w1 in windows):
            continue
        self_s[span[0]] = self_s.get(span[0], 0.0) + (span[3] - span[2] - span[4]) / 1e9
    return self_s


def layer_metrics(dumps, main_pid: int, windows: list, rounds: int,
                  counts: dict) -> dict:
    """Per-layer metrics, per round, from the span dumps of one pass.

    ``counts`` carries what the program reports itself, summed over the
    pass's rounds: engine telemetry, race counts, queue retries and dead
    letters, wire counters and the number of fabric tasks.
    """
    per = 1.0 / rounds
    client = list(_spans(dumps, server=False))
    out: dict = {}

    def outer(layer):
        return [(d, t, s) for d, t, s in client if s[0] == layer and s[6]]

    out["frontend.record_s"] = per * sum(_dur(s) for _d, _t, s in outer("frontend"))
    columnar = [s for _d, _t, s in outer("trace")
                if _short(s[1]) in ("columns_with", "build", "to_blob", "from_blob")]
    out["trace.columns_s"] = per * sum(_dur(s) for s in columnar)
    out["trace.attaches"] = per * sum(
        1 for _d, _t, s in client if s[1] == "ColumnarTrace.from_blob")
    out["trace.persists"] = per * sum(
        1 for _d, _t, s in client if s[1] == "ColumnarTrace.to_blob")

    sims = [s for _d, _t, s in outer("simulator")]
    busy = sum(_dur(s) for s in sims)
    configs = sum((s[7] or {}).get("n", 0) for s in sims)
    instr = sum((s[7] or {}).get("instr", 0) for s in sims)
    out["simulator.busy_s"] = per * busy
    out["simulator.kinstr_per_s"] = instr / busy / 1e3 if busy else 0.0
    out["simulator.calls"] = per * len(sims)
    out["simulator.configs_per_pass"] = configs / len(sims) if sims else 0.0

    hw = outer("hardware")
    out["hardware.busy_s"] = per * sum(_dur(s) for _d, _t, s in hw)
    out["hardware.measurements"] = per * sum(
        1 for _d, _t, s in hw if s[1] == "HardwareCore.measure" and s[4] > 0)

    def total(name, pred=lambda s: True):
        return per * sum(_dur(s) for _d, _t, s in client if s[1] == name and pred(s))

    out["validation.lmbench_s"] = total("ValidationCampaign.step2_lmbench")
    out["validation.stage1_s"] = total("ValidationCampaign.step4_tune", lambda s: s[7] == 1)
    out["validation.stage2_s"] = total("ValidationCampaign.step4_tune", lambda s: s[7] == 2)
    out["validation.evaluate_s"] = total("ValidationCampaign.evaluate")

    tel = counts.get("engine", {})
    requested = tel.get("requested_trials", 0)
    out["engine.requested"] = per * requested
    out["engine.unique"] = per * tel.get("unique_trials", 0)
    out["engine.hit_frac"] = tel.get("sim_cache_hits", 0) / requested if requested else 0.0
    out["engine.store_hits"] = per * tel.get("store_hits", 0)
    out["engine.batched_trials"] = per * tel.get("batched_trials", 0)

    self_s = timeline_attribution(dumps, main_pid, windows)
    for layer in LAYERS:
        if layer == "executor":
            out["engine.executor_wait_s"] = per * self_s[layer]
        else:
            out[f"{layer}.self_s"] = per * self_s[layer]
    wall = sum(w1 - w0 for w0, w1 in windows) / 1e9
    out["bench.traced_wall_s"] = per * wall
    out["bench.unattributed_s"] = per * (wall - sum(self_s.values()))

    committed, wasted = counts.get("committed", 0), counts.get("wasted", 0)
    out["tuning.steps"] = per * counts.get("steps", 0)
    out["tuning.wasted_evals"] = per * wasted
    out["tuning.useful_frac"] = (committed / (committed + wasted)
                                 if committed + wasted else 0.0)

    fabric = outer("fabric")
    out["fabric.enqueue_s"] = per * sum(
        _dur(s) for _d, _t, s in fabric if _short(s[1]) == "enqueue")
    claims = sorted((s for _d, _t, s in fabric if _short(s[1]) in _CLAIMS),
                    key=lambda s: s[3])
    claimed = sum(len((s[7] or {}).get("keys", ())) for s in claims)
    out["fabric.claim_calls"] = per * len(claims)
    out["fabric.tasks_per_claim"] = claimed / len(claims) if claims else 0.0
    out["fabric.claim_ms_p50"] = _median_ms([_dur(s) for s in claims])
    out["fabric.complete_calls"] = per * sum(
        1 for _d, _t, s in fabric if _short(s[1]) in _COMPLETES)
    out["fabric.worker_busy_frac"] = _worker_busy(dumps, windows)
    owner: dict = {}       # key -> worker of its first claim
    claimed_at: dict = {}  # key -> end of its first claim
    for s in claims:
        for key in (s[7] or {}).get("keys", ()):
            owner.setdefault(key, s[7]["worker"])
            claimed_at.setdefault(key, s[3])
    shares = []
    for _d, _t, s in client:
        if s[1] == "FabricExecutor.submit":
            held = [owner[k] for k in (s[7] or ()) if k in owner]
            if len(held) >= 2:
                shares.append(max(held.count(w) for w in set(held)) / len(held))
    out["fabric.lease_share_max"] = statistics.mean(shares) if shares else 0.0
    waits = []
    for _d, _t, s in fabric:
        if _short(s[1]) == "enqueue":
            for key in s[7] or ():
                if key in claimed_at:
                    waits.append((claimed_at[key] - s[3]) / 1e9)
    out["fabric.queue_wait_ms_p50"] = _median_ms(waits)
    out["fabric.retried"] = per * counts.get("retried", 0)
    out["fabric.dead"] = per * counts.get("dead", 0)

    store = outer("store")
    gets = [s for _d, _t, s in store if _short(s[1]).startswith("get")]
    puts = [s for _d, _t, s in store if _short(s[1]).startswith("put")]
    out["store.get_calls"] = per * len(gets)
    out["store.get_s"] = per * sum(_dur(s) for s in gets)
    out["store.put_calls"] = per * len(puts)
    out["store.put_s"] = per * sum(_dur(s) for s in puts)

    wire = counts.get("wire", {})
    tasks = counts.get("tasks", 0)
    requests = wire.get("wire_requests", 0)
    out["service.requests_per_task"] = requests / tasks if tasks else 0.0
    out["service.bytes_per_task"] = (
        (wire.get("wire_bytes_in", 0) + wire.get("wire_bytes_out", 0)) / tasks
        if tasks else 0.0)
    out["service.compressed_frac"] = (
        wire.get("wire_compressed_bodies", 0) / (2 * requests) if requests else 0.0)
    out["service.retries"] = per * wire.get("wire_retries", 0)
    out["service.rtt_ms_p50"] = _median_ms(
        [_dur(s) for _d, _t, s in client if s[1] == "ServiceClient.call"])
    out["service.server_busy_s"] = per * sum(
        _dur(s) for _d, _t, s in _spans(dumps, server=True) if s[5] == 0)
    return out


def _worker_busy(dumps, windows) -> float:
    """Share of the timed windows fleet workers spent executing tasks."""
    busy = span = 0.0
    for dump in dumps:
        if dump["role"] != "worker":
            continue
        main = dict(dump["threads"]).get("MainThread", [])
        runs = [s for s in main if s[1] == "FabricWorker.run"]
        if not runs:
            continue
        for w0, w1 in windows:
            if runs[0][2] > w1 or runs[0][3] < w0:
                continue
            span += (w1 - w0) / 1e9
            for s in main:
                if s[0] == "engine" and s[6]:
                    busy += max(0, min(s[3], w1) - max(s[2], w0)) / 1e9
    return busy / span if span else 0.0

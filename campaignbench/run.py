"""Campaign-level benchmark of the racing-validation reproduction.

Usage, from the root of a checkout::

    python3 campaignbench/run.py --workload campaign-local --seed 1 \
        --seconds 25 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):
``campaign-local``, ``campaign-fleet`` and ``sweep-http``.

A run is a fixed number of rounds, ``seconds / ROUND_S`` rounded (at
least one), so two commits measured with the same ``--seconds`` do the
same work. Round ``i`` uses a campaign seed derived from ``--seed`` and
``i`` only, so ``campaign-local``'s a53 campaign and
``campaign-fleet``'s campaign of the same seed are the same
experiment. Each round sets up from scratch; ``setup_s`` is the import
time plus the median round set-up.

``--trace 0`` measures the end-to-end metrics with no spans recorded.
``--trace 1`` runs half as many rounds, each twice with the same seed,
untraced then traced: it reports the per-layer metrics of the traced
passes (each beside the end-to-end metric it should move, from
``layers.MOVES``), checks that both passes give identical outputs, and
reports the tracing overhead as traced minus untraced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it print every metric by name with its unit. A correctness mismatch
exits with code 1. Outside a checkout (no ``src/repro``) it exits with
code 2 before printing a result. ``--tiny`` shrinks every round for the
smoke test (``smoke.py``).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 — the clock above must start first
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

from layers import MOVES, install_tracing  # noqa: E402
from spans import Patches, Recorder  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Nominal length of one round per workload, seconds: ``--seconds``
#: divided by it gives the (fixed) number of rounds.
ROUND_S = {"campaign-local": 12.0, "campaign-fleet": 12.0, "sweep-http": 6.0}


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names and units this run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def calibrate() -> float:
    """Median milliseconds of a fixed pure-Python loop (host-drift label)."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def percentile(values: list, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def round_seeds(seed: int, rounds: int) -> list:
    """Campaign/grid seeds of a run: a pure function of ``--seed``."""
    rng = random.Random(f"campaignbench:{seed}")
    return [rng.randrange(1, 1 << 30) for _ in range(rounds)]


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and every reaped child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Bench:
    """Run-wide state the workloads share."""

    def __init__(self, tmp: str, tiny: bool) -> None:
        from workloads import FULL, TINY

        self.tmp = tmp
        self.size = TINY if tiny else FULL
        self.nproc = len(os.sched_getaffinity(0))
        #: Span dump directory of the pass being run (``None`` untraced).
        self.trace_dir = None

    def worker_env(self, **extra) -> dict:
        """Environment for worker processes: this checkout's ``src``, the
        run's temp dir, plus ``extra``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        env["TMPDIR"] = self.tmp
        env.update(extra)
        return env


def run_round(bench, workload, probe, seed: int, round_dir: str, recorder=None):
    """Set up, time and check one round; returns (setup_s, window, result)."""
    from workloads import RoundResult

    os.makedirs(round_dir)
    result = RoundResult()
    try:
        start = time.perf_counter_ns()
        workload.setup(seed, round_dir)
        setup_s = (time.perf_counter_ns() - start) / 1e9
        probe.reset()
        t0 = time.perf_counter_ns()
        workload.run()
        t1 = time.perf_counter_ns()
        if recorder is not None:
            recorder.enabled = False
        if probe.races:
            result.trials = probe.trials
            result.latencies_ms = list(probe.step_ms)
            result.counts.update(committed=probe.committed, wasted=probe.wasted,
                                 steps=probe.steps)
        workload.finish(result)
    except BaseException:
        workload.abort()
        raise
    return setup_s, (t0, t1), result


def traced_round(bench, workload, probe, seed: int, round_dir: str, recorder):
    """:func:`run_round` with every span wrapper installed (in this process,
    its forked pool children and its worker processes); returns the span
    dump directory, the timed window and the round result."""
    trace_dir = round_dir + "-spans"
    os.makedirs(trace_dir)
    recorder.out_dir = bench.trace_dir = trace_dir
    patches = Patches()
    install_tracing(recorder, patches)
    recorder.enabled = True
    try:
        _setup_s, window, result = run_round(bench, workload, probe, seed,
                                             round_dir, recorder=recorder)
    finally:
        recorder.enabled = False
        patches.restore()
        bench.trace_dir = None
    recorder.dump(role="main")
    recorder.clear()
    return trace_dir, window, result


def end_to_end(setups, windows, results, import_s) -> tuple:
    """The end-to-end metrics of the untraced rounds, and the number of
    latency samples. Each timing is the median over rounds of the
    round's own figure, so one round slowed by the host counts once."""
    walls = [(t1 - t0) / 1e9 for t0, t1 in windows]
    return {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": statistics.median(walls),
        "trials_per_s": statistics.median(
            r.trials / wall for r, wall in zip(results, walls)),
        "latency_p50_ms": statistics.median(
            percentile(r.latencies_ms, 0.5) for r in results),
        "latency_p90_ms": statistics.median(
            percentile(r.latencies_ms, 0.9) for r in results),
        "peak_rss_mb": peak_rss_mb(),
    }, sum(len(r.latencies_ms) for r in results)


def accuracy(results) -> dict:
    """Mean tuned and held-out CPI error over every campaign of the
    rounds, percent. Deterministic for a seed; across seeds it varies as
    much as tuning outcomes do, so it is reported but has no bound."""
    tuned = [e for r in results for e in r.tuned.values()]
    heldout = [e for r in results for e in r.heldout.values()]
    return {"tuned_error_pct": 100.0 * statistics.mean(tuned),
            "heldout_error_pct": 100.0 * statistics.mean(heldout)}


def merge_counts(results) -> dict:
    """Sum the layer-metric inputs of several rounds."""
    total: dict = {}
    for r in results:
        for name, value in r.counts.items():
            if isinstance(value, dict):
                inner = total.setdefault(name, {})
                for key, v in value.items():
                    inner[key] = inner.get(key, 0) + v
            else:
                total[name] = total.get(name, 0) + value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign-local", "campaign-fleet", "sweep-http"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: tiny budgets, a quarter of the suite")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")) \
            or not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        print(f"campaignbench: no repro package under {SRC} or no "
              "BENCHMARK.json beside it; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    tmp = tempfile.mkdtemp(prefix="run-", dir=_tmp_root())
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))  # only if no other run uses it
        except OSError:
            pass


def _tmp_root() -> str:
    root = os.path.join(ROOT, ".campaignbench")
    os.makedirs(root, exist_ok=True)
    return root


def _run(args, tmp: str) -> int:
    from probes import CampaignProbe
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    calib_start = calibrate()
    spec = load_spec()

    bench = Bench(tmp, args.tiny)
    workload = WORKLOADS[args.workload](bench)
    rounds = 1 if args.tiny else max(1, round(args.seconds / ROUND_S[args.workload]))
    if args.trace:
        rounds = max(1, rounds // 2)  # each round runs twice
    seeds = round_seeds(args.seed, rounds)
    probe = CampaignProbe()
    probe_patches = Patches()
    probe.install(probe_patches)

    print(f"campaignbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} rounds={rounds} nproc={bench.nproc} "
          f"trace={args.trace} size={'tiny' if args.tiny else 'full'}")
    setups, windows, results = [], [], []
    traced_windows, traced_results = [], []
    recorder = Recorder() if args.trace else None
    try:
        for i, seed in enumerate(seeds):
            setup_s, window, result = run_round(
                bench, workload, probe, seed, os.path.join(tmp, f"r{i}"))
            setups.append(setup_s)
            windows.append(window)
            results.append(result)
            if recorder is not None:
                trace_dir, window, traced = traced_round(
                    bench, workload, probe, seed, os.path.join(tmp, f"t{i}"), recorder)
                traced_windows.append(window)
                traced_results.append((trace_dir, traced))
                traced.checks += 1
                if traced.outputs != result.outputs:
                    traced.mismatches.append("traced and untraced outputs differ")
    except Exception:  # noqa: BLE001 — report and fail the run without a result
        traceback.print_exc()
        return 1
    finally:
        probe_patches.restore()

    calib_end = calibrate()
    all_results = results + [r for _d, r in traced_results]
    mismatches = [m for r in all_results for m in r.mismatches]
    attempted = sum(r.trials + r.checks for r in all_results)
    failed = sum(r.failed_ops for r in all_results) + len(mismatches)

    metrics, samples = end_to_end(setups, windows, results, import_s)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in metrics.items():
        note = f"  ({samples} samples)" if name.startswith("latency") else ""
        print(f"  {name:<20} {value:14.4f} {units[name]}{note}")
    print(f"  {'failed_frac':<20} {failed / max(1, attempted):14.6f} 1  "
          f"({failed} of {attempted} operations)")
    for name, value in accuracy(results).items():
        print(f"  {name:<20} {value:14.4f} %  (per seed; not gated, see BENCHMARK.json)")
    for r_i, (r, setup_s, (t0, t1)) in enumerate(zip(results, setups, windows)):
        errors = ", ".join(f"{core} tuned {100 * r.tuned[core]:.4f}% held-out "
                           f"{100 * r.heldout[core]:.4f}%" for core in r.tuned)
        print(f"    round {r_i}: setup {setup_s:.3f} s, wall {(t1 - t0) / 1e9:.3f} s, "
              f"{r.trials} trials; {errors}")
    print("  CPI errors are against the on-box FireflyRK3399 stand-in board, "
          "not silicon")
    print(f"  host calibration: {calib_start:.2f} ms at start, "
          f"{calib_end:.2f} ms at end (not gated)")
    for m in mismatches:
        print(f"  MISMATCH: {m}")

    if args.trace:
        metrics = _traced_metrics(traced_results, traced_windows, windows,
                                  calib_start, calib_end)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in metrics.items():
            print(f"  {name:<28} {value:16.6f} {units[name]:<9} {MOVES[name]}")
    out = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(out))
    return 0 if not mismatches else 1


def _traced_metrics(traced_results, traced_windows, untraced_windows,
                    calib_start, calib_end) -> dict:
    from layers import layer_metrics, load_dumps

    dumps = []
    for trace_dir, _r in traced_results:
        dumps.extend(load_dumps(trace_dir))
    rounds = len(traced_results)
    counts = merge_counts([r for _d, r in traced_results])
    metrics = layer_metrics(dumps, os.getpid(), traced_windows, rounds, counts)
    metrics.update(accuracy([r for _d, r in traced_results]))
    untraced = sum(t1 - t0 for t0, t1 in untraced_windows) / 1e9 / rounds
    metrics["bench.untraced_wall_s"] = untraced
    metrics["bench.overhead_s"] = metrics["bench.traced_wall_s"] - untraced
    metrics["bench.overhead_frac"] = metrics["bench.overhead_s"] / untraced
    metrics["host.calibration_start_ms"] = calib_start
    metrics["host.calibration_end_ms"] = calib_end
    return metrics


if __name__ == "__main__":
    sys.exit(main())

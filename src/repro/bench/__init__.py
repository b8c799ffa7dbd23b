"""Performance layer: benchmark scenarios, harness and perf baselines.

``repro bench`` (and this package's API) times each layer of the
simulation stack alone: simulator throughput on micro-benchmark and
SPEC-proxy traces, trace recording, batched race-step fusion and
trace-blob attach. It records instructions/sec, simulated cycles/sec
and per-kind telemetry in a versioned ``BENCH_<host>.json`` — the perf
baseline every future PR is compared against.

>>> from repro.bench import run_suite
>>> entry = run_suite("quick")           # doctest: +SKIP
>>> entry["totals"]["simulate_instructions_per_second"]  # doctest: +SKIP
"""

from repro.bench.harness import (
    DEFAULT_MAX_REGRESSION,
    MAX_RUNS,
    SCHEMA_VERSION,
    compare_runs,
    default_bench_path,
    host_fingerprint,
    load_report,
    run_bench,
    run_scenario,
    run_suite,
    update_report_file,
    validate_report,
)
from repro.bench.scenarios import (
    BenchScenario,
    full_suite,
    get_suite,
    quick_suite,
)

__all__ = [
    "BenchScenario",
    "DEFAULT_MAX_REGRESSION",
    "MAX_RUNS",
    "SCHEMA_VERSION",
    "compare_runs",
    "default_bench_path",
    "full_suite",
    "get_suite",
    "host_fingerprint",
    "load_report",
    "quick_suite",
    "run_bench",
    "run_scenario",
    "run_suite",
    "update_report_file",
    "validate_report",
]

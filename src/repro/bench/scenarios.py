"""Deterministic benchmark scenario definitions.

The performance layer measures a *fixed* suite of scenarios so that
every run of ``repro bench`` — today, next PR, another machine — times
exactly the same work. Three scenario kinds cover the layers of the
simulation stack:

- ``simulate`` — steady-state simulator throughput: replay pre-recorded
  traces (the tuning-loop workload, where thousands of configurations
  share one trace);
- ``trace`` — front-end recording throughput: the DynamoRIO-substitute
  interpreter producing dynamic traces;
- ``engine`` — batched engine throughput: a configuration grid submitted
  through :class:`~repro.engine.EvaluationEngine`, exercising the
  content-addressed cache and reporting its telemetry;
- ``fabric`` — distributed-dispatch overhead: the same grid run twice,
  once serially in-process and once decomposed into fabric tasks on a
  throwaway SQLite queue drained by an in-process worker, isolating the
  per-task cost of enqueue + claim + store write-back + read-back;
- ``service`` — HTTP-dispatch overhead: the fabric measurement again,
  but queue and store both behind an in-process experiment service
  (``repro serve``), isolating what the wire adds per task on top of
  the local fabric figure;
- ``dispatch`` — wire-speed tracking: the fabric and service
  measurements fused into one scenario so both transports share one
  serial baseline; its telemetry carries per-task dispatch overhead
  for SQLite and HTTP side by side (the acceptance numbers of the
  batched-claim / long-poll / pipelining work);
- ``batch`` — race-step fusion: K candidate configurations over one
  instance, run as K isolated serial passes (each re-recording the
  trace — what independent workers pay) versus one recording whose
  issue stream all K share (``simulate_batch``), reporting effective
  per-candidate throughput and the fusion speedup;
- ``mmap`` — columnar blob attach cost: memory-mapping persisted trace
  blobs (what the second worker on a host pays) versus recording,
  building and persisting them (what the first worker pays);
- ``race`` — async-race fleet saturation: the same engine-backed race
  run twice over a two-worker fabric whose workers are deliberately
  speed-skewed, once with the synchronous per-step barrier and once
  with speculative lookahead scheduling, reporting each mode's
  busy-worker fraction and wall clock (and asserting the decisions
  match — saturation must be free).

Scenario *lists* are deterministic (names, workloads, order); only the
measured wall-clock varies between runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BenchScenario:
    """One named, reproducible measurement unit.

    Parameters
    ----------
    name:
        Stable identifier recorded in ``BENCH_*.json``.
    kind:
        ``"simulate"``, ``"trace"`` or ``"engine"`` (see module docs).
    core:
        Public configuration to simulate with (``a53`` or ``a72``);
        unused by ``trace`` scenarios.
    workloads:
        Workload names (micro-benchmarks or SPEC proxies) the scenario
        runs, in order.
    repeats:
        Timed passes; the harness reports the best (minimum-wall) pass,
        the standard way to suppress scheduler noise.
    scale:
        Trace scale forwarded to the workloads.
    grid:
        For ``engine`` scenarios: configuration override axes as a
        tuple of ``(dotted_key, (value, ...))`` pairs whose cross
        product forms the submitted configurations.
    sampled_seeds:
        For ``simulate`` scenarios: seeds of stage-2 tuning candidates
        (:func:`sampled_config`) to simulate instead of the public
        configuration — the configurations a race actually runs.
    """

    name: str
    kind: str
    core: str = "a53"
    workloads: tuple = ()
    repeats: int = 3
    scale: float = 1.0
    grid: tuple = field(default=())
    sampled_seeds: tuple = ()


#: Category-balanced ten-kernel subset used by the quick suite.
QUICK_KERNELS = ("MC", "ML2_BWld", "MM", "CCa", "CRd", "CS1", "DP1f", "ED1",
                 "STc", "STL2")

#: SPEC-proxy subset for the quick suite.
QUICK_SPEC = ("mcf", "x264", "leela")

#: Engine-scenario override grid (kept tiny; the point is measuring the
#: batch/caching machinery, not sweeping a large space).
ENGINE_GRID = (
    ("l1d.size", (16384, 32768)),
    ("branch.btb_entries", (256, 512)),
)

#: Batch-scenario grid: 2x2x2 = 8 candidates, the alive set of a
#: typical F-race step (the acceptance unit for batched simulation).
BATCH_GRID = (
    ("branch.mispredict_penalty", (6, 9)),
    ("l1d.size", (16384, 32768)),
    ("branch.btb_entries", (256, 512)),
)

#: Race-scenario grid: a deliberately *narrow* field (2 candidates per
#: instance step) over many instances — the shape where the synchronous
#: barrier hurts most, because each step leaves one of the two skewed
#: workers idle while the other holds the frontier.
RACE_GRID = (
    ("l1d.size", (16384, 32768)),
)

#: Race-scenario instance lists (many steps = many barriers to remove,
#: and a long enough run to amortise the final task's drain tail).
RACE_KERNELS = ("CCa", "CRd", "CS1", "ED1", "MC", "MD", "ML2_BWld", "STc",
                "DP1f", "EI", "MM", "STL2", "CCh", "CF1", "EM1", "MI")


#: Stage-2 candidate seeds of the ``-sampled`` simulate scenarios.
SAMPLED_SEEDS = tuple(range(12))
QUICK_SAMPLED_SEEDS = SAMPLED_SEEDS[:4]


def sampled_config(core: str, seed: int):
    """Stage-2 tuning candidate ``seed`` of ``core`` (``a53``/``a72``).

    One value per stage-2 parameter, drawn as a race's random candidate
    sampling does: prefetchers, victim buffers, non-LRU policies and
    other set-index hashes, on top of the public configuration.
    """
    import random

    from repro.core.config import cortex_a53_public_config, cortex_a72_public_config
    from repro.validation.steps import param_space_for

    public = {"a53": cortex_a53_public_config, "a72": cortex_a72_public_config}[core]()
    rng = random.Random(seed)
    return public.with_updates(
        {p.name: rng.choice(p.values) for p in param_space_for(public.core_type, 2)})


def _microbench_names() -> tuple:
    from repro.workloads.microbench import MICROBENCHMARKS

    return tuple(MICROBENCHMARKS)


def _spec_names() -> tuple:
    from repro.workloads.spec import SPEC_WORKLOADS

    return tuple(SPEC_WORKLOADS)


def full_suite() -> list:
    """The complete scenario list (the default for ``repro bench``)."""
    micro = _microbench_names()
    spec = _spec_names()
    return [
        BenchScenario("table1-a53", "simulate", core="a53", workloads=micro,
                      repeats=5),
        BenchScenario("table1-a72", "simulate", core="a72", workloads=micro,
                      repeats=5),
        BenchScenario("table1-a53-sampled", "simulate", core="a53",
                      workloads=micro, sampled_seeds=SAMPLED_SEEDS),
        BenchScenario("table1-a72-sampled", "simulate", core="a72",
                      workloads=micro, sampled_seeds=SAMPLED_SEEDS),
        BenchScenario("spec-a53", "simulate", core="a53", workloads=spec),
        BenchScenario("spec-a72", "simulate", core="a72", workloads=spec),
        BenchScenario("trace-record", "trace", workloads=micro),
        BenchScenario("engine-batch-a53", "engine", core="a53",
                      workloads=QUICK_KERNELS, grid=ENGINE_GRID, repeats=1),
        BenchScenario("fabric-overhead", "fabric", core="a53",
                      workloads=("CCa", "ED1", "MD", "STc"),
                      grid=ENGINE_GRID, repeats=1, scale=0.5),
        BenchScenario("service-dispatch", "service", core="a53",
                      workloads=("CCa", "ED1", "MD", "STc"),
                      grid=ENGINE_GRID, repeats=1, scale=0.5),
        BenchScenario("dispatch-throughput", "dispatch", core="a53",
                      workloads=("CCa", "ED1", "MD", "STc"),
                      grid=ENGINE_GRID, repeats=5, scale=0.5),
        BenchScenario("batched-race-step", "batch", core="a53",
                      workloads=QUICK_KERNELS, grid=BATCH_GRID, repeats=3),
        BenchScenario("trace-mmap-attach", "mmap", core="a53",
                      workloads=QUICK_KERNELS, repeats=3),
        BenchScenario("async-race-saturation", "race", core="a53",
                      workloads=RACE_KERNELS, grid=RACE_GRID,
                      repeats=1, scale=0.25),
    ]


def quick_suite() -> list:
    """Reduced suite for CI smoke runs (seconds, not minutes)."""
    return [
        BenchScenario("table1-a53-quick", "simulate", core="a53",
                      workloads=QUICK_KERNELS, repeats=2),
        BenchScenario("table1-a72-quick", "simulate", core="a72",
                      workloads=QUICK_KERNELS, repeats=2),
        BenchScenario("table1-a53-sampled-quick", "simulate", core="a53",
                      workloads=QUICK_KERNELS, repeats=2,
                      sampled_seeds=QUICK_SAMPLED_SEEDS),
        BenchScenario("table1-a72-sampled-quick", "simulate", core="a72",
                      workloads=QUICK_KERNELS, repeats=2,
                      sampled_seeds=QUICK_SAMPLED_SEEDS),
        BenchScenario("spec-a53-quick", "simulate", core="a53",
                      workloads=QUICK_SPEC, repeats=2),
        BenchScenario("trace-record-quick", "trace", workloads=QUICK_KERNELS,
                      repeats=2),
        BenchScenario("engine-batch-quick", "engine", core="a53",
                      workloads=QUICK_KERNELS[:4], grid=ENGINE_GRID,
                      repeats=1),
        BenchScenario("fabric-overhead-quick", "fabric", core="a53",
                      workloads=("CCa", "ED1"), grid=ENGINE_GRID,
                      repeats=1, scale=0.5),
        BenchScenario("service-dispatch-quick", "service", core="a53",
                      workloads=("CCa", "ED1"), grid=ENGINE_GRID,
                      repeats=1, scale=0.5),
        BenchScenario("dispatch-throughput-quick", "dispatch", core="a53",
                      workloads=("CCa", "ED1"), grid=ENGINE_GRID,
                      repeats=2, scale=0.5),
        BenchScenario("batched-race-step-quick", "batch", core="a53",
                      workloads=QUICK_KERNELS[:4], grid=BATCH_GRID,
                      repeats=1),
        BenchScenario("trace-mmap-attach-quick", "mmap", core="a53",
                      workloads=QUICK_KERNELS[:4], repeats=2),
        BenchScenario("async-race-saturation-quick", "race", core="a53",
                      workloads=RACE_KERNELS[:8], grid=RACE_GRID,
                      repeats=1, scale=0.25),
    ]


def get_suite(name: str) -> list:
    """Suite registry: ``full`` or ``quick``."""
    if name == "full":
        return full_suite()
    if name == "quick":
        return quick_suite()
    raise ValueError(f"unknown bench suite {name!r}; choose 'full' or 'quick'")

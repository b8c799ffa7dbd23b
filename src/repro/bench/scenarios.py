"""Deterministic benchmark scenario definitions.

The performance layer measures a *fixed* suite of scenarios so that
every run of ``repro bench`` — today, next PR, another machine — times
exactly the same work. Each scenario kind times one layer of the
simulation stack in isolation, as lmbench times one operation:

- ``simulate`` — steady-state simulator throughput: replay pre-recorded
  traces (the tuning-loop workload, where thousands of configurations
  share one trace), on the public configuration or on sampled stage-2
  tuning candidates;
- ``trace`` — front-end recording throughput: the DynamoRIO-substitute
  interpreter producing dynamic traces;
- ``batch`` — race-step fusion: K candidate configurations over one
  instance, run as K isolated serial passes (each re-recording the
  trace — what independent workers pay) versus one recording whose
  issue stream all K share (``simulate_batch``), reporting effective
  per-candidate throughput and the fusion speedup;
- ``mmap`` — columnar blob attach cost: memory-mapping persisted trace
  blobs (what the second worker on a host pays) versus recording,
  building and persisting them (what the first worker pays).

How the layers compose — engine cache, fabric queue, HTTP service,
async racing — is measured end to end by ``campaignbench/``'s
workloads, not here.

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
        ``"simulate"``, ``"trace"``, ``"batch"`` or ``"mmap"`` (see
        module docs).
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
        For ``batch`` scenarios: configuration override axes as a
        tuple of ``(dotted_key, (value, ...))`` pairs whose cross
        product forms the raced candidates.
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

#: Batch-scenario grid: 2x2x2 = 8 candidates, the alive set of a
#: typical F-race step (the acceptance unit for batched simulation).
BATCH_GRID = (
    ("branch.mispredict_penalty", (6, 9)),
    ("l1d.size", (16384, 32768)),
    ("branch.btb_entries", (256, 512)),
)

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
        BenchScenario("batched-race-step", "batch", core="a53",
                      workloads=QUICK_KERNELS, grid=BATCH_GRID, repeats=3),
        BenchScenario("trace-mmap-attach", "mmap", core="a53",
                      workloads=QUICK_KERNELS, repeats=3),
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
        BenchScenario("batched-race-step-quick", "batch", core="a53",
                      workloads=QUICK_KERNELS[:4], grid=BATCH_GRID,
                      repeats=1),
        BenchScenario("trace-mmap-attach-quick", "mmap", core="a53",
                      workloads=QUICK_KERNELS[:4], repeats=2),
    ]


def get_suite(name: str) -> list:
    """Suite registry: ``full`` or ``quick``."""
    if name == "full":
        return full_suite()
    if name == "quick":
        return quick_suite()
    raise ValueError(f"unknown bench suite {name!r}; choose 'full' or 'quick'")

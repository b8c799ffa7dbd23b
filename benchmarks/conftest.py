"""Benchmark-harness fixtures.

The expensive artefacts — the board and one tuned validation campaign
per core — are session-scoped and computed once; the figure benches
then regenerate each table/figure from them. Assertions check the
paper's *shape* (who wins, by roughly what factor), not absolute
numbers: the substrate is a synthetic board, not RK3399 silicon.

Set ``REPRO_BENCH_STORE=/path/to/store.sqlite`` to back the campaigns
with a persistent experiment store: the first benchmark session pays
for the tuning, every later session (locally or via a CI cache
artifact) resumes both campaigns from their checkpoints in seconds.
"""

from __future__ import annotations

import os

import pytest

from repro.hardware.board import FireflyRK3399
from repro.simulator import SnipeSim
from repro.store import open_store
from repro.tuning.cost import cpi_error
from repro.validation.campaign import ValidationCampaign
from repro.workloads.spec import SPEC_BENCHMARKS


@pytest.fixture(scope="session")
def board() -> FireflyRK3399:
    return FireflyRK3399()


@pytest.fixture(scope="session")
def bench_store():
    """Optional shared store for the tuned-campaign fixtures."""
    path = os.environ.get("REPRO_BENCH_STORE")
    if not path:
        yield None
        return
    store = open_store(path)
    yield store
    store.close()


def _tuned_campaign(board, store, run_id, **campaign_kwargs):
    """Run (or resume) one campaign, registering it when store-backed.

    The run id is deterministic, so a re-run of the benchmark session
    against the same store resumes from the existing checkpoints.
    """
    resume = False
    if store is not None:
        try:
            store.registry.get(run_id)
            resume = True
        except KeyError:
            store.registry.create(
                run_id=run_id, kind="validate",
                core=campaign_kwargs["core"], profile=campaign_kwargs["profile"],
                seed=campaign_kwargs["seed"], params={"stages": 2, "bench": True},
            )
        campaign_kwargs.update(store=store, run_id=run_id)
    campaign = ValidationCampaign(board, **campaign_kwargs)
    try:
        result = campaign.run(stages=2, resume=resume)
        if store is not None:
            store.registry.finish(run_id)
        return result
    finally:
        campaign.close()


@pytest.fixture(scope="session")
def a53_campaign(board, bench_store):
    """The tuned A53 model (Figure-1 methodology, two stages)."""
    return _tuned_campaign(board, bench_store, "bench-a53-default-1",
                           core="a53", profile="default", seed=1)


@pytest.fixture(scope="session")
def a72_campaign(board, bench_store):
    """The tuned A72 model.

    The out-of-order model needs the larger "thorough" budget to tune
    well — consistent with the paper's observation that the A72 is the
    harder validation target.
    """
    return _tuned_campaign(board, bench_store, "bench-a72-thorough-3",
                           core="a72", profile="thorough", seed=3)


def spec_errors(board, core_name, config) -> dict:
    """Per-application CPI error of ``config`` on the SPEC proxies."""
    core = board.core(core_name)
    sim = SnipeSim(config)
    out = {}
    for workload in SPEC_BENCHMARKS:
        trace = workload.trace()
        out[workload.name] = cpi_error(sim.run(trace), core.measure(trace))
    return out

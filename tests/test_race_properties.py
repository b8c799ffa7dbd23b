"""Property-based racing: invariants over hundreds of random race traces.

Each seed draws a random race shape (candidate count, instance count,
cost landscape, noise, statistical test, budget, ``first_test``,
``min_survivors``) from ``random.Random(seed)`` — stdlib only, fully
reproducible — and runs it through every execution variant:

- synchronous barrier loop (the reference);
- async with ``lookahead=0`` (frontier-only speculation);
- async with a random lookahead;
- async over an adversarial completion-order-shuffling source;
- async over a source whose ``cancel`` is a silent no-op (late results
  for eliminated candidates must be ignored, never committed).

Invariants checked on every trace:

1. every variant's decision record equals the synchronous one
   (lookahead never changes survivors, means, or elimination order);
2. eliminated candidates never resurrect — the alive set passed to the
   statistical test only ever shrinks;
3. survivors and eliminated candidates partition the field;
4. the trial budget is never exceeded;
5. cancellation is always safe: ignoring it changes telemetry at most.
"""

import random

import pytest

from repro.engine import TrialCache
from repro.tuning.race import BatchSource, race
from tests.test_race_async import ShuffledSource

N_TRACES = 200
CHUNK = 10

POLICIES = ["reverse", "interleaved", "loser_first"]


def _draw_trace(seed):
    """One random race shape, a pure function of the seed."""
    rng = random.Random(seed)
    n_configs = rng.randint(2, 7)
    n_instances = rng.randint(3, 15)
    base = [rng.uniform(0.05, 1.0) for _ in range(n_configs)]
    sigma = rng.choice([0.0, 0.01, 0.05, 0.15])
    return {
        "configs": [{"id": i} for i in range(n_configs)],
        "instances": list(range(n_instances)),
        "true_costs": base,
        "sigma": sigma,
        "first_test": rng.randint(2, n_instances),
        "min_survivors": rng.randint(1, min(3, n_configs)),
        "budget": rng.choice([None, rng.randint(n_configs,
                                                n_configs * n_instances)]),
        "test": rng.choice(["friedman", "ttest"]),
        "alpha": rng.choice([0.05, 0.2]),
        "lookahead": rng.randint(1, n_instances),
        "policy": rng.choice(POLICIES),
    }


def _make_evaluate(trace):
    true_costs, sigma = trace["true_costs"], trace["sigma"]

    def evaluate(config, instance):
        noise_rng = random.Random(config["id"] * 7919 + instance * 104729)
        return true_costs[config["id"]] + noise_rng.gauss(0, sigma)

    return evaluate


class _ShrinkingAliveCheck:
    """Wraps the race's evaluator untouched but audits the alive sets the
    statistical test sees: once eliminated, a candidate must never
    reappear."""

    def __init__(self):
        self.alive_history = []

    def audit(self, eliminate_fn):
        def wrapped(costs, alive, alpha):
            if self.alive_history:
                assert set(alive) <= set(self.alive_history[-1]), \
                    f"alive set grew: {self.alive_history[-1]} -> {alive}"
            self.alive_history.append(list(alive))
            return eliminate_fn(costs, alive, alpha)

        return wrapped


class _IgnoreCancelSource:
    """A fleet that never honours cancellation: every submitted trial
    completes and is delivered. The scheduler must drop the unwanted
    results on the floor rather than commit them."""

    def __init__(self, evaluate):
        self.inner = BatchSource(TrialCache(evaluate))
        self.cancel_requests = 0

    def submit(self, requests):
        self.inner.submit(requests)

    def poll(self):
        return self.inner.poll()

    def cancel(self, tokens):
        self.cancel_requests += len(list(tokens))  # acknowledged, ignored


def _run_variants(trace):
    """The sync reference plus every async variant for one trace."""
    evaluate = _make_evaluate(trace)
    kwargs = dict(
        budget=trace["budget"],
        first_test=trace["first_test"],
        alpha=trace["alpha"],
        min_survivors=trace["min_survivors"],
        test=trace["test"],
        poll_interval=0.0,
        timeout=30,
    )
    common = (trace["configs"], trace["instances"])
    sync = race(*common, evaluate=evaluate, **kwargs)
    ignore = _IgnoreCancelSource(evaluate)
    variants = {
        "async-0": race(*common, evaluate=evaluate, mode="async",
                        lookahead=0, **kwargs),
        "async-L": race(*common, evaluate=evaluate, mode="async",
                        lookahead=trace["lookahead"], **kwargs),
        "adversarial": race(*common, evaluate=evaluate, mode="async",
                            lookahead=trace["lookahead"],
                            source=ShuffledSource(evaluate, trace["policy"]),
                            **kwargs),
        "ignore-cancel": race(*common, evaluate=evaluate, mode="async",
                              lookahead=trace["lookahead"], source=ignore,
                              **kwargs),
    }
    return sync, variants


@pytest.mark.parametrize("chunk", range(N_TRACES // CHUNK))
def test_random_race_traces_hold_all_invariants(chunk):
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        trace = _draw_trace(seed)
        sync, variants = _run_variants(trace)
        reference = sync.decision_record()

        all_ids = {c["id"] for c in trace["configs"]}
        for name, result in [("sync", sync), *variants.items()]:
            record = result.decision_record()
            assert record == reference, \
                f"seed {seed}: {name} diverged from sync"
            # Survivors and eliminated partition the field.
            assert set(result.survivors).isdisjoint(result.eliminated_after), \
                f"seed {seed}: {name} resurrected a candidate"
            assert set(result.survivors) | set(result.eliminated_after) \
                == all_ids, f"seed {seed}: {name} lost candidates"
            if trace["budget"] is not None:
                assert result.evaluations <= trace["budget"], \
                    f"seed {seed}: {name} overspent the budget"
            assert result.instances_used <= len(trace["instances"])
            assert result.wasted_evaluations >= 0


def test_alive_set_only_shrinks():
    """Direct audit of invariant 2 on traces that actually eliminate."""
    audited = 0
    for seed in range(40):
        trace = _draw_trace(seed)
        check = _ShrinkingAliveCheck()
        evaluate = _make_evaluate(trace)
        import importlib

        race_mod = importlib.import_module("repro.tuning.race")
        fn = (race_mod._friedman_eliminate if trace["test"] == "friedman"
              else race_mod._ttest_eliminate)
        state = race_mod._RaceState(
            n_configs=len(trace["configs"]),
            n_instances=len(trace["instances"]),
            eliminate_fn=check.audit(fn),
            alpha=trace["alpha"],
            budget=trace["budget"],
            first_test=trace["first_test"],
            min_survivors=trace["min_survivors"],
        )
        scheduler = race_mod.AsyncRaceScheduler(
            trace["configs"], trace["instances"],
            BatchSource(TrialCache(evaluate)), state,
            lookahead=trace["lookahead"], poll_interval=0.0, timeout=30)
        result = scheduler.run()
        if result.eliminated_after:
            audited += 1
    assert audited > 0, "no trace eliminated anything; audit is vacuous"


def test_cancellation_is_never_load_bearing():
    """A fleet that ignores cancel outright still yields identical
    decisions — only the wasted-work telemetry may grow."""
    for seed in (3, 17, 42):
        trace = _draw_trace(seed)
        evaluate = _make_evaluate(trace)
        ignore = _IgnoreCancelSource(evaluate)
        honoured = race(trace["configs"], trace["instances"],
                        evaluate=evaluate, mode="async",
                        lookahead=trace["lookahead"],
                        first_test=trace["first_test"],
                        min_survivors=trace["min_survivors"],
                        test=trace["test"], alpha=trace["alpha"],
                        poll_interval=0.0, timeout=30)
        ignored = race(trace["configs"], trace["instances"],
                       evaluate=evaluate, mode="async",
                       lookahead=trace["lookahead"], source=ignore,
                       first_test=trace["first_test"],
                       min_survivors=trace["min_survivors"],
                       test=trace["test"], alpha=trace["alpha"],
                       poll_interval=0.0, timeout=30)
        assert ignored.decision_record() == honoured.decision_record()

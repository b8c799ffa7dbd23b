"""Race conformance: async speculative scheduling decides exactly like sync.

The asynchronous race (``mode="async"``) replaces the per-step barrier
with speculative lookahead scheduling, but its elimination decisions
must be a pure function of the committed cost matrix — *which* results
are in, never *when* they arrived. This suite pins that contract:

- sync and async produce bit-identical decision records for every
  lookahead, statistical test and budget shape;
- a deterministic completion-order-shuffling fake source replays
  results in adversarial orders (reverse, interleaved, loser-first)
  and the decisions never change;
- on a virtual-clock fleet of one fast and one slow worker, lookahead
  keeps both busy (busy fraction >= 0.9) where the per-step barrier
  leaves the fast one idle;
- the same holds through the real execution stack:
  {sync, async} x {serial, fabric+worker, HTTP service+worker} all
  agree on the engine-backed race, and a full validation campaign's
  JSON is byte-identical between ``--race-mode sync`` and ``async``.
"""

import importlib
import json
import os
import random
import subprocess
import sys
import threading
import time
import types

import pytest

from repro.core.config import cortex_a53_public_config
from repro.engine import EvaluationEngine, TrialCache
from repro.engine.evaluator import AssignmentEvaluator
from repro.tuning.race import BatchSource, race
from repro.workloads.microbench import get_microbenchmark

TOKEN = "race-async-secret"


def _pure_evaluator(true_costs, sigma=0.02):
    """Deterministic pseudo-noisy cost: a pure function of (config, instance).

    Purity is the async-equivalence precondition, so the noise is seeded
    per (config, instance) rather than drawn from shared mutable state
    (the existing ``_noisy_evaluator`` depends on call order, which an
    async race legitimately changes).
    """

    def evaluate(config, instance):
        rng = random.Random(config["id"] * 1000003 + int(instance))
        return true_costs[config["id"]] + rng.gauss(0, sigma)

    return evaluate


def _decisions(mode, source=None, lookahead=2, **kwargs):
    configs = [{"id": i} for i in range(6)]
    true_costs = {0: 0.1, 1: 0.12, 2: 0.5, 3: 0.6, 4: 0.7, 5: 0.9}
    kwargs.setdefault("evaluate", _pure_evaluator(true_costs))
    kwargs.setdefault("first_test", 4)
    result = race(
        configs,
        instances=list(range(30)),
        mode=mode,
        lookahead=lookahead,
        source=source,
        timeout=60,
        poll_interval=0.0,
        **kwargs,
    )
    return result


class TestAsyncMatchesSync:
    """Decision-record equality over the default async source for plain
    callables, ``BatchSource(TrialCache(evaluate))``."""

    @pytest.mark.parametrize("lookahead", [0, 1, 2, 5, 30])
    def test_lookahead_never_changes_decisions(self, lookahead):
        sync = _decisions("sync")
        live = _decisions("async", lookahead=lookahead)
        assert live.decision_record() == sync.decision_record()
        assert live.eliminated_after  # the race actually eliminated

    @pytest.mark.parametrize("test", ["friedman", "ttest"])
    def test_both_statistical_tests_agree(self, test):
        sync = _decisions("sync", test=test)
        live = _decisions("async", test=test)
        assert live.decision_record() == sync.decision_record()

    def test_budget_cutoff_identical(self):
        sync = _decisions("sync", budget=37)
        live = _decisions("async", budget=37, lookahead=4)
        assert live.decision_record() == sync.decision_record()
        assert live.evaluations <= 37

    def test_min_survivors_identical(self):
        sync = _decisions("sync", min_survivors=3)
        live = _decisions("async", min_survivors=3, lookahead=3)
        assert live.decision_record() == sync.decision_record()
        assert len(live.survivors) >= 3

    def test_identical_configs_never_eliminated(self):
        configs = [{"id": i} for i in range(3)]
        result = race(configs, list(range(12)), evaluate=lambda c, i: 0.5,
                      first_test=3, mode="async", poll_interval=0.0)
        assert len(result.survivors) == 3

    def test_wasted_evaluations_are_telemetry_only(self):
        """Speculation may compute results it never commits; the count is
        surfaced but excluded from the decision record."""
        live = _decisions("async", lookahead=5)
        assert live.wasted_evaluations >= 0
        assert "wasted" not in str(sorted(live.decision_record()))
        sync = _decisions("sync")
        assert sync.wasted_evaluations == 0

    def test_batch_evaluate_path_identical(self):
        configs = [{"id": i} for i in range(6)]
        true_costs = {0: 0.1, 1: 0.12, 2: 0.5, 3: 0.6, 4: 0.7, 5: 0.9}
        evaluate = _pure_evaluator(true_costs)

        def batch(pairs):
            return [evaluate(c, i) for c, i in pairs]

        sync = race(configs, list(range(30)), batch_evaluate=batch,
                    first_test=4)
        live = race(configs, list(range(30)), batch_evaluate=batch,
                    first_test=4, mode="async", lookahead=3,
                    poll_interval=0.0)
        assert live.decision_record() == sync.decision_record()

    def test_trial_cache_backend_identical(self):
        """Through TrialCache the async race takes the BatchSource path
        (submit_batch/poll_batch) — decisions still match sync."""
        configs = [{"id": i} for i in range(6)]
        true_costs = {0: 0.1, 1: 0.12, 2: 0.5, 3: 0.6, 4: 0.7, 5: 0.9}

        def run(mode):
            cache = TrialCache(_pure_evaluator(true_costs))
            return race(configs, list(range(30)), cache,
                        batch_evaluate=cache.evaluate_batch, first_test=4,
                        mode=mode, lookahead=3, poll_interval=0.0,
                        timeout=60)

        assert run("async").decision_record() == run("sync").decision_record()

    def test_negative_lookahead_rejected(self):
        with pytest.raises(ValueError, match="lookahead"):
            _decisions("async", lookahead=-1)


class ShuffledSource:
    """A race source that replays completions in adversarial orders.

    Work is computed eagerly at ``submit`` (the evaluator is pure), but
    ``poll`` releases exactly one result per call, chosen by ``policy``:

    - ``"reverse"`` — newest submission first (a LIFO fleet);
    - ``"interleaved"`` — alternating oldest/newest;
    - ``"loser_first"`` — highest cost first, so the doomed candidates'
      results always arrive before the winners'.

    Any of these would corrupt a scheduler that let arrival order leak
    into its statistics; the conformance tests assert none of them can.
    """

    def __init__(self, evaluate, policy):
        self.inner = BatchSource(TrialCache(evaluate))
        self.policy = policy
        self.done = []  # [(token, cost)] computed, not yet released
        self.polls = 0

    def submit(self, requests):
        self.inner.submit(requests)
        self.done.extend(self.inner.poll())

    def poll(self):
        self.polls += 1
        if not self.done:
            return []
        if self.policy == "reverse":
            pick = len(self.done) - 1
        elif self.policy == "interleaved":
            pick = 0 if self.polls % 2 else len(self.done) - 1
        elif self.policy == "loser_first":
            pick = max(range(len(self.done)), key=lambda k: self.done[k][1])
        else:
            raise ValueError(self.policy)
        return [self.done.pop(pick)]

    def cancel(self, tokens):
        drop = set(tokens)
        self.done = [(t, c) for t, c in self.done if t not in drop]


class VirtualFleetSource:
    """A race source backed by speed-skewed workers on a virtual clock.

    ``submit`` queues requests in order; each idle worker (in list
    order) takes the next one and holds it for its own ``durations``
    entry, in virtual units. ``poll`` advances the clock to the next
    completion and returns that one result, after which the freed
    worker takes the next queued request. Nothing sleeps or runs in a
    thread, so the busy fraction is exact.
    """

    def __init__(self, evaluate, durations=(1, 10)):
        self.evaluate = evaluate
        self.durations = durations
        self.queue = []                       # [(token, config, instance)]
        self.running = [None] * len(durations)  # per worker: (finish, request)
        self.clock = 0
        self.busy = 0

    def submit(self, requests):
        self.queue.extend(requests)
        self._dispatch()

    def _dispatch(self):
        for w, duration in enumerate(self.durations):
            if self.running[w] is None and self.queue:
                self.running[w] = (self.clock + duration, self.queue.pop(0))

    def poll(self):
        holding = [w for w, job in enumerate(self.running) if job is not None]
        if not holding:
            return []
        w = min(holding, key=lambda k: self.running[k][0])
        self.clock, (token, config, instance) = self.running[w]
        self.running[w] = None
        self.busy += self.durations[w]
        self._dispatch()
        return [(token, self.evaluate(config, instance))]

    def cancel(self, tokens):
        drop = set(tokens)
        self.queue = [r for r in self.queue if r[0] not in drop]

    def busy_fraction(self):
        """Task-holding time over ``clock x workers``."""
        return self.busy / (self.clock * len(self.durations))


class TestSaturation:
    """Lookahead keeps a speed-skewed fleet busy; the barrier idles it."""

    def test_lookahead_saturates_skewed_workers(self, monkeypatch):
        def no_sleep(seconds):
            raise AssertionError(f"race slept {seconds}s on a virtual clock")

        race_module = importlib.import_module("repro.tuning.race")
        monkeypatch.setattr(race_module, "time", types.SimpleNamespace(
            sleep=no_sleep, monotonic=time.monotonic))
        configs = [{"id": 0}, {"id": 1}]
        instances = list(range(16))
        evaluate = _pure_evaluator({0: 0.1, 1: 0.12})
        sync = race(configs, instances, evaluate=evaluate, first_test=17)

        def busy_fraction(lookahead):
            source = VirtualFleetSource(evaluate)
            live = race(configs, instances, mode="async", source=source,
                        lookahead=lookahead, first_test=17,  # no elimination
                        poll_interval=0.0)
            assert live.decision_record() == sync.decision_record()
            return source.busy_fraction()

        barrier, ahead = busy_fraction(0), busy_fraction(6)
        assert ahead >= 0.9
        assert barrier < ahead
        assert barrier == pytest.approx(11 / 20)  # the slow task gates each step


class TestAdversarialCompletionOrders:
    @pytest.mark.parametrize("policy",
                             ["reverse", "interleaved", "loser_first"])
    @pytest.mark.parametrize("lookahead", [0, 3])
    def test_decisions_never_change(self, policy, lookahead):
        true_costs = {0: 0.1, 1: 0.12, 2: 0.5, 3: 0.6, 4: 0.7, 5: 0.9}
        evaluate = _pure_evaluator(true_costs)
        sync = _decisions("sync", evaluate=evaluate)
        source = ShuffledSource(evaluate, policy)
        live = _decisions("async", source=source, lookahead=lookahead,
                          evaluate=evaluate)
        assert live.decision_record() == sync.decision_record()
        assert live.eliminated_after


# ---------------------------------------------------------------------------
# The real execution stack: serial / fabric / HTTP service executors.
# ---------------------------------------------------------------------------

#: Candidates split by branch and L1D behaviour; CRd/CS1 lead the
#: instance order because they separate these axes decisively (most
#: microbenchmarks tie, which would leave nothing to eliminate).
CANDIDATES = [
    {"branch.mispredict_penalty": p, "l1d.size": s}
    for p in (4, 20) for s in (1024, 32768)
]
INSTANCES = ["CRd", "CS1", "CCa", "ED1", "MD"]
WORKLOADS = [get_microbenchmark(n) for n in INSTANCES]


def _engine_decisions(board, mode, store=None, executor=None, lookahead=3):
    engine = EvaluationEngine(hw=board.core("a53"), workloads=WORKLOADS,
                              scale=0.25, store=store, executor=executor)
    try:
        evaluator = AssignmentEvaluator(engine, cortex_a53_public_config())
        cache = TrialCache(evaluator)
        result = race(
            CANDIDATES, INSTANCES, cache,
            batch_evaluate=cache.evaluate_batch,
            test="ttest", first_test=3, alpha=0.25, min_survivors=1,
            mode=mode, lookahead=lookahead, timeout=180,
        )
        return result
    finally:
        engine.close()


@pytest.fixture(scope="module")
def sync_serial_reference(board):
    """The one decision record every executor/mode pairing must match."""
    result = _engine_decisions(board, "sync")
    assert result.eliminated_after, "reference race eliminated nothing"
    return result.decision_record()


class TestExecutorConformance:
    @pytest.mark.parametrize("lookahead", [0, 3])
    def test_async_serial(self, board, sync_serial_reference, lookahead):
        live = _engine_decisions(board, "async", lookahead=lookahead)
        assert live.decision_record() == sync_serial_reference

    def test_async_fabric_with_worker(self, board, sync_serial_reference,
                                      tmp_path):
        from repro.engine.executors import FabricExecutor
        from repro.fabric import FabricWorker
        from repro.store import open_store

        store_path = tmp_path / "race.sqlite"
        store = open_store(store_path)
        worker = FabricWorker(str(store_path), poll=0.02, lease=10)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            live = _engine_decisions(
                board, "async", store=store,
                executor=FabricExecutor(store, poll=0.02))
        finally:
            worker.stop()
            thread.join(timeout=30)
            store.close()
        assert live.decision_record() == sync_serial_reference

    def test_async_http_service_with_worker(self, board,
                                            sync_serial_reference, tmp_path):
        from repro.engine.executors import FabricExecutor
        from repro.fabric import FabricWorker
        from repro.service.server import ExperimentService
        from repro.store import open_store

        service = ExperimentService(tmp_path / "svc.sqlite", token=TOKEN,
                                    port=0).start()
        store = open_store(service.url, token=TOKEN)
        worker = FabricWorker(service.url, poll=0.02, lease=10, token=TOKEN)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            live = _engine_decisions(
                board, "async", store=store,
                executor=FabricExecutor(store, poll=0.02))
        finally:
            worker.stop()
            thread.join(timeout=30)
            store.close()
            service.stop()
            service.close()
        assert live.decision_record() == sync_serial_reference


class TestCampaignByteIdentity:
    def test_async_campaign_json_matches_sync(self, tmp_path):
        """``repro validate --race-mode async`` emits byte-identical JSON
        to the synchronous run — speculation is a parallelism knob."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        outs = {}
        for mode in ("sync", "async"):
            out = tmp_path / f"{mode}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "validate",
                 "--core", "a53", "--profile", "fast", "--stages", "1",
                 "--seed", "7", "--race-mode", mode, "--lookahead", "3",
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            outs[mode] = out.read_bytes()
        assert outs["async"] == outs["sync"]
        payload = json.loads(outs["sync"])
        assert payload["core"] == "a53" and payload["final_errors"]

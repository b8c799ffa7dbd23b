"""Unified evaluation engine: caching, batching, parallel determinism."""

import time

import pytest

from repro.core.config import cortex_a53_public_config
from repro.engine import (
    EvaluationEngine,
    TrialCache,
    make_executor,
    sim_key,
)
from repro.engine.tracestore import TraceStore
from repro.isa.decoder import BuggyDecoder, Decoder
from repro.tuning.race import race
from repro.validation.campaign import BudgetProfile, ValidationCampaign
from repro.workloads.microbench import get_microbenchmark

SUBSET_NAMES = ("ED1", "CCh", "STc", "MD", "EM1", "EF")
SUBSET = [get_microbenchmark(n) for n in SUBSET_NAMES]


def make_engine(board, **kwargs):
    kwargs.setdefault("scale", 0.5)
    kwargs.setdefault("workloads", SUBSET)
    return EvaluationEngine(hw=board.core("a53"), **kwargs)


class TestCacheKeys:
    def test_identical_flattened_configs_hit(self, board):
        engine = make_engine(board)
        config = cortex_a53_public_config()
        clone = config.with_updates({})
        assert engine.result_key(config, "ED1") == engine.result_key(clone, "ED1")
        first = engine.evaluate(config, "ED1")
        second = engine.evaluate(clone, "ED1")
        assert first == second
        assert engine.telemetry.unique_trials == 1
        assert engine.telemetry.requested_trials == 2
        assert engine.telemetry.sim_cache_hits == 1

    def test_distinct_configs_never_collide(self, board):
        engine = make_engine(board)
        config = cortex_a53_public_config()
        variants = [
            config.with_updates({"l1d.hit_latency": 4}),
            config.with_updates({"l1d.prefetcher": "stride"}),
            config.with_updates({"branch.predictor": "gshare"}),
        ]
        keys = {engine.result_key(c, "ED1") for c in [config] + variants}
        assert len(keys) == 4
        for c in [config] + variants:
            engine.evaluate(c, "ED1")
        assert engine.telemetry.unique_trials == 4

    def test_workload_distinguishes_keys(self, board):
        engine = make_engine(board)
        config = cortex_a53_public_config()
        assert engine.result_key(config, "ED1") != engine.result_key(config, "CCh")

    def test_decoder_identity_in_key(self, board):
        config = cortex_a53_public_config()
        correct = sim_key(config, "EF", 0.5, {}, Decoder())
        buggy = sim_key(config, "EF", 0.5, {}, BuggyDecoder())
        assert correct != buggy

    def test_swapping_decoder_never_reuses_stale_runs(self, board):
        engine = make_engine(board, workloads=[get_microbenchmark("DPT")])
        config = cortex_a53_public_config()
        # DPT chains FP operations through their second source operand —
        # exactly what the buggy decoder drops — so the two libraries
        # must produce different runs, not a stale cache hit.
        with_correct = engine.evaluate(config, "DPT")
        engine.decoder = BuggyDecoder()
        with_buggy = engine.evaluate(config, "DPT")
        assert engine.telemetry.unique_trials == 2
        assert with_correct != with_buggy

    def test_overrides_in_key(self, board):
        engine = make_engine(board, workloads=[get_microbenchmark("MM")])
        config = cortex_a53_public_config()
        plain = engine.result_key(config, "MM")
        engine.overrides["MM"] = {"initialized": True}
        assert engine.result_key(config, "MM") != plain


class TestTraceStore:
    def test_each_trace_built_once_per_key(self, board):
        engine = make_engine(board)
        config = cortex_a53_public_config()
        other = config.with_updates({"l1d.hit_latency": 4})
        pairs = [(c, n) for c in (config, other) for n in SUBSET_NAMES]
        engine.evaluate_batch(pairs)
        assert engine.traces.builds == len(SUBSET_NAMES)
        engine.evaluate_batch(pairs)  # all cached: no new builds
        assert engine.traces.builds == len(SUBSET_NAMES)
        assert len(engine.traces) == engine.traces.builds

    def test_override_records_new_variant(self, board):
        engine = make_engine(board, workloads=[get_microbenchmark("MM")])
        engine.trace("MM")
        engine.overrides["MM"] = {"initialized": True}
        fixed = engine.trace("MM")
        assert engine.traces.builds == 2
        assert "initialized" in fixed.name

    def test_truncated_cached_blob_raises_and_counts_no_attach(self, tmp_path):
        TraceStore(SUBSET, scale=0.5, cache_dir=tmp_path).columns("ED1", Decoder())
        (path,) = tmp_path.glob("*.rcol")
        path.write_bytes(path.read_bytes()[:-8])
        store = TraceStore(SUBSET, scale=0.5, cache_dir=tmp_path)
        with pytest.raises(ValueError, match="truncated"):
            store.columns("ED1", Decoder())
        assert store.column_attaches == 0 and store.column_persists == 0

    def test_workload_overrides_rebinding_reaches_engine(self, board):
        # Benchmarks assign campaign.workload_overrides wholesale; the
        # campaign must forward that to the engine it wraps.
        campaign = ValidationCampaign(
            board, core="a53", workloads=[get_microbenchmark("MM")]
        )
        campaign.workload_overrides = {"MM": {"initialized": True}}
        assert campaign.engine.overrides == {"MM": {"initialized": True}}
        assert "initialized" in campaign.engine.trace("MM").name

    def test_hardware_measured_once_per_workload(self, board):
        engine = make_engine(board)
        config = cortex_a53_public_config()
        engine.evaluate_batch([(config, n) for n in SUBSET_NAMES])
        engine.evaluate_batch(
            [(config.with_updates({"l2.hit_latency": 9}), n) for n in SUBSET_NAMES]
        )
        assert engine.telemetry.hw_measurements == len(SUBSET_NAMES)
        assert engine.telemetry.hw_cache_hits == len(SUBSET_NAMES)


class TestBatching:
    def test_in_batch_duplicates_run_once(self, board):
        engine = make_engine(board)
        config = cortex_a53_public_config()
        costs = engine.evaluate_batch([(config, "ED1"), (config, "ED1")])
        assert costs[0] == costs[1]
        assert engine.telemetry.unique_trials == 1
        assert engine.telemetry.sim_cache_hits == 1

    def test_serial_and_process_costs_identical(self, board):
        config = cortex_a53_public_config()
        variants = [config.with_updates({"l1d.hit_latency": v}) for v in (1, 2, 3)]
        pairs = [(c, n) for c in variants for n in SUBSET_NAMES]
        with make_engine(board, jobs=1) as serial, make_engine(board, jobs=2) as par:
            assert serial.evaluate_batch(pairs) == par.evaluate_batch(pairs)

    @pytest.mark.parametrize("entry", ["simulate_batch", "submit_batch"])
    @pytest.mark.parametrize("jobs,n_configs,batched", [
        (1, 6, 6),   # serial: the whole group shares one pass
        (2, 6, 6),   # two pool chunks of three configs each
        (2, 2, 0),   # two one-config chunks: nothing shared
    ])
    def test_fusion_accounting_counts_shared_passes(self, board, entry, jobs,
                                                    n_configs, batched):
        config = cortex_a53_public_config()
        pairs = [(config.with_updates({"l1d.hit_latency": v}), "ED1")
                 for v in range(1, n_configs + 1)]
        with make_engine(board, jobs=jobs) as engine:
            if entry == "simulate_batch":
                engine.simulate_batch(pairs)
            else:
                ticket = engine.submit_batch(pairs)
                got: dict = {}
                deadline = time.monotonic() + 60
                while len(got) < len(pairs) and time.monotonic() < deadline:
                    got.update(engine.poll_batch(ticket))
                    time.sleep(0.005)
                assert len(got) == len(pairs)
            length = engine.trace("ED1").instruction_count()
            assert engine.telemetry.batched_trials == batched
            assert engine.telemetry.shared_pass_instructions == batched * length

    def test_executor_factory(self):
        assert make_executor(1).name == "serial"
        assert make_executor(4).name == "process"
        assert make_executor(4, "serial").name == "serial"
        with pytest.raises(ValueError):
            make_executor(2, "gpu")


def _blocking(trials, pairs):
    return trials.evaluate_batch(pairs)


def _ticketed(trials, pairs):
    ticket = trials.submit_batch(pairs)
    got = trials.poll_batch(ticket)
    return [got[idx] for idx in range(len(pairs))]


#: TrialCache's two batch entry points; without a backend one poll
#: completes a ticket, so both must answer and account identically.
BATCH_PATHS = [pytest.param(_blocking, id="evaluate_batch"),
               pytest.param(_ticketed, id="submit_poll")]


class TestTrialCache:
    @pytest.mark.parametrize("run_batch", BATCH_PATHS)
    def test_memoises_and_counts(self, run_batch):
        calls = []

        def evaluate(assignment, instance):
            calls.append((tuple(sorted(assignment.items())), instance))
            return assignment["x"] + instance

        trials = TrialCache(evaluate)
        assert trials({"x": 1}, 10) == 11
        assert run_batch(trials, [({"x": 1}, 10)]) == [11]
        assert run_batch(trials, [({"x": 1}, 10), ({"x": 2}, 10)]) == [11, 12]
        assert calls == [((("x", 1),), 10), ((("x", 2),), 10)]
        assert trials.unique_trials == 2
        assert trials.requested_trials == 4
        assert trials.store_hits == 0

    @pytest.mark.parametrize("run_batch", BATCH_PATHS)
    def test_batch_deduplicates(self, run_batch):
        calls = []

        def batch(pairs):
            calls.append(len(pairs))
            return [a["x"] for a, _ in pairs]

        trials = TrialCache(batch_evaluate=batch)
        out = run_batch(trials, [({"x": 5}, "i"), ({"x": 5}, "i"), ({"x": 6}, "i")])
        assert out == [5, 5, 6]
        assert calls == [2]
        assert trials.unique_trials == 2
        assert trials.requested_trials == 3

    def test_cancel_before_first_poll_skips_withdrawn_keys(self):
        """Without a backend the remainder runs at the first poll, so a
        key every requesting index withdrew never reaches the evaluator;
        a key one live index still wants runs."""
        calls = []

        def batch(pairs):
            calls.append([a["x"] for a, _ in pairs])
            return [float(a["x"]) for a, _ in pairs]

        trials = TrialCache(batch_evaluate=batch)
        ticket = trials.submit_batch([({"x": 1}, "i"), ({"x": 2}, "i"),
                                      ({"x": 2}, "i"), ({"x": 3}, "i")])
        trials.cancel_batch(ticket, [0, 1])
        assert trials.poll_batch(ticket) == {1: 2.0, 2: 2.0, 3: 3.0}
        assert calls == [[2, 3]]
        assert trials.poll_batch(ticket) == {}
        assert calls == [[2, 3]]
        assert trials.unique_trials == 2
        # The withdrawn key was never memoised: a later batch computes it.
        assert trials({"x": 1}, "i") == 1.0
        assert calls == [[2, 3], [1]]

    def test_requires_an_evaluator(self):
        with pytest.raises(ValueError):
            TrialCache()


class TestRaceBatch:
    def test_batch_path_matches_scalar_path(self):
        configs = [{"id": i} for i in range(5)]
        true_costs = {0: 0.1, 1: 0.5, 2: 0.6, 3: 0.2, 4: 0.9}

        def evaluate(config, instance):
            return true_costs[config["id"]] + 0.01 * (instance % 3)

        def batch(pairs):
            return [evaluate(c, i) for c, i in pairs]

        scalar = race(configs, list(range(12)), evaluate, first_test=3)
        batched = race(configs, list(range(12)), batch_evaluate=batch, first_test=3)
        assert scalar.survivors == batched.survivors
        assert scalar.mean_costs == batched.mean_costs
        assert scalar.evaluations == batched.evaluations
        assert scalar.eliminated_after == batched.eliminated_after

    def test_race_needs_some_evaluator(self):
        with pytest.raises(ValueError):
            race([{"id": 0}], [0])


class TestParallelDeterminism:
    """jobs=1 and jobs=2 must produce bit-identical campaign results."""

    PROFILE = BudgetProfile("engine-test", 120, 120, microbench_scale=0.3,
                            first_test=4, n_elites=2)

    def _run(self, board, jobs):
        campaign = ValidationCampaign(
            board, core="a53", profile=self.PROFILE, seed=11,
            workloads=SUBSET, jobs=jobs,
        )
        try:
            return campaign.run(stages=2), campaign.engine
        finally:
            campaign.close()

    def test_campaign_identical_and_traces_built_once(self, board):
        serial_result, serial_engine = self._run(board, jobs=1)
        parallel_result, parallel_engine = self._run(board, jobs=2)

        assert serial_result.untuned_errors == parallel_result.untuned_errors
        assert serial_result.final_errors == parallel_result.final_errors
        assert (serial_result.stages[-1].irace.best_assignment
                == parallel_result.stages[-1].irace.best_assignment)
        assert (serial_result.stages[-1].irace.best_cost
                == parallel_result.stages[-1].irace.best_cost)

        # Each workload trace recorded at most once per (scale, overrides)
        # across the entire campaign.
        for engine in (serial_engine, parallel_engine):
            assert engine.traces.builds == len(engine.traces)
            assert engine.traces.builds == len(SUBSET)
            assert engine.telemetry.unique_trials < engine.telemetry.requested_trials

    def test_irace_accounting_consistent(self, board):
        result, _engine = self._run(board, jobs=1)
        for stage in result.stages:
            assert stage.irace.total_evaluations == stage.irace.unique_trials
            assert stage.irace.requested_trials >= stage.irace.unique_trials
            assert "unique trials" in stage.irace.summary()

"""Engine <-> persistent store integration and telemetry edge cases."""

import pytest

from repro.core.config import cortex_a53_public_config
from repro.engine import EngineTelemetry, EvaluationEngine, TrialCache
from repro.store import open_store
from repro.workloads.microbench import get_microbenchmark
from tests.test_engine import BATCH_PATHS

NAMES = ("ED1", "CCh", "STc", "MD")
WORKLOADS = [get_microbenchmark(n) for n in NAMES]


def make_engine(board, store=None, **kwargs):
    kwargs.setdefault("scale", 0.5)
    return EvaluationEngine(hw=board.core("a53"), workloads=WORKLOADS,
                            store=store, **kwargs)


class TestEngineTelemetry:
    def test_zero_trial_hit_rate_is_zero(self):
        telemetry = EngineTelemetry()
        assert telemetry.hit_rate() == 0.0

    def test_hit_rate(self):
        telemetry = EngineTelemetry(requested_trials=4, sim_cache_hits=3)
        assert telemetry.hit_rate() == pytest.approx(0.75)

    def test_summary_wording(self):
        telemetry = EngineTelemetry(
            requested_trials=10, unique_trials=4, sim_cache_hits=6,
            hw_measurements=2,
        )
        assert telemetry.summary() == (
            "10 trials requested, 4 unique simulations "
            "(60% cache hits), 2 hardware measurements"
        )

    def test_zero_trial_summary(self):
        assert EngineTelemetry().summary() == (
            "0 trials requested, 0 unique simulations "
            "(0% cache hits), 0 hardware measurements"
        )

    def test_summary_mentions_store_hits_only_when_present(self):
        quiet = EngineTelemetry(requested_trials=1, unique_trials=1)
        assert "store" not in quiet.summary()
        warm = EngineTelemetry(requested_trials=1, sim_cache_hits=1, store_hits=1)
        assert warm.summary().endswith("1 store hits")


class TestStoreSharing:
    def test_two_engines_share_one_sqlite_store(self, board, tmp_path):
        path = str(tmp_path / "exp.sqlite")
        config = cortex_a53_public_config()
        pairs = [(config, name) for name in NAMES]

        with open_store(path) as store:
            cold = make_engine(board, store=store)
            first = cold.evaluate_batch(pairs)
            assert cold.telemetry.unique_trials == len(NAMES)
            assert cold.telemetry.store_hits == 0
            cold.close()

        # A separate connection — as another process would open.
        with open_store(path) as store:
            warm = make_engine(board, store=store)
            second = warm.evaluate_batch(pairs)
            assert second == first
            assert warm.telemetry.unique_trials == 0
            assert warm.telemetry.hw_measurements == 0
            assert warm.telemetry.hit_rate() == 1.0
            # sim results + hw measurements all served from the store
            assert warm.telemetry.store_hits == 2 * len(NAMES)
            warm.close()

    def test_interleaved_engines_on_one_store(self, board, tmp_path):
        config = cortex_a53_public_config()
        with open_store(str(tmp_path / "exp.sqlite")) as store:
            a = make_engine(board, store=store)
            b = make_engine(board, store=store)
            ra = a.simulate(config, "ED1")
            rb = b.simulate(config, "ED1")  # hits via the store, not memory
            assert ra == rb
            assert b.telemetry.unique_trials == 0
            assert b.telemetry.store_hits == 1
            a.close(), b.close()

    def test_jobs2_workers_share_warm_store_hits(self, board, tmp_path):
        """A parallel engine re-simulates nothing the store already has."""
        config = cortex_a53_public_config()
        variant = config.with_updates({"l1d.hit_latency": 4})
        warm_pairs = [(config, name) for name in NAMES]
        all_pairs = warm_pairs + [(variant, name) for name in NAMES]

        with open_store(str(tmp_path / "exp.sqlite")) as store:
            serial = make_engine(board, store=store)
            warm = serial.simulate_batch(warm_pairs)
            serial.close()

            parallel = make_engine(board, store=store, jobs=2)
            try:
                results = parallel.simulate_batch(all_pairs)
            finally:
                parallel.close()
        # Warm half came from the store; only the variant half simulated,
        # and the parallel results are bit-identical to the serial ones.
        assert parallel.telemetry.store_hits == len(NAMES)
        assert parallel.telemetry.unique_trials == len(NAMES)
        assert results[:len(NAMES)] == warm

        fresh = make_engine(board)
        expected = fresh.simulate_batch(all_pairs)
        fresh.close()
        assert results == expected

    def test_store_survives_for_memory_backend_too(self, board):
        config = cortex_a53_public_config()
        with open_store("memory") as store:
            one = make_engine(board, store=store)
            one.evaluate(config, "ED1")
            one.close()
            two = make_engine(board, store=store)
            two.evaluate(config, "ED1")
            assert two.telemetry.unique_trials == 0
            assert two.telemetry.store_hits == 2  # sim + hw
            two.close()


class TestTrialCachePersistence:
    def test_costs_replay_from_store_under_same_context(self):
        calls = []

        def evaluate(assignment, instance):
            calls.append((tuple(sorted(assignment.items())), instance))
            return float(len(calls))

        with open_store("memory") as store:
            first = TrialCache(evaluate, store=store, context="run/stage1")
            assert first({"a": 1}, "ED1") == 1.0
            assert first({"a": 2}, "ED1") == 2.0
            assert len(calls) == 2

            # Same context: replayed from the store, evaluator untouched.
            second = TrialCache(evaluate, store=store, context="run/stage1")
            assert second({"a": 1}, "ED1") == 1.0
            assert second({"a": 2}, "ED1") == 2.0
            assert len(calls) == 2
            assert second.unique_trials == 0 and second.store_hits == 2

            # Different context: recomputed.
            third = TrialCache(evaluate, store=store, context="run/stage2")
            third({"a": 1}, "ED1")
            assert len(calls) == 3

    def test_no_context_disables_persistence(self):
        with open_store("memory") as store:
            cache = TrialCache(lambda a, i: 1.0, store=store, context=None)
            cache({"a": 1}, "ED1")
            assert store.stats()["trial_costs"] == 0


def _count_calls(monkeypatch, obj, name):
    """Wrap ``obj.name`` so each call's first argument is recorded."""
    calls = []
    original = getattr(obj, name)

    def spy(arg, *args, **kwargs):
        arg = list(arg)
        calls.append(arg)
        return original(arg, *args, **kwargs)

    monkeypatch.setattr(obj, name, spy)
    return calls


def _forbid(monkeypatch, obj, name):
    """Make ``obj.name`` fail the test if anything calls it."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called; batches must use the bulk read")

    monkeypatch.setattr(obj, name, refuse)


class TestBatchedStoreReads:
    def test_prepare_batch_telemetry_with_duplicates_and_both_hit_kinds(
            self, monkeypatch):
        base = cortex_a53_public_config()
        a, b, c, d = (base.with_updates({"l1d.hit_latency": n}) for n in (2, 3, 4, 5))
        with open_store("memory") as store:
            # b reaches the store through another engine: a store hit here.
            with EvaluationEngine(workloads=WORKLOADS, scale=0.25,
                                  store=store) as other:
                other.simulate(b, "ED1")
            engine = EvaluationEngine(workloads=WORKLOADS, scale=0.25, store=store)
            engine.simulate(a, "ED1")  # a: an in-memory hit from here on
            before = EngineTelemetry(**vars(engine.telemetry))
            reads = _count_calls(monkeypatch, store, "get_sims")
            _forbid(monkeypatch, store, "get_sim")

            pairs = [(a, "ED1"), (b, "ED1"), (c, "ED1"), (b, "ED1"),
                     (c, "ED1"), (d, "ED1"), (a, "ED1")]
            out = engine.simulate_batch(pairs)

            t = engine.telemetry
            assert t.requested_trials - before.requested_trials == 7
            # a twice (memory), b twice (store, then memory), c's repeat
            # (deduplicated in the batch); c and d run once each.
            assert t.sim_cache_hits - before.sim_cache_hits == 5
            assert t.store_hits - before.store_hits == 1
            assert t.unique_trials - before.unique_trials == 2
            # One read for the whole batch, carrying each key the
            # in-memory cache missed exactly once (a is never asked).
            assert len(reads) == 1
            assert sorted(map(repr, reads[0])) == sorted(
                repr(engine.result_key(cfg, "ED1")) for cfg in (b, c, d))
            assert out[1] is out[3] and out[2] is out[4] and out[0] is out[6]
            engine.close()

    @pytest.mark.parametrize("run_batch", BATCH_PATHS)
    def test_trial_cache_batch_reads_the_store_once(self, monkeypatch, run_batch):
        calls = []

        def evaluate(assignment, instance):
            calls.append(assignment["a"])
            return float(assignment["a"])

        def row(a):
            return (("cost", "run/stage1", (("a", a),), "ED1"), float(a))

        with open_store("memory") as store:
            writes = _count_calls(monkeypatch, store, "put_cost_many")
            first = TrialCache(evaluate, store=store, context="run/stage1")
            assert run_batch(first, [({"a": 1}, "ED1"), ({"a": 2}, "ED1")]) == [1.0, 2.0]
            assert writes == [[row(1), row(2)]]
            calls.clear()

            second = TrialCache(evaluate, store=store, context="run/stage1")
            reads = _count_calls(monkeypatch, store, "get_costs")
            _forbid(monkeypatch, store, "get_cost")
            out = run_batch(second, [({"a": 1}, "ED1"), ({"a": 3}, "ED1"),
                                     ({"a": 2}, "ED1"), ({"a": 3}, "ED1"),
                                     ({"a": 1}, "ED1")])
            assert out == [1.0, 3.0, 2.0, 3.0, 1.0]
            assert len(reads) == 1 and len(reads[0]) == 3
            assert calls == [3]
            assert writes == [[row(1), row(2)], [row(3)]]
            assert second.store_hits == 2 and second.unique_trials == 1
            assert second.requested_trials == 5

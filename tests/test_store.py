"""Persistent experiment store: backends, registry, housekeeping."""

import threading

import pytest

from repro.core.config import cortex_a53_public_config
from repro.engine import EvaluationEngine
from repro.engine.keys import hw_key, sim_key
from repro.store import (
    SCHEMA_VERSION,
    MemoryBackend,
    ResultStore,
    SqliteBackend,
    open_store,
)
from repro.store.serialize import (
    encode_key,
    perf_from_payload,
    perf_to_payload,
    stats_from_payload,
    stats_to_payload,
)
from repro.workloads.microbench import get_microbenchmark

WORKLOADS = [get_microbenchmark(n) for n in ("ED1", "CCh")]


def make_engine(board, store=None, core="a53", **kwargs):
    kwargs.setdefault("scale", 0.5)
    return EvaluationEngine(hw=board.core(core), workloads=WORKLOADS,
                            store=store, **kwargs)


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        with open_store("memory") as s:
            yield s
    else:
        with open_store(str(tmp_path / "exp.sqlite")) as s:
            yield s


class TestSerialisation:
    def test_sim_stats_round_trip(self, board):
        engine = make_engine(board)
        stats = engine.simulate(cortex_a53_public_config(), "ED1")
        rebuilt = stats_from_payload(stats_to_payload(stats))
        assert rebuilt == stats

    def test_perf_result_round_trip(self, board):
        engine = make_engine(board)
        result = engine.measure_hw("ED1")
        rebuilt = perf_from_payload(perf_to_payload(result))
        assert rebuilt == result

    def test_key_encoding_is_content_addressed(self):
        config = cortex_a53_public_config()
        key = sim_key(config, "ED1", 0.5, {}, None.__class__)
        clone = sim_key(config.with_updates({}), "ED1", 0.5, {}, None.__class__)
        assert encode_key(key) == encode_key(clone)
        other = sim_key(config.with_updates({"l1d.hit_latency": 4}),
                        "ED1", 0.5, {}, None.__class__)
        assert encode_key(key) != encode_key(other)


class TestResultStore:
    def test_sim_round_trip(self, store, board):
        engine = make_engine(board)
        config = cortex_a53_public_config()
        stats = engine.simulate(config, "ED1")
        key = engine.result_key(config, "ED1")
        assert store.get_sim(key) is None
        store.put_sim(key, stats)
        assert store.get_sim(key) == stats

    def test_hw_round_trip(self, store, board):
        engine = make_engine(board)
        result = engine.measure_hw("ED1")
        key = hw_key("a53", "ED1", 0.5, {})
        store.put_hw(key, result)
        assert store.get_hw(key) == result
        assert store.get_hw(hw_key("a72", "ED1", 0.5, {})) is None

    def test_cost_round_trip(self, store):
        key = ("cost", "run-1/stage1", (("l1d.hit_latency", 3),), "ED1")
        assert store.get_cost(key) is None
        store.put_cost_many([(key, 0.123456789012345)])
        assert store.get_cost(key) == 0.123456789012345

    def test_checkpoints(self, store):
        store.put_checkpoint("run-a", "stage1", {"x": 1})
        store.put_checkpoint("run-a", "stage2", {"x": 2})
        store.put_checkpoint("run-b", "stage1", {"x": 3})
        assert store.get_checkpoint("run-a", "stage1") == {"x": 1}
        assert store.get_checkpoint("run-a", "missing") is None
        assert sorted(store.list_checkpoints("run-a")) == ["stage1", "stage2"]
        assert store.delete_checkpoints("run-a") == 2
        assert store.list_checkpoints("run-a") == []
        assert store.get_checkpoint("run-b", "stage1") == {"x": 3}

    def test_stats_counts(self, store, board):
        engine = make_engine(board, store=store)
        engine.evaluate(cortex_a53_public_config(), "ED1")
        stats = store.stats()
        assert stats["sim_results"] == 1
        assert stats["hw_results"] == 1
        assert stats["schema_version"] == SCHEMA_VERSION
        assert stats["backend"] in ("memory", "sqlite")

    def test_export_import_round_trip(self, store, board, tmp_path):
        engine = make_engine(board, store=store)
        engine.evaluate(cortex_a53_public_config(), "ED1")
        out = str(tmp_path / "export.json")
        counts = store.export_json(out)
        assert counts["sim_results"] == 1 and counts["hw_results"] == 1

        with open_store("memory") as other:
            imported = other.import_json(out)
            assert imported["sim_results"] == 1
            key = engine.result_key(cortex_a53_public_config(), "ED1")
            assert other.get_sim(key) == engine.simulate(
                cortex_a53_public_config(), "ED1")
            # Idempotent: a second import adds nothing.
            assert sum(other.import_json(out).values()) == 0

    def test_import_rejects_wrong_schema(self, store, tmp_path):
        from repro.analysis.io import save_result_json

        bad = str(tmp_path / "bad.json")
        save_result_json(bad, {"schema_version": 999, "tables": {}})
        with pytest.raises(RuntimeError, match="schema"):
            store.import_json(bad)

    def test_gc_drops_finished_runs_checkpoints(self, store):
        reg = store.registry
        done = reg.create("validate", core="a53")
        live = reg.create("validate", core="a72")
        store.put_checkpoint(done.run_id, "stage1", {"x": 1})
        store.put_checkpoint(live.run_id, "stage1", {"x": 2})
        reg.finish(done.run_id)
        removed = store.gc()
        assert removed["checkpoints_removed"] == 1
        assert store.get_checkpoint(done.run_id, "stage1") is None
        assert store.get_checkpoint(live.run_id, "stage1") == {"x": 2}

    def test_gc_prunes_old_rows(self, store):
        store.backend.put("sim_results", "old-key", "{}")
        # Everything just written is younger than any positive cutoff...
        assert store.gc(days=1)["rows_pruned"] == 0
        # ...and older than a cutoff in the future (negative days).
        assert store.gc(days=-1)["rows_pruned"] == 1


class TestRunRegistry:
    def test_create_get_finish(self, store):
        reg = store.registry
        record = reg.create("validate", core="a53", profile="fast", seed=7,
                            params={"stages": 2})
        assert record.status == "running"
        fetched = reg.get(record.run_id)
        assert fetched.core == "a53" and fetched.seed == 7
        assert fetched.params == {"stages": 2}
        done = reg.finish(record.run_id, telemetry={"unique_trials": 5})
        assert done.status == "completed"
        assert done.wall_seconds >= 0.0
        assert reg.get(record.run_id).telemetry == {"unique_trials": 5}

    def test_duplicate_run_id_rejected(self, store):
        store.registry.create("validate", run_id="fixed")
        with pytest.raises(ValueError, match="already registered"):
            store.registry.create("validate", run_id="fixed")

    def test_unknown_run_id(self, store):
        with pytest.raises(KeyError):
            store.registry.get("nope")

    def test_list_filters_and_orders(self, store):
        reg = store.registry
        a = reg.create("validate", core="a53")
        b = reg.create("sweep", core="a53")
        reg.finish(b.run_id)
        assert [r.run_id for r in reg.list(kind="validate")] == [a.run_id]
        assert [r.run_id for r in reg.list(status="completed")] == [b.run_id]
        assert len(reg.list()) == 2
        assert reg.latest(kind="sweep").run_id == b.run_id

    def test_reopen_marks_running(self, store):
        record = store.registry.create("validate")
        store.registry.finish(record.run_id, status="interrupted")
        reopened = store.registry.reopen(record.run_id)
        assert reopened.status == "running" and reopened.finished is None

    def test_summary_mentions_identity(self, store):
        record = store.registry.create("validate", core="a53", profile="fast")
        assert "validate" in record.summary() and "a53" in record.summary()


class TestBackends:
    def test_memory_and_sqlite_agree(self, tmp_path):
        mem, sql = MemoryBackend(), SqliteBackend(str(tmp_path / "b.sqlite"))
        for backend in (mem, sql):
            assert backend.put("sim_results", "k1", "v1")
            assert not backend.put("sim_results", "k1", "v2", replace=False)
            assert backend.get("sim_results", "k1") == "v1"
            backend.put("sim_results", "k1", "v2")
            assert backend.get("sim_results", "k1") == "v2"
            assert backend.count("sim_results") == 1
            assert [row[0] for row in backend.items("sim_results")] == ["k1"]
            assert backend.delete("sim_results", "k1")
            assert not backend.delete("sim_results", "k1")
        sql.close()

    def test_sqlite_schema_version_mismatch_fails(self, tmp_path):
        path = str(tmp_path / "v.sqlite")
        backend = SqliteBackend(path)
        backend._conn.execute(
            "UPDATE store_meta SET value = '999' WHERE key = 'schema_version'")
        backend.close()
        with pytest.raises(RuntimeError, match="schema v999"):
            SqliteBackend(path)

    def test_sqlite_two_connections_share_rows(self, tmp_path):
        path = str(tmp_path / "shared.sqlite")
        one, two = SqliteBackend(path), SqliteBackend(path)
        one.put("sim_results", "k", "from-one")
        assert two.get("sim_results", "k") == "from-one"
        two.put("hw_results", "h", "from-two")
        assert one.get("hw_results", "h") == "from-two"
        one.close(), two.close()

    def test_sqlite_concurrent_writers(self, tmp_path):
        path = str(tmp_path / "conc.sqlite")
        backends = [SqliteBackend(path) for _ in range(2)]

        def write(backend, tag):
            for i in range(50):
                backend.put("trial_costs", f"{tag}-{i}", str(i))

        threads = [threading.Thread(target=write, args=(b, t))
                   for b, t in zip(backends, ("a", "b"))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert backends[0].count("trial_costs") == 100
        for b in backends:
            b.close()

    def test_open_store_specs(self, tmp_path):
        assert open_store("memory").backend.kind == "memory"
        assert open_store(":memory:").backend.kind == "memory"
        disk = open_store(str(tmp_path / "sub" / "dir" / "s.sqlite"))
        assert disk.backend.kind == "sqlite"
        disk.close()

    def test_result_store_wraps_any_backend(self):
        store = ResultStore(MemoryBackend())
        assert store.stats()["backend"] == "memory"


class TestInChunks:
    def test_chunks_at_500_and_pads_to_a_power_of_two(self):
        from repro.store.backend import in_chunks

        keys = [f"k{i}" for i in range(1100)]
        chunks = list(in_chunks(keys))
        assert [len(chunk) for chunk, _marks in chunks] == [512, 512, 128]
        for chunk, marks in chunks:
            assert marks.count("?") == len(chunk)
        # Padding repeats each chunk's last key; the keys are all there.
        assert [dict.fromkeys(chunk) for chunk, _marks in chunks] == [
            dict.fromkeys(keys[i:i + 500]) for i in (0, 500, 1000)]
        assert list(in_chunks([])) == []

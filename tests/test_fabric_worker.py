"""Fabric worker + executor: distributed runs equal serial runs."""

import contextlib
import sqlite3
import threading
import time

import pytest

from repro.core.config import cortex_a53_public_config
from repro.engine import EvaluationEngine
from repro.engine.executors import FabricExecutor, make_executor
from repro.fabric import (
    FabricWorker,
    JobQueue,
    plan_simulations,
    sim_task,
    status_snapshot,
)
from repro.fabric.tasks import rebuild_config, resolve_decoder
from repro.isa.decoder import BuggyDecoder, Decoder
from repro.store import open_store
from repro.store.serialize import dumps, encode_key, stats_to_payload
from repro.workloads.microbench import MICROBENCHMARKS

WORKLOADS = [MICROBENCHMARKS[n] for n in ("CCa", "ED1", "MD")]
SCALE = 0.5


@pytest.fixture()
def store_path(tmp_path):
    return str(tmp_path / "fabric.sqlite")


def run_worker_in_background(store_path, **kwargs):
    """A worker thread draining the queue until stopped."""
    kwargs.setdefault("lease", 10.0)
    kwargs.setdefault("poll", 0.02)
    worker = FabricWorker(store_path, **kwargs)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


class TestTaskSpecs:
    def test_sim_task_key_is_the_store_address(self):
        config = cortex_a53_public_config()
        key, payload = sim_task(config, "CCa", SCALE, {}, Decoder())
        assert key.startswith("('sim'")
        assert payload["workload"] == "CCa"
        assert payload["config"]["core_type"] == "inorder"

    def test_rebuild_config_round_trips(self):
        config = cortex_a53_public_config().with_updates({"l1d.size": 16384})
        rebuilt = rebuild_config(config.flatten())
        assert rebuilt.flatten() == config.flatten()

    def test_resolve_decoder_round_trips(self):
        from repro.fabric.tasks import decoder_spec

        assert isinstance(resolve_decoder(decoder_spec(Decoder())), Decoder)
        assert isinstance(resolve_decoder(decoder_spec(BuggyDecoder())), BuggyDecoder)

    def test_resolve_decoder_rejects_non_decoders(self):
        with pytest.raises(TypeError, match="Decoder"):
            resolve_decoder("repro.core.config:SimConfig")


class TestPlanning:
    def test_expand_grid_feeds_the_planner(self):
        from repro.fabric import expand_grid

        base = cortex_a53_public_config()
        items = expand_grid(base, {"l1d.size": [16384, 32768]},
                            ["CCa", "ED1"], scale=SCALE)
        assert len(items) == 4  # 2 configs x 2 workloads
        plan = plan_simulations(items)
        assert len(plan.keys) == 4
        configs = {config.l1d.size for config, *_rest in items}
        assert configs == {16384, 32768}

    def test_expand_grid_empty_grid_is_base_config(self):
        from repro.fabric import expand_grid

        base = cortex_a53_public_config()
        items = expand_grid(base, {}, ["CCa"], scale=SCALE)
        assert len(items) == 1
        config, workload, scale, overrides, decoder = items[0]
        assert config.flatten() == base.flatten()
        assert workload == "CCa" and scale == SCALE and overrides == {}
        assert isinstance(decoder, Decoder)

    def test_plan_deduplicates_within_batch(self):
        config = cortex_a53_public_config()
        items = [(config, "CCa", SCALE, {}, Decoder())] * 3
        plan = plan_simulations(items)
        assert len(plan.tasks) == 1 and len(plan.keys) == 1

    def test_plan_deduplicates_against_store(self, store_path):
        config = cortex_a53_public_config()
        store = open_store(store_path)
        items = [(config, "CCa", SCALE, {}, Decoder())]
        # Prime the store through a normal engine run.
        with EvaluationEngine(workloads=WORKLOADS, scale=SCALE, store=store) as eng:
            eng.simulate(config, "CCa")
        plan = plan_simulations(items, store=store)
        assert plan.tasks == [] and plan.store_hits == plan.keys
        store.close()

    def test_plan_reports_every_item_key_in_input_order(self):
        base = cortex_a53_public_config()
        other = base.with_updates({"l1d.hit_latency": 4})
        items = [(base, "CCa", SCALE, {}, Decoder()),
                 (other, "CCa", SCALE, {}, Decoder()),
                 (base, "CCa", SCALE, {}, Decoder())]
        plan = plan_simulations(items)
        assert plan.item_keys == [sim_task(*item)[0] for item in items]
        assert plan.item_keys[0] == plan.item_keys[2] != plan.item_keys[1]
        assert plan.keys == plan.item_keys[:2]

    def test_plan_checks_the_store_with_one_undecoded_read(
            self, store_path, monkeypatch):
        base = cortex_a53_public_config()
        configs = [base.with_updates({"l1d.hit_latency": n}) for n in (2, 3, 4)]
        store = open_store(store_path)
        with EvaluationEngine(workloads=WORKLOADS, scale=SCALE, store=store) as eng:
            eng.simulate(configs[0], "CCa")
        reads = []
        get_many = store.backend.get_many

        def spy(table, keys):
            reads.append((table, list(keys)))
            return get_many(table, keys)

        def refuse(*args, **kwargs):
            raise AssertionError("planning decoded or read a row singly")

        monkeypatch.setattr(store.backend, "get_many", spy)
        monkeypatch.setattr(store.backend, "get", refuse)
        monkeypatch.setattr(store, "get_sim", refuse)
        monkeypatch.setattr(store, "get_sims", refuse)
        items = [(config, "CCa", SCALE, {}, Decoder())
                 for config in (*configs, configs[1])]
        plan = plan_simulations(items, store=store)
        assert reads == [("sim_results", plan.keys)] and len(plan.keys) == 3
        assert plan.store_hits == plan.keys[:1]
        assert [key for key, _kind, _payload in plan.tasks] == plan.keys[1:]
        store.close()


class TestWorkerExecution:
    def test_drain_executes_and_persists(self, store_path):
        config = cortex_a53_public_config()
        store = open_store(store_path)
        plan = plan_simulations([(config, "CCa", SCALE, {}, Decoder())])
        with JobQueue(store_path) as queue:
            queue.enqueue(plan.tasks)
        stats = FabricWorker(store_path, drain=True, poll=0.02).run()
        assert stats.claimed == 1 and stats.completed == 1 and stats.failed == 0
        assert store.get_sim(plan.keys[0]) is not None
        store.close()

    def test_worker_results_match_serial(self, store_path):
        config = cortex_a53_public_config()
        with EvaluationEngine(workloads=WORKLOADS, scale=SCALE) as eng:
            ref = eng.simulate(config, "ED1")
        plan = plan_simulations([(config, "ED1", SCALE, {}, Decoder())])
        with JobQueue(store_path) as queue:
            queue.enqueue(plan.tasks)
        FabricWorker(store_path, drain=True, poll=0.02).run()
        with open_store(store_path) as store:
            assert store.get_sim(plan.keys[0]) == ref

    def test_unknown_kind_dead_letters(self, store_path):
        with JobQueue(store_path) as queue:
            queue.enqueue([("bad-task", "mystery", {})])
        stats = FabricWorker(store_path, max_tasks=3, drain=True, poll=0.02).run()
        assert stats.failed >= 1
        with JobQueue(store_path) as queue:
            # Budget takes three failures to exhaust; drain again.
            while queue.counts()["dead"] == 0:
                FabricWorker(store_path, drain=True, poll=0.02).run()
            (dead,) = queue.dead()
        assert "unknown task kind" in dead[2]

    def test_max_tasks_bounds_the_session(self, store_path):
        config = cortex_a53_public_config()
        items = [(config, name, SCALE, {}, Decoder()) for name in ("CCa", "ED1")]
        plan = plan_simulations(items)
        with JobQueue(store_path) as queue:
            queue.enqueue(plan.tasks)
        stats = FabricWorker(store_path, max_tasks=1, poll=0.02).run()
        assert stats.claimed == 1
        with JobQueue(store_path) as queue:
            assert queue.depth() == 1

    def test_claim_budget_honours_max_tasks(self, store_path, monkeypatch):
        """The session claims exactly its budget: nothing is claimed
        past ``max_tasks`` only to be released again on exit."""
        keys = [f"t{i}" for i in range(5)]
        with JobQueue(store_path) as queue:
            queue.enqueue([(key, "sleep", {"seconds": 0.0}) for key in keys])
        worker = FabricWorker(store_path, max_tasks=2, poll=0.02)
        released = []
        monkeypatch.setattr(worker.queue, "release",
                            lambda key, worker_id: released.append(key))
        stats = worker.run()
        assert stats.claimed == 2 and stats.completed == 2
        assert released == []
        rows = task_rows(store_path)
        assert sorted(rows.values()) == [("done", 1)] * 2 + [("queued", 0)] * 3


class TestWriteBehindReads:
    def test_get_sims_answers_buffer_and_precheck_without_the_backend(
            self, store_path, monkeypatch):
        base = cortex_a53_public_config()
        with EvaluationEngine(workloads=WORKLOADS, scale=SCALE) as eng:
            buffered, prechecked, missed, cold = (
                eng.result_key(base.with_updates({"l1d.hit_latency": n}), "CCa")
                for n in (2, 3, 4, 5))
            stats = eng.simulate(base, "CCa")
        worker = FabricWorker(store_path)
        try:
            worker._buffer_results([(buffered, stats)])
            worker._precheck[encode_key(prechecked)] = dumps(stats_to_payload(stats))
            worker._precheck[encode_key(missed)] = None  # a recent store miss
            backend = worker.store.backend
            asked = []
            get_many = backend.get_many

            def spy(table, keys):
                asked.append(list(keys))
                return get_many(table, keys)

            monkeypatch.setattr(backend, "get_many", spy)
            view = worker._engine_store
            got = view.get_sims([buffered, prechecked, missed])
            assert asked == []
            assert got[buffered] is stats and got[prechecked] == stats
            assert got[missed] is None

            # Prechecks are single-use; what neither source holds goes
            # to the backend in one call.
            got = view.get_sims([buffered, cold, prechecked])
            assert asked == [[encode_key(cold), encode_key(prechecked)]]
            assert got[buffered] is stats and got[cold] is None
            assert view.get_sim(buffered) is stats and len(asked) == 1
        finally:
            worker.close()


def wait_for(predicate, timeout=30.0, interval=0.01):
    """Poll ``predicate`` until true; ``False`` if ``timeout`` passes."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def task_rows(store_path) -> dict:
    """``{key: (state, attempts)}`` for every queue row, read directly."""
    with contextlib.closing(sqlite3.connect(store_path)) as conn:
        return {key: (state, attempts) for key, state, attempts in conn.execute(
            "SELECT key, state, attempts FROM fabric_tasks")}


class TestOneIoThread:
    """The thread that runs :meth:`FabricWorker.run` makes every claim,
    result write, ack and release; only lease renewal runs beside it."""

    #: Wire calls the run() thread must make itself, per object.
    QUEUE_CALLS = ("claim_many", "claim_many_prechecked", "complete_many",
                   "complete_many_with_results", "release")
    #: Calls the heartbeat thread may make.
    BEAT_CALLS = ("heartbeat", "worker_beat")

    @pytest.fixture(params=["sqlite", "http"])
    def spec(self, request, tmp_path):
        if request.param == "sqlite":
            yield str(tmp_path / "fabric.sqlite"), None
            return
        from repro.service.server import ExperimentService

        service = ExperimentService(tmp_path / "svc.sqlite", token="io-thread",
                                    port=0).start()
        yield service.url, "io-thread"
        service.stop()
        service.close()

    def test_wire_io_happens_on_the_run_thread(self, spec, monkeypatch):
        spec, token = spec
        config = cortex_a53_public_config()
        plan = plan_simulations([(config, wl.name, SCALE, {}, Decoder())
                                 for wl in WORKLOADS[:2]])
        worker = FabricWorker(spec, drain=True, poll=0.02, token=token)
        worker.queue.enqueue(
            [*plan.tasks, *((f"nap{i}", "sleep", {"seconds": 0.01})
                            for i in range(6))])
        calls = []

        def spy(obj, name):
            original = getattr(obj, name, None)
            if original is None:
                return

            def recorded(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return original(*args, **kwargs)

            monkeypatch.setattr(obj, name, recorded)

        for name in (*self.QUEUE_CALLS, *self.BEAT_CALLS):
            spy(worker.queue, name)
        spy(worker.store.backend, "put_many")
        # Stop after the fourth task so claimed-ahead tasks are released.
        execute = worker._execute

        def execute_then_maybe_stop(task):
            execute(task)
            if worker.stats.claimed == 4:
                worker.stop()

        monkeypatch.setattr(worker, "_execute", execute_then_maybe_stop)
        stats = worker.run()
        me = threading.get_ident()
        assert stats.claimed == 4 and stats.completed == 4
        names = {name for name, _thread in calls}
        assert "release" in names
        assert names & {"claim_many", "claim_many_prechecked"}
        assert names & {"complete_many", "complete_many_with_results"}
        if token is None:
            assert "put_many" in names  # the local path writes separately
        elsewhere = [name for name, thread in calls
                     if thread != me and name not in self.BEAT_CALLS]
        assert elsewhere == [], f"wire calls off the run() thread: {elsewhere}"


class TestCompletionFlush:
    """Completions batch while work is in hand and flush when it runs out.

    ``FLUSH_AGE`` is pushed far past the test's wait, so only the
    dry-queue rule can deliver the last completion in time.
    """

    def test_last_task_of_a_drained_queue_reaches_done(
            self, store_path, monkeypatch):
        monkeypatch.setattr(FabricWorker, "FLUSH_AGE", 60.0)
        queue = JobQueue(store_path)
        queue.enqueue([("only", "sleep", {"seconds": 0.0})])
        worker, thread = run_worker_in_background(store_path)
        try:
            assert wait_for(lambda: queue.states(["only"]) == {"only": "done"}), \
                f"the completion sat in the outbox: {queue.counts()}"
        finally:
            worker.stop()
            thread.join(timeout=10)
            queue.close()

    def test_queued_work_still_batches_completions(
            self, store_path, monkeypatch):
        monkeypatch.setattr(FabricWorker, "FLUSH_AGE", 60.0)
        batches = []
        complete_many = JobQueue.complete_many

        def spy(self, completions):
            completions = list(completions)
            batches.append(len(completions))
            return complete_many(self, completions)

        monkeypatch.setattr(JobQueue, "complete_many", spy)
        queue = JobQueue(store_path)
        n = 16
        queue.enqueue([(f"t{i:02d}", "sleep", {"seconds": 0.0})
                       for i in range(n)])
        stats = FabricWorker(store_path, lease=10.0, poll=0.02,
                             drain=True).run()
        assert stats.completed == n and sum(batches) == n
        # The first flush happens with tasks still queued or prefetched,
        # so it is a batch, not a lone key.
        assert batches[0] > 1, batches
        queue.close()

    def test_results_are_readable_before_their_ack(
            self, store_path, monkeypatch):
        """Local path: each ``complete_many`` acks only keys whose result
        rows another connection can already read."""
        base = cortex_a53_public_config()
        plan = plan_simulations(
            [(base.with_updates({"l1d.hit_latency": n}), wl.name, SCALE, {},
              Decoder()) for n in (2, 3) for wl in WORKLOADS])
        with JobQueue(store_path) as queue:
            queue.enqueue(plan.tasks)
        unreadable = []
        acked = []
        complete_many = JobQueue.complete_many
        check = open_store(store_path)

        def spy(self, completions):
            completions = list(completions)
            keys = [key for key, _worker in completions]
            rows = check.backend.get_many("sim_results", keys)
            unreadable.extend(key for key in keys if rows.get(key) is None)
            acked.extend(keys)
            return complete_many(self, completions)

        monkeypatch.setattr(JobQueue, "complete_many", spy)
        try:
            stats = FabricWorker(store_path, poll=0.02, drain=True).run()
        finally:
            check.close()
        assert stats.completed == len(plan.tasks)
        assert sorted(acked) == sorted(plan.keys)
        assert unreadable == [], "acked before its result row was written"

    def test_claimed_ahead_leases_survive_a_long_task(self, store_path):
        """A task longer than the lease does not cost the tasks claimed
        behind it their leases: the heartbeat renews them all."""
        queue = JobQueue(store_path)
        queue.enqueue([("long", "sleep", {"seconds": 2.0})])
        queue.enqueue([(f"short{i}", "sleep", {"seconds": 0.0})
                       for i in range(3)])
        thief = JobQueue(store_path)
        worker, thread = run_worker_in_background(store_path, lease=0.6,
                                                  drain=True)
        stolen = []

        def long_task_done() -> bool:
            stolen.extend(thief.claim_many("thief", 4))
            return queue.states(["long"])["long"] == "done"

        try:
            assert wait_for(lambda: queue.states(["long"])["long"] == "leased")
            assert wait_for(long_task_done), queue.counts()
            thread.join(timeout=30)
            assert not thread.is_alive()
        finally:
            worker.stop()
            thread.join(timeout=10)
            thief.close()
            queue.close()
        assert stolen == []
        assert worker.stats.lost_leases == 0 and worker.stats.claimed == 4
        assert set(task_rows(store_path).values()) == {("done", 1)}


class TestPipelineEdges:
    """The request sent before a kernel is read after it, whatever the
    kernel does: raise, outlive its lease, or see the worker stopped."""

    @pytest.fixture(params=["sqlite", "http"])
    def spec(self, request, tmp_path):
        """``(spec, token, service)``; the service is ``None`` locally."""
        if request.param == "sqlite":
            yield str(tmp_path / "fabric.sqlite"), None, None
            return
        from repro.service.server import ExperimentService

        service = ExperimentService(tmp_path / "svc.sqlite", token="edges",
                                    port=0).start()
        yield service.url, "edges", service
        service.stop()
        service.close()

    @staticmethod
    def record(worker, monkeypatch, names) -> list:
        """Log, in order, each call the worker makes to these queue methods."""
        calls = []
        for name in names:
            original = getattr(worker.queue, name, None)
            if original is None:
                continue

            def recorded(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(worker.queue, name, recorded)
        return calls

    #: The calls that read an exchange's reply (a local queue's calls
    #: complete as they are made).
    READS = {"claim_many", "claim_many_prechecked", "complete_many",
             "complete_many_with_results"}

    def test_a_raising_task_fails_after_the_reply_is_read(
            self, spec, monkeypatch):
        spec, token, _service = spec
        worker = FabricWorker(spec, drain=True, poll=0.02, token=token)
        # "b-broken" is the last task claimed, so the acks and the next
        # claim are in flight while it raises.
        worker.queue.enqueue([("a-ok", "sleep", {"seconds": 0.0}),
                              ("b-broken", "no-such-kind", {})])
        calls = self.record(worker, monkeypatch, [*self.READS, "fail"])
        stats = worker.run()
        # Both claims, the first and the one sent with "b-broken", were
        # read before its failure went out.
        first_fail = calls.index("fail")
        assert calls[first_fail - 1] in self.READS, calls
        assert sum(name in ("claim_many", "claim_many_prechecked")
                   for name in calls[:first_fail]) == 2, calls
        assert stats.completed == 1 and stats.failed == 3
        with open_queue_for(spec, token) as queue:
            assert queue.states(["a-ok", "b-broken"]) == {
                "a-ok": "done", "b-broken": "dead"}
            assert "unknown task kind" in queue.errors("b-broken")

    def test_stop_reads_the_reply_then_releases_its_claims(
            self, spec, monkeypatch):
        spec, token, service = spec
        worker = FabricWorker(spec, poll=0.02, token=token)
        depth = FabricWorker.PREFETCH_DEPTH
        keys = [f"t{i}" for i in range(depth + 2)]
        worker.queue.enqueue([(key, "sleep", {"seconds": 0.0}) for key in keys])
        last = keys[depth - 1]  # the first claim's last task
        execute = worker._execute

        def execute_then_stop(task):
            execute(task)
            if task.key == last:  # its successors' claim is in flight
                worker.stop()

        monkeypatch.setattr(worker, "_execute", execute_then_stop)
        calls = self.record(worker, monkeypatch, [*self.READS, "release"])
        stats = worker.run()
        assert stats.claimed == depth and stats.completed == depth
        claims = [i for i, name in enumerate(calls)
                  if name in ("claim_many", "claim_many_prechecked")]
        assert calls.count("release") == 2, calls
        assert claims[-1] < calls.index("release"), calls
        rows = task_rows(store_of(spec, service))
        assert {key: rows[key] for key in keys} == {
            **dict.fromkeys(keys[:depth], ("done", 1)),
            **dict.fromkeys(keys[depth:], ("queued", 0))}

    def test_a_long_task_keeps_the_leases_of_acks_in_flight(
            self, spec, monkeypatch):
        """The acks sent with the last claimed task's claim reach the
        queue only after the lease would have lapsed: the heartbeat
        renews them meanwhile, so a peer steals nothing."""
        spec, token, service = spec
        monkeypatch.setattr(FabricWorker, "FLUSH_AGE", 60.0)
        keys = ["t0-short", "t1-short", "t2-long"]  # claimed in this order
        worker = FabricWorker(spec, lease=0.6, poll=0.02, drain=True,
                              token=token)
        worker.queue.enqueue([(key, "sleep", {"seconds": 1.5 if i == 2 else 0.0})
                              for i, key in enumerate(keys)])
        # The two short tasks' acks travel with the claim sent before
        # the long one; hold them back for longer than the lease.
        acker = service.queue if service is not None else worker.queue
        complete_many = acker.complete_many
        delayed = []

        def slow_complete_many(completions):
            completions = list(completions)
            if not delayed and completions:
                delayed.append([key for key, _worker in completions])
                time.sleep(1.2)
            return complete_many(completions)

        monkeypatch.setattr(acker, "complete_many", slow_complete_many)
        thief = JobQueue(store_of(spec, service))
        stolen = []
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            assert wait_for(lambda: thief.states(keys) == dict.fromkeys(
                keys, "leased"))
            deadline = time.monotonic() + 30
            while thread.is_alive() and time.monotonic() < deadline:
                stolen.extend(thief.claim_many("thief", 4))
                time.sleep(0.05)
        finally:
            worker.stop()
            thread.join(timeout=30)
            thief.close()
        assert not thread.is_alive()
        assert delayed == [keys[:2]]
        assert stolen == []
        assert worker.stats.lost_leases == 0 and worker.stats.completed == 3
        rows = task_rows(store_of(spec, service))
        assert {key: rows[key] for key in keys} == dict.fromkeys(
            keys, ("done", 1))

    def test_a_long_last_task_keeps_the_leases_of_the_claim_in_flight(
            self, spec):
        """The next claim goes out before a batch's last task and its
        reply is read after it: the tasks it leased outlive a last task
        longer than the lease, so a peer steals nothing."""
        spec, token, service = spec
        depth = FabricWorker.PREFETCH_DEPTH
        keys = [f"t{i:02d}" for i in range(2 * depth)]  # claimed in order
        long_key = keys[depth - 1]
        worker = FabricWorker(spec, lease=0.6, poll=0.02, drain=True,
                              token=token)
        worker.queue.enqueue([
            (key, "sleep", {"seconds": 2.0 if key == long_key else 0.0})
            for key in keys])
        thief = JobQueue(store_of(spec, service))
        stolen = []
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            # Nothing left queued: the second batch's claim went out
            # with the long task, so a claim now takes expired leases only.
            assert wait_for(lambda: "queued" not in thief.states(keys).values())
            deadline = time.monotonic() + 30
            while thread.is_alive() and time.monotonic() < deadline:
                stolen.extend(thief.claim_many("thief", depth))
                time.sleep(0.05)
        finally:
            worker.stop()
            thread.join(timeout=30)
            thief.close()
        assert not thread.is_alive()
        assert stolen == []
        assert worker.stats.lost_leases == 0
        assert worker.stats.completed == 2 * depth
        rows = task_rows(store_of(spec, service))
        assert {key: rows[key] for key in keys} == dict.fromkeys(
            keys, ("done", 1))


def open_queue_for(spec, token):
    """A second queue handle on the worker's spec."""
    from repro.fabric.queue import open_queue

    return open_queue(spec, token=token)


def store_of(spec, service) -> str:
    """The SQLite file behind a spec (the service's, for a URL)."""
    return service.store_path if service is not None else spec


class TestFabricExecutor:
    def test_needs_a_sqlite_store(self):
        with pytest.raises(ValueError, match="SQLite"):
            FabricExecutor(None)
        with pytest.raises(ValueError, match="SQLite"):
            FabricExecutor(open_store("memory"))
        with pytest.raises(ValueError, match="SQLite"):
            make_executor(1, "fabric")

    def test_factory_builds_fabric(self, store_path):
        store = open_store(store_path)
        executor = make_executor(1, "fabric", store=store)
        assert executor.name == "fabric"
        executor.close()
        store.close()

    def test_batch_matches_serial_and_is_cached(self, store_path):
        base = cortex_a53_public_config()
        configs = [base, base.with_updates({"l1d.size": 16384})]
        pairs = [(c, wl.name) for c in configs for wl in WORKLOADS]
        with EvaluationEngine(workloads=WORKLOADS, scale=SCALE) as eng:
            ref = eng.simulate_batch(pairs)

        store = open_store(store_path)
        executor = FabricExecutor(store, poll=0.02, timeout=60)
        engine = EvaluationEngine(workloads=WORKLOADS, scale=SCALE,
                                  store=store, executor=executor)
        worker, thread = run_worker_in_background(store_path)
        try:
            got = engine.simulate_batch(pairs)
            assert got == ref
            assert engine.telemetry.unique_trials == len(pairs)
            # Second submission: answered from cache, no new tasks.
            assert engine.simulate_batch(pairs) == ref
            assert engine.telemetry.unique_trials == len(pairs)
        finally:
            worker.stop()
            thread.join(timeout=10)
            engine.close()
        snap = status_snapshot(store_path)
        assert snap["queue"]["done"] == len(pairs)
        assert snap["queue"]["dead"] == 0
        store.close()

    def test_timeout_without_workers(self, store_path):
        store = open_store(store_path)
        executor = FabricExecutor(store, poll=0.02, timeout=0.2)
        engine = EvaluationEngine(workloads=WORKLOADS, scale=SCALE,
                                  store=store, executor=executor)
        with pytest.raises(TimeoutError, match="repro worker"):
            engine.simulate(cortex_a53_public_config(), "CCa")
        engine.close()
        store.close()

    def test_fresh_submission_revives_dead_keys(self, store_path):
        """A key dead-lettered in an earlier run must not poison a new
        batch: resubmitting restores its claim budget and it executes."""
        store = open_store(store_path)
        base = cortex_a53_public_config()
        plan = plan_simulations([(base, "CCa", SCALE, {}, Decoder())])
        with JobQueue(store_path, max_attempts=1) as queue:
            queue.enqueue(plan.tasks)
            task = queue.claim("w1")
            queue.fail(task.key, "w1", "transient crash in an old run")
            assert queue.counts()["dead"] == 1
        executor = FabricExecutor(store, poll=0.02, timeout=60)
        engine = EvaluationEngine(workloads=WORKLOADS, scale=SCALE,
                                  store=store, executor=executor)
        worker, thread = run_worker_in_background(store_path)
        try:
            stats = engine.simulate(base, "CCa")
            assert stats is not None
        finally:
            worker.stop()
            thread.join(timeout=10)
            engine.close()
        with JobQueue(store_path) as queue:
            assert queue.counts() == {"queued": 0, "leased": 0,
                                      "done": 1, "dead": 0}
        store.close()

    def test_submit_is_one_enqueue_and_no_store_read(self, store_path):
        """The engine's one store read answers the batch's hits; the
        executor enqueues every miss in one queue call, with no second
        store check and no separate dead-letter revive."""
        store = open_store(store_path)
        executor = FabricExecutor(store, poll=0.02, timeout=60)
        engine = EvaluationEngine(workloads=WORKLOADS, scale=SCALE,
                                  store=store, executor=executor)
        calls = []

        def spy(obj, name, tag):
            original = getattr(obj, name)

            def recorded(*args, **kwargs):
                calls.append(tag)
                return original(*args, **kwargs)

            setattr(obj, name, recorded)

        for name in ("enqueue", "requeue_dead", "cancel", "states"):
            spy(executor.queue, name, name)
        spy(store.backend, "get_many", "store read")
        spy(executor, "submit", "submit")
        base = cortex_a53_public_config()
        pairs = [(base.with_updates({"l1d.hit_latency": i + 1}), wl.name)
                 for i in range(2) for wl in WORKLOADS]
        worker, thread = run_worker_in_background(store_path)
        try:
            engine.simulate_batch(pairs)
        finally:
            worker.stop()
            thread.join(timeout=10)
            engine.close()
        assert calls[:3] == ["store read", "submit", "enqueue"]
        assert calls.count("enqueue") == 1 and "requeue_dead" not in calls
        assert engine.telemetry.unique_trials == len(pairs)
        store.close()

    def test_no_store_writeback_after_fabric_batch(self, store_path):
        """The engine must not rewrite results the workers already
        persisted (write traffic on the shared file would double)."""
        store = open_store(store_path)
        executor = FabricExecutor(store, poll=0.02, timeout=60)
        engine = EvaluationEngine(workloads=WORKLOADS, scale=SCALE,
                                  store=store, executor=executor)
        writes = []
        original = store.put_sim_many

        def recording_put(items):
            items = list(items)
            writes.append(items)
            return original(items)

        store.put_sim_many = recording_put
        worker, thread = run_worker_in_background(store_path)
        try:
            engine.simulate(cortex_a53_public_config(), "CCa")
        finally:
            worker.stop()
            thread.join(timeout=10)
            engine.close()
            store.put_sim_many = original
        # The worker wrote through its own store handle; the driver's
        # handle must have issued no sim writes at all.
        assert writes == []
        with open_store(store_path) as check:
            assert check.stats()["sim_results"] == 1
        store.close()

    def test_task_dying_mid_batch_surfaces_as_error(self, store_path):
        """A task that exhausts its claim budget *during* the batch
        dead-letters and fails the waiting driver with the error."""
        store = open_store(store_path)
        base = cortex_a53_public_config()
        plan = plan_simulations([(base, "CCa", SCALE, {}, Decoder())])
        # Pre-seed the executor's key with a payload no worker can run
        # (unresolvable decoder) and a claim budget of one: the worker
        # fails it once, it dead-letters mid-batch, the driver raises.
        (key, kind, payload) = plan.tasks[0]
        broken = dict(payload, decoder="nonexistent.module:Nope")
        with JobQueue(store_path, max_attempts=1) as queue:
            queue.enqueue([(key, kind, broken)])
        executor = FabricExecutor(store, poll=0.02, timeout=30)
        engine = EvaluationEngine(workloads=WORKLOADS, scale=SCALE,
                                  store=store, executor=executor)
        worker, thread = run_worker_in_background(store_path)
        try:
            with pytest.raises(RuntimeError, match="dead-letter"):
                engine.simulate(base, "CCa")
        finally:
            worker.stop()
            thread.join(timeout=10)
            engine.close()
        store.close()


class TestSharedColumnarTraceCache:
    def test_second_worker_attaches_instead_of_recording(self, store_path, monkeypatch):
        """Two workers, one host: the first records and persists each
        columnar blob next to the store; the second memory-maps them —
        recording is forbidden outright — and its stats stay identical
        to the serial reference."""
        import glob
        import os

        from repro.engine.tracestore import TraceStore

        base = cortex_a53_public_config()
        other = base.with_updates({"l1d.size": 16384})
        with EvaluationEngine(workloads=WORKLOADS, scale=SCALE) as eng:
            ref1 = [eng.simulate(base, wl.name) for wl in WORKLOADS]
            ref2 = [eng.simulate(other, wl.name) for wl in WORKLOADS]

        plan1 = plan_simulations(
            [(base, wl.name, SCALE, {}, Decoder()) for wl in WORKLOADS])
        with JobQueue(store_path) as queue:
            queue.enqueue(plan1.tasks)
        stats1 = FabricWorker(store_path, drain=True, poll=0.02).run()
        assert stats1.completed == len(WORKLOADS) and stats1.failed == 0
        blobs = glob.glob(os.path.join(store_path + ".traces", "*.rcol"))
        assert len(blobs) == len(WORKLOADS)

        # Second worker session: any attempt to materialise a recorded
        # trace fails the task, so completing the batch proves every
        # simulation ran off an attached blob.
        def no_recording(self, name, overrides=None):
            raise AssertionError(f"worker re-recorded trace {name!r}")

        monkeypatch.setattr(TraceStore, "get", no_recording)
        plan2 = plan_simulations(
            [(other, wl.name, SCALE, {}, Decoder()) for wl in WORKLOADS])
        with JobQueue(store_path) as queue:
            queue.enqueue(plan2.tasks)
        stats2 = FabricWorker(store_path, drain=True, poll=0.02).run()
        assert stats2.completed == len(WORKLOADS) and stats2.failed == 0

        with open_store(store_path) as store:
            for key, expect in zip(plan1.keys, ref1):
                assert store.get_sim(key) == expect
            for key, expect in zip(plan2.keys, ref2):
                assert store.get_sim(key) == expect


class TestStatusSnapshot:
    def test_snapshot_shape(self, store_path):
        with JobQueue(store_path) as queue:
            queue.enqueue([("k1", "sleep", {"seconds": 0})])
            queue.register_worker("w1", pid=1)
        snap = status_snapshot(store_path)
        assert snap["depth"] == 1
        assert snap["queue"]["queued"] == 1
        assert snap["workers"][0]["worker_id"] == "w1"
        assert set(snap["results"]) == {"sim_results", "hw_results", "trial_costs"}

    def test_snapshot_surfaces_engine_telemetry(self, store_path):
        config = cortex_a53_public_config()
        plan = plan_simulations([(config, "CCa", SCALE, {}, Decoder())])
        with JobQueue(store_path) as queue:
            queue.enqueue(plan.tasks)
        FabricWorker(store_path, drain=True, poll=0.02).run()
        (worker,) = status_snapshot(store_path)["workers"]
        assert worker["tasks_done"] == 1
        assert worker["unique_trials"] == 1
        assert worker["requested_trials"] == 1

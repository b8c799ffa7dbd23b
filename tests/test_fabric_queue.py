"""Fabric job queue: leases, expiry requeue, retries, dead letters.

The suite is the :class:`repro.fabric.api.TaskQueue` *conformance*
suite: the ``queue`` fixture is parametrized over the SQLite
implementation and :class:`repro.service.client.HttpQueue` against a
live in-process :class:`repro.service.server.ExperimentService`, so
every lease/retry/dead-letter semantic below is asserted once and
holds on both transports. Only :class:`TestSchema` and
:class:`TestStatementShapes` stay SQLite-only (they poke the raw
connection).
"""

import re
import time

import pytest

from repro.fabric.queue import FABRIC_SCHEMA_VERSION, JobQueue

TEST_TOKEN = "conformance-secret"


@pytest.fixture(params=["sqlite", "http"])
def queue(request, tmp_path):
    path = tmp_path / "fab.sqlite"
    if request.param == "sqlite":
        q = JobQueue(path, lease_seconds=30.0, max_attempts=3)
        # Second handle for tests that need a concurrent producer (the
        # long-poll wake tests); a JobQueue connection is not shared
        # across threads.
        q.conformance_peer = lambda: JobQueue(path, lease_seconds=30.0,
                                              max_attempts=3)
        yield q
        q.close()
        return
    from repro.service.client import HttpQueue
    from repro.service.server import ExperimentService

    service = ExperimentService(path, token=TEST_TOKEN, port=0,
                                max_attempts=3).start()
    q = HttpQueue(service.url, token=TEST_TOKEN, lease_seconds=30.0)
    q.conformance_peer = lambda: HttpQueue(service.url, token=TEST_TOKEN,
                                           lease_seconds=30.0)
    yield q
    q.close()
    service.stop()
    service.close()


def _tasks(n, kind="sleep"):
    return [(f"task-{i:03d}", kind, {"seconds": 0.0, "i": i}) for i in range(n)]


class TestEnqueue:
    def test_enqueue_counts_new_rows(self, queue):
        assert queue.enqueue(_tasks(3)) == 3
        assert queue.counts()["queued"] == 3

    def test_enqueue_is_idempotent_by_key(self, queue):
        queue.enqueue(_tasks(3))
        assert queue.enqueue(_tasks(5)) == 2  # only the two new keys
        assert queue.depth() == 5

    def test_enqueue_never_resets_finished_tasks(self, queue):
        queue.enqueue(_tasks(1))
        task = queue.claim("w1")
        queue.complete(task.key, "w1")
        assert queue.enqueue(_tasks(1)) == 0
        assert queue.counts()["done"] == 1

    def test_empty_enqueue(self, queue):
        assert queue.enqueue([]) == 0

    def test_enqueue_revives_dead_keys_only(self, queue):
        """Resubmission is fresh intent: a dead key gets its claim budget
        back; queued, leased and done rows keep every column."""
        queue.enqueue(_tasks(4))
        for _ in range(3):  # task-000 (oldest) dies after three failures
            task = queue.claim("w1")
            queue.fail(task.key, "w1", "boom")
        done = queue.claim("w1")
        queue.complete(done.key, "w1")
        leased = queue.claim("w2", lease_seconds=60.0)
        (lease_before,) = queue.leases()
        keys = [key for key, _kind, _payload in _tasks(4)]
        assert queue.states(keys) == {"task-000": "dead", "task-001": "done",
                                      "task-002": "leased", "task-003": "queued"}

        assert queue.enqueue(_tasks(4)) == 1  # only the dead row counts
        assert queue.states(keys) == {"task-000": "queued", "task-001": "done",
                                      "task-002": "leased", "task-003": "queued"}
        assert queue.leases() == [lease_before]
        assert leased.key == "task-002" and queue.retries() == 0
        revived = queue.claim("w3")
        assert revived.key == "task-000" and revived.attempts == 1
        assert queue.claim("w3").attempts == 1  # task-003, never claimed


class TestClaim:
    def test_claim_oldest_first(self, queue):
        queue.enqueue(_tasks(2))
        assert queue.claim("w1").key == "task-000"
        assert queue.claim("w1").key == "task-001"
        assert queue.claim("w1") is None

    def test_claim_carries_payload_and_attempts(self, queue):
        queue.enqueue(_tasks(1))
        task = queue.claim("w1")
        assert task.payload["i"] == 0
        assert task.kind == "sleep"
        assert task.attempts == 1 and task.max_attempts == 3

    def test_leased_task_is_not_reclaimable_while_lease_holds(self, queue):
        queue.enqueue(_tasks(1))
        assert queue.claim("w1") is not None
        assert queue.claim("w2") is None

    def test_expired_lease_is_reclaimable(self, queue):
        queue.enqueue(_tasks(1))
        task = queue.claim("w1", lease_seconds=0.05)
        time.sleep(0.1)
        again = queue.claim("w2")
        assert again is not None and again.key == task.key
        assert again.attempts == 2

    def test_heartbeat_extends_lease(self, queue):
        queue.enqueue(_tasks(1))
        task = queue.claim("w1", lease_seconds=0.15)
        time.sleep(0.08)
        assert queue.heartbeat(task.key, "w1", lease_seconds=5.0)
        time.sleep(0.1)  # original lease would have expired by now
        assert queue.claim("w2") is None

    def test_heartbeat_fails_after_lease_lost(self, queue):
        queue.enqueue(_tasks(1))
        task = queue.claim("w1", lease_seconds=0.01)
        time.sleep(0.05)
        queue.claim("w2")
        assert not queue.heartbeat(task.key, "w1")

    def test_worker_beat_renews_the_latest_claim(self, queue):
        """A worker that has not read a claim's reply cannot name its
        tasks; the worker-row beat keeps their leases meanwhile."""
        queue.enqueue(_tasks(3))
        queue.claim_many("w1", 2, lease_seconds=0.5)
        for _ in range(4):  # 0.8 s, well past the 0.5 s lease
            time.sleep(0.2)
            queue.worker_beat("w1")
        assert [task.key for task in queue.claim_many("w2", 3)] == [
            "task-002"]

    def test_the_next_claim_ends_the_beat_renewal(self, queue):
        """A claim whose reply was lost still expires: the beat renews
        only the worker's latest claim."""
        queue.enqueue(_tasks(2))
        lost = queue.claim("w1", lease_seconds=0.2)
        queue.claim("w1", lease_seconds=30.0)
        for _ in range(3):
            time.sleep(0.1)
            queue.worker_beat("w1")
        again = queue.claim("w2")
        assert again is not None and again.key == lost.key


class TestCompleteAndFail:
    def test_complete_marks_done(self, queue):
        queue.enqueue(_tasks(1))
        task = queue.claim("w1")
        assert queue.complete(task.key, "w1")
        assert queue.counts()["done"] == 1
        assert queue.claim("w1") is None

    def test_complete_rejected_after_lease_stolen(self, queue):
        queue.enqueue(_tasks(1))
        task = queue.claim("w1", lease_seconds=0.01)
        time.sleep(0.05)
        assert queue.claim("w2") is not None  # stole the expired lease
        assert not queue.complete(task.key, "w1")
        assert queue.complete(task.key, "w2")
        # The straggler stays rejected even after the finisher is done:
        # attribution (and the finisher's stats) must not be overwritten.
        assert not queue.complete(task.key, "w1")
        assert queue.states([task.key]) == {task.key: "done"}

    def test_complete_is_idempotent_for_the_finisher(self, queue):
        queue.enqueue(_tasks(1))
        task = queue.claim("w1")
        assert queue.complete(task.key, "w1")
        assert queue.complete(task.key, "w1")

    def test_fail_requeues_within_budget(self, queue):
        queue.enqueue(_tasks(1))
        task = queue.claim("w1")
        assert queue.fail(task.key, "w1", "boom") == "queued"
        assert queue.errors(task.key) == "boom"
        assert queue.claim("w2").attempts == 2

    def test_fail_dead_letters_after_budget(self, queue):
        queue.enqueue(_tasks(1))
        for attempt in range(1, 4):
            task = queue.claim(f"w{attempt}")
            assert task is not None
            state = queue.fail(task.key, f"w{attempt}", f"boom {attempt}")
        assert state == "dead"
        assert queue.claim("w9") is None
        dead = queue.dead()
        assert len(dead) == 1
        key, attempts, error = dead[0]
        assert attempts == 3 and error == "boom 3"

    def test_expiry_alone_exhausts_the_claim_budget(self, queue):
        """Three leases dying without a word dead-letter the task."""
        queue.enqueue(_tasks(1))
        for _ in range(3):
            assert queue.claim("w1", lease_seconds=0.01) is not None
            time.sleep(0.03)
        assert queue.claim("w2") is None  # 4th claim dead-letters instead
        assert queue.counts()["dead"] == 1

    def test_requeue_dead_restores_budget(self, queue):
        queue.enqueue(_tasks(1))
        for attempt in range(3):
            task = queue.claim("w1")
            queue.fail(task.key, "w1", "boom")
        assert queue.counts()["dead"] == 1
        assert queue.requeue_dead() == 1
        task = queue.claim("w1")
        assert task is not None and task.attempts == 1


class TestCancel:
    """Speculative-work withdrawal: ``cancel`` deletes *queued* rows only.

    The async race cancels in-flight speculation for eliminated
    candidates; a task already leased (a worker is computing it) or
    finished must be left alone — the content-addressed result is
    harmless and the worker's completion must not race a deletion.
    """

    def test_cancel_removes_queued_tasks(self, queue):
        queue.enqueue(_tasks(3))
        cancelled = queue.cancel(["task-001", "task-002"])
        assert cancelled == ["task-001", "task-002"]
        assert queue.depth() == 1
        assert queue.states(["task-001"]) == {}

    def test_cancel_preserves_input_order(self, queue):
        queue.enqueue(_tasks(3))
        assert queue.cancel(["task-002", "task-000"]) \
            == ["task-002", "task-000"]

    def test_cancel_skips_leased_tasks(self, queue):
        queue.enqueue(_tasks(1))
        task = queue.claim("w1")
        assert queue.cancel([task.key]) == []
        assert queue.counts()["leased"] == 1
        assert queue.complete(task.key, "w1")  # worker unaffected

    def test_cancel_skips_done_and_dead_tasks(self, queue):
        queue.enqueue(_tasks(2))
        task = queue.claim("w1")
        queue.complete(task.key, "w1")
        for _ in range(3):
            other = queue.claim("w2")
            queue.fail(other.key, "w2", "boom")
        assert queue.cancel(["task-000", "task-001"]) == []
        counts = queue.counts()
        assert counts["done"] == 1 and counts["dead"] == 1

    def test_cancel_unknown_keys_is_a_noop(self, queue):
        queue.enqueue(_tasks(1))
        assert queue.cancel(["nope"]) == []
        assert queue.cancel([]) == []
        assert queue.depth() == 1

    def test_cancelled_task_can_be_enqueued_again(self, queue):
        queue.enqueue(_tasks(1))
        assert queue.cancel(["task-000"]) == ["task-000"]
        assert queue.enqueue(_tasks(1)) == 1
        assert queue.claim("w1").attempts == 1


class TestBatchedClaims:
    """``claim_many``/``complete_many``: one round trip, N leases.

    The pipelined worker lives on these; every semantic of the single
    claim/complete path must hold per element of a batch, on both
    transports.
    """

    def test_claim_many_leases_oldest_first(self, queue):
        queue.enqueue(_tasks(5))
        tasks = queue.claim_many("w1", 3)
        assert [t.key for t in tasks] == ["task-000", "task-001", "task-002"]
        assert queue.counts()["leased"] == 3
        assert all(t.attempts == 1 for t in tasks)

    def test_claim_many_short_batch_when_queue_runs_dry(self, queue):
        queue.enqueue(_tasks(2))
        assert len(queue.claim_many("w1", 8)) == 2
        assert queue.claim_many("w1", 8) == []

    def test_spent_candidates_are_dead_lettered_and_the_batch_filled(
            self, queue):
        """A batch read with one ``SELECT … LIMIT n`` that meets spent
        candidates dead-letters them and reads on until it holds ``n``
        live tasks."""
        queue.enqueue(_tasks(2))
        for _ in range(3):
            assert len(queue.claim_many("w1", 2, lease_seconds=0.01)) == 2
            time.sleep(0.03)
        queue.enqueue(_tasks(6))  # task-002..005 queue behind the spent two
        tasks = queue.claim_many("w2", 3)
        assert [t.key for t in tasks] == ["task-002", "task-003", "task-004"]
        assert all(t.attempts == 1 for t in tasks)
        assert sorted(key for key, _attempts, _error in queue.dead()) == [
            "task-000", "task-001"]
        assert queue.counts() == {"queued": 1, "leased": 3, "done": 0,
                                  "dead": 2}

    def test_claim_many_nonpositive_count_is_empty(self, queue):
        queue.enqueue(_tasks(1))
        assert queue.claim_many("w1", 0) == []
        assert queue.depth() == 1

    def test_claim_many_skips_other_workers_leases(self, queue):
        queue.enqueue(_tasks(3))
        queue.claim("w1")
        tasks = queue.claim_many("w2", 3)
        assert [t.key for t in tasks] == ["task-001", "task-002"]

    def test_expired_batched_leases_are_reclaimable(self, queue):
        queue.enqueue(_tasks(3))
        queue.claim_many("w1", 3, lease_seconds=0.05)
        time.sleep(0.1)
        again = queue.claim_many("w2", 3)
        assert [t.key for t in again] == ["task-000", "task-001", "task-002"]
        assert all(t.attempts == 2 for t in again)

    def test_complete_many_acks_each_item(self, queue):
        queue.enqueue(_tasks(3))
        tasks = queue.claim_many("w1", 3)
        oks = queue.complete_many([(t.key, "w1") for t in tasks])
        assert oks == [True, True, True]
        assert queue.counts()["done"] == 3

    def test_complete_many_empty_is_a_noop(self, queue):
        assert queue.complete_many([]) == []

    def test_complete_many_flags_stolen_lease_per_item(self, queue):
        queue.enqueue(_tasks(2))
        tasks = queue.claim_many("w1", 2, lease_seconds=0.05)
        time.sleep(0.1)
        stolen = queue.claim("w2")  # oldest-first: steals task-000
        assert stolen.key == "task-000"
        oks = queue.complete_many([(t.key, "w1") for t in tasks])
        assert oks == [False, True]
        assert queue.states(["task-000"]) == {"task-000": "leased"}

    def test_cancel_ignores_batched_leases(self, queue):
        """Cancel withdraws queued work only, never a batch-held lease."""
        queue.enqueue(_tasks(4))
        tasks = queue.claim_many("w1", 2)
        assert queue.cancel(["task-000", "task-001", "task-002",
                             "task-003"]) == ["task-002", "task-003"]
        oks = queue.complete_many([(t.key, "w1") for t in tasks])
        assert oks == [True, True]
        assert queue.claim_many("w1", 4) == []

    def test_cancelled_then_batch_claim_sees_nothing(self, queue):
        queue.enqueue(_tasks(2))
        queue.cancel(["task-000", "task-001"])
        assert queue.claim_many("w1", 2) == []


class TestRelease:
    """``release``: hand an unstarted lease back, attempt refunded.

    A pipelined worker that exits cleanly with prefetched-but-unstarted
    tasks releases them so the next claimer pays no attempt for the
    aborted prefetch.
    """

    def test_release_requeues_with_attempt_refund(self, queue):
        queue.enqueue(_tasks(1))
        task = queue.claim("w1")
        assert task.attempts == 1
        assert queue.release(task.key, "w1")
        again = queue.claim("w2")
        assert again is not None and again.attempts == 1

    def test_release_rejected_after_lease_stolen(self, queue):
        queue.enqueue(_tasks(1))
        task = queue.claim("w1", lease_seconds=0.01)
        time.sleep(0.05)
        assert queue.claim("w2") is not None
        assert not queue.release(task.key, "w1")
        assert queue.counts()["leased"] == 1

    def test_released_task_is_immediately_claimable(self, queue):
        queue.enqueue(_tasks(2))
        tasks = queue.claim_many("w1", 2)
        queue.release(tasks[1].key, "w1")
        assert queue.claim("w2").key == tasks[1].key


def _claim_during(queue, feed, claim):
    """Run ``claim()`` while a peer handle runs ``feed(peer)`` 0.15 s in;
    returns the claim's result and how long the claim took."""
    import threading

    peer = queue.conformance_peer()
    try:
        feeder = threading.Timer(0.15, lambda: feed(peer))
        feeder.start()
        t0 = time.monotonic()
        got = claim()
        elapsed = time.monotonic() - t0
        feeder.join()
    finally:
        peer.close()
    return got, elapsed


class TestLongPoll:
    """``claim_many(wait=...)`` and ``claim(wait=...)``: the request
    parks until work appears."""

    def test_wait_returns_immediately_when_work_is_ready(self, queue):
        queue.enqueue(_tasks(1))
        t0 = time.monotonic()
        assert queue.claim("w1", wait=5.0) is not None
        assert time.monotonic() - t0 < 2.0

    def test_wait_times_out_empty_handed(self, queue):
        t0 = time.monotonic()
        assert queue.claim("w1", wait=0.2) is None
        elapsed = time.monotonic() - t0
        assert 0.15 <= elapsed < 5.0

    def test_batch_wait_times_out_with_an_empty_list(self, queue):
        t0 = time.monotonic()
        assert queue.claim_many("w1", 4, wait=0.2) == []
        elapsed = time.monotonic() - t0
        assert 0.15 <= elapsed < 5.0

    def test_wait_wakes_on_concurrent_enqueue(self, queue):
        task, elapsed = _claim_during(
            queue, lambda peer: peer.enqueue(_tasks(1)),
            lambda: queue.claim("w1", wait=10.0))
        assert task is not None
        assert elapsed < 8.0  # woke for the enqueue, not the timeout

    def test_batch_wait_takes_the_whole_concurrent_enqueue(self, queue):
        tasks, elapsed = _claim_during(
            queue, lambda peer: peer.enqueue(_tasks(3)),
            lambda: queue.claim_many("w1", 5, wait=10.0))
        assert [t.key for t in tasks] == ["task-000", "task-001", "task-002"]
        assert elapsed < 8.0

    def test_wait_wakes_on_release(self, queue):
        queue.enqueue(_tasks(1))
        task = queue.claim("w1")
        again, elapsed = _claim_during(
            queue, lambda peer: peer.release(task.key, "w1"),
            lambda: queue.claim("w2", wait=10.0))
        assert again is not None and again.key == task.key
        assert elapsed < 8.0

    def test_batch_wait_dead_letters_a_spent_candidate(self, queue):
        """The waited claim runs the same transaction as an unwaited
        one: a spent candidate goes to the dead letters, the batch
        moves on to the next task."""
        queue.enqueue(_tasks(1))
        for _ in range(3):
            assert queue.claim("w1", lease_seconds=0.01) is not None
            time.sleep(0.03)
        queue.enqueue(_tasks(2))  # task-001 joins the spent task-000
        tasks = queue.claim_many("w2", 5, wait=5.0)
        assert [t.key for t in tasks] == ["task-001"]
        ((key, attempts, error),) = queue.dead()
        assert key == "task-000" and attempts == 3
        assert "claim budget exhausted" in error

    def test_wait_wakes_when_a_lease_expires(self, queue):
        # No commit marks the moment a lease lapses: the waiter must
        # watch the expiry it saw, or sleep out its whole wait.
        queue.enqueue(_tasks(1))
        task = queue.claim("w1", lease_seconds=0.3)
        again = queue.claim("w2", wait=30.0)
        assert again is not None and again.key == task.key
        assert again.attempts == 2


class TestIntrospection:
    def test_states_and_counts(self, queue):
        queue.enqueue(_tasks(3))
        task = queue.claim("w1")
        queue.complete(task.key, "w1")
        queue.claim("w1")
        states = queue.states([t[0] for t in _tasks(3)] + ["missing"])
        assert states == {"task-000": "done", "task-001": "leased",
                          "task-002": "queued"}
        counts = queue.counts()
        assert counts == {"queued": 1, "leased": 1, "done": 1, "dead": 0}
        assert queue.depth() == 2

    def test_leases_listing(self, queue):
        queue.enqueue(_tasks(1))
        queue.claim("w1", lease_seconds=60.0)
        (lease,) = queue.leases()
        assert lease.worker == "w1"
        assert 0 < lease.remaining() <= 60.0

    def test_retries_counts_extra_claims(self, queue):
        queue.enqueue(_tasks(2))
        task = queue.claim("w1")
        queue.fail(task.key, "w1", "boom")
        queue.claim("w2")  # attempt 2 on task-000
        assert queue.retries() == 1

    def test_purge_done(self, queue):
        queue.enqueue(_tasks(2))
        task = queue.claim("w1")
        queue.complete(task.key, "w1")
        assert queue.purge_done() == 1
        assert queue.counts()["done"] == 0
        assert queue.depth() == 1


class TestWorkersTable:
    def test_register_and_beat(self, queue):
        wid = queue.register_worker(pid=123, host="testhost")
        queue.worker_beat(wid, tasks_done=5, tasks_failed=1,
                         telemetry={"unique_trials": 5})
        (row,) = queue.workers()
        assert row["worker_id"] == wid
        assert row["pid"] == 123 and row["host"] == "testhost"
        assert row["tasks_done"] == 5 and row["tasks_failed"] == 1
        assert row["telemetry"] == {"unique_trials": 5}

    def test_register_is_upsert(self, queue):
        queue.register_worker("stable-id")
        queue.register_worker("stable-id", pid=99)
        (row,) = queue.workers()
        assert row["pid"] == 99


class TestSchema:
    def test_reopen_preserves_rows(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with JobQueue(path) as q:
            q.enqueue(_tasks(2))
        with JobQueue(path) as q:
            assert q.depth() == 2
            assert q.schema_version == FABRIC_SCHEMA_VERSION

    def test_schema_version_mismatch_fails_loudly(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with JobQueue(path) as q:
            q._conn.execute(
                "UPDATE fabric_meta SET value='999' WHERE key='schema_version'"
            )
        with pytest.raises(RuntimeError, match="schema"):
            JobQueue(path)

    def test_shares_file_with_result_store(self, tmp_path):
        """Queue tables and store tables coexist in one SQLite file."""
        from repro.store import open_store

        path = tmp_path / "shared.sqlite"
        store = open_store(path)
        with JobQueue(path) as q:
            q.enqueue(_tasks(1))
            assert q.depth() == 1
        assert store.stats()["sim_results"] == 0
        store.close()


class TestStatementShapes:
    def test_states_reuses_a_few_statement_shapes(self, tmp_path):
        """``IN (...)`` lists are padded to powers of two, so polls of
        every outstanding-set size share a handful of prepared
        statements instead of filling the statement cache."""
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.enqueue(_tasks(300))
            keys = [key for key, _kind, _payload in _tasks(300)]
            texts = set()
            # The callback sees bound values expanded; fold them back.
            q._conn.set_trace_callback(
                lambda sql: texts.add(re.sub(r"'[^']*'", "?", sql)))
            for n in range(1, 301):
                assert len(q.states(keys[:n])) == n
            q._conn.set_trace_callback(None)
        assert 0 < len(texts) <= 10, sorted(texts)


class TestCommitDrivenWakeups:
    """SQLite ``claim_many(wait=)`` takes the write lock only when it may win.

    An idle waiter reads ``PRAGMA data_version`` between naps and reruns
    its ``BEGIN IMMEDIATE`` claim transaction only after another
    connection commits. Commits on the queue's own connection (the
    ``repro serve`` case) do not move ``data_version``, so those wake it
    through the in-process notification instead. Every wait below is on
    an event; the join timeouts only bound a failing run.
    """

    def _instrument(self, queue, monkeypatch, idle_checks=5):
        """Count claim transactions; signal once the waiter sits idle."""
        import threading

        attempts = []
        idle = threading.Event()
        checks = []
        claim_batch, data_version = queue._claim_batch, queue._data_version

        def counting_claim_batch(*args, **kwargs):
            attempts.append(args)
            return claim_batch(*args, **kwargs)

        def counting_data_version():
            checks.append(None)
            if len(checks) >= idle_checks:
                idle.set()
            return data_version()

        monkeypatch.setattr(queue, "_claim_batch", counting_claim_batch)
        monkeypatch.setattr(queue, "_data_version", counting_data_version)
        return attempts, idle

    def _claim_in_thread(self, queue):
        import threading

        out = {}
        thread = threading.Thread(
            target=lambda: out.update(task=queue.claim("w1", wait=60.0)),
            daemon=True)
        thread.start()
        return thread, out

    def test_idle_wait_claims_again_only_after_a_peer_commit(
            self, tmp_path, monkeypatch):
        path = tmp_path / "q.sqlite"
        queue, peer = JobQueue(path), JobQueue(path)
        try:
            attempts, idle = self._instrument(queue, monkeypatch)
            thread, out = self._claim_in_thread(queue)
            assert idle.wait(30), "the waiter never went idle"
            assert len(attempts) == 1  # idle checks took no write lock
            peer.enqueue(_tasks(1))
            thread.join(30)
            assert not thread.is_alive(), "a peer commit did not wake the waiter"
            assert out["task"] is not None and out["task"].key == "task-000"
            assert len(attempts) <= 2
        finally:
            queue.close()
            peer.close()

    def test_same_connection_enqueue_wakes_the_waiter(
            self, tmp_path, monkeypatch):
        queue = JobQueue(tmp_path / "q.sqlite")
        try:
            attempts, idle = self._instrument(queue, monkeypatch)
            thread, out = self._claim_in_thread(queue)
            assert idle.wait(30), "the waiter never went idle"
            with queue._lock:
                before = queue._conn.execute("PRAGMA data_version").fetchone()
            queue.enqueue(_tasks(1))
            with queue._lock:
                after = queue._conn.execute("PRAGMA data_version").fetchone()
            # Invisible to data_version: only the notification wakes it.
            assert before == after
            thread.join(30)
            assert not thread.is_alive(), "the in-process wake was lost"
            assert out["task"] is not None and out["task"].key == "task-000"
            assert len(attempts) <= 2
        finally:
            queue.close()

    def test_concurrent_waiters_lose_no_wakeup(self, tmp_path):
        """More waiters than cores, one connection, a tiny switch
        interval: each same-connection enqueue wakes a waiter, and each
        waiter gets exactly one task."""
        import sys
        import threading

        queue = JobQueue(tmp_path / "q.sqlite")
        n = 8
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(
                target=lambda w=f"w{i}": got.append(queue.claim(w, wait=60.0)),
                daemon=True) for i in range(n)]
            for thread in threads:
                thread.start()
            for task in _tasks(n):
                queue.enqueue([task])
            for thread in threads:
                thread.join(30)
            assert not any(t.is_alive() for t in threads), "a wakeup was lost"
        finally:
            sys.setswitchinterval(interval)
            queue.close()
        assert sorted(task.key for task in got) == [k for k, _, _ in _tasks(n)]

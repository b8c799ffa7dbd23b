"""Multi-process SQLite backend hammering (the fabric's write load).

Four worker processes write and read one store file concurrently —
interleaved single puts, batched puts and point reads — exercising the
WAL + busy-timeout + retry-on-busy stack under real lock contention.
The assertion is strict: every row every process wrote must be present
and exact afterwards, and no process may die on ``SQLITE_BUSY``.
"""

import multiprocessing
import sqlite3

import pytest

from repro.store.backend import SqliteBackend, is_busy_error, retry_busy

N_PROCS = 4
ROWS_PER_PROC = 120


def hammer(path, proc_id, failures):
    """One contender: interleave writes, batch writes and reads."""
    try:
        backend = SqliteBackend(path)
        for i in range(ROWS_PER_PROC):
            key = f"p{proc_id}-row{i:04d}"
            if i % 3 == 0:
                backend.put_many(
                    "sim_results",
                    [(key, f"value-{proc_id}-{i}"),
                     (f"{key}-extra", f"extra-{proc_id}-{i}")],
                )
            else:
                backend.put("sim_results", key, f"value-{proc_id}-{i}")
            # Read-your-writes under contention.
            if backend.get("sim_results", key) != f"value-{proc_id}-{i}":
                failures.put(f"{key}: read-your-write failed")
            # Cross-table traffic, like queue + results share a file.
            backend.put("trial_costs", key, str(i))
        backend.close()
    except Exception as exc:  # noqa: BLE001 — reported to the parent
        failures.put(f"p{proc_id}: {type(exc).__name__}: {exc}")


class TestMultiProcessWriters:
    def test_four_processes_hammering_one_store(self, tmp_path):
        path = str(tmp_path / "hammer.sqlite")
        SqliteBackend(path).close()  # create the schema up front
        ctx = multiprocessing.get_context("fork")
        failures = ctx.Queue()
        procs = [ctx.Process(target=hammer, args=(path, pid, failures))
                 for pid in range(N_PROCS)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0

        errors = []
        while not failures.empty():
            errors.append(failures.get())
        assert errors == []

        backend = SqliteBackend(path)
        try:
            # 1 extra row per batched put (every 3rd iteration).
            extras = len([i for i in range(ROWS_PER_PROC) if i % 3 == 0])
            assert backend.count("sim_results") == N_PROCS * (ROWS_PER_PROC + extras)
            assert backend.count("trial_costs") == N_PROCS * ROWS_PER_PROC
            for pid in range(N_PROCS):
                for i in (0, ROWS_PER_PROC // 2, ROWS_PER_PROC - 1):
                    key = f"p{pid}-row{i:04d}"
                    assert backend.get("sim_results", key) == f"value-{pid}-{i}"
        finally:
            backend.close()


class TestRetryBusy:
    def test_retries_transient_busy_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        assert retry_busy(flaky, attempts=5, backoff=0.001) == "ok"
        assert len(calls) == 3

    def test_gives_up_after_bounded_attempts(self):
        def always_busy():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            retry_busy(always_busy, attempts=3, backoff=0.001)

    def test_non_busy_errors_propagate_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise sqlite3.OperationalError("no such table: nope")

        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            retry_busy(broken, attempts=5, backoff=0.001)
        assert len(calls) == 1

    def test_is_busy_error_classification(self):
        assert is_busy_error(sqlite3.OperationalError("database is locked"))
        assert is_busy_error(sqlite3.OperationalError("database table is locked"))
        assert not is_busy_error(sqlite3.OperationalError("no such table: x"))
        assert not is_busy_error(ValueError("database is locked"))

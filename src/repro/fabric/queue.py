"""Durable job queue: lease-based claiming over SQLite.

The queue is the crash-tolerant core of the distributed campaign
fabric. It lives in the *same* SQLite file as the persistent
:class:`~repro.store.resultstore.ResultStore` (its tables are
``fabric_``-prefixed, its schema independently versioned in
``fabric_meta``), so one ``--store PATH`` names both the work and the
results, and a worker needs exactly one file to participate.

The protocol, in full:

- **enqueue** — tasks are keyed by *content* (the engine's
  :func:`~repro.engine.keys.sim_key` rendered to text), inserted or
  revived: a new key gets a row, a ``dead`` key gets a fresh claim
  budget (resubmission is fresh intent), and a queued, leased or done
  key is left alone. Two drivers submitting the same experiment share
  one row, the way two engines submitting it share one result.
- **claim** — a worker takes up to ``n`` of the oldest claimable
  tasks inside one ``BEGIN IMMEDIATE`` transaction: state ``queued``,
  or state ``leased`` whose lease has expired (expiry-driven requeue — a
  SIGKILLed worker's task becomes claimable again after
  ``lease_seconds`` with no heartbeat). Claiming increments
  ``attempts``; a task claimed more than ``max_attempts`` times goes
  to the ``dead`` state (dead-letter) instead of being leased again.
- **heartbeat** — the executing worker extends its lease periodically;
  a live worker never loses a task to expiry, however slow the task.
  A worker's row beat also renews the leases of its latest claim, so
  a worker that reads a claim's reply only after a long kernel keeps
  the tasks it cannot name yet; the next claim supersedes that set,
  so a claim whose reply was lost still expires.
- **complete / fail** — completion is *guarded*: it only succeeds while
  the caller still holds the lease. A worker that lost its lease to
  expiry (and whose task was re-run elsewhere) gets ``False`` back and
  moves on — its result write was content-addressed and idempotent, so
  nothing is corrupted. Failure requeues (bounded by ``max_attempts``)
  or dead-letters, recording the error text.

Every statement runs under the store backend's
:func:`~repro.store.backend.retry_busy` wrapper: many workers on one
file is the *designed* load.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass

from repro.fabric.api import TaskQueue
from repro.pacing import Pacer
from repro.store.backend import BUSY_TIMEOUT, connect_sqlite, in_chunks, retry_busy

#: Bump when the fabric tables' layout changes incompatibly.
FABRIC_SCHEMA_VERSION = 1

#: Task lifecycle states.
TASK_STATES = ("queued", "leased", "done", "dead")

#: Default lease duration, seconds. Must exceed the worst-case single
#: task duration *between heartbeats* (workers heartbeat at lease/3).
DEFAULT_LEASE = 30.0

#: Default claim budget per task before it is dead-lettered.
DEFAULT_MAX_ATTEMPTS = 3

#: ``claim_many(wait=)`` naps between ``data_version`` checks, seconds:
#: the check is a shared-memory read, so the first naps are short.
CLAIM_NAP_FLOOR = 0.001
CLAIM_NAP_CAP = 0.05


@dataclass(frozen=True)
class Task:
    """One claimed unit of work, as handed to a worker."""

    key: str
    kind: str
    payload: dict
    attempts: int
    max_attempts: int


@dataclass(frozen=True)
class Lease:
    """A live (or expired, until reaped) claim on a task."""

    key: str
    worker: str
    expires: float
    attempts: int

    def remaining(self, now: float = None) -> float:
        """Seconds until expiry (negative when already expired)."""
        return self.expires - (time.time() if now is None else now)


class JobQueue(TaskQueue):
    """Durable task queue in one SQLite file (see module docs)."""

    def __init__(
        self,
        path: str,
        lease_seconds: float = DEFAULT_LEASE,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        busy_timeout: float = BUSY_TIMEOUT,
    ) -> None:
        self.path = os.fspath(path)
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self._lock = threading.Lock()
        # Wakes same-process long-poll claimers the moment work appears;
        # `_wakes` counts notifications so a wake landing between a
        # claim attempt and the nap is not lost. (Cross-process writers
        # can't signal us: `claim_many(wait=)` watches `data_version` for them.)
        self._wakeup = threading.Condition()
        self._wakes = 0
        # worker id -> (keys, lease) of its latest nonempty claim,
        # renewed by worker_beat (see the module docs' heartbeat).
        self._latest_claim: dict = {}
        self._conn = connect_sqlite(self.path, busy_timeout=busy_timeout)
        self._init_schema()

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    def _init_schema(self) -> None:
        with self._lock:
            retry_busy(self._create_tables)

    def _create_tables(self) -> None:
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS fabric_meta"
            " (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        row = self._conn.execute(
            "SELECT value FROM fabric_meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT OR IGNORE INTO fabric_meta VALUES ('schema_version', ?)",
                (str(FABRIC_SCHEMA_VERSION),),
            )
            row = (str(FABRIC_SCHEMA_VERSION),)
        self.schema_version = int(row[0])
        if self.schema_version != FABRIC_SCHEMA_VERSION:
            raise RuntimeError(
                f"fabric queue {self.path!r} has schema "
                f"v{self.schema_version}, this code speaks "
                f"v{FABRIC_SCHEMA_VERSION}; drain it with the old code first"
            )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS fabric_tasks ("
            " key TEXT PRIMARY KEY,"          # content key (sim_key text)
            " kind TEXT NOT NULL,"            # task kind (see fabric.tasks)
            " payload TEXT NOT NULL,"         # JSON task spec
            " state TEXT NOT NULL,"           # queued|leased|done|dead
            " attempts INTEGER NOT NULL DEFAULT 0,"
            " max_attempts INTEGER NOT NULL,"
            " worker TEXT,"                   # current/last lease owner
            " lease_expires REAL,"            # epoch seconds
            " error TEXT,"                    # last failure message
            " submitted_by TEXT,"             # free-form client tag
            " created REAL NOT NULL,"
            " updated REAL NOT NULL)"
        )
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS fabric_tasks_state"
            " ON fabric_tasks (state, created)"
        )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS fabric_workers ("
            " worker_id TEXT PRIMARY KEY,"
            " pid INTEGER,"
            " host TEXT,"
            " started REAL NOT NULL,"
            " last_seen REAL NOT NULL,"
            " tasks_done INTEGER NOT NULL DEFAULT 0,"
            " tasks_failed INTEGER NOT NULL DEFAULT 0,"
            " telemetry TEXT)"
        )

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def enqueue(self, tasks, submitted_by: str = None) -> int:
        """Insert or revive ``[(key, kind, payload_dict), ...]``.

        Content-keyed and idempotent: a new key is inserted, a ``dead``
        key gets the fresh claim budget :meth:`requeue_dead` would give
        it, and queued, leased and done keys are left untouched, so
        resubmitting a batch never duplicates work. Returns the rows
        inserted or revived.
        """
        now = time.time()
        rows = [
            (key, kind, json.dumps(payload, sort_keys=True),
             self.max_attempts, submitted_by, now, now)
            for key, kind, payload in tasks
        ]
        if not rows:
            return 0
        with self._lock:
            added = retry_busy(lambda: self._conn.executemany(
                "INSERT INTO fabric_tasks"
                " (key, kind, payload, state, max_attempts, submitted_by,"
                "  created, updated)"
                " VALUES (?, ?, ?, 'queued', ?, ?, ?, ?)"
                " ON CONFLICT(key) DO UPDATE SET state='queued', attempts=0,"
                "  worker=NULL, lease_expires=NULL, updated=excluded.updated"
                " WHERE fabric_tasks.state='dead'", rows
            ).rowcount)
        if added:
            self._notify()
        return added

    def requeue_dead(self) -> int:
        """Give every dead-lettered task a fresh claim budget; returns count."""
        now = time.time()
        with self._lock:
            revived = retry_busy(lambda: self._conn.execute(
                "UPDATE fabric_tasks SET state='queued', attempts=0,"
                " worker=NULL, lease_expires=NULL, updated=?"
                " WHERE state='dead'", (now,)
            ).rowcount)
        if revived:
            self._notify()
        return revived

    def cancel(self, keys) -> list:
        """Withdraw still-``queued`` tasks; returns the keys removed.

        Only unclaimed rows are deleted: a leased task is already
        executing somewhere (its content-keyed result lands in the
        store regardless), and done/dead rows are history. The async
        race uses this to retract speculative lookahead work for
        eliminated candidates.
        """
        keys = list(keys)
        removed: set = set()
        with self._lock:
            def op(chunk, marks):
                self._conn.execute("BEGIN IMMEDIATE")
                try:
                    hit = [row[0] for row in self._conn.execute(
                        f"SELECT key FROM fabric_tasks"
                        f" WHERE state='queued' AND key IN ({marks})", chunk)]
                    if hit:
                        # Same list, same transaction: deletes exactly `hit`.
                        self._conn.execute(
                            f"DELETE FROM fabric_tasks"
                            f" WHERE state='queued' AND key IN ({marks})", chunk)
                    self._conn.execute("COMMIT")
                    return hit
                except BaseException:
                    self._conn.execute("ROLLBACK")
                    raise

            for chunk, marks in in_chunks(keys):
                removed.update(retry_busy(lambda c=chunk, m=marks: op(c, m)))
        return [key for key in keys if key in removed]

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def claim(self, worker_id: str, lease_seconds: float = None,
              wait: float = None):
        """:meth:`claim_many` for one task: the task, or ``None``."""
        return next(iter(self.claim_many(worker_id, 1, lease_seconds, wait)), None)

    def claim_many(self, worker_id: str, n: int, lease_seconds: float = None,
                   wait: float = None) -> list:
        """Lease up to ``n`` claimable tasks in one transaction.

        Claimable: ``queued``, or ``leased`` with an expired lease (the
        crash-recovery path). One ``BEGIN IMMEDIATE`` covers the whole
        batch, so the per-claim transaction overhead (the dominant
        SQLite dispatch cost) is paid once, and a candidate whose claim
        budget is spent is dead-lettered inline instead of being handed
        out again.

        ``wait`` bounds a block on an empty queue, and the block takes
        no write lock: between naps (paced by
        :class:`~repro.pacing.Pacer` from 1 ms up to 50 ms) the claimer
        reads ``PRAGMA data_version`` and reruns its claim transaction
        only once another connection has committed, or a lease it saw
        has expired. Commits on this queue's own connection do not move
        ``data_version``, so same-process writers (``repro serve``)
        wake the claimer through a condition variable instead. Work
        from another process is picked up at most ``max(1 ms, half the
        time already waited)`` late, and never more than 50 ms late.

        The tasks a claim returns are the worker's *latest claim*: until
        the worker's next claim, :meth:`worker_beat` renews their leases
        as well, so they live while the reply is still unread.
        """
        if n <= 0:
            return []
        lease = self.lease_seconds if lease_seconds is None else float(lease_seconds)
        deadline = None if not wait else time.monotonic() + float(wait)
        pacer = Pacer(CLAIM_NAP_FLOOR, CLAIM_NAP_CAP)
        with self._lock:
            self._latest_claim.pop(worker_id, None)
        while True:
            with self._wakeup:
                wakes = self._wakes
            with self._lock:
                version = self._data_version()
                tasks = retry_busy(
                    lambda: self._claim_batch(worker_id, int(n), lease))
                if tasks:
                    self._latest_claim[worker_id] = (
                        [task.key for task in tasks], lease)
                if tasks or deadline is None:
                    return tasks
                expires = self._next_expiry()
            # Idle until a same-process writer notifies, a peer commits
            # or a seen lease lapses; only then claim again.
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                with self._wakeup:
                    if self._wakes == wakes:
                        self._wakeup.wait(min(pacer.nap(), remaining))
                    if self._wakes != wakes:
                        break
                if expires is not None and time.time() >= expires:
                    break
                with self._lock:
                    if self._data_version() != version:
                        break

    def _data_version(self) -> int:
        """SQLite's counter of commits by *other* connections."""
        return self._conn.execute("PRAGMA data_version").fetchone()[0]

    def _next_expiry(self):
        """Earliest live lease expiry (epoch seconds), ``None`` if none."""
        return retry_busy(lambda: self._conn.execute(
            "SELECT MIN(lease_expires) FROM fabric_tasks WHERE state='leased'"
        ).fetchone()[0])

    def _claim_batch(self, worker_id: str, n: int, lease: float) -> list:
        """Lease up to ``n`` candidates, read with one sorted ``SELECT``.

        The sort is the query's cost (its ``OR`` spans two index ranges
        and needs a temporary B-tree), so the whole batch is read at
        once. Only candidates dead-lettered for a spent claim budget
        leave the batch short; then the next candidates are read.
        """
        t = time.time()
        tasks: list = []
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            while len(tasks) < n:
                want = n - len(tasks)
                rows = self._conn.execute(
                    "SELECT key, kind, payload, attempts, max_attempts"
                    " FROM fabric_tasks"
                    " WHERE state = 'queued'"
                    "    OR (state = 'leased' AND lease_expires <= ?)"
                    " ORDER BY created, key LIMIT ?", (t, want)
                ).fetchall()
                # Claim budget exhausted (every prior lease died without
                # completing): dead-letter, don't re-lease.
                spent = [(t, row[0]) for row in rows if row[3] >= row[4]]
                live = [row for row in rows if row[3] < row[4]]
                self._conn.executemany(
                    "UPDATE fabric_tasks SET state='dead', worker=NULL,"
                    " lease_expires=NULL, updated=?,"
                    " error=COALESCE(error,"
                    "   'lease expired; claim budget exhausted')"
                    " WHERE key=?", spent
                )
                self._conn.executemany(
                    "UPDATE fabric_tasks SET state='leased', worker=?,"
                    " lease_expires=?, attempts=?, updated=? WHERE key=?",
                    [(worker_id, t + lease, row[3] + 1, t, row[0])
                     for row in live],
                )
                tasks.extend(Task(key=key, kind=kind,
                                  payload=json.loads(payload),
                                  attempts=attempts + 1,
                                  max_attempts=max_attempts)
                             for key, kind, payload, attempts, max_attempts
                             in live)
                if not spent or len(rows) < want:
                    break
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return tasks

    def heartbeat(self, key: str, worker_id: str, lease_seconds: float = None) -> bool:
        """Extend a held lease; ``False`` when the lease was lost."""
        lease = self.lease_seconds if lease_seconds is None else float(lease_seconds)
        now = time.time()
        with self._lock:
            return retry_busy(lambda: self._conn.execute(
                "UPDATE fabric_tasks SET lease_expires=?, updated=?"
                " WHERE key=? AND state='leased' AND worker=?",
                (now + lease, now, key, worker_id),
            ).rowcount) > 0

    def complete(self, key: str, worker_id: str) -> bool:
        """:meth:`complete_many` for one task."""
        return self.complete_many([(key, worker_id)])[0]

    def complete_many(self, completions) -> list:
        """Mark ``[(key, worker_id), ...]`` done in one transaction.

        Each entry is guarded on its own (``worker=?`` on both the
        leased and the done state), which is what makes a post-expiry
        straggler harmless *and* honest: its content-addressed result
        write already happened idempotently, and its ``False`` reports
        that the fabric no longer considers it the owner — while the
        actual finisher may repeat its own completion idempotently.
        The per-entry bools come back in input order.
        """
        completions = list(completions)
        if not completions:
            return []
        now = time.time()
        with self._lock:
            def op():
                self._conn.execute("BEGIN IMMEDIATE")
                try:
                    out = []
                    for key, worker in completions:
                        cur = self._conn.execute(
                            "UPDATE fabric_tasks SET state='done',"
                            " lease_expires=NULL, error=NULL, updated=?"
                            " WHERE key=? AND worker=?"
                            " AND state IN ('leased', 'done')",
                            (now, key, worker),
                        )
                        out.append(cur.rowcount > 0)
                    self._conn.execute("COMMIT")
                    return out
                except BaseException:
                    self._conn.execute("ROLLBACK")
                    raise
            return retry_busy(op)

    def release(self, key: str, worker_id: str) -> bool:
        """Return a held lease unstarted; the attempt is refunded.

        The clean exit for a pipelined worker shutting down with a
        prefetched task it never began: the row goes straight back to
        ``queued`` and the claim that prefetched it does not count
        against the task's budget (no spurious retry pressure, no
        dead-letter risk from repeated clean shutdowns).
        """
        now = time.time()
        with self._lock:
            released = retry_busy(lambda: self._conn.execute(
                "UPDATE fabric_tasks SET state='queued', worker=NULL,"
                " lease_expires=NULL, attempts=MAX(attempts - 1, 0), updated=?"
                " WHERE key=? AND worker=? AND state='leased'",
                (now, key, worker_id),
            ).rowcount) > 0
        if released:
            self._notify()
        return released

    def fail(self, key: str, worker_id: str, error: str) -> str:
        """Record a task failure; returns the resulting state.

        Requeues while the claim budget lasts, dead-letters after. A
        failure reported on a lost lease leaves the task untouched
        (returns its current state).
        """
        now = time.time()
        with self._lock:
            def op():
                self._conn.execute("BEGIN IMMEDIATE")
                try:
                    row = self._conn.execute(
                        "SELECT attempts, max_attempts FROM fabric_tasks"
                        " WHERE key=? AND state='leased' AND worker=?",
                        (key, worker_id),
                    ).fetchone()
                    if row is None:
                        self._conn.execute("COMMIT")
                        current = self._conn.execute(
                            "SELECT state FROM fabric_tasks WHERE key=?", (key,)
                        ).fetchone()
                        return current[0] if current else "unknown"
                    attempts, max_attempts = row
                    state = "dead" if attempts >= max_attempts else "queued"
                    self._conn.execute(
                        "UPDATE fabric_tasks SET state=?, worker=NULL,"
                        " lease_expires=NULL, error=?, updated=? WHERE key=?",
                        (state, str(error)[:2000], now, key),
                    )
                    self._conn.execute("COMMIT")
                    return state
                except BaseException:
                    self._conn.execute("ROLLBACK")
                    raise
            state = retry_busy(op)
        if state == "queued":
            self._notify()
        return state

    def _notify(self) -> None:
        """Wake same-process ``claim_many(wait=)`` blockers: work appeared."""
        with self._wakeup:
            self._wakes += 1
            self._wakeup.notify_all()

    # ------------------------------------------------------------------
    # Worker registry (heartbeat rows for `repro status`)
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: str = None, pid: int = None,
                        host: str = None) -> str:
        """Insert (or refresh) a worker row; returns the worker id."""
        worker_id = worker_id or f"worker-{uuid.uuid4().hex[:8]}"
        now = time.time()
        with self._lock:
            self._latest_claim.pop(worker_id, None)
            retry_busy(lambda: self._conn.execute(
                "INSERT INTO fabric_workers"
                " (worker_id, pid, host, started, last_seen)"
                " VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT(worker_id) DO UPDATE SET"
                "  pid=excluded.pid, host=excluded.host, last_seen=excluded.last_seen",
                (worker_id, pid, host, now, now),
            ))
        return worker_id

    def worker_beat(self, worker_id: str, tasks_done: int = None,
                    tasks_failed: int = None, telemetry: dict = None) -> None:
        """Refresh a worker row: liveness, counters, engine telemetry.

        Also renews the leases the worker's latest claim still holds
        (see :meth:`claim_many`).
        """
        now = time.time()
        sets, params = ["last_seen=?"], [now]
        if tasks_done is not None:
            sets.append("tasks_done=?")
            params.append(int(tasks_done))
        if tasks_failed is not None:
            sets.append("tasks_failed=?")
            params.append(int(tasks_failed))
        if telemetry is not None:
            sets.append("telemetry=?")
            params.append(json.dumps(telemetry, sort_keys=True))
        params.append(worker_id)
        with self._lock:
            retry_busy(lambda: self._conn.execute(
                f"UPDATE fabric_workers SET {', '.join(sets)} WHERE worker_id=?",
                params,
            ))
            keys, lease = self._latest_claim.get(worker_id, ((), 0.0))
            if keys:
                retry_busy(lambda: self._conn.execute(
                    "UPDATE fabric_tasks SET lease_expires=?, updated=?"
                    " WHERE state='leased' AND worker=? AND key IN"
                    f" ({', '.join('?' * len(keys))})",
                    (now + lease, now, worker_id, *keys),
                ))

    def workers(self) -> list:
        """All worker rows as dicts (telemetry JSON decoded)."""
        with self._lock:
            rows = retry_busy(lambda: list(self._conn.execute(
                "SELECT worker_id, pid, host, started, last_seen,"
                " tasks_done, tasks_failed, telemetry"
                " FROM fabric_workers ORDER BY started"
            )))
        out = []
        for (worker_id, pid, host, started, last_seen,
             done, failed, telemetry) in rows:
            out.append({
                "worker_id": worker_id, "pid": pid, "host": host,
                "started": started, "last_seen": last_seen,
                "tasks_done": done, "tasks_failed": failed,
                "telemetry": json.loads(telemetry) if telemetry else None,
            })
        return out

    # ------------------------------------------------------------------
    # Introspection (drivers and `repro status`)
    # ------------------------------------------------------------------
    def states(self, keys) -> dict:
        """``{key: state}`` for the given keys (missing keys absent)."""
        out: dict = {}
        with self._lock:
            for chunk, marks in in_chunks(keys):
                rows = retry_busy(lambda c=chunk, m=marks: list(self._conn.execute(
                    f"SELECT key, state FROM fabric_tasks WHERE key IN ({m})", c
                )))
                out.update(rows)
        return out

    def counts(self) -> dict:
        """Row count per task state (all states present, zeros kept)."""
        with self._lock:
            rows = retry_busy(lambda: list(self._conn.execute(
                "SELECT state, COUNT(*) FROM fabric_tasks GROUP BY state"
            )))
        out = {state: 0 for state in TASK_STATES}
        out.update(rows)
        return out

    def depth(self) -> int:
        """Outstanding tasks (queued + leased)."""
        counts = self.counts()
        return counts["queued"] + counts["leased"]

    def retries(self) -> int:
        """Total extra claims beyond each task's first (retry pressure)."""
        with self._lock:
            row = retry_busy(lambda: self._conn.execute(
                "SELECT COALESCE(SUM(MAX(attempts - 1, 0)), 0) FROM fabric_tasks"
            ).fetchone())
        return int(row[0])

    def leases(self, now: float = None) -> list:
        """Live lease rows, soonest expiry first."""
        with self._lock:
            rows = retry_busy(lambda: list(self._conn.execute(
                "SELECT key, worker, lease_expires, attempts FROM fabric_tasks"
                " WHERE state='leased' ORDER BY lease_expires"
            )))
        return [Lease(key=k, worker=w, expires=e, attempts=a)
                for k, w, e, a in rows]

    def dead(self) -> list:
        """Dead-letter rows as ``(key, attempts, error)`` tuples."""
        with self._lock:
            return retry_busy(lambda: list(self._conn.execute(
                "SELECT key, attempts, error FROM fabric_tasks"
                " WHERE state='dead' ORDER BY updated"
            )))

    def errors(self, key: str):
        """Last recorded error text for ``key`` (or ``None``)."""
        with self._lock:
            row = retry_busy(lambda: self._conn.execute(
                "SELECT error FROM fabric_tasks WHERE key=?", (key,)
            ).fetchone())
        return row[0] if row else None

    def purge_done(self) -> int:
        """Drop completed rows (results live in the store); returns count."""
        with self._lock:
            return retry_busy(lambda: self._conn.execute(
                "DELETE FROM fabric_tasks WHERE state='done'"
            ).rowcount)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the queue's SQLite connection."""
        with self._lock:
            self._conn.close()


def open_queue(spec, token: str = None, lease_seconds: float = DEFAULT_LEASE,
               max_retries: int = None) -> TaskQueue:
    """Open a queue: a SQLite file path, or an ``http(s)://``
    experiment-service URL (see :mod:`repro.service`).

    Mirrors :func:`~repro.store.resultstore.open_store`:
    ``token``/``max_retries`` configure the HTTP client for URL specs
    and are ignored otherwise.
    """
    from repro.service.protocol import is_url

    if is_url(spec):
        # Local import: the service package imports fabric modules.
        from repro.service.client import DEFAULT_MAX_RETRIES, HttpQueue

        return HttpQueue(
            spec, token=token, lease_seconds=lease_seconds,
            max_retries=DEFAULT_MAX_RETRIES if max_retries is None else max_retries,
        )
    return JobQueue(spec, lease_seconds=lease_seconds)

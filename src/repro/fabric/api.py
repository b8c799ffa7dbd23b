"""The fabric queue interface, extracted.

PR 5 built the durable queue directly on SQLite; the experiment
service (:mod:`repro.service`) adds a second implementation of the
same contract over HTTP. This module is the contract: every consumer
of a queue — :class:`~repro.fabric.worker.FabricWorker`,
:class:`~repro.engine.executors.FabricExecutor`,
:func:`~repro.fabric.status.status_snapshot`, ``repro submit`` —
programs against :class:`TaskQueue`, and anything implementing it
(today :class:`~repro.fabric.queue.JobQueue` on SQLite and
:class:`~repro.service.client.HttpQueue` over the wire) slots in
unchanged. The conformance suite in ``tests/test_fabric_queue.py``
runs against every implementation, so the semantics below are tested
once and inherited everywhere, not re-specified per transport.

Semantics every implementation must honour (the queue module's
docstring is the normative description):

- **enqueue** is content-keyed and idempotent: it inserts new keys,
  revives ``dead`` ones with a fresh claim budget, and leaves queued,
  leased and done rows untouched;
- **claim_many** leases up to ``n`` of the oldest claimable tasks in
  one round trip (one transaction / one request), dead-lettering tasks
  whose claim budget is exhausted, and ``wait`` turns an empty claim
  into a bounded block until work appears; ``claim`` is its one-task
  form;
- **heartbeat/complete_many/fail** are lease-guarded: they succeed only
  for the current lease owner, so post-expiry stragglers are harmless;
  ``complete_many`` acknowledges a batch in one round trip, and
  ``complete`` is its one-task form;
- **release** hands an unstarted lease back without burning an
  attempt — the clean exit for a pipelined worker holding a
  prefetched task it will never run;
- **requeue_dead** restores every dead-lettered task's claim budget;
- introspection (**states/counts/depth/retries/leases/dead/errors**)
  reflects live queue state for drivers and ``repro status``.
"""

from __future__ import annotations

import abc


class TaskQueue(abc.ABC):
    """Abstract durable task queue (see module docs for semantics)."""

    #: Default lease duration, seconds, applied when a claim/heartbeat
    #: call does not override it.
    lease_seconds: float

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def enqueue(self, tasks, submitted_by: str = None) -> int:
        """Insert or revive ``[(key, kind, payload_dict), ...]``; returns
        the rows inserted plus the dead rows revived."""

    @abc.abstractmethod
    def requeue_dead(self) -> int:
        """Restore every dead-lettered task's claim budget; returns count."""

    @abc.abstractmethod
    def cancel(self, keys) -> list:
        """Withdraw still-``queued`` tasks; returns the keys removed.

        Best-effort by design: leased tasks are already executing (the
        worker finishes and the content-keyed result is banked), done
        and dead rows are history. Only unclaimed speculation — the
        async race's stale lookahead — is deleted.
        """

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def claim(self, worker_id: str, lease_seconds: float = None,
              wait: float = None):
        """:meth:`claim_many` for one task: the task, or ``None``."""

    @abc.abstractmethod
    def claim_many(self, worker_id: str, n: int, lease_seconds: float = None,
                   wait: float = None) -> list:
        """Lease up to ``n`` claimable tasks in one round trip.

        Returns a (possibly empty) list of tasks, oldest first. One
        transaction (SQLite) or one request (HTTP). ``wait`` (seconds)
        turns an empty claim into a bounded block: the call returns as
        soon as a task becomes claimable, with every task claimable by
        then (up to ``n``), or ``[]`` once the wait elapses.
        """

    @abc.abstractmethod
    def heartbeat(self, key: str, worker_id: str, lease_seconds: float = None) -> bool:
        """Extend a held lease; ``False`` when the lease was lost."""

    @abc.abstractmethod
    def complete(self, key: str, worker_id: str) -> bool:
        """:meth:`complete_many` for one task."""

    @abc.abstractmethod
    def complete_many(self, completions) -> list:
        """Mark ``[(key, worker_id), ...]`` done in one round trip.

        Each entry is lease-guarded on its own; one bool per entry
        (``False`` when that lease was lost), in input order.
        """

    @abc.abstractmethod
    def release(self, key: str, worker_id: str) -> bool:
        """Return a held lease unstarted: back to ``queued``, the
        attempt refunded. ``False`` when the lease was lost (expired
        or reassigned) — harmless either way, the task is claimable.
        """

    @abc.abstractmethod
    def fail(self, key: str, worker_id: str, error: str) -> str:
        """Record a task failure; returns the resulting state."""

    # ------------------------------------------------------------------
    # Worker registry
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def register_worker(self, worker_id: str = None, pid: int = None,
                        host: str = None) -> str:
        """Insert (or refresh) a worker row; returns the worker id."""

    @abc.abstractmethod
    def worker_beat(self, worker_id: str, tasks_done: int = None,
                    tasks_failed: int = None, telemetry: dict = None) -> None:
        """Refresh a worker row: liveness, counters, engine telemetry.

        It also renews every lease the worker's latest :meth:`claim_many`
        handed it and still holds, so a worker that reads a claim's
        reply late keeps tasks it cannot name yet; the worker's next
        claim ends that.
        """

    @abc.abstractmethod
    def workers(self) -> list:
        """All worker rows as dicts (telemetry JSON decoded)."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def states(self, keys) -> dict:
        """``{key: state}`` for the given keys (missing keys absent)."""

    @abc.abstractmethod
    def counts(self) -> dict:
        """Row count per task state (all states present, zeros kept)."""

    @abc.abstractmethod
    def retries(self) -> int:
        """Total extra claims beyond each task's first (retry pressure)."""

    @abc.abstractmethod
    def leases(self, now: float = None) -> list:
        """Live lease rows, soonest expiry first."""

    @abc.abstractmethod
    def dead(self) -> list:
        """Dead-letter rows as ``(key, attempts, error)`` tuples."""

    @abc.abstractmethod
    def errors(self, key: str):
        """Last recorded error text for ``key`` (or ``None``)."""

    @abc.abstractmethod
    def purge_done(self) -> int:
        """Drop completed rows (results live in the store); returns count."""

    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Outstanding tasks (queued + leased)."""
        counts = self.counts()
        return counts["queued"] + counts["leased"]

    @abc.abstractmethod
    def close(self) -> None:
        """Release the queue's transport (connection, sockets)."""

    def __enter__(self) -> "TaskQueue":
        """Context-manager entry (closes on exit)."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: release the transport."""
        self.close()

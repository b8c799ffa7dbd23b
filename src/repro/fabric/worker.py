"""The fabric worker: lease, execute, write back, repeat.

``repro worker --store PATH`` runs one of these; ``repro worker --url
http://host:port --token ...`` runs the *same* loop against a remote
``repro serve`` (the store spec decides the transport — file path →
SQLite queue and store, URL → :class:`~repro.service.client.HttpQueue`
and an HTTP-backed store, no local database file at all). Workers are
fully symmetric and stateless-on-disk: everything a worker knows it
learned from the queue, so adding capacity is starting another process
(on this host or any host that can reach the service) and removing
capacity is killing one — the lease protocol cleans up after both.

Execution goes through a normal :class:`~repro.engine.engine.EvaluationEngine`
pointed at the shared store (one engine per (scale, decoder) pair,
cached for the worker's lifetime so traces record once). That is the
fabric's correctness keystone: a worker runs *exactly the code path a
serial run uses* and writes results under *exactly the key a serial
run would cache them under*, so a distributed campaign is byte-identical
to a serial one by construction rather than by testing.

Lifecycle:

1. register in ``fabric_workers`` (pid/host/heartbeat row);
2. claim loop — lease a batch of tasks, execute each, ``complete``/
   ``fail``; a background thread sends one worker-row beat at a third
   of the lease interval, which renews every held lease and those of a
   claim whose reply is still unread;
3. exit on ``max_tasks`` executed, ``max_idle`` seconds without work,
   ``drain`` finding the queue empty, or :meth:`FabricWorker.stop`.

One thread does all of it: the thread that calls :meth:`FabricWorker.run`
executes the tasks *and* makes every claim, result write and ack. Over
HTTP each exchange — results, acks and a claim in one request — is sent
before a kernel and its reply read after it, so the round trip travels
while the kernel runs: before the last claimed task the worker sends
its acks with a claim of up to :data:`~FabricWorker.PREFETCH_DEPTH`
more (payloads decoded and store checks pre-answered as they arrive),
and before any other task it sends the acks alone once
:data:`~FabricWorker.FLUSH_BATCH` wait or the oldest is
:data:`~FabricWorker.FLUSH_AGE` old. Only a dry queue leaves it waiting
on the wire, in one long-poll claim that carries its last acks. A local
queue runs the same loop, its calls completing at once. No second
thread has to win the GIL back from a running kernel before it can
touch the wire, and no handshake decides who claims. On a clean exit,
a claimed-but-unstarted task is handed back via ``release`` with its
claim attempt refunded.

A SIGKILL at any point needs no cleanup: the heartbeat stops, every
held lease (running, claimed ahead and unacked) expires, the tasks are
claimed elsewhere, and the half-finished worker's partial writes were
content-addressed and idempotent.
"""

from __future__ import annotations

import hashlib
import os
import platform
import tempfile
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field

from repro.engine import EvaluationEngine
from repro.fabric.queue import DEFAULT_LEASE, open_queue
from repro.fabric.tasks import KIND_SIMULATE, KIND_SLEEP, rebuild_config, resolve_decoder
from repro.store import open_store
from repro.store.resultstore import ResultStore
from repro.store.serialize import (
    dumps, encode_key, loads, stats_from_payload, stats_to_payload,
)


class _WriteBehindStore(ResultStore):
    """The worker engines' store view: sim-result writes are buffered.

    Each exchange (see :meth:`FabricWorker._send`) carries the buffer
    with its completion acks, results written first, so the ``done
    implies result readable`` ordering the executors rely on is
    preserved while a batch of tasks shares one write. Over HTTP the
    rows commit only when the server handles the request, during the
    next kernel. Reads never need the buffer: the engine memoises every
    result before it is buffered and asks the store only for keys its
    memo lacks.
    """

    def __init__(self, inner: ResultStore, worker: "FabricWorker") -> None:
        super().__init__(inner.backend)
        self._worker = worker

    def put_sim_many(self, items) -> int:
        return self._worker._buffer_results(items)

    def get_sim(self, key):
        return self.get_sims([key])[key]

    def get_sims(self, keys) -> dict:
        """Answer from the claim-time precheck; only keys it does not
        hold reach the backend (one ``get_many``, skipped when there are
        none)."""
        out: dict = {}
        ask = []
        for key in keys:
            found, row = self._worker._take_precheck(encode_key(key))
            if found:
                # The claim already asked the store; a ``None`` row
                # is an authoritative recent miss (a racing duplicate
                # landing in between merely costs one idempotent
                # recompute).
                out[key] = (stats_from_payload(loads(row))
                            if row is not None else None)
            else:
                ask.append(key)
        if ask:
            out.update(super().get_sims(ask))
        return out


def _all_workloads() -> list:
    """Every named workload a task may reference (micro + SPEC proxies)."""
    from repro.workloads.microbench import MICROBENCHMARKS
    from repro.workloads.spec import SPEC_WORKLOADS

    return [*MICROBENCHMARKS.values(), *SPEC_WORKLOADS.values()]


@dataclass
class WorkerStats:
    """What one worker session did (returned by :meth:`FabricWorker.run`)."""

    claimed: int = 0
    completed: int = 0
    failed: int = 0
    lost_leases: int = 0
    telemetry: dict = field(default_factory=dict)


class FabricWorker:
    """One lease-claiming execution loop over a fabric store file.

    Parameters
    ----------
    store_path:
        The store spec: a shared SQLite file holding both queue and
        result store, or an ``http(s)://`` experiment-service URL (the
        remote-fleet mode; queue and store both speak HTTP, and the
        only local state is the per-host trace cache).
    worker_id:
        Stable identity in ``fabric_workers`` (default: generated).
    lease:
        Lease duration per claim, seconds. The heartbeat thread renews
        at ``lease / 3``, so this bounds crash-detection latency, not
        task duration.
    poll:
        How long a claim waits on an empty queue, seconds.
    max_tasks:
        Exit after executing this many tasks (``None`` = unbounded).
    max_idle:
        Exit after this many consecutive seconds without work.
    drain:
        Exit the first time a claim finds the queue empty (run the
        backlog, then stop — the in-process mode tests and benchmarks
        use).
    progress:
        Optional ``callable(str)`` for per-task log lines (tokens are
        redacted before they reach it).
    token:
        Bearer token for URL specs (falls back to ``REPRO_TOKEN``);
        ignored for file paths.
    max_retries:
        Transient-failure budget of the HTTP client for URL specs
        (connection refused, timeouts, 5xx, 429 — retried with
        exponential backoff and jitter); ignored for file paths.
    """

    def __init__(
        self,
        store_path: str,
        worker_id: str = None,
        lease: float = DEFAULT_LEASE,
        poll: float = 0.5,
        max_tasks: int = None,
        max_idle: float = None,
        drain: bool = False,
        progress=None,
        token: str = None,
        max_retries: int = None,
    ) -> None:
        from repro.service.protocol import is_url, resolve_token

        self.store_path = os.fspath(store_path)
        self.lease = float(lease)
        self.poll = float(poll)
        self.max_tasks = max_tasks
        self.max_idle = max_idle
        self.drain = drain
        self.progress = progress
        self.remote = is_url(self.store_path)
        self._token = resolve_token(token) if self.remote else None
        # Each task's retry budget (max_attempts) is a *row* property,
        # fixed by the submitter at enqueue time — workers only honour it.
        self.queue = open_queue(self.store_path, token=self._token,
                                lease_seconds=self.lease, max_retries=max_retries)
        self.store = open_store(self.store_path, token=self._token,
                                max_retries=max_retries)
        self.worker_id = self.queue.register_worker(
            worker_id, pid=os.getpid(), host=platform.node() or None
        )
        self.stats = WorkerStats()
        self._engines: dict = {}
        self._stop = threading.Event()
        # The leases this worker holds: tasks claimed ahead but not
        # started, the running one, finished tasks awaiting a batched
        # ack and those whose ack is in flight. Only the run() thread
        # changes them; the lock lets the heartbeat thread take a
        # consistent snapshot.
        self._held = threading.Lock()
        self._pending: deque = deque()
        self._active_key: str = None
        self._outbox: list = []
        self._acking: list = []  # tasks whose ack is in flight
        self._results: list = []  # [(key, stats)] awaiting a batched flush
        self._sent = None  # the open exchange: see _send
        self._decoded: dict = {}  # task key -> claim-decoded SimConfig
        self._precheck: dict = {}  # task key -> claim-time store row (or None)
        self._last_beat = 0.0
        # Engines write through this view; each flush writes its buffer
        # ahead of the completion batch.
        self._engine_store = _WriteBehindStore(self.store, self)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask the claim loop to exit after the current task."""
        self._stop.set()

    def _log(self, text: str) -> None:
        if self.progress is not None:
            from repro.service.protocol import redact

            self.progress(f"[{self.worker_id}] {redact(text, self._token)}")

    def _trace_cache_dir(self) -> str:
        """Where this worker's engines keep recorded traces.

        Local store: next to the store file (``<store>.traces/``), so
        every worker on the host shares one cache. Remote store: traces
        stay **local** — shipping multi-megabyte columnar blobs through
        the service would swamp it for data every host can deterministically
        re-record — under a temp-dir keyed by the service URL, so all
        workers on a host talking to the same service still share.
        """
        if not self.remote:
            return self.store_path + ".traces"
        digest = hashlib.sha1(self.store_path.encode("utf-8")).hexdigest()[:12]
        return os.path.join(tempfile.gettempdir(), f"repro-traces-{digest}")

    def _engine_for(self, scale: float, decoder_spec: str) -> EvaluationEngine:
        """The cached engine running (scale, decoder) tasks.

        Engines share one columnar trace cache per host (see
        :meth:`_trace_cache_dir`): the first worker to need a trace
        records and persists it, every other worker — and every later
        engine — memory-maps the blob instead of re-recording.
        """
        key = (scale, decoder_spec)
        engine = self._engines.get(key)
        if engine is None:
            engine = EvaluationEngine(
                workloads=_all_workloads(), scale=scale,
                decoder=resolve_decoder(decoder_spec), store=self._engine_store,
                trace_cache=self._trace_cache_dir(),
            )
            self._engines[key] = engine
        return engine

    def _telemetry(self) -> dict:
        """Engine telemetry summed over every cached engine.

        Remote workers fold in the wire counters of both HTTP clients
        (queue and store): requests, body bytes each way, retries and
        compressed bodies, ``wire_``-prefixed — what ``repro status``
        shows as the worker's dispatch cost.
        """
        total: dict = {}
        for engine in self._engines.values():
            for name, value in asdict(engine.telemetry).items():
                total[name] = total.get(name, 0) + value
        if self.remote:
            for client in (self.queue.client, self.store.backend.client):
                for name, value in client.telemetry().items():
                    total[name] = total.get(name, 0) + value
        return total

    def _prepare(self, tasks, rows) -> None:
        """Decode each claimed simulation and pre-answer its store check.

        Each claimed simulation's :class:`SimConfig` is rebuilt and the
        engine's store check (was this key already computed
        elsewhere?) pre-answered — by the claim reply itself over HTTP
        (``rows``), by one batched ``get_many`` on a local queue — so a
        task starts simulating without a parse or a round trip.
        Best-effort: any failure here simply leaves the task's
        execution to do the work — and raise its own,
        properly-attributed error.
        """
        sims = [task for task in tasks if task.kind == KIND_SIMULATE]
        if not sims:
            return
        try:
            decoded = [(task.key, rebuild_config(task.payload["config"]))
                       for task in sims]
            keys = [task.key for task in sims]
            if rows is None:
                rows = self.store.backend.get_many("sim_results", keys)
            rows = {key: rows.get(key) for key in keys}
        except Exception:  # noqa: BLE001 — execute path re-raises for real
            return
        self._decoded.update(decoded)
        self._precheck.update(rows)

    # ------------------------------------------------------------------
    # Write-behind result buffer (see :class:`_WriteBehindStore`)
    # ------------------------------------------------------------------
    def _buffer_results(self, items) -> int:
        items = list(items)
        self._results.extend(items)
        return len(items)

    def _take_precheck(self, encoded_key: str) -> tuple:
        """``(found, raw_row)`` from the claim-time store precheck."""
        if encoded_key not in self._precheck:
            return False, None
        return True, self._precheck.pop(encoded_key)

    # ------------------------------------------------------------------
    # Exchanges: results, acks and a claim, sent now and read later
    # ------------------------------------------------------------------
    def _send(self, n: int, wait: float = None) -> None:
        """Start an exchange: every buffered result, every finished
        task's ack and, when ``n`` is positive, a claim of ``n`` tasks.

        Results first, acks second, the claim last: a completion must
        never become visible before its result row, and a claim that
        waits on an empty queue holds no unacked work. Over HTTP it is
        one request (``send_claim``, or ``send_complete`` when ``n`` is
        0), written now; :meth:`_receive` reads its reply, after the
        next kernel when there is one. A local queue makes the calls at
        once, since each is a local transaction: ``put_sim_many``,
        ``complete_many``, ``claim_many``. The acked tasks keep their
        leases, renewed by the heartbeat, until the reply is read; the
        claimed ones, which the worker cannot name until then, are
        renewed by the worker-row beat.
        """
        batch, results = self._outbox, self._results
        acks = [(task.key, self.worker_id) for task in batch]
        with self._held:
            self._outbox, self._acking = [], batch
        self._results = []
        try:
            if self.remote:
                rows = [(encode_key(key), dumps(stats_to_payload(stats)))
                        for key, stats in results]
                if n:
                    reply = self.queue.send_claim(
                        self.worker_id, n, wait=wait, completions=acks,
                        results=rows)
                else:
                    reply = self.queue.send_complete(acks, rows)
            else:
                if results:
                    self.store.put_sim_many(results)
                oks = self.queue.complete_many(acks) if acks else []
                tasks = (self.queue.claim_many(self.worker_id, n, wait=wait)
                         if n else [])
                reply = (tasks, None, oks)
        except BaseException:
            self._unsend(results)
            raise
        self._sent = (reply, n, results)

    def _receive(self) -> None:
        """Finish the open exchange, if any: count its acks, then queue
        the tasks it claimed, decoded and prechecked.

        Over HTTP the pinned read halves take the reply:
        ``claim_many_prechecked`` the tasks, ``complete_many_with_results``
        the acks' outcome. If the read fails for good, the results and
        acks go back to the buffers for the exit flush.
        """
        if self._sent is None:
            return
        (reply, n, results), self._sent = self._sent, None
        batch = self._acking
        try:
            if not self.remote:
                tasks, rows, oks = reply
            else:
                tasks, rows = [], None
                if n:
                    tasks, rows = self.queue.claim_many_prechecked(
                        self.worker_id, n, sent=reply)
                oks = []
                if batch or not n:
                    oks = self.queue.complete_many_with_results(
                        (), (), sent=reply)
        except BaseException:
            self._unsend(results)
            raise
        for task, ok in zip(batch, oks):
            if ok:
                self.stats.completed += 1
                self._log(f"done {task.kind} (attempt "
                          f"{task.attempts}/{task.max_attempts})")
            else:
                # Lease expired mid-task and someone else owns it now;
                # the content-addressed result write was idempotent, so
                # this is bookkeeping, not loss.
                self.stats.lost_leases += 1
                self._log("lease lost before completion")
        self._prepare(tasks, rows)
        with self._held:
            self._acking = []
            self._pending.extend(tasks)

    def _unsend(self, results: list) -> None:
        """Return a failed exchange's results and acks to the buffers."""
        with self._held:
            self._outbox = self._acking + self._outbox
            self._acking = []
        self._results = results + self._results

    def _flush(self) -> None:
        """Write every buffered result and ack every finished task, now."""
        if self._outbox or self._results:
            self._send(0)
            self._receive()

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------
    def _execute(self, task) -> None:
        """Run one claimed task (dispatch on kind); raises on failure."""
        if task.kind == KIND_SIMULATE:
            self._execute_simulate(task)
        elif task.kind == KIND_SLEEP:
            time.sleep(float(task.payload.get("seconds", 0.0)))
        else:
            raise ValueError(f"unknown task kind {task.kind!r}")

    def _execute_simulate(self, task) -> None:
        payload = task.payload
        engine = self._engine_for(payload["scale"], payload["decoder"])
        config = self._decoded.pop(task.key, None)
        if config is None:  # the claim-time decode failed; fail here
            config = rebuild_config(payload["config"])
        workload = payload["workload"]
        engine.overrides[workload] = dict(payload.get("overrides") or {})
        # The engine must address this run exactly where the submitter
        # expects to read it; a mismatch means code-version skew
        # (changed registry fingerprint, changed keying). Skew is a
        # property of the worker's *code*, not of one task, so one
        # check per engine suffices — and a hypothetical later mismatch
        # still fails loudly downstream, as a result the executor
        # reports "marked done but its result is missing".
        if not getattr(engine, "_fabric_skew_checked", False):
            local_key = encode_key(engine.result_key(config, workload))
            if local_key != task.key:
                raise RuntimeError(
                    "content key mismatch: this worker's code computes a "
                    "different sim key than the submitter's (version skew); "
                    "restart the worker from the submitting checkout"
                )
            engine._fabric_skew_checked = True
        engine.simulate(config, workload)  # writes the store via its key

    # ------------------------------------------------------------------
    # Claim loop
    # ------------------------------------------------------------------
    #: Completion acks flush as soon as this many pile up ...
    FLUSH_BATCH = 4
    #: ... or when the oldest unacked completion is this old, seconds.
    #: Both are checked before each task; every claim carries the acks.
    FLUSH_AGE = 0.05
    #: Tasks one claim leases. Sized so one claim round trip (~2 ms
    #: over HTTP) is shared by enough work to keep the worker
    #: compute-bound on sub-ms tasks — yet shallow enough that a
    #: SIGKILLed worker strands only a handful of (expiring) leases.
    PREFETCH_DEPTH = 6

    def run(self) -> WorkerStats:
        """Claim and execute until an exit condition; returns the stats.

        ``stats.claimed`` counts tasks the loop *started executing*; a
        claimed-ahead task handed back on exit (``release``) is neither
        claimed nor charged against the task's retry budget.
        """
        beat = threading.Thread(target=self._heartbeat_loop, daemon=True)
        beat.start()
        last_work = time.time()
        oldest = 0.0  # when the outbox last went nonempty
        try:
            while not self._stop.is_set() and (
                    self.max_tasks is None
                    or self.stats.claimed < self.max_tasks):
                if not self._pending and not self._claim_ahead():
                    if self.drain:
                        break
                    if (self.max_idle is not None
                            and time.time() - last_work >= self.max_idle):
                        self._log(f"idle {self.max_idle:.0f}s, exiting")
                        break
                    continue
                last_work = time.time()
                with self._held:
                    task = self._pending.popleft()
                    self._active_key = task.key
                self.stats.claimed += 1
                # Wire I/O travels while the kernel runs: before the
                # last claimed task, the acks and the next claim (with
                # no wait, so it never parks); before any other, the
                # acks once they are due.
                budget = self._claim_budget()
                if not self._pending and budget:
                    self._send(budget)
                elif self._outbox and (
                        len(self._outbox) >= self.FLUSH_BATCH
                        or time.monotonic() - oldest >= self.FLUSH_AGE):
                    self._send(0)
                try:
                    self._execute(task)
                except Exception as exc:  # noqa: BLE001 — task isolation
                    self._receive()  # the reply is read before the fail
                    state = self.queue.fail(task.key, self.worker_id,
                                            f"{type(exc).__name__}: {exc}")
                    with self._held:
                        self._active_key = None
                    self.stats.failed += 1
                    self._log(f"task failed ({state}): {exc}")
                else:
                    with self._held:
                        self._active_key = None
                        self._outbox.append(task)
                    if len(self._outbox) == 1:
                        oldest = time.monotonic()
                    self._receive()
                now = time.time()
                if now - self._last_beat >= max(0.5, self.lease / 6.0):
                    self._last_beat = now
                    self._beat_row()
        finally:
            self._stop.set()
            self._shutdown_queue_state()
            beat.join(timeout=2.0)
            self.stats.telemetry = self._telemetry()
            try:
                self._beat_row()
            except Exception:  # noqa: BLE001 — stats beat is best-effort
                pass
            self.close()
        return self.stats

    def _claim_budget(self) -> int:
        """Tasks the next claim may lease: :data:`PREFETCH_DEPTH`, and
        never so many that ``max_tasks`` would leave some unstarted."""
        budget = self.PREFETCH_DEPTH
        if self.max_tasks is not None:
            budget = min(budget, self.max_tasks - self.stats.claimed
                         - len(self._pending))
        return max(budget, 0)

    def _claim_ahead(self) -> bool:
        """The dry-queue path: ack what is finished and claim, waiting.

        Runs only when nothing is claimed ahead and the claim that went
        out with the last kernel came back empty. One exchange carries
        every finished task's ack and a claim that long-polls ``poll``
        seconds unless draining; the acks land before the claim can
        wait, so the last results of a race step never sit out
        :data:`FLUSH_AGE`. Returns whether anything was claimed.
        """
        self._send(self._claim_budget(), None if self.drain else self.poll)
        self._receive()
        return bool(self._pending)

    def _shutdown_queue_state(self) -> None:
        """Read an open exchange, flush the last completions and hand
        back unstarted leases.

        Best-effort by design: if the queue is unreachable the leases
        expire on their own and the tasks are re-run elsewhere — the
        content-addressed results make that merely redundant.
        """
        for step in (self._receive, self._flush):
            try:
                step()
            except Exception as exc:  # noqa: BLE001 — lease expiry covers us
                self._log(f"completion flush failed on exit: {exc}")
        with self._held:
            pending = list(self._pending)
            self._pending.clear()
        for task in pending:
            try:
                self.queue.release(task.key, self.worker_id)
                self._log(f"released unstarted claim {task.key}")
            except Exception as exc:  # noqa: BLE001 — lease expiry covers us
                self._log(f"release failed on exit: {exc}")

    def _beat_row(self) -> None:
        self.queue.worker_beat(
            self.worker_id, tasks_done=self.stats.completed,
            tasks_failed=self.stats.failed, telemetry=self._telemetry(),
        )

    def _held_keys(self) -> list:
        """Every lease this worker can name (claimed ahead, running,
        finished-but-unacked, ack in flight), which the heartbeat's
        beat renews. The tasks of a claim whose reply is unread are not
        among them; the beat renews those as the latest claim's."""
        with self._held:
            tasks = [*self._pending, *self._outbox, *self._acking]
            active = self._active_key
        keys = [task.key for task in tasks]
        if active is not None:
            keys.append(active)
        return keys

    def _heartbeat_loop(self) -> None:
        """Renew every held lease, and those of the latest claim, with
        one worker-row beat at lease/3."""
        interval = max(0.05, self.lease / 3.0)
        while not self._stop.wait(interval):
            self.queue.worker_beat(self.worker_id, keys=self._held_keys())

    def close(self) -> None:
        """Release engines, the store handle and the queue connection."""
        for engine in self._engines.values():
            engine.close()
        self._engines.clear()
        self.store.close()
        self.queue.close()

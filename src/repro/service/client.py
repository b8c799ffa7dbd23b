"""Client side of the experiment service: retry, queue, store.

Three layers, each thin:

- :class:`ServiceClient` — the transport. Persistent per-thread
  ``http.client`` connections (keep-alive: one TCP setup amortised
  over a worker's whole session instead of paid per request) plus the
  protocol obligations (bearer auth, wire-version header, one
  handshake before the first real request, zlib-deflated bodies above
  the size threshold) and a retry loop with exponential backoff and
  jitter. Transient trouble — connection refused (server not up yet,
  or restarting mid-campaign), timeouts, a stale keep-alive socket,
  5xx, 429 backpressure (whose ``Retry-After`` is honoured as a floor)
  — is retried up to ``max_retries`` times; protocol errors (400, 401,
  404, 426) raise :class:`ServiceError` immediately, because retrying
  a wrong token or a version mismatch cannot help. Every request is
  written by :meth:`~ServiceClient.send`, whose :class:`Reply` is read
  when asked, so a worker can run a kernel while the server answers;
  :meth:`~ServiceClient.call` reads it at once, and a failed read is
  retried like any request. The client counts
  its own wire traffic (requests, bytes each way, retries, compressed
  bodies); workers fold those counters into their heartbeat telemetry
  so ``repro status`` can show what the fleet costs on the wire.
- :class:`HttpQueue` — :class:`~repro.fabric.api.TaskQueue` over the
  wire. Byte-for-byte the same contract as the SQLite queue (the
  conformance suite in ``tests/test_fabric_queue.py`` runs against
  both), so :class:`~repro.fabric.worker.FabricWorker` and
  :class:`~repro.engine.executors.FabricExecutor` cannot tell the
  transports apart.
- :class:`HttpBackend` — the store backend protocol over the wire.
  ``open_store("http://host:port")`` builds a full
  :class:`~repro.store.resultstore.ResultStore` on top of it, which is
  what lets a remote worker run with no database file: every result
  write lands in the server's SQLite file, every read comes from it.

Timekeeping note: the server's clock is authoritative for leases. A
remote ``leases()`` reports expiry in *server* time alongside the
server's *now*, so remaining-time arithmetic stays skew-free.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import zlib
from urllib.parse import urlsplit

from repro.fabric.api import TaskQueue
from repro.fabric.queue import DEFAULT_LEASE, Lease, Task
from repro.service.protocol import (
    API_PREFIX,
    COMPRESS_ENCODING,
    COMPRESS_THRESHOLD,
    MAX_BODY,
    MAX_CLAIM_COUNT,
    WIRE_HEADER,
    WIRE_VERSION,
    BodyTooLarge,
    inflate,
    redact,
    resolve_token,
)

#: Attempts before a transient failure is given up on (initial
#: connection and mid-campaign alike). Overridable per client and via
#: ``repro worker --max-retries``.
DEFAULT_MAX_RETRIES = 8

#: First backoff sleep, seconds; doubles per attempt up to the cap.
DEFAULT_BACKOFF = 0.2

#: Backoff ceiling, seconds.
DEFAULT_MAX_BACKOFF = 10.0

#: Per-request socket timeout, seconds.
DEFAULT_TIMEOUT = 30.0


class ServiceError(RuntimeError):
    """A service request failed for good (non-transient, or retries spent).

    ``status`` carries the HTTP status when one was received, else
    ``None`` (pure transport failure).
    """

    def __init__(self, message: str, status: int = None) -> None:
        super().__init__(message)
        self.status = status


class Reply:
    """A request on the wire whose reply is read later.

    Made by :meth:`ServiceClient.send`. :meth:`result` reads the reply
    on first use, or takes it from an earlier read, and returns the
    decoded body or raises what the request failed with. Read it on the
    thread that sent the request.
    """

    def __init__(self, client: "ServiceClient", method: str, endpoint: str,
                 encoded: tuple, timeout: float) -> None:
        self.client = client
        self.method = method
        self.endpoint = endpoint
        self.encoded = encoded
        self.timeout = timeout
        self.written = None   # (connection, fresh) holding the reply
        self.outcome = None   # (value, error) once read

    def result(self) -> dict:
        """The reply's decoded body (read now if nobody has yet)."""
        if self.outcome is None:
            self.client._read(self)
        value, error = self.outcome
        if error is not None:
            raise error
        return value


class ServiceClient:
    """HTTP transport to one experiment service, with retries.

    Parameters
    ----------
    url:
        Service base URL (``http://host:port``); trailing slash and an
        accidental ``/api/v1`` suffix are tolerated.
    token:
        Bearer token; falls back to the ``REPRO_TOKEN`` environment
        variable. Without one, requests carry no credentials and the
        server answers 401.
    timeout:
        Per-request socket timeout, seconds.
    max_retries:
        Transient-failure budget per request (0 = fail on first error).
    backoff / max_backoff:
        Exponential backoff base and ceiling, seconds. Actual sleeps
        are jittered (×0.5..1.5) so a restarted fleet does not stampede
        the server in lockstep; a 429's ``Retry-After`` is a floor.
    """

    def __init__(
        self,
        url: str,
        token: str = None,
        timeout: float = DEFAULT_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        max_backoff: float = DEFAULT_MAX_BACKOFF,
    ) -> None:
        base = url.rstrip("/")
        if base.endswith(API_PREFIX):
            base = base[: -len(API_PREFIX)]
        self.url = base
        self.token = resolve_token(token)
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self._rng = random.Random()
        self._handshaken = False
        parts = urlsplit(base)
        self._scheme = parts.scheme or "http"
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port or (443 if self._scheme == "https" else 80)
        # One persistent connection per thread: the client is shared by
        # a worker's run loop and its heartbeat thread (and by a
        # driver's threads), and http.client connections are not
        # thread-safe. Each holds at most one unread reply.
        self._local = threading.local()
        self._telemetry_lock = threading.Lock()
        self._counters = {"requests": 0, "bytes_out": 0, "bytes_in": 0,
                          "retries": 0, "compressed_bodies": 0}

    # ------------------------------------------------------------------
    def telemetry(self) -> dict:
        """Wire-traffic counters since construction, ``wire_``-prefixed.

        ``wire_requests`` / ``wire_bytes_out`` / ``wire_bytes_in`` /
        ``wire_retries`` / ``wire_compressed_bodies`` — the shape
        workers merge straight into their heartbeat telemetry dicts.
        Byte counts are HTTP body bytes as sent on the wire (after
        compression), both directions.
        """
        with self._telemetry_lock:
            return {f"wire_{name}": count
                    for name, count in self._counters.items()}

    def _count(self, **deltas) -> None:
        with self._telemetry_lock:
            for name, delta in deltas.items():
                self._counters[name] += delta

    # ------------------------------------------------------------------
    def handshake(self) -> dict:
        """Fetch the server's version card, verifying wire compatibility.

        Raises :class:`ServiceError` when the server speaks a different
        wire version (the server-side per-request check catches the
        mirror case of an old server and a new client).
        """
        card = self.call("GET", "handshake")
        server_wire = card.get("wire_version")
        if server_wire != WIRE_VERSION:
            raise ServiceError(
                f"wire version mismatch: server {self.url} speaks "
                f"v{server_wire}, this client v{WIRE_VERSION}; update the "
                f"older side",
                status=426,
            )
        self._handshaken = True
        return card

    def call(self, method: str, endpoint: str, payload: dict = None,
             timeout: float = None) -> dict:
        """One API call, its reply read at once (see :meth:`send`)."""
        return self.send(method, endpoint, payload, timeout).result()

    def send(self, method: str, endpoint: str, payload: dict = None,
             timeout: float = None) -> Reply:
        """Write one API request now; its :class:`Reply` reads the answer.

        Handshakes first if this client hasn't yet. ``timeout`` raises
        this request's socket timeout above the client default — the
        long-poll claim path sets it to the poll wait plus margin so a
        parked request cannot time out under a healthy server.

        The request goes out on the calling thread's keep-alive
        connection, which holds at most one unread reply: any later
        request on this thread reads that reply first. Between the two,
        the caller can work while the server answers.
        """
        self._settle()
        if not self._handshaken and endpoint != "handshake":
            self.handshake()
        reply = Reply(self, method, endpoint,
                      self._encode(method, endpoint, payload), timeout)
        conn, fresh = self._connection(self._timeout(timeout))
        try:
            self._write(conn, method, reply.encoded)
            reply.written = conn, fresh
        except (http.client.HTTPException, OSError):
            self._drop_connection()  # the read sends it again, with retries
        self._local.unread = reply
        return reply

    def _settle(self) -> None:
        """Read this thread's outstanding reply, if any."""
        reply = getattr(self._local, "unread", None)
        if reply is not None:
            self._read(reply)

    def _read(self, reply: "Reply") -> None:
        """Read a sent request's reply into ``reply`` (its value or its
        error)."""
        if getattr(self._local, "unread", None) is reply:
            self._local.unread = None
        written, reply.written = reply.written, None
        try:
            value = self._exchange(reply.method, reply.endpoint, reply.encoded,
                                   reply.timeout, written=written)
        except Exception as exc:  # noqa: BLE001 — raised by Reply.result
            reply.outcome = (None, exc)
        else:
            reply.outcome = (value, None)

    # ------------------------------------------------------------------
    # Transport: persistent per-thread connections
    # ------------------------------------------------------------------
    def _connection(self, timeout: float):
        conn = getattr(self._local, "conn", None)
        fresh = conn is None
        if fresh:
            factory = (http.client.HTTPSConnection
                       if self._scheme == "https" else
                       http.client.HTTPConnection)
            conn = factory(self._host, self._port, timeout=timeout)
            self._local.conn = conn
        if conn.timeout != timeout:
            conn.timeout = timeout
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
        return conn, fresh

    @staticmethod
    def _write(conn, method: str, encoded: tuple) -> None:
        """Write an encoded request on a connection."""
        path, body, headers = encoded
        conn.request(method, path, body=body or None, headers=headers)

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            try:
                conn.close()
            except OSError:
                pass

    def _timeout(self, timeout: float = None) -> float:
        return self.timeout if timeout is None else timeout

    def _encode(self, method: str, endpoint: str, payload: dict = None) -> tuple:
        """``(path, body, headers)`` of one request, body compressed
        when large."""
        body = b""
        headers = {WIRE_HEADER: str(WIRE_VERSION),
                   "Content-Type": "application/json",
                   "Accept-Encoding": COMPRESS_ENCODING}
        if method == "POST":
            body = json.dumps(payload or {}).encode("utf-8")
            if len(body) >= COMPRESS_THRESHOLD:
                body = zlib.compress(body)
                headers["Content-Encoding"] = COMPRESS_ENCODING
                self._count(compressed_bodies=1)
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        return f"{API_PREFIX}/{endpoint}", body, headers

    def _exchange(self, method: str, endpoint: str, encoded: tuple,
                  timeout: float = None, written=None) -> dict:
        """Read an encoded request's reply, sending it again on failure.

        ``written`` is the ``(connection, fresh)`` :meth:`send` wrote
        the request to, so the first attempt only reads the reply from
        it; it is ``None`` when that write failed. A failed read is a
        failed attempt like any other, so the request goes out again
        under the same retry rules.
        """
        body = encoded[1]
        attempt = 0
        stale_retry = True
        while True:
            retry_floor = 0.0
            if written is None:
                conn, fresh = self._connection(self._timeout(timeout))
                unsent = True
            else:
                (conn, fresh), written, unsent = written, None, False
            try:
                if unsent:
                    self._write(conn, method, encoded)
                resp = conn.getresponse()
                raw = resp.read(MAX_BODY + 1)
                if len(raw) > MAX_BODY:
                    self._drop_connection()  # the rest is still unread
                    raise ServiceError(
                        f"{method} /{endpoint} failed: response body exceeds "
                        f"the {MAX_BODY}-byte limit", status=resp.status)
                self._count(requests=1, bytes_out=len(body), bytes_in=len(raw))
                status = resp.status
                encoding = (resp.getheader("Content-Encoding") or "").lower()
                if encoding == COMPRESS_ENCODING:
                    try:
                        raw = inflate(raw)
                    except (BodyTooLarge, zlib.error) as exc:
                        raise ServiceError(
                            f"{method} /{endpoint} failed: undecodable "
                            f"response body: {exc}", status=status) from None
                    self._count(compressed_bodies=1)
                if status == 200:
                    try:
                        return json.loads(raw)
                    except ValueError as exc:
                        raise ServiceError(
                            f"{method} /{endpoint} failed: undecodable "
                            f"response body: {exc}", status=status) from None
                detail = self._error_text(raw)
                if status == 429:
                    retry_floor = self._retry_after(resp)
                elif status < 500:
                    raise ServiceError(
                        f"{method} /{endpoint} failed: HTTP {status}: "
                        f"{detail}", status=status,
                    )
                failure = f"HTTP {status}: {detail}"
            except ServiceError:
                raise
            except (http.client.HTTPException, socket.timeout,
                    ConnectionError, TimeoutError, OSError) as exc:
                self._drop_connection()
                if stale_retry and not fresh and isinstance(
                    exc, (http.client.RemoteDisconnected, BrokenPipeError,
                          ConnectionResetError),
                ):
                    # A kept-alive socket the server closed while we
                    # were idle: reconnect immediately, once, without
                    # spending the transient budget.
                    stale_retry = False
                    continue
                failure = f"{type(exc).__name__}: {exc}"
                status = None
            if attempt >= self.max_retries:
                raise ServiceError(
                    redact(
                        f"{method} /{endpoint} to {self.url} failed after "
                        f"{attempt + 1} attempts: {failure}",
                        self.token,
                    ),
                    status=status,
                )
            self._count(retries=1)
            time.sleep(max(self._sleep_for(attempt), retry_floor))
            attempt += 1

    def _sleep_for(self, attempt: int) -> float:
        base = min(self.backoff * (2 ** attempt), self.max_backoff)
        return base * self._rng.uniform(0.5, 1.5)

    def close(self) -> None:
        """Release the calling thread's persistent connection.

        Other threads' connections close when their owners exit (the
        sockets are daemon-thread-bound and reaped by the OS); calling
        this from each thread that used the client is the tidy path.
        """
        self._drop_connection()

    @staticmethod
    def _error_text(raw: bytes) -> str:
        try:
            return json.loads(raw).get("error", "")
        except Exception:  # noqa: BLE001 — error body is best-effort
            return raw.decode("utf-8", "replace")[:200]

    @staticmethod
    def _retry_after(resp) -> float:
        try:
            return float(resp.getheader("Retry-After", 0))
        except (TypeError, ValueError):
            return 0.0


class HttpQueue(TaskQueue):
    """The fabric queue contract, spoken to a remote experiment service.

    Construction is cheap and does not touch the network; the first
    call handshakes (with the client's connection-retry budget, so a
    worker started before its server comes up simply waits). The
    server's :class:`~repro.fabric.queue.JobQueue` holds the actual
    state; this class is marshalling only, which is how both transports
    stay semantically identical.
    """

    def __init__(
        self,
        url: str,
        token: str = None,
        lease_seconds: float = DEFAULT_LEASE,
        timeout: float = DEFAULT_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ) -> None:
        self.client = ServiceClient(url, token=token, timeout=timeout,
                                    max_retries=max_retries)
        self.lease_seconds = lease_seconds

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def enqueue(self, tasks, submitted_by: str = None) -> int:
        """Insert or revive ``[(key, kind, payload_dict), ...]``; returns
        the rows inserted or revived."""
        reply = self.client.call("POST", "queue/enqueue", {
            "tasks": [[key, kind, payload] for key, kind, payload in tasks],
            "submitted_by": submitted_by,
        })
        return reply["added"]

    def requeue_dead(self) -> int:
        """Restore every dead-lettered task's claim budget; returns count."""
        return self.client.call("POST", "queue/requeue-dead", {})["requeued"]

    def cancel(self, keys) -> list:
        """Withdraw still-``queued`` tasks; returns the keys removed."""
        keys = list(keys)
        if not keys:
            return []
        return self.client.call("POST", "queue/cancel", {"keys": keys})["cancelled"]

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def claim(self, worker_id: str, lease_seconds: float = None,
              wait: float = None):
        """:meth:`claim_many` for one task: the task, or ``None``."""
        return next(iter(self.claim_many(worker_id, 1, lease_seconds, wait)), None)

    def claim_many(self, worker_id: str, n: int, lease_seconds: float = None,
                   wait: float = None) -> list:
        """Lease up to ``n`` tasks in one request (see
        :meth:`claim_many_prechecked`)."""
        return self.claim_many_prechecked(
            worker_id, n, lease_seconds, wait, precheck=False)[0]

    def claim_many_prechecked(self, worker_id: str, n: int,
                              lease_seconds: float = None,
                              wait: float = None, precheck: bool = True,
                              sent: Reply = None):
        """:meth:`claim_many` plus the store precheck, one round trip.

        Returns ``(tasks, rows)`` where ``rows`` maps each claimed
        task's key to its already-stored result (or ``None``) — the
        same shape as a ``sim_results`` ``get_many`` over those keys.
        Workers use this to pre-answer the engine's cache check
        without a second request per claim.

        With ``sent``, a :meth:`send_claim` reply, it sends nothing: it
        reads that reply (the other arguments go unused), and the time
        it takes is the part of the round trip the caller's own work
        did not cover.
        """
        if sent is None:
            if n <= 0:
                return [], {}
            sent = self.send_claim(worker_id, n, lease_seconds, wait, precheck)
        reply = sent.result()
        tasks = [Task(key=row["key"], kind=row["kind"],
                      payload=row["payload"], attempts=row["attempts"],
                      max_attempts=row["max_attempts"])
                 for row in reply["tasks"]]
        return tasks, (reply.get("results") or {})

    def send_claim(self, worker_id: str, n: int, lease_seconds: float = None,
                   wait: float = None, precheck: bool = True,
                   completions=(), results=()) -> Reply:
        """Send a claim of ``n`` (positive) tasks; return its reply unread.

        The request may carry the caller's finished work, as
        :meth:`complete_many_with_results` does: the server writes the
        ``results`` rows, then the ``completions`` acks, then claims.
        Read the tasks with :meth:`claim_many_prechecked` and the acks'
        outcome with :meth:`complete_many_with_results`, passing the
        reply as ``sent`` to both.

        At most :data:`~repro.service.protocol.MAX_CLAIM_COUNT` tasks
        are asked for. ``wait`` long-polls: the server parks the
        request, after writing the acks, until work appears (or the
        wait elapses), so an idle worker holds one open request instead
        of sending a poll stream. The socket timeout is raised to
        ``wait`` plus margin for the parked call.
        """
        payload = {
            "worker": worker_id, "count": min(int(n), MAX_CLAIM_COUNT),
            "lease_seconds": lease_seconds
            if lease_seconds is not None else self.lease_seconds,
            **self._finished_work(completions, results),
        }
        timeout = None
        if wait:
            payload["wait"] = float(wait)
            timeout = float(wait) + self.client.timeout
        if precheck:
            payload["precheck"] = True
        return self.client.send("POST", "queue/claim", payload,
                                timeout=timeout)

    @staticmethod
    def _finished_work(completions, results) -> dict:
        payload = {"completions": [{"key": key, "worker": worker}
                                   for key, worker in completions]}
        if results:
            payload["results"] = [[key, value] for key, value in results]
        return payload

    def heartbeat(self, key: str, worker_id: str, lease_seconds: float = None) -> bool:
        """Extend a held lease; ``False`` when the lease was lost."""
        reply = self.client.call("POST", "queue/heartbeat", {
            "key": key, "worker": worker_id,
            "lease_seconds": lease_seconds
            if lease_seconds is not None else self.lease_seconds,
        })
        return reply["ok"]

    def complete(self, key: str, worker_id: str) -> bool:
        """:meth:`complete_many` for one task."""
        return self.complete_many([(key, worker_id)])[0]

    def complete_many(self, completions) -> list:
        """Mark ``[(key, worker_id), ...]`` done in one request; returns
        the per-item ``bool`` list."""
        return self.complete_many_with_results(completions, [])

    def complete_many_with_results(self, completions, results,
                                   sent: Reply = None) -> list:
        """:meth:`complete_many` carrying result rows in the same request.

        ``results`` is ``[(encoded_key, value_text), ...]`` destined for
        the ``sim_results`` table; the server persists those rows
        *before* marking anything done, so the results-before-ack
        invariant holds within one round trip instead of two.

        With ``sent``, a :meth:`send_complete` or :meth:`send_claim`
        reply, it sends nothing and returns the outcome of the acks
        that request carried.
        """
        if sent is None:
            completions = list(completions)
            results = list(results)
            if not completions and not results:
                return []
            sent = self.send_complete(completions, results)
        return sent.result()["ok"]

    def send_complete(self, completions, results=()) -> Reply:
        """Send acks, and the result rows they need written first;
        return the reply unread (see :meth:`complete_many_with_results`)."""
        return self.client.send("POST", "queue/complete",
                                self._finished_work(completions, results))

    def release(self, key: str, worker_id: str) -> bool:
        """Return a held lease unstarted (attempt refunded)."""
        reply = self.client.call("POST", "queue/release", {
            "key": key, "worker": worker_id,
        })
        return reply["ok"]

    def fail(self, key: str, worker_id: str, error: str) -> str:
        """Record a task failure; returns the resulting state."""
        reply = self.client.call("POST", "queue/fail", {
            "key": key, "worker": worker_id,
            "error": redact(error, self.client.token),
        })
        return reply["state"]

    # ------------------------------------------------------------------
    # Worker registry
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: str = None, pid: int = None,
                        host: str = None) -> str:
        """Insert (or refresh) a worker row; returns the worker id."""
        reply = self.client.call("POST", "workers/register", {
            "worker_id": worker_id, "pid": pid, "host": host,
        })
        return reply["worker_id"]

    def worker_beat(self, worker_id: str, tasks_done: int = None,
                    tasks_failed: int = None, telemetry: dict = None) -> None:
        """Refresh a worker row: liveness, counters, engine telemetry."""
        self.client.call("POST", "workers/beat", {
            "worker_id": worker_id, "tasks_done": tasks_done,
            "tasks_failed": tasks_failed, "telemetry": telemetry,
        })

    def workers(self) -> list:
        """All worker rows as dicts (telemetry JSON decoded)."""
        return self.client.call("GET", "workers")["workers"]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def states(self, keys) -> dict:
        """``{key: state}`` for the given keys (missing keys absent)."""
        return self.client.call("POST", "queue/states",
                                {"keys": list(keys)})["states"]

    def counts(self) -> dict:
        """Row count per task state (all states present, zeros kept)."""
        return self.client.call("GET", "queue/counts")["counts"]

    def retries(self) -> int:
        """Total extra claims beyond each task's first (retry pressure)."""
        return self.client.call("GET", "queue/counts")["retries"]

    def leases(self, now: float = None) -> list:
        """Live lease rows, soonest expiry first (server-clock expiry)."""
        reply = self.client.call("GET", "queue/leases")
        return [Lease(key=row["key"], worker=row["worker"],
                      expires=row["expires"], attempts=row["attempts"])
                for row in reply["leases"]]

    def dead(self) -> list:
        """Dead-letter rows as ``(key, attempts, error)`` tuples."""
        return [tuple(row) for row in
                self.client.call("GET", "queue/dead")["dead"]]

    def errors(self, key: str):
        """Last recorded error text for ``key`` (or ``None``)."""
        return self.client.call("POST", "queue/errors", {"key": key})["error"]

    def purge_done(self) -> int:
        """Drop completed rows (results live in the store); returns count."""
        return self.client.call("POST", "queue/purge-done")["purged"]

    def close(self) -> None:
        """Release the calling thread's persistent connection."""
        self.client.close()


class HttpBackend:
    """The store backend protocol, spoken to a remote experiment service.

    Implements the same surface as
    :class:`~repro.store.backend.SqliteBackend` /
    :class:`~repro.store.backend.MemoryBackend`, so
    ``open_store("http://host:port")`` yields a fully functional
    :class:`~repro.store.resultstore.ResultStore` — results, hardware
    measurements, trial costs, checkpoints and the run registry all
    pass through to the server's SQLite file. Construction handshakes
    eagerly (with retries), so a bad URL or token fails at open time.
    """

    kind = "http"

    def __init__(self, url: str, token: str = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 max_retries: int = DEFAULT_MAX_RETRIES) -> None:
        self.client = ServiceClient(url, token=token, timeout=timeout,
                                    max_retries=max_retries)
        card = self.client.handshake()
        self.schema_version = card.get("store_schema_version")

    @property
    def url(self) -> str:
        """Service base URL this backend talks to."""
        return self.client.url

    @property
    def path(self) -> str:
        """The backend's address — for HTTP, the service URL."""
        return self.client.url

    @property
    def token(self):
        """Bearer token in use (``None`` when unauthenticated)."""
        return self.client.token

    def get(self, table: str, key: str):
        """Fetch one value (``None`` when absent)."""
        return self.get_many(table, [key])[key]

    def get_many(self, table: str, keys) -> dict:
        """Fetch ``{key: value_or_None}`` for many keys in one request."""
        keys = list(keys)
        if not keys:
            return {}
        return self.client.call("POST", "store/get-many",
                                {"table": table, "keys": keys})["values"]

    def put(self, table: str, key: str, value: str, replace: bool = True) -> bool:
        """Store one value; ``False`` when ``replace=False`` skipped it."""
        return self.put_many(table, [(key, value)], replace=replace) == 1

    def put_many(self, table: str, items, replace: bool = True) -> int:
        """Store many ``(key, value)`` pairs in one request."""
        return self.client.call("POST", "store/put-many", {
            "table": table,
            "items": [[key, value] for key, value in items],
            "replace": replace,
        })["written"]

    def delete(self, table: str, key: str) -> bool:
        """Delete one key; ``True`` when a row was removed."""
        return bool(self.client.call("POST", "store/delete",
                                     {"table": table, "key": key})["deleted"])

    def items(self, table: str) -> list:
        """All ``(key, value, created_at)`` rows of a table."""
        reply = self.client.call("POST", "store/items", {"table": table})
        return [tuple(row) for row in reply["rows"]]

    def count(self, table: str) -> int:
        """Row count of a table."""
        return self.client.call("POST", "store/count", {"table": table})["count"]

    def prune(self, table: str, older_than: float) -> int:
        """Drop rows created before ``older_than``; returns rows removed."""
        return self.client.call("POST", "store/prune", {
            "table": table, "older_than": older_than,
        })["pruned"]

    def size_bytes(self) -> int:
        """On-disk size of the server-side database."""
        return self.client.call("GET", "store/size")["size_bytes"]

    def vacuum(self) -> None:
        """Compact the server-side database."""
        self.client.call("POST", "store/vacuum")

    def close(self) -> None:
        """Release the calling thread's persistent connection."""
        self.client.close()


def fetch_status(url: str, token: str = None,
                 max_retries: int = DEFAULT_MAX_RETRIES) -> dict:
    """The service's status snapshot (same shape as the local one).

    What ``repro status --url ...`` calls; the token never appears in
    the returned payload (the server computes the snapshot from queue
    and store state, not from credentials).
    """
    client = ServiceClient(url, token=token, max_retries=max_retries)
    return client.call("GET", "status")

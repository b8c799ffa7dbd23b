"""``repro serve``: the experiment service over one store file.

A deliberately boring server: :class:`http.server.ThreadingHTTPServer`
from the standard library, JSON bodies, one route table. All state
lives in the SQLite file the service fronts — the process itself holds
nothing but open connections — so killing and restarting the server
mid-campaign loses no work: workers retry, the durable queue picks up
where it was, and the campaign's byte-identity guarantee is untouched.

The service exposes two surfaces (catalogued in
:mod:`repro.service.protocol`):

- the **fabric queue** — every :class:`~repro.fabric.api.TaskQueue`
  method as an endpoint, claim-through-complete, so remote workers
  participate in the lease protocol exactly like local ones;
- the **store backend** — the five-table key/value protocol of
  :mod:`repro.store.backend`, so results, hardware measurements,
  checkpoints and run records read/write through; a remote worker
  needs no database file.

Operational guards:

- **auth** — every request must carry ``Authorization: Bearer
  <token>`` (compared with :func:`hmac.compare_digest`); the server
  refuses to start without a token.
- **backpressure** — ``queue/enqueue`` answers ``429`` with a
  ``Retry-After`` header once outstanding depth reaches ``max_depth``;
  drivers back off instead of growing the queue without bound.
- **version handshake** — requests carry the wire version header and
  mismatches get ``426``; ``GET /api/v1/handshake`` reports wire,
  fabric-schema and store-schema versions so clients can fail fast.

Concurrency: handler threads share one :class:`JobQueue` and one
:class:`ResultStore`, both internally locked; many workers hammering
the service serialise onto the same SQLite write path the local
fabric already exercises.
"""

from __future__ import annotations

import hmac
import json
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.fabric.queue import (
    DEFAULT_LEASE,
    DEFAULT_MAX_ATTEMPTS,
    FABRIC_SCHEMA_VERSION,
    JobQueue,
)
from repro.service.protocol import (
    API_PREFIX,
    COMPRESS_ENCODING,
    COMPRESS_THRESHOLD,
    MAX_BODY,
    MAX_CLAIM_COUNT,
    MAX_CLAIM_WAIT,
    RETRY_AFTER_SECONDS,
    WIRE_HEADER,
    WIRE_VERSION,
    BodyTooLarge,
    inflate,
    redact,
    resolve_token,
)
from repro.store import open_store
from repro.store.backend import SCHEMA_VERSION as STORE_SCHEMA_VERSION
from repro.store.backend import TABLES


class _ServiceError(Exception):
    """Internal: an error response with a status code (and headers)."""

    def __init__(self, status: int, message: str, headers: dict = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class ExperimentService:
    """One HTTP control plane over one fabric store file.

    Parameters
    ----------
    store_path:
        The SQLite file holding the queue and the result store.
    token:
        Bearer token every request must present; falls back to the
        ``REPRO_TOKEN`` environment variable. Required — the service
        refuses to start without one.
    host / port:
        Bind address. ``port=0`` picks a free port (tests); the bound
        port is available as :attr:`port` / :attr:`url`.
    max_depth:
        Outstanding-task ceiling for backpressure: ``queue/enqueue``
        answers 429 + ``Retry-After`` while ``queued + leased`` is at
        or above this. ``None`` disables the ceiling.
    lease_seconds / max_attempts:
        Forwarded to the server-side :class:`JobQueue` (defaults for
        claims that do not override the lease, and the claim budget
        stamped on enqueued rows).
    progress:
        Optional ``callable(str)`` for request log lines (token always
        redacted). ``None`` logs nothing.
    """

    def __init__(
        self,
        store_path: str,
        token: str = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_depth: int = None,
        lease_seconds: float = DEFAULT_LEASE,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        progress=None,
    ) -> None:
        self.store_path = str(store_path)
        self.token = resolve_token(token)
        if not self.token:
            raise ValueError(
                "the experiment service requires an auth token: pass token=... "
                "(or --token) or set the REPRO_TOKEN environment variable"
            )
        self.max_depth = max_depth
        self.progress = progress
        self.queue = JobQueue(self.store_path, lease_seconds=lease_seconds,
                              max_attempts=max_attempts)
        self.store = open_store(self.store_path)
        self._routes = self._build_routes()
        self._thread = None
        service = self

        class Handler(BaseHTTPRequestHandler):
            """Per-request glue: auth, version, routing, JSON I/O."""

            protocol_version = "HTTP/1.1"
            # Buffer the response stream so status line, headers and
            # body leave in ONE send: with keep-alive connections the
            # default unbuffered wfile emits them as separate packets,
            # and Nagle + delayed-ACK turns every reply into a ~40 ms
            # stall. Disabling Nagle guards the flush boundary too.
            wbufsize = -1
            disable_nagle_algorithm = True

            def do_GET(self):  # noqa: N802 — http.server API
                """Dispatch a GET request through the route table."""
                service._handle(self, "GET")

            def do_POST(self):  # noqa: N802 — http.server API
                """Dispatch a POST request through the route table."""
                service._handle(self, "POST")

            def log_message(self, fmt, *args):  # noqa: D102 — stdlib hook
                service._log(f"{self.address_string()} {fmt % args}")

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The TCP port actually bound (resolves ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients connect to (no credentials embedded)."""
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def _log(self, text: str) -> None:
        if self.progress is not None:
            self.progress(f"[serve] {redact(text, self.token)}")

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _handle(self, handler, method: str) -> None:
        """Auth, version-check and route one request; send the reply.

        Everything that can refuse a request on its headers alone (the
        length, the token, the path) does so before the body is read,
        so an unauthenticated client cannot make a handler buffer
        anything. Such a reply closes the connection: on keep-alive the
        unread body would otherwise be parsed as the next request.
        """
        unread = True
        try:
            length = self._content_length(handler)
            self._check_auth(handler)
            path = handler.path.split("?", 1)[0].rstrip("/")
            if not path.startswith(API_PREFIX):
                raise _ServiceError(404, f"unknown path {path!r}; API lives "
                                         f"under {API_PREFIX}/")
            route = path[len(API_PREFIX):].strip("/")
            raw = handler.rfile.read(length) if length else b""
            unread = False
            if route != "handshake":
                self._check_version(handler)
            func = self._routes.get((method, route))
            if func is None:
                raise _ServiceError(404, f"unknown endpoint {method} /{route}")
            payload = self._read_body(handler, raw) if method == "POST" else {}
            self._reply(handler, 200, func(payload))
        except _ServiceError as exc:
            headers = exc.headers
            if unread:
                headers = {**(headers or {}), "Connection": "close"}
            self._reply(handler, exc.status, {"error": str(exc)}, headers)
        except Exception as exc:  # noqa: BLE001 — one request, one reply
            message = redact(f"{type(exc).__name__}: {exc}", self.token)
            self._reply(handler, 500, {"error": message},
                        {"Connection": "close"} if unread else None)

    @staticmethod
    def _content_length(handler) -> int:
        """The declared body length, validated before anything is read.

        A length that is not a plain decimal count would make the read
        fail or, when negative, block until the peer hangs up. It gets a
        400, and a length above :data:`MAX_BODY` a 413; both close the
        connection, since the body is never read.
        """
        text = (handler.headers.get("Content-Length") or "0").strip()
        if not (text.isascii() and text.isdigit()):
            raise _ServiceError(400, f"malformed Content-Length {text!r}")
        length = int(text)
        if length > MAX_BODY:
            raise _ServiceError(413, f"body of {length} bytes exceeds the "
                                     f"{MAX_BODY}-byte limit")
        return length

    def _check_auth(self, handler) -> None:
        header = handler.headers.get("Authorization", "")
        scheme, _, presented = header.partition(" ")
        if scheme.lower() != "bearer" or not hmac.compare_digest(
            presented.strip(), self.token
        ):
            raise _ServiceError(401, "unauthorised: bearer token missing or "
                                     "wrong (pass --token or set REPRO_TOKEN)")

    @staticmethod
    def _check_version(handler) -> None:
        presented = handler.headers.get(WIRE_HEADER)
        if presented != str(WIRE_VERSION):
            raise _ServiceError(
                426,
                f"wire version mismatch: client sent {presented!r}, server "
                f"speaks v{WIRE_VERSION}; update the older side",
            )

    @staticmethod
    def _read_body(handler, raw: bytes) -> dict:
        if not raw:
            return {}
        encoding = (handler.headers.get("Content-Encoding") or "").strip().lower()
        if encoding == COMPRESS_ENCODING:
            try:
                raw = inflate(raw)
            except BodyTooLarge as exc:
                raise _ServiceError(413, str(exc)) from None
            except zlib.error as exc:
                raise _ServiceError(400, f"undecodable deflate body: {exc}") \
                    from None
        elif encoding:
            raise _ServiceError(
                400, f"unsupported Content-Encoding {encoding!r}; "
                     f"this server speaks identity and {COMPRESS_ENCODING}")
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise _ServiceError(400, f"malformed JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _ServiceError(400, "request body must be a JSON object")
        return payload

    @staticmethod
    def _reply(handler, status: int, payload: dict, headers: dict = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        accepts = (handler.headers.get("Accept-Encoding") or "").lower()
        compressed = (len(body) >= COMPRESS_THRESHOLD
                      and COMPRESS_ENCODING in accepts)
        if compressed:
            body = zlib.compress(body)
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", "application/json")
            if compressed:
                handler.send_header("Content-Encoding", COMPRESS_ENCODING)
            handler.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                handler.send_header(name, str(value))
            handler.end_headers()
            handler.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-reply; its retry layer handles it

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _build_routes(self) -> dict:
        return {
            ("GET", "handshake"): self._ep_handshake,
            ("POST", "queue/enqueue"): self._ep_enqueue,
            ("POST", "queue/claim"): self._ep_claim,
            ("POST", "queue/heartbeat"): self._ep_heartbeat,
            ("POST", "queue/complete"): self._ep_complete,
            ("POST", "queue/release"): self._ep_release,
            ("POST", "queue/fail"): self._ep_fail,
            ("POST", "queue/requeue-dead"): self._ep_requeue_dead,
            ("POST", "queue/cancel"): self._ep_cancel,
            ("POST", "queue/states"): self._ep_states,
            ("GET", "queue/counts"): self._ep_counts,
            ("GET", "queue/leases"): self._ep_leases,
            ("GET", "queue/dead"): self._ep_dead,
            ("POST", "queue/errors"): self._ep_errors,
            ("POST", "queue/purge-done"): self._ep_purge_done,
            ("POST", "workers/register"): self._ep_register,
            ("POST", "workers/beat"): self._ep_beat,
            ("GET", "workers"): self._ep_workers,
            ("POST", "store/get-many"): self._ep_store_get_many,
            ("POST", "store/put-many"): self._ep_store_put_many,
            ("POST", "store/delete"): self._ep_store_delete,
            ("POST", "store/items"): self._ep_store_items,
            ("POST", "store/count"): self._ep_store_count,
            ("POST", "store/prune"): self._ep_store_prune,
            ("GET", "store/size"): self._ep_store_size,
            ("POST", "store/vacuum"): self._ep_store_vacuum,
            ("GET", "status"): self._ep_status,
        }

    def _ep_handshake(self, payload: dict) -> dict:
        return {
            "service": "repro-serve",
            "wire_version": WIRE_VERSION,
            "fabric_schema_version": FABRIC_SCHEMA_VERSION,
            "store_schema_version": STORE_SCHEMA_VERSION,
        }

    def _ep_enqueue(self, payload: dict) -> dict:
        if self.max_depth is not None:
            depth = self.queue.depth()
            if depth >= self.max_depth:
                raise _ServiceError(
                    429,
                    f"queue full: {depth} outstanding tasks >= max depth "
                    f"{self.max_depth}; retry after the fleet drains",
                    headers={"Retry-After": f"{RETRY_AFTER_SECONDS:g}"},
                )
        tasks = [(key, kind, task_payload)
                 for key, kind, task_payload in payload.get("tasks", [])]
        added = self.queue.enqueue(tasks, submitted_by=payload.get("submitted_by"))
        return {"added": added}

    def _ep_claim(self, payload: dict) -> dict:
        """Claim up to ``count`` tasks, parking up to ``wait`` seconds.

        The long-poll path rides the queue's own condition variable:
        every enqueue/requeue/release through this service wakes parked
        claimers immediately, and ``JobQueue.claim_many`` watches
        SQLite's ``data_version`` for writers that bypass the service
        and touch the SQLite file directly.
        """
        worker, count = payload.get("worker"), payload.get("count")
        wait = payload.get("wait", 0)
        if not isinstance(worker, str):
            raise _ServiceError(400, "queue/claim needs a string 'worker'")
        if type(count) is not int or not 1 <= count <= MAX_CLAIM_COUNT:
            raise _ServiceError(400, f"queue/claim 'count' must be an integer "
                                     f"from 1 to {MAX_CLAIM_COUNT}")
        if type(wait) not in (int, float) or not wait >= 0:
            raise _ServiceError(400, "queue/claim 'wait' must be a "
                                     "non-negative number of seconds")
        tasks = self.queue.claim_many(worker, count,
                                      payload.get("lease_seconds"),
                                      min(wait, MAX_CLAIM_WAIT))
        reply = {"tasks": [{
            "key": task.key, "kind": task.kind, "payload": task.payload,
            "attempts": task.attempts, "max_attempts": task.max_attempts,
        } for task in tasks]}
        if payload.get("precheck") and tasks:
            # Piggyback the store precheck on the claim: answer "was
            # this key already computed?" for every claimed task in
            # the same round trip, so workers skip a separate
            # store/get-many request per claim.
            reply["results"] = self.store.backend.get_many(
                "sim_results", [task.key for task in tasks])
        return reply

    def _ep_heartbeat(self, payload: dict) -> dict:
        ok = self.queue.heartbeat(
            payload["key"], payload["worker"],
            lease_seconds=payload.get("lease_seconds"),
        )
        return {"ok": ok}

    def _ep_complete(self, payload: dict) -> dict:
        # Result rows riding the completion request land first: a task
        # must never read as done while its result row is unreadable.
        rows = payload.get("results") or []
        if rows:
            self.store.backend.put_many(
                "sim_results", [(key, value) for key, value in rows])
        return {"ok": self.queue.complete_many([
            (item["key"], item["worker"])
            for item in payload.get("completions", [])
        ])}

    def _ep_release(self, payload: dict) -> dict:
        return {"ok": self.queue.release(payload["key"], payload["worker"])}

    def _ep_fail(self, payload: dict) -> dict:
        state = self.queue.fail(
            payload["key"], payload["worker"], payload.get("error", "")
        )
        return {"state": state}

    def _ep_requeue_dead(self, payload: dict) -> dict:
        return {"requeued": self.queue.requeue_dead()}

    def _ep_cancel(self, payload: dict) -> dict:
        return {"cancelled": self.queue.cancel(payload.get("keys", []))}

    def _ep_states(self, payload: dict) -> dict:
        return {"states": self.queue.states(payload.get("keys", []))}

    def _ep_counts(self, payload: dict) -> dict:
        return {"counts": self.queue.counts(), "retries": self.queue.retries()}

    def _ep_leases(self, payload: dict) -> dict:
        return {"leases": [
            {"key": lease.key, "worker": lease.worker,
             "expires": lease.expires, "attempts": lease.attempts}
            for lease in self.queue.leases()
        ], "now": time.time()}

    def _ep_dead(self, payload: dict) -> dict:
        return {"dead": [list(row) for row in self.queue.dead()]}

    def _ep_errors(self, payload: dict) -> dict:
        return {"error": self.queue.errors(payload["key"])}

    def _ep_purge_done(self, payload: dict) -> dict:
        return {"purged": self.queue.purge_done()}

    def _ep_register(self, payload: dict) -> dict:
        worker_id = self.queue.register_worker(
            payload.get("worker_id"), pid=payload.get("pid"),
            host=payload.get("host"),
        )
        return {"worker_id": worker_id}

    def _ep_beat(self, payload: dict) -> dict:
        self.queue.worker_beat(
            payload["worker_id"], tasks_done=payload.get("tasks_done"),
            tasks_failed=payload.get("tasks_failed"),
            telemetry=payload.get("telemetry"),
        )
        return {"ok": True}

    def _ep_workers(self, payload: dict) -> dict:
        return {"workers": self.queue.workers()}

    # -- store backend pass-through ------------------------------------
    @staticmethod
    def _table(payload: dict) -> str:
        table = payload.get("table")
        if table not in TABLES:
            raise _ServiceError(400, f"unknown store table {table!r}; "
                                     f"one of {', '.join(TABLES)}")
        return table

    def _ep_store_get_many(self, payload: dict) -> dict:
        return {"values": self.store.backend.get_many(
            self._table(payload), payload.get("keys", []))}

    def _ep_store_put_many(self, payload: dict) -> dict:
        written = self.store.backend.put_many(
            self._table(payload),
            [(key, value) for key, value in payload.get("items", [])],
            replace=bool(payload.get("replace", True)),
        )
        return {"written": written}

    def _ep_store_delete(self, payload: dict) -> dict:
        return {"deleted": self.store.backend.delete(self._table(payload),
                                                     payload["key"])}

    def _ep_store_items(self, payload: dict) -> dict:
        rows = self.store.backend.items(self._table(payload))
        return {"rows": [list(row) for row in rows]}

    def _ep_store_count(self, payload: dict) -> dict:
        return {"count": self.store.backend.count(self._table(payload))}

    def _ep_store_prune(self, payload: dict) -> dict:
        return {"pruned": self.store.backend.prune(
            self._table(payload), float(payload["older_than"])
        )}

    def _ep_store_size(self, payload: dict) -> dict:
        return {"size_bytes": self.store.backend.size_bytes()}

    def _ep_store_vacuum(self, payload: dict) -> dict:
        self.store.backend.vacuum()
        return {"ok": True}

    def _ep_status(self, payload: dict) -> dict:
        from repro.fabric.status import status_snapshot

        return status_snapshot(self.store_path)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ExperimentService":
        """Serve on a background thread (tests, examples); returns self."""
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Stop accepting requests (idempotent)."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def close(self) -> None:
        """Release the socket and the queue/store connections."""
        self._httpd.server_close()
        self.queue.close()
        self.store.close()

    def __enter__(self) -> "ExperimentService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
        self.close()

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
- **input checks** — every body is checked against its route in
  :data:`~repro.service.protocol.ROUTES` before the queue or the store
  sees it; a missing, mistyped or unknown field is a ``400`` that names
  the field, which clients do not retry.

Concurrency: handler threads share one :class:`JobQueue` and one
:class:`ResultStore`, both internally locked; many workers hammering
the service serialise onto the same SQLite write path the local
fabric already exercises.
"""

from __future__ import annotations

import hmac
import json
import socket
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
    MAX_CLAIM_WAIT,
    MIN_TOKEN_LENGTH,
    RETRY_AFTER_SECONDS,
    ROUTES,
    WIRE_HEADER,
    WIRE_VERSION,
    BadRequest,
    BodyTooLarge,
    check_body,
    inflate,
    redact,
    resolve_token,
)
from repro.store import open_store
from repro.store.backend import SCHEMA_VERSION as STORE_SCHEMA_VERSION


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
        refuses to start without one, or with one shorter than
        :data:`~repro.service.protocol.MIN_TOKEN_LENGTH`.
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
        if len(self.token or "") < MIN_TOKEN_LENGTH:
            raise ValueError(
                f"the experiment service requires an auth token of at least "
                f"{MIN_TOKEN_LENGTH} characters: pass token=... (or --token) "
                f"or set the REPRO_TOKEN environment variable"
            )
        self.max_depth = max_depth
        self.progress = progress
        self.queue = JobQueue(self.store_path, lease_seconds=lease_seconds,
                              max_attempts=max_attempts)
        self.store = open_store(self.store_path)
        self._handlers = {
            "handshake": self._ep_handshake,
            "queue/enqueue": self._ep_enqueue,
            "queue/claim": self._ep_claim,
            "queue/complete": self._ep_complete,
            "queue/counts": self._ep_counts,
            "queue/leases": self._ep_leases,
            "status": self._ep_status,
        }
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
            endpoint = path[len(API_PREFIX):].strip("/")
            raw = handler.rfile.read(length) if length else b""
            unread = False
            if endpoint != "handshake":
                self._check_version(handler)
            route = ROUTES.get(endpoint)
            if route is None or route.method != method:
                raise _ServiceError(404, f"unknown endpoint {method} /{endpoint}")
            body = self._read_body(handler, raw) if method == "POST" else {}
            self._reply(handler, 200, self._dispatch(route, body))
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
        except (ValueError, RecursionError) as exc:
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
    def _dispatch(self, route, body: dict) -> dict:
        """Check ``body`` against its route, then answer it.

        A route with logic of its own has a handler; every other route
        calls its target with the checked fields and wraps the result
        under its reply key.
        """
        try:
            args = check_body(route, body)
        except BadRequest as exc:
            raise _ServiceError(400, str(exc)) from None
        handler = self._handlers.get(route.path)
        if handler is not None:
            return handler(args)
        owner, name = route.target.split(".")
        target = self.queue if owner == "queue" else self.store.backend
        result = getattr(target, name)(*args.values())
        return {"ok": True} if route.reply is None else {route.reply: result}

    def _ep_handshake(self, args: dict) -> dict:
        return {
            "service": "repro-serve",
            "wire_version": WIRE_VERSION,
            "fabric_schema_version": FABRIC_SCHEMA_VERSION,
            "store_schema_version": STORE_SCHEMA_VERSION,
        }

    def _ep_enqueue(self, args: dict) -> dict:
        if self.max_depth is not None:
            depth = self.queue.depth()
            if depth >= self.max_depth:
                raise _ServiceError(
                    429,
                    f"queue full: {depth} outstanding tasks >= max depth "
                    f"{self.max_depth}; retry after the fleet drains",
                    headers={"Retry-After": f"{RETRY_AFTER_SECONDS:g}"},
                )
        return {"added": self.queue.enqueue(args["tasks"], args["submitted_by"])}

    def _ep_claim(self, args: dict) -> dict:
        """Claim up to ``count`` tasks, parking up to ``wait`` seconds.

        Result rows and acks the request carries are written first, as
        ``queue/complete`` writes them, and ``ok`` answers the acks.

        The long-poll path rides the queue's own condition variable:
        every enqueue/requeue/release through this service wakes parked
        claimers immediately, and ``JobQueue.claim_many`` watches
        SQLite's ``data_version`` for writers that bypass the service
        and touch the SQLite file directly.
        """
        # The acks commit before the claim can park: a worker that
        # waits on an empty queue holds no unacked work.
        oks = self._ep_complete(args)["ok"]
        tasks = self.queue.claim_many(args["worker"], args["count"],
                                      args["lease_seconds"],
                                      min(args["wait"], MAX_CLAIM_WAIT))
        reply = {"ok": oks, "tasks": [vars(task) for task in tasks]}
        if args["precheck"] and tasks:
            # Piggyback the store precheck on the claim: answer "was
            # this key already computed?" for every claimed task in
            # the same round trip, so workers skip a separate
            # store/get-many request per claim.
            reply["results"] = self.store.backend.get_many(
                "sim_results", [task.key for task in tasks])
        return reply

    def _ep_complete(self, args: dict) -> dict:
        """Write result rows, then ack: a task must never read as done
        while its result row is unreadable."""
        if args["results"]:
            self.store.backend.put_many("sim_results", args["results"])
        return {"ok": self.queue.complete_many(
            (item["key"], item["worker"]) for item in args["completions"])}

    def _ep_counts(self, args: dict) -> dict:
        return {"counts": self.queue.counts(), "retries": self.queue.retries()}

    def _ep_leases(self, args: dict) -> dict:
        return {"leases": [vars(lease) for lease in self.queue.leases()],
                "now": time.time()}

    def _ep_status(self, args: dict) -> dict:
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
        """Stop accepting requests (idempotent).

        ``serve_forever`` notices a shutdown only when its 0.5 s select
        returns; shutting the listening socket down first wakes it at
        once. Where the platform refuses that, stop waits out the poll.
        """
        try:
            self._httpd.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
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

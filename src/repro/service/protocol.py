"""The experiment service's wire protocol, in one place.

Everything both sides must agree on lives here, so the server
(:mod:`repro.service.server`) and the client
(:mod:`repro.service.client`) cannot drift apart silently:

- **Versioning.** Every request carries the client's wire version in
  the :data:`WIRE_HEADER` header; the server answers a mismatch with
  ``426 Upgrade Required`` instead of misparsing the body. The
  ``GET /api/v1/handshake`` endpoint reports the server's wire version
  plus the fabric and store schema versions, and clients handshake once
  before their first real request — version skew fails loudly at
  connect time, not mid-campaign.
- **Auth.** Requests authenticate with ``Authorization: Bearer
  <token>``; the token comes from ``--token`` or the :data:`TOKEN_ENV`
  environment variable (:func:`resolve_token`), and
  :func:`redact` scrubs it from anything user-visible (logs, error
  text, status output). The server refuses a token shorter than
  :data:`MIN_TOKEN_LENGTH`, so redaction never rewrites ordinary text
  that a short token happens to occur in.
- **Routes.** :data:`ROUTES` is the one declaration of every endpoint
  (the fabric queue API 1:1 plus the store backend's, so a remote
  worker needs no database file): its HTTP method, each body field's
  name, kind and default, the reply key and the ``JobQueue`` or
  store-backend method it calls (``docs/DISTRIBUTED.md``'s wire table
  has each route's semantics). The server checks every body against
  it (:func:`check_body`) before it touches the queue or the store, so
  a missing, mistyped or unknown field gets a ``400`` that names the
  field, never a ``500`` a client would retry; the client builds its
  bodies from the same table.
- **Bodies.** JSON both ways. Success is ``200`` with the endpoint's
  payload; errors are ``{"error": "..."}`` with a meaningful status
  code (400 malformed, 401 unauthorised, 404 unknown endpoint,
  413 body too large, 426 version skew, 429 backpressure with
  ``Retry-After``, 500 with the exception text).
- **Batching.** ``queue/enqueue``, ``queue/complete`` and
  ``store/get-many`` take lists, and ``queue/claim`` carries the
  caller's result rows and acks: the server writes the rows, then the
  acks, then claims up to :data:`MAX_CLAIM_COUNT` tasks, parking an
  empty claim up to ``wait`` (at most :data:`MAX_CLAIM_WAIT`) seconds.
  One ``workers/beat`` per interval renews every lease a worker holds.
- **Compression.** JSON bodies above :data:`COMPRESS_THRESHOLD` bytes
  are zlib-deflated in either direction, flagged with
  ``Content-Encoding: deflate``. Clients advertise support via
  ``Accept-Encoding``; the server only compresses responses for
  clients that did.
- **Limits.** No body, declared or inflated, exceeds :data:`MAX_BODY`
  bytes: the server answers a larger ``Content-Length`` with ``413``
  before reading it, the client stops reading a response at the cap,
  and both sides inflate through :func:`inflate`, which stops there
  too. The server authenticates on headers alone, before it reads a
  body, and any error it sends while a body is still unread closes
  the connection (the unread bytes must never be parsed as the next
  request).
"""

from __future__ import annotations

import math
import os
import re
import zlib
from typing import Callable, NamedTuple

from repro.store.backend import TABLES

#: Bump when request/response shapes change incompatibly. Checked per
#: request (header) and at handshake. Version 2: batched claim
#: (``count``/``tasks``), long-poll ``wait``, ``queue/release``,
#: ``store/get-many``, deflate body compression. Version 3: one claim
#: reply shape (``tasks``, never ``task``), ``count`` required and
#: bounded, claim input validated, no ``store/get``. Version 4:
#: ``queue/enqueue`` revives dead keys, ``queue/requeue-dead`` takes
#: no ``keys``. Version 5: ``queue/claim`` carries ``completions`` and
#: ``results`` and answers ``ok`` beside ``tasks``; ``workers/beat``
#: renews the leases of the worker's latest claim. Version 6:
#: ``workers/beat`` carries the held ``keys`` (and their
#: ``lease_seconds``) and renews them too; every body is checked
#: against :data:`ROUTES`, so a malformed field is a 400.
WIRE_VERSION = 6

#: URL prefix every endpoint lives under.
API_PREFIX = "/api/v1"

#: Request header carrying the client's wire version.
WIRE_HEADER = "X-Repro-Wire"

#: Environment variable consulted wherever ``--token`` is accepted.
TOKEN_ENV = "REPRO_TOKEN"

#: What a redacted token reads as in logs and error text.
REDACTED = "[redacted]"

#: Default TCP port of ``repro serve``.
DEFAULT_PORT = 8537

#: Default seconds a backpressured (429) client is told to wait.
RETRY_AFTER_SECONDS = 1.0

#: JSON bodies at or above this many bytes are sent zlib-deflated
#: (``Content-Encoding: deflate``). Small bodies stay raw: the zlib
#: header would eat the saving and the CPU is better spent elsewhere.
COMPRESS_THRESHOLD = 1024

#: The one body encoding both sides speak (zlib with header).
COMPRESS_ENCODING = "deflate"

#: Largest request or response body either side accepts, in bytes,
#: before or after inflating. The largest body the bundled ``sweep-http``
#: campaign benchmark sends is about 0.84 MB inflated (a batched
#: request; its largest response is about 0.39 MB), so the cap leaves a
#: twenty-fold margin.
MAX_BODY = 16 << 20

#: Shortest bearer token the server accepts. :func:`redact` rewrites
#: every occurrence of the token, so a short one (``t``) would mangle
#: every log line and error text it appears in by chance.
MIN_TOKEN_LENGTH = 16


class BodyTooLarge(ValueError):
    """A body that inflates past :data:`MAX_BODY`."""


#: Hard server-side cap on ``queue/claim``'s long-poll ``wait``,
#: seconds. Keeps parked claim threads bounded and lets clients size
#: their socket timeout as ``wait + margin`` safely.
MAX_CLAIM_WAIT = 30.0

#: Most tasks one ``queue/claim`` may lease. Workers prefetch far fewer;
#: the bound keeps one request from leasing (and stranding, should its
#: worker die) an unbounded share of the queue.
MAX_CLAIM_COUNT = 64


def resolve_token(token: str = None) -> str:
    """The effective auth token: explicit value, else :data:`TOKEN_ENV`.

    Returns ``None`` when neither is set, which callers treat as "no
    credentials available" (the server refuses to start, the client
    sends no ``Authorization`` header and gets a clean 401).
    """
    if token:
        return token
    return os.environ.get(TOKEN_ENV) or None


def redact(text, token: str):
    """Scrub every occurrence of ``token`` from ``text``.

    Applied to log lines, exception text and failure messages before
    they leave the process, so a token that leaks into an error (say,
    a urllib message echoing headers) never reaches disk or another
    host's queue rows. Pass-through when either side is falsy.
    """
    if not token or not text:
        return text
    return str(text).replace(token, REDACTED)


def inflate(raw: bytes) -> bytes:
    """Inflate a ``deflate`` body, never producing more than :data:`MAX_BODY`.

    Raises :class:`BodyTooLarge` when the output would exceed the cap
    (a deflate bomb is refused after at most ``MAX_BODY + 1`` bytes of
    output), and ``zlib.error`` for a corrupt or truncated stream.
    """
    inflater = zlib.decompressobj()
    body = inflater.decompress(raw, MAX_BODY + 1)
    if len(body) > MAX_BODY:
        raise BodyTooLarge(f"body inflates past the {MAX_BODY}-byte limit")
    if not inflater.eof:
        raise zlib.error("incomplete or truncated stream")
    return body


def is_url(spec) -> bool:
    """True when ``spec`` names a service URL rather than a file path."""
    return isinstance(spec, str) and spec.startswith(("http://", "https://"))


# ----------------------------------------------------------------------
# The route table
# ----------------------------------------------------------------------
class BadRequest(ValueError):
    """A request body that does not match its route (answered 400)."""


class Kind(NamedTuple):
    """The type of one body field: how a 400 names it, and its test."""

    text: str
    test: Callable

    def or_null(self) -> "Kind":
        """The same kind, with JSON ``null`` accepted too."""
        return Kind(f"{self.text} or null",
                    lambda value, test=self.test: value is None or test(value))


#: A lone surrogate decodes from JSON but cannot be stored as UTF-8.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _is_text(value) -> bool:
    return type(value) is str and (value.isascii()
                                   or not _SURROGATE.search(value))


def _is_int(value) -> bool:
    # The range SQLite stores as an integer.
    return type(value) is int and -(1 << 63) <= value < (1 << 63)


def _is_number(value) -> bool:
    return _is_int(value) or (type(value) is float and math.isfinite(value))


def _list_of(test) -> Callable:
    return lambda value: type(value) is list and all(map(test, value))


def _row(*tests) -> Callable:
    """A JSON array of one item per test, each passing its test."""
    return lambda row: (type(row) is list and len(row) == len(tests)
                        and all(test(item) for test, item in zip(tests, row)))


TEXT = Kind("a string", _is_text)
INT = Kind("an integer", _is_int)
NUMBER = Kind("a finite number", _is_number)
SECONDS = Kind("a non-negative number of seconds",
               lambda value: _is_number(value) and value >= 0)
COUNT = Kind(f"an integer from 1 to {MAX_CLAIM_COUNT}",
             lambda value: type(value) is int and 1 <= value <= MAX_CLAIM_COUNT)
FLAG = Kind("a boolean", lambda value: type(value) is bool)
OBJECT = Kind("an object", lambda value: type(value) is dict)
TABLE = Kind(f"one of {', '.join(TABLES)}",
             lambda value: type(value) is str and value in TABLES)
KEYS = Kind("a list of strings", _list_of(_is_text))
PAIRS = Kind("a list of [key, value] string pairs",
             _list_of(_row(_is_text, _is_text)))
TASKS = Kind("a list of [key, kind, payload-object] triples",
             _list_of(_row(_is_text, _is_text, OBJECT.test)))
ACKS = Kind("a list of {key, worker} string objects", _list_of(
    lambda item: type(item) is dict and _is_text(item.get("key"))
    and _is_text(item.get("worker"))))

#: Marks an :class:`Arg` the body must carry.
REQUIRED = object()


class Arg(NamedTuple):
    """One body field: its name, its kind and its default when absent."""

    name: str
    kind: Kind
    default: object = REQUIRED


class Route(NamedTuple):
    """One endpoint of the wire contract.

    ``target`` names the ``JobQueue`` (``queue.``) or store-backend
    (``backend.``) method the route calls, with the body's fields as
    its arguments in table order; ``None`` for the routes only a
    handler answers. ``reply`` is the key the server wraps the result
    under, or ``None`` for an acknowledgement (``{"ok": true}``).
    """

    method: str
    path: str
    target: str
    reply: str
    args: tuple = ()


#: Every endpoint under :data:`API_PREFIX`, by path: the fabric queue
#: API 1:1 plus the store backend's five-table key/value protocol.
ROUTES = {route.path: route for route in (
    Route("GET", "handshake", None, None),
    Route("POST", "queue/enqueue", "queue.enqueue", "added", (
        Arg("tasks", TASKS, ()), Arg("submitted_by", TEXT.or_null(), None))),
    Route("POST", "queue/claim", "queue.claim_many", "tasks", (
        Arg("worker", TEXT), Arg("count", COUNT),
        Arg("lease_seconds", NUMBER.or_null(), None),
        Arg("completions", ACKS, ()), Arg("results", PAIRS, ()),
        Arg("wait", SECONDS, 0), Arg("precheck", FLAG, False))),
    Route("POST", "queue/heartbeat", "queue.heartbeat", "ok", (
        Arg("key", TEXT), Arg("worker", TEXT),
        Arg("lease_seconds", NUMBER.or_null(), None))),
    Route("POST", "queue/complete", "queue.complete_many", "ok", (
        Arg("completions", ACKS, ()), Arg("results", PAIRS, ()))),
    Route("POST", "queue/release", "queue.release", "ok", (
        Arg("key", TEXT), Arg("worker", TEXT))),
    Route("POST", "queue/fail", "queue.fail", "state", (
        Arg("key", TEXT), Arg("worker", TEXT), Arg("error", TEXT, ""))),
    Route("POST", "queue/requeue-dead", "queue.requeue_dead", "requeued"),
    Route("POST", "queue/cancel", "queue.cancel", "cancelled", (
        Arg("keys", KEYS, ()),)),
    Route("POST", "queue/states", "queue.states", "states", (
        Arg("keys", KEYS, ()),)),
    Route("GET", "queue/counts", "queue.counts", "counts"),
    Route("GET", "queue/leases", "queue.leases", "leases"),
    Route("GET", "queue/dead", "queue.dead", "dead"),
    Route("POST", "queue/errors", "queue.errors", "error", (
        Arg("key", TEXT),)),
    Route("POST", "queue/purge-done", "queue.purge_done", "purged"),
    Route("POST", "workers/register", "queue.register_worker", "worker_id", (
        Arg("worker_id", TEXT.or_null(), None), Arg("pid", INT.or_null(), None),
        Arg("host", TEXT.or_null(), None))),
    Route("POST", "workers/beat", "queue.worker_beat", None, (
        Arg("worker_id", TEXT), Arg("tasks_done", INT.or_null(), None),
        Arg("tasks_failed", INT.or_null(), None),
        Arg("telemetry", OBJECT.or_null(), None), Arg("keys", KEYS, ()),
        Arg("lease_seconds", NUMBER.or_null(), None))),
    Route("GET", "workers", "queue.workers", "workers"),
    Route("POST", "store/get-many", "backend.get_many", "values", (
        Arg("table", TABLE), Arg("keys", KEYS, ()))),
    Route("POST", "store/put-many", "backend.put_many", "written", (
        Arg("table", TABLE), Arg("items", PAIRS, ()),
        Arg("replace", FLAG, True))),
    Route("POST", "store/delete", "backend.delete", "deleted", (
        Arg("table", TABLE), Arg("key", TEXT))),
    Route("POST", "store/items", "backend.items", "rows", (
        Arg("table", TABLE),)),
    Route("POST", "store/count", "backend.count", "count", (
        Arg("table", TABLE),)),
    Route("POST", "store/prune", "backend.prune", "pruned", (
        Arg("table", TABLE), Arg("older_than", NUMBER))),
    Route("GET", "store/size", "backend.size_bytes", "size_bytes"),
    Route("POST", "store/vacuum", "backend.vacuum", None),
    Route("GET", "status", None, None),
)}


def check_body(route: Route, body: dict) -> dict:
    """``{field: value}`` for every field of ``route``, in table order.

    Absent optional fields take their default. Raises
    :class:`BadRequest`, naming the field, for an unknown field, a
    missing required one or a value of the wrong kind.
    """
    args, given = {}, 0
    for arg in route.args:
        if arg.name in body:
            value = body[arg.name]
            if not arg.kind.test(value):
                raise BadRequest(f"{route.path} '{arg.name}' must be "
                                 f"{arg.kind.text}")
            given += 1
        elif arg.default is REQUIRED:
            raise BadRequest(f"{route.path} needs '{arg.name}' "
                             f"({arg.kind.text})")
        else:
            value = arg.default
        args[arg.name] = value
    if given < len(body):
        unknown = sorted(name for name in body if name not in args)
        raise BadRequest(f"{route.path} takes no field '{unknown[0]}'")
    return args

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
  text, status output).
- **Bodies.** JSON both ways. Success is ``200`` with the endpoint's
  payload; errors are ``{"error": "..."}`` with a meaningful status
  code (400 malformed, 401 unauthorised, 404 unknown endpoint,
  413 body too large, 426 version skew, 429 backpressure with
  ``Retry-After``, 500 with the exception text).
- **Batching.** ``queue/enqueue`` and ``queue/complete`` accept lists,
  so a driver submits a whole race step in one request and a worker
  acknowledges several tasks per round trip (in one transaction);
  ``store/get-many`` is the one store read, K keys per request.
- **Claim.** ``queue/claim`` takes a string ``worker`` and a ``count``
  from 1 to :data:`MAX_CLAIM_COUNT`, and always answers with a
  ``tasks`` list (empty when nothing was claimable). With ``precheck``
  the reply also carries ``results``: each claimed key's stored
  ``sim_results`` row, or ``null``. Malformed claim fields get a 400.
- **Long-poll.** ``queue/claim`` accepts a non-negative ``wait``
  (seconds, capped at :data:`MAX_CLAIM_WAIT`); the server parks the
  request on a condition variable and wakes it the moment claimable
  work appears, so an idle fleet costs one held connection instead of
  a poll storm.
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

The endpoint catalogue mirrors the fabric queue API 1:1 (see
:class:`~repro.fabric.api.TaskQueue`) plus the store backend's
five-table key/value protocol, which is what lets a remote worker run
without any local database file.
"""

from __future__ import annotations

import os
import zlib

#: Bump when request/response shapes change incompatibly. Checked per
#: request (header) and at handshake. Version 2: batched claim
#: (``count``/``tasks``), long-poll ``wait``, ``queue/release``,
#: ``store/get-many``, deflate body compression. Version 3: one claim
#: reply shape (``tasks``, never ``task``), ``count`` required and
#: bounded, claim input validated, no ``store/get``. Version 4:
#: ``queue/enqueue`` revives dead keys, ``queue/requeue-dead`` takes
#: no ``keys``.
WIRE_VERSION = 4

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

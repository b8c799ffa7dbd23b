"""Storage backends for the persistent experiment store.

Two interchangeable backends implement the same five-table key/value
protocol (``sim_results``, ``hw_results``, ``trial_costs``, ``runs``,
``checkpoints`` — every row is ``(key, value, created)`` with JSON text
values):

- :class:`MemoryBackend` — plain dicts, process-local. The default when
  no ``--store`` path is given; it makes the :class:`ResultStore` layer
  testable without touching disk and gives an engine-without-store the
  exact same code path.
- :class:`SqliteBackend` — one SQLite file in WAL mode. WAL plus a busy
  timeout makes concurrent engines (separate processes, successive CLI
  runs, CI jobs sharing a cache artifact) safe: readers never block the
  writer and point lookups stay lock-free.

The schema carries an explicit version stamp; opening a store written
by an incompatible schema fails loudly instead of silently misreading
rows.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time

#: Bump when a table's row format changes incompatibly.
SCHEMA_VERSION = 1

#: Every logical table both backends expose.
TABLES = ("sim_results", "hw_results", "trial_costs", "runs", "checkpoints")

#: Default SQLite busy timeout, seconds. Applied both as the driver-level
#: connect timeout and as ``PRAGMA busy_timeout`` so lock waits are
#: handled inside SQLite before the Python-level retry loop ever fires.
BUSY_TIMEOUT = 30.0

#: Attempts the :func:`retry_busy` wrapper makes before giving up.
BUSY_RETRIES = 6

#: First backoff sleep of :func:`retry_busy`; doubles per attempt.
BUSY_BACKOFF = 0.05

#: Most keys one ``IN (...)`` list carries (see :func:`in_chunks`).
IN_CHUNK = 500


def is_busy_error(exc: BaseException) -> bool:
    """True when ``exc`` is SQLite reporting lock contention.

    ``SQLITE_BUSY``/``SQLITE_LOCKED`` both surface through the Python
    driver as ``sqlite3.OperationalError`` with a message naming the
    locked database; anything else (corruption, syntax, missing table)
    is a real error and must propagate.
    """
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    text = str(exc).lower()
    return "locked" in text or "busy" in text


def retry_busy(op, attempts: int = BUSY_RETRIES, backoff: float = BUSY_BACKOFF):
    """Run ``op()``; on ``SQLITE_BUSY`` retry with exponential backoff.

    The busy timeout already makes SQLite wait for locks, but a writer
    can still lose the race under sustained multi-process hammering
    (WAL checkpoints, ``BEGIN IMMEDIATE`` upgrades). This wrapper is the
    second line of defence: bounded retries with exponential backoff,
    re-raising the final error so persistent contention stays loud.
    """
    for attempt in range(attempts):
        try:
            return op()
        except sqlite3.OperationalError as exc:
            if not is_busy_error(exc) or attempt == attempts - 1:
                raise
            time.sleep(backoff * (2 ** attempt))


def in_chunks(keys):
    """Split ``keys`` into ``IN (...)`` lists of a few fixed lengths.

    Yields ``(chunk, marks)``: at most :data:`IN_CHUNK` keys, padded to
    a power of two by repeating the last key, and the matching
    ``?,?,...`` placeholder text. Every distinct list length is one more
    prepared statement in the connection's statement cache, which a
    server answering polls of every size would otherwise fill; padding
    bounds the shapes to ten per statement.
    """
    keys = list(keys)
    for start in range(0, len(keys), IN_CHUNK):
        chunk = keys[start:start + IN_CHUNK]
        chunk += chunk[-1:] * ((1 << (len(chunk) - 1).bit_length()) - len(chunk))
        yield chunk, ",".join("?" * len(chunk))


def connect_sqlite(path: str) -> sqlite3.Connection:
    """Open ``path`` the way every writer in this project must: WAL mode,
    ``NORMAL`` synchronous, an explicit busy timeout, autocommit
    (``isolation_level=None``) so transactions are always explicit."""
    conn = sqlite3.connect(
        path, timeout=BUSY_TIMEOUT, check_same_thread=False, isolation_level=None
    )
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT * 1000)}")
    return conn


class MemoryBackend:
    """In-process backend: one dict per table, values kept as text."""

    kind = "memory"
    path = None

    def __init__(self) -> None:
        self._tables = {name: {} for name in TABLES}
        self.schema_version = SCHEMA_VERSION

    def get(self, table: str, key: str):
        row = self._tables[table].get(key)
        return row[0] if row is not None else None

    def get_many(self, table: str, keys) -> dict:
        """``{key: value_or_None}`` for many keys in one call."""
        rows = self._tables[table]
        return {key: (rows[key][0] if key in rows else None) for key in keys}

    def put(self, table: str, key: str, value: str, replace: bool = True) -> bool:
        if not replace and key in self._tables[table]:
            return False
        self._tables[table][key] = (value, time.time())
        return True

    def put_many(self, table: str, items, replace: bool = True) -> int:
        return sum(self.put(table, key, value, replace=replace) for key, value in items)

    def delete(self, table: str, key: str) -> bool:
        return self._tables[table].pop(key, None) is not None

    def items(self, table: str):
        """All rows of ``table`` as ``(key, value, created)`` tuples."""
        return [(k, v, c) for k, (v, c) in sorted(self._tables[table].items())]

    def count(self, table: str) -> int:
        return len(self._tables[table])

    def prune(self, table: str, older_than: float) -> int:
        doomed = [k for k, (_v, c) in self._tables[table].items() if c < older_than]
        for key in doomed:
            del self._tables[table][key]
        return len(doomed)

    def size_bytes(self) -> int:
        return sum(
            len(k) + len(v)
            for table in self._tables.values()
            for k, (v, _c) in table.items()
        )

    def vacuum(self) -> None:
        pass

    def close(self) -> None:
        pass


class SqliteBackend:
    """SQLite-file backend (WAL mode, concurrency-safe).

    One connection per backend instance, guarded by a lock so a single
    engine driving parallel workers stays thread-safe; cross-process
    safety comes from WAL + ``busy_timeout`` + the :func:`retry_busy`
    wrapper around every statement (fabric workers hammer one store
    file from many processes at once).
    """

    kind = "sqlite"
    #: Local files need no credentials (see ``HttpBackend.token``).
    token = None

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = connect_sqlite(self.path)
        self._init_schema()

    def _init_schema(self) -> None:
        with self._lock:
            retry_busy(self._create_tables)

    def _create_tables(self) -> None:
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS store_meta"
            " (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        row = self._conn.execute(
            "SELECT value FROM store_meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT OR IGNORE INTO store_meta VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            row = (str(SCHEMA_VERSION),)
        self.schema_version = int(row[0])
        if self.schema_version != SCHEMA_VERSION:
            raise RuntimeError(
                f"store {self.path!r} has schema v{self.schema_version}, "
                f"this code speaks v{SCHEMA_VERSION}; export from the old "
                "code and import here"
            )
        for table in TABLES:
            self._conn.execute(
                f"CREATE TABLE IF NOT EXISTS {table} (key TEXT PRIMARY KEY,"
                " value TEXT NOT NULL, created REAL NOT NULL)"
            )

    def get(self, table: str, key: str):
        with self._lock:
            row = retry_busy(lambda: self._conn.execute(
                f"SELECT value FROM {table} WHERE key = ?", (key,)
            ).fetchone())
        return row[0] if row is not None else None

    def get_many(self, table: str, keys) -> dict:
        """``{key: value_or_None}`` for many keys, one query per 500."""
        keys = list(keys)
        out = {key: None for key in keys}
        with self._lock:
            for chunk, marks in in_chunks(keys):
                rows = retry_busy(lambda c=chunk, m=marks: list(
                    self._conn.execute(
                        f"SELECT key, value FROM {table} WHERE key IN ({m})", c
                    )))
                out.update(rows)
        return out

    def put(self, table: str, key: str, value: str, replace: bool = True) -> bool:
        return self.put_many(table, [(key, value)], replace=replace) == 1

    def put_many(self, table: str, items, replace: bool = True) -> int:
        """Store many ``(key, value)`` pairs; returns the rows written."""
        verb = "INSERT OR REPLACE" if replace else "INSERT OR IGNORE"
        now = time.time()
        rows = [(key, value, now) for key, value in items]
        if not rows:
            return 0
        with self._lock:
            return retry_busy(lambda: self._conn.executemany(
                f"{verb} INTO {table} VALUES (?, ?, ?)", rows
            ).rowcount)

    def delete(self, table: str, key: str) -> bool:
        """Delete one key; ``True`` when a row was removed."""
        with self._lock:
            return retry_busy(lambda: self._conn.execute(
                f"DELETE FROM {table} WHERE key = ?", (key,)
            ).rowcount) > 0

    def items(self, table: str):
        with self._lock:
            return retry_busy(lambda: list(
                self._conn.execute(
                    f"SELECT key, value, created FROM {table} ORDER BY key"
                )
            ))

    def count(self, table: str) -> int:
        """Row count of a table."""
        with self._lock:
            return retry_busy(lambda: self._conn.execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()[0])

    def prune(self, table: str, older_than: float) -> int:
        """Drop rows created before ``older_than``; returns rows removed."""
        with self._lock:
            return retry_busy(lambda: self._conn.execute(
                f"DELETE FROM {table} WHERE created < ?", (older_than,)
            ).rowcount)

    def size_bytes(self) -> int:
        """On-disk size of the database file."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def vacuum(self) -> None:
        """Compact the database file."""
        with self._lock:
            retry_busy(lambda: self._conn.execute("VACUUM"))

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def make_backend(spec, token: str = None, max_retries: int = None):
    """``spec`` to backend: ``None``/``"memory"``/``":memory:"``, an
    ``http(s)://`` service URL, or a SQLite file path.

    ``token`` and ``max_retries`` only apply to URL specs (auth and
    transient-failure budget of the HTTP client); they are ignored for
    local backends so call sites can forward them unconditionally.
    """
    if spec is None or spec in ("memory", ":memory:"):
        return MemoryBackend()
    if isinstance(spec, str) and spec.startswith(("http://", "https://")):
        # Local import: the service client is pure stdlib but lives in a
        # package that imports fabric modules; keep the store importable
        # on its own.
        from repro.service.client import DEFAULT_MAX_RETRIES, HttpBackend

        return HttpBackend(
            spec, token=token,
            max_retries=DEFAULT_MAX_RETRIES if max_retries is None else max_retries,
        )
    return SqliteBackend(spec)

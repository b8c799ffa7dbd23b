"""Memoising trace store.

The paper's SIFT workflow records each workload once and replays the
trace for every candidate configuration. The :class:`TraceStore` is that
recording step made explicit and shared: every layer (tuning, validation,
CLI, sweeps) asks the store, and the store builds each trace at most once
per ``(workload, scale, overrides)`` — the telemetry counters prove it.

With a ``cache_dir`` the store additionally persists each trace's
*columnar* form (:mod:`repro.trace.columnar`) as a content-addressed
binary blob on disk and memory-maps it back on request. That turns
"once per engine" into "once per host": recording a trace costs ~3x its
simulation time, and every fabric worker on a host used to pay it
independently — with the blob cache the first worker records and
persists, every other worker attaches the same pages in microseconds.
"""

from __future__ import annotations

import hashlib
import mmap
import os

from repro.engine.keys import trace_key
from repro.isa.decoder import decoder_library


class TraceStore:
    """Builds and memoises workload traces for one engine.

    Parameters
    ----------
    workloads:
        The :class:`~repro.workloads.base.Workload` objects this store
        can record.
    scale:
        Default trace scale (1.0 = the workload's nominal length).
    cache_dir:
        Optional directory for persisted columnar blobs. ``None`` keeps
        everything in-process (the default for plain engines); fabric
        workers point every engine at one directory next to the store
        file so traces are recorded once per host, not once per worker.
    """

    def __init__(self, workloads, scale: float = 1.0, cache_dir: str = None) -> None:
        self._by_name = {wl.name: wl for wl in workloads}
        self.scale = scale
        self.cache_dir = None if cache_dir is None else os.fspath(cache_dir)
        self._traces: dict = {}
        self._columns: dict = {}
        #: Number of traces actually recorded (cache misses).
        self.builds = 0
        #: Number of store lookups served from the cache.
        self.hits = 0
        #: Columnar blobs attached from the on-disk cache (recordings
        #: this process skipped because another process already paid).
        self.column_attaches = 0
        #: Columnar blobs this process recorded and persisted.
        self.column_persists = 0

    def __len__(self) -> int:
        return len(self._traces)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def workload(self, name: str):
        """The registered :class:`~repro.workloads.base.Workload`."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown workload {name!r} in this trace store") from None

    def names(self) -> list:
        """Every workload name this store can record."""
        return list(self._by_name)

    def key(self, name: str, overrides: dict = None, scale: float = None) -> tuple:
        """The content-addressed trace key (see :func:`~repro.engine.keys.trace_key`)."""
        return trace_key(name, self.scale if scale is None else scale, overrides or {})

    def get(self, name: str, overrides: dict = None, scale: float = None):
        """The trace of ``name`` at ``scale`` with kwargs ``overrides``.

        Recorded on first request, replayed from the cache afterwards.
        """
        key = self.key(name, overrides, scale)
        cached = self._traces.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        wl = self.workload(name)
        use_scale = self.scale if scale is None else scale
        trace = wl.trace(scale=use_scale, **(overrides or {}))
        self._traces[key] = trace
        self.builds += 1
        return trace

    # ------------------------------------------------------------------
    # Columnar blob cache
    # ------------------------------------------------------------------
    def _blob_path(self, name: str, library: tuple, overrides: dict, scale: float) -> str:
        from repro.trace.columnar import BLOB_VERSION

        token = repr(("columnar", BLOB_VERSION, name, scale,
                      tuple(sorted((overrides or {}).items())), library))
        digest = hashlib.sha256(token.encode("utf-8")).hexdigest()
        return os.path.join(self.cache_dir, f"{digest}.rcol")

    def columns(self, name: str, decoder, overrides: dict = None, scale: float = None):
        """Columnar form of workload ``name`` for ``decoder``.

        Without a ``cache_dir`` this is ``columns_with`` on the memoised
        trace (built in-process, once per decoder library). With one,
        the blob file is the source of truth: an existing blob is
        memory-mapped and attached zero-copy — **no recording happens in
        this process** — while a missing blob is recorded, built and
        persisted atomically (write-to-temp + rename) so concurrent
        workers racing on the same key each publish a complete,
        byte-identical file. The returned object is trace-like and goes
        anywhere a recorded trace goes (see
        :class:`repro.trace.columnar.ColumnarTrace`).
        """
        if self.cache_dir is None:
            return self.get(name, overrides, scale).columns_with(decoder)
        from repro.trace.columnar import ColumnarTrace

        library = tuple(str(part) for part in decoder_library(decoder))
        use_scale = self.scale if scale is None else scale
        memo_key = (self.key(name, overrides, scale), library)
        cached = self._columns.get(memo_key)
        if cached is not None:
            return cached
        path = self._blob_path(name, library, overrides, use_scale)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            cols = ColumnarTrace.from_blob(buf)
            self.column_attaches += 1
        else:
            cols = self.get(name, overrides, scale).columns_with(decoder)
            os.makedirs(self.cache_dir, exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as fh:
                fh.write(cols.to_blob())
            os.replace(tmp, path)
            self.column_persists += 1
        self._columns[memo_key] = cols
        return cols

"""The content-addressed result store.

:class:`ResultStore` is the durable counterpart of the
:class:`~repro.engine.engine.EvaluationEngine`'s in-memory result cache:
simulator statistics, hardware measurements and memoised trial costs,
addressed by the engine's own content keys (:mod:`repro.engine.keys`),
persisted through a pluggable backend (:mod:`repro.store.backend`).
An engine given a store reads and writes through it transparently, so
successive processes — CLI invocations, tuning sessions, CI jobs —
share one experiment database the way the paper's methodology shares
one set of hardware measurements.

Beyond result rows it also holds campaign/tuner **checkpoints** (stage
payloads keyed by run id, see :mod:`repro.store.checkpoint`) and the
**run registry** rows (:mod:`repro.store.registry`), plus the
housekeeping surface the CLI exposes: :meth:`stats`, :meth:`gc`,
:meth:`export_json` and :meth:`import_json`.
"""

from __future__ import annotations

import time

from repro.analysis.io import load_result_json, save_result_json
from repro.store.backend import SCHEMA_VERSION, TABLES, make_backend
from repro.store.serialize import (
    dumps,
    encode_key,
    loads,
    perf_from_payload,
    perf_to_payload,
    stats_from_payload,
    stats_to_payload,
)

#: Separator between run id and stage name in checkpoint keys.
_CK_SEP = "::"


class ResultStore:
    """Durable, shared experiment results over one backend."""

    def __init__(self, backend) -> None:
        self.backend = backend

    @property
    def registry(self):
        """The run registry view of this store."""
        from repro.store.registry import RunRegistry

        return RunRegistry(self)

    # ------------------------------------------------------------------
    # Simulator statistics
    # ------------------------------------------------------------------
    def get_sim(self, key):
        """Stored :class:`SimStats` for an engine sim key, or ``None``."""
        text = self.backend.get("sim_results", encode_key(key))
        return stats_from_payload(loads(text)) if text is not None else None

    def get_sims(self, keys) -> dict:
        """``{key: SimStats_or_None}`` for many keys in one round trip.

        Backed by the backend's ``get_many`` (one SQL query locally,
        one HTTP request remotely), which is what keeps result polling
        for K racing candidates from costing K wire round trips.
        """
        keys = list(keys)
        encoded = [encode_key(key) for key in keys]
        raw = self.backend.get_many("sim_results", encoded)
        return {
            key: (stats_from_payload(loads(raw[enc]))
                  if raw.get(enc) is not None else None)
            for key, enc in zip(keys, encoded)
        }

    def put_sim(self, key, stats) -> None:
        """Persist one simulation result under its content key."""
        self.put_sim_many([(key, stats)])

    def put_sim_many(self, items) -> int:
        """Persist ``[(key, stats), ...]``; returns rows newly written."""
        return self.backend.put_many(
            "sim_results",
            [(encode_key(key), dumps(stats_to_payload(stats))) for key, stats in items],
        )

    # ------------------------------------------------------------------
    # Hardware measurements
    # ------------------------------------------------------------------
    def get_hw(self, key):
        """Stored hardware measurement for an engine hw key, or ``None``."""
        text = self.backend.get("hw_results", encode_key(key))
        return perf_from_payload(loads(text)) if text is not None else None

    def put_hw(self, key, result) -> None:
        """Persist one hardware measurement under its content key."""
        self.backend.put("hw_results", encode_key(key), dumps(perf_to_payload(result)))

    # ------------------------------------------------------------------
    # Trial costs (the tuner's memo, persisted)
    # ------------------------------------------------------------------
    def get_cost(self, key):
        """Stored trial cost for a tuner memo key, or ``None``."""
        text = self.backend.get("trial_costs", encode_key(key))
        return loads(text) if text is not None else None

    def get_costs(self, keys) -> dict:
        """``{key: cost_or_None}`` for many tuner memo keys in one round
        trip (the cost-table twin of :meth:`get_sims`)."""
        keys = list(keys)
        encoded = [encode_key(key) for key in keys]
        raw = self.backend.get_many("trial_costs", encoded)
        return {key: (loads(raw[enc]) if raw.get(enc) is not None else None)
                for key, enc in zip(keys, encoded)}

    def put_cost_many(self, items) -> int:
        """Persist ``[(key, cost), ...]``; returns rows newly written."""
        return self.backend.put_many(
            "trial_costs", [(encode_key(key), dumps(cost)) for key, cost in items]
        )

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def put_checkpoint(self, run_id: str, stage: str, payload: dict) -> None:
        """Write a stage-granular checkpoint payload for ``run_id``."""
        self.backend.put("checkpoints", f"{run_id}{_CK_SEP}{stage}", dumps(payload))

    def get_checkpoint(self, run_id: str, stage: str):
        """Checkpoint payload for ``(run_id, stage)``, or ``None``."""
        text = self.backend.get("checkpoints", f"{run_id}{_CK_SEP}{stage}")
        return loads(text) if text is not None else None

    def list_checkpoints(self, run_id: str) -> list:
        """Stage names checkpointed under ``run_id`` (storage order)."""
        prefix = f"{run_id}{_CK_SEP}"
        return [
            key[len(prefix):]
            for key, _value, _created in self.backend.items("checkpoints")
            if key.startswith(prefix)
        ]

    def delete_checkpoints(self, run_id: str) -> int:
        """Drop all checkpoints of ``run_id``; returns rows removed."""
        removed = 0
        for stage in self.list_checkpoints(run_id):
            removed += self.backend.delete("checkpoints", f"{run_id}{_CK_SEP}{stage}")
        return removed

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Row counts, backend identity, schema version, on-disk size."""
        out = {
            "backend": self.backend.kind,
            "path": self.backend.path,
            "schema_version": getattr(self.backend, "schema_version", SCHEMA_VERSION),
            "size_bytes": self.backend.size_bytes(),
        }
        for table in TABLES:
            out[table] = self.backend.count(table)
        return out

    def gc(self, days: float = None) -> dict:
        """Garbage-collect: checkpoints of finished runs, old result rows.

        Checkpoints exist to resume interrupted runs, so any run whose
        registry status is terminal loses its checkpoints. When ``days``
        is given, result rows older than that many days are pruned too
        (result rows are content-addressed, so pruning only costs future
        cache hits — never correctness).
        """
        from repro.store.registry import RunRegistry

        removed_checkpoints = 0
        for record in RunRegistry(self).list():
            if record.status in ("completed", "failed"):
                removed_checkpoints += self.delete_checkpoints(record.run_id)
        pruned = 0
        if days is not None:
            cutoff = time.time() - days * 86400.0
            for table in ("sim_results", "hw_results", "trial_costs"):
                pruned += self.backend.prune(table, cutoff)
        self.backend.vacuum()
        return {"checkpoints_removed": removed_checkpoints, "rows_pruned": pruned}

    def export_json(self, path: str) -> dict:
        """Dump every table to a portable JSON file (machine-transferable)."""
        tables = {table: [list(row) for row in self.backend.items(table)]
                  for table in TABLES}
        counts = {table: len(rows) for table, rows in tables.items()}
        save_result_json(path, {"schema_version": SCHEMA_VERSION, "tables": tables})
        return counts

    def import_json(self, path: str, replace: bool = False) -> dict:
        """Merge an exported file into this store.

        Existing keys win by default (``replace=False``): content-equal
        keys hold content-equal payloads, so skipping duplicates is safe
        and keeps imports idempotent.
        """
        payload = load_result_json(path)
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise RuntimeError(
                f"export file {path!r} has schema v{version}, expected v{SCHEMA_VERSION}"
            )
        counts = {}
        for table in TABLES:
            rows = payload["tables"].get(table, [])
            counts[table] = self.backend.put_many(
                table, [(key, value) for key, value, _created in rows], replace=replace
            )
        return counts

    def close(self) -> None:
        """Release the backend (flushes and closes SQLite handles)."""
        self.backend.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_store(spec, token: str = None, max_retries: int = None) -> ResultStore:
    """Open a store: ``"memory"``/``":memory:"``, a SQLite file path, or
    an ``http(s)://`` experiment-service URL (see :mod:`repro.service`).

    ``token``/``max_retries`` configure the HTTP client for URL specs
    and are ignored otherwise.
    """
    return ResultStore(make_backend(spec, token=token, max_retries=max_retries))

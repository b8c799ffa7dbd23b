"""The distributed campaign fabric.

A durable, crash-tolerant execution subsystem that moves the *work*
of the paper's embarrassingly parallel methodology — not just the
results — across processes and hosts:

- :mod:`repro.fabric.queue` — schema-versioned job queue in the store's
  SQLite file (WAL, lease-based claiming, heartbeats, expiry-driven
  requeue, bounded retries, dead-letter state);
- :mod:`repro.fabric.tasks` — content-keyed, self-contained task specs
  (the task key *is* the result's store address);
- :mod:`repro.fabric.scheduler` — engine batches and sweep grids
  decomposed into deduplicated task plans;
- :mod:`repro.fabric.worker` — the ``repro worker`` lease/execute loop;
- :mod:`repro.fabric.status` — the ``repro status`` snapshot.

The driver-side entry point is the ``fabric`` executor
(:class:`repro.engine.executors.FabricExecutor`), selected with
``EvaluationEngine(executor="fabric", store=...)`` or ``--executor
fabric`` on the CLI.

Every consumer programs against the queue *interface*
(:class:`repro.fabric.api.TaskQueue`); :class:`JobQueue` is the SQLite
implementation, and :class:`repro.service.client.HttpQueue` speaks the
same contract to a remote ``repro serve`` — which is how the fabric
crosses host boundaries without shared storage.
"""

from repro.fabric.api import TaskQueue
from repro.fabric.queue import (
    DEFAULT_LEASE,
    DEFAULT_MAX_ATTEMPTS,
    FABRIC_SCHEMA_VERSION,
    JobQueue,
    Lease,
    Task,
    open_queue,
)
from repro.fabric.scheduler import TaskPlan, expand_grid, plan_groups, plan_simulations
from repro.fabric.status import status_snapshot
from repro.fabric.tasks import (
    KIND_SIMULATE,
    KIND_SLEEP,
    rebuild_config,
    resolve_decoder,
    sim_task,
)
from repro.fabric.worker import FabricWorker, WorkerStats
from repro.isa.decoder import check_decoder_portable

__all__ = [
    "DEFAULT_LEASE",
    "DEFAULT_MAX_ATTEMPTS",
    "FABRIC_SCHEMA_VERSION",
    "JobQueue",
    "Lease",
    "Task",
    "TaskQueue",
    "open_queue",
    "TaskPlan",
    "expand_grid",
    "plan_groups",
    "plan_simulations",
    "status_snapshot",
    "KIND_SIMULATE",
    "KIND_SLEEP",
    "check_decoder_portable",
    "rebuild_config",
    "resolve_decoder",
    "sim_task",
    "FabricWorker",
    "WorkerStats",
]

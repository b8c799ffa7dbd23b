"""Scheduler: decompose driver-level work into content-keyed tasks.

Two shapes of work reach the fabric:

- **engine batches** — the :class:`~repro.engine.engine.EvaluationEngine`
  hands its executor trace-grouped configuration lists (the tuner's
  race blocks, the campaign's whole-suite evaluations, sweep grids).
  :func:`plan_groups` turns them into one task per unique content key.
  The engine has already answered every key its cache or the store
  holds, so this plan reads no store and every key becomes a task.
- **standing grids** — ``repro submit`` expands a sweep-style
  cross-product into tasks without any waiting driver, so workers can
  pre-warm the store for campaigns that arrive later. Its plan passes
  the :class:`~repro.store.resultstore.ResultStore`, so a key whose
  result already exists never becomes a task.

Every plan deduplicates within itself (two configs flattening
identically share a key, hence a task); the queue's idempotent enqueue
collapses keys that are already queued, leased or done. Stage ordering
needs no queue machinery: a campaign's driver only submits stage *N+1*
after stage *N*'s results are read back, so cross-stage dependencies
are enforced by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.fabric.tasks import KIND_SIMULATE, sim_task


@dataclass
class TaskPlan:
    """What a planning pass decided to do.

    ``tasks`` is ready for :meth:`~repro.fabric.queue.JobQueue.enqueue`;
    ``keys`` preserves the *submission* order of every planned unit
    (including store-satisfied ones, whose entries are marked in
    ``store_hits``) so callers can align results positionally.
    """

    #: ``(key, kind, payload)`` triples to enqueue.
    tasks: list = field(default_factory=list)
    #: Every unique content key, in first-seen submission order.
    keys: list = field(default_factory=list)
    #: Keys whose results the store already held at planning time.
    store_hits: list = field(default_factory=list)
    #: One key per *input item*, in input order (duplicates repeated) —
    #: lets a caller address every submitted slot without re-deriving.
    item_keys: list = field(default_factory=list)


def plan_simulations(items, store=None) -> TaskPlan:
    """Plan tasks for ``[(config, workload, scale, overrides, decoder), ...]``.

    Deduplicates by content key within the list and, when a ``store``
    is given, skips every item whose result is already persisted — one
    ``get_many`` existence check per plan, however many items.
    """
    plan = TaskPlan()
    payloads: dict = {}  # unique key -> payload, first-seen order
    for config, workload, scale, overrides, decoder in items:
        key, payload = sim_task(config, workload, scale, overrides, decoder)
        plan.item_keys.append(key)
        payloads.setdefault(key, payload)
    plan.keys = list(payloads)
    # One existence check for the whole plan; rows are never decoded.
    stored = (store.backend.get_many("sim_results", plan.keys)
              if store is not None and plan.keys else {})
    for key, payload in payloads.items():
        if stored.get(key) is not None:
            plan.store_hits.append(key)
        else:
            plan.tasks.append((key, KIND_SIMULATE, payload))
    return plan


def plan_groups(groups, decoder) -> TaskPlan:
    """Plan tasks for executor groups ``[(configs, trace_key, trace), ...]``.

    The trace key is the engine's ``(workload, scale, overrides_token)``
    tuple, so each group's identity fully determines its tasks; the
    trace object itself never crosses the fabric (workers re-record).
    The groups are engine misses, so no store is consulted.
    """
    items = []
    for configs, tkey, _trace in groups:
        workload, scale, ovr_token = tkey
        overrides = dict(ovr_token)
        for config in configs:
            items.append((config, workload, scale, overrides, decoder))
    return plan_simulations(items)


def expand_grid(base_config, grid: dict, workloads, scale: float = 1.0,
                overrides: dict = None, decoder=None) -> list:
    """A sweep grid into :func:`plan_simulations` items.

    ``grid`` maps dotted config paths to value lists; axis order defines
    trial order, exactly as ``repro sweep`` iterates. An empty grid
    yields the base configuration alone. ``overrides`` are per-workload
    kwargs shared by every item; ``decoder`` defaults to the standard
    library.
    """
    if decoder is None:
        from repro.isa.decoder import Decoder

        decoder = Decoder()
    keys = list(grid or {})
    combos = ([dict(zip(keys, values))
               for values in itertools.product(*grid.values())]
              if keys else [{}])
    configs = [base_config.with_updates(combo) for combo in combos]
    return [(config, name, scale, dict(overrides or {}), decoder)
            for config in configs for name in workloads]

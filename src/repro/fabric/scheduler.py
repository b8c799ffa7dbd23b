"""Scheduler: decompose driver-level work into content-keyed tasks.

Two shapes of work reach the fabric:

- **engine batches** — the :class:`~repro.engine.engine.EvaluationEngine`
  hands its executor trace-grouped configuration lists (the tuner's
  race blocks, the campaign's whole-suite evaluations, sweep grids).
  :func:`plan_groups` turns them into one task per unique content key.
- **standing grids** — ``repro submit`` expands a sweep-style
  cross-product into tasks without any waiting driver, so workers can
  pre-warm the store for campaigns that arrive later.

Both paths deduplicate before enqueue, twice: within the plan (two
configs flattening identically share a key, hence a task) and against
the :class:`~repro.store.resultstore.ResultStore` (a key whose result
already exists never becomes a task — the store is the fabric's
memory). Stage ordering needs no queue machinery: a campaign's driver
only submits stage *N+1* after stage *N*'s results are read back, so
cross-stage dependencies are enforced by construction.
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
    #: Keys the caller declared already enqueued (speculative dedup):
    #: planned, awaited, but not re-enqueued.
    in_flight: list = field(default_factory=list)
    #: One key per *input item*, in input order (duplicates repeated) —
    #: lets a caller address every submitted slot without re-deriving.
    item_keys: list = field(default_factory=list)

    def summary(self) -> str:
        """One-line account of the plan (used by ``repro submit``)."""
        text = (f"{len(self.keys)} unique trials: {len(self.tasks)} enqueued, "
                f"{len(self.store_hits)} already in store")
        if self.in_flight:
            text += f", {len(self.in_flight)} already in flight"
        return text


def plan_simulations(items, store=None, in_flight=None) -> TaskPlan:
    """Plan tasks for ``[(config, workload, scale, overrides, decoder), ...]``.

    Deduplicates by content key within the list and, when a ``store``
    is given, skips every item whose result is already persisted — one
    ``get_many`` existence check per plan, however many items.
    ``in_flight`` is an optional set of keys a speculative caller has
    already enqueued and not yet collected — those are planned (they
    appear in ``plan.keys`` and ``plan.in_flight``) but produce no new
    task, so overlapping speculative batches enqueue each key once.
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
        elif in_flight is not None and key in in_flight:
            plan.in_flight.append(key)
        else:
            plan.tasks.append((key, KIND_SIMULATE, payload))
    return plan


def plan_groups(groups, decoder, scale_overrides=None, store=None,
                in_flight=None) -> TaskPlan:
    """Plan tasks for executor groups ``[(configs, trace_key, trace), ...]``.

    The trace key is the engine's ``(workload, scale, overrides_token)``
    tuple, so each group's identity fully determines its tasks; the
    trace object itself never crosses the fabric (workers re-record).
    """
    items = []
    for configs, tkey, _trace in groups:
        workload, scale, ovr_token = tkey
        overrides = dict(ovr_token)
        for config in configs:
            items.append((config, workload, scale, overrides, decoder))
    return plan_simulations(items, store=store, in_flight=in_flight)


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

"""Evaluator adapters between the tuner's assignment space and the engine.

The racing tuner speaks ``evaluate(assignment, instance) -> cost`` over
flat parameter assignments; the engine speaks ``(SimConfig, workload)``
pairs. Two adapters bridge them:

- :class:`TrialCache` — memoises *any* trial evaluator (engine-backed or
  a plain function) per (assignment, instance) and keeps the unified
  requested/unique trial accounting. This replaces the private memo
  dicts that used to live inside :class:`~repro.tuning.irace.IraceTuner`.
- :class:`AssignmentEvaluator` — applies an assignment to a base config
  and submits the pair to an :class:`~repro.engine.engine.EvaluationEngine`,
  with an optional cost function and cost saturation; its batch method
  lets a whole race block execute as one parallel submission.

Both also speak the non-blocking ``submit_batch``/``poll_batch``/
``cancel_batch`` protocol the async race drives;
:func:`find_batch_backend` is how a caller holding only evaluation
callables finds it.

Only ``repro.engine.keys`` is imported here (no engine/tuning modules),
which keeps the tuning <-> engine import graph acyclic.
"""

from __future__ import annotations

from repro.engine.keys import freeze_assignment


def find_batch_backend(evaluate, batch_evaluate):
    """The object behind ``evaluate``/``batch_evaluate`` that speaks the
    non-blocking batch protocol, or ``None``.

    Each callable is tried (``batch_evaluate`` first), then the object a
    bound method belongs to: racing ``cache.evaluate_batch`` finds
    ``cache``.
    """
    for fn in (batch_evaluate, evaluate):
        if fn is None:
            continue
        owner = getattr(fn, "__self__", None)
        for candidate in (owner, fn):
            if candidate is not None and hasattr(candidate, "submit_batch") \
                    and hasattr(candidate, "poll_batch"):
                return candidate
    return None


class TrialCache:
    """Memoising wrapper around ``evaluate(assignment, instance)``.

    Exposes both the scalar call the race's statistics expect and a
    batch call (``evaluate_batch(pairs) -> costs``) that deduplicates
    against the memo and forwards the remainder to the wrapped batch
    evaluator in one block (falling back to a serial loop when the
    underlying evaluator has no batch path).

    Given a persistent ``store`` plus a ``context`` token, the memo also
    reads/writes the store's trial-costs table under
    ``(context, assignment, instance)`` keys — a resumed tuning stage
    (same context) then replays its memo from disk instead of
    recomputing it. The context must uniquely identify everything the
    wrapped evaluator closes over (base config, cost function, stage),
    which is why persistence stays off unless one is supplied.
    """

    def __init__(self, evaluate=None, batch_evaluate=None, store=None, context=None) -> None:
        if evaluate is None and batch_evaluate is None:
            raise ValueError("need evaluate and/or batch_evaluate")
        if batch_evaluate is None:
            batch_evaluate = getattr(evaluate, "evaluate_batch", None)
        self._evaluate = evaluate
        self._batch = batch_evaluate
        self._store = store if context is not None else None
        self._context = context
        self._memo: dict = {}
        #: Trials requested, including memo hits.
        self.requested_trials = 0
        #: Trials that reached the underlying evaluator.
        self.unique_trials = 0
        #: Memo entries replayed from the persistent store.
        self.store_hits = 0

    @staticmethod
    def key(assignment: dict, instance) -> tuple:
        """The memo key of one trial: ``(frozen assignment, instance)``."""
        return (freeze_assignment(assignment), instance)

    def __call__(self, assignment: dict, instance) -> float:
        return self.evaluate_batch([(assignment, instance)])[0]

    def _store_key(self, key: tuple) -> tuple:
        return ("cost", self._context, *key)

    def _split(self, pairs) -> tuple:
        """The prologue both batch entry points share.

        Counts the requested trials, answers what the memo or the store
        already holds (every key the memo misses is read with one
        ``get_costs`` — one store round trip per batch) and runs
        duplicate keys once. Returns ``({index: cost}, {key:
        [indices]})``: the answered pairs and the unique remainder.
        """
        keys = [self.key(assignment, instance) for assignment, instance in pairs]
        if self._store is not None:
            missing = {key: self._store_key(key) for key in keys
                       if key not in self._memo}
            if missing:
                stored = self._store.get_costs(missing.values())
                for key, store_key in missing.items():
                    value = stored[store_key]
                    if value is not None:
                        self._memo[key] = value
                        self.store_hits += 1
        ready: dict = {}    # index -> cost
        pending: dict = {}  # key -> [indices]
        self.requested_trials += len(pairs)
        for idx, key in enumerate(keys):
            if key in self._memo:
                ready[idx] = self._memo[key]
            else:
                pending.setdefault(key, []).append(idx)
        return ready, pending

    def evaluate_batch(self, pairs) -> list:
        """Costs for ``[(assignment, instance), ...]``, aligned with ``pairs``.

        Memo and store hits are answered directly; the unique remainder
        runs as one block through the wrapped batch evaluator (or one
        ``evaluate`` call per trial without one) and is memoised and,
        with a store, persisted.
        """
        pairs = list(pairs)
        ready, pending = self._split(pairs)
        costs = [ready.get(idx) for idx in range(len(pairs))]
        if pending:
            todo = [pairs[indices[0]] for indices in pending.values()]
            if self._batch is not None:
                fresh = list(self._batch(todo))
            else:
                fresh = [self._evaluate(a, i) for a, i in todo]
            self.unique_trials += len(todo)
            for key, value in zip(pending, fresh):
                self._memo[key] = value
                for idx in pending[key]:
                    costs[idx] = value
            if self._store is not None:
                self._store.put_cost_many(
                    [(self._store_key(key), value) for key, value in zip(pending, fresh)]
                )
        return costs

    # ------------------------------------------------------------------
    # Non-blocking batch protocol (the async race path)
    # ------------------------------------------------------------------
    def submit_batch(self, pairs) -> "_TrialTicket":
        """Start ``[(assignment, instance), ...]`` without waiting.

        Memo and store hits resolve immediately (delivered by the first
        poll); the unique remainder goes to the wrapped evaluator's own
        ``submit_batch`` when it has one, else it is computed in one
        block at the first poll — the synchronous-equivalent fallback.
        """
        pairs = list(pairs)
        ticket = _TrialTicket(pairs)
        ticket.ready, ticket.pending = self._split(pairs)

        if ticket.pending:
            ticket.todo_keys = list(ticket.pending)
            ticket.todo_pairs = [pairs[ticket.pending[key][0]]
                                 for key in ticket.todo_keys]
            backend = find_batch_backend(self._evaluate, self._batch)
            if backend is not None:
                ticket.backend = backend
                ticket.backend_ticket = backend.submit_batch(ticket.todo_pairs)
        return ticket

    def poll_batch(self, ticket: "_TrialTicket") -> dict:
        """``{pair index: cost}`` completed since the previous poll."""
        out = dict(ticket.ready)
        ticket.ready = {}
        fresh: dict = {}  # todo position -> value
        if ticket.backend is not None:
            fresh = ticket.backend.poll_batch(ticket.backend_ticket)
        elif ticket.todo_keys and not ticket.lazy_done:
            ticket.lazy_done = True
            live = [pos for pos in range(len(ticket.todo_keys))
                    if pos not in ticket.cancelled_pos]
            if live:
                todo = [ticket.todo_pairs[pos] for pos in live]
                if self._batch is not None:
                    values = list(self._batch(todo))
                else:
                    values = [self._evaluate(a, i) for a, i in todo]
                fresh = dict(zip(live, values))

        rows = []
        for pos in sorted(fresh):
            if pos in ticket.delivered_pos:
                continue
            ticket.delivered_pos.add(pos)
            key = ticket.todo_keys[pos]
            value = fresh[pos]
            if key not in self._memo:
                self._memo[key] = value
                self.unique_trials += 1
                rows.append((self._store_key(key), value))
            value = self._memo[key]
            for idx in ticket.pending[key]:
                out[idx] = value
        if self._store is not None and rows:
            self._store.put_cost_many(rows)
        return out

    def cancel_batch(self, ticket: "_TrialTicket", indices) -> None:
        """Withdraw pairs; a unique trial is cancelled only when *every*
        index requesting it is withdrawn."""
        ticket.cancelled.update(indices)
        downstream = []
        for pos, key in enumerate(ticket.todo_keys):
            if pos in ticket.delivered_pos or pos in ticket.cancelled_pos:
                continue
            if all(idx in ticket.cancelled for idx in ticket.pending[key]):
                ticket.cancelled_pos.add(pos)
                downstream.append(pos)
        if downstream and ticket.backend is not None:
            ticket.backend.cancel_batch(ticket.backend_ticket, downstream)


class _TrialTicket:
    """In-flight state of one :meth:`TrialCache.submit_batch`."""

    def __init__(self, pairs):
        self.pairs = pairs
        self.ready: dict = {}          # index -> cost (memo/store hits)
        self.pending: dict = {}        # key -> [indices]
        self.todo_keys: list = []      # unique keys, submission order
        self.todo_pairs: list = []     # one representative pair per key
        self.backend = None
        self.backend_ticket = None
        self.lazy_done = False         # fallback computed yet?
        self.delivered_pos: set = set()
        self.cancelled: set = set()    # withdrawn pair indices
        self.cancelled_pos: set = set()


class AssignmentEvaluator:
    """Engine-backed ``evaluate(assignment, instance)`` for the tuner.

    Parameters
    ----------
    engine:
        The shared :class:`~repro.engine.engine.EvaluationEngine`.
    base_config:
        Configuration the raced assignments are applied to.
    cost:
        Optional ``cost(SimStats, PerfResult) -> float`` (defaults to the
        engine's CPI error).
    saturation:
        Optional per-trial cost cap (the campaign's outlier guard).
    """

    def __init__(self, engine, base_config, cost=None, saturation: float = None) -> None:
        self.engine = engine
        self.base_config = base_config
        self.cost = cost
        self.saturation = saturation

    def __call__(self, assignment: dict, instance) -> float:
        return self.evaluate_batch([(assignment, instance)])[0]

    def evaluate_batch(self, pairs) -> list:
        """Costs for ``[(assignment, instance), ...]`` as one engine batch.

        Each assignment is applied to ``base_config`` and the pairs go
        to :meth:`~repro.engine.engine.EvaluationEngine.evaluate_batch`
        together; costs are capped at ``saturation`` when one is set.
        """
        pairs = list(pairs)
        configs = [
            (self.base_config.with_updates(assignment), instance)
            for assignment, instance in pairs
        ]
        costs = self.engine.evaluate_batch(configs, cost=self.cost)
        if self.saturation is None:
            return costs
        return [min(c, self.saturation) for c in costs]

    # ------------------------------------------------------------------
    # Non-blocking batch protocol (the async race path)
    # ------------------------------------------------------------------
    def submit_batch(self, pairs):
        """Start a block of trials through the engine without waiting."""
        pairs = list(pairs)
        configs = [
            (self.base_config.with_updates(assignment), instance)
            for assignment, instance in pairs
        ]
        return _EvalTicket(
            engine_ticket=self.engine.submit_batch(configs),
            names=[instance for _assignment, instance in pairs],
        )

    def poll_batch(self, ticket) -> dict:
        """``{pair index: cost}`` for trials the engine finished."""
        out = {}
        for idx, stats in self.engine.poll_batch(ticket.engine_ticket).items():
            cost = self.engine.cost_of(stats, ticket.names[idx], cost=self.cost)
            out[idx] = cost if self.saturation is None else min(cost, self.saturation)
        return out

    def cancel_batch(self, ticket, indices) -> None:
        """Withdraw trials by index (best-effort, via the engine)."""
        self.engine.cancel_batch(ticket.engine_ticket, indices)


class _EvalTicket:
    """In-flight state of one :meth:`AssignmentEvaluator.submit_batch`."""

    def __init__(self, engine_ticket, names):
        self.engine_ticket = engine_ticket
        self.names = names

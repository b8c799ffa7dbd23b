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

Both speak the batch protocol the races drive: ``submit_batch`` opens a
ticket, ``poll_batch`` delivers ``{index: cost}`` as trials finish and
``cancel_batch`` withdraws pairs, while ``evaluate_batch`` is the
blocking form. In :class:`TrialCache` a blocking batch is a ticket that
is never handed to a backend, polled once: that poll is the one place
the wrapped evaluator is called and the memo and store are written.
:func:`find_batch_backend` is how a caller holding only evaluation
callables finds the non-blocking half.

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
        #: The wrapped evaluator's non-blocking half, or ``None``.
        self._backend = find_batch_backend(evaluate, batch_evaluate)
        if batch_evaluate is None:
            def batch_evaluate(pairs):
                return [evaluate(assignment, instance) for assignment, instance in pairs]
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

    def _open(self, pairs) -> "_TrialTicket":
        """A ticket for ``pairs`` that no backend has seen yet.

        Counts the requested trials, answers what the memo or the store
        already holds (every key the memo misses is read with one
        ``get_costs`` — one store round trip per batch) and runs
        duplicate keys once: ``todo_pairs`` holds one pair per unique
        key still to compute.
        """
        ticket = _TrialTicket(list(pairs))
        keys = [self.key(assignment, instance) for assignment, instance in ticket.pairs]
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
        self.requested_trials += len(keys)
        for idx, key in enumerate(keys):
            if key in self._memo:
                ticket.ready[idx] = self._memo[key]
            else:
                ticket.pending.setdefault(key, []).append(idx)
        ticket.todo_keys = list(ticket.pending)
        ticket.todo_pairs = [ticket.pairs[ticket.pending[key][0]]
                             for key in ticket.todo_keys]
        return ticket

    def evaluate_batch(self, pairs) -> list:
        """Costs for ``[(assignment, instance), ...]``, aligned with ``pairs``.

        A ticket no backend sees, polled once: memo and store hits are
        answered directly and the unique remainder runs as one block
        through the wrapped batch evaluator (or one ``evaluate`` call
        per trial without one).
        """
        ticket = self._open(pairs)
        got = self.poll_batch(ticket)
        return [got[idx] for idx in range(len(ticket.pairs))]

    # ------------------------------------------------------------------
    # Non-blocking batch protocol (the async race path)
    # ------------------------------------------------------------------
    def submit_batch(self, pairs) -> "_TrialTicket":
        """Start ``[(assignment, instance), ...]`` without waiting.

        Memo and store hits resolve immediately (delivered by the first
        poll); the unique remainder goes to the wrapped evaluator's own
        ``submit_batch`` when it has one, else it is computed in one
        block at the first poll, as :meth:`evaluate_batch` computes it.
        """
        ticket = self._open(pairs)
        if ticket.todo_pairs and self._backend is not None:
            ticket.backend_ticket = self._backend.submit_batch(ticket.todo_pairs)
        return ticket

    def poll_batch(self, ticket: "_TrialTicket") -> dict:
        """``{pair index: cost}`` completed since the previous poll.

        A ticket handed to a backend is polled there; on any other, the
        trials not yet delivered or cancelled run now through the
        wrapped evaluator. New costs are memoised and, with a store,
        persisted.
        """
        out = dict(ticket.ready)
        ticket.ready = {}
        fresh: dict = {}  # todo position -> value
        if ticket.backend_ticket is not None:
            fresh = self._backend.poll_batch(ticket.backend_ticket)
        else:
            live = [pos for pos in range(len(ticket.todo_keys))
                    if pos not in ticket.delivered_pos
                    and pos not in ticket.cancelled_pos]
            if live:
                values = self._batch([ticket.todo_pairs[pos] for pos in live])
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
        if downstream and ticket.backend_ticket is not None:
            self._backend.cancel_batch(ticket.backend_ticket, downstream)


class _TrialTicket:
    """In-flight state of one :class:`TrialCache` batch."""

    def __init__(self, pairs):
        self.pairs = pairs
        self.ready: dict = {}          # index -> cost (memo/store hits)
        self.pending: dict = {}        # key -> [indices]
        self.todo_keys: list = []      # unique keys, submission order
        self.todo_pairs: list = []     # one representative pair per key
        self.backend_ticket = None     # set once handed to the backend
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

    def _configs(self, pairs) -> list:
        """``(SimConfig, workload)`` pairs: each assignment applied to ``base_config``."""
        return [(self.base_config.with_updates(assignment), instance)
                for assignment, instance in pairs]

    def _capped(self, cost: float) -> float:
        return cost if self.saturation is None else min(cost, self.saturation)

    def evaluate_batch(self, pairs) -> list:
        """Costs for ``[(assignment, instance), ...]`` as one engine batch.

        The pairs go to
        :meth:`~repro.engine.engine.EvaluationEngine.evaluate_batch`
        together; costs are capped at ``saturation`` when one is set.
        """
        costs = self.engine.evaluate_batch(self._configs(pairs), cost=self.cost)
        return [self._capped(cost) for cost in costs]

    # ------------------------------------------------------------------
    # Non-blocking batch protocol (the async race path)
    # ------------------------------------------------------------------
    def submit_batch(self, pairs) -> tuple:
        """Start a block of trials through the engine without waiting.

        The ticket is ``(engine ticket, workload names)``.
        """
        pairs = list(pairs)
        return (self.engine.submit_batch(self._configs(pairs)),
                [instance for _assignment, instance in pairs])

    def poll_batch(self, ticket: tuple) -> dict:
        """``{pair index: cost}`` for trials the engine finished."""
        engine_ticket, names = ticket
        return {idx: self._capped(self.engine.cost_of(stats, names[idx], cost=self.cost))
                for idx, stats in self.engine.poll_batch(engine_ticket).items()}

    def cancel_batch(self, ticket: tuple, indices) -> None:
        """Withdraw trials by index (best-effort, via the engine)."""
        self.engine.cancel_batch(ticket[0], indices)

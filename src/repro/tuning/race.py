"""Statistical racing of candidate configurations (Figure 2, step 2).

All candidates are evaluated on a first block of instances; from then on
each additional instance is followed by a statistical test that
eliminates candidates shown to be worse than the current best — "fast
elimination of configurations that can be statistically proven to be
inferior" (§III-C). Two tests are provided:

- ``"friedman"`` — the Friedman rank test with Conover's post-hoc
  pairwise comparison against the best-ranked candidate (irace's F-race
  default);
- ``"ttest"`` — paired one-sided t-test of each candidate against the
  best (irace's t-race variant).

Execution modes
---------------

The race can run in two modes with *identical decisions*:

- ``mode="sync"`` — the classic barrier loop: each instance step
  evaluates every alive candidate, then the elimination test runs.
- ``mode="async"`` — :class:`AsyncRaceScheduler` speculatively submits
  up to ``lookahead`` instance steps ahead for every alive candidate and
  commits steps as results stream in.  Elimination statistics are a pure
  function of the committed cost matrix — *which* results are in, never
  *when* they arrived — so for any pure per-``(config, instance)``
  evaluator the elimination sequence, survivor set and mean costs are
  bit-identical to the synchronous race regardless of executor, worker
  count or completion order.  Results computed for candidates that are
  eliminated before their step commits are simply ignored (and reported
  as ``wasted_evaluations``); in-flight work for eliminated candidates
  is cancelled best-effort through the source.  That source is a
  :class:`BatchSource` over the evaluators' batch protocol; plain
  callables are wrapped in a :class:`~repro.engine.evaluator.TrialCache`.

Both modes drive the same :class:`_RaceState` commit/eliminate state
machine, which is what makes the equivalence hold by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.engine.evaluator import TrialCache, find_batch_backend
from repro.pacing import Pacer
from repro.tuning import stats


@dataclass
class RaceResult:
    """Outcome of one race."""

    #: Indices into the input config list, best mean cost first.
    survivors: list
    #: Mean cost per surviving config index (over instances it saw).
    mean_costs: dict
    #: (config, instance) evaluations consumed (committed steps only).
    evaluations: int
    #: config index -> instance count seen before elimination.
    eliminated_after: dict = field(default_factory=dict)
    #: Number of instances the survivors were evaluated on.
    instances_used: int = 0
    #: Speculative results that completed but were never committed
    #: (telemetry only; never part of the decision sequence).
    wasted_evaluations: int = 0

    def decision_record(self) -> dict:
        """The decision sequence as comparable data.

        Two races made the same decisions iff their records are equal:
        execution telemetry (``wasted_evaluations``) is deliberately
        excluded, everything the race *decided* is included.
        """
        return {
            "survivors": list(self.survivors),
            "mean_costs": {int(i): float(c)
                           for i, c in sorted(self.mean_costs.items())},
            "evaluations": int(self.evaluations),
            "eliminated_after": {int(i): int(j)
                                 for i, j in sorted(self.eliminated_after.items())},
            "instances_used": int(self.instances_used),
        }


def _friedman_eliminate(costs: list, alive: list, alpha: float) -> list:
    """Conover post-hoc elimination; returns the indices to eliminate.

    ``costs`` holds one row of per-instance costs per alive candidate.
    Candidates whose rank sum exceeds the best's by more than the
    critical difference go.
    """
    if len(costs) < 2 or len(costs[0]) < 2:
        return []
    k, b = len(costs), len(costs[0])
    # Rank within each instance column (1 = best/lowest cost). Ranks are
    # half-integers, so every sum below is exact in any order.
    columns = [stats.average_ranks(col) for col in zip(*costs)]
    rank_sums = [sum(row) for row in zip(*columns)]
    a2 = sum(r * r for col in columns for r in col)
    b2 = sum(s * s for s in rank_sums) / b
    mean_term = b * k * (k + 1) ** 2 / 4.0
    numer = b2 - mean_term
    spread = a2 - b2
    df = (b - 1) * (k - 1)
    best = stats.argmin(rank_sums)

    if spread <= 1e-9:
        if numer <= 1e-9:
            return []  # every candidate performs identically
        # Perfectly consistent rankings across all blocks: maximal
        # significance, the post-hoc critical difference degenerates to
        # zero — everything ranked behind the best is dominated.
        return [alive[i] for i in range(k) if i != best and rank_sums[i] > rank_sums[best]]

    # Conover's F-statistic for the Friedman test.
    t_stat = (k - 1) * numer / spread
    p_value = stats.f_sf(t_stat, k - 1, df)
    if p_value > alpha:
        return []
    critical = stats.t_ppf(1 - alpha / 2.0, df) * math.sqrt(2.0 * b * spread / df)
    out = []
    for i in range(k):
        if i != best and rank_sums[i] - rank_sums[best] > critical:
            out.append(alive[i])
    return out


def _ttest_eliminate(costs: list, alive: list, alpha: float) -> list:
    """Paired t-test of each candidate against the best-mean candidate."""
    if len(costs) < 2 or len(costs[0]) < 2:
        return []
    k, b = len(costs), len(costs[0])
    best = stats.argmin([stats.mean(row) for row in costs])
    ref = costs[best]
    out = []
    for i in range(k):
        if i == best:
            continue
        diff = [x - y for x, y in zip(costs[i], ref)]
        if all(abs(d) <= 1e-8 for d in diff):
            continue
        # One-sided: candidate i is worse.
        t_stat = _paired_t(diff)
        if t_stat > 0 and stats.t_sf(t_stat, b - 1) < alpha:
            out.append(alive[i])
    return out


def _paired_t(diff: list) -> float:
    """The paired t statistic of ``diff`` (mean over its standard error)."""
    n = len(diff)
    m = stats.mean(diff)
    var = stats.mean([(d - m) ** 2 for d in diff]) * (n / (n - 1))
    if var == 0.0:
        return math.copysign(math.inf, m) if m else math.nan
    return m / math.sqrt(var / n)


class _RaceState:
    """The shared commit/eliminate state machine.

    Both execution modes feed completed instance steps through
    :meth:`commit_step`; all statistics, elimination and bookkeeping
    live here, so sync and async races are identical by construction.
    """

    def __init__(self, n_configs: int, n_instances: int, eliminate_fn,
                 alpha: float, budget, first_test: int, min_survivors: int,
                 early_exit: bool = True):
        self.n_instances = n_instances
        self.eliminate_fn = eliminate_fn
        self.alpha = alpha
        self.budget = budget
        self.first_test = first_test
        self.min_survivors = min_survivors
        self.early_exit = early_exit
        self.alive = list(range(n_configs))
        self.cost_rows = {i: [] for i in self.alive}
        self.evaluations = 0
        self.eliminated_after: dict = {}
        self.instances_used = 0
        self.step = 0  # next instance index to commit

    def finished(self) -> bool:
        """True when no further instance step may be committed."""
        if self.step >= self.n_instances:
            return True
        if self.budget is not None and self.evaluations + len(self.alive) > self.budget:
            return True
        # A lone survivor has already won: evaluating the remaining
        # instance block cannot change any decision.
        if self.early_exit and len(self.alive) == 1 and self.step > 0:
            return True
        return False

    def commit_step(self, costs: dict) -> None:
        """Commit instance step ``self.step``: one cost per alive index."""
        for i in self.alive:
            self.cost_rows[i].append(costs[i])
        self.evaluations += len(self.alive)
        self.step += 1
        self.instances_used = self.step

        if self.step >= self.first_test and len(self.alive) > self.min_survivors:
            rows = [self.cost_rows[i] for i in self.alive]
            to_drop = self.eliminate_fn(rows, self.alive, self.alpha)
            if to_drop:
                drop_set = set(to_drop)
                # Never drop below min_survivors: keep the best-mean ones.
                if len(self.alive) - len(drop_set) < self.min_survivors:
                    means = {i: stats.mean(self.cost_rows[i]) for i in self.alive}
                    keep = sorted(self.alive, key=means.__getitem__)[:self.min_survivors]
                    drop_set -= set(keep)
                for i in drop_set:
                    self.eliminated_after[i] = self.step
                self.alive = [i for i in self.alive if i not in drop_set]

    def result(self, wasted: int = 0) -> RaceResult:
        means = {i: stats.mean(self.cost_rows[i]) for i in self.alive}
        survivors = sorted(self.alive, key=means.__getitem__)
        return RaceResult(
            survivors=survivors,
            mean_costs=means,
            evaluations=self.evaluations,
            eliminated_after=self.eliminated_after,
            instances_used=self.instances_used,
            wasted_evaluations=wasted,
        )


class BatchSource:
    """Race source over a ``submit_batch``/``poll_batch`` backend.

    The backend is typically a :class:`repro.engine.TrialCache` or
    :class:`repro.engine.AssignmentEvaluator`: ``submit_batch(pairs)``
    returns a ticket, ``poll_batch(ticket)`` yields ``{index: cost}``
    for pairs completed since the previous poll, and
    ``cancel_batch(ticket, indices)`` withdraws work best-effort.
    """

    def __init__(self, backend):
        for name in ("submit_batch", "poll_batch", "cancel_batch"):
            if not hasattr(backend, name):
                raise TypeError(f"backend lacks {name}(): {backend!r}")
        self.backend = backend
        self._entries = []  # [ticket, tokens, remaining-index set]

    def submit(self, requests) -> None:
        """Forward ``(token, config, instance)`` items as one batch."""
        requests = list(requests)
        if not requests:
            return
        tokens = [tok for tok, _, _ in requests]
        ticket = self.backend.submit_batch(
            [(config, inst) for _, config, inst in requests])
        self._entries.append([ticket, tokens, set(range(len(tokens)))])

    def poll(self) -> list:
        """``[(token, cost)]`` newly completed across all live tickets."""
        out = []
        finished = []
        for entry in self._entries:
            ticket, tokens, remaining = entry
            got = self.backend.poll_batch(ticket)
            for idx in sorted(got):
                if idx in remaining:
                    remaining.discard(idx)
                    out.append((tokens[idx], got[idx]))
            if not remaining:
                finished.append(entry)
        for entry in finished:
            self._entries.remove(entry)
        return out

    def cancel(self, tokens) -> None:
        """Withdraw tokens best-effort (per-ticket ``cancel_batch``)."""
        drop = set(tokens)
        finished = []
        for entry in self._entries:
            ticket, toks, remaining = entry
            indices = [k for k, t in enumerate(toks)
                       if t in drop and k in remaining]
            if indices:
                self.backend.cancel_batch(ticket, indices)
                remaining.difference_update(indices)
            if not remaining:
                finished.append(entry)
        for entry in finished:
            self._entries.remove(entry)


class AsyncRaceScheduler:
    """Speculative race execution: keep the fleet saturated.

    Instead of a barrier per instance step, the scheduler keeps up to
    ``lookahead`` steps beyond the commit frontier submitted for every
    alive candidate.  Steps commit strictly in instance order, each as
    soon as all frontier results are in; the shared :class:`_RaceState`
    then decides eliminations exactly as the synchronous loop would.
    Work in flight for eliminated candidates is cancelled (best-effort)
    and any of their results that still arrive are ignored.
    """

    def __init__(self, configs, instances, source, state: _RaceState,
                 lookahead: int = 2, poll_interval: float = 0.01,
                 timeout: float = None):
        if lookahead < 0:
            raise ValueError(f"lookahead must be >= 0, got {lookahead}")
        self.configs = configs
        self.instances = instances
        self.source = source
        self.state = state
        self.lookahead = lookahead
        self.poll_interval = poll_interval
        self.timeout = timeout

    def run(self) -> RaceResult:
        """Drive the race to completion; returns the shared-state result."""
        state = self.state
        requested: set = set()   # tokens ever submitted
        cancelled: set = set()   # tokens withdrawn
        results: dict = {}       # token -> cost
        used: set = set()        # tokens whose cost was committed
        start = time.monotonic()

        while not state.finished():
            self._speculate(requested)
            self._await_frontier(results, start)
            committed = list(state.alive)
            step = state.step
            state.commit_step({i: results[(i, step)] for i in committed})
            used.update((i, step) for i in committed)
            self._cancel_stale(requested, cancelled, results)

        # Withdraw whatever speculation is still in flight.
        leftover = sorted(t for t in requested
                          if t not in results and t not in cancelled)
        if leftover:
            self.source.cancel(leftover)
            cancelled.update(leftover)

        wasted = sum(1 for t in results if t not in used)
        return state.result(wasted=wasted)

    def _speculate(self, requested: set) -> None:
        """Submit the frontier plus up to ``lookahead`` steps beyond it."""
        state = self.state
        horizon = min(state.step + self.lookahead, state.n_instances - 1)
        batch = []
        for step in range(state.step, horizon + 1):
            for i in state.alive:
                token = (i, step)
                if token not in requested:
                    requested.add(token)
                    batch.append((token, self.configs[i], self.instances[step]))
        if batch:
            self.source.submit(batch)

    def _await_frontier(self, results: dict, start: float) -> None:
        """Poll until every alive candidate's frontier result is in.

        Empty polls are paced by :class:`~repro.pacing.Pacer` from
        ``poll_interval`` up to a 1 s cap (any result resets the pace),
        so a scheduler stalled on slow workers stops hammering the
        executor's queue/server, while a result is noticed at most half
        the time already waited late.
        """
        state = self.state
        frontier = [(i, state.step) for i in state.alive]
        pacer = Pacer(self.poll_interval, 1.0)
        while not all(t in results for t in frontier):
            got = self.source.poll()
            if got:
                for token, cost in got:
                    results[token] = cost
                pacer.reset()
                continue
            if (self.timeout is not None
                    and time.monotonic() - start > self.timeout):
                missing = [t for t in frontier if t not in results]
                raise TimeoutError(
                    f"race step {state.step} timed out after {self.timeout}s "
                    f"({len(missing)} frontier result(s) outstanding)")
            time.sleep(pacer.nap())

    def _cancel_stale(self, requested: set, cancelled: set,
                      results: dict) -> None:
        """Withdraw in-flight work owned by eliminated candidates."""
        alive = set(self.state.alive)
        stale = sorted(t for t in requested
                       if t[0] not in alive
                       and t not in results and t not in cancelled)
        if stale:
            self.source.cancel(stale)
            cancelled.update(stale)


def race(
    configs: list,
    instances: list,
    evaluate=None,
    budget: int = None,
    first_test: int = 5,
    alpha: float = 0.05,
    min_survivors: int = 2,
    test: str = "friedman",
    batch_evaluate=None,
    mode: str = "sync",
    lookahead: int = 2,
    source=None,
    early_exit: bool = True,
    poll_interval: float = 0.01,
    timeout: float = None,
) -> RaceResult:
    """Race ``configs`` (list of assignments) across ``instances``.

    ``evaluate(config, instance) -> cost``; lower is better. The race
    stops when instances or ``budget`` are exhausted, or (with
    ``early_exit``, the default) as soon as a single candidate remains
    with at least one committed step.

    When ``batch_evaluate`` is given (``batch_evaluate(pairs) -> costs``
    over ``(config, instance)`` pairs), each instance step submits all
    alive candidates as one block — the embarrassingly parallel unit of
    F-race — instead of looping; statistics, elimination order and
    results are unchanged, only execution differs. That block is also
    the fabric's dispatch unit: under an engine-backed evaluator each
    race round becomes one batch of content-keyed tasks, fanned out to
    however many ``repro worker`` processes share the store
    (``--executor fabric``), with process pools (``jobs > 1``) and the
    serial loop as the in-process alternatives.

    ``mode="async"`` replaces the per-step barrier with speculative
    scheduling (see :class:`AsyncRaceScheduler`): ``lookahead`` extra
    instance steps are kept in flight per alive candidate, and a
    ``source`` streams completions back.  If no ``source`` is given it
    is a :class:`BatchSource` over the evaluator's own non-blocking
    ``submit_batch`` protocol (``TrialCache``, ``AssignmentEvaluator``),
    or, for plain callables, over a fresh
    :class:`~repro.engine.evaluator.TrialCache` around them, which
    computes each submitted block at its first poll.  For pure
    evaluators the decision sequence is bit-identical to
    ``mode="sync"``.
    """
    if not configs:
        raise ValueError("need at least one configuration to race")
    if not instances:
        raise ValueError("need at least one instance to race on")
    if evaluate is None and batch_evaluate is None and source is None:
        raise ValueError("need evaluate, batch_evaluate or a source")
    if test not in ("friedman", "ttest"):
        raise ValueError(f"unknown test {test!r}; use 'friedman' or 'ttest'")
    if mode not in ("sync", "async"):
        raise ValueError(f"unknown race mode {mode!r}; use 'sync' or 'async'")
    eliminate_fn = _friedman_eliminate if test == "friedman" else _ttest_eliminate

    state = _RaceState(
        n_configs=len(configs),
        n_instances=len(instances),
        eliminate_fn=eliminate_fn,
        alpha=alpha,
        budget=budget,
        first_test=first_test,
        min_survivors=min_survivors,
        early_exit=early_exit,
    )

    if mode == "async":
        if source is None:
            backend = find_batch_backend(evaluate, batch_evaluate)
            if backend is None:
                backend = TrialCache(evaluate, batch_evaluate)
            source = BatchSource(backend)
        scheduler = AsyncRaceScheduler(
            configs, instances, source, state,
            lookahead=lookahead, poll_interval=poll_interval, timeout=timeout)
        return scheduler.run()

    for instance in instances:
        if state.finished():
            break
        if batch_evaluate is not None:
            block = batch_evaluate([(configs[i], instance) for i in state.alive])
            costs = dict(zip(state.alive, block))
        else:
            costs = {i: evaluate(configs[i], instance) for i in state.alive}
        state.commit_step(costs)
    return state.result()

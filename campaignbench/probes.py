"""Always-on measurement probes for the end-to-end metrics.

Race-step latency and the count of trials a campaign consumed are
measured at the ``EvaluationEngine`` batch API and around
``repro.tuning.race.race``, with or without tracing:

- a synchronous race step is one ``evaluate_batch`` call made inside a
  race; its latency is the call's duration;
- an asynchronous race step is every pair of one race on one instance:
  its latency runs from the first ``submit_batch`` that carries one of
  its pairs to the ``poll_batch`` that returns its last result;
- committed evaluations, instance steps and discarded speculation come
  from each race's ``RaceResult``; suite evaluations are counted at
  ``ValidationCampaign.evaluate``.

The probes cost a few microseconds per race step, not per trial.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

_now = time.perf_counter_ns


class CampaignProbe:
    """Counts and race-step latencies for one benchmark round."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._race_ids = 0
        self.reset()

    def reset(self) -> None:
        """Start a new round: forget all samples and counts."""
        self.step_ms: list = []
        self.races = 0
        self.committed = 0
        self.wasted = 0
        self.steps = 0
        self.suite_evals = 0
        self._async_steps: dict = {}  # (race id, instance) -> [first submit, last return]

    @property
    def trials(self) -> int:
        """Trials the caller consumed: committed race evaluations plus
        suite evaluations (discarded speculation excluded)."""
        return self.committed + self.suite_evals

    # ------------------------------------------------------------------
    def install(self, patches) -> None:
        """Wrap the race entry point, the engine batch API and the
        campaign's suite evaluation (see the module docstring)."""
        from repro.engine.engine import EvaluationEngine
        from repro.validation.campaign import ValidationCampaign

        # The package re-exports ``race`` the function under the module's name.
        race_module = importlib.import_module("repro.tuning.race")

        patches.wrap(race_module, "race", self._wrap_race)
        patches.wrap(EvaluationEngine, "evaluate_batch", self._wrap_evaluate_batch)
        patches.wrap(EvaluationEngine, "submit_batch", self._wrap_submit_batch)
        patches.wrap(EvaluationEngine, "poll_batch", self._wrap_poll_batch)
        patches.wrap(ValidationCampaign, "evaluate", self._wrap_suite)

    def _race_id(self):
        return getattr(self._local, "race", None)

    def _wrap_race(self, fn):
        @functools.wraps(fn)
        def race(*args, **kwargs):
            outer = self._race_id()
            self._race_ids += 1
            race_id = self._race_ids
            self._local.race = race_id
            try:
                result = fn(*args, **kwargs)
            finally:
                self._local.race = outer
                self._close_async_steps(race_id)
            self.races += 1
            self.committed += result.evaluations
            self.wasted += result.wasted_evaluations
            self.steps += result.instances_used
            return result

        return race

    def _close_async_steps(self, race_id: int) -> None:
        for key in [k for k in self._async_steps if k[0] == race_id]:
            first, last = self._async_steps.pop(key)
            if last is not None:
                self.step_ms.append((last - first) / 1e6)

    def _wrap_evaluate_batch(self, fn):
        @functools.wraps(fn)
        def evaluate_batch(engine, pairs, *args, **kwargs):
            if self._race_id() is None or getattr(self._local, "in_batch", False):
                return fn(engine, pairs, *args, **kwargs)
            self._local.in_batch = True
            start = _now()
            try:
                return fn(engine, pairs, *args, **kwargs)
            finally:
                self._local.in_batch = False
                self.step_ms.append((_now() - start) / 1e6)

        return evaluate_batch

    def _wrap_submit_batch(self, fn):
        @functools.wraps(fn)
        def submit_batch(engine, pairs, *args, **kwargs):
            race_id = self._race_id()
            start = _now()
            ticket = fn(engine, pairs, *args, **kwargs)
            if race_id is not None:
                for _config, name in ticket.pairs:
                    self._async_steps.setdefault((race_id, name), [start, None])
                ticket.bench_race = race_id
            return ticket

        return submit_batch

    def _wrap_poll_batch(self, fn):
        @functools.wraps(fn)
        def poll_batch(engine, ticket, *args, **kwargs):
            got = fn(engine, ticket, *args, **kwargs)
            race_id = getattr(ticket, "bench_race", None)
            if got and race_id is not None:
                end = _now()
                for idx in got:
                    step = self._async_steps.get((race_id, ticket.pairs[idx][1]))
                    if step is not None:
                        step[1] = end
            return got

        return poll_batch

    def _wrap_suite(self, fn):
        @functools.wraps(fn)
        def evaluate(campaign, config, *args, **kwargs):
            result = fn(campaign, config, *args, **kwargs)
            self.suite_evals += len(result)
            return result

        return evaluate

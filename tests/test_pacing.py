"""The shared poll-pacing rule, on a virtual clock.

``nap = clamp(waited / 2, floor, cap)``: every idle poll loop on the
fleet path (race frontier, the engine's executor drain, queue long-poll)
uses it. Nothing here reads a wall clock: sleeps are
recorded and added to a fake clock, so each bound below is exact.
"""

import importlib
import time
import types

import pytest

from repro.pacing import Pacer

#: The module itself (``repro.tuning`` re-exports a ``race`` function).
RACE = importlib.import_module("repro.tuning.race")

FLOOR, CAP = 0.01, 1.0

#: Delivery times from 1 ms to 30 s (roughly log-spaced, plus a few
#: that land just after a poll, the worst case for overshoot).
DELIVERIES = sorted({round(0.001 * 1.37 ** k, 6) for k in range(34)}
                    | {0.0101, 0.0201, 0.5001, 2.0001, 29.9999, 30.0})


def detect(deliver_at: float, pacer: Pacer) -> tuple:
    """Virtual clock: poll, nap, poll ... until ``deliver_at`` has passed.

    Returns ``(detected_at, polls)``.
    """
    clock, polls = 0.0, 0
    while True:
        polls += 1
        if clock >= deliver_at:
            return clock, polls
        clock += pacer.nap()


class TestPacer:
    @pytest.mark.parametrize("deliver_at", DELIVERIES)
    def test_detection_lag_is_at_most_half_the_wait(self, deliver_at):
        detected, _polls = detect(deliver_at, Pacer(FLOOR, CAP))
        lag = detected - deliver_at
        assert 0.0 <= lag <= max(FLOOR, 0.5 * deliver_at) + 1e-12

    def test_thirty_idle_seconds_cost_few_polls_and_reach_the_cap(self):
        pacer = Pacer(FLOOR, CAP)
        naps = []
        while sum(naps) < 30.0:
            naps.append(pacer.nap())
        assert len(naps) <= 50
        assert max(naps) == CAP
        assert naps == sorted(naps)  # never speeds up while idle

    def test_first_nap_is_the_floor_and_reset_restarts_there(self):
        pacer = Pacer(FLOOR, CAP)
        assert pacer.nap() == FLOOR
        for _ in range(20):
            pacer.nap()
        assert pacer.nap() == CAP
        pacer.reset()
        assert pacer.waited == 0.0
        assert pacer.nap() == FLOOR

    def test_cap_below_floor_naps_at_the_floor(self):
        pacer = Pacer(0.05, 0.01)
        assert [pacer.nap() for _ in range(5)] == [0.05] * 5


class FakeSleep:
    """Records naps and advances a virtual clock instead of sleeping."""

    def __init__(self):
        self.clock = 0.0
        self.naps = []

    def __call__(self, seconds):
        self.naps.append(seconds)
        self.clock += seconds


def patch_race_sleep(monkeypatch, sleep):
    monkeypatch.setattr(RACE, "time", types.SimpleNamespace(
        sleep=sleep, monotonic=time.monotonic))


class TestLoopsUseTheRule:
    """The loops that sleep via ``time.sleep`` follow the rule exactly."""

    @pytest.mark.parametrize("deliver_at", [0.003, 0.2, 4.0, 29.0, 30.0])
    def test_fabric_executor_drain(self, monkeypatch, deliver_at):
        from repro.engine.executors import FabricExecutor, drain

        sleep = FakeSleep()
        monkeypatch.setattr("repro.engine.executors.time.sleep", sleep)
        ex = FabricExecutor.__new__(FabricExecutor)
        ex.poll_interval, ex.poll_cap = FLOOR, CAP
        results: dict = {}
        polls = []

        def poll():
            polls.append(sleep.clock)
            return {(0, 0): "stats"} if sleep.clock >= deliver_at else {}

        for got in drain(ex, poll, lambda: bool(results)):
            results.update(got)
        assert results == {(0, 0): "stats"}
        expected, expected_polls = detect(deliver_at, Pacer(FLOOR, CAP))
        assert sleep.clock == pytest.approx(expected)
        assert len(polls) == expected_polls
        assert sleep.clock - deliver_at <= max(FLOOR, 0.5 * deliver_at)

    @pytest.mark.parametrize("deliver_at", [0.003, 0.2, 4.0, 29.0])
    def test_race_frontier_wait(self, monkeypatch, deliver_at):
        sleep = FakeSleep()
        patch_race_sleep(monkeypatch, sleep)
        delivered = []

        class Source:
            def poll(self):
                if sleep.clock >= deliver_at and not delivered:
                    delivered.append(True)
                    return [((0, 0), 1.0), ((1, 0), 2.0)]
                return []

        state = types.SimpleNamespace(step=0, alive=[0, 1])
        scheduler = RACE.AsyncRaceScheduler(
            ["a", "b"], ["i0"], Source(), state, poll_interval=FLOOR)
        results: dict = {}
        scheduler._await_frontier(results, start=0.0)
        assert results == {(0, 0): 1.0, (1, 0): 2.0}
        expected, _polls = detect(deliver_at, Pacer(FLOOR, CAP))
        assert sleep.clock == pytest.approx(expected)
        assert max(sleep.naps, default=FLOOR) <= CAP

    def test_race_pace_resets_after_a_partial_delivery(self, monkeypatch):
        sleep = FakeSleep()
        patch_race_sleep(monkeypatch, sleep)
        script = iter([[], [], [], [], [((0, 0), 1.0)], [], [((1, 0), 2.0)]])

        class Source:
            def poll(self):
                return next(script)

        state = types.SimpleNamespace(step=0, alive=[0, 1])
        scheduler = RACE.AsyncRaceScheduler(
            ["a", "b"], ["i0"], Source(), state, poll_interval=FLOOR)
        scheduler._await_frontier({}, start=0.0)
        assert sleep.naps[:4] == [FLOOR, FLOOR, FLOOR, 0.015]
        assert sleep.naps[-1] == FLOOR  # the first delivery reset the pace

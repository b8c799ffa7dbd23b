"""The executor protocol's blocking contract.

``poll`` never sleeps, and an in-process executor delivers at least one
slot per poll while work is outstanding. So the engine's one blocking
loop, ``executors.drain``, naps only for the fabric, whose workers run
elsewhere.
"""

import importlib
import time
import types

from repro.core.config import cortex_a53_public_config
from repro.engine import EvaluationEngine, ProcessExecutor, TrialCache
from repro.engine.evaluator import AssignmentEvaluator
from repro.isa.decoder import Decoder
from repro.simulator.simulator import simulate_batch
from repro.tuning.race import race
from repro.workloads.microbench import get_microbenchmark

EXECUTORS = importlib.import_module("repro.engine.executors")

NAMES = ["CCa", "ED1"]
WORKLOADS = [get_microbenchmark(n) for n in NAMES]
SCALE = 0.1
CANDIDATES = [{"branch.mispredict_penalty": p, "l1d.size": s}
              for p in (4, 20) for s in (1024, 32768)]


def _groups():
    engine = EvaluationEngine(workloads=WORKLOADS, scale=SCALE)
    base = cortex_a53_public_config()
    configs = [base.with_updates(c) for c in CANDIDATES]
    return [(configs, name, engine.trace(name)) for name in NAMES]


def test_process_poll_delivers_while_work_is_outstanding():
    groups = _groups()
    expected = {(gi, ci): stats
                for gi, (configs, _key, trace) in enumerate(groups)
                for ci, stats in enumerate(simulate_batch(trace, configs, decoder=Decoder()))}
    executor = ProcessExecutor(2)
    try:
        handle = executor.submit(groups, Decoder())
        delivered: dict = {}
        polls = 0
        while len(delivered) < len(expected):
            got = executor.poll(handle)
            polls += 1
            assert got, f"poll {polls} came back empty with work outstanding"
            assert not set(got) & set(delivered)
            delivered.update(got)
        assert delivered == expected
        assert executor.poll(handle) == {}  # nothing left: returns at once
    finally:
        executor.close()


def test_sync_race_on_a_process_engine_never_naps(monkeypatch, board):
    naps = []
    monkeypatch.setattr(EXECUTORS, "time", types.SimpleNamespace(
        sleep=naps.append, monotonic=time.monotonic))
    engine = EvaluationEngine(hw=board.core("a53"), workloads=WORKLOADS,
                              scale=SCALE, jobs=2)
    try:
        cache = TrialCache(AssignmentEvaluator(engine, cortex_a53_public_config()))
        result = race(CANDIDATES, NAMES, cache, batch_evaluate=cache.evaluate_batch,
                      first_test=2, min_survivors=1)
    finally:
        engine.close()
    assert result.evaluations == len(CANDIDATES) * len(NAMES)
    assert engine.telemetry.unique_trials == len(CANDIDATES) * len(NAMES)
    assert naps == []

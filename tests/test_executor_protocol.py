"""The executor protocol's blocking contract and the pool's trace hand-off.

``poll`` never sleeps, and an in-process executor delivers at least one
slot per poll while work is outstanding. So the engine's one blocking
loop, ``executors.drain``, naps only for the fabric, whose workers run
elsewhere.

The process pool is built once per executor, and its tasks carry their
trace as a columnar blob, so a worker needs nothing from its parent.
"""

import importlib
import multiprocessing
import time
import types
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.config import cortex_a53_public_config
from repro.engine import EvaluationEngine, ProcessExecutor, TrialCache
from repro.engine.evaluator import AssignmentEvaluator
from repro.fabric import check_decoder_portable
from repro.isa.decoder import BuggyDecoder, Decoder
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


# ----------------------------------------------------------------------
# Trace hand-off: every pool task carries its trace as a columnar blob
# ----------------------------------------------------------------------
def _counting_pools(monkeypatch) -> list:
    """Record every process pool the executors build from here on."""
    built = []

    def pool(*args, **kwargs):
        built.append(ProcessPoolExecutor(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(EXECUTORS, "ProcessPoolExecutor", pool)
    return built


FIX_NAMES = ["MM", "CCa"]


def _fix_run(jobs: int, steps) -> list:
    """Batches over FIX_NAMES, each after ``step(engine)`` changed it."""
    workloads = [get_microbenchmark(n) for n in FIX_NAMES]
    base = cortex_a53_public_config()
    configs = [base.with_updates(c) for c in CANDIDATES]
    pairs = [(config, name) for config in configs for name in FIX_NAMES]
    out = []
    with EvaluationEngine(workloads=workloads, scale=SCALE, jobs=jobs,
                          decoder=BuggyDecoder(), overrides={}) as engine:
        for step in steps:
            step(engine)
            out.append(engine.simulate_batch(pairs))
    return out


def _no_change(engine):
    pass


def _initialise_arrays(engine):
    engine.overrides["MM"] = {"initialized": True}


def _fix_decoder(engine):
    engine.decoder = Decoder()


def test_process_pool_is_built_once_as_the_trace_set_grows(monkeypatch):
    steps = [_no_change, _initialise_arrays, _no_change]
    expected = _fix_run(1, steps)
    pools = _counting_pools(monkeypatch)
    assert _fix_run(2, steps) == expected
    assert len(pools) == 1


def test_process_pool_attaches_each_decoder_library():
    steps = [_no_change, _fix_decoder]
    expected = _fix_run(1, steps)
    assert expected[0] != expected[1]  # the libraries really differ
    assert _fix_run(2, steps) == expected


def test_simulate_chunk_needs_nothing_from_the_parent():
    groups = _groups()
    expected = [simulate_batch(trace, configs, decoder=Decoder())
                for configs, _key, trace in groups]
    payloads = [(configs, key, trace.columns_with(Decoder()).to_blob(), Decoder)
                for configs, key, trace in groups]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        got = list(pool.map(EXECUTORS._simulate_chunk, payloads))
    assert got == expected


class _SizedDecoder(Decoder):
    """A decoder whose library depends on a constructor argument."""

    def __init__(self, width: int = 1) -> None:
        super().__init__()
        self.name = f"sized-{width}"


class _RecordingQueue:
    def __init__(self):
        self.enqueued = []

    def enqueue(self, tasks, submitted_by=None):
        self.enqueued.append(tasks)

    def close(self):
        pass


def test_executors_refuse_a_decoder_that_does_not_rebuild(monkeypatch):
    groups = _groups()
    pools = _counting_pools(monkeypatch)
    with pytest.raises(ValueError, match="not reconstructible"):
        ProcessExecutor(2).submit(groups, _SizedDecoder(2))
    assert pools == []
    queue = _RecordingQueue()
    fabric = EXECUTORS.FabricExecutor(store=None, queue=queue)
    with pytest.raises(ValueError, match="not reconstructible"):
        fabric.submit(groups, _SizedDecoder(2))
    assert queue.enqueued == []
    check_decoder_portable(_SizedDecoder())  # the default rebuilds exactly

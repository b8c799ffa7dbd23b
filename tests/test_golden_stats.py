"""Golden-trace regression: optimised hot path == pre-optimised results.

``tests/golden/golden_stats.json`` was captured from the pre-PR-3
(naive-loop) simulator at commit ``0ca23a4``: full ``SimStats`` payloads
for a mix of cores, workload categories and decoder libraries, plus
hardware-path perf counters. The optimised hot path (flattened streams,
inlined contention, cache fast paths) must reproduce every counter
bit-for-bit — this is the contract that makes the performance layer
safe to evolve.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import pytest

from repro.core.config import cortex_a53_public_config, cortex_a72_public_config
from repro.hardware.board import FireflyRK3399
from repro.isa.decoder import BuggyDecoder, Decoder
from repro.simulator import SnipeSim, simulate, simulate_batch
from repro.workloads.microbench import MICROBENCHMARKS
from repro.workloads.spec import SPEC_WORKLOADS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "golden_stats.json")


def _golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _workload(name):
    return MICROBENCHMARKS.get(name) or SPEC_WORKLOADS[name]


def _config(core):
    return cortex_a53_public_config() if core == "a53" else cortex_a72_public_config()


GOLDEN = _golden()


@pytest.mark.parametrize(
    "entry", GOLDEN["sim"],
    ids=[f"{e['core']}-{e['workload']}-{e['decoder']}" for e in GOLDEN["sim"]],
)
def test_sim_stats_match_pre_optimisation_golden(entry):
    decoder = BuggyDecoder() if entry["decoder"] == "buggy" else Decoder()
    stats = simulate(_config(entry["core"]), _workload(entry["workload"]).trace(),
                     decoder=decoder)
    assert asdict(stats) == entry["stats"]


@pytest.mark.parametrize(
    "entry", GOLDEN["hw"],
    ids=[f"{e['core']}-{e['workload']}" for e in GOLDEN["hw"]],
)
def test_hardware_counters_match_golden(entry):
    """The effects-attached (ground truth) path is bit-identical too."""
    board = FireflyRK3399()
    result = board.core(entry["core"]).measure(_workload(entry["workload"]).trace())
    assert result.counters == entry["counters"]
    assert result.cpi == entry["cpi"]


class TestStreamEquivalence:
    """A batch of one and ``SnipeSim.run`` are the same kernel over the
    same memoised stream, and that stream has the layout the cores
    unpack."""

    @pytest.mark.parametrize("core,workload", [("a53", "MM"), ("a72", "CS1")])
    def test_run_equals_run_stream(self, core, workload):
        config = _config(core)
        trace = _workload(workload).trace()
        decoder = Decoder()
        via_run = SnipeSim(config, decoder=decoder).run(trace)
        (via_batch,) = simulate_batch(trace, [config], decoder=decoder)
        assert asdict(via_batch) == asdict(via_run)

    def test_stream_is_memoised_per_decoder_library(self):
        trace = _workload("CCa").trace()
        a = trace.stream_with(Decoder())
        b = trace.stream_with(Decoder())
        assert a is b  # one flatten per decoder library
        c = trace.stream_with(BuggyDecoder())
        assert c is not a

    def test_build_stream_layout(self):
        trace = _workload("CCa").trace()
        decoder = Decoder()
        stream = trace.stream_with(decoder)
        # One trace representation: the stream is the columnar form's.
        assert stream is trace.columns_with(decoder).stream()
        assert len(stream) == len(trace)
        for (opclass, kind, dst, src1, src2, pc, addr, taken, target), rec in zip(
            stream, trace.records
        ):
            assert isinstance(opclass, int)
            assert isinstance(kind, int)
            assert isinstance(taken, bool)
            assert pc == rec.pc and addr == rec.addr
            assert taken == rec.taken and target == rec.target

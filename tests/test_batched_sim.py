"""Batched simulation: bit-identity and columnar blobs.

``simulate_batch`` runs K core instances over one trace's shared issue
stream; these tests pin its contract: results are *bit-identical* to
K independent ``simulate`` calls (and therefore to the pre-optimisation
golden stats), for both cores, both decoder libraries, K=1, mixed
batches and the hardware-effects path. The columnar blob round-trips
losslessly, and a malformed blob is refused, never attached.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import pytest

from repro.core.config import cortex_a53_public_config, cortex_a72_public_config
from repro.hardware import HardwareEffects
from repro.hardware.groundtruth import cortex_a53_effects, cortex_a53_ground_truth
from repro.isa.decoder import BuggyDecoder, Decoder
from repro.isa.encoding import encode
from repro.isa.opclasses import OpClass
from repro.simulator import simulate, simulate_batch
from repro.trace.columnar import _HEADER, BLOB_VERSION, ColumnarTrace
from repro.trace.record import DynInst, Trace
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


def _length_plus_five(blob):
    """``blob`` with its header's instruction count raised by five."""
    magic, version, n_fields, length = _HEADER.unpack_from(blob, 0)
    return _HEADER.pack(magic, version, n_fields, length + 5) + blob[_HEADER.size:]


class TestBatchBitIdentity:
    @pytest.mark.parametrize(
        "entry", GOLDEN["sim"],
        ids=[f"{e['core']}-{e['workload']}-{e['decoder']}" for e in GOLDEN["sim"]],
    )
    def test_k1_batch_matches_golden(self, entry):
        """A batch of one is the serial reference, down to the bit."""
        decoder = BuggyDecoder() if entry["decoder"] == "buggy" else Decoder()
        trace = _workload(entry["workload"]).trace()
        (stats,) = simulate_batch(trace, [_config(entry["core"])], decoder=decoder)
        assert asdict(stats) == entry["stats"]

    @pytest.mark.parametrize("core", ["a53", "a72"])
    @pytest.mark.parametrize("workload", ["MM", "CCa", "CS1"])
    def test_mixed_config_batch_matches_serial(self, core, workload):
        base = _config(core)
        configs = [
            base,
            base.with_updates({"branch.mispredict_penalty": 6}),
            base.with_updates({"l1d.size": 16384, "branch.btb_entries": 256}),
        ]
        trace = _workload(workload).trace()
        decoder = Decoder()
        batched = simulate_batch(trace, configs, decoder=decoder)
        for config, stats in zip(configs, batched):
            assert asdict(stats) == asdict(simulate(config, trace, decoder=decoder))

    def test_mixed_core_batch_on_one_trace(self):
        """In-order and out-of-order candidates share the same pass."""
        configs = [_config("a53"), _config("a72")]
        trace = _workload("ED1").trace()
        batched = simulate_batch(trace, configs)
        for config, stats in zip(configs, batched):
            assert asdict(stats) == asdict(simulate(config, trace))

    def test_buggy_decoder_batch_matches_serial(self):
        """The decoder-bug study fuses too — same bug, same numbers."""
        config = _config("a53")
        trace = _workload("MM").trace()
        decoder = BuggyDecoder()
        (stats,) = simulate_batch(trace, [config], decoder=decoder)
        assert asdict(stats) == asdict(simulate(config, trace, decoder=BuggyDecoder()))

    def test_empty_batch(self):
        assert simulate_batch(_workload("MM").trace(), []) == []

    def test_effects_batch_matches_serial(self):
        """Hardware effects are stateful per run: each candidate gets its
        own instance and still matches K independent ground-truth runs."""
        truth = cortex_a53_ground_truth()
        configs = [truth, truth.with_updates({"branch.mispredict_penalty": 6})]
        trace = _workload("CCa").trace()
        effects = [HardwareEffects(cortex_a53_effects()) for _ in configs]
        batched = simulate_batch(trace, configs, effects=effects)
        for config, stats in zip(configs, batched):
            serial = simulate(config, trace, effects=HardwareEffects(cortex_a53_effects()))
            assert asdict(stats) == asdict(serial)

    def test_effects_must_be_parallel_to_configs(self):
        trace = _workload("CCa").trace()
        with pytest.raises(ValueError, match="parallel to configs"):
            simulate_batch(trace, [_config("a53")], effects=[])

    def test_columnar_trace_accepted_directly(self):
        """simulate_batch over an already-columnar trace (the fabric
        worker's mmap-attached form) is the same pass."""
        config = _config("a53")
        trace = _workload("MM").trace()
        decoder = Decoder()
        columns = trace.columns_with(decoder)
        (stats,) = simulate_batch(columns, [config], decoder=decoder)
        assert asdict(stats) == asdict(simulate(config, trace, decoder=decoder))


class TestColumnarBlob:
    def test_blob_round_trip_is_lossless_and_stable(self):
        trace = _workload("CCa").trace()
        cols = trace.columns_with(Decoder())
        blob = cols.to_blob()
        restored = ColumnarTrace.from_blob(blob)
        assert restored.name == cols.name
        assert restored.library == cols.library
        assert len(restored) == len(cols) == len(trace)
        assert restored.tuples(0, len(restored)) == cols.tuples(0, len(cols))
        # Re-serialising the attached form reproduces the blob byte for
        # byte — the content address is stable across hops.
        assert restored.to_blob() == blob

    def test_blob_matches_stream(self):
        trace = _workload("MM").trace()
        decoder = Decoder()
        cols = ColumnarTrace.from_blob(trace.columns_with(decoder).to_blob())
        assert cols.stream_with(decoder) == trace.stream_with(decoder)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="bad magic"):
            ColumnarTrace.from_blob(b"NOPE" + b"\0" * 32)

    def test_future_version_rejected(self):
        trace = _workload("CCa").trace()
        blob = bytearray(trace.columns_with(Decoder()).to_blob())
        blob[4:6] = (BLOB_VERSION + 1).to_bytes(2, "little")
        with pytest.raises(ValueError, match="version"):
            ColumnarTrace.from_blob(bytes(blob))

    def test_hand_built_trace_round_trips_every_record_kind(self):
        """An ALU op, a load with its address, a taken branch with its
        target and a revisited pc all survive the blob."""
        word_alu = encode(OpClass.IALU, 1, 2, 3)
        trace = Trace(
            [
                DynInst(0x1000, word_alu),
                DynInst(0x1004, encode(OpClass.LOAD, 4, 5), addr=0xBEEF0),
                DynInst(0x1008, encode(OpClass.BRANCH, -1, 2), taken=True, target=0x1000),
                DynInst(0x1000, word_alu),
            ],
            name="simple",
        )
        decoder = Decoder()
        restored = ColumnarTrace.from_blob(trace.columns_with(decoder).to_blob())
        assert restored.name == "simple"
        assert restored.stream_with(decoder) == trace.stream_with(decoder)

    def test_whole_blob_with_bad_magic_rejected(self):
        """The magic is checked even when the rest of the blob is sound."""
        blob = bytearray(_workload("CCa").trace().columns_with(Decoder()).to_blob())
        blob[0:4] = b"NOPE"
        with pytest.raises(ValueError, match="bad magic"):
            ColumnarTrace.from_blob(bytes(blob))

    def test_older_version_rejected(self):
        """No earlier blob version is read back either."""
        blob = bytearray(_workload("CCa").trace().columns_with(Decoder()).to_blob())
        blob[4:6] = (BLOB_VERSION - 1).to_bytes(2, "little")
        with pytest.raises(ValueError, match="version"):
            ColumnarTrace.from_blob(bytes(blob))

    def test_library_mismatch_raises(self):
        cols = _workload("CCa").trace().columns_with(Decoder())
        assert cols.matches(Decoder())
        assert not cols.matches(BuggyDecoder())
        with pytest.raises(ValueError, match="re-record"):
            cols.stream_with(BuggyDecoder())
        with pytest.raises(ValueError, match="re-record"):
            cols.columns_with(BuggyDecoder())

    def test_empty_trace_round_trips(self):
        cols = Trace([], name="empty").columns_with(Decoder())
        blob = cols.to_blob()
        restored = ColumnarTrace.from_blob(blob)
        assert len(restored) == 0 and restored.name == "empty"
        assert restored.stream() == []
        assert restored.to_blob() == blob

    def test_non_ascii_name_round_trips(self):
        trace = Trace(_workload("CCa").trace().records, name="bênch-µ")
        cols = trace.columns_with(Decoder())
        restored = ColumnarTrace.from_blob(cols.to_blob())
        assert restored.name == "bênch-µ"
        assert restored.to_blob() == cols.to_blob()

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda blob: blob[:-2], id="truncated-2"),
        pytest.param(lambda blob: blob[:-8], id="truncated-8"),
        pytest.param(lambda blob: blob + b"\0", id="trailing-byte"),
        pytest.param(_length_plus_five, id="header-length-plus-5"),
        pytest.param(lambda blob: blob[:_HEADER.size], id="header-only"),
    ])
    def test_malformed_blob_rejected(self, damage):
        """Structural damage raises ValueError and never attaches: a blob
        short by one ``Q`` entry would otherwise simulate to other stats."""
        blob = _workload("CCa").trace().columns_with(Decoder()).to_blob()
        with pytest.raises(ValueError, match="columnar blob"):
            ColumnarTrace.from_blob(damage(blob))

"""Cross-module integration tests: the full paper workflow in miniature."""

import pytest

from repro.core.config import cortex_a53_public_config
from repro.isa.decoder import BuggyDecoder, Decoder
from repro.simulator import SnipeSim, simulate
from repro.trace.columnar import ColumnarTrace
from repro.tuning import IraceTuner, OrdinalParam, ParamSpace
from repro.tuning.cost import cpi_error
from repro.workloads.microbench import get_microbenchmark


class TestTraceOnceSimulateMany:
    def test_rcol_file_roundtrip_preserves_simulation(self, tmp_path, a53_config):
        """Record once, serialise, reload, simulate — the SIFT workflow."""
        trace = get_microbenchmark("MD").trace()
        path = tmp_path / "md.rcol"
        path.write_bytes(trace.columns_with(Decoder()).to_blob())
        restored = ColumnarTrace.from_blob(path.read_bytes())
        sim = SnipeSim(a53_config)
        assert sim.run(trace) == sim.run(restored)

    def test_one_trace_many_configs(self, a53_config):
        trace = get_microbenchmark("ML2").trace()
        cycles = {
            lat: simulate(a53_config.with_updates({"l2.hit_latency": lat}), trace).cycles
            for lat in (11, 14, 17)
        }
        assert cycles[11] < cycles[14] < cycles[17]


class TestDecoderBugStudy:
    def test_buggy_decoder_underestimates_dependent_fp(self, a53_config):
        """The §IV-B Capstone-bug signature: dependence chains vanish.

        The chain runs through the *second* source operand — exactly the
        operand the buggy decoder drops — so the correct decoder
        serialises at the FP latency while the buggy one pipelines.
        """
        from repro.frontend.builder import ProgramBuilder
        from repro.frontend.interpreter import trace_program
        from repro.frontend.program import PatternTaken
        from repro.isa.opclasses import OpClass
        from repro.isa.registers import fp_reg, int_reg

        b = ProgramBuilder("fp-chain")
        b.label("top")
        for _ in range(10):
            b.op(OpClass.FPALU, fp_reg(1), fp_reg(0), fp_reg(1))
        b.branch("top", PatternTaken("T" * 49 + "N"), cond_reg=int_reg(2))
        trace = trace_program(b.build())

        correct = SnipeSim(a53_config, decoder=Decoder()).run(trace)
        buggy = SnipeSim(a53_config, decoder=BuggyDecoder()).run(trace)
        assert buggy.cpi < 0.5 * correct.cpi
        assert buggy.decoder != correct.decoder

    def test_bug_invisible_on_integer_code(self, a53_config):
        trace = get_microbenchmark("EI").trace()
        correct = SnipeSim(a53_config, decoder=Decoder()).run(trace)
        buggy = SnipeSim(a53_config, decoder=BuggyDecoder()).run(trace)
        assert buggy.cycles == correct.cycles


class TestTuningAgainstBoard:
    def test_irace_recovers_divide_latency(self, board):
        """ED1 is latency-bound on the divider: racing one parameter
        against hardware must recover the silicon's effective latency."""
        base = cortex_a53_public_config()
        trace = get_microbenchmark("ED1").trace()
        hw = board.a53.measure(trace)
        space = ParamSpace([OrdinalParam("execute.idiv_latency", [4, 6, 8, 12, 16, 20])])

        def evaluate(assignment, instance):
            return cpi_error(simulate(base.with_updates(assignment), trace), hw)

        tuner = IraceTuner(space, evaluate, instances=["ED1"] * 6, budget=60,
                           seed=2, first_test=2)
        result = tuner.run()
        assert result.best_assignment["execute.idiv_latency"] == 4  # truth
        assert result.best_cost < 0.15

    def test_hardware_vs_simulator_counters_consistent(self, board, a53_config):
        """Branch counts are architectural: hardware and simulator agree
        exactly; cycles (timing) differ."""
        trace = get_microbenchmark("CCh").trace()
        hw = board.a53.measure(trace)
        sim = SnipeSim(a53_config).run(trace)
        assert hw.counter("branches") == sim.branch.branches
        assert hw.instructions == sim.instructions

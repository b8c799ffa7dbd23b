"""In-order core timing behaviour."""

import pytest

from repro.core.inorder import InOrderCore
from repro.simulator import SnipeSim
from tests.conftest import make_alu_loop_trace, make_load_loop_trace


def _run(config, trace):
    return SnipeSim(config).run(trace)


class TestThroughput:
    def test_independent_alu_dual_issues(self, a53_config):
        trace = make_alu_loop_trace(n_iters=100, body=8)
        stats = _run(a53_config, trace)
        # 2-wide in-order: CPI should approach 0.5 on independent ALU work.
        assert stats.cpi < 0.75

    def test_single_issue_config_halves_throughput(self, a53_config):
        trace = make_alu_loop_trace(n_iters=100, body=8)
        wide = _run(a53_config, trace).cpi
        narrow = _run(a53_config.with_updates({"pipeline.issue_width": 1}), trace).cpi
        assert narrow > 1.5 * wide

    def test_dependent_chain_serialises(self, a53_config):
        dep = make_alu_loop_trace(n_iters=100, body=8, dependent=True)
        indep = make_alu_loop_trace(n_iters=100, body=8, dependent=False)
        assert _run(a53_config, dep).cpi > 1.4 * _run(a53_config, indep).cpi

    def test_wrong_core_type_rejected(self, a72_config):
        with pytest.raises(ValueError):
            InOrderCore(a72_config)


class TestMemoryBehaviour:
    def test_l1_resident_loads_fast(self, a53_config):
        trace = make_load_loop_trace(window=8 * 1024, n_iters=300)
        stats = _run(a53_config, trace)
        # After the cold pass the stream hits in the L1.
        assert stats.l1d.miss_rate < 0.1
        assert stats.cpi < 3

    def test_dram_resident_loads_slow(self, a53_config):
        near = _run(a53_config, make_load_loop_trace(window=8 * 1024)).cpi
        far = _run(a53_config, make_load_loop_trace(window=8 * 1024 * 1024)).cpi
        assert far > 3 * near

    def test_higher_l2_latency_costs_cycles(self, a53_config):
        # 64 KB working set: spills the 32 KB L1D, lives in the L2.
        trace = make_load_loop_trace(window=64 * 1024, n_iters=400)
        fast = _run(a53_config.with_updates({"l2.hit_latency": 10}), trace).cycles
        slow = _run(a53_config.with_updates({"l2.hit_latency": 20}), trace).cycles
        assert slow > fast

    def test_stall_on_use_beats_stall_on_load(self, a53_config):
        trace = make_load_loop_trace(window=512 * 1024)
        on_use = _run(a53_config.with_updates({"pipeline.stall_on_use": True}), trace).cycles
        on_load = _run(a53_config.with_updates({"pipeline.stall_on_use": False}), trace).cycles
        assert on_use <= on_load


class TestBranchBehaviour:
    def test_mispredict_penalty_scales_cycles(self, a53_config):
        from repro.frontend.builder import ProgramBuilder
        from repro.frontend.interpreter import trace_program
        from repro.frontend.program import PatternTaken, RandomTaken
        from repro.isa.opclasses import OpClass
        from repro.isa.registers import int_reg

        b = ProgramBuilder("hard-branches")
        b.label("top")
        for k in range(4):
            b.branch(f"s{k}", RandomTaken(0.5, seed=k), cond_reg=int_reg(2))
            b.op(OpClass.IALU, int_reg(3), int_reg(1), int_reg(2))
            b.label(f"s{k}")
        b.branch("top", PatternTaken("T" * 99 + "N"), cond_reg=int_reg(2))
        trace = trace_program(b.build())

        cheap = _run(a53_config.with_updates({"branch.mispredict_penalty": 6}), trace)
        dear = _run(a53_config.with_updates({"branch.mispredict_penalty": 12}), trace)
        assert dear.cycles > cheap.cycles
        assert dear.branch.mispredicts == cheap.branch.mispredicts

    def test_better_predictor_fewer_mispredicts(self, a53_config):
        from repro.frontend.builder import ProgramBuilder
        from repro.frontend.interpreter import trace_program
        from repro.frontend.program import PatternTaken
        from repro.isa.opclasses import OpClass
        from repro.isa.registers import int_reg

        b = ProgramBuilder("patterned")
        b.label("top")
        for k in range(4):
            b.branch(f"s{k}", PatternTaken("TTNN"), cond_reg=int_reg(2))
            b.op(OpClass.IALU, int_reg(3), int_reg(1), int_reg(2))
            b.label(f"s{k}")
        b.branch("top", PatternTaken("T" * 199 + "N"), cond_reg=int_reg(2))
        trace = trace_program(b.build())

        static = _run(a53_config.with_updates({"branch.predictor": "static-taken"}), trace)
        gshare = _run(a53_config.with_updates({"branch.predictor": "gshare"}), trace)
        assert gshare.branch.mispredicts < static.branch.mispredicts
        assert gshare.cycles < static.cycles


class TestDeterminism:
    def test_same_trace_same_cycles(self, a53_config, alu_trace):
        assert _run(a53_config, alu_trace).cycles == _run(a53_config, alu_trace).cycles

    def test_simulator_facade_fresh_state_per_run(self, a53_config, load_trace):
        sim = SnipeSim(a53_config)
        first = sim.run(load_trace)
        second = sim.run(load_trace)
        assert first.cycles == second.cycles
        assert first.l1d.misses == second.l1d.misses

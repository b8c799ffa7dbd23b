"""Out-of-order core timing behaviour."""

import pytest

from repro.core.ooo import OutOfOrderCore
from repro.simulator import SnipeSim
from tests.conftest import make_alu_loop_trace, make_load_loop_trace


def _run(config, trace):
    return SnipeSim(config).run(trace)


class TestWindow:
    def test_wrong_core_type_rejected(self, a53_config):
        with pytest.raises(ValueError):
            OutOfOrderCore(a53_config)

    def test_ooo_overlaps_misses_better_than_inorder(self, a53_config, a72_config):
        trace = make_load_loop_trace(window=1024 * 1024, n_iters=40)
        in_cpi = _run(a53_config, trace).cpi
        ooo_cpi = _run(a72_config, trace).cpi
        assert ooo_cpi < 0.8 * in_cpi

    def test_bigger_rob_helps_memory_parallelism(self, a72_config):
        trace = make_load_loop_trace(window=4 * 1024 * 1024, n_iters=40)
        small = _run(a72_config.with_updates({"pipeline.rob_size": 8}), trace).cycles
        large = _run(a72_config.with_updates({"pipeline.rob_size": 192}), trace).cycles
        assert large < small

    def test_ldq_bounds_outstanding_loads(self, a72_config):
        trace = make_load_loop_trace(window=4 * 1024 * 1024, n_iters=30)
        tiny = _run(a72_config.with_updates({"pipeline.ldq_entries": 2}), trace).cycles
        wide = _run(a72_config.with_updates({"pipeline.ldq_entries": 24}), trace).cycles
        assert wide <= tiny

    def test_commit_width_bounds_ipc(self, a72_config):
        trace = make_alu_loop_trace(n_iters=150, body=12)
        stats = _run(a72_config, trace)
        # IPC can never exceed the commit width.
        assert stats.ipc <= a72_config.pipeline.commit_width + 1e-9

    def test_narrow_commit_throttles(self, a72_config):
        trace = make_alu_loop_trace(n_iters=150, body=12)
        narrow = _run(a72_config.with_updates({"pipeline.commit_width": 1}), trace)
        wide = _run(a72_config.with_updates({"pipeline.commit_width": 3}), trace)
        assert narrow.cycles > 1.5 * wide.cycles


class TestLatencyHiding:
    def test_dependent_chain_bound_by_latency(self, a72_config):
        dep = make_alu_loop_trace(n_iters=150, body=8, dependent=True)
        indep = make_alu_loop_trace(n_iters=150, body=8, dependent=False)
        assert _run(a72_config, dep).cpi > 1.5 * _run(a72_config, indep).cpi

    def test_mispredict_penalty_matters(self, a72_config):
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
        cheap = _run(a72_config.with_updates({"branch.mispredict_penalty": 10}), trace)
        dear = _run(a72_config.with_updates({"branch.mispredict_penalty": 18}), trace)
        assert dear.cycles > cheap.cycles

    def test_determinism(self, a72_config, alu_trace):
        assert _run(a72_config, alu_trace).cycles == _run(a72_config, alu_trace).cycles

#!/usr/bin/env python
"""Quickstart: simulate a micro-benchmark and compare against "hardware".

Records a trace of one Table-I kernel, measures it on the board's
Cortex-A53 cluster, runs the public-information simulator model on the
same trace, and prints both sides — the basic loop everything else in
this repository is built from.

Run:  python examples/quickstart.py
"""

from repro.analysis.tables import render_table
from repro.core.config import cortex_a53_public_config
from repro.hardware import FireflyRK3399
from repro.simulator import SnipeSim
from repro.workloads.microbench import get_microbenchmark


def main() -> None:
    board = FireflyRK3399()
    workload = get_microbenchmark("ML2")
    trace = workload.trace()
    print(f"workload: {workload.name} — {workload.description.splitlines()[0]}")
    print(f"trace: {len(trace)} dynamic instructions "
          f"(paper ran {workload.paper_instructions})\n")

    hw = board.a53.measure(trace)
    sim = SnipeSim(cortex_a53_public_config()).run(trace)

    rows = [
        ["cycles", hw.cycles, sim.cycles],
        ["CPI", f"{hw.cpi:.3f}", f"{sim.cpi:.3f}"],
        ["branch misses", hw.counter("branch-misses"), sim.branch.mispredicts],
        ["L1D misses", hw.counter("L1-dcache-load-misses"), sim.l1d.misses],
        ["L2 misses", hw.counter("l2-misses"), sim.l2.misses],
    ]
    print(render_table(["metric", "hardware (A53)", "simulator (public cfg)"], rows))
    error = abs(sim.cpi - hw.cpi) / hw.cpi
    print(f"\nCPI prediction error of the untuned model: {error:.1%}")
    print("examples/validate_a53.py shows how the racing tuner removes it.")


if __name__ == "__main__":
    main()
